import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wml.linalg import (EllipsoidError, ValidationError, _deflated_top,
                        _design_update, _eig_compose, _gram, _quad,
                        _spanning_core, _top_eigenvalue_3x3, jacobi_eigh,
                        mvee_central, spd_power, spectral_norm, sym_inv)
from wml.weights import EIG_CLIP_RATIO

from directions import direction_set


def test_jacobi_matches_lapack_oracle():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4, 6):
        m = rng.standard_normal((7, d, d))
        m = m + np.swapaxes(m, 1, 2)
        vals, vecs = jacobi_eigh(m)
        assert np.allclose(vals, np.linalg.eigvalsh(m), atol=1e-12)
        recon = np.einsum("bij,bj,bkj->bik", vecs, vals, vecs)
        assert np.allclose(recon, m, atol=1e-12)


@pytest.mark.parametrize("kappa", (1e2, 1e5, 1e10))
def test_jacobi_reconstructs_ill_conditioned_3x3(kappa):
    # the sweeps stop once the off-diagonal mass is below 1e-14 (45 eps)
    # of the Frobenius norm, at most sqrt(3) times the spectral norm, and
    # the rotations add a few eps: V diag(vals) V^T is A within 100 eps
    # relative. A stopping test that forms the off-diagonal mass as
    # sum(a^2) - sum(diag^2) can read 0 near sqrt(eps) ||A||, and stopped
    # there on a third of these matrices
    rng = np.random.default_rng(int(np.log10(kappa)))
    b = 2000
    q, _ = np.linalg.qr(rng.standard_normal((b, 3, 3)))
    lam = kappa ** -rng.random((b, 3))
    lam[:, 0], lam[:, 1] = 1.0, 1.0 / kappa
    a = (q * lam[:, None, :]) @ np.swapaxes(q, 1, 2)
    a = 0.5 * (a + np.swapaxes(a, 1, 2))
    vals, vecs = jacobi_eigh(a)
    recon = (vecs * vals[:, None, :]) @ np.swapaxes(vecs, 1, 2)
    err = np.linalg.norm(recon - a, 2, axis=(1, 2)) \
        / np.linalg.norm(a, 2, axis=(1, 2))
    eps = np.finfo(float).eps
    assert err.max() <= 100.0 * eps, err.max() / eps


def test_spd_power_identity_and_diag():
    for alpha in (-1.0, -0.5, 0.5, 2.0):
        assert np.allclose(spd_power(np.eye(3), alpha), np.eye(3), atol=1e-12)
    assert np.allclose(spd_power(np.diag([4.0, 9.0]), 0.5),
                       np.diag([2.0, 3.0]), atol=1e-12)


def test_spd_power_sqrt_squares_back():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 3, 3))
    m = np.einsum("bij,bkj->bik", a, a) + 0.1 * np.eye(3)
    root = spd_power(m, 0.5)
    assert np.max(np.abs(root @ root - m)) < 1e-10


def test_spd_power_rejects_non_spd():
    with pytest.raises(ValidationError):
        spd_power(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.5)
    with pytest.raises(ValidationError):
        spd_power(np.diag([1.0, -2.0]), 0.5)


def test_spectral_norm_examples():
    assert spectral_norm(np.diag([2.0, 5.0])) == pytest.approx(5.0, abs=1e-12)
    u = np.array([1.0, 2.0, 2.0])
    assert spectral_norm(np.outer(u, u)) == pytest.approx(9.0, rel=1e-12)


def _charpoly_largest_singular(m):
    # roots of det(M^T M - lam I) via companion polynomial, d <= 3
    g = m.T @ m
    d = g.shape[0]
    if d == 2:
        coeffs = [1.0, -np.trace(g), np.linalg.det(g)]
    else:
        t = np.trace(g)
        t2 = np.trace(g @ g)
        coeffs = [1.0, -t, 0.5 * (t * t - t2), -np.linalg.det(g)]
    lam = max(r.real for r in np.roots(coeffs))
    return np.sqrt(lam)


def test_spectral_norm_charpoly_oracle():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        for _ in range(10):
            m = rng.standard_normal((d, d))
            assert spectral_norm(m) == pytest.approx(
                _charpoly_largest_singular(m), rel=1e-10)


def _fit_one(norm):
    """Loewner fit of the unit ball of a single norm on R^2, sampled on the
    360-axis set: every sampled boundary point lies in the ellipsoid."""
    dirs = direction_set(2)
    pts = dirs / norm(dirs)[:, None]
    a, inner, _ = mvee_central(pts, eps=1e-3 * (2.0 + 1e-3))
    assert np.max(np.linalg.norm(pts @ a.T, axis=1)) <= 1.0 + 1e-12
    assert inner <= np.sqrt(2.0 * (1.0 + 2e-3))
    return a


def test_mvee_euclidean_ball_is_identity():
    a = _fit_one(lambda e: np.linalg.norm(e, axis=1))
    assert np.max(np.abs(a - np.eye(2))) < 2e-3


def test_mvee_linear_image():
    d_mat = np.diag([0.5, 3.0])
    a = _fit_one(lambda e: np.linalg.norm(e @ d_mat.T, axis=1))
    assert np.max(np.abs(a - d_mat)) < 1e-2


def test_mvee_square_gives_circle_over_sqrt2():
    # Loewner ellipsoid of the sup-norm square is the circle of radius
    # sqrt(2), sampled on the standard 360-axis set
    a = _fit_one(lambda e: np.max(np.abs(e), axis=1))
    assert np.max(np.abs(a - np.eye(2) / np.sqrt(2.0))) < 2e-3


def test_mvee_central_inner_outer_certificates():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((40, 3))
    a, inner, _ = mvee_central(pts, eps=1e-6)
    support = np.linalg.norm(pts @ a.T, axis=1)
    assert np.max(support) <= 1.0 + 1e-12          # containment
    assert inner <= np.sqrt(3.0 * (1.0 + 1e-5))    # John factor


def _clouds(seed, b, n, d, axis_ratio):
    """b seeded Gaussian clouds of n points, each stretched along a random
    frame with axis lengths log-spaced from 1 to axis_ratio."""
    rng = np.random.default_rng(seed)
    out = np.empty((b, n, d))
    for i in range(b):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        out[i] = rng.standard_normal((n, d)) @ (
            q * np.logspace(0.0, np.log10(axis_ratio), d)).T
    return out


def _assert_mvee_contract(pts, eps):
    a, inner, a_inv = mvee_central(pts, eps=eps)
    d = pts.shape[-1]
    support = np.linalg.norm(pts @ np.swapaxes(a, -1, -2), axis=-1)
    assert np.max(support) <= 1.0 + 1e-12                  # containment
    assert np.all(inner <= np.sqrt(d * (1.0 + eps)))       # John factor
    assert np.allclose(a, np.swapaxes(a, -1, -2), rtol=0.0,
                       atol=1e-12 * np.max(np.abs(a)))
    # the inverse comes from the same spectrum as A: A^{-1} A is I up to
    # the rounding of two compositions V diag V^T, a few eps times the
    # condition number of A
    cond = np.linalg.cond(a)[..., None, None]
    assert np.all(np.abs(a_inv @ a - np.eye(d))
                  <= 16 * d * np.finfo(float).eps * cond)


@pytest.mark.parametrize("d", (2, 3, 5))
@pytest.mark.parametrize("axis_ratio", (1.0, 1e3))
def test_mvee_contract_on_seeded_clouds(d, axis_ratio):
    # n above the active-set size k = max(6 d (d+1), 24): violators are
    # promoted over several rounds
    _assert_mvee_contract(_clouds(10 * d, 3, 400, d, axis_ratio), eps=1e-3)


@pytest.mark.parametrize("d", (2, 3, 5))
def test_mvee_contract_fewer_points_than_active_set(d):
    # n < k: the whole cloud is active from the start
    _assert_mvee_contract(_clouds(d, 4, d + 3, d, 1e3), eps=1e-3)


@pytest.mark.parametrize("d", (2, 3, 5))
def test_mvee_contract_on_mixed_batch(d):
    # one batch holds round and eccentric clouds, which converge after
    # different numbers of promotion rounds and leave the batch at
    # different times
    pts = np.concatenate([direction_set(d, 400, seed=d)[None],
                          _clouds(d + 1, 2, 400, d, 1e3),
                          _clouds(d + 2, 1, 400, d, 1.0)])
    _assert_mvee_contract(pts, eps=1e-4)


@pytest.mark.parametrize("d", (2, 3, 5))
def test_mvee_contract_on_degenerate_clouds(d):
    # clouds whose warm start puts its weight on near-copies of one point:
    # each of 60 directions repeated 4 times, and a Gaussian cloud with a
    # cluster of 50 near-copies of one far point. The design must start
    # from points that span R^d, not from the copies
    rng = np.random.default_rng(40 + d)
    repeated = np.tile(direction_set(d, 60, seed=d), (4, 1))
    far = 30.0 * direction_set(d, 1, seed=d + 1)
    cluster = np.concatenate([rng.standard_normal((200, d)),
                              far + 1e-6 * rng.standard_normal((50, d))])
    _assert_mvee_contract(repeated, eps=1e-3)
    _assert_mvee_contract(cluster, eps=1e-3)


@pytest.mark.parametrize("d", (2, 3, 5))
@pytest.mark.parametrize("axis_ratio", (1.0, 1e3))
@pytest.mark.parametrize("n", (None, 4))
def test_design_update_tracks_fresh_quadratic_forms(d, axis_ratio, n):
    # the rank-one updated g must match a fresh x^T S^{-1} x at exit, from
    # weights on every point and from weights on the d spanning points
    # that mvee_central starts from, where the others can enter by add
    # steps and leave by away steps
    n = 6 * d * (d + 1) if n is None else d + n
    xa = _clouds(100 + d, 3, n, d, axis_ratio)
    uniform = np.full(xa.shape[:2], 1.0 / n)
    sparse = np.where(_spanning_core(xa), 1.0 / d, 0.0)
    target = d * (1.0 + 5e-4)
    for ua in (uniform, sparse):
        u, s, g, used = _design_update(xa, ua, d, target, 4000)
        fresh = _quad(xa, np.linalg.inv(s))
        assert np.max(np.abs(g - fresh) / fresh) <= 1e-9
        assert used < 4000 and np.max(fresh) <= target * (1.0 + 1e-9)
        assert np.all(u >= 0.0) and np.allclose(u.sum(axis=1), 1.0,
                                                atol=1e-12)


def test_mvee_nonconvergence_error_carries_state():
    # 33 axes: no two are orthogonal, so unlike the 32 axes pi k / 32 the
    # regular polygon's Loewner circle is not the moment of a spanning core
    # pair, and 3 steps cannot reach it
    pts = direction_set(2, 33)
    with pytest.raises(EllipsoidError) as err:
        mvee_central(pts, eps=1e-12, max_iter=3)
    assert err.value.last_matrix is not None
    assert err.value.achieved > err.value.bound == 1.0 + 1e-12


@pytest.mark.parametrize("pts", (
    np.outer([1.0, 2.0, -3.0, 0.5], [0.6, 0.8]),    # 4 collinear points
    np.zeros((4, 2))))
def test_mvee_rejects_clouds_that_do_not_span(pts):
    # the second moment of a collinear cloud is singular only up to
    # rounding, and its Cholesky factor exists; the rank test names the
    # problem instead of a singular solve deep in the fit
    with pytest.raises(ValidationError, match="does not span R\\^2"):
        mvee_central(pts)
    # next to a cloud that spans, it fails the whole call
    with pytest.raises(ValidationError, match="does not span"):
        mvee_central(np.stack([direction_set(2, 4), pts]))


def test_direction_counts_follow_configuration():
    assert direction_set(2).shape == (360, 2)
    assert direction_set(3).shape == (2048, 3)
    assert direction_set(4).shape == (8192, 4)
    norms = np.linalg.norm(direction_set(3), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_plane_directions_are_one_per_axis():
    # a norm takes the same value on u and -u, so the d = 2 set holds one
    # direction per axis: no two are antipodal, and each of 720 equispaced
    # angles on the whole circle is +- one of them, up to the rounding of
    # cos and sin at angles up to 2 pi (at most 1.2e-15 per coordinate)
    dirs = direction_set(2)
    assert np.min(np.linalg.norm(dirs[:, None] + dirs, axis=2)) > 1e-3
    ang = 2.0 * np.pi * np.arange(720) / 720
    full = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    gap = np.minimum(np.abs(full[:, None] - dirs).max(axis=2),
                     np.abs(full[:, None] + dirs).max(axis=2))
    assert np.all(np.sum(gap <= 10.0 * np.finfo(float).eps, axis=1) == 1)


def _assert_partition_invariant(fn, batch, labels):
    """fn on the whole batch equals fn on each part of the partition given
    by labels, bitwise, for every output array."""
    whole = fn(batch)
    whole = whole if isinstance(whole, tuple) else (whole,)
    for k in np.unique(labels):
        part = fn(batch[labels == k])
        part = part if isinstance(part, tuple) else (part,)
        for w, q in zip(whole, part):
            assert np.array_equal(w[labels == k], q), k


@st.composite
def spd_batches(draw):
    """A stack of SPD matrices in random frames, log-eigenvalues with
    spread sigma, and a partition label per matrix."""
    d = draw(st.sampled_from((2, 3)))
    b = draw(st.integers(2, 16))
    sigma = draw(st.floats(0.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((b, d, d)))
    mats = (q * np.exp(sigma * rng.standard_normal((b, 1, d)))) \
        @ np.swapaxes(q, 1, 2)
    mats = 0.5 * (mats + np.swapaxes(mats, 1, 2))
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=b,
                                    max_size=b)))
    return mats, labels


@settings(max_examples=60, deadline=None)
@given(spd_batches())
def test_eigen_kernels_independent_of_batch_mates(batch):
    mats, labels = batch
    _assert_partition_invariant(jacobi_eigh, mats, labels)
    _assert_partition_invariant(sym_inv, mats, labels)
    _assert_partition_invariant(lambda m: spd_power(m, 0.5), mats, labels)
    # the closed forms at d = 2 and 3; general matrices as well
    _assert_partition_invariant(spectral_norm, mats, labels)
    _assert_partition_invariant(
        spectral_norm, mats @ np.flip(mats, axis=-1), labels)


@pytest.mark.parametrize("d", (2, 3))
def test_mvee_kernels_independent_of_batch_mates(d):
    # round and eccentric clouds converge after different numbers of steps
    # and promotion rounds; every partition of the batch, down to one cloud
    # per call, must reproduce the batched result (the iteration count
    # _design_update returns is the batch's, so it is left out)
    pts = np.concatenate([_clouds(d, 3, 300, d, 1.0),
                          _clouds(d + 7, 3, 300, d, 1e3)])
    k = 6 * d * (d + 1)
    for labels in (np.arange(6), np.array([0, 1, 0, 1, 0, 1]),
                   np.array([0, 0, 0, 1, 1, 1])):
        _assert_partition_invariant(mvee_central, pts, labels)
        _assert_partition_invariant(
            lambda x: _design_update(x[:, :k], np.full((len(x), k), 1.0 / k),
                                     d, d * (1.0 + 1e-3), 4000)[:3],
            pts, labels)


def _rotations(angles):
    c, s = np.cos(angles), np.sin(angles)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_closed_form_2x2_spectral_norm_matches_jacobi(seed):
    # 2 x 2 matrices in random frames whose Gram eigenvalue ratio runs from
    # 1 down to EIG_CLIP_RATIO, over twelve decades of scale; the largest
    # relative difference found against the top Jacobi eigenvalue, over
    # a million such matrices, was 2.1 eps
    rng = np.random.default_rng(seed)
    b = 2000
    ratio = 10.0 ** rng.uniform(np.log10(EIG_CLIP_RATIO), 0.0, b)
    ratio[:2] = EIG_CLIP_RATIO, 1.0
    sv = 10.0 ** rng.uniform(-6.0, 6.0, (b, 1)) * np.stack(
        [np.ones(b), np.sqrt(ratio)], axis=1)
    u, v = _rotations(rng.uniform(0.0, 2.0 * np.pi, (2, b)))
    u[:2], v[:2] = np.eye(2), np.eye(2)       # a diagonal Gram matrix too
    m = (u * sv[:, None, :]) @ np.swapaxes(v, 1, 2)
    closed = spectral_norm(m)
    jacobi = np.sqrt(jacobi_eigh(np.swapaxes(m, 1, 2) @ m)[0][:, -1])
    worst = np.max(np.abs(closed - jacobi) / jacobi)
    assert worst <= 4.0 * np.finfo(float).eps, worst


def _frames(rng, b):
    """b random 3 x 3 orthogonal matrices."""
    return np.linalg.qr(rng.standard_normal((b, 3, 3)))[0]


def _gram_roots(rng, half_det, lift, s):
    """SPD 3 x 3 roots in random frames of Gram matrices
    G = m I + s Q diag(2 cos(phi + 2 pi k / 3)) Q^T, phi = arccos(h) / 3,
    so that B = (G - m I) / s has det(B) / 2 = h: the top two eigenvalues
    of B meet as h -> -1, the bottom two as h -> 1. m is ``lift`` >= 1
    times s |bottom eigenvalue of B|, so that G is positive semi-definite
    with bottom eigenvalue (lift - 1) m / lift."""
    phi = np.arccos(half_det) / 3.0
    unit = 2.0 * np.cos(phi[:, None] + 2.0 * np.pi * np.arange(3) / 3.0)
    lam = s[:, None] * (lift[:, None] * -unit.min(axis=1)[:, None] + unit)
    q = _frames(rng, len(half_det))
    return (q * np.sqrt(np.maximum(lam, 0.0))[:, None, :]) @ np.swapaxes(
        q, 1, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_closed_form_3x3_spectral_norm_matches_jacobi(seed):
    # 3 x 3 matrices in random frames whose two lower Gram eigenvalue
    # ratios each run from 1 down to EIG_CLIP_RATIO, with some top pairs
    # 1e-1 to 1e-12 apart, over twelve decades of scale; the largest
    # relative difference found against the top Jacobi eigenvalue, over
    # a million such matrices, was 4.9 eps
    rng = np.random.default_rng(seed)
    b = 2000
    ratio = 10.0 ** rng.uniform(np.log10(EIG_CLIP_RATIO), 0.0, (b, 2))
    ratio[:4] = [[EIG_CLIP_RATIO, EIG_CLIP_RATIO], [1.0, 1.0],
                 [1.0, EIG_CLIP_RATIO], [EIG_CLIP_RATIO, 1.0]]
    ratio[4:8, 0] = 1.0 - 10.0 ** -rng.uniform(1.0, 12.0, 4)
    sv = 10.0 ** rng.uniform(-6.0, 6.0, (b, 1)) * np.concatenate(
        [np.ones((b, 1)), np.sqrt(ratio)], axis=1)
    u, v = _frames(rng, b), _frames(rng, b)
    u[:2], v[:2] = np.eye(3), np.eye(3)       # diagonal Gram matrices too
    m = (u * sv[:, None, :]) @ np.swapaxes(v, 1, 2)
    # and Gram matrices across the deflation threshold det(B) / 2 = -0.9,
    # below which the top root is deflated: both sides of it and
    # -1 + 10^-k, where the top two eigenvalues nearly meet, with the
    # bottom eigenvalue from 0 up to a hundred times the spread. Over 600k
    # of these the most found was 4.9 eps; the plain root, never deflated,
    # is off by 1.8e-9 relative near -1, and a threshold at -0.99999 or
    # -0.999 by 92 or 9.7 eps
    half_det = np.concatenate([
        rng.uniform(-0.95, -0.85, b // 2),
        -1.0 + 10.0 ** -rng.uniform(1.0, 15.0, b // 4),
        rng.uniform(-1.0, 1.0, b // 4)])
    half_det[:2] = -0.9, np.nextafter(-0.9, 0.0)
    m = np.concatenate([m, _gram_roots(
        rng, half_det, 1.0 + 10.0 ** rng.uniform(-16.0, 2.0, b),
        10.0 ** rng.uniform(-6.0, 6.0, b))])
    closed = spectral_norm(m)
    jacobi = np.sqrt(jacobi_eigh(np.swapaxes(m, 1, 2) @ m)[0][:, -1])
    worst = np.max(np.abs(closed - jacobi) / jacobi)
    assert worst <= 8.0 * np.finfo(float).eps, worst


def test_closed_form_3x3_spectral_norm_fixed_cases():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(11)
    q = _frames(rng, 200)
    # a multiple of I and the zero matrix are exact
    assert spectral_norm(-2.5 * np.eye(3)) == 2.5
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    assert np.all(spectral_norm(np.zeros((4, 3, 3))) == 0.0)
    # a repeated top eigenvalue, with a third one below it or at 0: the
    # trigonometric root alone is off by about sqrt(eps) here, 5e-9
    # relative
    for third in (1.0, 0.0):
        m = (q * np.array([3.0, 3.0, third])) @ np.swapaxes(q, 1, 2)
        assert np.max(np.abs(spectral_norm(m) - 3.0)) <= 8.0 * 3.0 * eps
    # rank 1, and a repeated bottom eigenvalue
    u, w = rng.standard_normal((2, 200, 3))
    norms = np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1)
    got = spectral_norm(u[:, :, None] * w[:, None, :])
    assert np.max(np.abs(got - norms) / norms) <= 8.0 * eps
    m = (q * np.array([3.0, 1.0, 1.0])) @ np.swapaxes(q, 1, 2)
    assert np.max(np.abs(spectral_norm(m) - 3.0)) <= 8.0 * 3.0 * eps


def test_closed_form_3x3_spectral_norm_independent_of_batch_mates():
    # both branches of the closed form in one stack: repeated top, repeated
    # bottom, multiples of I, general matrices and Gram matrices on both
    # sides of the deflation threshold det(B) / 2 = -0.9 and near -1,
    # split every which way
    rng = np.random.default_rng(12)
    q = _frames(rng, 16)
    lam = np.array([[3.0, 3.0, 1.0], [3.0, 1.0, 1.0], [2.0, 2.0, 2.0],
                    [0.0, 0.0, 0.0]] * 2 + rng.uniform(0.0, 4.0, (8, 3)).tolist())
    half_det = np.array([-0.95, -0.9, -0.89, -0.85, -1.0 + 1e-4, -1.0 + 1e-8,
                         -1.0 + 1e-12, -0.5])
    mats = np.concatenate([(q * lam[:, None, :]) @ np.swapaxes(q, 1, 2),
                           rng.standard_normal((16, 3, 3)),
                           _gram_roots(rng, half_det, np.full(8, 1.5),
                                       np.ones(8))])
    for labels in (np.arange(40), np.arange(40) % 2, np.arange(40) // 16,
                   rng.integers(0, 4, 40)):
        _assert_partition_invariant(spectral_norm, mats, labels)


@st.composite
def heavy_stacks(draw, dims=(1, 2, 3, 4)):
    """(vecs, vals): a stack of d x d matrices and a stack of d-vectors,
    with batch shape (N,) or (K, N), heavy-tailed entries spread over up
    to forty decades, and some of them +0 or -0."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(1, 40))
    batch = draw(st.sampled_from(((n,), (draw(st.integers(1, 4)), n))))
    spread = draw(st.floats(0.0, 20.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def heavy(shape):
        x = rng.standard_cauchy(shape) * 10.0 ** rng.uniform(
            -spread, spread, shape)
        x[rng.random(shape) < 0.1] = 0.0
        x[rng.random(shape) < 0.1] = -0.0
        return x

    return heavy(batch + (d, d)), heavy(batch + (d,))


@settings(max_examples=150, deadline=None)
@given(heavy_stacks())
def test_small_matrix_kernels_keep_the_bytes_of_numpy(stack):
    # the Gram product from a contiguous transpose, and V diag(lambda) V^T
    # as a sum of outer products, against the products they replace
    a, vals = stack
    for mats in (a, a[(0,) * (a.ndim - 2)]):
        assert _bits(_gram(mats)) == _bits(np.swapaxes(mats, -1, -2) @ mats)
    assert _bits(_eig_compose(a, vals)) == _bits(
        np.einsum("...ij,...j,...kj->...ik", a, vals, a))


def _parent_top_3x3(g):
    """The closed form of ``_top_eigenvalue_3x3`` with the traces of
    ``np.trace``, deflating through ``_parent_deflated_top``."""
    shape = g.shape[:-2]
    g = g.reshape(-1, 3, 3)
    m = np.trace(g, axis1=1, axis2=2) / 3.0
    b = g - m[:, None, None] * np.eye(3)
    s = np.sqrt(np.sum(b * b, axis=(1, 2)) / 6.0)
    b /= np.where(s > 0.0, s, 1.0)[:, None, None]
    b00, b11, b22 = b[:, 0, 0], b[:, 1, 1], b[:, 2, 2]
    b01, b02, b12 = b[:, 0, 1], b[:, 0, 2], b[:, 1, 2]
    half_det = 0.5 * (b00 * (b11 * b22 - b12 * b12)
                      - b01 * (b01 * b22 - b02 * b12)
                      + b02 * (b01 * b12 - b11 * b02))
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    top = 2.0 * np.cos(phi)
    near = half_det < -0.9
    bottom = 2.0 * np.cos(phi[near] + 2.0 * np.pi / 3.0)
    if np.any(near):
        top[near] = _parent_deflated_top(b[near], bottom)
    return (m + s * top).reshape(shape), b[near], bottom


def _parent_deflated_top(b, bottom):
    """``_deflated_top`` with ``np.cross`` of fancy-indexed rows and the
    trace of ``np.trace``."""
    k = b - bottom[:, None, None] * np.eye(3)
    cand = np.cross(k[:, [1, 2, 0]], k[:, [2, 0, 1]])
    lengths = np.sum(cand * cand, axis=2)
    rows, best = np.arange(len(b)), np.argmax(lengths, axis=1)
    v = cand[rows, best] / np.sqrt(lengths[rows, best])[:, None]
    proj = np.eye(3) - v[:, :, None] * v[:, None, :]
    pbp = proj @ b @ proj
    c = 0.5 * np.trace(pbp, axis1=1, axis2=2)
    gap = pbp - c[:, None, None] * proj
    return c + np.sqrt(0.5 * np.sum(gap * gap, axis=(1, 2)))


@settings(max_examples=100, deadline=None)
@given(heavy_stacks(dims=(3,)), st.integers(0, 2 ** 32 - 1))
def test_3x3_closed_form_keeps_the_bytes_of_its_numpy_formulas(stack, seed):
    # heavy-tailed symmetric matrices, and near-degenerate Gram matrices
    # with det(B) / 2 on both sides of the deflation threshold -0.9 and
    # near -1, where the top two eigenvalues meet
    a, _ = stack
    rng = np.random.default_rng(seed)
    n = a.shape[-3]
    half_det = np.concatenate([rng.uniform(-0.95, -0.85, n),
                               -1.0 + 10.0 ** -rng.uniform(1.0, 15.0, n),
                               [-0.9, np.nextafter(-0.9, 0.0)]])
    roots = _gram_roots(rng, half_det, 1.0 + 10.0 ** rng.uniform(
        -16.0, 2.0, len(half_det)), 10.0 ** rng.uniform(-6.0, 6.0,
                                                         len(half_det)))
    for g in (a + np.swapaxes(a, -1, -2), np.swapaxes(roots, 1, 2) @ roots,
              (roots @ roots).reshape(2, -1, 3, 3)):
        want, b, bottom = _parent_top_3x3(g)
        assert _bits(_top_eigenvalue_3x3(g)) == _bits(want)
        assert _bits(_deflated_top(b, bottom)) == _bits(
            _parent_deflated_top(b, bottom))


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


def _batch_jacobi_1x1(mats):
    """jacobi_eigh's batch path for 1 x 1 matrices: symmetrize, no
    rotation, a stable sort of one eigenvalue."""
    a = np.asarray(mats, dtype=float)
    single = a.ndim == 2
    if single:
        a = a[None]
    batch_shape = a.shape[:-2]
    a = a.reshape(-1, 1, 1).copy()
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    v = np.tile(np.eye(1), (a.shape[0], 1, 1))
    vals = np.diagonal(a, axis1=1, axis2=2).copy()
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1).reshape(batch_shape + (1,))
    v = np.take_along_axis(v, order[:, None, :], axis=2).reshape(
        batch_shape + (1, 1))
    return (vals[0], v[0]) if single else (vals, v)


def _batch_spd_power_1x1(mats, alpha):
    vals, vecs = _batch_jacobi_1x1(mats)
    return np.einsum("...ij,...j,...kj->...ik", vecs, vals ** alpha, vecs)


def _batch_spectral_norm_1x1(mats):
    a = np.asarray(mats, dtype=float)
    vals, _ = _batch_jacobi_1x1(np.swapaxes(a, -1, -2) @ a)
    return np.sqrt(np.maximum(vals[..., -1], 0.0))


# decimal exponents of entries whose powers up to the third stay finite
MAGNITUDES = st.floats(-100.0, 100.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(MAGNITUDES, min_size=1, max_size=24),
       st.sampled_from(((1,), (2, 3), (4, 1, 2))),
       st.sampled_from((-1.0, 1.0, 0.5, -0.5, 2.0, 1.0 / 1.05, -1.0 / 3.0,
                        -3.0, 1.0 / 7.0)),
       st.integers(0, 2 ** 32 - 1))
def test_1x1_kernels_match_the_batch_path_bitwise(logs, batch, alpha, seed):
    rng = np.random.default_rng(seed)
    size = int(np.prod(batch))
    pos = 10.0 ** np.resize(np.asarray(logs), size) \
        * rng.uniform(1.0, 10.0, size)
    pos = pos.reshape(batch + (1, 1))
    signed = pos * rng.choice([-1.0, 1.0], pos.shape)
    signed.flat[0] = 0.0
    for mats in (pos, signed, pos[(0,) * len(batch)]):
        for got, want in zip(jacobi_eigh(mats), _batch_jacobi_1x1(mats)):
            assert _bits(got) == _bits(want)
        assert _bits(spectral_norm(mats)) == _bits(
            _batch_spectral_norm_1x1(mats))
    for mats in (pos, pos[(0,) * len(batch)]):
        assert _bits(spd_power(mats, alpha)) == _bits(
            _batch_spd_power_1x1(mats, alpha))
        assert _bits(sym_inv(mats)) == _bits(_batch_spd_power_1x1(mats, -1.0))
    with pytest.raises(ValidationError, match="not positive definite"):
        spd_power(signed, alpha)

