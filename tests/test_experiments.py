import numpy as np
import pytest

from wml.experiments import (SweepConfig, SweepRecord, _boyd, _lanczos_top,
                             build_family_instance, exponent_fit,
                             matrix_target_exponent,
                             opnorm_ascent, power_weight, rotating_weight,
                             run_sweep, scalar_target_exponent, sweep_fit,
                             sweep_point)
from wml.filtration import (build_dyadic, cond_expect_leaf, increment_adjoint,
                            lp_norm, martingale_of)
from wml.linalg import ValidationError, matvec, spd_power
from wml.operators import weighted_square_fn
from wml.weights import (MatrixWeight, ap_characteristic, as_weight,
                         build_reducing_pair)


def test_target_exponents():
    assert scalar_target_exponent(2.0) == 1.0
    assert scalar_target_exponent(1.5) == 2.0
    assert scalar_target_exponent(4.0) == 0.5
    assert matrix_target_exponent(1.5) == 2.0
    assert matrix_target_exponent(2.0) == 1.0
    assert matrix_target_exponent(3.0) == pytest.approx(2.0 / 3.0)


def test_power_weight_flat_alpha():
    sp, w = power_weight(5, 0.0, 0.1)
    assert np.allclose(w.scalar(), 1.0, atol=1e-14)
    assert ap_characteristic(build_reducing_pair(sp, w, 2.0)) == \
        pytest.approx(1.0, abs=1e-10)


def test_power_weight_mild_example():
    sp, w = power_weight(5, 1.0, 1.0)
    val = ap_characteristic(build_reducing_pair(sp, w, 2.0))
    assert 1.0 < val < 2.0


def test_power_weight_grows_as_eps_shrinks():
    vals = []
    for eps in (0.5, 0.1, 0.02, 0.004):
        sp, w = power_weight(6, 1.5, eps)
        vals.append(ap_characteristic(build_reducing_pair(sp, w, 2.0)))
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_power_weight_validation():
    with pytest.raises(ValidationError):
        power_weight(4, 0.5, 0.0)
    with pytest.raises(ValidationError):
        power_weight(4, -1.5, 0.1)


def test_rotating_weight_identity_at_alpha_zero():
    for d in (2, 3):
        sp, W = rotating_weight(4, d, 0.0, 0.1)
        assert np.allclose(W.mats, np.eye(d), atol=1e-12)


def test_rotating_weight_spectra_and_characteristic():
    sp, W = rotating_weight(6, 2, 1.0, 1.0 / 16.0)
    x = (np.arange(sp.n_leaves) + 0.5) / sp.n_leaves
    vals = np.linalg.eigvalsh(W.mats)
    target = np.sort(np.stack([(x + 1 / 16) ** 1.0, (x + 1 / 16) ** -1.0], 1), axis=1)
    assert np.allclose(vals, target, rtol=1e-10)
    dets = np.linalg.det(W.mats)
    assert np.allclose(dets, 1.0, rtol=1e-10)
    assert ap_characteristic(build_reducing_pair(sp, W, 2.0)) > 1.0


def test_rotating_weight_global_rotation_invariance():
    # conjugating every leaf by one fixed rotation moves the characteristic
    # only within the ellipsoid-fit tolerance
    sp, W = rotating_weight(5, 2, 0.8, 0.1)
    theta = 0.7
    r = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    Wr = MatrixWeight(np.einsum("ij,ljk,mk->lim", r, W.mats, r))
    a = ap_characteristic(build_reducing_pair(sp, W, 2.0))
    b = ap_characteristic(build_reducing_pair(sp, Wr, 2.0))
    assert b == pytest.approx(a, rel=0.25)


def test_opnorm_ascent_p2_unweighted_is_one():
    sp = build_dyadic(4)
    res = opnorm_ascent(sp, as_weight(np.ones(16)), 2.0)
    assert res.converged and res.ratio == pytest.approx(1.0, abs=1e-9)


def test_opnorm_ascent_p2_scale_invariant():
    rng = np.random.default_rng(0)
    sp = build_dyadic(4)
    w = np.exp(rng.normal(0.0, 1.0, 16))
    assert opnorm_ascent(sp, as_weight(w), 2.0).ratio == pytest.approx(
        opnorm_ascent(sp, as_weight(11.0 * w), 2.0).ratio, rel=1e-9)


def test_opnorm_ascent_p2_dense_oracle_depth2():
    rng = np.random.default_rng(1)
    sp = build_dyadic(2)
    w = np.exp(rng.normal(0.0, 1.0, 4))
    est = opnorm_ascent(sp, as_weight(w), 2.0).ratio
    # dense eigensolve of the same quadratic form, euclidean coordinates
    sw = np.sqrt(w)
    probs = sp.leaf_probs

    def op(h):
        m = martingale_of(sp, h / sw)
        out = np.zeros(4)
        for k in (1, 2):
            y = w * m.diff(k)[:, 0]
            out += cond_expect_leaf(sp, y, k) - cond_expect_leaf(sp, y, k - 1)
        return out / sw

    dense = np.zeros((4, 4))
    for i in range(4):
        e = np.zeros(4)
        e[i] = 1.0 / np.sqrt(probs[i])
        dense[:, i] = np.sqrt(probs) * op(e)
    top = np.linalg.eigvalsh(0.5 * (dense + dense.T)).max()
    assert est == pytest.approx(np.sqrt(top), abs=1e-6)


def test_opnorm_ascent_identity_weight_p2():
    sp = build_dyadic(3)
    res = opnorm_ascent(sp, as_weight(np.ones(8)), 2.0, restarts=3, seed=0)
    assert res.ratio >= 1.0 - 1e-6
    assert res.ratio <= 1.0 + 1e-9


def test_opnorm_ascent_matches_power_iteration():
    # the top singular value of the dense matrix of T, which the plain
    # power iteration on T*T tends to
    rng = np.random.default_rng(2)
    sp = build_dyadic(4)
    W = as_weight(np.exp(rng.normal(0.0, 0.8, 16)))
    exact = np.linalg.svd(_dense_operator(sp, W, 2.0), compute_uv=False)[0]
    res = opnorm_ascent(sp, W, 2.0, restarts=6, seed=3)
    assert res.ratio == pytest.approx(exact, rel=1e-9)


def test_opnorm_ascent_p2_runs_start_zero_alone():
    # at p <= 2 further starts are not drawn: any restarts >= 1 gives the
    # bytes of restarts = 1, which the result reports; above p = 2 every
    # start runs
    sp, W = rotating_weight(4, 2, 0.8, 0.0625)
    for p in (2.0, 1.5, 1.2):
        one = opnorm_ascent(sp, W, p, restarts=1, seed=5)
        four = opnorm_ascent(sp, W, p, restarts=4, seed=5)
        assert (four.ratio, four.iterations, four.restarts, four.converged) \
            == (one.ratio, one.iterations, 1, one.converged), p
        assert four.witness.tobytes() == one.witness.tobytes(), p
    assert opnorm_ascent(sp, W, 3.0, restarts=4, seed=5).restarts == 4


def test_opnorm_ascent_converged_flag():
    rng = np.random.default_rng(2)
    sp = build_dyadic(4)
    W = as_weight(np.exp(rng.normal(0.0, 0.8, 16)))
    for p in (2.0, 1.5):
        res = opnorm_ascent(sp, W, p, restarts=3, seed=3)
        assert res.converged and res.iterations < res.restarts * 200, p
    # two iterations cannot reach a stopping rule: the one start is capped,
    # after one Lanczos step and one power iteration
    capped = opnorm_ascent(sp, W, 1.5, restarts=3, seed=3, max_iter=2)
    assert not capped.converged and capped.iterations == 2
    capped = opnorm_ascent(sp, W, 2.0, restarts=3, seed=3, max_iter=2)
    assert not capped.converged and capped.iterations == 2


def test_opnorm_ascent_grid_oracle_depth2():
    # exhaustive spherical grid over the 4-dimensional function space, for
    # the projected ascent (p = 3) and the power method (p = 1.5); the grid
    # is evaluated as one batch through dense increment matrices
    rng = np.random.default_rng(3)
    sp = build_dyadic(2)
    w = np.exp(rng.normal(0.0, 0.7, 4))
    W = as_weight(w)
    m = 24
    th = np.linspace(0.0, np.pi, m)
    ph = np.linspace(0.0, 2.0 * np.pi, 2 * m, endpoint=False)
    t1, t2, t3 = (a.ravel() for a in np.meshgrid(th, th, ph, indexing="ij"))
    grid = np.stack([np.cos(t1),
                     np.sin(t1) * np.cos(t2),
                     np.sin(t1) * np.sin(t2) * np.cos(t3),
                     np.sin(t1) * np.sin(t2) * np.sin(t3)], axis=1)
    # level_mat[n] @ f = E_n f on the leaf axis
    level_mat = np.array([np.stack([cond_expect_leaf(sp, e, n)
                                    for e in np.eye(4)], axis=1)
                          for n in range(3)])
    incr = level_mat[1:] - level_mat[:-1]
    probs = sp.leaf_probs
    for p in (3.0, 1.5):
        res = opnorm_ascent(sp, W, p, restarts=6, seed=4)
        d = np.einsum("kij,nj->kni", incr, grid * w ** (-1.0 / p))
        s = np.sqrt(np.sum((w ** (1.0 / p) * d) ** 2, axis=0))
        for f, sf in zip(grid[::997], s[::997]):
            assert np.allclose(sf, weighted_square_fn(sp, W, p, f), atol=1e-12)
        num = np.sum(probs * s ** p, axis=1) ** (1.0 / p)
        den = np.sum(probs * np.abs(grid) ** p, axis=1) ** (1.0 / p)
        best = np.max(num[den > 1e-12] / den[den > 1e-12])
        assert res.ratio >= best * 0.99, p


def _random_matrix_weight(rng, depth):
    n = 2 ** depth
    q, _ = np.linalg.qr(rng.standard_normal((n, 2, 2)))
    lam = np.exp(rng.normal(0.0, 0.8, (n, 2)))
    return MatrixWeight(np.einsum("lij,lj,lkj->lik", q, lam, q))


def _witness_ratio(sp, W, p, f):
    return (lp_norm(sp, weighted_square_fn(sp, W, p, f), p)
            / lp_norm(sp, f, p))


def test_opnorm_ascent_witness_reproduces_ratio():
    rng = np.random.default_rng(4)
    sp = build_dyadic(3)
    W = _random_matrix_weight(rng, 3)
    for p in (3.0, 1.5):
        res = opnorm_ascent(sp, W, p, restarts=3, seed=5)
        assert _witness_ratio(sp, W, p, res.witness) == pytest.approx(
            res.ratio, rel=1e-8), p


def test_power_method_capped_in_exponent_two_phase():
    # start 0 spends its budget in its exponent-2 phase, the Lanczos solve,
    # and one round at p: the start is unconverged and still reports the
    # p-ratio of its witness
    sp, W = rotating_weight(5, 2, 0.8, 0.0625)
    full = opnorm_ascent(sp, W, 1.5, restarts=1, seed=0)
    assert full.converged and full.iterations > 4
    res = opnorm_ascent(sp, W, 1.5, restarts=1, seed=0, max_iter=3)
    assert not res.converged and res.iterations == 3
    assert _witness_ratio(sp, W, 1.5, res.witness) == pytest.approx(
        res.ratio, rel=1e-12)


def _further_starts(sp, wp, wm, p, d, seed, count):
    """Best ratio of ``count`` seeded random starts drawn after start 0's
    draw, each run alone through ``_serial_boyd``: further starts, which
    ``opnorm_ascent`` does not run at p <= 2."""
    rng = np.random.default_rng(seed)
    rng.standard_normal((sp.n_leaves, d))
    return max(_serial_boyd(sp, wp, wm, wp @ wp, p,
                            rng.standard_normal((sp.n_leaves, d)), 200)[1]
               for _ in range(count))


def test_power_method_start_zero_passes_through_exponent_two():
    # from the seed-1 random start alone the p = 1.5 iteration stops at a
    # stationary value near 1.63; through the L2 top singular vector it
    # reaches the best value that eight further random starts find
    sp, W = rotating_weight(6, 2, 0.4, 0.25)
    p = 1.5
    res = opnorm_ascent(sp, W, p, seed=1)
    assert res.converged
    best = _further_starts(sp, W.power(1.0 / p), W.power(-1.0 / p), p,
                           W.dim, 1, 8)
    assert res.ratio >= best * (1.0 - 1e-9)


def test_start_zero_holds_the_rotating_sweep_optimum():
    # the 24-point rotating sweep (d = 2, p = 1.5, depths 4-6) at seed 7:
    # at every point start 0 converges, and three further random starts
    # beat it by at most twice BOYD_TOL relative
    cfg = SweepConfig(family="rotating", p=1.5, d=2, depths=(4, 5, 6),
                      alphas=(0.4, 0.6, 0.8, 0.95), epss=(0.25, 0.015625),
                      seed=7)
    for index, point in enumerate(cfg.grid()):
        sp, W = build_family_instance(cfg, *point)
        seed = int(np.random.SeedSequence([cfg.seed, index])
                   .generate_state(1)[0])
        res = opnorm_ascent(sp, W, cfg.p, seed=seed)
        best = _further_starts(sp, W.power(1.0 / cfg.p),
                               W.power(-1.0 / cfg.p), cfg.p, W.dim, seed, 3)
        assert res.converged, point
        assert res.ratio >= (1.0 - 2e-12) * best, point


@pytest.mark.parametrize("d", (1, 2))
def test_power_method_null_space_start_converges_at_ratio_zero(d):
    # a constant start under the identity weight has no increments, so
    # T f = 0 and Boyd's gamma divides by ||T f||^{p-1} = 0: the start
    # stops in its first iteration, converged at ratio 0
    sp = build_dyadic(3)
    W = MatrixWeight.identity(sp.n_leaves, d)
    p = 1.5
    wp, wm = W.power(1.0 / p), W.power(-1.0 / p)
    null = np.ones((sp.n_leaves, d))
    f, ratio, iters, converged = _boyd(sp, wp, wm, wp @ wp, p, null, 50)
    assert (ratio, iters, converged) == (0.0, 1, True)
    assert f.tobytes() == null.tobytes()


def _serial_boyd(sp, wp, wm, w2p, p, f, max_iter):
    """One start of the power method from the filtration primitives: the
    reference that ``_boyd`` matches bit for bit."""
    probs = sp.leaf_probs

    def norm(x, r):
        mag = np.abs(x) if x.ndim == 1 else np.sqrt(np.sum(x * x, axis=1))
        return float(np.sum(probs * mag ** r) ** (1.0 / r))

    iters, converged = 0, False
    while iters < max_iter and not converged:
        iters += 1
        witness, diffs = f, martingale_of(sp, matvec(wm, f)).diffs
        t = matvec(wp, diffs)
        s = np.sqrt(np.sum(t * t, axis=(0, 2)))
        spow = np.where(s > 1e-300, s ** (p - 2.0), 0.0)
        grad = p * matvec(wm, increment_adjoint(
            sp, spow[:, None] * matvec(w2p, diffs)))
        top = float(np.sum(probs * s ** p)) ** (1.0 / p)
        ratio = top / norm(f, p)
        gmag = np.sqrt(np.sum(grad * grad, axis=1))
        gamma = norm(gmag, p / (p - 1.0)) / (p * top ** (p - 1.0))
        converged = gamma - ratio <= 1e-12 * gamma
        f = gmag[:, None] ** ((2.0 - p) / (p - 1.0)) * grad
        f /= norm(f, p)
    return witness, ratio, iters, converged


@pytest.mark.parametrize("args, p, max_iter", [
    ((4, 1, 0.8, 0.0625), 1.5, 200),
    ((4, 2, 0.7, 0.05), 1.2, 200),
    ((5, 2, 0.8, 0.0625), 1.5, 16),
    ((4, 2, 0.7, 0.05), 2.0, 200),
    ((4, 3, 0.6, 0.1), 1.8, 200),
], ids=["d1", "d2-p1.2", "d2-mixed", "d2-p2", "d3"])
def test_batched_power_method_matches_serial_starts(args, p, max_iter):
    # opnorm_ascent bit for bit against start 0 run from the filtration
    # primitives: the Lanczos vector of its seeded draw, then the serial
    # power method with the rest of its budget; restarts = 4 runs and
    # reports one start. ``_boyd`` from the raw draw within 10 iterations
    # matches the serial loop too: at p = 1.2 it converges, in the other
    # cases the budget runs out. At p = 2 every power is a square or a
    # square root, which numpy takes apart from pow for a scalar exponent
    # only.
    depth, d, alpha, eps = args
    sp, W = (power_weight(depth, alpha, eps) if d == 1
             else rotating_weight(*args))
    res = opnorm_ascent(sp, W, p, restarts=4, seed=0, max_iter=max_iter)
    wp, wm = W.power(1.0 / p), W.power(-1.0 / p)
    draw = np.random.default_rng(0).standard_normal((sp.n_leaves, d))
    f, steps = _lanczos_top(sp, wp, wm, wp @ wp, draw, max_iter - 1)
    f, ratio, iters, converged = _serial_boyd(sp, wp, wm, wp @ wp, p, f,
                                              max_iter - steps)
    assert (res.ratio, res.iterations, res.restarts, res.converged) == \
        (ratio, steps + iters, 1, converged)
    assert res.witness.tobytes() == f.tobytes()
    want = _serial_boyd(sp, wp, wm, wp @ wp, p, draw, 10)
    got = _boyd(sp, wp, wm, wp @ wp, p, draw, 10)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:] and got[3] == (p == 1.2)


def test_opnorm_ascent_rejects_no_restarts():
    # zero starts would report ratio 0 without a witness as converged
    sp, W = rotating_weight(3, 2, 0.6, 0.25)
    for p in (1.5, 3.0):
        with pytest.raises(ValidationError, match="restarts must be >= 1"):
            opnorm_ascent(sp, W, p, restarts=0)
    with pytest.raises(ValidationError, match="restarts must be >= 1"):
        SweepConfig(family="rotating", p=1.5, d=2, restarts=-1)


@pytest.mark.parametrize("p", (1.0, 0.5, np.inf, np.nan))
def test_opnorm_ascent_rejects_p_outside_one_to_inf(p):
    # Boyd's method and the L^p ratio need 1 < p < inf: p = 1 divides by
    # zero in the conjugate exponent, and below 1 there is no L^p norm
    sp, W = rotating_weight(3, 2, 0.6, 0.25)
    with pytest.raises(ValidationError, match="p must lie in"):
        opnorm_ascent(sp, W, p)


def _dense_operator(sp, W, p):
    """Dense matrix of T f = (W^{1/p} d_k W^{-1/p} f)_k from L2(P; R^d) into
    L2(P; l2) in euclidean coordinates, column by column, per level from
    cond_expect_leaf."""
    n, d, depth = sp.n_leaves, W.dim, sp.depth
    wp, wm = spd_power(W.mats, 1.0 / p), spd_power(W.mats, -1.0 / p)
    sqp = np.sqrt(sp.leaf_probs)
    columns = []
    for leaf in range(n):
        for j in range(d):
            e = np.zeros((n, d))
            e[leaf, j] = 1.0 / sqp[leaf]
            g = np.einsum("lij,lj->li", wm, e)
            levels = [cond_expect_leaf(sp, g, k) for k in range(depth + 1)]
            tf = [np.einsum("lij,lj->li", wp, levels[k] - levels[k - 1])
                  for k in range(1, depth + 1)]
            columns.append(np.concatenate([sqp[:, None] * t for t in tf]).ravel())
    return np.array(columns).T


def test_power_method_dense_oracle_p2_d2():
    # top singular value of the dense matrix of T f = (W^{1/2} d_k W^{-1/2} f)_k
    # from L2(P; R^2) into L2(P; l2)
    rng = np.random.default_rng(8)
    sp = build_dyadic(3)
    W = _random_matrix_weight(rng, 3)
    top = np.linalg.svd(_dense_operator(sp, W, 2.0), compute_uv=False)[0]
    res = opnorm_ascent(sp, W, 2.0, restarts=3, seed=1)
    assert res.converged
    assert res.ratio == pytest.approx(top, rel=1e-9)


@pytest.mark.parametrize("case", ["scalar-D2", "scalar-D3", "rotating-d2",
                                  "rotating-d3"])
def test_lanczos_vector_matches_dense_top_eigenvalue(case):
    # the Ritz vector's ||T y||^2 / ||y||^2 against the top eigenvalue of the
    # dense P-weighted T*T, and Boyd's test at exponent 2 certifies it
    rng = np.random.default_rng(9)
    p = 1.5
    if case.startswith("scalar"):
        sp = build_dyadic(int(case[-1]))
        W = as_weight(np.exp(rng.normal(0.0, 0.8, sp.n_leaves)))
    else:
        sp, W = rotating_weight(3, int(case[-1]), 0.8, 0.0625)
    dense = _dense_operator(sp, W, p)
    top = np.linalg.eigvalsh(dense.T @ dense)[-1]
    wp, wm = W.power(1.0 / p), W.power(-1.0 / p)
    y, steps = _lanczos_top(sp, wp, wm, wp @ wp,
                            rng.standard_normal((sp.n_leaves, W.dim)), 200)
    assert 1 <= steps <= sp.n_leaves * W.dim
    quotient = (lp_norm(sp, weighted_square_fn(sp, W, p, y), 2.0)
                / lp_norm(sp, y, 2.0)) ** 2
    assert quotient == pytest.approx(top, rel=1e-10)
    _, _, iters, converged = _boyd(sp, wp, wm, wp @ wp, 2.0, y, 200)
    assert converged and iters <= 2


@pytest.mark.parametrize("start", ["haar", "mean-zero", "constant"])
@pytest.mark.parametrize("d", (1, 2))
def test_lanczos_stops_at_an_invariant_start(start, d):
    # with the identity weight T*T is the projection onto mean-zero
    # functions: a mean-zero start is an eigenvector and the Krylov space
    # breaks down after one step (beta = 0); a constant start has T f = 0
    sp = build_dyadic(3)
    W = as_weight(np.tile(np.eye(d), (sp.n_leaves, 1, 1)))
    f = {"haar": np.repeat([[1.0], [-1.0]], 4, axis=0) * np.ones(d),
         "mean-zero": np.random.default_rng(0).standard_normal((8, d)),
         "constant": np.ones((8, d))}[start]
    if start == "mean-zero":
        f -= f.mean(axis=0)
    p = 1.5
    wp, wm = W.power(1.0 / p), W.power(-1.0 / p)
    with np.errstate(all="raise"):
        y, steps = _lanczos_top(sp, wp, wm, wp @ wp, f, 50)
    assert steps == 1 and np.all(np.isfinite(y))
    assert np.allclose(np.abs(y), np.abs(f) / lp_norm(sp, f, 2.0), rtol=1e-14)
    res = opnorm_ascent(sp, W, 2.0, restarts=2, seed=0)
    assert res.converged and res.ratio == pytest.approx(1.0, abs=1e-12)


def test_sweep_point_reports_power_iteration_count():
    # the d = 1, p = 2 sweep point reports opnorm_ascent's ratio, count,
    # restarts and flag: start 0's Lanczos steps and its power iterations
    cfg = SweepConfig(family="power", p=2.0, d=1, depths=(5,), alphas=(0.6,),
                      epss=(0.25,), seed=3)
    rec = sweep_point(cfg, 0, 5, 0.6, 0.25)
    space, W = build_family_instance(cfg, 5, 0.6, 0.25)
    seed = int(np.random.SeedSequence([3, 0]).generate_state(1)[0])
    res = opnorm_ascent(space, W, 2.0, restarts=cfg.restarts, seed=seed)
    assert (rec.ratio, rec.iterations, rec.restarts, rec.converged) == \
        (res.ratio, res.iterations, 1, True)
    assert res.iterations > 1


def test_ascent_witness_respects_domination_chain():
    # the norm chain ||S_W f||_p <= K ||T_{W,2} f||_p holds for the witness
    from wml.analysis import Analysis
    from wml.operators import sparse_operator
    from wml.principal import (build_principal_family, default_threshold,
                               sparse_domination_check)
    rng = np.random.default_rng(6)
    sp = build_dyadic(4)
    q, _ = np.linalg.qr(rng.standard_normal((16, 2, 2)))
    lam = np.exp(rng.normal(0.0, 1.0, (16, 2)))
    W = MatrixWeight(np.einsum("lij,lj,lkj->lik", q, lam, q))
    p = 2.0
    pair = build_reducing_pair(sp, W, p)
    res = opnorm_ascent(sp, W, p, restarts=2, seed=7)
    an = Analysis(pair, res.witness)
    family = build_principal_family(an, default_threshold())
    dom = sparse_domination_check(an, family)
    assert dom["ok"]
    t = sparse_operator(an, family, 2.0)
    s = an.square("first_value")
    assert lp_norm(sp, s, p) <= dom["bound"] * lp_norm(sp, t, p) + 1e-12


def test_exponent_fit_examples():
    pts = [(a, 2.0 * a) for a in (1.0, 3.0, 9.0, 27.0)]
    slope, intercept, stderr = exponent_fit(pts)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-9)

    rng = np.random.default_rng(5)
    aps = np.exp(rng.uniform(0.0, 4.0, 20))
    noisy = [(a, a ** 0.5 * np.exp(rng.normal(0.0, 0.01))) for a in aps]
    slope, _, _ = exponent_fit(noisy)
    assert slope == pytest.approx(0.5, abs=0.05)

    flat = [(a, 3.0) for a in (1.0, 2.0, 4.0)]
    assert exponent_fit(flat)[0] == pytest.approx(0.0, abs=1e-12)


def test_exponent_fit_validation():
    with pytest.raises(ValidationError):
        exponent_fit([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValidationError):
        exponent_fit([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])
    with pytest.raises(ValidationError):
        exponent_fit([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])


def test_run_sweep_slope_zero_for_flat_family():
    cfg = SweepConfig(family="power", p=2.0, d=1, depths=(4, 5),
                      alphas=(0.0,), epss=(0.5, 0.25, 0.125), seed=1)
    records, fit = run_sweep(cfg)
    assert len(records) == 6
    assert all(abs(r.ap_char - 1.0) < 1e-6 for r in records)
    assert abs(fit["slope"]) < 0.2  # ratios equal, characteristics ~1


def test_run_sweep_deterministic_and_ordered():
    cfg = SweepConfig(family="power", p=2.0, d=1, depths=(4, 6),
                      alphas=(0.5,), epss=(0.25, 0.0625), seed=9)
    r1, f1 = run_sweep(cfg)
    r2, f2 = run_sweep(cfg)
    assert [r.instance_id for r in r1] == [r.instance_id for r in r2]
    assert all(a.ratio == b.ratio and a.ap_char == b.ap_char
               for a, b in zip(r1, r2))
    assert f1 == f2


@pytest.mark.parametrize("kw, message", [
    ({"p": 1.0}, r"p must lie in \(1, inf\), got 1.0"),
    ({"p": np.inf}, r"p must lie in \(1, inf\), got inf"),
    ({"p": np.nan}, r"p must lie in \(1, inf\), got nan"),
    ({"d": 2}, r"power family is scalar \(d = 1\)"),
    ({"family": "bogus"}, "unknown weight family 'bogus'"),
    ({"family": "rotating", "d": 4}, r"rotating weights support d in \{2, 3\}"),
    ({"epss": (0.0,)}, "eps must be positive"),
    ({"alphas": (-1.5,)}, "alpha must exceed -1"),
    ({"depths": (0,)}, "depth must be >= 1"),
], ids=["p-one", "p-inf", "p-nan", "power-d", "family", "rotating-d", "eps",
        "alpha", "depth"])
def test_sweep_config_rejects_what_no_point_could_run(kw, message):
    # each is refused once, by the config, before any grid point is built
    with pytest.raises(ValidationError, match=message):
        SweepConfig(**kw)


def test_run_sweep_rejects_empty_grid():
    # the config itself is refused, before run_sweep could start a point
    with pytest.raises(ValidationError, match="sweep grid is empty"):
        SweepConfig(depths=(), alphas=(0.5,), epss=(0.1,))


def test_leaf_scale_sweep_slope_window():
    records, fit = run_sweep(SweepConfig(p=2.0, d=1, depths=(5, 7),
                                         alphas=(0.4, 0.7, 0.95), epss=None,
                                         seed=2))
    assert len(records) == 6
    assert 0.6 <= fit["slope"] <= 1.1


@pytest.mark.parametrize("family, p, d", [("power", 2.0, 1),
                                          ("rotating", 1.5, 2)])
def test_leaf_width_sweep_matches_per_point_loop(family, p, d):
    # epss = None ties eps to the leaf width 2^-depth; the oracle is the
    # per-point loop that gives each (depth, alpha) its own one-point config
    cfg = SweepConfig(family=family, p=p, d=d, depths=(3, 4),
                      alphas=(0.5, 0.9), epss=None, restarts=2, seed=5)
    records, fit = run_sweep(cfg)
    oracle = []
    for i, (depth, alpha) in enumerate(
            (depth, alpha) for depth in (3, 4) for alpha in (0.5, 0.9)):
        eps = 2.0 ** -depth
        one = SweepConfig(family=family, p=p, d=d, depths=(depth,),
                          alphas=(alpha,), epss=(eps,), restarts=2, seed=5)
        oracle.append(sweep_point(one, i, depth, alpha, eps))
    assert len(records) == len(oracle) == 4
    for rec, ref in zip(records, oracle):
        assert rec.eps == 2.0 ** -rec.depth
        for field in SweepRecord.CSV_FIELDS:
            assert getattr(rec, field) == getattr(ref, field), field
    assert fit == sweep_fit((r.ap_char, r.ratio) for r in oracle)
