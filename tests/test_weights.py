import numpy as np
import pytest

from wml.filtration import build_dyadic, cond_expect
from wml.linalg import ValidationError, holdout_directions
from wml.weights import (MatrixWeight, ap_characteristic, ap_equivalents,
                         as_weight, build_reducing_pair, conjugate,
                         dual_weight, exchanged_pair, verify_reducing_bounds)


def _random_spd_weight(rng, n, d, sigma=1.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
    lam = np.exp(rng.normal(0.0, sigma, (n, d)))
    return MatrixWeight(np.einsum("lij,lj,lkj->lik", q, lam, q))


def test_matrix_weight_validation():
    with pytest.raises(ValidationError):
        MatrixWeight(np.array([[[1.0, 0.5], [0.0, 1.0]]]))
    with pytest.raises(ValidationError):
        MatrixWeight(np.array([[[1.0, 0.0], [0.0, -1.0]]]))
    with pytest.raises(ValidationError):
        MatrixWeight(np.full((1, 2, 2), np.nan))
    with pytest.warns(RuntimeWarning):
        w = MatrixWeight(np.array([[[1.0, 0.0], [0.0, 1e-14]]]))
    vals = np.linalg.eigvalsh(w.mats[0])
    assert vals.min() >= 1e-10 * vals.max() * (1.0 - 1e-12)


def test_scalar_path_matches_closed_formulas_bitwise():
    rng = np.random.default_rng(0)
    sp = build_dyadic(3)
    w = np.exp(rng.normal(0.0, 1.0, sp.n_leaves))
    p = 3.0
    q = conjugate(p)
    pair = build_reducing_pair(sp, as_weight(w), p)
    for n in range(sp.depth + 1):
        assert np.array_equal(pair.primal[n][:, 0, 0],
                              cond_expect(sp, w, n) ** (1.0 / p))
        assert np.array_equal(pair.dual[n][:, 0, 0],
                              cond_expect(sp, w ** (-q / p), n) ** (1.0 / q))


def test_pair_levels_are_slices_of_the_tiled_reducers():
    sp = build_dyadic(2)
    w = as_weight(np.array([4.0, 1.0, 2.0, 0.5]))
    pair = build_reducing_pair(sp, w, 2.0)
    assert pair.primal[1].shape == (2, 1, 1)
    assert np.array_equal(pair.primal[1][:, 0, 0], [2.5 ** 0.5, 1.25 ** 0.5])
    base = sp.atom_base
    for name in ("primal", "dual", "primal_inv", "dual_inv"):
        tiled = getattr(pair, "tiled_" + name)
        assert tiled.shape == (base[-1], 1, 1)
        for n, level in enumerate(getattr(pair, name)):
            assert np.shares_memory(level, tiled)
            assert np.array_equal(level, tiled[base[n]:base[n + 1]])
    swapped = exchanged_pair(pair)
    for a, b in zip(swapped.primal + swapped.dual_inv,
                    pair.dual + pair.primal_inv):
        assert np.array_equal(a, b)


def test_p2_ellipsoid_vs_exact_averaging_window():
    rng = np.random.default_rng(1)
    sp = build_dyadic(3)
    W = _random_spd_weight(rng, sp.n_leaves, 2)
    mvee = build_reducing_pair(sp, W, 2.0)
    exact = build_reducing_pair(sp, W, 2.0, method="exact_p2")
    dirs = holdout_directions(2, 400, seed=5)
    tol = 0.05
    for n in range(sp.depth + 1):
        a = np.linalg.norm(np.einsum("kij,nj->kni", mvee.primal[n], dirs), axis=2)
        b = np.linalg.norm(np.einsum("kij,nj->kni", exact.primal[n], dirs), axis=2)
        ratio = a / b
        assert ratio.max() <= 1.0 + tol
        assert ratio.min() >= 1.0 / ((1.0 + tol) * np.sqrt(2.0))


def test_constant_weight_reducers_near_power():
    sp = build_dyadic(2)
    w0 = np.array([[2.0, 0.4], [0.4, 1.0]])
    W = MatrixWeight(np.tile(w0, (4, 1, 1)))
    p = 3.0
    pair = build_reducing_pair(sp, W, p)
    from wml.linalg import spd_power
    target = spd_power(w0, 1.0 / p)
    dirs = holdout_directions(2, 300, seed=2)
    for n in range(sp.depth + 1):
        a = np.linalg.norm(np.einsum("kij,nj->kni", pair.primal[n], dirs), axis=2)
        b = np.linalg.norm(dirs @ target.T, axis=1)
        ratio = a / b
        assert ratio.max() <= 1.05 and ratio.min() >= 1.0 / (1.05 * np.sqrt(2.0))


def test_verify_reducing_bounds_scalar_exact_one():
    rng = np.random.default_rng(2)
    sp = build_dyadic(3)
    w = as_weight(np.exp(rng.normal(0.0, 1.5, sp.n_leaves)))
    pair = build_reducing_pair(sp, w, 2.5)
    rep = verify_reducing_bounds(pair)
    assert rep["primal_max"] <= 1.0 + 1e-10
    assert rep["dual_max"] <= 1.0 + 1e-10
    assert rep["primal_ok"] and rep["dual_ok"]


def test_verify_reducing_bounds_identity_weight():
    sp = build_dyadic(2)
    W = MatrixWeight.identity(sp.n_leaves, 2)
    pair = build_reducing_pair(sp, W, 3.0)
    rep = verify_reducing_bounds(pair)
    # both averages equal 1 up to the fit tolerance
    assert rep["primal_max"] == pytest.approx(1.0, rel=0.1)
    assert rep["dual_max"] == pytest.approx(1.0, rel=0.1)


def test_verify_reducing_bounds_random_d2_p3_example_window():
    rng = np.random.default_rng(3)
    sp = build_dyadic(3)
    W = _random_spd_weight(rng, sp.n_leaves, 2)
    pair = build_reducing_pair(sp, W, 3.0)
    rep = verify_reducing_bounds(pair)
    assert rep["primal_max"] <= 2.0 ** 1.5 * 1.2
    assert rep["primal_ok"] and rep["dual_ok"]


def test_ap_characteristic_examples():
    sp1 = build_dyadic(1)
    assert ap_characteristic(build_reducing_pair(
        sp1, as_weight(np.ones(2)), 2.0)) == pytest.approx(1.0, abs=1e-12)
    # two-atom uniform, w = (4, 1), p = 2: (E w)(E 1/w) = (5/2)(5/8)
    val = ap_characteristic(build_reducing_pair(
        sp1, as_weight(np.array([4.0, 1.0])), 2.0))
    assert val == pytest.approx(25.0 / 16.0, rel=1e-12)


def test_ap_characteristic_constant_matrix_weight():
    sp = build_dyadic(2)
    w0 = np.array([[3.0, 1.0], [1.0, 2.0]])
    W = MatrixWeight(np.tile(w0, (4, 1, 1)))
    val = ap_characteristic(build_reducing_pair(sp, W, 2.0))
    assert 1.0 - 1e-9 <= val <= 1.05 ** 4 * 2.0 ** 2
    exact = ap_characteristic(build_reducing_pair(sp, W, 2.0,
                                                  method="exact_p2"))
    assert exact == pytest.approx(1.0, abs=1e-10)


def test_ap_scaling_invariance():
    rng = np.random.default_rng(4)
    sp = build_dyadic(2)
    w = np.exp(rng.normal(0.0, 1.0, 4))
    a1 = ap_characteristic(build_reducing_pair(sp, as_weight(w), 3.0))
    a2 = ap_characteristic(build_reducing_pair(sp, as_weight(17.3 * w), 3.0))
    assert a1 == pytest.approx(a2, rel=1e-10)


def test_dual_weight_scalar_identities():
    rng = np.random.default_rng(5)
    sp = build_dyadic(2)
    w = np.exp(rng.normal(0.0, 1.2, 4))
    # p = 2: V = 1/w and the characteristics agree exactly
    v = dual_weight(as_weight(w), 2.0)
    assert np.allclose(v.scalar(), 1.0 / w, rtol=1e-12)
    assert ap_characteristic(build_reducing_pair(sp, v, 2.0)) == \
        pytest.approx(ap_characteristic(
            build_reducing_pair(sp, as_weight(w), 2.0)), rel=1e-10)
    # p = 3 two-atom example, both sides computed independently
    sp1 = build_dyadic(1)
    w2 = np.array([4.0, 1.0])
    lhs = ap_characteristic(build_reducing_pair(
        sp1, dual_weight(as_weight(w2), 3.0), 1.5))
    rhs = ap_characteristic(build_reducing_pair(
        sp1, as_weight(w2), 3.0)) ** 0.5
    assert lhs == pytest.approx(rhs, rel=1e-10)
    # identity weight is self-dual
    W = MatrixWeight.identity(4, 3)
    assert np.allclose(dual_weight(W, 2.5).mats, W.mats, atol=1e-12)


def test_exchanged_pair_exact_duality_matrix():
    rng = np.random.default_rng(6)
    sp = build_dyadic(3)
    W = _random_spd_weight(rng, sp.n_leaves, 2)
    p = 3.0
    q = conjugate(p)
    pair = build_reducing_pair(sp, W, p)
    ap = ap_characteristic(pair)
    ap_dual = ap_characteristic(exchanged_pair(pair))
    assert ap_dual == pytest.approx(ap ** (q - 1.0), rel=1e-10)


def test_fresh_dual_fit_agrees_loosely():
    # independent refit of the dual weight lands near the exact exchange
    rng = np.random.default_rng(7)
    sp = build_dyadic(2)
    W = _random_spd_weight(rng, sp.n_leaves, 2)
    p = 3.0
    q = conjugate(p)
    ap = ap_characteristic(build_reducing_pair(sp, W, p))
    v = dual_weight(W, p)
    ap_v = ap_characteristic(build_reducing_pair(sp, v, q))
    assert ap_v == pytest.approx(ap ** (q - 1.0), rel=1e-2)


def test_ap_equivalents():
    sp1 = build_dyadic(1)
    q1, q2, window = ap_equivalents(
        build_reducing_pair(sp1, as_weight(np.ones(2)), 2.0))
    assert q1 == pytest.approx(1.0, abs=1e-12)
    assert q2 == pytest.approx(1.0, abs=1e-12)

    w = as_weight(np.array([4.0, 1.0]))
    pair = build_reducing_pair(sp1, w, 2.0)
    q1, q2, _ = ap_equivalents(pair)
    ap = 25.0 / 16.0
    assert 0.25 <= q1 / ap <= 4.0
    assert 0.25 <= q2 / ap <= 4.0


def test_ap_equivalents_window_random_matrix():
    rng = np.random.default_rng(8)
    for depth in (2, 4):
        sp = build_dyadic(depth)
        W = _random_spd_weight(rng, sp.n_leaves, 2)
        p = 3.0
        pair = build_reducing_pair(sp, W, p)
        ap = ap_characteristic(pair)
        q1, q2, window = ap_equivalents(pair)
        assert window == 16.0 * 2.0 ** (max(p, conjugate(p)) / 2.0)
        assert 1.0 / window <= q1 / ap <= window
        assert 1.0 / window <= q2 / ap <= window


def test_john_sandwich_on_random_directions():
    rng = np.random.default_rng(9)
    sp = build_dyadic(3)
    W = _random_spd_weight(rng, sp.n_leaves, 3)
    p = 1.5
    pair = build_reducing_pair(sp, W, p)
    # re-verify the certificate by hand on level 0 with fresh directions
    dirs = holdout_directions(3, 1000, seed=77)
    wp = pair.wp
    vals = np.linalg.norm(np.einsum("lij,nj->lni", wp, dirs), axis=2) ** p
    rho = (np.sum(sp.leaf_probs[:, None] * vals, axis=0)) ** (1.0 / p)
    a_norm = np.linalg.norm(dirs @ pair.primal[0][0].T, axis=1)
    ratio = a_norm / rho
    tol = pair.cert_tol
    assert ratio.max() <= 1.0 + tol
    assert ratio.min() >= 1.0 / ((1.0 + tol) ** 2 * np.sqrt(3.0))
