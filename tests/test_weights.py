import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wml import linalg, suite, weights
from wml.experiments import rotating_weight
from wml.filtration import build_dyadic, build_from_tree, cond_expect
from wml.linalg import EllipsoidError, ValidationError, matvec, spd_power
from wml.weights import (CERT_TOL, EIG_CLIP_RATIO, MatrixWeight,
                         _fit_reducers, _lewis_fit, ap_characteristic,
                         ap_equivalents, as_weight, build_reducing_pair,
                         conjugate, exchanged_pair, verify_reducing_bounds)

from directions import holdout_directions


def _random_spd_weight(rng, n, d, sigma=1.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
    lam = np.exp(rng.normal(0.0, sigma, (n, d)))
    return MatrixWeight(np.einsum("lij,lj,lkj->lik", q, lam, q))


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("name", ("tol",))
@pytest.mark.parametrize("value", (0.0, -0.5, np.inf, np.nan))
def test_build_reducing_pair_rejects_bad_tolerances(monkeypatch, d, name,
                                                    value):
    # refused up front on every path: a zero tolerance would spend the
    # whole round budget and then report a failed certificate
    calls = []
    monkeypatch.setattr(weights, "_lewis_fit",
                        lambda *a, **k: calls.append(1))
    sp = build_dyadic(3)
    W = _random_spd_weight(np.random.default_rng(3), sp.n_leaves, d)
    with pytest.raises(ValidationError,
                       match=f"^{name} must be a finite positive number"):
        build_reducing_pair(sp, W, 3.0, **{name: value})
    assert calls == []


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


@pytest.mark.parametrize("d", (1, 2, 3))
def test_weight_power_is_spd_power_bitwise(d):
    # an unclipped weight keeps the very spectrum spd_power would find, so
    # every power it takes is bitwise the reference's
    rng = np.random.default_rng(d)
    W = _random_spd_weight(rng, 32, d, sigma=2.0)
    assert not W.vals.flags.writeable and not W.vecs.flags.writeable
    for p in (1.5, 2.0, 4.0):
        for alpha in (1.0 / p, -1.0 / p, -1.0, -conjugate(p) / p):
            assert W.power(alpha).tobytes() == spd_power(W.mats, alpha).tobytes()


@pytest.mark.parametrize("d", (2, 3))
def test_weight_power_of_clipped_weight(d):
    # half the leaves fall below the clip, the rest spread down to it, over
    # six decades of scale. W^a W^-a is I up to the rounding of the two
    # compositions, amplified by the condition number kappa^|a| of W^a;
    # the largest error found on these leaves was 2.9 eps kappa^|a|
    rng = np.random.default_rng(d)
    n = 64
    q, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
    lam = EIG_CLIP_RATIO ** rng.random((n, d))
    lam[:, -1] = 1.0
    lam[:n // 2, 0] = 1e-3 * EIG_CLIP_RATIO
    lam *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    with pytest.warns(RuntimeWarning, match="clipped"):
        W = MatrixWeight(np.einsum("lij,lj,lkj->lik", q, lam, q))
    kappa = W.vals[:, -1] / W.vals[:, 0]
    assert kappa.max() == pytest.approx(1.0 / EIG_CLIP_RATIO)
    # the clipped leaf matrices were composed from this same spectrum
    assert np.array_equal(W.power(1.0), W.mats)
    eps = np.finfo(float).eps
    for p in (1.5, 2.0, 4.0):
        for alpha in (1.0 / p, -1.0 / p, -1.0):
            err = np.linalg.norm(W.power(alpha) @ W.power(-alpha) - np.eye(d),
                                 2, axis=(1, 2))
            assert np.all(err <= 8.0 * d * eps * kappa ** abs(alpha)), \
                (p, alpha, float(np.max(err / (eps * kappa ** abs(alpha)))))


def test_scalar_path_matches_closed_formulas_bitwise():
    rng = np.random.default_rng(0)
    sp = build_dyadic(3)
    w = np.exp(rng.normal(0.0, 1.0, sp.n_leaves))
    p = 3.0
    q = conjugate(p)
    pair = build_reducing_pair(sp, as_weight(w), p)
    base = sp.atom_base
    for n in range(sp.depth + 1):
        level = slice(base[n], base[n + 1])
        assert np.array_equal(pair.tiled_primal[level, 0, 0],
                              cond_expect(sp, w, n) ** (1.0 / p))
        assert np.array_equal(pair.tiled_dual[level, 0, 0],
                              cond_expect(sp, w ** (-q / p), n) ** (1.0 / q))


def test_pair_levels_are_slices_of_the_tiled_reducers():
    sp = build_dyadic(2)
    w = as_weight(np.array([4.0, 1.0, 2.0, 0.5]))
    pair = build_reducing_pair(sp, w, 2.0)
    base = sp.atom_base
    # level n owns entries atom_base[n]:atom_base[n + 1] of the tiled order
    assert np.array_equal(pair.tiled_primal[base[1]:base[2], 0, 0],
                          [2.5 ** 0.5, 1.25 ** 0.5])
    for name in ("primal", "dual"):
        assert getattr(pair, "tiled_" + name).shape == (base[-1], 1, 1)
    swapped = exchanged_pair(pair)
    for n in range(sp.depth + 1):
        level = slice(base[n], base[n + 1])
        assert np.array_equal(swapped.tiled_primal[level],
                              pair.tiled_dual[level])
        assert np.array_equal(swapped.tiled_dual_inv[level],
                              pair.tiled_primal_inv[level])


def test_p2_ellipsoid_vs_exact_averaging_window():
    # at r = 2 the Lewis iteration is exact before any update: v = 1 gives
    # M = E_Q W^{+-1}, M' = M and S^0 = 1, so the fit is the exact pair up
    # to the rounding of two different sums and decompositions, and it
    # proves a low ratio of 1 to the same rounding
    rng = np.random.default_rng(1)
    sp = build_dyadic(3)
    W = _random_spd_weight(rng, sp.n_leaves, 2)
    exact = build_reducing_pair(sp, W, 2.0)
    assert exact.method == "exact_p2" and exact.certificate == {}
    fitted, fitted_inv, certs = _fit_reducers(
        sp, [(exact.wp, exact.wm, 2.0), (exact.wm, exact.wp, 2.0)],
        1e-3)
    for lewis, inv, ref, cert in zip(
            fitted, fitted_inv, (exact.tiled_primal, exact.tiled_dual), certs):
        err = np.linalg.norm(lewis - ref, 2, axis=(1, 2)) \
            / np.linalg.norm(ref, 2, axis=(1, 2))
        assert err.max() <= 1e-13
        assert np.allclose(inv @ ref, np.eye(2), rtol=0.0, atol=1e-13)
        assert 1.0 - 1e-13 <= cert["low"] <= cert["high"] == 1.0


def test_constant_weight_reducers_near_power():
    sp = build_dyadic(2)
    w0 = np.array([[2.0, 0.4], [0.4, 1.0]])
    W = MatrixWeight(np.tile(w0, (4, 1, 1)))
    p = 3.0
    pair = build_reducing_pair(sp, W, p)
    target = spd_power(w0, 1.0 / p)
    dirs = holdout_directions(2, 300, seed=2)
    base = sp.atom_base
    for n in range(sp.depth + 1):
        a = np.linalg.norm(np.einsum("kij,nj->kni", pair.tiled_primal[
            base[n]:base[n + 1]], dirs), axis=2)
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
    exact = build_reducing_pair(sp, W, 2.0)
    (primal, dual), _, _ = _fit_reducers(
        sp, [(exact.wp, exact.wm, 2.0), (exact.wm, exact.wp, 2.0)], 1e-3)
    # ap_characteristic reads only the two reducer families; at r = 2 the
    # Lewis fit is the exact pair, and so is its characteristic
    val = ap_characteristic(replace(exact, tiled_primal=primal,
                                    tiled_dual=dual))
    assert val == pytest.approx(1.0, abs=1e-10)
    assert ap_characteristic(exact) == pytest.approx(1.0, abs=1e-10)


def test_ap_scaling_invariance():
    rng = np.random.default_rng(4)
    sp = build_dyadic(2)
    w = np.exp(rng.normal(0.0, 1.0, 4))
    a1 = ap_characteristic(build_reducing_pair(sp, as_weight(w), 3.0))
    a2 = ap_characteristic(build_reducing_pair(sp, as_weight(17.3 * w), 3.0))
    assert a1 == pytest.approx(a2, rel=1e-10)


def _dual_weight(W, p):
    """The dual weight V = W^{-p'/p}."""
    return MatrixWeight(W.power(-conjugate(p) / p))


def test_dual_weight_scalar_identities():
    rng = np.random.default_rng(5)
    sp = build_dyadic(2)
    w = np.exp(rng.normal(0.0, 1.2, 4))
    # p = 2: V = 1/w and the characteristics agree exactly
    v = _dual_weight(as_weight(w), 2.0)
    assert np.allclose(v.scalar(), 1.0 / w, rtol=1e-12)
    assert ap_characteristic(build_reducing_pair(sp, v, 2.0)) == \
        pytest.approx(ap_characteristic(
            build_reducing_pair(sp, as_weight(w), 2.0)), rel=1e-10)
    # p = 3 two-atom example, both sides computed independently
    sp1 = build_dyadic(1)
    w2 = np.array([4.0, 1.0])
    lhs = ap_characteristic(build_reducing_pair(
        sp1, _dual_weight(as_weight(w2), 3.0), 1.5))
    rhs = ap_characteristic(build_reducing_pair(
        sp1, as_weight(w2), 3.0)) ** 0.5
    assert lhs == pytest.approx(rhs, rel=1e-10)
    # identity weight is self-dual
    W = MatrixWeight.identity(4, 3)
    assert np.allclose(_dual_weight(W, 2.5).mats, W.mats, atol=1e-12)


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
    v = _dual_weight(W, p)
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
    a_norm = np.linalg.norm(dirs @ pair.tiled_primal[0].T, axis=1)
    ratio = a_norm / rho
    tol = CERT_TOL
    assert ratio.max() <= 1.0 + tol
    assert ratio.min() >= 1.0 / ((1.0 + tol) ** 2 * np.sqrt(3.0))


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("p", (1.5, 3.0))
def test_loose_tol_stops_inside_the_certificate_window(d, p):
    # at tol = 0.6 Lewis's bound d^{|1/2 - 1/r|} (1 + tol) lies above
    # (1 + CERT_TOL) sqrt(d) for r = p and p', so the window is the stop
    # that binds: every proved low ratio stays inside it
    tol = 0.6
    for r in (p, conjugate(p)):
        assert d ** abs(0.5 - 1.0 / r) * (1.0 + tol) \
            > (1.0 + CERT_TOL) * math.sqrt(d)
    # a weight whose atoms' first rounds already prove less than Lewis's
    # loose bound but not yet the window
    sp, W = rotating_weight(6, d, 2.0, 1e-3)
    window = 1.0 / ((1.0 + CERT_TOL) * math.sqrt(d))
    pair = build_reducing_pair(sp, W, p, tol=tol)
    for cert in pair.certificate.values():
        assert cert["low"] >= window
    f = np.random.default_rng(d).standard_normal((sp.n_leaves, d))
    inst = suite.Instance(index=0, seed=7, depth=sp.depth, d=d, p=p,
                          space=sp, weight=W, f=f)
    results, _ = suite.instance_checks(inst, fit_tol=tol)
    (cert,) = (r for r in results if r.name == "reducer_certificate")
    assert cert.passed and cert.bound == window


def _column_order(d):
    """The documented order of the column products: j = 0, 1, ..., except
    0, 2, 1 at d = 3."""
    return (0, 2, 1) if d == 3 else range(d)


def _matvec_reference(mats, vecs):
    """mats @ vecs one entry at a time: each component starts from the first
    column product in the documented order and adds the others in turn."""
    mats, vecs = np.broadcast_arrays(mats, vecs[..., None, :])
    first, *rest = _column_order(mats.shape[-1])
    out = np.empty(mats.shape[:-1])
    for idx in np.ndindex(out.shape):
        row, vec = mats[idx], vecs[idx]
        y = float(row[first]) * float(vec[first])
        for j in rest:
            y += float(row[j]) * float(vec[j])
        out[idx] = y
    return out


@st.composite
def _norm_tables(draw):
    """SPD stacks in random frames whose eigenvalue ratios reach down to
    EIG_CLIP_RATIO, scaled over many decades, random unit directions and a
    (K, L, d) vector stack over many decades with some signed zeros."""
    d = draw(st.sampled_from((1, 2, 3)))
    k_count = draw(st.integers(1, 6))
    n_dirs = draw(st.integers(1, 40))
    floor = draw(st.sampled_from((1.0, 1e-3, EIG_CLIP_RATIO)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((k_count, d, d)))
    lam = np.exp(rng.uniform(np.log(floor), 0.0, (k_count, d)))
    lam[:, 0] = floor
    lam *= 10.0 ** rng.uniform(-6.0, 6.0, (k_count, 1))
    mats = np.einsum("kij,kj,klj->kil", q, lam, q)
    dirs = rng.standard_normal((n_dirs, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vecs = rng.standard_normal((draw(st.integers(1, 4)), k_count, d)) \
        * 10.0 ** rng.uniform(-6.0, 6.0, (1, k_count, d))
    vecs[rng.random(vecs.shape) < 0.1] = -0.0
    return mats, dirs, vecs


@settings(max_examples=80, deadline=None)
@given(_norm_tables())
def test_norms_kernel_matches_reference_order_and_einsum(table):
    mats, _, vecs = table
    # matvec of (L, d, d) against (L, d) and against a broadcast (K, L, d)
    for stack in (vecs[0], vecs):
        got = matvec(mats, stack)
        want = _matvec_reference(mats, stack)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _ranges(space):
    """Start and stop leaves of every distinct range of at least two
    leaves, the atoms the fit iterates on."""
    starts = np.concatenate([off[:-1] for off in space.offsets])
    stops = np.concatenate([off[1:] for off in space.offsets])
    keep = stops - starts > 1
    return np.unique(np.stack([starts[keep], stops[keep]], axis=1),
                     axis=0).T


def _fits_alone_match(sp, sides, tol):
    """Fit every range of both sides in one ``_lewis_fit`` call and assert
    that each atom, fitted alone (one side and one range per call), gets
    the same bytes and proved low ratio; returns the one call's result."""
    starts, stops = _ranges(sp)
    both = _lewis_fit(sp.leaf_probs, starts, stops, sides, tol, 1000)
    for s in range(len(sides)):
        for k in range(len(starts)):
            alone = _lewis_fit(sp.leaf_probs, starts[k:k + 1],
                               stops[k:k + 1], sides[s:s + 1], tol, 1000)
            for got, want in zip(alone, both):
                assert got[0, 0].tobytes() == want[s, k].tobytes()
    return both


@pytest.mark.parametrize("d", (2, 3))
def test_each_atom_fitted_alone_gives_the_same_bytes(monkeypatch, d):
    # atoms stop after different numbers of rounds (p = 1.5 and its
    # conjugate 3 on a random tree); the pair's one call over both sides
    # and every range gives each atom the bytes it gets alone, one side
    # and one range per call, and its proved low ratio
    inst = suite.random_instance(40 + d, seed=7, depth_range=(6, 6),
                                 dims=(d,))
    sp, W, p = inst.space, inst.weight, 1.5
    pair = build_reducing_pair(sp, W, p, tol=2e-2)
    both, _, both_low = _fits_alone_match(
        sp, [(pair.wp, pair.wm, p), (pair.wm, pair.wp, pair.q)], 2e-2)
    for s, cert in enumerate(pair.certificate.values()):
        assert cert == {"low": float(both_low[s].min()), "high": 1.0}
    # the pair's reducers are these fits, spread over the atoms of every
    # level; a single-leaf atom keeps its leaf matrix
    starts, stops = _ranges(sp)
    for n in range(sp.depth + 1):
        lo, hi = sp.offsets[n][:-1], sp.offsets[n][1:]
        for atom, (a, b) in enumerate(zip(lo, hi)):
            want = pair.wp[a] if b - a == 1 else both[0, np.flatnonzero(
                (starts == a) & (stops == b))[0]]
            assert pair.tiled_primal[sp.atom_base[n] + atom].tobytes() \
                == want.tobytes()
    calls = []
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            _recording(calls, getattr(np.linalg, name)))
    _fits_alone_match(*_near_clip_sides(d), 2e-2)
    assert ("eigh", "eigh") in zip(calls, calls[1:])


def _near_clip_sides(d):
    """The depth-6 random tree of the suite's instance 40 + d and both
    sides of a weight with near-clip leaves (spread e^23) at p = 1.05: some
    atoms' first X^T M X has an eigenvalue ratio below WHITEN_RATIO, so
    LAPACK's eigh takes a second whitening pass on a subset of the atoms in
    that round."""
    sp = suite.random_instance(40 + d, seed=7, depth_range=(6, 6),
                               dims=(d,)).space
    rng = np.random.default_rng(d)
    n = sp.n_leaves
    q, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
    lam = np.exp(-23.0 * rng.random((n, d)))
    lam[:, 0] = np.exp(-23.0)
    lam *= 10.0 ** rng.uniform(-2.0, 2.0, (n, 1))
    W = MatrixWeight(np.einsum("lij,lj,lkj->lik", q, lam, q))
    p = 1.05
    wp, wm = W.power(1.0 / p), W.power(-1.0 / p)
    return sp, [(wp, wm, p), (wm, wp, conjugate(p))]


# run in a fresh interpreter, whose BLAS reads its thread count at import:
# the near-clip fit's reducers, inverses and low ratios, as raw bytes
_NEAR_CLIP_FIT = """
import sys
sys.path.insert(0, sys.argv[1])
from test_weights import _near_clip_sides, _ranges
from wml.weights import _lewis_fit
sp, sides = _near_clip_sides(int(sys.argv[2]))
starts, stops = _ranges(sp)
for arr in _lewis_fit(sp.leaf_probs, starts, stops, sides, 2e-2, 1000):
    sys.stdout.buffer.write(arr.tobytes())
"""


@pytest.mark.parametrize("d", (2, 3))
def test_second_whitening_pass_independent_of_blas_threads(d):
    # no CLI run or bench workload reaches the second whitening pass, so
    # the thread-count comparisons of the command-line outputs do not
    # cover it; the near-clip fit above does
    src = str(Path(weights.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    outputs = []
    for threads in ("1", "2"):
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outputs.append(subprocess.run(
            [sys.executable, "-c", _NEAR_CLIP_FIT,
             str(Path(__file__).resolve().parent), str(d)],
            env=env, capture_output=True, check=True, timeout=300).stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def _recording(calls, fn):
    def recorded(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return recorded


def _sym_inv(mats):
    """Inverses of SPD matrices from a fresh decomposition: entrywise
    reciprocal powers at d = 1, LAPACK's inverse above."""
    if mats.shape[-1] == 1:
        return mats ** -1.0
    return np.linalg.inv(mats)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_pair_inverses_match_fresh_inverses(monkeypatch, d):
    # the inverse reducers come with the reducers, with no decomposition
    # of their own: reciprocals at d = 1, the inverse roots at p = 2, and
    # from the fit's spectrum or the other side's leaf power otherwise.
    # They are the fresh inverses bitwise at d = 1, and within a few eps
    # of the reducer's condition number above
    calls = []
    for module in (linalg, weights):
        for name in ("sym_inv", "spd_power"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _recording(
                    calls, getattr(module, name)))
    eps = np.finfo(float).eps
    for index in range(4):
        inst = suite.random_instance(index, seed=11, depth_range=(6, 6),
                                     dims=(d,))
        pair = build_reducing_pair(inst.space, inst.weight, inst.p,
                                   tol=2e-2)
        for side in ("primal", "dual"):
            reducers = getattr(pair, "tiled_" + side)
            got = getattr(pair, "tiled_" + side + "_inv")
            want = _sym_inv(reducers)
            if d == 1:
                assert got.tobytes() == want.tobytes()
                continue
            err = np.linalg.norm(got - want, 2, axis=(1, 2)) \
                / np.linalg.norm(want, 2, axis=(1, 2))
            bound = 8 * d * eps * np.linalg.cond(reducers)
            assert np.all(err <= bound), (inst.p, side, np.max(err / bound))
    assert calls == []


def test_failed_certification_reports_first_failing_side():
    # a round budget too small for the iteration: ``slow`` (r = 1.05) needs
    # two rounds on this instance, ``quick`` (r = 2, exact before any
    # update) and ``other`` (r = 21, whose blocks W^{-1/21} are nearly
    # round) stop in round 0 and never fail. A stacked fit reports the
    # first failing side exactly as if that side had been fitted alone,
    # with the proved low ratio of its worst atom below the bound 1 / stop
    inst = suite.random_instance(2, seed=7, depth_range=(6, 6), dims=(3,))
    sp, W = inst.space, inst.weight
    starts, stops = _ranges(sp)
    slow = (W.power(1.0 / 1.05), W.power(-1.0 / 1.05), 1.05)
    quick = (W.power(0.5), W.power(-0.5), 2.0)
    other = (W.power(-1.0 / 21.0), W.power(1.0 / 21.0), 21.0)

    def fit(*sides, rounds=1):
        return _lewis_fit(sp.leaf_probs, starts, stops, list(sides), 1e-3,
                          rounds)

    def failure(*sides):
        with pytest.raises(EllipsoidError) as err:
            fit(*sides)
        return err.value

    fit(quick, other, rounds=0)
    ref = failure(slow)
    for sides in ((slow, quick), (quick, slow), (other, slow, quick)):
        got = failure(*sides)
        assert (got.achieved, got.bound, str(got)) == \
            (ref.achieved, ref.bound, str(ref))
        assert got.last_matrix.tobytes() == ref.last_matrix.tobytes()
    assert "reducer certification failed" in str(ref)
    assert ref.achieved < ref.bound < 1.0
    # the error carries the scaled root of the worst atom: an SPD matrix
    assert np.all(np.linalg.eigvalsh(ref.last_matrix) > 0.0)
    # one more round certifies every atom
    fit(slow, quick, rounds=2)


@pytest.mark.parametrize("depth", (9, 10))
def test_deep_rotating_weight_certifies(depth):
    # the rotating probe weight that criterion 8 would take to depth 10, at
    # p = 1.5 and the sweep's fit tolerance: the sampled Loewner fit failed
    # its held-out certificate here, with ratio ranges [0.880267, 1.104285]
    # (depth 9) and [0.853319, 1.141250] (depth 10) against the window
    # [1 / (1.05 sqrt(2)), 1.05]. The Lewis fit stops every atom within
    # (1 + tol) of Lewis's bound 2^{|1/2 - 1/p|} on both sides
    sp, W = rotating_weight(depth, 2, 0.8, 2.0 ** -depth)
    pair = build_reducing_pair(sp, W, 1.5, tol=2e-2)
    assert pair.method == "ellipsoid"
    bound = 2.0 ** abs(0.5 - 1.0 / 1.5) * (1.0 + 2e-2)
    for cert in pair.certificate.values():
        assert cert["high"] == 1.0
        assert 1.0 / bound <= cert["low"] < 1.0


def test_small_atom_norm_does_not_cancel():
    # a 2-leaf atom of mass 2e-20 after a leaf of mass 1: a difference of
    # prefix sums over all leaves reads its E_Q ||W^{1/p} e||^p as 0.0 on
    # every sampled direction, although it is at least 3e-20, and the fit
    # would stop with "atom norm vanished"; summed on its own, the range is
    # fitted and every check of the instance is reported, and passes
    space = build_from_tree({"mass": 1.0, "children": [
        {"mass": 0.99999999999999998},
        {"mass": 2e-20, "children": [{"mass": 1e-20}, {"mass": 1e-20}]}]})
    weight = MatrixWeight(np.array([np.diag([1.0, 1.0]), np.diag([2.0, 1.0]),
                                    np.diag([1.0, 3.0])]))
    inst = suite.Instance(index=0, seed=7, depth=space.depth, d=2, p=3.0,
                          space=space, weight=weight, f=np.ones((3, 2)))
    results, _ = suite.instance_checks(inst)
    names = [r.name for r in results]
    assert "reducer_certificate" in names and "pointwise_domination" in names
    assert [r.name for r in results if not r.passed] == []
