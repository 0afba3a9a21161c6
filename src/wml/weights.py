"""Matrix weights, reducing matrices and A_p characteristics.

A matrix weight assigns an SPD d x d matrix to every leaf. Its reducing
pair at level n consists of two SPD matrices per atom:

  * the primal reducer, whose norm is equivalent to
    e |-> (E_n ||W^{1/p} e||^p)^{1/p}, and
  * the dual reducer, equivalent to e |-> (E_n ||W^{-1/p} e||^{p'})^{1/p'},

where p' is the conjugate exponent. For d = 1 the exact scalar formulas
(E_n w)^{1/p} and (E_n w^{-p'/p})^{1/p'} are used directly; for d >= 2 each
reducer is the circumscribed Loewner ellipsoid of the corresponding norm
ball, fitted from sampled boundary points, which pins the equivalence
constants to (1 + tol) sqrt(d) windows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .filtration import FilteredSpace, cond_expect
from .linalg import (EllipsoidError, ValidationError, direction_set,
                     holdout_directions, jacobi_eigh, mvee_central,
                     spectral_norm, spd_power, sym_inv)

EIG_CLIP_RATIO = 1e-10


def conjugate(p):
    """Conjugate exponent p' = p / (p - 1)."""
    if p <= 1.0:
        raise ValidationError("conjugate exponent needs p > 1")
    return p / (p - 1.0)


@dataclass(frozen=True)
class MatrixWeight:
    """One SPD matrix per leaf, shape (L, d, d).

    Ingestion symmetrizes within 1e-12 and clips eigenvalues below
    EIG_CLIP_RATIO times the leaf's largest eigenvalue (with a warning), so
    that negative powers stay representable.
    """

    mats: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.mats, dtype=float)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ValidationError(f"weight must have shape (L, d, d), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValidationError("weight has non-finite entries")
        scale = np.max(np.abs(a), axis=(1, 2), keepdims=True) + 1e-300
        if np.max(np.abs(a - np.swapaxes(a, 1, 2)) / scale) > 1e-12:
            raise ValidationError("weight matrices not symmetric within 1e-12")
        a = 0.5 * (a + np.swapaxes(a, 1, 2))
        vals, vecs = jacobi_eigh(a)
        floor = EIG_CLIP_RATIO * vals[:, -1:]
        if np.any(vals[:, -1] <= 0.0) or np.any(vals[:, 0] < -1e-12 * vals[:, -1]):
            raise ValidationError("weight has a non-positive-definite leaf matrix")
        if np.any(vals < floor):
            warnings.warn("weight eigenvalues clipped to keep leaves invertible",
                          RuntimeWarning, stacklevel=2)
            vals = np.maximum(vals, floor)
            a = np.einsum("lij,lj,lkj->lik", vecs, vals, vecs)
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "mats", a)

    @classmethod
    def from_scalar(cls, w):
        w = np.asarray(w, dtype=float)
        return cls(w[:, None, None])

    @classmethod
    def identity(cls, n_leaves, dim):
        return cls(np.tile(np.eye(dim), (n_leaves, 1, 1)))

    @property
    def dim(self):
        return self.mats.shape[1]

    @property
    def n_leaves(self):
        return self.mats.shape[0]

    def scalar(self):
        if self.dim != 1:
            raise ValidationError("scalar() requires a d = 1 weight")
        return self.mats[:, 0, 0]


def as_weight(w):
    """Coerce an (L,), (L,1,1) or (L,d,d) array or MatrixWeight."""
    if isinstance(w, MatrixWeight):
        return w
    arr = np.asarray(w, dtype=float)
    if arr.ndim == 1:
        return MatrixWeight.from_scalar(arr)
    return MatrixWeight(arr)


@dataclass(frozen=True)
class ReducingPair:
    """Reducing matrices of (space, W, p) at every level, plus cached powers.

    primal[n], dual[n]: (n_atoms(n), d, d) SPD; *_inv are their inverses.
    wp = W^{1/p} and wm = W^{-1/p} per leaf. ``certificate`` holds the worst
    held-out ratios observed while fitting (empty for exact paths).
    """

    space: FilteredSpace
    weight: MatrixWeight
    p: float
    primal: tuple
    dual: tuple
    primal_inv: tuple
    dual_inv: tuple
    wp: np.ndarray
    wm: np.ndarray
    method: str
    tol: float = 1e-3
    cert_tol: float = 5e-2
    seed: int = 0
    certificate: dict = None

    @property
    def q(self):
        return conjugate(self.p)


def _atom_norm_powers(space, mats, dirs, power):
    """Per (leaf, direction) values ||mats[l] u||**power and their prefix sums
    weighted by leaf probabilities: returns (L + 1, N) cumulative array."""
    norms = np.linalg.norm(np.einsum("lij,nj->lni", mats, dirs), axis=2)
    weighted = space.leaf_probs[:, None] * norms ** power
    out = np.zeros((space.n_leaves + 1, dirs.shape[0]))
    np.cumsum(weighted, axis=0, out=out[1:])
    return out


def _fit_reducers(space, mats, power, levels, tol, cert_tol, seed,
                  max_iter=100_000, n_holdout=1000):
    """Ellipsoid reducers for rho_A(e) = (E_A ||mats e||^power)^{1/power}.

    Computed once per distinct atom (atoms persisting across levels share
    the same norm); single-leaf atoms are exactly ellipsoidal and skip the
    fit. Returns {level: (K, d, d)} plus the worst certification ratios.
    """
    d = mats.shape[1]
    nodes = {}
    for n in levels:
        off = space.offsets[n]
        for a in range(len(off) - 1):
            nodes.setdefault((int(off[a]), int(off[a + 1])), []).append((n, a))

    out = {n: np.empty((space.n_atoms(n), d, d)) for n in levels}
    singles = [k for k in nodes if k[1] - k[0] == 1]
    multis = [k for k in nodes if k[1] - k[0] > 1]

    for s, e in singles:
        for n, a in nodes[(s, e)]:
            out[n][a] = mats[s]

    cert = {"low": np.inf, "high": -np.inf}
    if multis:
        starts = np.array([k[0] for k in multis])
        stops = np.array([k[1] for k in multis])
        masses = np.array([space.leaf_probs[s:e].sum() for s, e in multis])

        def rho(dirs):
            cums = _atom_norm_powers(space, mats, dirs, power)
            return ((cums[stops] - cums[starts]) / masses[:, None]) ** (1.0 / power)

        fitted, cert = _certified_fit(rho, d, tol, cert_tol, seed,
                                      max_iter=max_iter, n_holdout=n_holdout)
        for i, key in enumerate(multis):
            for n, a in nodes[key]:
                out[n][a] = fitted[i]
    return out, cert


def _certified_fit(rho, d, tol, cert_tol, seed, max_iter=100_000,
                   n_holdout=1000):
    """Circumscribed Loewner ellipsoids of K norm balls on R^d, d >= 2.

    ``rho`` maps an (N, d) array of unit directions to the (K, N) values of
    the K norms. Each ball is sampled on ``direction_set(d, seed=seed)`` and
    fitted by mvee_central to the target d(1 + eps), eps = tol (2 + tol).
    The fit is certified on held-out directions: ||A e|| <= (1 + cert_tol)
    rho(e) and rho(e) <= (1 + cert_tol) sqrt(d) ||A e||, or EllipsoidError
    is raised. Returns the (K, d, d) matrices A and the worst held-out
    ratios {"low", "high"} of ||A e|| / rho(e).
    """
    dirs = direction_set(d, seed=seed)
    vals = rho(dirs)
    if np.any(vals <= 0.0):
        raise ValidationError("atom norm vanished on a sampled direction")
    pts = dirs[None, :, :] / vals[:, :, None]
    fitted, _ = mvee_central(pts, eps=tol * (2.0 + tol), max_iter=max_iter)

    held = holdout_directions(d, n_holdout, seed + 97)
    ratio = np.linalg.norm(np.einsum("kij,nj->kni", fitted, held), axis=2) \
        / rho(held)
    lo, hi = float(ratio.min()), float(ratio.max())
    window_lo = 1.0 / ((1.0 + cert_tol) * np.sqrt(d))
    high_side = hi > 1.0 + cert_tol
    if high_side or lo < window_lo:
        raise EllipsoidError(
            f"reducer certification failed: held-out ratio range "
            f"[{lo:.6f}, {hi:.6f}] for tol {cert_tol}",
            last_matrix=fitted[int(np.argmax(ratio.max(axis=1)))],
            achieved=hi if high_side else lo,
            bound=1.0 + cert_tol if high_side else window_lo)
    return fitted, {"low": lo, "high": hi}


def build_reducing_pair(space, W, p, method="auto", tol=1e-3, cert_tol=5e-2,
                        seed=0, levels=None, n_holdout=1000):
    """Reducing pair of (space, W, p) on the requested levels (default all).

    method: "auto" picks the exact scalar formulas for d = 1 and the
    ellipsoid fit otherwise; "exact_p2" substitutes (E_n W)^{1/2} and
    (E_n W^{-1})^{1/2}, valid only at p = 2 (cross-check oracle).
    """
    W = as_weight(W)
    if W.n_leaves != space.n_leaves:
        raise ValidationError("weight and space disagree on the leaf count")
    if not 1.0 < p < np.inf:
        raise ValidationError("p must lie in (1, inf)")
    q = conjugate(p)
    if levels is None:
        levels = range(space.depth + 1)
    levels = list(levels)
    d = W.dim
    wp = spd_power(W.mats, 1.0 / p)
    wm = spd_power(W.mats, -1.0 / p)
    cert = {}

    if d == 1:
        w = W.scalar()
        primal = {n: cond_expect(space, w, n) ** (1.0 / p) for n in levels}
        dual = {n: cond_expect(space, w ** (-q / p), n) ** (1.0 / q)
                for n in levels}
        primal = {n: v[:, None, None] for n, v in primal.items()}
        dual = {n: v[:, None, None] for n, v in dual.items()}
        method = "scalar"
    elif method == "exact_p2":
        if abs(p - 2.0) > 1e-12:
            raise ValidationError("exact_p2 reducers are only valid at p = 2")
        winv = sym_inv(W.mats)
        primal, dual = {}, {}
        for n in levels:
            avg = cond_expect(space, W.mats.reshape(space.n_leaves, -1), n)
            primal[n] = spd_power(avg.reshape(-1, d, d), 0.5)
            avg = cond_expect(space, winv.reshape(space.n_leaves, -1), n)
            dual[n] = spd_power(avg.reshape(-1, d, d), 0.5)
    else:
        primal, cp = _fit_reducers(space, wp, p, levels, tol, cert_tol, seed,
                                   n_holdout=n_holdout)
        dual, cd = _fit_reducers(space, wm, q, levels, tol, cert_tol, seed,
                                 n_holdout=n_holdout)
        cert = {"primal": cp, "dual": cd}
        method = "ellipsoid"

    primal_t = tuple(primal[n] for n in levels)
    dual_t = tuple(dual[n] for n in levels)
    return ReducingPair(
        space=space, weight=W, p=p,
        primal=primal_t, dual=dual_t,
        primal_inv=tuple(sym_inv(m) for m in primal_t),
        dual_inv=tuple(sym_inv(m) for m in dual_t),
        wp=wp, wm=wm, method=method, tol=tol, cert_tol=cert_tol, seed=seed,
        certificate=cert)


def reduce_pair(space, W, p, n, **kwargs):
    """(primal, dual) reducing matrices at a single level n."""
    pair = build_reducing_pair(space, W, p, levels=[n], **kwargs)
    return pair.primal[0], pair.dual[0]


def exchanged_pair(pair):
    """Reducing pair of the dual weight: primal and dual roles swap and the
    exponent becomes the conjugate."""
    return replace(pair, p=pair.q, primal=pair.dual, dual=pair.primal,
                   primal_inv=pair.dual_inv, dual_inv=pair.primal_inv,
                   wp=pair.wm, wm=pair.wp)


def dual_weight(W, p):
    """The dual weight V = W^{-p'/p}; combine with exchanged_pair."""
    W = as_weight(W)
    return MatrixWeight(spd_power(W.mats, -conjugate(p) / p))


def _leaf_level_products(space, left_leaf, right_atoms, n):
    """spectral norms of left_leaf[l] @ right_atoms[atom(l)] per leaf."""
    expanded = space.expand(n, right_atoms)
    return spectral_norm(left_leaf @ expanded)


def _average_bound_exponent(r):
    # E_n ||M||^r with ||M|| <= (sum_i ||M u_i||^2)^{1/2}: subadditivity of
    # t^{r/2} for r <= 2 costs a factor d; Hoelder for r > 2 costs d^{r/2}.
    # On top of the per-vector bound d^{r/2} this gives exponent r/2 + 1
    # for r <= 2 and r for r > 2.
    return r / 2.0 + 1.0 if r <= 2.0 else r


def verify_reducing_bounds(space, W, p, pair):
    """Conditional averages E_n ||W^{1/p} primal^{-1}||^p and
    E_n ||W^{-1/p} dual^{-1}||^{p'} per atom, against explicit constants.

    The sqrt(d) equivalence gives E_n ||W^{1/p} primal^{-1} e||^p <=
    d^{p/2} (1+tol)^p per fixed unit vector e; passing to the operator norm
    inside the average costs another basis summation, so the certified
    bound is d^{p/2+1} (1+tol)^p for p <= 2 and d^p (1+tol)^p for p > 2
    (conjugate exponent on the dual side). The per-vector value is reported
    as ``nominal`` for reference. Report-only."""
    W = as_weight(W)
    d, q = W.dim, conjugate(p)
    tol = pair.cert_tol if pair.method == "ellipsoid" else 0.0
    rows = []
    for n in range(space.depth + 1):
        vals_p = _leaf_level_products(space, pair.wp, pair.primal_inv[n], n)
        avg_p = cond_expect(space, vals_p ** p, n)
        vals_q = _leaf_level_products(space, pair.wm, pair.dual_inv[n], n)
        avg_q = cond_expect(space, vals_q ** q, n)
        rows.append({"level": n,
                     "primal_max": float(avg_p.max()),
                     "dual_max": float(avg_q.max())})
    bound_p = d ** _average_bound_exponent(p) * (1.0 + tol) ** p
    bound_q = d ** _average_bound_exponent(q) * (1.0 + tol) ** q
    primal_max = max(r["primal_max"] for r in rows)
    dual_max = max(r["dual_max"] for r in rows)
    return {
        "levels": rows,
        "primal_max": primal_max, "primal_bound": bound_p,
        "dual_max": dual_max, "dual_bound": bound_q,
        "primal_nominal": d ** (p / 2.0) * (1.0 + tol) ** p,
        "dual_nominal": d ** (q / 2.0) * (1.0 + tol) ** q,
        "primal_ok": bool(primal_max <= bound_p * (1.0 + 1e-10) + 1e-10),
        "dual_ok": bool(dual_max <= bound_q * (1.0 + 1e-10) + 1e-10),
    }


def ap_characteristic(space, W, p, pair=None, **kwargs):
    """A_p characteristic: max over levels and atoms of
    ||primal_n dual_n||^p."""
    if pair is None:
        pair = build_reducing_pair(space, as_weight(W), p, **kwargs)
    best = 0.0
    for n in range(space.depth + 1):
        best = max(best, float(spectral_norm(pair.primal[n] @ pair.dual[n]).max()))
    return best ** p


def a1_characteristic(space, W, tol=1e-3, cert_tol=5e-2, seed=0):
    """A_1 characteristic: max over levels and leaves of
    ||primal_n(atom) W(leaf)^{-1}|| with the p = 1 primal reducer, whose norm
    is equivalent to e |-> E_n ||W e||."""
    W = as_weight(W)
    d = W.dim
    if d == 1:
        w = W.scalar()
        best = 0.0
        for n in range(space.depth + 1):
            avg = space.expand(n, cond_expect(space, w, n))
            best = max(best, float((avg / w).max()))
        return best
    levels = list(range(space.depth + 1))
    primal, _ = _fit_reducers(space, W.mats, 1.0, levels, tol, cert_tol, seed)
    winv = sym_inv(W.mats)
    best = 0.0
    for n in levels:
        vals = spectral_norm(space.expand(n, primal[n]) @ winv)
        best = max(best, float(vals.max()))
    return best


def ap_equivalents(space, W, p, pair):
    """The two equivalent characteristic expressions:
      q1 = max_n max_atoms E_n(||dual_n W^{1/p}||^p)
      q2 = (max_n max_atoms E_n(||primal_n W^{-1/p}||^{p'}))^{p/p'}
    together with the comparison window c(p, d) = 16 d^{max(p, p')/2}."""
    W = as_weight(W)
    q = conjugate(p)
    q1 = 0.0
    q2_inner = 0.0
    for n in range(space.depth + 1):
        vals = spectral_norm(space.expand(n, pair.dual[n]) @ pair.wp)
        q1 = max(q1, float(cond_expect(space, vals ** p, n).max()))
        vals = spectral_norm(space.expand(n, pair.primal[n]) @ pair.wm)
        q2_inner = max(q2_inner, float(cond_expect(space, vals ** q, n).max()))
    q2 = q2_inner ** (p / q)
    window = 16.0 * as_weight(W).dim ** (max(p, q) / 2.0)
    return q1, q2, window
