"""Matrix weights, reducing matrices and A_p characteristics.

A matrix weight assigns an SPD d x d matrix to every leaf. Its reducing
pair at level n consists of two SPD matrices per atom:

  * the primal reducer, whose norm is equivalent to
    e |-> (E_n ||W^{1/p} e||^p)^{1/p}, and
  * the dual reducer, equivalent to e |-> (E_n ||W^{-1/p} e||^{p'})^{1/p'},

where p' is the conjugate exponent. For d = 1 the exact scalar formulas
(E_n w)^{1/p} and (E_n w^{-p'/p})^{1/p'} are used directly. At p = 2 the
norm balls are ellipsoids, rho(e)^2 = e^T (E_n W^{+-1}) e, and the reducers
are exactly (E_n W)^{1/2} and (E_n W^{-1})^{1/2} (the matrix A_2 condition
of Treil and Volberg). Otherwise, for d >= 2, each reducer is the
circumscribed Loewner ellipsoid of the corresponding norm ball, fitted from
sampled boundary points, which pins the equivalence constants to
(1 + tol) sqrt(d) windows. The fit reads each side's norms on a direction
set from two BLAS products: the leaf matrices against all directions
(``_leaf_norms``), then a P-weighted range matrix against that leaf table
for every atom's E_Q sum (``_range_matrix``).

Each leaf matrix is eigen-decomposed once, when the MatrixWeight is
built, and every power W^alpha of the leaves is ``MatrixWeight.power``
of that spectrum. No reducer is inverted by a decomposition of its own:
at d = 1 the inverses are reciprocals, at p = 2 each side's stack of
means is decomposed once for both its root and its inverse root, and the
fit returns each ellipsoid's inverse from the spectrum that gives it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .filtration import FilteredSpace, level_means
from .linalg import (EllipsoidError, ValidationError, _check_positive,
                     _eig_compose, direction_set, holdout_directions,
                     jacobi_eigh, mvee_central, spectral_norm)

EIG_CLIP_RATIO = 1e-10


def check_tolerance(name, value):
    """Raise ValidationError, naming ``name``, unless ``value`` is a finite
    positive number."""
    if not 0.0 < value < np.inf:
        raise ValidationError(
            f"{name} must be a finite positive number, got {value!r}")


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
    that negative powers stay representable. The leaf spectra found there
    are kept, read-only, as ``vals`` (L, d), ascending and clipped, and
    ``vecs`` (L, d, d), so that every power of the weight comes from
    ``power`` without another decomposition.
    """

    mats: np.ndarray
    vals: np.ndarray = field(init=False, repr=False, compare=False)
    vecs: np.ndarray = field(init=False, repr=False, compare=False)

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
            a = _eig_compose(vecs, vals)
        a = np.ascontiguousarray(a)
        for name, arr in (("mats", a), ("vals", vals), ("vecs", vecs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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

    def power(self, alpha):
        """W**alpha per leaf, (L, d, d), from the kept spectrum: bitwise
        ``spd_power(mats, alpha)`` for a weight whose eigenvalues were not
        clipped, and like it entrywise at d = 1."""
        if self.dim == 1:
            return self.mats ** alpha
        return _eig_compose(self.vecs, self.vals ** alpha)

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

    tiled_primal, tiled_dual: (atom_base[-1], d, d) SPD reducers of every
    atom of every level, in the tiled order of ``space``; tiled_*_inv are
    their inverses. primal[n] and dual[n] are the (n_atoms(n), d, d)
    level-n slices of tiled_primal and tiled_dual. wp = W^{1/p} and
    wm = W^{-1/p} per leaf. ``method`` names the construction: "scalar"
    (d = 1) and "exact_p2" (p = 2, d >= 2) are exact, ||A e|| = rho(e);
    "ellipsoid" is the certified Loewner fit. ``certificate`` holds the
    worst held-out ratios observed while fitting (empty for exact paths).
    """

    space: FilteredSpace
    weight: MatrixWeight
    p: float
    tiled_primal: np.ndarray
    tiled_dual: np.ndarray
    tiled_primal_inv: np.ndarray
    tiled_dual_inv: np.ndarray
    wp: np.ndarray
    wm: np.ndarray
    method: str
    tol: float = 1e-3
    cert_tol: float = 5e-2
    seed: int = 0
    certificate: dict = None

    def __post_init__(self):
        base = self.space.atom_base
        for name in ("primal", "dual"):
            tiled = getattr(self, "tiled_" + name)
            object.__setattr__(self, name, tuple(
                tiled[base[n]:base[n + 1]]
                for n in range(self.space.depth + 1)))

    @property
    def q(self):
        return conjugate(self.p)

    @cached_property
    def dual_norms(self):
        """(D + 1, L) table of ||W^{1/p}(l) dual_n(atom_n(l))||, built on
        first use."""
        return reducer_norms(self.space, self.wp, self.tiled_dual)


def reducer_norms(space, leaf_mats, tiled_reducers):
    """(D + 1, L) table of ||leaf_mats[l] R_n(atom_n(l))|| for reducers R of
    every level in tiled order: one gather, one spectral_norm."""
    return spectral_norm(leaf_mats @ tiled_reducers[space.tiled_labels])


def _leaf_norms(mats, dirs, power=1.0):
    """(K, N) table of ||mats[k] u_n||^power for (K, d, d) mats and (N, d)
    dirs, from one BLAS product (K d, d) @ (d, N): its entries are squared
    and summed over each matrix's d rows, and the squares are raised
    straight to power / 2."""
    k_count, d = mats.shape[:2]
    prod = (mats.reshape(k_count * d, d) @ dirs.T).reshape(k_count, d, -1)
    prod *= prod
    table = prod.sum(axis=1)
    table **= 0.5 * power
    return table


def _range_matrix(space, starts, stops):
    """(K, L) matrix holding P(l) on each leaf range [starts[k], stops[k])
    and 0 elsewhere, so that one product with an (L, N) leaf table gives
    every range's P-weighted sum. Each range is summed on its own from its
    positive terms, with exact zeros outside it, so a range of small mass
    does not cancel against the leaves before it."""
    leaves = np.arange(space.n_leaves)
    inside = (leaves >= starts[:, None]) & (leaves < stops[:, None])
    return np.where(inside, space.leaf_probs, 0.0)


def _fit_reducers(space, sides, tol, cert_tol, seed, max_iter=100_000,
                  n_holdout=1000):
    """Ellipsoid reducers for rho_A(e) = (E_A ||mats e||^power)^{1/power}
    on every atom of every level, in tiled order, and their inverses, for
    each (mats, mats_inv, power) of ``sides``; mats_inv holds the inverses
    of the leaf matrices.

    Computed once per distinct leaf range (atoms persisting across levels
    share the same norm); single-leaf atoms are exactly ellipsoidal and
    skip the fit. The sides share their leaf ranges and direction sets, so
    all their clouds go through one _certified_fit call. A side's norms on
    N directions are its (L, N) leaf table times the (K, L) range matrix of
    the K fitted ranges, built once, whose row sums are the range masses.
    Returns a list of (atom_base[-1], d, d) reducers, a list of their
    inverses and a list of worst certification ratios, one of each per
    side.
    """
    starts = np.concatenate([off[:-1] for off in space.offsets])
    stops = np.concatenate([off[1:] for off in space.offsets])
    single = stops - starts == 1
    # a single-leaf atom's reducer is its leaf matrix, and its inverse the
    # inverse leaf matrix; the others are fitted
    outs = [mats[starts] for mats, _, _ in sides]
    invs = [mats_inv[starts] for _, mats_inv, _ in sides]

    certs = [{"low": np.inf, "high": -np.inf} for _ in sides]
    multi = np.flatnonzero(~single)
    if multi.size:
        _, first, inverse = np.unique(
            starts[multi] * (space.n_leaves + 1) + stops[multi],
            return_index=True, return_inverse=True)
        summer = _range_matrix(space, starts[multi[first]],
                               stops[multi[first]])
        masses = summer.sum(axis=1)[:, None]

        def rho(dirs):
            vals = np.empty((len(sides), first.size, dirs.shape[0]))
            for row, (mats, _, power) in zip(vals, sides):
                np.matmul(summer, _leaf_norms(mats, dirs, power), out=row)
                row /= masses
                row **= 1.0 / power
            return vals

        fitted, fitted_inv, certs = _certified_fit(
            rho, sides[0][0].shape[1], tol, cert_tol, seed,
            max_iter=max_iter, n_holdout=n_holdout)
        for out, inv, fit, fit_inv in zip(outs, invs, fitted, fitted_inv):
            out[multi] = fit[inverse]
            inv[multi] = fit_inv[inverse]
    return outs, invs, certs


def _certified_fit(rho, d, tol, cert_tol, seed, max_iter=100_000,
                   n_holdout=1000):
    """Circumscribed Loewner ellipsoids of S x K norm balls on R^d, d >= 2.

    ``rho`` maps an (N, d) array of unit directions to the (S, K, N) values
    of the norms, S sides of K norms each. Each ball is sampled on
    ``direction_set(d, seed=seed)`` and all S K are fitted in one
    mvee_central call to the target d(1 + eps), eps = tol (2 + tol). A
    cloud's fit does not depend on the others in the call; only the
    ``max_iter`` budget is shared, so a fit that runs out of it fails with
    the EllipsoidError of the whole call. The fit is certified on held-out
    directions, side by side in order, with ||A e|| from ``_leaf_norms``:
    ||A e|| <= (1 + cert_tol) rho(e) and rho(e) <= (1 + cert_tol) sqrt(d)
    ||A e||, or EllipsoidError is raised for the first side that fails.
    Returns the (S, K, d, d) matrices A, their inverses from the fit's own
    spectrum and, per side, the worst held-out ratios {"low", "high"} of
    ||A e|| / rho(e).
    """
    dirs = direction_set(d, seed=seed)
    vals = rho(dirs)
    if np.any(vals <= 0.0):
        raise ValidationError("atom norm vanished on a sampled direction")
    # release each working array once used: the fit of all sides at once
    # is the memory peak of an instance
    pts = dirs / vals[..., None]
    del vals
    fitted, _, fitted_inv = mvee_central(pts, eps=tol * (2.0 + tol),
                                         max_iter=max_iter)
    del pts

    held = holdout_directions(d, n_holdout, seed + 97)
    window_lo = 1.0 / ((1.0 + cert_tol) * np.sqrt(d))
    certs = []
    for side, norms in zip(fitted, rho(held)):
        ratio = _leaf_norms(side, held) / norms
        lo, hi = float(ratio.min()), float(ratio.max())
        high_side = hi > 1.0 + cert_tol
        if high_side or lo < window_lo:
            raise EllipsoidError(
                f"reducer certification failed: held-out ratio range "
                f"[{lo:.6f}, {hi:.6f}] for tol {cert_tol}",
                last_matrix=side[int(np.argmax(ratio.max(axis=1)))],
                achieved=hi if high_side else lo,
                bound=1.0 + cert_tol if high_side else window_lo)
        certs.append({"low": lo, "high": hi})
    return fitted, fitted_inv, certs


def _root_of_means(space, mats):
    """(E_n mats)^{1/2} and (E_n mats)^{-1/2} on every atom of every level,
    in tiled order, from one level_means call and one decomposition."""
    d = mats.shape[1]
    means = level_means(space, np.broadcast_to(
        mats.reshape(space.n_leaves, d * d),
        (space.depth + 1, space.n_leaves, d * d)))
    vals, vecs = jacobi_eigh(means.reshape(-1, d, d))
    _check_positive(vals)
    return _eig_compose(vecs, vals ** 0.5), _eig_compose(vecs, vals ** -0.5)


def build_reducing_pair(space, W, p, tol=1e-3, cert_tol=5e-2, seed=0,
                        n_holdout=1000):
    """Reducing pair of (space, W, p) on every level.

    Exact where the norm balls are ellipsoids: the scalar formulas for
    d = 1 (method "scalar"), and primal (E_n W)^{1/2}, dual
    (E_n W^{-1})^{1/2} for p = 2 (method "exact_p2"); neither carries a
    certificate. Otherwise the ellipsoid fit of the primal and dual sides
    together (method "ellipsoid"), certified on held-out directions;
    ``tol``, ``cert_tol``, ``seed`` and ``n_holdout`` act only on the fit,
    but a tolerance that is not finite and positive is refused on every
    path."""
    W = as_weight(W)
    if W.n_leaves != space.n_leaves:
        raise ValidationError("weight and space disagree on the leaf count")
    if not 1.0 < p < np.inf:
        raise ValidationError("p must lie in (1, inf)")
    check_tolerance("tol", tol)
    check_tolerance("cert_tol", cert_tol)
    q = conjugate(p)
    wp, wm = W.power(1.0 / p), W.power(-1.0 / p)
    cert = {}

    if W.dim == 1:
        w, stack = W.scalar(), (space.depth + 1, space.n_leaves)
        primal = level_means(space, np.broadcast_to(w, stack)) ** (1.0 / p)
        dual = level_means(space, np.broadcast_to(w ** (-q / p), stack)) \
            ** (1.0 / q)
        primal, dual = primal[:, None, None], dual[:, None, None]
        primal_inv, dual_inv = 1.0 / primal, 1.0 / dual
        method = "scalar"
    elif p == 2.0:
        primal, primal_inv = _root_of_means(space, W.mats)
        dual, dual_inv = _root_of_means(space, W.power(-1.0))
        method = "exact_p2"
    else:
        (primal, dual), (primal_inv, dual_inv), (cp, cd) = _fit_reducers(
            space, [(wp, wm, p), (wm, wp, q)], tol, cert_tol, seed,
            n_holdout=n_holdout)
        cert = {"primal": cp, "dual": cd}
        method = "ellipsoid"

    return ReducingPair(
        space=space, weight=W, p=p,
        tiled_primal=primal, tiled_dual=dual,
        tiled_primal_inv=primal_inv, tiled_dual_inv=dual_inv,
        wp=wp, wm=wm, method=method, tol=tol, cert_tol=cert_tol, seed=seed,
        certificate=cert)


def exchanged_pair(pair):
    """Reducing pair of the dual weight: primal and dual roles swap and the
    exponent becomes the conjugate."""
    return replace(pair, p=pair.q, tiled_primal=pair.tiled_dual,
                   tiled_dual=pair.tiled_primal,
                   tiled_primal_inv=pair.tiled_dual_inv,
                   tiled_dual_inv=pair.tiled_primal_inv,
                   wp=pair.wm, wm=pair.wp)


def dual_weight(W, p):
    """The dual weight V = W^{-p'/p}; combine with exchanged_pair."""
    W = as_weight(W)
    return MatrixWeight(W.power(-conjugate(p) / p))


def _average_bound_exponent(r):
    # E_n ||M||^r with ||M|| <= (sum_i ||M u_i||^2)^{1/2}: subadditivity of
    # t^{r/2} for r <= 2 costs a factor d; Hoelder for r > 2 costs d^{r/2}.
    # On top of the per-vector bound d^{r/2} this gives exponent r/2 + 1
    # for r <= 2 and r for r > 2.
    return r / 2.0 + 1.0 if r <= 2.0 else r


def verify_reducing_bounds(pair):
    """Conditional averages E_n ||W^{1/p} primal^{-1}||^p and
    E_n ||W^{-1/p} dual^{-1}||^{p'} per atom, against explicit constants.

    The sqrt(d) equivalence gives E_n ||W^{1/p} primal^{-1} e||^p <=
    d^{p/2} (1+tol)^p per fixed unit vector e; passing to the operator norm
    inside the average costs another basis summation, so the certified
    bound is d^{p/2+1} (1+tol)^p for p <= 2 and d^p (1+tol)^p for p > 2
    (conjugate exponent on the dual side). The per-vector value is reported
    as ``nominal`` for reference. Report-only."""
    space, p, q, d = pair.space, pair.p, pair.q, pair.weight.dim
    tol = pair.cert_tol if pair.method == "ellipsoid" else 0.0
    primal_max = float(level_means(space, reducer_norms(
        space, pair.wp, pair.tiled_primal_inv) ** p).max())
    dual_max = float(level_means(space, reducer_norms(
        space, pair.wm, pair.tiled_dual_inv) ** q).max())
    bound_p = d ** _average_bound_exponent(p) * (1.0 + tol) ** p
    bound_q = d ** _average_bound_exponent(q) * (1.0 + tol) ** q
    return {
        "primal_max": primal_max, "primal_bound": bound_p,
        "dual_max": dual_max, "dual_bound": bound_q,
        "primal_nominal": d ** (p / 2.0) * (1.0 + tol) ** p,
        "dual_nominal": d ** (q / 2.0) * (1.0 + tol) ** q,
        "primal_ok": bool(primal_max <= bound_p * (1.0 + 1e-10) + 1e-10),
        "dual_ok": bool(dual_max <= bound_q * (1.0 + 1e-10) + 1e-10),
    }


def ap_characteristic(pair):
    """A_p characteristic: max over levels and atoms of
    ||primal_n dual_n||^p."""
    return float(spectral_norm(pair.tiled_primal @ pair.tiled_dual).max()) \
        ** pair.p


def ap_equivalents(pair):
    """The two equivalent characteristic expressions:
      q1 = max_n max_atoms E_n(||W^{1/p} dual_n||^p)
      q2 = (max_n max_atoms E_n(||W^{-1/p} primal_n||^{p'}))^{p/p'}
    together with the comparison window c(p, d) = 16 d^{max(p, p')/2}."""
    space, p, q = pair.space, pair.p, pair.q
    q1 = float(level_means(space, pair.dual_norms ** p).max())
    q2 = float(level_means(space, reducer_norms(
        space, pair.wm, pair.tiled_primal) ** q).max()) ** (p / q)
    window = 16.0 * pair.weight.dim ** (max(p, q) / 2.0)
    return q1, q2, window
