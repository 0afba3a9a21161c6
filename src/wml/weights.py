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
of Treil and Volberg). Otherwise, for d >= 2, each atom's norm is a
d-dimensional subspace of L^r(l^2), and its reducer comes from Lewis's
change of density, computed per atom as block Lewis weights by a fixed
point iteration on the leaf blocks (``_lewis_fit``; Jambulapati, Lee, Liu
& Sidford, FOCS 2023; Manoj & Ovsiankin, arXiv:2311.10013). No direction
is sampled: every round proves constants alpha, beta with
alpha ||M^{1/2} e|| <= rho(e) <= beta ||M^{1/2} e||, and an atom stops once
beta / alpha is within (1 + FIT_TOL) of Lewis's bound d^{|1/2 - 1/r|} <=
sqrt(d).

Each leaf matrix is eigen-decomposed once, when the MatrixWeight is
built, and every power W^alpha of the leaves is ``MatrixWeight.power``
of that spectrum. No reducer is inverted by a decomposition of its own:
at d = 1 the inverses are reciprocals, at p = 2 each side's stack of
means is decomposed once for both its root and its inverse root, and the
fit returns each reducer's inverse from the spectrum that gives it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .filtration import FilteredSpace, level_means
from .linalg import (EllipsoidError, ValidationError, _check_positive,
                     _eig_compose, _gram, _gram_top, jacobi_eigh,
                     spectral_norm)

EIG_CLIP_RATIO = 1e-10
# a whitened X^T M X whose eigenvalue ratio is at most WHITEN_RATIO could
# not resolve the smallest directions of M in its frame: whiten again
WHITEN_RATIO = 1e-8
WHITEN_PASSES = 4
# a certified reducer's proved distortion beta / alpha is at most
# (1 + CERT_TOL) sqrt(d)
CERT_TOL = 5e-2
# an atom of the fit stops once beta / alpha <= d^{|1/2 - 1/r|} (1 + FIT_TOL).
# FIT_TOL < CERT_TOL and d^{|1/2 - 1/r|} <= sqrt(d) for every finite r, so
# that stop lies inside the certificate window
FIT_TOL = 2e-2
# the fit's round budget
FIT_ROUNDS = 1000


def check_exponent(p):
    """Refuse an exponent p outside (1, inf), NaN included."""
    if not 1.0 < p < np.inf:
        raise ValidationError(f"p must lie in (1, inf), got {p}")


def conjugate(p):
    """Conjugate exponent p' = p / (p - 1) of a p in (1, inf)."""
    check_exponent(p)
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
    atom of every level, in the tiled order of ``space``, so that level n
    owns entries ``space.atom_base[n]:space.atom_base[n + 1]``;
    tiled_*_inv are their inverses. wp = W^{1/p} and wm = W^{-1/p} per
    leaf. ``method`` names the construction: "scalar" (d = 1) and
    "exact_p2" (p = 2, d >= 2) are exact, ||A e|| = rho(e);
    "ellipsoid" is the block Lewis fit. ``certificate`` holds, per side,
    the proved ratios {"low", "high"} of ||A e|| / rho(e) over all atoms:
    high is 1.0 and low the smallest alpha / beta (empty for exact paths).
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
    certificate: dict = None

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


def _runs(counts):
    """First index of each of consecutive runs of the given lengths."""
    return np.concatenate(([0], np.cumsum(counts[:-1])))


def _range_pairs(starts, stops):
    """The (range, leaf) pairs of the leaf ranges [starts[k], stops[k]),
    range by range: the leaf of every pair and the first pair of every
    range."""
    counts = stops - starts
    first = _runs(counts)
    return np.arange(counts.sum()) + np.repeat(starts - first, counts), first


def _range_sums(terms, first):
    """Sums of ``terms`` over each range's run of pairs, which starts at
    ``first``. Each range is summed on its own from its own terms, so a
    range of small mass does not cancel against the leaves before it, and
    its sum does not depend on the other ranges in the call."""
    return np.add.reduceat(terms, first, axis=0)


def _roots(x):
    """(X X^T)^{-1/2} and (X X^T)^{1/2} of stacked invertible X, from the
    singular value decomposition X = P diag(s) Q^T: both are SPD, and
    ||(X X^T)^{-1/2} e|| = ||X^{-1} e|| for every e."""
    p, s, _ = np.linalg.svd(x)
    return _eig_compose(p, 1.0 / s), _eig_compose(p, s)


def _lewis_fit(probs, starts, stops, sides, max_iter):
    """Block Lewis reducers of S sides on K leaf ranges of at least two
    leaves, d >= 2.

    Side s is (mats, _, r) with SPD leaf blocks A_l = mats[l]; its norm on
    range k is rho(e) = (sum_l pi_l ||A_l e||^r)^{1/r}, pi_l = P(l) / P(Q),
    over the leaves of the range. Each atom (side and range) iterates its
    block Lewis weights v (Jambulapati, Lee, Liu & Sidford, FOCS 2023;
    Manoj & Ovsiankin, arXiv:2311.10013) from v = 1:

      * M = sum_l pi_l v_l A_l^T A_l;
      * tau_l = ||A_l M^{-1/2}||^2;
      * log v <- (1 - eta) log v + eta (r/2 - 1) log tau, with eta = 1 for
        r <= 2 and 4 / (r + 2) above, where the plain map oscillates.

    M is never formed: that would square the blocks' condition numbers,
    and at p near 1 with leaves near EIG_CLIP_RATIO its small eigenvalues
    fall below the rounding of its large ones. Each atom keeps a frame X
    with X^T M X = I instead, and every matrix is taken in it: the blocks
    B_l = A_l X, their Gram matrices B_l^T B_l, and X^T M X from those,
    which LAPACK's ``np.linalg.eigh`` decomposes to whiten the frame anew
    once the weights have moved. An atom whose X^T M X has an eigenvalue
    ratio below WHITEN_RATIO takes up to WHITEN_PASSES passes in the round.
    X^T M X is near I at the fixed point, and a pass that leaves its ratio
    below WHITEN_RATIO is redone, so LAPACK's error, small against the
    largest eigenvalue, is enough: the relative accuracy of ``jacobi_eigh``
    on graded matrices is not needed here, nor for the extreme eigenvalues
    of X^T M' X below, which ``np.linalg.eigvalsh`` takes. tau_l is the
    top Gram eigenvalue, as ``spectral_norm`` takes it.

    Every round certifies its frame, whatever X is. With M' = sum_l pi_l
    tau_l^{r/2-1} A_l^T A_l, the extreme eigenvalues lo and hi of X^T M' X,
    and S = sum_l pi_l tau_l^{r/2}, Hölder and ||A_l e||^2 <= tau_l
    ||X^{-1} e||^2 give alpha ||X^{-1} e|| <= rho(e) <= beta ||X^{-1} e||
    for every e, with alpha = lo^{1/2} S^{1/r-1/2}, beta = hi^{1/r} for
    r >= 2 and alpha = lo^{1/r}, beta = hi^{1/2} S^{1/r-1/2} for r < 2. At a
    fixed point M' = M and S <= d, so beta / alpha <= d^{|1/2-1/r|} (Lewis,
    Studia Math. 63, 1978). An atom stops on its own once beta / alpha is
    at most d^{|1/2-1/r|} (1 + FIT_TOL). Its reducer is A = alpha R with
    R = (X X^T)^{-1/2} the SPD root of X^{-T} X^{-1}, from the singular
    value decomposition of X, so that ||A e|| <= rho(e) <= (beta / alpha)
    ||A e||; its inverse is R^{-1} / alpha. Each atom keeps its last frame
    and alpha, and one ``_roots`` call after the last round takes every
    atom's R. Both bounds hold up to the rounding of B_l = A_l X, about
    eps cond(R) relative. The weights tau^{r/2-1} of M' and S are scaled by
    their largest value on the range, which cancels in beta / alpha and is
    put back into alpha, so that large r does not overflow them.

    Each atom's result depends only on its own leaves: the range sums
    (``_range_sums``), the eigen kernels, the whitening passes and every
    other step act on each atom alone. An atom still above its stop after
    ``max_iter`` rounds raises EllipsoidError for the first side that has
    one, naming its worst atom, exactly as if that side had been fitted
    alone.

    Returns the (S, K, d, d) reducers, their inverses and the (S, K)
    proved low ratios alpha / beta.
    """
    n_sides, k_count, d = len(sides), len(starts), sides[0][0].shape[1]
    leaf, first = _range_pairs(starts, stops)
    counts = np.tile(stops - starts, n_sides)
    mass = np.repeat(_range_sums(probs[leaf], first), stops - starts)
    # the pairs of every atom, side by side: atom s K + k holds side s's
    # pairs of range k, and starts in the frame X = I
    pi = np.tile(probs[leaf] / mass, n_sides)
    a = np.concatenate([mats[leaf] for mats, _, _ in sides])
    gram = _gram(a)
    x = np.tile(np.eye(d), (n_sides * k_count, 1, 1))
    r = np.repeat([power for _, _, power in sides], k_count)
    eta = np.where(r <= 2.0, 1.0, 4.0 / (r + 2.0))
    stop = d ** np.abs(0.5 - 1.0 / r) * (1.0 + FIT_TOL)
    expo = np.repeat(0.5 * r - 1.0, counts)
    log_v = np.zeros(len(pi))

    # each stopped atom's frame, its alpha and its proved low ratio
    frames = np.empty((n_sides * k_count, d, d))
    scale, low = np.empty(n_sides * k_count), np.empty(n_sides * k_count)
    alive = np.arange(n_sides * k_count)
    for rounds in range(max_iter + 1):
        first = _runs(counts)
        weight = pi * np.exp(log_v)
        todo = np.ones(alive.size, dtype=bool)
        for _ in range(WHITEN_PASSES):
            pairs = np.repeat(todo, counts)
            mu, u = np.linalg.eigh(_range_sums(
                weight[pairs, None, None] * gram[pairs], _runs(counts[todo])))
            # a direction whose eigenvalue rounding left at or below 0 gets
            # a large finite scale, and the next pass resolves it
            x[todo] = x[todo] @ (u / np.sqrt(np.maximum(
                mu, 1e-30 * mu[:, -1:]))[:, None, :])
            b = a[pairs] @ np.repeat(x[todo], counts[todo], axis=0)
            gram[pairs] = _gram(b)
            poor = mu[:, 0] <= WHITEN_RATIO * mu[:, -1]
            if not poor.any():
                break
            todo[np.flatnonzero(todo)[~poor]] = False

        tau = _gram_top(gram)
        scaled = expo * np.log(tau)
        top = np.maximum.reduceat(scaled, first)
        w = pi * np.exp(scaled - np.repeat(top, counts))
        s = _range_sums(w * tau, first)
        lam = np.linalg.eigvalsh(_range_sums(w[:, None, None] * gram, first))
        lo, hi = np.maximum(lam[:, 0], 0.0), lam[:, -1]
        ra = r[alive]
        tail = s ** (1.0 / ra - 0.5)
        alpha = np.where(ra >= 2.0, np.sqrt(lo) * tail, lo ** (1.0 / ra))
        beta = np.where(ra >= 2.0, hi ** (1.0 / ra), np.sqrt(hi) * tail)
        # alpha <= beta, but not always after rounding
        ratio = np.minimum(alpha / beta, 1.0)
        done = beta <= stop[alive] * alpha
        alpha *= np.exp(top / ra)
        if rounds == max_iter and not done.all():
            side = alive // k_count
            bad = np.flatnonzero(~done & (side == side[~done].min()))
            worst = bad[np.argmin(ratio[bad])]
            bound = 1.0 / stop[alive[worst]]
            raise EllipsoidError(
                f"reducer certification failed: block Lewis weights did not "
                f"reach distortion {1.0 / bound:.6f} in {max_iter} rounds "
                f"(proved ratio range [{ratio[worst]:.6f}, 1])",
                achieved=float(ratio[worst]), bound=float(bound))
        fin = alive[done]
        frames[fin], scale[fin], low[fin] = x[done], alpha[done], ratio[done]
        if done.all():
            break
        keep = np.repeat(~done, counts)
        owner_eta = np.repeat(eta[alive], counts)
        log_v = (1.0 - owner_eta) * log_v + owner_eta * scaled
        log_v, pi, a, gram, expo = (
            arr[keep] for arr in (log_v, pi, a, gram, expo))
        alive, counts, x = alive[~done], counts[~done], x[~done]
    root, inv_root = _roots(frames)
    scale = scale[:, None, None]
    shape = (n_sides, k_count)
    return (scale * root).reshape(shape + (d, d)), \
        (inv_root / scale).reshape(shape + (d, d)), low.reshape(shape)


def _fit_reducers(space, sides):
    """Block Lewis reducers for rho_A(e) = (E_A ||mats e||^power)^{1/power}
    on every atom of every level, in tiled order, and their inverses, for
    each (mats, mats_inv, power) of ``sides``; mats_inv holds the inverses
    of the leaf matrices.

    Computed once per distinct leaf range (atoms persisting across levels
    share the same norm); single-leaf atoms are exactly ellipsoidal and
    skip the fit. The other ranges of all sides go through one
    ``_lewis_fit`` call, whose atoms each stop on their own within
    FIT_ROUNDS rounds. Returns a list of (atom_base[-1], d, d) reducers,
    a list of their inverses and, per side, the certificate {"low": the
    smallest proved ratio alpha / beta, "high": 1.0}: every atom's reducer
    satisfies ||A e|| <= rho(e) <= ||A e|| / low.
    """
    starts = np.concatenate([off[:-1] for off in space.offsets])
    stops = np.concatenate([off[1:] for off in space.offsets])
    single = stops - starts == 1
    # a single-leaf atom's reducer is its leaf matrix, and its inverse the
    # inverse leaf matrix; the others are fitted
    outs = [mats[starts] for mats, _, _ in sides]
    invs = [mats_inv[starts] for _, mats_inv, _ in sides]

    certs = [{"low": 1.0, "high": 1.0} for _ in sides]
    multi = np.flatnonzero(~single)
    if multi.size:
        _, first, inverse = np.unique(
            starts[multi] * (space.n_leaves + 1) + stops[multi],
            return_index=True, return_inverse=True)
        fitted, fitted_inv, lows = _lewis_fit(
            space.leaf_probs, starts[multi[first]], stops[multi[first]],
            sides, FIT_ROUNDS)
        for out, inv, fit, fit_inv, cert, low in zip(
                outs, invs, fitted, fitted_inv, certs, lows):
            out[multi] = fit[inverse]
            inv[multi] = fit_inv[inverse]
            cert["low"] = float(low.min())
    return outs, invs, certs


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


def build_reducing_pair(space, W, p):
    """Reducing pair of (space, W, p) on every level.

    Exact where the norm balls are ellipsoids: the scalar formulas for
    d = 1 (method "scalar"), and primal (E_n W)^{1/2}, dual
    (E_n W^{-1})^{1/2} for p = 2 (method "exact_p2"); neither carries a
    certificate. Otherwise the block Lewis fit of the primal and dual
    sides together (method "ellipsoid"), whose certificate is proved: each
    atom stops once its distortion beta / alpha is at most
    d^{|1/2 - 1/p|} (1 + FIT_TOL) (the same bound for p and p'), and a fit
    that has not after FIT_ROUNDS rounds raises EllipsoidError."""
    W = as_weight(W)
    if W.n_leaves != space.n_leaves:
        raise ValidationError("weight and space disagree on the leaf count")
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
            space, [(wp, wm, p), (wm, wp, q)])
        cert = {"primal": cp, "dual": cd}
        method = "ellipsoid"

    return ReducingPair(
        space=space, weight=W, p=p,
        tiled_primal=primal, tiled_dual=dual,
        tiled_primal_inv=primal_inv, tiled_dual_inv=dual_inv,
        wp=wp, wm=wm, method=method, certificate=cert)


def exchanged_pair(pair):
    """Reducing pair of the dual weight: primal and dual roles swap and the
    exponent becomes the conjugate."""
    return replace(pair, p=pair.q, tiled_primal=pair.tiled_dual,
                   tiled_dual=pair.tiled_primal,
                   tiled_primal_inv=pair.tiled_dual_inv,
                   tiled_dual_inv=pair.tiled_primal_inv,
                   wp=pair.wm, wm=pair.wp)


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
    (conjugate exponent on the dual side), with tol = CERT_TOL for the
    fitted pair and 0 for the exact ones. Report-only."""
    space, p, q, d = pair.space, pair.p, pair.q, pair.weight.dim
    tol = CERT_TOL if pair.method == "ellipsoid" else 0.0
    primal_max = float(level_means(space, reducer_norms(
        space, pair.wp, pair.tiled_primal_inv) ** p).max())
    dual_max = float(level_means(space, reducer_norms(
        space, pair.wm, pair.tiled_dual_inv) ** q).max())
    bound_p = d ** _average_bound_exponent(p) * (1.0 + tol) ** p
    bound_q = d ** _average_bound_exponent(q) * (1.0 + tol) ** q
    return {
        "primal_max": primal_max, "primal_bound": bound_p,
        "dual_max": dual_max, "dual_bound": bound_q,
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
