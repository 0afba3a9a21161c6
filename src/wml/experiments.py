"""Instance generators, operator-norm estimators and exponent sweeps.

The sweep machinery probes how the square-function operator norm scales
with the A_p characteristic: designed weight families push the
characteristic up a parameter direction, a norm estimator lower-bounds the
operator ratio per instance, and a log-log regression extracts the
empirical exponent. Scalar targets use max(1/2, 1/(p-1)); matrix targets
max(1/2 + 1/(p(p-1)), 1/(p-1)).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .filtration import (_check_finite, _increment_adjoint, _lp_norm,
                         _martingale, build_dyadic)
from .linalg import (EllipsoidError, ValidationError, _columns, _eig_compose,
                     _matvec)
from .operators import _leaf_l2
from .weights import (MatrixWeight, ap_characteristic, as_weight,
                      build_reducing_pair, check_exponent)


def scalar_target_exponent(p):
    """Reference exponent for scalar weights: max(1/2, 1/(p-1))."""
    return max(0.5, 1.0 / (p - 1.0))


def matrix_target_exponent(p):
    """Reference exponent for matrix weights:
    max(1/2 + 1/(p(p-1)), 1/(p-1))."""
    return max(0.5 + 1.0 / (p * (p - 1.0)), 1.0 / (p - 1.0))


def check_family_point(family, dim, depth, alpha, eps):
    """Refuse a (depth, alpha, eps) point that the weight family cannot
    build: every family needs depth >= 1 and eps > 0, the power weight
    alpha > -1 and the rotating weight d in {2, 3}."""
    if not depth >= 1:
        raise ValidationError("depth must be >= 1")
    if not eps > 0.0:
        raise ValidationError("eps must be positive")
    if family == "power" and not alpha > -1.0:
        raise ValidationError("alpha must exceed -1")
    if family == "rotating" and dim not in (2, 3):
        raise ValidationError("rotating weights support d in {2, 3}")


def power_weight(depth, alpha, eps):
    """Dyadic space with w(x) = (x + eps)^alpha at leaf midpoints of [0, 1),
    normalized to mean one. The characteristic grows as eps decreases."""
    check_family_point("power", 1, depth, alpha, eps)
    space = build_dyadic(depth)
    x = (np.arange(space.n_leaves) + 0.5) / space.n_leaves
    w = (x + eps) ** alpha
    w = w / float(np.sum(space.leaf_probs * w))
    return space, as_weight(w)


def _rotations(x, dim):
    """Per point of x a rotation of R^dim, dim 2 or 3."""
    if dim == 2:
        c, s = np.cos(2.0 * np.pi * x), np.sin(2.0 * np.pi * x)
        r = np.zeros((x.size, 2, 2))
        r[:, 0, 0], r[:, 0, 1] = c, -s
        r[:, 1, 0], r[:, 1, 1] = s, c
        return r
    a, b = 2.0 * np.pi * x, np.pi * x
    ca, sa, cb, sb = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
    rz = np.zeros((x.size, 3, 3))
    rz[:, 0, 0], rz[:, 0, 1], rz[:, 1, 0], rz[:, 1, 1] = ca, -sa, sa, ca
    rz[:, 2, 2] = 1.0
    ry = np.zeros((x.size, 3, 3))
    ry[:, 0, 0], ry[:, 0, 2], ry[:, 2, 0], ry[:, 2, 2] = cb, sb, -sb, cb
    ry[:, 1, 1] = 1.0
    return rz @ ry


def rotating_weight(depth, dim, alpha, eps):
    """Matrix analogue of the power weight: eigenvalues (x + eps)^{+-alpha}
    (and 1 for d = 3) in a leaf-dependent rotating eigenbasis, so reducers
    are genuinely non-commuting; the determinant stays exactly 1."""
    check_family_point("rotating", dim, depth, alpha, eps)
    space = build_dyadic(depth)
    x = (np.arange(space.n_leaves) + 0.5) / space.n_leaves
    lam = np.empty((space.n_leaves, dim))
    lam[:, 0] = (x + eps) ** alpha
    lam[:, 1] = (x + eps) ** (-alpha)
    if dim == 3:
        lam[:, 2] = 1.0
    r = _rotations(x, dim)
    return space, MatrixWeight(_eig_compose(r, lam))


# ---------------------------------------------------------------------------
# operator-norm estimators
# ---------------------------------------------------------------------------

# relative gap between the ratio and Boyd's upper value at which a start stops
BOYD_TOL = 1e-12


@dataclass
class AscentResult:
    ratio: float
    witness: np.ndarray
    iterations: int
    restarts: int
    converged: bool


class _Operator:
    """T f = (W^{1/p} d_k W^{-1/p} f)_k on one space for the MatrixWeight
    W, with the adjoint step of its gradient. ``opnorm_ascent`` builds one
    a call, so W^{1/p}, W^{-1/p} and W^{2/p} = W^{1/p} W^{1/p} are formed
    and their columns sliced once, and every iteration goes straight to
    the array cores of ``filtration.martingale_of`` and
    ``increment_adjoint``; the space keeps the adjoint's index.

    Nothing here enters a numpy error state: the caller does, once.
    """

    def __init__(self, space, W, p):
        self.space, self.probs = space, space.leaf_probs
        wp = W.power(1.0 / p)
        # each leaf power as the column stacks that ``_matvec`` takes
        self.wp, self.wm, self.w2p = (_columns(a) for a in (
            wp, W.power(-1.0 / p), wp @ wp))

    def point(self, f):
        """(increments of g = W^{-1/p} f, S_W f): what both the ratio and
        the gradient need at the (L, d) function f, as a (D, L, d) stack
        and (L,) values. An f with a non-finite entry is refused."""
        _check_finite(f)
        diffs = _martingale(self.space, _matvec(self.wm, f))[1]
        return diffs, _leaf_l2(_matvec(self.wp, diffs))

    def adjoint(self, diffs, spow):
        """W^{-1/p} T0* (spow W^{2/p} d) for the increments d of a point
        and per-leaf factors spow, with T0* the increment adjoint."""
        return _matvec(self.wm, _increment_adjoint(
            self.space, spow[:, None] * _matvec(self.w2p, diffs)))

    def gradient(self, p, point):
        """Gradient (in the probability inner product) of ||S_W f||_p^p at
        ``point(f)``: p T* J_p(T f) with J_p(y) = |y|^{p-2} y, together
        with ||S_W f||_p^p. A leaf where S_W f is 0 takes 0 for the
        infinite 0 ** (p - 2) of p < 2."""
        diffs, s = point
        spow = np.where(s > 1e-300, s ** (p - 2.0), 0.0)
        return (p * self.adjoint(diffs, spow),
                float(np.add.reduce(self.probs * s ** p)))


def _boyd(op, p, f, max_iter):
    """Boyd's p-norm power method for the ``_Operator`` T from the (L, d)
    start f, within ``max_iter`` iterations (Boyd, Linear Algebra Appl. 9,
    1974; Higham, Numer. Math. 62, 1992).

    An iteration builds one martingale and one increment adjoint and maps
    f to J_{p'}(T* J_p(T f)) normalized in L^p. Hölder gives ratio(f) <=
    gamma = ||T* J_p(T f)||_{p'} / ||T f||_p^{p-1} <= ratio(next f), so
    the start stops once gamma - ratio <= BOYD_TOL gamma. A start with
    T f = 0 lies in the null space, where the ratio is 0 and no step is
    defined: it stops at once.

    Returns (f, ratio of f, iterations, converged) for the last evaluated
    f; ``converged`` is False when the budget ran out first.
    """
    space, q = op.space, p / (p - 1.0)
    for iters in range(1, max_iter + 1):
        grad, phi = op.gradient(p, op.point(f))
        norm = phi ** (1.0 / p)
        ratio = norm / _lp_norm(space, f, p)
        if norm == 0.0:
            return f, ratio, iters, True
        gmag = np.sqrt(np.add.reduce(grad * grad, axis=1))
        gamma = _lp_norm(space, gmag, q) / (p * norm ** (p - 1.0))
        converged = gamma - ratio <= BOYD_TOL * gamma
        if converged or iters == max_iter:
            return f, ratio, iters, converged
        f = gmag[:, None] ** ((2.0 - p) / (p - 1.0)) * grad
        f /= _lp_norm(space, f, p)


def _lanczos_top(op, f, max_steps):
    """L2 top right singular vector of the ``_Operator`` T: the top
    eigenvector of A = T*T, which is self-adjoint in
    <f, h> = sum_l P(l) f(l).h(l), by at most ``max_steps`` >= 1 Lanczos
    steps from the (L, d) start f (Kuczynski and Wozniakowski, SIAM J.
    Matrix Anal. Appl. 13, 1992).

    A step applies A once through ``op.point`` / ``op.adjoint``, one
    martingale and one increment adjoint on d columns, and takes
    alpha = ||T q||^2 from the square function. The new vector is fully
    reorthogonalized against the basis, which grows by one row a step, in
    two products. The tridiagonal is filled in place, in a zero array of at
    most 16 rows that doubles when the solve outgrows it, and each step
    solves its leading block. The solve stops once the Ritz residual
    |beta_k s_k| is at most sqrt(2 BOYD_TOL) theta: for a unit Ritz vector
    that is Boyd's exponent-2 test gamma - ratio <= BOYD_TOL gamma to
    first order. It also stops at breakdown (beta = 0), where the Krylov
    space is invariant, and after ``max_steps`` steps. Returns (Ritz
    vector of the top Ritz value theta, unit in L2(P), as (L, d); steps
    taken).
    """
    shape, probs = f.shape, op.probs
    weights = np.repeat(probs, shape[1])
    ones = np.ones(shape[0])
    tol = math.sqrt(2.0 * BOYD_TOL)
    q = f.ravel()
    basis = (q / math.sqrt(float(np.add.reduce(weights * q * q))))[None]
    # the tridiagonal of the first ``steps`` steps is tri[:steps, :steps]
    tri = np.zeros((min(max_steps, 16),) * 2)
    for steps in range(1, max_steps + 1):
        k = steps - 1
        q = basis[-1]
        diffs, s = op.point(q.reshape(shape))
        v = op.adjoint(diffs, ones).ravel()
        alpha = tri[k, k] = float(np.add.reduce(probs * s * s))
        v -= alpha * q
        if k:
            v -= tri[k, k - 1] * basis[-2]
        v -= (basis @ (weights * v)) @ basis
        beta = math.sqrt(float(np.add.reduce(weights * v * v)))
        vals, vecs = np.linalg.eigh(tri[:steps, :steps])
        top = vecs[:, -1]
        if (beta * abs(top[-1]) <= tol * vals[-1] or beta == 0.0
                or steps == max_steps):
            break
        if steps == len(tri):
            tri = np.pad(tri, (0, min(steps, max_steps - steps)))
        tri[k, steps] = tri[steps, k] = beta
        basis = np.vstack([basis, v / beta])
    return (top @ basis).reshape(shape), steps


def _ascent_start(op, p, f, max_iter):
    """One start of the projected ascent on the unit sphere of L_p along
    the normalized gradient of log ||S_W f||_p^p - log ||f||_p^p. It stops
    when S_W f vanishes, at a gradient norm <= 1e-12, or when no step
    raises the ratio by 1e-12 relative. Returns (f, ratio, iterations,
    converged); ``converged`` is False after ``max_iter`` iterations."""

    def ratio_of(f):
        """||S_W f||_p / ||f||_p and the ascent point it was computed from."""
        point = op.point(f)
        return _lp_norm(space, point[1], p) / _lp_norm(space, f, p), point

    space, probs = op.space, op.probs
    f /= _lp_norm(space, f, p)
    cur, point = ratio_of(f)
    step = 0.5
    for iters in range(1, max_iter + 1):
        grad_phi, phi = op.gradient(p, point)
        fmag = np.linalg.norm(f, axis=1)
        grad_psi = p * np.where(fmag > 1e-300, fmag ** (p - 2.0), 0.0)[:, None] * f
        psi = float(np.sum(probs * fmag ** p))
        if phi <= 1e-300:
            break
        direction = grad_phi / phi - grad_psi / psi
        dnorm = math.sqrt(float(np.sum(probs[:, None] * direction ** 2)))
        if dnorm <= 1e-12:
            break
        direction /= dnorm
        improved = False
        while step > 1e-10:
            cand = f + step * direction
            cand /= _lp_norm(space, cand, p)
            val, cand_point = ratio_of(cand)
            if val > cur * (1.0 + 1e-12):
                f, cur, point = cand, val, cand_point
                improved = True
                step = min(step * 2.0, 1.0)
                break
            step *= 0.5
        if not improved:
            break
    else:
        return f, cur, iters, False
    return f, cur, iters, True


def opnorm_ascent(space, W, p, restarts=4, seed=0, max_iter=200):
    """Lower bound on sup_f ||S_W f||_p / ||f||_p from seeded random starts.

    For 1 < p <= 2 one start runs, and the result reports ``restarts`` 1.
    It goes from its seeded random draw to the L2 top singular vector of T
    f = (W^{1/p} d_k W^{-1/p} f)_k: a Lanczos solve (``_lanczos_top``;
    Kuczynski and Wozniakowski, SIAM J. Matrix Anal. Appl. 13, 1992) of at
    most ``max_iter`` - 1 steps. From that Ritz vector Boyd's p-norm power
    method (``_boyd``) runs at p with the rest of the budget. At p = 2 the
    norm is the top singular value of T, which the solve reaches from any
    draw not orthogonal to its singular vector. Below p = 2, on 217 sweep
    points at p in [1.05, 1.9], d in {1, 2, 3} and depths 4-12, the best
    of 3, 4 or 8 random starts beat this one by at most 1.42e-12 relative,
    the size of BOYD_TOL itself.

    For p > 2 each of the ``restarts`` starts runs the projected gradient
    ascent (``_ascent_start``): from the same starts the power method ends
    lower there on most tested points.

    Every start applies T through one ``_Operator``, built here, and the
    whole call runs under one ``np.errstate`` that ignores overflow and
    division by zero; a start with a non-finite entry is refused.

    Returns an AscentResult carrying the witness; recomputing the ratio
    from the witness reproduces the reported value. ``iterations`` counts
    the iterations of all starts, each at most ``max_iter``; at p <= 2 the
    count includes the Lanczos steps. ``converged`` is False when any
    start used up ``max_iter`` before its stopping rule.
    For p <= 2 that rule is Hölder's inequality holding with equality to
    BOYD_TOL relative, which makes f a fixed point of the iteration and a
    stationary point of the ratio (not necessarily its maximum); for p > 2
    it is one of ``_ascent_start``'s stops. p must lie in (1, inf).
    """
    check_exponent(p)
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    if max_iter < 1:
        raise ValidationError("max_iter must be >= 1")
    W = as_weight(W)
    op = _Operator(space, W, p)
    rng = np.random.default_rng(seed)
    # 0 ** (p - 2) divides by zero below p = 2, and at large p the norms'
    # p-th powers overflow before they are rescaled: both are handled
    with np.errstate(over="ignore", divide="ignore"):
        if p <= 2.0:
            f, steps = rng.standard_normal((space.n_leaves, W.dim)), 0
            if max_iter > 1:
                f, steps = _lanczos_top(op, f, max_iter - 1)
            f, ratio, iters, converged = _boyd(op, p, f, max_iter - steps)
            return AscentResult(ratio, f, steps + iters, 1, converged)
        best = AscentResult(0.0, None, 0, restarts, True)
        for _ in range(restarts):
            f, ratio, iters, converged = _ascent_start(
                op, p, rng.standard_normal((space.n_leaves, W.dim)),
                max_iter)
            best.iterations += iters
            best.converged = best.converged and converged
            if ratio > best.ratio:
                best.ratio, best.witness = ratio, f
        return best


class DegenerateFitError(ValidationError):
    """An exponent fit over characteristics that do not vary."""


def exponent_fit(points):
    """Least-squares fit of log(ratio) against log(ap_char).

    Returns (slope, intercept, stderr of the slope); needs >= 3 points with
    positive coordinates and non-degenerate x variance (DegenerateFitError
    otherwise).
    """
    pts = [(float(a), float(r)) for a, r in points]
    if len(pts) < 3:
        raise ValidationError("exponent fit needs at least 3 points")
    if any(a <= 0.0 or r <= 0.0 for a, r in pts):
        raise ValidationError("exponent fit needs positive characteristics and ratios")
    x = np.log([a for a, _ in pts])
    y = np.log([r for _, r in pts])
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx <= 1e-30 * max(1.0, float(np.sum(x * x))):
        raise DegenerateFitError("degenerate characteristic variance in fit")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(len(pts) - 2, 1)
    stderr = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    return slope, intercept, stderr


def sweep_fit(points):
    """The {"slope", "intercept", "stderr", "n"} record of a sweep's
    (ap_char, ratio) points. A flat family, whose characteristics all
    coincide, gets slope 0 and the mean log ratio as intercept."""
    points = list(points)
    try:
        slope, intercept, stderr = exponent_fit(points)
    except DegenerateFitError:
        slope, stderr = 0.0, 0.0
        intercept = float(np.mean(np.log([max(r, 1e-300) for _, r in points])))
    return {"slope": slope, "intercept": intercept, "stderr": stderr,
            "n": len(points)}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    family: str = "power"            # "power" or "rotating"
    p: float = 2.0
    d: int = 1
    depths: tuple = (6, 8, 10)
    alphas: tuple = (0.4, 0.6, 0.8, 0.95)
    epss: tuple | None = (0.25, 0.015625)   # None: 2^-depth, the leaf width
    restarts: int = 4                # ascent starts at p > 2; p <= 2 runs one
    seed: int = 0

    def __post_init__(self):
        """Refuse a config that no grid point could run, or with a point
        that its weight family cannot build, before any point runs."""
        if self.restarts < 1:
            raise ValidationError(
                f"restarts must be >= 1, got {self.restarts}")
        check_exponent(self.p)
        if self.seed < 0:
            raise ValidationError(
                f"seed must be a non-negative integer, got {self.seed}")
        if self.family not in ("power", "rotating"):
            raise ValidationError(f"unknown weight family {self.family!r}")
        if self.family == "power" and self.d != 1:
            raise ValidationError("power family is scalar (d = 1)")
        if not self.grid():
            raise ValidationError("sweep grid is empty")
        for point in self.grid():
            check_family_point(self.family, self.d, *point)

    def grid(self):
        return [(depth, alpha, eps) for depth in self.depths
                for alpha in self.alphas
                for eps in ((2.0 ** -depth,) if self.epss is None
                            else self.epss)]


@dataclass(frozen=True)
class SweepRecord:
    instance_id: str
    family: str
    p: float
    d: int
    depth: int
    alpha: float
    eps: float
    ap_char: float
    ratio: float
    iterations: int
    restarts: int
    converged: bool
    seconds: float   # diagnostics only; never written to the deterministic CSV

    CSV_FIELDS = ("instance_id", "family", "p", "d", "depth", "alpha", "eps",
                  "ap_char", "ratio", "iterations", "restarts", "converged")


class SweepPointError(RuntimeError):
    """A sweep point whose reducer fit did not certify; carries the
    point's ``instance_id`` and the ``reason``. An estimator that uses up
    its iterations is no failure: its record says ``converged`` False."""

    def __init__(self, instance_id, reason):
        super().__init__(instance_id, reason)
        self.instance_id, self.reason = instance_id, reason

    def __str__(self):
        return f"{self.instance_id}: {self.reason}"


def build_family_instance(config, depth, alpha, eps):
    if config.family == "power":
        return power_weight(depth, alpha, eps)
    return rotating_weight(depth, config.d, alpha, eps)


def sweep_point(config, index, depth, alpha, eps):
    """SweepRecord of one grid point; its ratio, iterations, restarts and
    flag are those of ``opnorm_ascent``. A reducer fit that does not
    certify (EllipsoidError) raises SweepPointError naming the point."""
    t0 = time.perf_counter()
    instance_id = (f"{config.family}-p{config.p:g}-d{config.d}"
                   f"-D{depth}-a{alpha:g}-e{eps:g}")
    space, W = build_family_instance(config, depth, alpha, eps)
    seed = int(np.random.SeedSequence([config.seed, index]).generate_state(1)[0])
    try:
        ap = ap_characteristic(build_reducing_pair(space, W, config.p))
    except EllipsoidError as exc:
        raise SweepPointError(instance_id, str(exc)) from exc
    res = opnorm_ascent(space, W, config.p, restarts=config.restarts,
                        seed=seed)
    return SweepRecord(
        instance_id=instance_id,
        family=config.family, p=config.p, d=config.d, depth=depth,
        alpha=alpha, eps=eps, ap_char=ap, ratio=res.ratio,
        iterations=res.iterations, restarts=res.restarts,
        converged=res.converged, seconds=time.perf_counter() - t0)


def run_sweep(config, parallel=1):
    """All sweep records for the config grid, in deterministic grid order,
    plus their sweep_fit. ``parallel`` > 1 runs the points in a
    spawn-context process pool; the records are the same."""
    grid = config.grid()
    if parallel > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(
                max_workers=parallel,
                mp_context=multiprocessing.get_context("spawn")) as ex:
            records = list(ex.map(
                _sweep_point_star,
                [(config, i, *point) for i, point in enumerate(grid)]))
    else:
        records = [sweep_point(config, i, *point) for i, point in enumerate(grid)]
    return records, sweep_fit((r.ap_char, r.ratio) for r in records)


def _sweep_point_star(args):
    return sweep_point(*args)
