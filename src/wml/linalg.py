"""Small dense SPD linear algebra and Loewner ellipsoid fitting.

Everything here operates on stacks of small (d <= 6) symmetric matrices.
``jacobi_eigh`` is a batched cyclic Jacobi sweep; a matrix stops rotating
once the Frobenius mass of its off-diagonal entries, summed from their
own squares, is below 1e-14 of its norm. Jacobi is relatively accurate on
graded SPD matrices (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13,
1992), so it decomposes the matrices whose small eigenvalues, down to
``weights.EIG_CLIP_RATIO`` of the large ones, matter: the leaf matrices of
a weight at ingestion and the level means of the exact p = 2 reducers;
it also takes the Gram matrices above 3 x 3. The block Lewis fit (``weights._lewis_fit``)
decomposes matrices it has whitened itself, near I at its fixed point,
and takes them to LAPACK (``np.linalg.eigh`` and ``eigvalsh``, one
matrix at a time, so that an atom's result does not depend on its batch
mates), and the square roots of its frames from LAPACK's singular value
decomposition. The smallest sizes skip the Jacobi machinery: a 1 x 1
matrix is its own eigenvalue, ``spd_power`` of 1 x 1 matrices is an
elementwise power, and ``spectral_norm`` of 2 x 2 and 3 x 3 matrices
takes the top eigenvalue of the Gram matrix in closed form.
The powers of a weight's leaf matrices do not come from ``spd_power``
but from the spectrum ``weights.MatrixWeight`` keeps, and the inverse
reducers not from ``sym_inv`` but from the decompositions that give the
reducers; neither function has a caller in the library. Nor has
``mvee_central``, the Loewner ellipsoid fit, since the reducers come from
block Lewis weights (``weights._lewis_fit``), which sample no directions.
The three stay only because the benchmark harness traces them by name.

Every stacked matrix-vector product is ``matvec``, summed in the one order
of ``_column_sum``; every stacked Gram product a^T a is ``_gram``; every
V diag(lambda) V^T is ``_eig_compose``. Each keeps, as tests pin, the bytes
of the numpy expression it replaced, which numpy runs slowly on stacks of
small matrices: einsum for ``matvec``; a ``matmul`` of a transposed view,
1.4 to 3 times as long as from a contiguous copy, for ``_gram``; the
three-operand einsum, 2 to 3 times as long as d outer products, for
``_eig_compose``. The 3 x 3 closed form sums each diagonal for its trace,
which ``np.trace`` takes 8 to 10 times as long to do. The same idiom runs
the norm estimator's inner loop (``filtration``, ``operators._leaf_l2``,
``experiments``): ``ndarray.take`` for fancy indexing and
``np.add.reduce`` for ``np.sum``, whose wrapper adds about 2 us a call,
each with the bytes of the expression it replaced. The estimator's
operator takes the ``_columns`` of its leaf powers once a call and
multiplies through ``_matvec``, the core of ``matvec``.
"""

from __future__ import annotations

import numpy as np

# a Jacobi matrix stops rotating once its off-diagonal mass is at most
# JACOBI_TOL times its norm; the sweeps stop after JACOBI_MAX_SWEEPS
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class EllipsoidError(RuntimeError):
    """Ellipsoid fit failed; carries the achieved ratio and its bound.

    Attributes
    ----------
    achieved : float
        Worst certification or convergence ratio at abort time.
    bound : float
        The limit ``achieved`` was held to.
    """

    def __init__(self, message, achieved=np.nan, bound=np.nan):
        super().__init__(message)
        self.achieved = achieved
        self.bound = bound


def jacobi_eigh(mats):
    """Eigen-decomposition of stacked symmetric matrices by cyclic Jacobi.

    Parameters
    ----------
    mats : ndarray, shape (..., d, d)
        Symmetric matrices (symmetrized internally).

    A matrix stops rotating once its off-diagonal Frobenius mass, the root
    of the sum of the off-diagonal squares, is at most JACOBI_TOL times its
    Frobenius norm; the sweeps end when every matrix has, or after
    JACOBI_MAX_SWEEPS.

    Returns
    -------
    (vals, vecs) : eigenvalues ascending, orthonormal columns, so that
        ``mats = vecs @ diag(vals) @ vecs.T``.

    1 x 1 matrices return their entry and ones, without a sweep; the values
    are bitwise those of the batch path wherever its symmetrization
    a + a^T does not overflow.
    """
    a = np.asarray(mats, dtype=float)
    single = a.ndim == 2
    if single:
        a = a[None]
    batch_shape = a.shape[:-2]
    d = a.shape[-1]
    if a.shape[-2] != d:
        raise ValidationError(f"expected square matrices, got {a.shape[-2:]}")
    if d == 1:
        vals, vecs = a[..., 0].copy(), np.ones_like(a)
        return (vals[0], vecs[0]) if single else (vals, vecs)
    a = a.reshape(-1, d, d).copy()
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    b = a.shape[0]
    v = np.tile(np.eye(d), (b, 1, 1))

    scale = np.sqrt(np.sum(a * a, axis=(1, 2))) + 1e-300
    off_diag = ~np.eye(d, dtype=bool)
    for _ in range(JACOBI_MAX_SWEEPS):
        # from the off-diagonal squares: sum(a^2) - sum(diag^2) cancels and
        # can read 0 while the off-diagonal mass is near sqrt(eps) ||A||
        off = np.sqrt(np.sum(a[:, off_diag] ** 2, axis=1))
        # a converged matrix gets t = 0 from here on, which leaves it
        # unchanged, so its result does not depend on its batch mates
        done = off <= JACOBI_TOL * scale
        if np.all(done):
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[:, p, q]
                small = done | (np.abs(apq) <= 1e-300)
                theta = (a[:, q, q] - a[:, p, p]) / np.where(small, 1.0, 2.0 * apq)
                with np.errstate(over="ignore"):
                    t = np.where(theta >= 0.0, 1.0, -1.0) / (
                        np.abs(theta) + np.sqrt(1.0 + theta * theta))
                t = np.where(small, 0.0, t)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = (t * c)[:, None]
                c = c[:, None]
                col_p, col_q = a[:, :, p].copy(), a[:, :, q].copy()
                a[:, :, p] = c[:, 0, None] * col_p - s[:, 0, None] * col_q
                a[:, :, q] = s[:, 0, None] * col_p + c[:, 0, None] * col_q
                row_p, row_q = a[:, p, :].copy(), a[:, q, :].copy()
                a[:, p, :] = c * row_p - s * row_q
                a[:, q, :] = s * row_p + c * row_q
                vcol_p, vcol_q = v[:, :, p].copy(), v[:, :, q].copy()
                v[:, :, p] = c * vcol_p - s * vcol_q
                v[:, :, q] = s * vcol_p + c * vcol_q

    vals = np.diagonal(a, axis1=1, axis2=2).copy()
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    v = np.take_along_axis(v, order[:, None, :], axis=2)
    vals = vals.reshape(batch_shape + (d,))
    v = v.reshape(batch_shape + (d, d))
    if single:
        return vals[0], v[0]
    return vals, v


def _check_symmetric(mats, tol=1e-12, what="matrix"):
    a = np.asarray(mats, dtype=float)
    scale = np.max(np.abs(a), axis=(-1, -2), keepdims=True) + 1e-300
    asym = np.max(np.abs(a - np.swapaxes(a, -1, -2)) / scale)
    if asym > tol:
        raise ValidationError(f"{what} not symmetric (relative asymmetry {asym:.3e})")
    return a


def spd_power(mats, alpha):
    """Real power M**alpha of symmetric positive-definite matrices.

    Computed through the Jacobi eigen-decomposition; raises ValidationError
    on asymmetric or non-positive-definite input. 1 x 1 matrices are raised
    to the power entrywise, with the same positivity check and bitwise the
    values of the eigen-decomposition path, which they do not call.
    """
    a = np.asarray(mats, dtype=float)
    if a.shape[-2:] == (1, 1):
        _check_positive(a)
        return a ** alpha
    a = _check_symmetric(a, what="spd_power input")
    vals, vecs = jacobi_eigh(a)
    _check_positive(vals)
    return _eig_compose(vecs, vals ** alpha)


def _check_positive(vals):
    if np.any(vals <= 0.0):
        raise ValidationError(
            f"matrix not positive definite (min eigenvalue {np.min(vals):.3e})")


def sym_inv(mats):
    """Inverse of symmetric positive-definite matrices: ``spd_power`` at
    exponent -1."""
    return spd_power(mats, -1.0)


def spectral_norm(mats):
    """Largest singular value of (stacked) square matrices: the square root
    of the top eigenvalue of the Gram matrix M^T M.

    For 2 x 2 matrices that eigenvalue is (x + z)/2 + hypot((x - z)/2, y)
    for the Gram entries [[x, y], [y, z]], without calling ``jacobi_eigh``;
    both terms are non-negative, so the sum does not cancel. 3 x 3
    matrices take it from ``_top_eigenvalue_3x3``, also without
    ``jacobi_eigh``, and larger ones from ``jacobi_eigh``.
    """
    gram = _gram(np.asarray(mats, dtype=float))
    return np.sqrt(np.maximum(_gram_top(gram), 0.0))


def _gram(a):
    """a^T a for stacked square a, bitwise ``np.swapaxes(a, -1, -2) @ a``,
    from a C-contiguous copy of the transpose, which ``matmul`` takes
    faster than the transposed view; 1 x 1 matrices are squared
    entrywise."""
    if a.shape[-1] == 1:
        return a * a
    return np.ascontiguousarray(np.swapaxes(a, -1, -2)) @ a


def _gram_top(gram):
    """Top eigenvalue of stacked symmetric positive semi-definite Gram
    matrices, as ``spectral_norm`` takes it: in closed form at 2 x 2 and
    3 x 3, from ``jacobi_eigh`` above."""
    if gram.shape[-2:] == (2, 2):
        x, y, z = gram[..., 0, 0], gram[..., 0, 1], gram[..., 1, 1]
        return 0.5 * (x + z) + np.hypot(0.5 * (x - z), y)
    if gram.shape[-2:] == (3, 3):
        return _top_eigenvalue_3x3(gram)
    return jacobi_eigh(gram)[0][..., -1]


def _top_eigenvalue_3x3(g):
    """Largest eigenvalue of stacked symmetric 3 x 3 matrices by the
    trigonometric closed form (Smith 1961; Kopp 2008), each matrix on its
    own.

    With m the mean of the diagonal and s = ||G - m I||_F / sqrt(6), the
    matrix B = (G - m I) / s has trace 0 and the eigenvalues
    2 cos(phi + 2 pi k / 3), phi = arccos(det(B) / 2) / 3, so the top one
    of G is m + 2 s cos(phi); a multiple of I has s = 0 and top eigenvalue
    m. The top root is well conditioned in det(B) unless the top two
    eigenvalues nearly meet, where det(B) / 2 -> -1 and an error of eps in
    det(B) moves it by sqrt(eps): its derivative in h = det(B) / 2 is
    2 sin(phi) / (3 sqrt(1 - h^2)), at most about 1.2 for h >= -0.9. Below
    -0.9 the bottom eigenvalue is more than sqrt(3) from the other two and
    is taken from the closed form instead, and the top one comes from the
    compression of B to the plane orthogonal to its eigenvector
    (``_deflated_top``).
    """
    shape = g.shape[:-2]
    g = g.reshape(-1, 3, 3)
    m = (g[:, 0, 0] + g[:, 1, 1] + g[:, 2, 2]) / 3.0
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
    if np.any(near):
        top[near] = _deflated_top(
            b[near], 2.0 * np.cos(phi[near] + 2.0 * np.pi / 3.0))
    return (m + s * top).reshape(shape)


def _deflated_top(b, bottom):
    """Top eigenvalue of stacked symmetric (n, 3, 3) b whose eigenvalue
    ``bottom`` lies at least sqrt(3) below the other two.

    The rows of b - bottom I span the plane orthogonal to the bottom
    eigenvector v, so the longest cross product of two rows is v. The
    compression P b P to that plane, P = I - v v^T, has the top two
    eigenvalues of b, with mean c = tr(P b P) / 2; the entries of
    P b P - c P are small when they nearly meet, and give their half gap
    ||P b P - c P||_F / sqrt(2) without cancellation.
    """
    k = b - bottom[:, None, None] * np.eye(3)
    # row r of cand is row r + 1 of k crossed with row r + 2, formed as
    # np.cross forms it
    ring = np.concatenate([k, k[:, :2]], axis=1)
    u, w = ring[:, 1:4], ring[:, 2:5]
    cand = np.empty_like(k)
    cand[:, :, 0] = u[:, :, 1] * w[:, :, 2] - u[:, :, 2] * w[:, :, 1]
    cand[:, :, 1] = u[:, :, 2] * w[:, :, 0] - u[:, :, 0] * w[:, :, 2]
    cand[:, :, 2] = u[:, :, 0] * w[:, :, 1] - u[:, :, 1] * w[:, :, 0]
    lengths = np.sum(cand * cand, axis=2)
    rows, best = np.arange(len(b)), np.argmax(lengths, axis=1)
    v = cand[rows, best] / np.sqrt(lengths[rows, best])[:, None]
    proj = np.eye(3) - v[:, :, None] * v[:, None, :]
    pbp = proj @ b @ proj
    c = 0.5 * (pbp[:, 0, 0] + pbp[:, 1, 1] + pbp[:, 2, 2])
    gap = pbp - c[:, None, None] * proj
    return c + np.sqrt(0.5 * np.sum(gap * gap, axis=(1, 2)))


def _eig_compose(vecs, vals):
    """V diag(vals) V^T for stacked eigenvectors and eigenvalues: the outer
    products (V[:, j] vals[j]) V[:, j]^T added to zero for j = 0, 1, ...,
    as the three-operand einsum adds them, so that its bytes, signed zeros
    included, are kept."""
    scaled = vecs * vals[..., None, :]
    out = np.zeros(scaled.shape)
    for j in range(vecs.shape[-1]):
        out += scaled[..., :, j, None] * vecs[..., None, :, j]
    return out


def _column_sum(term, d):
    """term(0) + ... + term(d - 1) in the one order of every stacked
    matrix-vector product: j = 0, 1, ... except (term(0) + term(2)) +
    term(1) at d = 3. That is einsum's order, kept so that the products,
    and every value built on them, keep their bytes."""
    order = (0, 2, 1) if d == 3 else range(d)
    out = term(order[0])
    for j in order[1:]:
        out += term(j)
    return out


def matvec(mats, vecs):
    """mats @ vecs for stacked (..., d, d) mats and (..., d) vecs that
    broadcast, such as (L, d, d) against (K, L, d): the column products
    mats[..., i, j] vecs[..., j] added in ``_column_sum``'s order, at a
    fraction of einsum's cost on small broadcast stacks."""
    return _matvec(_columns(mats), vecs)


def _columns(mats):
    """The column views mats[..., :, j] of stacked (..., d, d) matrices,
    as ``_matvec`` takes them."""
    return tuple(mats[..., :, j] for j in range(mats.shape[-1]))


def _matvec(cols, vecs):
    """``matvec`` of the matrices whose ``_columns`` are ``cols``."""
    return _column_sum(lambda j: cols[j] * vecs[..., j, None], len(cols))


def _squared_norms(mats, vecs):
    """||matvec(mats, vecs)||^2, bitwise, the squares added in index order
    as ``np.linalg.norm`` adds them. The components are built one at a
    time, so no (..., d) product stack is held."""
    d = vecs.shape[-1]
    out = None
    for i in range(d):
        y = _column_sum(lambda j: mats[..., i, j] * vecs[..., j], d)
        y *= y
        out = y if out is None else np.add(out, y, out=out)
    return out


# ---------------------------------------------------------------------------
# minimum-volume enclosing ellipsoid, origin-symmetric case
# ---------------------------------------------------------------------------

def _moment(x, u):
    """Weighted second moments sum_n u_n x_n x_n^T: (b, n, d), (b, n) ->
    (b, d, d)."""
    return np.swapaxes(x * u[..., None], -1, -2) @ x


def _quad(x, s_inv):
    """Quadratic forms x_n^T S^{-1} x_n: (b, n, d), (b, d, d) -> (b, n).

    The row sum is a product with a ones vector, several times faster than
    a reduction over a last axis of length d.
    """
    y = x @ s_inv
    y *= x
    return y @ np.ones(x.shape[-1])


def _design_update(xa, ua, d, target, cap):
    """Inner solver for the D-optimal design problem on an active point set.

    Frank-Wolfe steps with away steps (Todd & Yildirim 2007) from the given
    weights, whose support must span R^d; a point of weight 0 can enter
    only by an add step. Each step changes S(u) by a rank-one term, so
    S^{-1} and g_n = x_n^T S^{-1} x_n follow by Sherman-Morrison; both are
    recomputed from u every 32 steps. A cloud with max g <= target takes no
    further step and is left exactly as it is, so each cloud's result
    depends only on that cloud. Returns (u, S, g, iterations): S is the fresh moment of
    u, g the solver's running quadratic forms.

    The weights ``ua`` are rescaled in place, and the returned u is that
    same array: a caller that needs the starting weights keeps a copy.
    """
    rows = np.arange(xa.shape[0])
    s_inv = np.linalg.inv(_moment(xa, ua))
    g = _quad(xa, s_inv)
    # away candidates are the points of positive weight: g + pen with pen 0
    # there and +inf elsewhere; a step changes the weight, and so the
    # penalty, only at its own point j, since the others are scaled by a
    # positive factor
    pen = np.where(ua > 0.0, 0.0, np.inf)
    used = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while used < cap:
            used += 1
            jmax = g.argmax(axis=1)
            gmax = g[rows, jmax]
            live = gmax > target
            if not live.any():
                break
            gm = g + pen
            jmin = gm.argmin(axis=1)
            gmin = gm[rows, jmin]
            use_add = (gmax - d) >= (d - gmin)
            j = np.where(use_add, jmax, jmin)
            gj = np.where(use_add, gmax, gmin)
            uj = ua[rows, j]
            t_add = (gj - d) / (d * (gj - 1.0))
            cap_away = uj / np.maximum(1.0 - uj, 1e-300)
            t_away = np.where(gj > 1.0, np.minimum(
                (d - gj) / (d * (gj - 1.0)), cap_away), cap_away)
            t = np.where(live, np.where(use_add, t_add, t_away), 0.0)
            sign = np.where(use_add, 1.0, -1.0)
            scale = np.where(use_add, 1.0 - t, 1.0 + t)
            ua *= scale[:, None]
            # only u_j can cross zero, by rounding on a full away step
            uj = np.maximum(ua[rows, j] + sign * t, 0.0)
            ua[rows, j] = uj
            pen[rows, j] = np.where(uj > 0.0, 0.0, np.inf)
            tot = ua.sum(axis=1)
            tot[~live] = 1.0
            ua /= tot[:, None]
            if used % 32 == 0:
                s_inv[live] = np.linalg.inv(_moment(xa[live], ua[live]))
                g[live] = _quad(xa[live], s_inv[live])
                continue
            # S <- scale S + sign t x_j x_j^T, by Sherman-Morrison; t = 0
            # leaves S^{-1} and g unchanged
            c = sign * t / scale
            v = (s_inv @ xa[rows, j][:, :, None])[:, :, 0]
            coef = c / (1.0 + c * gj)
            s_inv = (s_inv - coef[:, None, None] * v[:, :, None]
                     * v[:, None, :]) / scale[:, None, None]
            g = (g - coef[:, None] * (xa @ v[:, :, None])[:, :, 0] ** 2) \
                / scale[:, None]

    return ua, _moment(xa, ua), g, used


def _spanning_core(x):
    """Mask of d points of each (b, n, d) cloud, by pivoted Gram-Schmidt:
    take the largest residual norm, project it out of every residual, and
    repeat. The d points span R^d whenever the cloud does (Kumar &
    Yildirim 2005)."""
    b, n, d = x.shape
    rows = np.arange(b)
    res = x.copy()
    core = np.zeros((b, n), dtype=bool)
    for _ in range(min(d, n)):
        r = np.linalg.norm(res, axis=2)
        i = r.argmax(axis=1)
        core[rows, i] = True
        q = res[rows, i] / np.maximum(r[rows, i], 1e-300)[:, None]
        res -= (res @ q[:, :, None]) * q[:, None, :]
    return core


def mvee_central(points, eps=2e-3, max_iter=100_000):
    """MVEE of the symmetric hull conv(±x_i) for stacked point clouds.

    Runs Frank-Wolfe steps with away steps on a growing active subset of
    candidate contact points, verifying against the full cloud and promoting
    the worst violators until max_i x_i^T S(u)^{-1} x_i <= d (1 + eps).
    Each cloud X (n x d) is whitened once by the Cholesky factor of its
    uniform second moment X^T X / n, taken from the QR factorization
    X = Q R, which does not square the condition number: the fit runs on
    the rows of Q and maps back by R. The active set starts as the k points
    of largest whitened norm, the leverage scores of the cloud, and a
    spanning core of d of them (``_spanning_core``) starts with weight 1/d;
    the rest, like every promoted violator, enter at weight 0, so that away
    steps need not take back mass that was never needed (Kumar & Yildirim
    2005). Each solve on the active set stops at max g <= d (1 + 3 eps / 4).
    Each cloud's result depends only on that cloud, not on the other clouds
    in the call; only the ``max_iter`` budget is shared by the batch.

    Parameters
    ----------
    points : ndarray, shape (..., N, d)

    Returns
    -------
    (A, inner, A_inv) where A and its inverse A_inv have shape (..., d, d),
    both from the one final eigen-decomposition, and, per cloud,
      * ||A x_i|| <= 1 for every input point (containment, exact), and
      * gauge(e) <= inner * ||A e|| for the hull gauge,
        inner <= sqrt(d(1+eps)).

    The second bound does not rely on convergence: for any simplex weights u
    over any subset, the ellipsoid {x : x^T S(u)^{-1} x <= 1} sits inside the
    hull, since its support function sqrt(v^T S v) is dominated by
    max_i |x_i . v|.

    Raises ValidationError for a cloud that does not span R^d: fewer than
    d points, or a pivot |R_jj| of its QR factor at most N eps of the
    largest, which puts its rank below d at numpy's ``matrix_rank``
    tolerance.
    """
    x_orig = np.asarray(points, dtype=float)
    single = x_orig.ndim == 2
    if single:
        x_orig = x_orig[None]
    batch_shape = x_orig.shape[:-2]
    n, d = x_orig.shape[-2], x_orig.shape[-1]
    x_orig = x_orig.reshape(-1, n, d)
    b = x_orig.shape[0]

    target = d * (1.0 + eps)
    inner_target = d * (1.0 + 0.75 * eps)
    k = min(n, max(6 * d * (d + 1), 24))
    n_promote = min(n, max(4 * d, 8))

    # x = Q holds the whitened points, x_orig = x R. Every |R_jj| bounds the
    # smallest singular value of the cloud from above, and the largest
    # from below
    x, r = np.linalg.qr(x_orig)
    pivots = np.abs(np.diagonal(r, axis1=1, axis2=2))
    if n < d or np.any(pivots.min(axis=1)
                       <= n * np.finfo(float).eps * pivots.max(axis=1)):
        raise ValidationError(
            f"point cloud does not span R^{d}: its rank is below {d}")

    s_out = np.empty((b, d, d))
    kappa = np.full(b, np.inf)
    # active point indices and weights of the live clouds, one row each;
    # every live cloud holds the same number of active points, since all
    # start with k and each round promotes min(n_promote, n - m) into each.
    # Only the set matters, not its order, so a partition picks it
    act = np.argpartition(np.square(x) @ np.ones(d), n - k,
                          axis=1)[:, n - k:]
    core = _spanning_core(np.take_along_axis(x, act[:, :, None], axis=1))
    wts = np.where(core, 1.0 / d, 0.0)
    alive = np.arange(b)
    spent = 0
    while alive.size and spent < max_iter:
        xa = np.take_along_axis(x, act[:, :, None], axis=1)
        budget = min(4000, max_iter - spent)
        wts, s, _, used = _design_update(xa, wts, d, inner_target, budget)
        spent += used

        # certificates come from a fresh inverse of the fresh moment; each
        # round drops its quadratic forms before the next, which keeps the
        # peak at three (b, n, d) arrays with the input cloud and _quad's
        # product
        g_alive = _quad(x, np.linalg.inv(s))
        kap = g_alive.max(axis=1)
        r_alive = r[alive]
        s_out[alive] = np.swapaxes(r_alive, 1, 2) @ s @ r_alive
        kappa[alive] = kap

        still = kap > target
        alive, act, wts, g_alive = alive[still], act[still], wts[still], \
            g_alive[still]
        if not still.all():
            x = x[still]
        m = act.shape[1]
        n_new = min(n_promote, n - m)
        if n_new:
            np.put_along_axis(g_alive, act, -np.inf, axis=1)
            # the worst violators enter at weight 0, the others unchanged
            new = np.argpartition(g_alive, n - n_new, axis=1)[:, n - n_new:]
            act = np.concatenate([act, new], axis=1)
            wts = np.concatenate([wts, np.zeros(new.shape)], axis=1)
        del g_alive

    if alive.size:
        raise EllipsoidError(
            f"ellipsoid fit did not converge within {max_iter} iterations "
            f"(max normalized support {np.max(kappa[alive]) / d:.6f}, "
            f"target {1 + eps})",
            achieved=float(np.max(kappa[alive]) / d), bound=1.0 + eps)

    vals, vecs = jacobi_eigh(s_out)
    vals = np.maximum(vals, 1e-300)
    vecs_t = np.swapaxes(vecs, 1, 2)
    inv_sqrt = (vecs / np.sqrt(vals)[:, None, :]) @ vecs_t
    # normalize against the input cloud itself: the whitened kappa is off by
    # the conditioning of the whitening
    y = x_orig @ inv_sqrt
    np.square(y, out=y)
    kappa = np.max(y @ np.ones(d), axis=1)
    inner = np.sqrt(kappa)
    a = inv_sqrt / inner[:, None, None]
    a_inv = (vecs * np.sqrt(vals)[:, None, :]) @ vecs_t * inner[:, None, None]
    a = a.reshape(batch_shape + (d, d))
    a_inv = a_inv.reshape(batch_shape + (d, d))
    inner = inner.reshape(batch_shape)
    if single:
        return a[0], float(inner[0]), a_inv[0]
    return a, inner, a_inv
