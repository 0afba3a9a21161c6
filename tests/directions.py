"""Unit directions for dense reference samples of norm balls.

The library samples no directions: its reducers come from block Lewis
weights with proved constants. The tests compare reducers and Loewner
ellipsoids against norms evaluated on these fixed, seeded samples.
"""

import numpy as np

DIRECTION_COUNTS = {1: 1, 2: 360, 3: 2048}
DEFAULT_DIRECTIONS_HIGH_D = 8192


def direction_set(dim, n=None, seed=0):
    """Unit directions used to sample a norm ball boundary.

    A norm takes the same value on u and -u, so only the axis of a
    direction matters. dim 2 takes one direction per axis, the angles
    pi k / n on the half circle; dim 3 a Fibonacci sphere, higher dims a
    seeded uniform sample.
    """
    if n is None:
        n = DIRECTION_COUNTS.get(dim, DEFAULT_DIRECTIONS_HIGH_D)
    if dim == 1:
        return np.ones((1, 1))
    if dim == 2:
        ang = np.pi * np.arange(n) / n
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if dim == 3:
        k = np.arange(n) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / n)
        golden = np.pi * (1.0 + np.sqrt(5.0))
        theta = golden * k
        return np.stack([np.sin(phi) * np.cos(theta),
                         np.sin(phi) * np.sin(theta),
                         np.cos(phi)], axis=1)
    return holdout_directions(dim, n, seed)


def holdout_directions(dim, n=1000, seed=1234):
    """Seeded random unit directions, drawn independently of any fit."""
    if dim == 1:
        return np.ones((1, 1))
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)
