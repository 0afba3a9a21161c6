"""The per-instance analysis context.

Every check of an instance (space, W, p, f) with reducing pair is built
from the same few quantities of g = W^{-1/p} f: its martingale, the
reducer-normalized level averages E_n ||dual_n^{-1} g||, the fluctuation
tables of the stopping times and the increments conjugated by W^{1/p}. An
``Analysis`` computes g and its martingale once and each of the others the
first time it is asked for, so that the checks share them. The fluctuation
tables of all base levels come from one ``fluctuation_tables`` call, and
the table of one base is a view of its row. The per-set terms of the
sparse operator read these averages and the pair's table of
||W^{1/p} dual_n||, which is built once per pair.
"""

from __future__ import annotations

import numpy as np

from .filtration import level_means, martingale_of
from .linalg import ValidationError, _squared_norms, matvec
from .operators import _leaf_l2
from .principal import fluctuation_table, fluctuation_tables


class Analysis:
    """Derived quantities of the leaf function f under a reducing pair.

    The pair carries the space, the weight and p. f has shape (L, d); for
    d = 1 an (L,) array is accepted as well.
    """

    def __init__(self, pair, f):
        self.pair = pair
        self.space, self.weight, self.p = pair.space, pair.weight, pair.p
        arr = np.asarray(f, dtype=float)
        expected = (self.space.n_leaves, self.weight.dim)
        if arr.ndim == 1 and expected[1] == 1:
            arr = arr[:, None]
        if arr.shape != expected:
            raise ValidationError(
                f"leaf function must have shape (L, d) = {expected}, "
                f"got {np.shape(f)}")
        self.f = arr
        self.g = matvec(pair.wm, arr)
        self.mart = martingale_of(self.space, self.g)
        self._cache = {}

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def dual_inv(self):
        """(D + 1, L, d, d) inverse dual reducer of each leaf's atom at
        every level."""
        return self._cached("dual_inv", lambda: self.pair.tiled_dual_inv[
            self.space.tiled_labels])

    def level_averages(self):
        """E_n ||dual_n^{-1} g|| on every atom of every level n, in the tiled
        order of the space."""
        return self._cached("averages", lambda: level_means(
            self.space, np.sqrt(_squared_norms(self.dual_inv(), self.g))))

    def level_average(self, n):
        """Per level-n atom: E_n ||dual_n^{-1} g||."""
        base = self.space.atom_base
        return self.level_averages()[base[n]:base[n + 1]]

    def tables(self):
        """FluctuationTable of g at every base level, from one
        ``fluctuation_tables`` call."""
        return self._cached("tables", lambda: fluctuation_tables(
            self.space, self.mart, self.dual_inv(), self.level_averages()))

    def table(self, base):
        """FluctuationTable of g relative to the base level: a view of row
        ``base`` of ``tables()``."""
        return self._cached(("table", base), lambda: fluctuation_table(
            self.space, self.tables(), base))

    def conjugated(self, mode="increments"):
        """(K, L, d) increments of g conjugated by W^{1/p}; under the mode
        "first_value" the k = 1 entry is the level-1 value g_1 instead of
        d_1 g = g_1 - g_0."""
        if mode not in ("increments", "first_value"):
            raise ValidationError(f"unknown square-function mode {mode!r}")
        return self._cached(("conjugated", mode), lambda: matvec(
            self.pair.wp, self.mart.diffs if mode == "increments"
            else self.mart.first_value_diffs()))

    def square(self, mode="increments"):
        """Weighted square function S_W f per leaf."""
        return self._cached(("square", mode),
                            lambda: _leaf_l2(self.conjugated(mode)))

    def increment_norms(self):
        """(D, L) array of ||W^{1/p}(l) d_k g(l)|| for k = 1..D."""
        return self._cached("increment_norms", lambda: np.linalg.norm(
            self.conjugated(), axis=2))

    def set_term(self, kappa2, leaves):
        """Per entry of ``leaves`` (a union of level-kappa2 atoms) the sparse
        term ||W^{1/p}(l) dual_{k2}|| E_{k2} ||dual_{k2}^{-1} g||, read from
        the pair's table of ||W^{1/p} dual_n||."""
        atom_of = self.space.labels[kappa2][leaves]
        return self.pair.dual_norms[kappa2, leaves] \
            * self.level_average(kappa2)[atom_of]
