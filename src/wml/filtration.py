"""Finite filtered probability spaces and martingales.

A space is a refining sequence of partitions (levels 0..D) of a finite leaf
set. Leaves are ordered so that every atom of every level is a contiguous
leaf range; a level is stored as the array of range offsets. Level 0 is the
trivial partition {Omega}; level D separates all leaves. Atoms may persist
unchanged across several levels (chains), so arbitrary branching trees are
representable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError

PROB_TOL = 1e-12


@dataclass(frozen=True)
class FilteredSpace:
    """Refining partition tree with atom probabilities.

    Attributes
    ----------
    depth : number of refinement steps D (levels run 0..D).
    leaf_probs : (L,) positive, summing to 1.
    offsets : per level, int array of atom boundaries into the leaf axis;
        level n has ``len(offsets[n]) - 1`` atoms, atom a covering leaves
        ``offsets[n][a]:offsets[n][a + 1]``.

    Built once per space, the level index runs all levels in one pass over
    the leaf axis tiled D + 1 times (copy n holds level n): ``tiled_starts``
    are the atom starts of every level on that axis, ``tiled_atom_probs``
    the atom probabilities in the same order, and level n owns entries
    ``atom_base[n]:atom_base[n + 1]`` of both. ``labels`` is the (D + 1, L)
    array of per-level atom numbers and ``tiled_labels`` the position of
    each (level, leaf) atom in the tiled index, ``labels`` shifted by
    ``atom_base``; ``atom_of_leaf[n]`` is row n of ``labels`` and
    ``atom_probs[n]`` a slice of ``tiled_atom_probs``.
    """

    depth: int
    leaf_probs: np.ndarray
    offsets: tuple

    def __post_init__(self):
        if self.depth < 1:
            raise ValidationError("depth must be >= 1")
        probs = np.asarray(self.leaf_probs, dtype=float)
        n_leaves = probs.shape[0]
        if probs.ndim != 1 or n_leaves < 1:
            raise ValidationError("leaf_probs must be a 1-d array")
        if np.any(probs <= 0.0):
            raise ValidationError("every atom must have positive probability")
        if abs(probs.sum() - 1.0) > PROB_TOL:
            raise ValidationError(
                f"leaf probabilities sum to {probs.sum()!r}, expected 1")
        if len(self.offsets) != self.depth + 1:
            raise ValidationError("need one offset array per level 0..D")
        prev = None
        for n, off in enumerate(self.offsets):
            off = np.asarray(off)
            if off[0] != 0 or off[-1] != n_leaves or np.any(np.diff(off) <= 0):
                raise ValidationError(f"level {n} offsets malformed")
            if prev is not None and not np.isin(prev, off).all():
                raise ValidationError(f"level {n} does not refine level {n - 1}")
            prev = off
        if len(self.offsets[0]) != 2:
            raise ValidationError("level 0 must be the single atom Omega")
        if len(self.offsets[-1]) != n_leaves + 1:
            raise ValidationError("level D atoms must be the leaves")
        probs.setflags(write=False)
        object.__setattr__(self, "leaf_probs", probs)
        object.__setattr__(self, "offsets", tuple(
            np.asarray(o, dtype=np.intp) for o in self.offsets))
        atom_base = np.cumsum([0] + [len(o) - 1 for o in self.offsets])
        tiled_starts = np.concatenate([
            off[:-1] + n * n_leaves for n, off in enumerate(self.offsets)])
        marks = np.zeros((self.depth + 1) * n_leaves, dtype=np.intp)
        marks[tiled_starts] = 1
        labels = np.cumsum(marks.reshape(self.depth + 1, n_leaves), axis=1) - 1
        tiled_labels = labels + atom_base[:-1, None]
        tiled_atom_probs = np.add.reduceat(np.tile(probs, self.depth + 1),
                                           tiled_starts)
        for a in (atom_base, tiled_starts, labels, tiled_labels,
                  tiled_atom_probs):
            a.setflags(write=False)
        for name, value in (
                ("atom_base", atom_base), ("tiled_starts", tiled_starts),
                ("labels", labels), ("tiled_labels", tiled_labels),
                ("tiled_atom_probs", tiled_atom_probs),
                ("atom_probs", tuple(
                    tiled_atom_probs[atom_base[n]:atom_base[n + 1]]
                    for n in range(self.depth + 1))),
                ("atom_of_leaf", tuple(labels))):
            object.__setattr__(self, name, value)

    @property
    def n_leaves(self):
        return self.leaf_probs.shape[0]

    def n_atoms(self, n):
        return len(self.offsets[n]) - 1

    def expand(self, n, atom_values):
        """Broadcast per-atom values at level n back to the leaf axis."""
        return np.asarray(atom_values)[self.atom_of_leaf[n]]


def _leaf_array(space, f):
    arr = np.asarray(f, dtype=float)
    if arr.shape[0] != space.n_leaves or arr.ndim > 2:
        raise ValidationError(
            f"leaf function has shape {arr.shape}, expected ({space.n_leaves}, d)")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("leaf function has non-finite entries")
    return arr


def build_dyadic(depth, leaf_probs=None):
    """Binary refining tree of the given depth; uniform unless probs given."""
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    n_leaves = 2 ** depth
    if leaf_probs is None:
        probs = np.full(n_leaves, 1.0 / n_leaves)
    else:
        probs = np.asarray(leaf_probs, dtype=float)
        if probs.shape != (n_leaves,):
            raise ValidationError(
                f"expected {n_leaves} leaf probabilities, got {probs.shape}")
    offsets = [np.arange(2 ** n + 1) * 2 ** (depth - n) for n in range(depth + 1)]
    return FilteredSpace(depth=depth, leaf_probs=probs, offsets=tuple(offsets))


def build_from_tree(spec):
    """FilteredSpace from a nested {"mass": x, "children": [...]} description.

    Internal nodes carry >= 1 children whose masses sum to the parent's;
    a node without children is a leaf and persists through deeper levels.
    """
    seen = set()

    def check(node, depth):
        if id(node) in seen:
            raise ValidationError("tree specification contains a cycle")
        seen.add(id(node))
        if not isinstance(node, dict) or "mass" not in node:
            raise ValidationError("each node must be a dict with a 'mass' key")
        mass = float(node["mass"])
        if mass <= 0.0:
            raise ValidationError("node masses must be positive")
        children = node.get("children") or []
        if children:
            csum = sum(float(c.get("mass", -1.0)) for c in children)
            if abs(csum - mass) > PROB_TOL * max(1.0, abs(mass)):
                raise ValidationError(
                    f"child masses sum to {csum!r}, parent has {mass!r}")
            return max(check(c, depth + 1) for c in children)
        return depth

    depth = check(spec, 0)
    if depth < 1:
        raise ValidationError("tree must branch at least once")

    leaf_probs = []
    node_marks = []  # (tree depth, leaf-range start) of every node

    def walk(node, level):
        node_marks.append((level, len(leaf_probs)))
        children = node.get("children") or []
        if not children:
            leaf_probs.append(float(node["mass"]))
            return
        for child in children:
            walk(child, level + 1)

    walk(spec, 0)
    n_leaves = len(leaf_probs)
    # a level-n atom starts exactly where some node of depth <= n starts
    offsets = tuple(
        np.array(sorted({s for lvl, s in node_marks if lvl <= n} | {n_leaves}),
                 dtype=np.intp)
        for n in range(depth + 1))
    probs = np.asarray(leaf_probs)
    if abs(probs.sum() - 1.0) <= PROB_TOL:
        probs = probs / probs.sum()
    return FilteredSpace(depth=depth, leaf_probs=probs, offsets=offsets)


def cond_expect(space, f, n):
    """Conditional expectation at level n: per-atom probability averages.

    Returns one value per level-n atom, matching the dimensionality of f.
    """
    if n < 0 or n > space.depth:
        raise ValidationError(f"level {n} outside 0..{space.depth}")
    arr = _leaf_array(space, f)
    flat = arr if arr.ndim == 2 else arr[:, None]
    weighted = space.leaf_probs[:, None] * flat
    sums = np.add.reduceat(weighted, space.offsets[n][:-1], axis=0)
    out = sums / space.atom_probs[n][:, None]
    return out if arr.ndim == 2 else out[:, 0]


def cond_expect_leaf(space, f, n):
    """cond_expect broadcast back to the leaf axis."""
    return space.expand(n, cond_expect(space, f, n))


@dataclass(frozen=True)
class Martingale:
    """A leaf function together with all its conditional-expectation levels
    and increments d_k = f_k - f_{k-1}, k = 1..D.

    The level-0 mean is not an increment; ``first_value_diffs`` additionally
    exposes the convention in which the k = 1 term is the full level-1 value
    (used by the stopping-time domination machinery).
    """

    space: FilteredSpace
    leaf_values: np.ndarray          # (L, d)
    atoms: np.ndarray                # (atom_base[-1], d), levels 0..D in turn
    leaf_levels: np.ndarray          # (D + 1, L, d)
    diffs: np.ndarray                # (D, L, d); diffs[k - 1] = f_k - f_{k-1}

    @property
    def dim(self):
        return self.leaf_values.shape[1]

    @property
    def levels(self):
        """Per level n the (n_atoms(n), d) atom values, as slices of atoms."""
        base = self.space.atom_base
        return tuple(self.atoms[base[n]:base[n + 1]]
                     for n in range(self.space.depth + 1))

    def diff(self, k):
        """Increment d_k for k in 1..D."""
        return self.diffs[k - 1]

    def first_value_diffs(self):
        """(D, L, d) difference stack whose k = 1 entry is f_1 itself."""
        out = self.diffs.copy()
        out[0] = self.leaf_levels[1]
        return out


def level_means(space, stack):
    """Per level n, the averages of row n of a (D + 1, L) or (D + 1, L, d)
    stack over the level-n atoms, from one reduceat over the tiled level
    index.

    Returns the atom values of every level in tiled order, level n at
    ``atom_base[n]:atom_base[n + 1]``; each entry is the same sum and
    quotient ``cond_expect`` forms for its atom.
    """
    arr = np.asarray(stack, dtype=float)
    if arr.shape[:2] != (space.depth + 1, space.n_leaves) or arr.ndim > 3:
        raise ValidationError(
            f"level stack has shape {arr.shape}, "
            f"expected ({space.depth + 1}, {space.n_leaves}[, d])")
    flat = arr if arr.ndim == 3 else arr[..., None]
    weighted = (space.leaf_probs[:, None] * flat).reshape(-1, flat.shape[2])
    out = _tiled_means(space, weighted)
    return out if arr.ndim == 3 else out[:, 0]


def _tiled_means(space, weighted):
    """Atom averages of every level, in tiled order, from the
    ((D + 1) L, d) tile whose copy n holds P(l) times the level-n row."""
    return np.add.reduceat(weighted, space.tiled_starts, axis=0) \
        / space.tiled_atom_probs[:, None]


def martingale_of(space, f):
    """Martingale generated by conditioning the leaf function f: the level
    means of f repeated on every level."""
    arr = _leaf_array(space, f)
    flat = arr if arr.ndim == 2 else arr[:, None]
    # f is weighted once; every level reads the same weighted copy
    atoms = _tiled_means(space, np.tile(space.leaf_probs[:, None] * flat,
                                        (space.depth + 1, 1)))
    leaf_levels = atoms[space.tiled_labels]
    diffs = leaf_levels[1:] - leaf_levels[:-1]
    for a in (flat, atoms, leaf_levels, diffs):
        a.setflags(write=False)
    return Martingale(space=space, leaf_values=flat, atoms=atoms,
                      leaf_levels=leaf_levels, diffs=diffs)


def increment_adjoint(space, y):
    """sum_{k=1..D} (E_k - E_{k-1}) y_k for a (D, L) or (D, L, d) stack y:
    the adjoint in L2(P) of f -> (d_1 f, ..., d_D f).

    Two reduceats over the tiled level index give E_k y_k and E_{k-1} y_k
    for all k; the terms are summed in order of k.
    """
    arr = np.asarray(y, dtype=float)
    depth, n_leaves = space.depth, space.n_leaves
    if arr.shape[:2] != (depth, n_leaves) or arr.ndim > 3:
        raise ValidationError(
            f"increment stack has shape {arr.shape}, "
            f"expected ({depth}, {n_leaves}[, d])")
    stack = arr if arr.ndim == 3 else arr[..., None]
    weighted = (space.leaf_probs[:, None] * stack).reshape(
        depth * n_leaves, -1)
    starts, probs = space.tiled_starts, space.tiled_atom_probs[:, None]
    # level k on copy k - 1: drop level 0, whose one atom starts copy 0
    upper = np.add.reduceat(weighted, starts[1:] - n_leaves, axis=0) \
        / probs[1:]
    lower = np.add.reduceat(weighted, starts[:-n_leaves], axis=0) \
        / probs[:-n_leaves]
    at = space.tiled_labels
    terms = upper[at[1:] - 1] - lower[at[:-1]]
    out = np.add.reduce(terms, axis=0, initial=0.0)
    return out if arr.ndim == 3 else out[:, 0]


def lp_norm(space, f, p):
    """(sum_leaves P(l) |f(l)|^p)^(1/p) with the euclidean vector norm."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    return _lp_norm(space, _leaf_array(space, f), p)


def _lp_norm(space, f, p):
    """``lp_norm`` of an (L,) or (L, d) float array without validating it,
    for arrays the library built itself. The euclidean norm is summed as
    ``np.linalg.norm(axis=1)`` sums it, so the values are bitwise equal."""
    mag = np.abs(f) if f.ndim == 1 else np.sqrt(np.sum(f * f, axis=1))
    return float(np.sum(space.leaf_probs * mag ** p) ** (1.0 / p))
