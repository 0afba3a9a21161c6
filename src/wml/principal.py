"""Stopping times, principal sets and the pointwise sparse domination check.

Given (space, W, p, f) with reducing pair, the normalized fluctuation of
g = W^{-1/p} f relative to a base level n is measured by two ratios, both
divided by den = E_n ||dual_n^{-1} g||:

  * diff ratio at m:  (sum_{i=n+1}^{m} ||dual_n^{-1} d_i g||^2)^{1/2} / den
  * avg ratio at m:   ||dual_n^{-1} E_m g|| / den

with the convention that a ratio is 0 wherever den = 0 (the
vanishing-average indicator). den averages non-negative norms, so it is 0
exactly where g vanishes on the atom, and then both numerators vanish too;
a positive den is a genuine scale however small f or the atom is, so no
absolute cut-off applies. Principal sets are produced generation by
generation: the first generation stops at the first level where the
combined ratio becomes positive, later generations at the first exceedance
of the threshold C. Each set P lives at its stopping level kappa2(P), and
its escape part E(P) collects the leaves where no further exceedance
occurs; escape parts carry at least half of the mass, which is what makes
the family sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError, _squared_norms

ZERO_SPARSE = 1e-14
POSITIVITY = 1e-12
# rounding slack of the property, iteration and vanishing checks
CHECK_TOL = 1e-10
INF = np.inf


def default_threshold():
    """Default stopping threshold 8 sqrt(e).

    Tracks the constants of the halving argument: the weak (1,1) constant
    sqrt(e) of the vector square function, a triangle-inequality factor 2,
    and a factor 4 so each of the two exceedance events keeps at most a
    quarter of the mass; the running-average ratio alone would only need 4.
    """
    return 8.0 * math.sqrt(math.e)


def iteration_constant(threshold):
    """Explicit constant K in the iterated tail-energy inequality
    b_1^2 <= b_N^2 + K sum_{m<=N} sum_{P_m} T(P_m) chi_{P_m}.

    One step costs 3 C^2 on the parent term (escape part, the within-window
    accumulation, and the stopping-level backtrack) plus 2 on the child
    term (the split of the stopping-level increment), so K = 3 C^2 + 2,
    with C clamped below by 1 where the backtrack uses plain contractivity.
    """
    c = max(float(threshold), 1.0)
    return 3.0 * c * c + 2.0


def domination_constant(threshold):
    """Pointwise bound for S_W f / T_{W,2} f on the generated family:
    sqrt(iteration_constant + 1), the extra 1 covering the first-generation
    stopping-level term."""
    return math.sqrt(iteration_constant(threshold) + 1.0)


@dataclass(frozen=True)
class FluctuationTable:
    """Numerators, denominator and ratio of both fluctuation ratios.

    At one base level: diff_num[m], avg_num[m] are per-leaf numerators for
    target level m (rows 0..base are zero), den is the per-leaf denominator
    and ratio[m] combines both numerators under the vanishing-den
    convention (0 wherever den is). The tables of every base at once, as
    ``fluctuation_tables`` builds them, have a leading axis over the bases
    0..D-1 on each array.
    """

    den: np.ndarray        # (L,)
    diff_num: np.ndarray   # (D + 1, L)
    avg_num: np.ndarray    # (D + 1, L)
    ratio: np.ndarray      # (D + 1, L)


def fluctuation_tables(space, mart, dual_inv, averages):
    """FluctuationTable of g at every base level, in one pass over the
    target levels.

    ``mart`` is the martingale of g, ``dual_inv`` the (D + 1, L, d, d) stack
    of the inverse dual reducers of each leaf's atom at every level (the
    tiled inverse dual reducers gathered by ``tiled_labels``) and
    ``averages`` the level averages E_n ||dual_n^{-1} g|| in tiled order.
    Target level m fills column m of the tables of every base n < m at
    once, so each table fills only its triangle m > base and no temporary
    is larger than (D, L). The values at each base are those of building
    its table alone: bitwise at d = 1, within rounding at d >= 2.
    """
    depth, n_leaves = space.depth, space.n_leaves
    den = averages[space.tiled_labels[:depth]]
    diff_num = np.zeros((depth, depth + 1, n_leaves))
    avg_num = np.zeros((depth, depth + 1, n_leaves))
    acc = np.zeros((depth, n_leaves))
    for m in range(1, depth + 1):
        inv = dual_inv[:m]
        acc[:m] += _squared_norms(inv, mart.diff(m))
        np.sqrt(acc[:m], out=diff_num[:m, m])
        np.sqrt(_squared_norms(inv, mart.leaf_levels[m]), out=avg_num[:m, m])
    live = (den > 0.0)[:, None]
    ratio = np.maximum(diff_num, avg_num)
    np.divide(ratio, np.where(live, den[:, None], 1.0), out=ratio)
    np.copyto(ratio, 0.0, where=~live)
    return FluctuationTable(den=den, diff_num=diff_num, avg_num=avg_num,
                            ratio=ratio)


def fluctuation_table(space, tables, base):
    """FluctuationTable relative to one base level: row ``base`` of the
    tables of every base that ``fluctuation_tables`` built, as views."""
    if not 0 <= base < space.depth:
        raise ValidationError("base level must satisfy 0 <= base < depth")
    return FluctuationTable(den=tables.den[base],
                            diff_num=tables.diff_num[base],
                            avg_num=tables.avg_num[base],
                            ratio=tables.ratio[base])


@dataclass(frozen=True)
class PrincipalSet:
    """One principal set: stopped at level kappa2, generated at kappa1."""

    generation: int
    kappa1: int
    kappa2: int
    leaves: np.ndarray   # sorted leaf indices
    atoms: np.ndarray    # sorted level-kappa2 atom indices covering the leaves
    tau: np.ndarray      # per entry of ``leaves``: next stopping level or inf
    escape: np.ndarray   # leaf indices with tau == inf (the escape part)
    parent: int          # index into PrincipalFamily.sets, -1 for generation 1

    def probability(self, space):
        return float(space.leaf_probs[self.leaves].sum())

    def escape_probability(self, space):
        return float(space.leaf_probs[self.escape].sum())


@dataclass(frozen=True)
class PrincipalFamily:
    """All generations of principal sets for one (space, W, p, f) instance."""

    space: object
    threshold: float
    sets: tuple

    @property
    def generations(self):
        out = {}
        for s in self.sets:
            out.setdefault(s.generation, []).append(s)
        return [out[g] for g in sorted(out)]

    def generation(self, m):
        return [s for s in self.sets if s.generation == m]

    def first_stop_never(self):
        """Leaves where the first-generation stopping time is infinite."""
        taken = np.concatenate([s.leaves for s in self.generation(1)]) if \
            self.generation(1) else np.empty(0, dtype=np.intp)
        mask = np.ones(self.space.n_leaves, dtype=bool)
        mask[taken] = False
        return np.nonzero(mask)[0]


def build_principal_family(an, threshold):
    """Generation-by-generation principal sets of the analysis context ``an``.

    Generation 1 stops at the first level where the fluctuation ratio
    exceeds the positivity threshold 1e-12; every later generation stops at
    the first exceedance of ``threshold`` (the battery's is
    default_threshold()), always restricted to its parent set.
    Construction terminates because each stopping level strictly
    increases, so there are at most D generations.
    """
    space = an.space

    def stopping(base, leaves, cut):
        """Per leaf: first level > base with ratio > cut, else inf."""
        if base >= space.depth:
            return np.full(leaves.size, INF)
        ratios = an.table(base).ratio[base + 1:, leaves]
        hit = ratios > cut
        any_hit = hit.any(axis=0)
        first = base + 1 + hit.argmax(axis=0)
        return np.where(any_hit, first.astype(float), INF)

    def make_set(generation, kappa1, kappa2, leaves, parent):
        tau = stopping(kappa2, leaves, threshold)
        return PrincipalSet(
            generation=generation, kappa1=kappa1, kappa2=kappa2,
            leaves=leaves, atoms=np.unique(space.labels[kappa2][leaves]),
            tau=tau, escape=leaves[np.isinf(tau)], parent=parent)

    sets = []
    all_leaves = np.arange(space.n_leaves)
    tau1 = stopping(0, all_leaves, POSITIVITY)
    frontier = []
    for j in range(1, space.depth + 1):
        members = all_leaves[tau1 == j]
        if members.size:
            ps = make_set(1, 0, j, members, -1)
            frontier.append(len(sets))
            sets.append(ps)

    while frontier:
        next_frontier = []
        for idx in frontier:
            parent = sets[idx]
            for j in range(parent.kappa2 + 1, space.depth + 1):
                members = parent.leaves[parent.tau == j]
                if members.size:
                    ps = make_set(parent.generation + 1, parent.kappa2, j,
                                  members, idx)
                    next_frontier.append(len(sets))
                    sets.append(ps)
        frontier = next_frontier

    return PrincipalFamily(space=space, threshold=float(threshold),
                           sets=tuple(sets))


# ---------------------------------------------------------------------------
# property checks
# ---------------------------------------------------------------------------

def check_properties(an, family):
    """Structural and quantitative properties of the built family.

    Returns a dict with one boolean per property:
      escape_disjoint     escape parts pairwise disjoint across all sets
      measurable          every set is a union of its level-kappa2 atoms
      window_bounds       on each set of generation >= 2, accumulated
                          fluctuation below the stopping level stays below
                          threshold * den (both ratio flavors)
      escape_bounds       same control beyond the stopping level on escape
                          parts of generation >= 2 sets
      escape_mass         P(P) <= 2 P(E(P)) and, atomwise, the escape part
                          fills at least half of every atom (generation >= 2)
      terminates          no generation index exceeds the depth
    plus the measured extremes (the quantitative claims are stated for
    generations >= 2; generation 1 satisfies them by the same
    construction and is not measured).
    """
    space, table = an.space, an.table
    C = family.threshold
    report = {"tol": CHECK_TOL}
    escapes = [s.escape for s in family.sets]
    all_escape = np.concatenate(escapes) if escapes else np.empty(0, dtype=np.intp)
    report["escape_disjoint"] = bool(
        np.unique(all_escape).size == all_escape.size)

    def measurable(s):
        # strictly increasing leaves whose labels run through each of the
        # sorted atoms once per leaf of it are exactly the atoms' union
        off = space.offsets[s.kappa2]
        sizes = off[s.atoms + 1] - off[s.atoms]
        labels = space.labels[s.kappa2][s.leaves]
        return labels.size == sizes.sum() and bool(
            np.all(np.diff(s.leaves) > 0)
            and np.all(labels == np.repeat(s.atoms, sizes)))

    report["measurable"] = all(measurable(s) for s in family.sets)

    def window_values(s):
        t = table(s.kappa1)
        idx = s.leaves
        diff = t.diff_num[s.kappa2 - 1, idx] if s.kappa2 - 1 > s.kappa1 \
            else np.zeros(idx.size)
        if s.kappa1 + 1 <= s.kappa2 - 1:
            avg = t.avg_num[s.kappa1 + 1:s.kappa2, idx].max(axis=0)
        else:
            avg = np.zeros(idx.size)
        return diff - C * t.den[idx], avg - C * t.den[idx]

    def escape_values(s):
        t = table(s.kappa2) if s.kappa2 < space.depth else None
        idx = s.escape
        if t is None or idx.size == 0:
            return np.zeros(idx.size), np.zeros(idx.size)
        diff = t.diff_num[space.depth, idx]
        avg = t.avg_num[s.kappa2 + 1:, idx].max(axis=0)
        return diff - C * t.den[idx], avg - C * t.den[idx]

    worst_window, worst_escape = -np.inf, -np.inf
    mass_ok = True
    for s in family.sets:
        if s.generation >= 2:
            worst_window = max(worst_window, max(
                v.max(initial=-np.inf) for v in window_values(s)))
            worst_escape = max(worst_escape, max(
                v.max(initial=-np.inf) for v in escape_values(s)))
            prob = s.probability(space)
            eprob = s.escape_probability(space)
            if prob > 2.0 * eprob + CHECK_TOL:
                mass_ok = False
            # one reduceat over alternating atom starts and ends: its even
            # entries are the escaped mass of each atom
            off = space.offsets[s.kappa2]
            bounds = np.stack([off[s.atoms], off[s.atoms + 1]], 1).ravel()
            escaped = np.zeros(space.n_leaves + 1)
            escaped[s.escape] = space.leaf_probs[s.escape]
            frac = np.add.reduceat(escaped, bounds)[::2] \
                / space.atom_probs[s.kappa2][s.atoms]
            if np.any(frac < 0.5 - CHECK_TOL):
                mass_ok = False

    report["window_bounds"] = bool(worst_window <= CHECK_TOL)
    report["escape_bounds"] = bool(worst_escape <= CHECK_TOL)
    report["escape_mass"] = mass_ok
    report["worst_window_slack"] = float(worst_window)
    report["worst_escape_slack"] = float(worst_escape)
    max_gen = max((s.generation for s in family.sets), default=0)
    report["terminates"] = bool(max_gen <= space.depth)
    report["max_generation"] = int(max_gen)
    report["ok"] = all(report[k] for k in (
        "escape_disjoint", "measurable", "window_bounds", "escape_bounds",
        "escape_mass", "terminates"))
    return report


def _tail_squares(an, family, m):
    """Per leaf, on each set of generation m, sum_{k > kappa2}
    ||W^{1/p} d_k g||^2; zero elsewhere or when the generation is empty."""
    space = an.space
    out = np.zeros(space.n_leaves)
    if m > space.depth:
        return out
    wnorm = an.increment_norms()
    for s in family.generation(m):
        if s.kappa2 < space.depth:
            out[s.leaves] = np.sum(wnorm[s.kappa2:, s.leaves] ** 2, axis=0)
    return out


def tail_energy(an, family, m):
    """Per-leaf tail energy of generation m: on each set of generation m,
    (sum_{k > kappa2} ||W^{1/p} d_k g||^2)^{1/2}; zero elsewhere or when the
    generation is empty."""
    return np.sqrt(_tail_squares(an, family, m))


def iteration_check(an, family):
    """Verify the iterated tail-energy inequality pointwise for every cut N:
    b_1^2 <= b_N^2 + K sum_{m<=N} sum_{P_m} T(P_m) chi_{P_m}, with the
    derived K = iteration_constant(threshold); T is the squared sparse term
    of the set. Returns the report with the worst slack and the bound it
    is held to, CHECK_TOL * max(1, max b_1^2)."""
    k_it = iteration_constant(family.threshold)
    b1 = _tail_squares(an, family, 1)
    max_gen = max((s.generation for s in family.sets), default=0)
    running = np.zeros(an.space.n_leaves)
    worst = -np.inf
    for n_cut in range(1, max_gen + 2):
        for s in family.generation(n_cut):
            running[s.leaves] += an.set_term(s.kappa2, s.leaves) ** 2
        tail = b1 if n_cut == 1 else _tail_squares(an, family, n_cut)
        slack = b1 - tail - k_it * running
        worst = max(worst, float(slack.max(initial=-np.inf)))
    bound = CHECK_TOL * max(1.0, float(b1.max(initial=0.0)))
    return {"constant": k_it, "worst_slack": worst,
            "ok": bool(worst <= bound), "bound": bound}


def vanish_checks(an, family):
    """(i) The weighted square function vanishes off the first generation;
    (ii) on each first-generation set there is no weighted difference energy
    below the stopping level. Returns measured maxima and booleans."""
    off_value = float(an.square()[family.first_stop_never()].max(initial=0.0))
    wnorm = an.increment_norms()
    below = 0.0
    for s in family.generation(1):
        if s.kappa2 >= 2:
            below = max(below, float(
                np.sum(wnorm[:s.kappa2 - 1, s.leaves] ** 2, axis=0).max()))
    return {"off_first_generation_max": off_value,
            "below_stop_max": math.sqrt(below),
            "ok": bool(max(off_value, math.sqrt(below)) <= CHECK_TOL),
            "tol": CHECK_TOL}


def sparse_domination_check(an, family):
    """Pointwise domination of the weighted square function by the r = 2
    sparse operator of the principal family built for ``an``.

    Uses the first-value square-function convention (the level-0 mean jump
    is not counted), under which the domination carries the explicit
    constant domination_constant(family.threshold). Returns a dict with the
    max ratio, the bound, and the pass flag; a leaf where the square
    function exceeds 1e-10 while the sparse operator is below 1e-14 is a
    hard fail. The operator is ``an``'s (``Analysis.sparse``), which the
    battery's Hölder check reads as well.
    """
    s_fn = an.square("first_value")
    t_fn = an.sparse(family, 2.0)
    dead = t_fn <= ZERO_SPARSE
    hard_fail = bool(np.any(dead & (s_fn > 1e-10)))
    ratio = np.where(dead, 0.0, s_fn / np.where(dead, 1.0, t_fn))
    bound = domination_constant(family.threshold)
    max_ratio = float(ratio.max(initial=0.0))
    return {"max_ratio": max_ratio, "bound": bound, "hard_fail": hard_fail,
            "ok": bool(not hard_fail and max_ratio <= bound)}
