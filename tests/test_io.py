import json

import numpy as np
import pytest

from wml import suite
from wml.filtration import FilteredSpace, build_dyadic, build_from_tree
from wml.io import (load_function_csv, load_tree, load_weight_csv,
                    read_sweep_csv, save_function_csv, save_tree,
                    save_weight_csv, tree_to_spec, write_fit_json,
                    write_sweep_csv)
from wml.linalg import ValidationError
from wml.weights import MatrixWeight


def _random_space(seed=0, depth=5):
    rng = np.random.default_rng(seed)

    def node(mass, lvl):
        out = {"mass": mass}
        if lvl < depth and (lvl == 0 or rng.random() < 0.6):
            k = int(rng.integers(2, 4))
            frac = rng.dirichlet(np.ones(k))
            out["children"] = [node(mass * f, lvl + 1) for f in frac]
        return out

    return build_from_tree(node(1.0, 0))


def test_tree_roundtrip(tmp_path):
    sp = _random_space()
    save_tree(tmp_path / "tree.json", sp)
    sp2 = load_tree(tmp_path / "tree.json")
    assert sp2.depth == sp.depth
    assert np.allclose(sp2.leaf_probs, sp.leaf_probs, atol=1e-15)
    for n in range(sp.depth + 1):
        assert np.array_equal(sp2.offsets[n], sp.offsets[n])


def _tree_to_spec_oracle(space):
    """The nested description by recursion: every atom scans the next
    level's atoms for the ones inside it."""

    def node(level, a):
        lo, hi = space.offsets[level][a], space.offsets[level][a + 1]
        out = {"mass": float(space.atom_probs[level][a])}
        if level == space.depth:
            return out
        nxt = space.offsets[level + 1]
        children = [b for b in range(len(nxt) - 1)
                    if lo <= nxt[b] and nxt[b + 1] <= hi]
        out["children"] = [node(level + 1, b) for b in children]
        return out

    return node(0, 0)


def _spaces(kind):
    if kind == "dyadic":
        return [build_dyadic(depth) for depth in range(1, 9)]
    if kind == "random":
        return [_random_space(seed, depth)
                for seed in range(4) for depth in (1, 3, 6)]
    spaces = []
    for d, split in sorted(suite.SPLIT.items()):
        rng = np.random.default_rng([d, 29])
        spaces += [suite.random_space(rng, depth, *split)
                   for depth in range(1, 10)]
    return spaces


@pytest.mark.parametrize("kind", ["dyadic", "random", "suite"])
def test_tree_json_bytes_match_the_recursion(tmp_path, kind):
    # tree.json from the preorder sort, byte for byte the recursion's
    for sp in _spaces(kind):
        save_tree(tmp_path / "tree.json", sp)
        want = json.dumps(_tree_to_spec_oracle(sp), indent=1) + "\n"
        assert (tmp_path / "tree.json").read_text() == want


def test_tree_spec_masses_consistent():
    sp = FilteredSpace(depth=3, leaf_probs=np.arange(1, 9) / 36.0,
                       offsets=build_dyadic(3).offsets)
    spec = tree_to_spec(sp)

    def check(node):
        for child in node.get("children", []):
            check(child)
        if node.get("children"):
            assert sum(c["mass"] for c in node["children"]) == pytest.approx(
                node["mass"], abs=1e-12)

    check(spec)


def test_function_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    for shape in ((7,), (7, 3)):
        vals = rng.standard_normal(shape)
        save_function_csv(tmp_path / "f.csv", vals)
        back = load_function_csv(tmp_path / "f.csv")
        # always (L, d): a one-column file is (L, 1)
        assert np.array_equal(back, vals.reshape(7, -1))


def test_weight_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((5, 3, 3)))
    lam = np.exp(rng.normal(0.0, 1.0, (5, 3)))
    W = MatrixWeight(np.einsum("lij,lj,lkj->lik", q, lam, q))
    save_weight_csv(tmp_path / "w.csv", W)
    with open(tmp_path / "w.csv") as fh:
        assert len(fh.readline().split(",")) == 9
    back = load_weight_csv(tmp_path / "w.csv")
    assert np.array_equal(back.mats, W.mats)

    save_function_csv(tmp_path / "bad.csv", rng.standard_normal((4, 3)))
    with pytest.raises(ValidationError):
        load_weight_csv(tmp_path / "bad.csv")


def test_sweep_csv_roundtrip(tmp_path):
    from wml.experiments import SweepConfig, run_sweep
    cfg = SweepConfig(family="power", p=2.0, d=1, depths=(4,),
                      alphas=(0.5,), epss=(0.25, 0.125, 0.0625), seed=3)
    records, fit = run_sweep(cfg)
    write_sweep_csv(tmp_path / "sweep.csv", records)
    rows = read_sweep_csv(tmp_path / "sweep.csv")
    assert len(rows) == 3
    assert rows[0]["instance_id"] == records[0].instance_id
    assert rows[0]["ap_char"] == records[0].ap_char
    assert rows[0]["converged"] is True
    write_fit_json(tmp_path / "fit.json", fit)
    loaded = json.loads((tmp_path / "fit.json").read_text())
    assert set(loaded) == {"slope", "intercept", "stderr", "n"}
    assert loaded["slope"] == fit["slope"]
