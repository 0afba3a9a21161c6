"""The suite's random trees and instances: the draw recursion against the
Dirichlet recursion it replaced, and instance bytes against a recorded
sample."""

import hashlib

import numpy as np
import pytest

from wml import suite
from wml.filtration import build_from_tree


@pytest.mark.parametrize("k", [2, 3])
def test_gamma_split_is_numpy_dirichlet_bitwise(k):
    # rests on numpy's own Dirichlet loop: a numpy release that changes it
    # must fail here, not move every suite instance silently
    ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
    for _ in range(10_000):
        got = np.array(suite._dirichlet_split(ours, k))
        want = theirs.dirichlet(np.ones(k) * 2.0)
        assert got.tobytes() == want.tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state


def _dirichlet_tree_spec(rng, depth, split_p, max_children):
    """The suite's tree recursion as it was written with rng.dirichlet,
    the reference for the draw order."""

    def node(mass, lvl, force):
        out = {"mass": mass}
        if lvl < depth and (force or rng.random() < split_p):
            k = int(rng.integers(2, max_children + 1))
            fracs = rng.dirichlet(np.ones(k) * 2.0)
            chosen = int(rng.integers(0, k)) if force else -1
            out["children"] = [
                node(mass * fr, lvl + 1, force and i == chosen)
                for i, fr in enumerate(fracs)]
        return out

    return node(1.0, 0, True)


@pytest.mark.parametrize("d", sorted(suite.SPLIT))
def test_tree_spec_matches_the_dirichlet_recursion(d):
    for depth in range(1, 13):
        ours = np.random.default_rng([d, depth])
        theirs = np.random.default_rng([d, depth])
        for _ in range(4):
            got = suite.random_tree_spec(ours, depth, *suite.SPLIT[d])
            assert got == _dirichlet_tree_spec(theirs, depth, *suite.SPLIT[d])
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("d", sorted(suite.SPLIT))
def test_direct_space_matches_the_tree_space(d):
    for depth in range(1, 13):
        direct = np.random.default_rng([d, depth, 1])
        via_spec = np.random.default_rng([d, depth, 1])
        for _ in range(4):
            got = suite.random_space(direct, depth, *suite.SPLIT[d])
            want = build_from_tree(
                suite.random_tree_spec(via_spec, depth, *suite.SPLIT[d]))
            assert got.depth == want.depth == depth
            assert got.leaf_probs.tobytes() == want.leaf_probs.tobytes()
            assert len(got.offsets) == len(want.offsets)
            for a, b in zip(got.offsets, want.offsets):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert np.array_equal(got.tiled_labels, want.tiled_labels)
        assert direct.bit_generator.state == via_spec.bit_generator.state


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


# (seed, index), d, depth, leaves and the digests of the leaf probabilities,
# the weight's matrices and f, as the Dirichlet-drawn suite built them
RECORDED = [
    ((7, 0), 1, 12, 481, "c1953860632fdde8", "8fd848859d69b221",
     "ee42da9628bd3fb8"),
    ((7, 1), 2, 11, 251, "f14a887f1a3f74a9", "00d991dc84aee0d8",
     "ab1742e91d2fb47b"),
    ((7, 2), 3, 6, 14, "980c3521473cf45e", "f4cf090a353a3dd6",
     "a5ea69b98d781292"),
    ((7, 3), 1, 10, 97, "5c53c0bccd40a2bb", "3f8c6f8c73262304",
     "ac8f0f42af8c208c"),
    ((7, 4), 2, 8, 87, "21707b9517550fc0", "097c38f42839c31f",
     "bffa4ba1cb8b3d82"),
    ((7, 5), 3, 9, 15, "a944b8049d5ff9fc", "c012aeff82311341",
     "396fee951b83ca82"),
    ((23, 0), 1, 4, 16, "0883a8586a957568", "e823b9c3ef80fe48",
     "baae5fdf788f7010"),
    ((23, 1), 2, 10, 159, "d27a2d70910a67a8", "480c2f5c7ef65536",
     "634675638d03a858"),
    ((23, 2), 3, 4, 5, "5e3770f92f1c3355", "c883fa9f502369bb",
     "3b98c2f4fdc9a39e"),
]


@pytest.mark.parametrize("key, d, depth, leaves, probs, weight, f", RECORDED,
                         ids=[f"{s}-{i}" for (s, i), *_ in RECORDED])
def test_random_instance_bytes_match_recorded_sample(key, d, depth, leaves,
                                                     probs, weight, f):
    seed, index = key
    inst = suite.random_instance(index, seed=seed)
    assert (inst.d, inst.depth, inst.space.n_leaves) == (d, depth, leaves)
    assert _digest(inst.space.leaf_probs) == probs
    assert _digest(inst.weight.mats) == weight
    assert _digest(inst.f) == f
