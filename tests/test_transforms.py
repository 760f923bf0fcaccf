import random

import pytest

from eoexact.errors import InvalidGrid, MixedWeights
from eoexact.grids import Grid, brute_force_partition
from eoexact.signatures import (
    delta0,
    delta1,
    diseq,
    from_entries,
    neq2,
    symmetric,
    tensor,
)
from eoexact.transforms import (
    grid_pad_single_weighted,
    pad_to_eo,
    restrict_eo,
    weight_profile,
)
from eoexact.values import ExactValue
from tests_helpers import rand_single_weighted_signature

V = ExactValue.rational


def test_weight_profile():
    assert weight_profile(delta1()).weight == 1
    assert not weight_profile(delta1()).mixed
    assert weight_profile(symmetric([1, 0, 1])).mixed
    assert weight_profile(from_entries(2, {})).weight is None
    assert weight_profile(neq2()).balanced


def test_restrict_eo_examples():
    f = symmetric([1, 1, 1])
    assert restrict_eo(f) == neq2()
    assert restrict_eo(diseq(4)) == diseq(4)
    g = symmetric([1, 2, 3, 4])
    assert restrict_eo(g).is_zero()
    # idempotent
    assert restrict_eo(restrict_eo(f)) == restrict_eo(f)


def test_pad_to_eo_examples():
    padded = pad_to_eo(delta1())
    assert padded.arity == 2
    assert padded.support_strings() == ("10",)

    assert pad_to_eo(diseq(4)) == diseq(4)

    f = from_entries(3, {"100": 2, "010": 3})  # arity 3, weight 1
    p = pad_to_eo(f)
    assert p.arity == 4
    assert p.value_at("1001") == V(2)
    assert p.value_at("0101") == V(3)
    assert p.is_eo()

    with pytest.raises(MixedWeights):
        pad_to_eo(symmetric([1, 0, 1]))


def test_pad_output_always_balanced():
    rng = random.Random(61)
    for _ in range(30):
        f = rand_single_weighted_signature(rng, rng.choice([1, 2, 3, 4]))
        assert pad_to_eo(f).is_eo()


def test_grid_pad_pin_pair():
    grid = Grid.make([("a", delta1()), ("b", delta0())], [((0, 0), (1, 0))])
    assert brute_force_partition(grid) == V(1)
    padded, diag = grid_pad_single_weighted(grid)
    assert diag.balanced and diag.replaced_pins == 2
    assert brute_force_partition(padded) == V(1)
    assert all(sig.is_eo() for _, sig in padded.vertices)


def test_grid_pad_eo_grid_unchanged():
    grid = Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    padded, diag = grid_pad_single_weighted(grid)
    assert diag.balanced and diag.pairing_edges == 0
    assert padded.vertices == grid.vertices
    assert brute_force_partition(padded) == brute_force_partition(grid)


def test_grid_pad_unbalanced_emits_zero_grid():
    grid = Grid.make([("a", delta0()), ("b", delta0())], [((0, 0), (1, 0))])
    assert brute_force_partition(grid) == V(0)
    padded, diag = grid_pad_single_weighted(grid)
    assert not diag.balanced
    assert "identically 0" in diag.message
    assert brute_force_partition(padded) == V(0)


@pytest.mark.parametrize("edges, issue", [
    ([((0, 0), (1, 4))], r"slot \(1, 4\): port out of range for arity 1"),
    ([((0, 0), (1, 0)), ((2, 0), (1, 0))], r"slot \(1, 0\): used 2 times"),
])
def test_grid_pad_refuses_an_invalid_grid(edges, issue):
    # once a KeyError for the port past delta1's arity, and a padded grid
    # with the slot still wired twice
    grid = Grid.make([("a", delta0()), ("b", delta1()), ("c", delta0())], edges)
    with pytest.raises(InvalidGrid, match=issue):
        grid_pad_single_weighted(grid)


def test_grid_pad_mixed_weight_error():
    grid = Grid.make([("v", symmetric([1, 0, 1]))], [((0, 0), (0, 1))])
    with pytest.raises(MixedWeights):
        grid_pad_single_weighted(grid)


def test_grid_pad_preserves_z_randomized():
    rng = random.Random(67)
    done = 0
    while done < 25:
        sigs = [rand_single_weighted_signature(rng, rng.choice([1, 2, 3]))
                for _ in range(rng.randint(1, 3))] + [delta0(), delta1()]
        nv = rng.randint(2, 4)
        chosen = [rng.choice(sigs) for _ in range(nv)]
        slots = [(v, p) for v, sig in enumerate(chosen) for p in range(sig.arity)]
        if len(slots) % 2:
            continue
        rng.shuffle(slots)
        edges = []
        bad = False
        while slots:
            a, b = slots.pop(), slots.pop()
            if a == b:
                bad = True
                break
            edges.append((a, b))
        if bad:
            continue
        grid = Grid.make([(f"v{i}", s) for i, s in enumerate(chosen)], edges)
        padded, diag = grid_pad_single_weighted(grid)
        assert brute_force_partition(padded) == brute_force_partition(grid)
        done += 1
