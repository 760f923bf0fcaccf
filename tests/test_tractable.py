import random
import sys

import pytest

from eoexact import f2
from eoexact.errors import (
    NoAsymmetricGateFound,
    NonAffineVertex,
    NonProductVertex,
    NotInterpolatable,
    PreconditionViolated,
    StringNotInSupport,
)
from eoexact.grids import Grid, brute_force_partition, gate_signature
from eoexact.signatures import (
    BinaryDiseq,
    delta0,
    diseq,
    from_entries,
    gen_diseq,
    neq2,
    pin_signature,
    tensor,
)
from eoexact.tractable import (
    ExhaustiveOracle,
    ExternalOracle,
    chain_power,
    effective_support,
    encode_support_query,
    eval_affine,
    eval_fpnp,
    eval_product,
    interpolate_delta,
    prune_effective,
    realize_delta_copies,
    reduce_single_delta,
    support_oracle,
)
from eoexact.values import ExactValue, I, ONE, ZERO
from tests_helpers import (
    rand_affine_signature,
    rand_closed_grid,
    rand_eo_signature,
    rand_product_signature,
)

V = ExactValue.rational

EXTERNAL_CMD = [sys.executable, "-m", "eoexact.oracle_cli"]


def weighted_deq4_ring(n):
    """Ring of n weighted deq4 vertices (2n edges): ports 3,4 of v meet 1,2 of v+1."""
    rng = random.Random(n)
    sigs = [from_entries(4, {"0011": rng.choice([1, 2, I]), "1100": rng.choice([1, 3, -I])})
            for _ in range(n)]
    edges = [((v, 2 + p), ((v + 1) % n, p)) for v in range(n) for p in range(2)]
    return Grid.make([(f"v{v}", sig) for v, sig in enumerate(sigs)], edges)


def assert_valid_witness(grid, vidx, m, witness):
    """Every edge takes opposite bits, every vertex reads a support string,
    and the queried vertex reads the queried string."""
    for (sa, sb) in grid.edges:
        assert witness[sa] != witness[sb]
    for v2, (vid2, sig2) in enumerate(grid.vertices):
        local = 0
        for p in range(sig2.arity):
            if witness[(v2, p)]:
                local |= 1 << (sig2.arity - 1 - p)
        assert local in sig2.support()
    sig = grid.signature_of(vidx)
    local = sum(witness[(vidx, p)] << (sig.arity - 1 - p) for p in range(sig.arity))
    assert local == m


def pinned_triple_grid():
    """Arity-4 signature with (x1,x2) pinned to 01 by a pin vertex, (x3,x4) looped."""
    f = from_entries(4, {"0011": 1, "0101": 1, "1010": 1})
    return Grid.make(
        [("f", f), ("d", pin_signature())],
        [((1, 1), (0, 0)), ((1, 0), (0, 1)), ((0, 2), (0, 3))])


# -- affine engine ------------------------------------------------------------


def test_eval_affine_examples():
    g1 = Grid.make([("v", gen_diseq("01", 1, I))], [((0, 0), (0, 1))])
    assert eval_affine(g1) == ExactValue.gauss(1, 1)

    g2 = Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    assert eval_affine(g2) == V(2)

    # two pins wired head-to-head and tail-to-tail: infeasible, value 0
    g3 = Grid.make([("p", pin_signature()), ("q", pin_signature())],
                   [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    assert eval_affine(g3) == ZERO

    with pytest.raises(NonAffineVertex):
        eval_affine(Grid.make(
            [("v", gen_diseq("01", 1, 2))], [((0, 0), (0, 1))]))


def test_eval_affine_matches_brute_force():
    rng = random.Random(71)
    sigs = [rand_affine_signature(rng, rng.choice([1, 2, 3, 4])) for _ in range(8)]
    sigs = [s for s in sigs if not s.is_zero()]
    for _ in range(25):
        grid = rand_closed_grid(rng, sigs, max_vertices=4, max_edges=8)
        assert eval_affine(grid) == brute_force_partition(grid)


# -- product engine -------------------------------------------------------------


def test_eval_product_examples():
    g1 = Grid.make([("v", gen_diseq("0101", 2, 3))],
                   [((0, 0), (0, 1)), ((0, 2), (0, 3))])
    assert eval_product(g1) == V(5)

    g2 = Grid.make([("a", neq2()), ("b", neq2())],
                   [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    assert eval_product(g2) == V(2)

    g3 = Grid.make([("p", pin_signature()), ("q", pin_signature())],
                   [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    assert eval_product(g3) == ZERO

    with pytest.raises(NonProductVertex):
        eval_product(Grid.make(
            [("v", from_entries(4, {"1100": 1, "1010": 1, "1001": 1}))],
            [((0, 0), (0, 2)), ((0, 1), (0, 3))]))


def test_eval_product_matches_brute_force():
    rng = random.Random(73)
    sigs = [rand_product_signature(rng, rng.choice([1, 2, 3, 4])) for _ in range(8)]
    for _ in range(25):
        grid = rand_closed_grid(rng, sigs, max_vertices=4, max_edges=8)
        assert eval_product(grid) == brute_force_partition(grid)


def test_brute_force_deep_ring_matches_product():
    grid = weighted_deq4_ring(512)
    assert len(grid.edges) == 1024
    assert brute_force_partition(grid) == eval_product(grid)


# -- support oracle ---------------------------------------------------------------


def test_support_oracle_examples():
    g = Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    ok, witness = support_oracle(g, 0, "0011")
    assert ok
    assert witness[(0, 0)] == 0 and witness[(0, 2)] == 1

    grid = pinned_triple_grid()
    assert support_oracle(grid, 0, "0101")[0]
    assert not support_oracle(grid, 0, "0011")[0]

    with pytest.raises(StringNotInSupport):
        support_oracle(grid, 0, "0110")


def test_support_oracle_zero_grid():
    f = from_entries(2, {"01": 1})
    # pin against pin reversed: nothing effective
    g = Grid.make([("p", pin_signature()), ("q", pin_signature())],
                  [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    for m in (0b01,):
        assert not support_oracle(g, 0, m)[0]


def test_external_oracle_agrees():
    rng = random.Random(79)
    ext = ExternalOracle(EXTERNAL_CMD)
    exh = ExhaustiveOracle()
    sigs = [diseq(4), gen_diseq("0101", 1, 2),
            from_entries(4, {"0011": 1, "0101": 1, "1010": 1}), neq2()]
    queries = 0
    while queries < 24:
        grid = rand_closed_grid(rng, sigs, max_vertices=3, max_edges=6)
        for vidx, (vid, sig) in enumerate(grid.vertices):
            for m in sig.support()[:2]:
                got_x = exh.query(grid, vidx, m)
                got_e = ext.query(grid, vidx, m)
                assert got_x[0] == got_e[0]
                queries += 1
    assert queries >= 24


def test_witnesses_are_valid_assignments():
    rng = random.Random(83)
    sigs = [diseq(4), neq2(), gen_diseq("0101", 1, 2)]
    for _ in range(6):
        grid = rand_closed_grid(rng, sigs, max_vertices=3, max_edges=6)
        for vidx, (vid, sig) in enumerate(grid.vertices):
            for m in sig.support():
                ok, witness = support_oracle(grid, vidx, m)
                if ok:
                    assert_valid_witness(grid, vidx, m, witness)


def test_exhaustive_oracle_deep_ring():
    grid = weighted_deq4_ring(512)
    oracle = ExhaustiveOracle()
    for vidx, m in ((0, 0b0011), (300, 0b1100)):
        ok, witness = oracle.query(grid, vidx, m)
        assert ok
        assert_valid_witness(grid, vidx, m, witness)


# -- pruning ----------------------------------------------------------------------


def test_prune_effective_example():
    grid = pinned_triple_grid()
    pruned = prune_effective(grid)
    assert pruned.signature_of(0).support_strings() == ("0101",)
    assert brute_force_partition(pruned) == brute_force_partition(grid)


def test_prune_noop_when_everything_effective():
    g = Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    assert prune_effective(g) == g


def test_prune_zero_grid_empties_supports():
    g = Grid.make([("p", pin_signature()), ("q", pin_signature())],
                  [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    pruned = prune_effective(g)
    assert all(sig.is_zero() for _, sig in pruned.vertices)


def test_prune_preserves_z_random():
    rng = random.Random(89)
    for _ in range(15):
        sigs = [rand_eo_signature(rng, rng.choice([2, 4]), nonzero=True)
                for _ in range(3)]
        grid = rand_closed_grid(rng, sigs, max_vertices=4, max_edges=7)
        assert brute_force_partition(prune_effective(grid)) == \
            brute_force_partition(grid)


# -- oracle-assisted pipeline ---------------------------------------------------


def test_eval_fpnp_m_delta1():
    rng = random.Random(97)
    f = from_entries(4, {"1100": 1, "1010": 1, "1001": 2})
    count = 0
    while count < 8:
        grid = rand_closed_grid(rng, [f], max_vertices=4, max_edges=8)
        got = eval_fpnp(grid, "product")
        assert got == brute_force_partition(grid)
        count += 1


def test_eval_fpnp_diseq_set():
    rng = random.Random(101)
    sigs = [diseq(4), gen_diseq("010101", 2, 3)]
    for _ in range(6):
        grid = rand_closed_grid(rng, sigs, max_vertices=3, max_edges=9)
        assert eval_fpnp(grid, "product") == brute_force_partition(grid)


def test_effective_triples_stay_one_sided():
    # in an all-heavy-triples grid, three effective strings at one vertex
    # never xor into a strictly heavy string, and when the xor stays in the
    # support it is itself effective
    rng = random.Random(107)
    f = from_entries(4, {"1100": 1, "1010": 1, "1001": 2})
    for _ in range(6):
        grid = rand_closed_grid(rng, [f], max_vertices=4, max_edges=8)
        report = effective_support(grid)
        for vidx, (vid, sig) in enumerate(grid.vertices):
            eff = set(report.effective_masks(vidx))
            supp = set(sig.support())
            for a in eff:
                for b in eff:
                    for c in eff:
                        d = a ^ b ^ c
                        assert f2.weight_excess(d, sig.arity) <= 0
                        if d in supp:
                            assert d in eff


def test_eval_fpnp_precondition_errors():
    gap = from_entries(4, {"0011": 1, "0101": 1, "1010": 1})
    grid = Grid.make([("v", gap)], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    with pytest.raises(PreconditionViolated):
        eval_fpnp(grid, "product")

    unbalanced = from_entries(2, {"11": 1})
    g2 = Grid.make([("v", unbalanced)], [((0, 0), (0, 1))])
    with pytest.raises(PreconditionViolated):
        eval_fpnp(g2, "product")


# -- pin interpolation ------------------------------------------------------------


def loop_pin_grid(f, reversed_pin=False):
    """f with its first two ports pinned through a pin vertex, rest looped."""
    edges = [((1, 1), (0, 0)), ((1, 0), (0, 1))] if not reversed_pin else \
        [((1, 0), (0, 0)), ((1, 1), (0, 1))]
    extra = [((0, p), (0, p + 1)) for p in range(2, f.arity - 1, 2)]
    return Grid.make([("f", f), ("d", pin_signature())], edges + extra)


def test_interpolate_delta_example():
    grid = loop_pin_grid(gen_diseq("0101", 1, 1))
    direct = brute_force_partition(grid)
    assert direct == V(1)
    assert interpolate_delta(grid, V(2)) == direct


def test_interpolate_delta_reversed_orientation():
    grid = loop_pin_grid(gen_diseq("0101", 1, 1), reversed_pin=True)
    assert interpolate_delta(grid, V(2)) == brute_force_partition(grid)


def test_interpolate_delta_no_pin_passthrough():
    g = Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    assert interpolate_delta(g, V(2)) == V(2)


def test_interpolate_delta_rejects_roots():
    grid = loop_pin_grid(gen_diseq("0101", 1, 1))
    with pytest.raises(NotInterpolatable):
        interpolate_delta(grid, I)
    with pytest.raises(NotInterpolatable):
        interpolate_delta(grid, ZERO)


def test_chain_power():
    x = V(3)
    for j in (1, 2, 3, 4):
        assert chain_power(x, j) == BinaryDiseq(ONE, x ** j).as_signature()


def test_interpolate_delta_random():
    rng = random.Random(103)
    sigs = [rand_eo_signature(rng, 4, nonzero=True) for _ in range(3)] + \
        [pin_signature()]
    done = 0
    while done < 10:
        grid = rand_closed_grid(rng, sigs, max_vertices=4, max_edges=8)
        npins = len([1 for _, s in grid.vertices if s == pin_signature()])
        if not 1 <= npins <= 3:
            continue
        assert interpolate_delta(grid, V(2)) == brute_force_partition(grid)
        done += 1


# -- single-pin reduction -----------------------------------------------------------


def test_reduce_single_delta_dual_symmetric():
    f = diseq(4)
    grid = Grid.make([("f", f), ("d", pin_signature())],
                     [((1, 1), (0, 0)), ((1, 0), (0, 2)), ((0, 1), (0, 3))])
    want = brute_force_partition(grid)
    assert reduce_single_delta(grid) == want
    # and the halving shortcut applies: replacing the pin doubles
    z3 = brute_force_partition(grid.with_vertex_signature(1, neq2()))
    assert z3 == want * 2


def test_reduce_single_delta_asymmetric():
    f = gen_diseq("0101", 1, 2)
    grid = loop_pin_grid(f)
    assert reduce_single_delta(grid) == brute_force_partition(grid)


def test_reduce_single_delta_zero():
    f = diseq(4)
    # pin wired so that both orientations miss the support
    grid = Grid.make([("f", f), ("d", pin_signature())],
                     [((1, 0), (0, 0)), ((1, 1), (0, 1)), ((0, 2), (0, 3))])
    assert brute_force_partition(grid) == ZERO
    assert reduce_single_delta(grid) == ZERO


def test_reduce_single_delta_wrong_pin_count():
    g = Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    with pytest.raises(Exception):
        reduce_single_delta(g)


def test_reduce_single_delta_gate_search_exhaustion():
    grid = loop_pin_grid(gen_diseq("0101", 1, 2))
    with pytest.raises(NoAsymmetricGateFound):
        reduce_single_delta(grid, gate_vertex_cap=0)


def test_eval_fpnp_affine_hint():
    rng = random.Random(109)
    sigs = [diseq(4), gen_diseq("0101", 1, I)]
    for _ in range(5):
        grid = rand_closed_grid(rng, sigs, max_vertices=3, max_edges=8)
        assert eval_fpnp(grid, "affine") == brute_force_partition(grid)


# -- pin duplication gadget ----------------------------------------------------------


def test_realize_delta_copies():
    pin = pin_signature()
    for k in (1, 2, 3):
        gate = gate_signature(realize_delta_copies(k))
        want = pin
        for _ in range(k - 1):
            want = tensor(want, pin)
        assert gate == want
