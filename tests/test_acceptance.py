"""Acceptance suite: one test per criterion, all exact (zero tolerance).

Each test prints a PASS line on success so a verbose run reads as a
criterion-by-criterion report.
"""

import random
import sys
import time

from eoexact import f2
from eoexact.classify import (
    dichotomy_verdict,
    is_rebalancing,
    membership,
    membership_affine,
    membership_all_pairings,
    membership_product,
    Refutation,
    symmetry_class,
    triple_class,
)
from eoexact.f2 import f2_affine_span
from eoexact.generate import generating_process
from eoexact.grids import Grid, brute_force_partition, gate_signature
from eoexact.signatures import (
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
    eval_affine,
    eval_fpnp,
    eval_product,
    interpolate_delta,
    prune_effective,
)
from eoexact.transforms import grid_pad_single_weighted, restrict_eo
from eoexact.values import ExactValue, I, ONE
from paper import (
    as_binary_diseq,
    diseq_embedding,
    find_pairing,
    is_pure,
    natural_pairing,
    pairing_sections,
    reduce_single_delta,
    replay_recipe,
)
from tests_helpers import (
    rand_affine_signature,
    rand_closed_grid,
    rand_eo_signature,
    rand_nonzero_value,
    rand_product_signature,
    rand_single_weighted_signature,
)

V = ExactValue.rational

EXTERNAL_CMD = [sys.executable, "-m", "eoexact.oracle_cli"]


def report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_acceptance_01_affine_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20240601)
    pool = []
    while len(pool) < 10:
        sig = rand_affine_signature(rng, rng.choice([1, 2, 3, 4]))
        if not sig.is_zero():
            pool.append(sig)
    checked = 0
    while checked < 200:
        grid = rand_closed_grid(rng, pool, max_vertices=5, max_edges=10)
        assert eval_affine(grid) == brute_force_partition(grid)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, f"affine engine == brute force on {checked} grids in {elapsed:.1f}s")


def test_acceptance_02_product_oracle_equivalence():
    rng = random.Random(20240602)
    pool = [rand_product_signature(rng, rng.choice([1, 2, 3, 4])) for _ in range(10)]
    checked = 0
    while checked < 200:
        grid = rand_closed_grid(rng, pool, max_vertices=5, max_edges=10)
        assert eval_product(grid) == brute_force_partition(grid)
        checked += 1
    report(2, f"product engine == brute force on {checked} grids")


def test_acceptance_03_fpnp_pipeline():
    rng = random.Random(20240603)
    family_a = [from_entries(4, {"1100": 1, "1010": 1, "1001": 2})]
    family_b = [diseq(4), gen_diseq("010101", 2, 3)]
    checked = 0
    for family in (family_a, family_b):
        for _ in range(50):
            grid = rand_closed_grid(rng, family, max_vertices=4, max_edges=12)
            # post-pruning certificates must succeed on every occurrence
            pruned = prune_effective(grid)
            for vidx, (vid, sig) in enumerate(pruned.vertices):
                if sig.is_zero():
                    continue
                assert not isinstance(membership(sig, "product"), Refutation), \
                    f"pruned occurrence at {vid} left the product class"
            assert eval_fpnp(grid, "product") == brute_force_partition(grid)
            checked += 1
    assert checked >= 100
    report(3, f"oracle-assisted pipeline == brute force on {checked} grids")


def test_acceptance_04_pruning_invariance():
    rng = random.Random(20240604)
    checked = 0
    while checked < 200:
        pool = [rand_eo_signature(rng, rng.choice([2, 4]),
                                  density=rng.choice([0.4, 0.7, 1.0]), nonzero=True)
                for _ in range(3)]
        grid = rand_closed_grid(rng, pool, max_vertices=4, max_edges=8)
        assert brute_force_partition(prune_effective(grid)) == \
            brute_force_partition(grid)
        checked += 1
    report(4, f"pruning preserved the partition function on {checked} grids")


def test_acceptance_05_six_vertex_fixture_table():
    from eoexact.signatures import dual
    heavy_family = from_entries(4, {"1100": 1, "1010": 1, "1001": 2})
    fixtures = [
        ("product-class", gen_diseq("0101", 2, 3), True),
        ("affine-class +/-i", tensor(gen_diseq("01", 1, I), gen_diseq("01", 1, I)), True),
        ("heavy-triple family", heavy_family, True),
        ("its dual", dual(heavy_family), True),
        ("balanced-gap family", from_entries(4, {"0011": 1, "0101": 1, "1010": 1}), False),
    ]
    agree = 0
    for name, sig, tractable in fixtures:
        verdict = dichotomy_verdict([sig])
        assert verdict.tractable == tractable, (name, verdict.outcome)
        agree += 1
    assert agree == 5
    report(5, "six-vertex fixture table reproduced 5/5")


def test_acceptance_06_generating_process_fixtures():
    expectations = [
        (diseq(4), "finite_group", 1, "dual_symmetric"),
        (gen_diseq("0101", 1, -1), "finite_group", 2, "dual_antisymmetric"),
        (gen_diseq("0101", 1, I), "finite_group", 4, "conjugate_dual"),
        (gen_diseq("0101", 1, 2), "non_root", None, None),
    ]
    for sig, outcome, order, sym in expectations:
        desc, state = generating_process(sig)
        assert desc.outcome == outcome
        if order is not None:
            assert desc.order == order
        if sym is not None:
            assert symmetry_class(sig).kind == sym
        if outcome == "non_root":
            assert desc.value == V(2)
        # every recorded recipe replays exactly through the gate engine
        for param, recipe in state.recipes.items():
            if recipe is None:
                continue
            bd = as_binary_diseq(replay_recipe(sig, recipe, state.recipes))
            assert bd is not None and not bd.is_zero()
            assert bd.normalized()[0].b == param
        if desc.recipe is not None:
            bd = as_binary_diseq(replay_recipe(sig, desc.recipe, state.recipes))
            ratio = bd.b / bd.a
            assert desc.value in (ratio, ratio.inverse())
    report(6, "generating-process fixtures and recipe replays verified")


def _random_pinned_grid(rng, max_pins=3):
    pool = [rand_eo_signature(rng, 4, nonzero=True) for _ in range(2)] + \
        [neq2(), pin_signature()]
    while True:
        grid = rand_closed_grid(rng, pool, max_vertices=5, max_edges=9)
        pins = sum(1 for _, s in grid.vertices if s == pin_signature())
        if 1 <= pins <= max_pins:
            return grid


def test_acceptance_07_interpolation():
    rng = random.Random(20240607)
    checked = 0
    while checked < 50:
        grid = _random_pinned_grid(rng)
        assert interpolate_delta(grid, V(2)) == brute_force_partition(grid)
        checked += 1

    # single-pin reduction, dual-symmetric route
    f = diseq(4)
    g1 = Grid.make([("f", f), ("d", pin_signature())],
                   [((1, 1), (0, 0)), ((1, 0), (0, 2)), ((0, 1), (0, 3))])
    assert reduce_single_delta(g1) == brute_force_partition(g1)
    assert symmetry_class(f).kind == "dual_symmetric"

    # single-pin reduction through an asymmetric gate
    h = gen_diseq("0101", 1, 2)
    g2 = Grid.make([("f", h), ("d", pin_signature())],
                   [((1, 1), (0, 0)), ((1, 0), (0, 1)), ((0, 2), (0, 3))])
    assert symmetry_class(h).kind != "dual_symmetric"
    assert reduce_single_delta(g2) == brute_force_partition(g2)
    report(7, f"interpolation matched direct evaluation on {checked} pinned grids")


def _rand_heavy_signature(rng, arity):
    entries = {}
    for m in range(1 << arity):
        if 2 * f2.hamming(m) >= arity and rng.random() < 0.5:
            v = rand_nonzero_value(rng)
            entries[m] = v
    return from_entries(arity, entries)


def test_acceptance_08_transform_soundness():
    rng = random.Random(20240608)
    checked = 0
    while checked < 50:
        pool = [_rand_heavy_signature(rng, rng.choice([2, 3, 4])) for _ in range(3)]
        grid = rand_closed_grid(rng, pool, max_vertices=4, max_edges=8)
        restricted = grid
        for vidx in range(len(grid.vertices)):
            restricted = restricted.with_vertex_signature(
                vidx, restrict_eo(grid.signature_of(vidx)))
        assert brute_force_partition(restricted) == brute_force_partition(grid)
        checked += 1

    padded_checked = 0
    while padded_checked < 50:
        pool = [rand_single_weighted_signature(rng, rng.choice([1, 2, 3]))
                for _ in range(3)]
        grid = rand_closed_grid(rng, pool, max_vertices=4, max_edges=7)
        padded, diag = grid_pad_single_weighted(grid)
        assert brute_force_partition(padded) == brute_force_partition(grid)
        padded_checked += 1
    report(8, f"restriction ({checked}) and padding ({padded_checked}) preserved Z")


def test_acceptance_09_cross_property_suite():
    rng = random.Random(20240609)

    # purity constrains triple weights (and only weights: a balanced-gap
    # witness inside a pure span is legal, see the classify tests)
    pure_seen = 0
    for _ in range(150):
        f = rand_eo_signature(rng, rng.choice([4, 6]), density=0.4, nonzero=True)
        tc = triple_class(f)
        if is_pure(f, "up"):
            pure_seen += 1
            assert tc.light is None
        if is_pure(f, "down"):
            assert tc.heavy is None
    assert pure_seen > 0

    # affine support guarantees a pairing; a found pairing is opposite on the
    # whole affine span (exhaustive arity 4, random arity 6)
    balanced4 = [m for m in range(16) if f2.is_balanced(m, 4)]
    for picks in range(1, 1 << len(balanced4)):
        supp = [m for i, m in enumerate(balanced4) if (picks >> i) & 1]
        f = from_entries(4, {m: 1 for m in supp})
        span = f2_affine_span(supp, 4)
        p = find_pairing(f)
        if span.size() == len(supp):
            assert p is not None
        if p is not None:
            for el in span.elements():
                assert all(f2.bit_at(el, i, 4) != f2.bit_at(el, j, 4) for i, j in p)
    for _ in range(40):
        f = rand_eo_signature(rng, 6, density=rng.choice([0.15, 0.5]), nonzero=True)
        span = f2_affine_span(f.support(), 6)
        p = find_pairing(f)
        if span.size() == len(f.support()):
            assert p is not None
        if p is not None:
            for el in span.elements():
                assert all(f2.bit_at(el, i, 6) != f2.bit_at(el, j, 6) for i, j in p)

    # full class membership implies the per-pairing class on balanced supports
    for _ in range(25):
        f = rand_affine_signature(rng, 4)
        if f.is_eo() and not f.is_zero():
            assert membership_all_pairings(f, "affine").ok
        g = rand_product_signature(rng, 4)
        if g.is_eo() and not g.is_zero():
            assert membership_all_pairings(g, "product").ok

    # section/embedding round trip
    for _ in range(15):
        d = rng.choice([1, 2, 3])
        g = from_entries(d, {m: rand_nonzero_value(rng) for m in range(1 << d)
                             if rng.random() < 0.8})
        if g.is_zero():
            continue
        assert g in pairing_sections(diseq_embedding(g), natural_pairing(d))

    # rebalancing forces a gap triple or an all-up signature
    reb_seen = 0
    for _ in range(120):
        f = rand_eo_signature(rng, 4, density=0.45, nonzero=True)
        if is_rebalancing(f, 0).ok:
            reb_seen += 1
            tc = triple_class(f)
            assert tc.gap is not None or tc.all_up
    assert reb_seen > 0

    # finite root group of order k forces f(a)^k == f(~a)^k on the support
    group_seen = 0
    for sig in (diseq(4), gen_diseq("0101", 1, -1), gen_diseq("0101", 1, I),
                gen_diseq("001011", 3, -3),
                tensor(gen_diseq("01", 1, I), gen_diseq("01", 1, -1))):
        desc, _ = generating_process(sig)
        if desc.outcome == "finite_group":
            group_seen += 1
            k = desc.order
            full = (1 << sig.arity) - 1
            for m in sig.support():
                assert sig.value(m) ** k == sig.value(m ^ full) ** k
    assert group_seen >= 3
    report(9, "cross-property suite all green")


def test_acceptance_10_backend_agreement():
    rng = random.Random(20240610)
    external = ExternalOracle(EXTERNAL_CMD)
    exhaustive = ExhaustiveOracle()
    pool = [diseq(4), gen_diseq("0101", 1, 2), neq2(),
            from_entries(4, {"0011": 1, "0101": 1, "1010": 1}),
            pin_signature()]
    queries = 0
    while queries < 500:
        grid = rand_closed_grid(rng, pool, max_vertices=4, max_edges=10)
        for vidx, (vid, sig) in enumerate(grid.vertices):
            for m in sig.support():
                f1, w1 = exhaustive.query(grid, vidx, m)
                f2_, w2 = external.query(grid, vidx, m)
                assert f1 == f2_, (grid, vidx, m)
                queries += 1
    assert queries >= 500
    report(10, f"oracle backends agreed on {queries} support queries")
