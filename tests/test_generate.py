import itertools
import random
import time
from fractions import Fraction
from math import lcm

import pytest

from eoexact import generate
from eoexact.classify import pairing_count, perfect_pairings, symmetry_class
from eoexact.errors import NotEO
from eoexact.generate import (
    DEFAULT_ORDER_CAP,
    GeneratingState,
    LoopRecipe,
    LoopSpec,
    PathRecipe,
    delta_realizability,
    generating_process,
)
from eoexact.signatures import (
    BinaryDiseq,
    diseq,
    from_entries,
    gen_diseq,
    neq2,
    self_loop,
    symmetric,
    tensor,
)
from eoexact.values import ExactValue, I, ONE, ZERO, root_order
from paper import as_binary_diseq, replay_recipe
from tests_helpers import (
    rand_cyclotomic,
    rand_nonzero_value,
    reference_generating_process,
    reference_loop_layer,
)

V = ExactValue.rational
Z = ExactValue.zeta


def test_diseq4_fixed_point_trivial_group():
    desc, state = generating_process(diseq(4))
    assert desc.outcome == "finite_group"
    assert desc.order == 1
    assert state.closure() == (ONE,)


def test_negation_group():
    desc, state = generating_process(gen_diseq("0101", 1, -1))
    assert desc.outcome == "finite_group"
    assert desc.order == 2
    assert set(state.closure()) == {ONE, V(-1)}


def test_fourth_root_group():
    desc, state = generating_process(gen_diseq("0101", 1, I))
    assert desc.outcome == "finite_group"
    assert desc.order == 4
    assert set(state.closure()) == {ONE, I, V(-1), ExactValue.gauss(0, -1)}


def test_unimodular_non_root_outside_q_i_is_decided():
    x = ExactValue.gauss(Fraction(3, 5), Fraction(4, 5)) * Z(8, 1)
    desc, _ = generating_process(gen_diseq("1100", 1, x))
    assert desc.outcome == "non_root"


def test_non_root_detected():
    desc, state = generating_process(gen_diseq("0101", 1, 2))
    assert desc.outcome == "non_root"
    assert desc.value == V(2)
    assert isinstance(desc.recipe, LoopRecipe)


def test_pin_direct_shortcut():
    # one loop on this signature leaves the bare pin
    f = tensor(BinaryDiseq(ONE, ZERO).as_signature(), neq2())
    desc, state = generating_process(f)
    assert desc.outcome == "pin_direct"


def test_monotone_closure_and_recipe_replay():
    for sig in (diseq(4), gen_diseq("0101", 1, -1), gen_diseq("0101", 1, I)):
        desc, state = generating_process(sig)
        prev: set = set()
        for step in state.steps:
            now = set(step.closure_params)
            assert prev <= now
            prev = now
        for param, recipe in state.recipes.items():
            if recipe is None:
                continue
            got = replay_recipe(sig, recipe, state.recipes)
            bd = as_binary_diseq(got)
            assert bd is not None and not bd.is_zero()
            norm, _, _ = bd.normalized()
            assert norm.b == param


def test_non_root_recipe_replay():
    f = gen_diseq("0101", 1, 2)
    desc, state = generating_process(f)
    got = replay_recipe(f, desc.recipe, state.recipes)
    bd = as_binary_diseq(got)
    ratio = bd.b / bd.a
    assert ratio in (V(2), V(Fraction(1, 2)))


def test_power_identity_on_closure():
    # finite group of order k forces f(a)^k == f(~a)^k on the support
    for sig in (diseq(4), gen_diseq("0101", 1, -1), gen_diseq("0101", 1, I),
                gen_diseq("001011", 2, -2)):
        desc, _ = generating_process(sig)
        if desc.outcome != "finite_group":
            continue
        k = desc.order
        n = sig.arity
        full = (1 << n) - 1
        for m in sig.support():
            assert sig.value(m) ** k == sig.value(m ^ full) ** k


def test_cyclotomic_root_group():
    f = gen_diseq("0101", 1, Z(3, 1))
    desc, state = generating_process(f)
    assert desc.outcome == "finite_group"
    assert desc.order == 3
    rep = delta_realizability(f)
    assert rep.route.startswith("conjugate_dual_regime")
    assert rep.consistent
    assert rep.symmetry.kind == "conjugate_dual"


def test_not_eo_rejected():
    with pytest.raises(NotEO):
        generating_process(symmetric([1, 1, 1]))


def test_step_cap_exhaustion():
    desc, state = generating_process(gen_diseq("0101", 1, I), max_steps=0)
    assert desc.outcome == "cap_exhausted"
    assert "step cap" in desc.note


def test_cap_outcome_growth_judgement():
    from eoexact.generate import GeneratingState, _cap_outcome
    state = GeneratingState()
    grew = _cap_outcome(state, [1, 2, 6, 12, 24], "size cap")
    assert grew.outcome == "order_growth"
    assert grew.orders_seen == (2, 6, 12, 24)
    flat = _cap_outcome(state, [1, 4, 4, 4], "size cap")
    assert flat.outcome == "cap_exhausted"


def test_inconclusive_route():
    rep = delta_realizability(gen_diseq("0101", 1, I), max_steps=0)
    assert rep.route == "inconclusive"


@pytest.mark.parametrize("caps, note", [({"order_cap": 4}, "root order beyond cap 4"),
                                        ({"max_set": 4}, "closure size cap")])
def test_order_and_size_caps_exhaust(caps, note):
    # the process closes a group of order 8 at the default caps
    f = gen_diseq("0110", 1, Z(8, 1))
    assert generating_process(f)[0].outcome == "finite_group"
    desc, _ = generating_process(f, **caps)
    assert (desc.outcome, desc.note, desc.orders_seen) == ("cap_exhausted", note, ())


def test_gaussian_order_cap_exhausts():
    # i has order 4 in Q(i): a cap below it ends the process, as in Q(zeta_8)
    f = gen_diseq("0110", 1, I)
    assert generating_process(f, order_cap=4)[0].outcome == "finite_group"
    desc, _ = generating_process(f, order_cap=3)
    assert (desc.outcome, desc.note, desc.orders_seen) == (
        "cap_exhausted", "root order beyond cap 3", ())


def test_replay_of_a_ji_loop_recipe():
    # "ji" wires the weight vertex the other way round, swapping its weights
    f, w = gen_diseq("0110", 1, Z(8, 1)), Z(8, 3)
    recipe = LoopRecipe((0, 1), (LoopSpec(2, 3, w, "ji"),))
    got = replay_recipe(f, recipe, {})
    assert got == self_loop(f, 2, 3, BinaryDiseq(ONE, w), "ji")
    assert got != self_loop(f, 2, 3, BinaryDiseq(ONE, w), "ij")


def test_delta_realizability_fixtures():
    rep1 = delta_realizability(gen_diseq("0101", 1, I))
    assert rep1.descriptor.outcome == "finite_group" and rep1.descriptor.order == 4
    assert rep1.symmetry.kind == "conjugate_dual"
    assert rep1.symmetry.unit == I
    assert rep1.consistent

    rep2 = delta_realizability(gen_diseq("0101", 1, -1))
    assert rep2.descriptor.order == 2
    assert rep2.symmetry.kind == "dual_antisymmetric"
    assert rep2.consistent
    assert rep2.route.startswith("negation_regime")

    rep3 = delta_realizability(gen_diseq("0101", 1, 2))
    assert rep3.route == "interpolation"
    assert rep3.descriptor.value == V(2)

    rep4 = delta_realizability(diseq(4))
    assert rep4.route.startswith("symmetric_regime")
    assert rep4.symmetry.kind == "dual_symmetric"
    assert rep4.consistent


def test_equal_pair_gadget_flag():
    rep = delta_realizability(gen_diseq("0101", 2, 2))
    assert rep.equal_pair_gadget
    assert "equal_pair_gadget" in rep.route


def test_arity_2_has_no_equal_pair_gadget():
    # no quaternary gate can come from two ports, so the route keeps no suffix
    rep = delta_realizability(gen_diseq("10", 1, -1))
    assert not rep.equal_pair_gadget
    assert rep.route == "negation_regime" and rep.consistent


def _stub_layer(rounds):
    """A _loop_layer stand-in answering each round by len(weights): the one
    weight 1 in round 1, then the closure of the round before."""
    def layer(f, weights, state, work_cap):
        return {p: (LoopRecipe((0, 1), ()), p) for p in rounds[len(weights)]}
    return layer


def test_order_growth_route(monkeypatch):
    # -1, then i, then zeta_8: the group order climbs 2, 4, 8 up to the step cap
    monkeypatch.setattr(generate, "_loop_layer", _stub_layer({1: [V(-1)], 2: [I], 4: [Z(8, 1)]}))
    rep = delta_realizability(gen_diseq("0101", 1, 2), max_steps=3)
    assert rep.descriptor.outcome == "order_growth"
    assert rep.descriptor.orders_seen == (2, 4, 8)
    assert rep.descriptor.note == "group order kept growing (step cap)"
    assert rep.route == "root_lattice_interpolation"
    assert rep.consistent and rep.findings == []


@pytest.mark.parametrize("order, rounds, finding", [
    (4, {1: [I], 4: []}, "finite root group of order 4 but no conjugate-dual unit"),
    (2, {1: [V(-1)], 2: []}, "root group {1,-1} but the signature is not dual-antisymmetric"),
    (1, {1: []}, "root group {1} but the signature is not dual-symmetric"),
])
def test_finite_group_findings(monkeypatch, order, rounds, finding):
    # f(1010) = 2 f(0101) fits no symmetry, so every stubbed group contradicts it
    monkeypatch.setattr(generate, "_loop_layer", _stub_layer(rounds))
    rep = delta_realizability(gen_diseq("0101", 1, 2))
    assert (rep.descriptor.outcome, rep.descriptor.order) == ("finite_group", order)
    assert rep.symmetry.kind == "none"
    assert not rep.consistent and rep.findings == [finding]


def test_trivial_group_means_dual_symmetric():
    # cross-module check: whenever the generating process only ever reaches
    # the plain disequality, the signature equals its dual
    rng = random.Random(17)
    seen = 0
    for _ in range(40):
        f = from_entries(4, {m: V(rng.randint(-2, 2))
                             for m in (0b1100, 0b0011, 0b0110, 0b1001)
                             if rng.random() < 0.8})
        if f.is_zero() or not f.is_eo():
            continue
        desc, _ = generating_process(f)
        if desc.outcome == "finite_group" and desc.order == 1:
            seen += 1
            assert symmetry_class(f).kind == "dual_symmetric"
    assert seen > 0


def test_finite_group_conjugate_dual_library():
    # structural expectation across a library of constructed signatures:
    # order >= 3 groups force the conjugate-dual property
    rng = random.Random(13)
    library = [
        gen_diseq("0101", 1, I),
        gen_diseq("0110", 1, I),
        gen_diseq("001011", 1, I),
        gen_diseq("0101", I, 1),
        tensor(gen_diseq("01", 1, I), gen_diseq("01", 1, I)),
    ]
    for sig in library:
        desc, _ = generating_process(sig)
        if desc.outcome == "finite_group" and desc.order >= 3:
            rep = delta_realizability(sig)
            assert rep.consistent, (sig, rep.findings)


# -- the loop layer against the per-tuple reference and a per-combination fold ----


def _fold_loop_layer(f, weights, state, work_cap):
    """Every (pair, matching, weights, orientations) folded from f with
    self_loop, then normalized; the first recipe per parameter is kept."""
    n = f.arity
    d = n // 2
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            rest = [p for p in range(n) if p not in (i, j)]
            for matching in perfect_pairings(rest):
                for combo in itertools.product(weights, repeat=d - 1):
                    for orients in itertools.product(("ij", "ji"), repeat=d - 1):
                        state.work += 1
                        if state.work > work_cap:
                            raise generate._WorkCap()
                        g = f
                        live = list(range(n))
                        for (pa, pb), w, ori in zip(matching, combo, orients):
                            g = self_loop(g, live.index(pa), live.index(pb),
                                          BinaryDiseq(ONE, w), ori)
                            live.remove(pa)
                            live.remove(pb)
                        bd = as_binary_diseq(g)
                        if bd is None or bd.is_zero():
                            continue
                        param = bd.normalized()[0].b
                        if param not in out:
                            loops = tuple(LoopSpec(pa, pb, w, ori) for (pa, pb), w, ori
                                          in zip(matching, combo, orients))
                            out[param] = (LoopRecipe((i, j), loops),
                                          ZERO if bd.a.is_zero() else bd.b / bd.a)
    return out


def _dense_balanced(rng, arity):
    return from_entries(arity, {m: rand_nonzero_value(rng) for m in range(1 << arity)
                                if bin(m).count("1") * 2 == arity})


def _layer_cases():
    rng = random.Random(23)
    z8, z5 = Z(8, 1), Z(5, 1)
    # 00 and 11 cancel when ports 2, 3 close with weight 1 and ports 0, 1 dangle
    cancelling = from_entries(4, {"0001": 1, "0010": -1, "1101": 2, "1110": -2,
                                  "0101": 1, "0110": 2, "1001": 3, "1010": I})
    return [
        (gen_diseq("01", 1, I), (ONE,)),
        (gen_diseq("0101", 1, I), (ONE, I, V(-1), -I)),
        (gen_diseq("011001", 2, -I), (ONE, I)),
        (gen_diseq("01010101", 1, I), (ONE,)),
        (gen_diseq("0101", 1, z8), (ONE, z8, z8 * z8)),
        (gen_diseq("001101", z8, 1), (ONE, z8 ** 3)),
        (gen_diseq("01010101", 1, z8), (ONE, z8)),
        (gen_diseq("01", 2, z5), (ONE,)),
        (gen_diseq("1001", 1, z5), (ONE, z5, z5 ** 4)),
        (gen_diseq("010101", rand_cyclotomic(rng, 5), 1), (ONE, z5)),
        (gen_diseq("01010101", z5, 3), (ONE,)),
        (_dense_balanced(rng, 4), (ONE, I, V(2))),
        (_dense_balanced(rng, 6), (ONE, V(-1), I)),
        (cancelling, (ONE, V(2))),
    ]


def _is_group(weights):
    """1 first, distinct, and closed under products (so a finite group)."""
    have = set(weights)
    return (weights[0] == ONE and len(have) == len(weights)
            and all(p * q in have for p in weights for q in weights))


def _form_count(f, weights):
    """The work of one loop layer: one unit per (dangling pair, matching)
    whose gate is decided from its forms (no 01 or 10 term, or a coset of a
    group of weights), and one per (weight tuple, orientations) elsewhere."""
    n, loops = f.arity, f.arity // 2 - 1
    per_tuple = len(weights) ** loops * 2 ** loops
    group = _is_group(weights)
    bit = lambda s, p: s >> (n - 1 - p) & 1  # noqa: E731
    total = 0
    for i, j in itertools.combinations(range(n), 2):
        for matching in perfect_pairings([p for p in range(n) if p not in (i, j)]):
            reads = [2 * bit(s, i) + bit(s, j) for s in f.support()
                     if all(bit(s, pa) != bit(s, pb) for pa, pb in matching)]
            count = [reads.count(e) for e in range(4)]
            decided = (count[1] == count[2] == 0
                       or (group and count[0] == count[3] == 0 and count[1] == count[2] == 1))
            total += 1 if decided else per_tuple
    return total


def _per_tuple_count(f, weights):
    n, loops = f.arity, f.arity // 2 - 1
    return n * (n - 1) // 2 * pairing_count(n - 2) * (len(weights) * 2) ** loops


def _assert_layers_match(f, weights, fold=True):
    """The layer, the per-tuple reference and (with fold) the fold give the
    same items in the same order, each with its exact work."""
    new, ref = GeneratingState(), GeneratingState()
    got = generate._loop_layer(f, list(weights), new, generate.DEFAULT_WORK_CAP)
    want = reference_loop_layer(f, list(weights), ref, generate.DEFAULT_WORK_CAP)
    assert list(got.items()) == list(want.items()), (f, weights)
    assert new.work == _form_count(f, weights), (f, weights)
    assert ref.work == _per_tuple_count(f, weights), (f, weights)
    if fold:
        folded = GeneratingState()
        oracle = _fold_loop_layer(f, list(weights), folded, generate.DEFAULT_WORK_CAP)
        assert list(oracle.items()) == list(want.items()), (f, weights)
        assert folded.work == ref.work, (f, weights)
    return got


def test_loop_layer_matches_reference():
    for f, weights in _layer_cases():
        got = _assert_layers_match(f, weights)
        assert got, f
    # the last, cancelling case keeps the gate whose 00 and 11 entries cancel
    assert not f.is_eo()
    assert any(recipe.dangling == (0, 1) for recipe, _ in got.values())


def _roots(w, order):
    """The group generated by the root w, 1 first, in a seeded order."""
    rest = [w ** k for k in range(1, order)]
    random.Random(order).shuffle(rest)
    return (ONE, *rest)


def _seeded_layer_inputs():
    rng = random.Random(31)
    z8, z5, z12 = Z(8, 1), Z(5, 1), Z(12, 1)
    groups = [_roots(I, 4), _roots(z8, 8), _roots(-z5, 10), _roots(z12, 12)]
    cases = []
    for arity in (2, 4, 6):
        for group in groups:
            alpha = "".join(rng.sample("01" * (arity // 2), arity))
            w = rng.choice(group[1:])
            cases.append((gen_diseq(alpha, rng.choice((ONE, V(2), V(Fraction(1, 3)))), w), group))
    for arity in (4, 6):
        balanced = [m for m in range(1 << arity) if bin(m).count("1") * 2 == arity]
        for size in (3, 4):
            f = from_entries(arity, {m: rand_nonzero_value(rng)
                                     for m in rng.sample(balanced, size)})
            cases.append((f, rng.choice(groups[:2])))
    cases.append((_dense_balanced(rng, 4), groups[1]))
    cases.append((_dense_balanced(rng, 6), groups[0]))
    # one (pair, matching) gives the one value 1 from equal exponents, and a
    # later one the whole coset of 1: the first must not stand for the second
    cases.append((from_entries(6, {"010101": 1, "100101": I, "011100": -1, "100011": -I}),
                  groups[0]))
    return cases


def test_loop_layer_matches_reference_on_seeded_sets():
    cosets = folded = 0
    for f, weights in _seeded_layer_inputs():
        # the fold costs two self_loop calls per tuple, so it checks the smaller layers
        fold = _per_tuple_count(f, weights) <= 3000
        _assert_layers_match(f, weights, fold)
        cosets += _form_count(f, weights) < _per_tuple_count(f, weights)
        folded += fold
    assert cosets >= 12 and folded >= 14


def _run(f, layer, monkeypatch, **caps):
    with monkeypatch.context() as patch:
        patch.setattr(generate, "_loop_layer", layer)
        desc, state = generating_process(f, **caps)
    return desc.to_json(), repr(list(state.recipes.items())), repr(state.steps), state


def test_generating_process_matches_reference_layer(monkeypatch):
    rng = random.Random(37)
    sigs = [f for f, _ in _seeded_layer_inputs() if f.is_eo()]
    for w in (I, Z(8, 3), Z(5, 2), Z(12, 5)):
        for arity in (2, 4, 6):
            sigs.append(gen_diseq("".join(rng.sample("01" * (arity // 2), arity)), ONE, w))
    outcomes = set()
    for f in sigs:
        new = _run(f, generate._loop_layer, monkeypatch)
        ref = _run(f, reference_loop_layer, monkeypatch)
        assert new[:3] == ref[:3], f
        assert new[3].work <= ref[3].work
        outcomes.add(new[0]["outcome"])
    assert {"finite_group", "non_root"} <= outcomes


@pytest.mark.parametrize("sig", [gen_diseq("0101", 1, Z(8, 1)),
                                 gen_diseq("011001", 1, 2),
                                 gen_diseq("0101", 1, I)])
def test_work_cap_matches_reference(sig, monkeypatch):
    desc_full, full = generating_process(sig)
    need = full.work
    # each round's layer runs over the closure of the round before it
    layers = [(ONE,)] + [(ONE, *(p for p in step.closure_params if p != ONE))
                         for step in full.steps]
    ran = len(full.steps) + (desc_full.outcome != "finite_group")
    assert need == sum(_form_count(sig, weights) for weights in layers[:ran])
    n = sig.arity  # the first layer, over the one weight 1, is one coset per (pair, matching)
    first = n * (n - 1) // 2 * pairing_count(n - 2)
    ref = _run(sig, reference_loop_layer, monkeypatch)
    assert (desc_full.to_json(), repr(list(full.recipes.items())), repr(full.steps)) == ref[:3]
    for cap in sorted({first - 1, first, first + 1, need - 1, need, need + 1}):
        desc, recipes, steps, state = _run(sig, generate._loop_layer, monkeypatch, work_cap=cap)
        if cap < need:
            assert desc["outcome"] == "cap_exhausted"
            assert desc["note"] == "loop enumeration work cap"
            assert state.work == cap + 1
        else:
            assert state.work == need
            assert (desc, recipes, steps) == ref[:3]
    # the reference layer and the fold count one unit per (weight tuple,
    # orientations), and agree at every cap around their own need
    per_tuple_need, per_tuple_first = ref[3].work, first * 2 ** (n // 2 - 1)
    notes = []
    for cap in sorted({per_tuple_first - 1, per_tuple_first, per_tuple_first + 1,
                       per_tuple_need - 1, per_tuple_need, per_tuple_need + 1}):
        runs = [_run(sig, layer, monkeypatch, work_cap=cap)
                for layer in (reference_loop_layer, _fold_loop_layer)]
        assert runs[0][:3] == runs[1][:3] and runs[0][3].work == runs[1][3].work, cap
        notes.append(runs[0][0]["note"])
    assert "loop enumeration work cap" in notes


@pytest.mark.parametrize("alpha", ["11110000", "01011001", "01010101"])
@pytest.mark.parametrize("k", [1, 3])
def test_arity_8_zeta_8_decided_at_default_caps(alpha, k):
    start = time.perf_counter()
    desc, _ = generating_process(gen_diseq(alpha, 1, Z(8, k)))
    assert (desc.outcome, desc.order) == ("finite_group", 8)
    assert time.perf_counter() - start < 2.0


def _counting_root_order(monkeypatch, process, f):
    """process(f) as (descriptor, recipes, steps, work), and its root_order calls."""
    calls = []

    def counting(x, cap=DEFAULT_ORDER_CAP):
        calls.append(x)
        return root_order(x, cap)

    with monkeypatch.context() as patch:
        patch.setattr(generate, "root_order", counting)
        desc, state = process(f)
    return (desc.to_json(), repr(list(state.recipes.items())), repr(state.steps),
            state.work), calls, state


def test_root_order_skipped_inside_the_closure(monkeypatch):
    # the benchmark's realizability inputs: arity-4 disequalities with a
    # zeta_8 or zeta_5 weight and arity-6 ones off the circle; then arity 8
    sigs = [gen_diseq(a, 1, Z(n, k)) for a in ("0011", "0101", "0110", "1001", "1010", "1100")
            for n, ks in ((8, (1, 3, 5, 7)), (5, (1, 2, 3, 4))) for k in ks]
    sigs += [gen_diseq(a, 1, w) for a in ("011001", "101010")
             for w in (V(2), V(3), ExactValue.gauss(1, 1), ExactValue.gauss(2, -1))]
    sigs += [gen_diseq(a, 1, Z(8, k)) for a in ("11110000", "01011001", "01010101")
             for k in (1, 3)]
    outcomes = set()
    skipped = 0
    for f in sigs:
        got, calls, state = _counting_root_order(monkeypatch, generating_process, f)
        want, ref_calls, _ = _counting_root_order(monkeypatch, reference_generating_process, f)
        assert got == want, f
        outcomes.add(got[0]["outcome"])
        skipped += len(ref_calls) - len(calls)
        if got[0]["outcome"] == "finite_group":
            # one call per layer parameter outside the closure it was built on
            before = [(ONE,)] + [step.closure_params for step in state.steps]
            outside = [p for step, prior in zip(state.steps, before)
                       for p in step.loop_params if p not in prior]
            assert sorted(calls, key=str) == sorted(outside, key=str)
    assert outcomes == {"finite_group", "non_root"}
    assert skipped >= len(sigs)


def test_order_lcm_is_lcm_of_closure_root_orders():
    # each round's group order, taken from the generators, equals the lcm of
    # root_order over every element of that round's closure
    rng = random.Random(29)
    sigs = [f for f, _ in _layer_cases()]
    for _ in range(24):
        pattern = rng.choice(["01", "0101", "0110", "1001", "001011", "011001"])
        n = rng.choice([2, 4, 8, 12, 5])
        sigs.append(gen_diseq(pattern, Z(n, rng.randrange(n)), Z(n, rng.randrange(n))))
    nontrivial = 0
    for f in sigs:
        if not f.is_eo():
            continue
        _, state = generating_process(f)
        for step in state.steps:
            cap = max(DEFAULT_ORDER_CAP, len(step.closure_params) + 1)
            want = 1
            for p in step.closure_params:
                want = lcm(want, root_order(p, cap).order)
            assert step.order_lcm == want, (f, step)
            nontrivial += want > 1
    assert nontrivial >= 10
