import itertools
import json
import random
from collections import Counter

import pytest

from eoexact import f2
from eoexact.classify import (
    AffineCertificate,
    PairingClassReport,
    ProductCertificate,
    RebalanceResult,
    Refutation,
    dichotomy_verdict,
    is_rebalancing,
    membership,
    membership_affine,
    membership_all_pairings,
    membership_product,
    pairing_count,
    perfect_pairings,
    restrict_to_pairing,
    symmetry_class,
    triple_class,
    verdict_extended,
)
from eoexact.errors import CapExceeded, EmptySet, ModeViolation, NotEO, ZeroSignature
from eoexact.signatures import (
    Signature,
    diseq,
    dual,
    from_entries,
    gen_diseq,
    neq2,
    permute,
    pin_pair,
    symmetric,
    tensor,
)
from eoexact.values import ExactValue, I, ONE, ZERO
from paper import (
    PairingViolation,
    diseq_embedding,
    equality,
    find_pairing,
    is_pure,
    natural_pairing,
    pairing_sections,
)
from tests_helpers import (
    galois,
    rand_affine_signature,
    rand_cyclotomic,
    rand_eo_signature,
    rand_nonzero_value,
    rand_product_signature,
    reference_is_rebalancing,
    reference_membership_affine,
    reference_membership_all_pairings,
    reference_membership_product,
    reference_pairing_search,
)

V = ExactValue.rational


def m_delta1(values=(1, 1, 1)):
    a, b, c = values
    return from_entries(4, {"1100": a, "1010": b, "1001": c})


# -- triple classification ---------------------------------------------------


def test_triple_class_examples():
    tc = triple_class(from_entries(4, {"0011": 1, "0101": 1, "1010": 1}))
    assert tc.gap is not None
    assert f2.mask_to_string(tc.gap.delta, 4) == "1100"

    tc2 = triple_class(m_delta1())
    assert tc2.heavy is not None
    assert f2.mask_to_string(tc2.heavy.delta, 4) == "1111"
    assert tc2.gap is None and tc2.light is None
    assert tc2.all_up and not tc2.all_down

    tc3 = triple_class(gen_diseq("0101", 1, 1))
    assert tc3.gap is None and tc3.heavy is None and tc3.light is None
    assert tc3.all_up and tc3.all_down

    with pytest.raises(NotEO):
        triple_class(symmetric([1, 1, 1]))


def test_triple_class_witness_validity():
    rng = random.Random(101)
    for _ in range(20):
        f = rand_eo_signature(rng, 6, nonzero=True)
        tc = triple_class(f)
        supp = set(f.support())
        for wit, where in ((tc.gap, "gap"), (tc.heavy, "heavy"), (tc.light, "light")):
            if wit is None:
                continue
            assert {wit.alpha, wit.beta, wit.gamma} <= supp
            assert wit.delta == wit.alpha ^ wit.beta ^ wit.gamma
            excess = f2.weight_excess(wit.delta, 6)
            if where == "gap":
                assert excess == 0 and wit.delta not in supp
            elif where == "heavy":
                assert excess > 0
            else:
                assert excess < 0


def test_triple_symmetry_and_duality():
    from eoexact.signatures import dual
    rng = random.Random(7)
    for _ in range(15):
        f = rand_eo_signature(rng, 4, nonzero=True)
        tc = triple_class(f)
        td = triple_class(dual(f))
        assert (tc.heavy is not None) == (td.light is not None)
        assert (tc.light is not None) == (td.heavy is not None)
        assert (tc.gap is not None) == (td.gap is not None)


# -- purity -------------------------------------------------------------------


def test_is_pure_examples():
    assert is_pure(m_delta1(), "up")
    assert not is_pure(m_delta1(), "down")

    pairwise = gen_diseq("0101", 1, 1)
    assert is_pure(pairwise, "up") and is_pure(pairwise, "down")

    # affine span = odd xors only: {0011,0101,1010,1100}, all balanced,
    # so this support is pure in both directions (its linear span would
    # contain 0000, but purity is about the affine span)
    f = from_entries(4, {"0011": 1, "0101": 1, "1010": 1})
    assert is_pure(f, "up") and is_pure(f, "down")

    g = from_entries(4, {"0011": 1, "0101": 1, "0110": 1})
    assert not is_pure(g, "up")  # affine span contains 0000
    assert is_pure(g, "down")


def test_pure_excludes_wrong_direction_triples():
    rng = random.Random(55)
    seen_pure = 0
    for _ in range(200):
        f = rand_eo_signature(rng, rng.choice([4, 6]), density=0.4, nonzero=True)
        tc = triple_class(f)
        if is_pure(f, "up"):
            seen_pure += 1
            assert tc.light is None
        if is_pure(f, "down"):
            assert tc.heavy is None
    assert seen_pure > 0


def test_pure_does_not_exclude_gap_triples():
    # span containment controls weights only: this support is pure in both
    # directions yet has a balanced-but-unsupported triple xor
    f = from_entries(4, {"1100": 1, "1010": 1, "0101": 1})
    assert is_pure(f, "up") and is_pure(f, "down")
    tc = triple_class(f)
    assert tc.gap is not None
    assert f2.mask_to_string(tc.gap.delta, 4) == "0011"


# -- pairings -----------------------------------------------------------------


def test_pairing_enumeration_count():
    assert pairing_count(4) == 3
    assert pairing_count(6) == 15
    assert len(list(perfect_pairings(range(6)))) == 15


def _naive_pairings(ports):
    """Reference enumeration: the lowest port pairs with each other port in
    increasing order, then the rest are paired the same way."""
    ports = sorted(ports)
    if not ports:
        return [()]
    first, rest = ports[0], ports[1:]
    return [((first, partner),) + tail
            for k, partner in enumerate(rest)
            for tail in _naive_pairings(rest[:k] + rest[k + 1:])]


def _naive_pairing_report(f, cls):
    checked = vacuous = 0
    for pairing in _naive_pairings(range(f.arity)):
        checked += 1
        restricted = restrict_to_pairing(f, pairing)
        if restricted.is_zero():
            vacuous += 1
            continue
        result = membership(restricted, cls)
        if isinstance(result, Refutation):
            return PairingClassReport(cls, False, checked, vacuous, pairing, result)
    return PairingClassReport(cls, True, checked, vacuous)


def _naive_find_pairing(f):
    return next((p for p in _naive_pairings(range(f.arity))
                 if restrict_to_pairing(f, p) == f), None)


def test_perfect_pairings_order():
    for ports in [range(n) for n in range(9)] + [[5, 1, 3, 7], [9, 2, 4, 0, 3, 8]]:
        got = list(perfect_pairings(ports))
        assert got == _naive_pairings(ports)
        if len(ports) % 2 == 0:
            # lexicographic, without repeats, and all of them
            assert got == sorted(set(got))
            assert len(got) == pairing_count(len(ports))
        else:
            assert got == []
    assert list(perfect_pairings([5, 1, 3, 7])) == [
        ((1, 3), (5, 7)), ((1, 5), (3, 7)), ((1, 7), (3, 5))]


def _search_signatures(rng):
    """Seeded signatures of arity 0-12 for the pairing search: zero, diseq(k),
    diseq(2)^k, dense and sparse; affine and product up to arity 10, whose
    945 pairings are a tenth of arity 12's."""
    sigs = [Signature(n, {}) for n in range(13)]
    t = neq2()
    for arity in range(2, 13, 2):
        sigs += [diseq(arity), t,
                 rand_eo_signature(rng, arity, density=0.9, nonzero=True),
                 rand_eo_signature(rng, arity, density=0.1, nonzero=True)]
        if arity < 12:
            sigs += [rand_affine_signature(rng, arity), rand_product_signature(rng, arity)]
            t = tensor(t, neq2())
    return sigs


def _decoded_search(ports, cols, supp, need):
    """paper._pairing_search over all of supp, each kept set as its masks."""
    from paper import _pairing_search
    out = []
    for pairing, kept in _pairing_search(ports, cols, (1 << len(supp)) - 1, need):
        masks = []
        while kept:
            low = kept & -kept
            masks.append(supp[low.bit_length() - 1])
            kept ^= low
        out.append((pairing, tuple(masks)))
    return out


def test_pairing_search_matches_tuple_reference():
    # whole yield sequences: pairings and kept sets
    rng = random.Random(2027)
    for f in _search_signatures(rng):
        supp = f.support()
        cols = f2.columns(supp, f.arity)
        for need in sorted({0, 1, len(supp)}):
            assert _decoded_search(range(f.arity), cols, supp, need) == \
                list(reference_pairing_search(range(f.arity), f.arity, supp, need)), (f, need)
    for ports in ([5, 1, 3, 7], [9, 2, 4, 0, 3, 8]):
        assert _decoded_search(ports, [0] * 10, (), 0) == \
            list(reference_pairing_search(ports, 0, (), 0))
        assert list(perfect_pairings(ports)) == \
            [pairing for pairing, _ in reference_pairing_search(ports, 0, (), 0)]


def _balanced_part(f):
    return Signature(f.arity, {m: v for m, v in f.entries.items()
                               if f2.is_balanced(m, f.arity)})


def _rand_gen_diseq(rng, arity):
    """gen_diseq on a seeded balanced alpha; the values' ratio is a power of
    i or 2, so both classes hold on some inputs and fail on others."""
    alpha = rng.choice([m for m in range(1 << arity) if f2.is_balanced(m, arity)])
    return gen_diseq(f2.mask_to_string(alpha, arity), ONE, rng.choice([ONE, I, -ONE, -I, V(2)]))


def test_pairing_quantifier_matches_naive_reference():
    rng = random.Random(606)
    sigs = [from_entries(0, {0: 3}), Signature(6, {}), Signature(5, {}), diseq(8),
            m_delta1((1, 1, 2))]
    for arity in (2, 4, 6, 8, 10):
        for _ in range(4):
            sigs.append(rand_eo_signature(rng, arity, density=0.1))
            sigs.append(rand_eo_signature(rng, arity, density=0.9))
            sigs.append(_balanced_part(rand_affine_signature(rng, arity)))
            sigs.append(_balanced_part(rand_product_signature(rng, arity)))
    # inputs whose walks meet one (free ports, kept strings) subtree many times
    for arity in (6, 8, 10, 12):
        sigs += [_rand_gen_diseq(rng, arity) for _ in range(3)]
    for arity in (8, 10, 12):
        sigs += [tensor(_rand_gen_diseq(rng, 4), _rand_gen_diseq(rng, arity - 4))
                 for _ in range(2)]
    neq2_6 = neq2()
    for _ in range(5):
        neq2_6 = tensor(neq2_6, neq2())
    sigs += [diseq(12), neq2_6]
    tally = {True: 0, False: 0}
    for f in sigs:
        assert find_pairing(f) == _naive_find_pairing(f)
        if f.is_zero():
            with pytest.raises(ZeroSignature):
                membership_all_pairings(f, "affine")
            continue
        for cls in ("affine", "product"):
            got = membership_all_pairings(f, cls)
            assert got.to_json() == _naive_pairing_report(f, cls).to_json()
            tally[got.ok] += 1
    assert tally[True] > 20 and tally[False] > 20


def test_pairing_quantifier_runs_membership_once_per_restriction(monkeypatch):
    from eoexact import classify
    calls = []

    def counting(f, cls):
        calls.append(cls)
        return membership(f, cls)

    monkeypatch.setattr(classify, "membership", counting)
    v = dichotomy_verdict([diseq(12)])
    # 720 pairings keep all of diseq(12)'s support, the rest keep none; both
    # classes pass at the root, so no leaf runs membership
    assert sorted(calls) == ["affine", "product"]
    for key in ("pairing_affine", "pairing_product"):
        report = v.per_signature[0][key]
        assert report["ok"]
        assert report["pairings_checked"] == 10395 and report["vacuous"] == 9675
    # diseq(2)^6 has 1 539 distinct nonempty restrictions, all below a root
    # that passes both classes
    d2_6 = neq2()
    for _ in range(5):
        d2_6 = tensor(d2_6, neq2())
    calls.clear()
    assert dichotomy_verdict([d2_6]).outcome == "fp"
    assert sorted(calls) == ["affine", "product"]


def _walk_signatures(rng):
    """diseq(2)^k for k <= 6, diseq(2..12), gen_diseq and tensors of it, the
    balanced parts of affine and product members, and sparse and dense
    random supports of arity 4-10."""
    sigs, t = [], neq2()
    for k in range(1, 7):
        sigs.append(t)
        t = tensor(t, neq2())
    sigs += [diseq(k) for k in range(2, 13, 2)]
    for arity in (4, 6, 8, 10, 12):
        sigs += [_rand_gen_diseq(rng, arity) for _ in range(3)]
    for arity in (6, 8, 10):
        sigs += [tensor(_rand_gen_diseq(rng, 2), _rand_gen_diseq(rng, arity - 2)),
                 tensor(rand_eo_signature(rng, 4, 0.5, nonzero=True),
                        rand_eo_signature(rng, arity - 4, 0.3, nonzero=True))]
    for arity in (4, 6, 8, 10):
        for density in (0.05, 0.2, 0.5, 0.9):
            sigs.append(rand_eo_signature(rng, arity, density, nonzero=True))
        for g in (rand_affine_signature(rng, arity), rand_product_signature(rng, arity)):
            if not _balanced_part(g).is_zero():
                sigs.append(_balanced_part(g))
    return sigs


def test_shared_pairing_walk_matches_memoized_reference():
    # the one-class walk that runs every leaf: counts, failing pairing and
    # refutation, for each class alone and for both classes in one walk
    from eoexact.classify import _pairing_walk
    tally = Counter()
    for f in _walk_signatures(random.Random(3101)):
        want = [reference_membership_all_pairings(f, cls) for cls in ("affine", "product")]
        assert _pairing_walk(f, ("affine", "product")) == want, f
        assert _pairing_walk(f, ("product", "affine")) == want[::-1], f
        for rep in want:
            assert membership_all_pairings(f, rep.cls) == rep, (f, rep.cls)
            tally[rep.cls, rep.ok] += 1
    assert min(tally.values()) >= 10, tally


def test_rebalancing_matches_recursive_reference():
    # the search that recurses on every candidate's residual: byte-identical
    # reports, failing ports included
    outcomes = Counter()
    for f in _walk_signatures(random.Random(3102)):
        for b in (0, 1):
            got = is_rebalancing(f, b)
            assert json.dumps(got.to_json()) == \
                json.dumps(reference_is_rebalancing(f, b).to_json()), (f, b)
            outcomes[b, got.ok] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_class_membership_passes_on_every_pairing_restriction():
    # the closure lemma behind the walk: a restriction to a pairing multiplies
    # by binary disequalities, which keeps the affine and the product class
    rng = random.Random(3103)
    checked = Counter()
    for arity in (2, 4, 6, 8):
        for _ in range(12):
            for cls, draw in (("affine", rand_affine_signature),
                              ("product", rand_product_signature)):
                f = draw(rng, arity)
                if arity <= 4:
                    f = tensor(f, draw(rng, 4))
                assert not isinstance(membership(f, cls), Refutation), (f, cls)
                for pairing in perfect_pairings(range(f.arity)):
                    g = restrict_to_pairing(f, pairing)
                    if not g.is_zero():
                        assert not isinstance(membership(g, cls), Refutation), (f, cls, pairing)
                        checked[cls] += 1
    assert checked["affine"] >= 300 and checked["product"] >= 300, checked


def test_find_pairing_examples():
    p = find_pairing(diseq(4))
    assert p in (((0, 2), (1, 3)), ((0, 3), (1, 2)))

    assert find_pairing(m_delta1()) is None

    t = tensor(neq2(), tensor(neq2(), neq2()))
    assert find_pairing(t) == ((0, 1), (2, 3), (4, 5))


def _check_pairing_properties(f):
    """Affine support guarantees a pairing; any found pairing is genuinely
    opposite on the whole affine span of the support."""
    supp = f.support()
    span = f2.f2_affine_span(supp, f.arity)
    affine = span.size() == len(supp)
    p = find_pairing(f)
    if affine:
        assert p is not None
    if p is not None:
        for el in span.elements():
            for i, j in p:
                assert f2.bit_at(el, i, f.arity) != f2.bit_at(el, j, f.arity)
    return affine, p


def test_pairing_exhaustive_arity4():
    balanced = [m for m in range(16) if f2.is_balanced(m, 4)]
    for picks in range(1, 1 << len(balanced)):
        supp = [m for i, m in enumerate(balanced) if (picks >> i) & 1]
        f = from_entries(4, {m: 1 for m in supp})
        _check_pairing_properties(f)


def test_pairing_found_without_affine_support():
    # pairwise-opposite does not force an affine support: three of the four
    # strings opposite on {(x1,x2),(x3,x4)} have a pairing but no affine span
    f = from_entries(4, {"0101": 1, "1010": 1, "0110": 1})
    affine, p = _check_pairing_properties(f)
    assert not affine and p == ((0, 1), (2, 3))


def test_pairing_random_arity6():
    rng = random.Random(23)
    for _ in range(60):
        f = rand_eo_signature(rng, 6, density=rng.choice([0.1, 0.3, 0.8]), nonzero=True)
        _check_pairing_properties(f)


# -- affine membership ---------------------------------------------------------


def test_membership_affine_examples():
    cert = membership_affine(gen_diseq("01", 1, I))
    assert isinstance(cert, AffineCertificate)
    assert cert.verify(gen_diseq("01", 1, I))
    assert cert.lin == (1,)

    ref = membership_affine(gen_diseq("01", 1, 2))
    assert isinstance(ref, Refutation)
    assert ref.stage == "ratio_not_power_of_i"

    f = from_entries(4, {"0101": 1, "1010": 1, "0110": 1, "1001": -1})
    cert2 = membership_affine(f)
    assert isinstance(cert2, AffineCertificate)
    assert cert2.verify(f)
    assert [mu for _, _, mu in cert2.quad] == [1]

    with pytest.raises(ZeroSignature):
        membership_affine(from_entries(2, {}))


def test_membership_affine_nonaffine_support():
    ref = membership_affine(m_delta1())
    assert isinstance(ref, Refutation)
    assert ref.stage == "support_not_affine"
    assert ref.witness == "1111"


def test_membership_affine_random_roundtrip():
    rng = random.Random(31)
    for _ in range(40):
        f = rand_affine_signature(rng, rng.choice([2, 3, 4, 5]))
        cert = membership_affine(f)
        assert isinstance(cert, AffineCertificate), f
        assert cert.verify(f)


def test_membership_affine_rejects_perturbed():
    rng = random.Random(37)
    hits = 0
    for _ in range(40):
        f = rand_affine_signature(rng, 4)
        supp = f.support()
        m = rng.choice(supp)
        g = from_entries(4, {**{s: f.value(s) for s in supp}, m: f.value(m) * 3})
        got = membership_affine(g)
        if isinstance(got, Refutation):
            hits += 1
        else:
            assert got.verify(g)
    assert hits > 10


@pytest.mark.parametrize("order", [None, 8, 5], ids=["gauss", "zeta8", "zeta5"])
def test_membership_affine_matches_division_reference(order):
    # the same certificate or refutation as with one division per string;
    # Q(zeta_5) lacks i, so there only +-scale can match
    rng = random.Random(43)
    units = [ONE, V(-1)] if order == 5 else [ONE, I, V(-1), -I]
    stages = Counter()
    for _ in range(80):
        n = rng.randint(1, 5)
        f = rand_affine_signature(rng, n, n)
        values = {m: rng.choice(units) if order == 5 else f.value(m) for m in f.support()}
        if rng.random() < 0.5:
            m = rng.choice(list(values))
            values[m] = values[m] * rng.choice([*units, V(3), V(3)])
        scale = ZERO
        while scale.is_zero():
            scale = rand_nonzero_value(rng) if order is None else rand_cyclotomic(rng, order)
        g = from_entries(n, {m: scale * v for m, v in values.items()})
        got = membership_affine(g)
        assert got == reference_membership_affine(g)
        stages[got.stage if isinstance(got, Refutation) else "certificate"] += 1
    assert stages["certificate"] >= 30 and stages["ratio_not_power_of_i"] >= 5


# -- product membership ---------------------------------------------------------


def test_membership_product_examples():
    f = gen_diseq("0101", 2, 3)
    cert = membership_product(f)
    assert isinstance(cert, ProductCertificate)
    assert cert.verify(f)
    assert len(cert.groups) == 1
    assert cert.groups[0].ports == (0, 1, 2, 3)
    assert cert.groups[0].parities == (0, 1, 0, 1)

    ref = membership_product(m_delta1())
    assert isinstance(ref, Refutation)
    assert ref.stage == "support_not_product"

    e3 = equality(3)
    cert3 = membership_product(e3)
    assert isinstance(cert3, ProductCertificate)
    assert cert3.verify(e3)
    assert len(cert3.groups) == 1 and cert3.groups[0].parities == (0, 0, 0)


def test_membership_product_random_roundtrip():
    rng = random.Random(41)
    for _ in range(40):
        f = rand_product_signature(rng, rng.choice([1, 2, 3, 4, 5]))
        cert = membership_product(f)
        assert isinstance(cert, ProductCertificate), f
        assert cert.verify(f)


def _with_extra_port(f):
    """f with a port appended that every support string reads as 0."""
    return from_entries(f.arity + 1, {m << 1: f.value(m) for m in f.support()})


def _replaced(items, k, item):
    return items[:k] + (item,) + items[k + 1:]


def test_affine_certificate_rejects_each_mutation():
    rng = random.Random(53)
    seen = Counter()
    for _ in range(60):
        f = rand_affine_signature(rng, rng.randint(2, 6), 6)
        cert = membership_affine(f)
        assert cert.verify(f)
        mutants = {"lam": cert._replace(lam=cert.lam * I)}
        if cert.lin:
            k = rng.randrange(len(cert.lin))
            mutants["lin"] = cert._replace(lin=_replaced(cert.lin, k, (cert.lin[k] + 1) % 4))
        if cert.quad:
            k = rng.randrange(len(cert.quad))
            i, j, mu = cert.quad[k]
            mutants["quad"] = cert._replace(quad=_replaced(cert.quad, k, (i, j, 1 - mu)))
        for kind, bad in mutants.items():
            assert not bad.verify(f), (kind, f)
            seen[kind] += 1
        assert not cert.verify(_with_extra_port(f))
    assert min(seen[kind] for kind in ("lam", "lin", "quad")) >= 20


def test_product_certificate_rejects_each_mutation():
    rng = random.Random(59)
    seen = Counter()
    for _ in range(60):
        f = rand_product_signature(rng, rng.randint(1, 6))
        cert = membership_product(f)
        assert cert.verify(f)
        mutants = {"lam": cert._replace(lam=cert.lam * I)}
        differ = [k for k, g in enumerate(cert.groups) if g.w0 != g.w1]
        if differ:
            k = rng.choice(differ)
            g = cert.groups[k]
            mutants["swap"] = cert._replace(
                groups=_replaced(cert.groups, k, g._replace(w0=g.w1, w1=g.w0)))
        if cert.pins:
            k = rng.randrange(len(cert.pins))
            port, bit = cert.pins[k]
            mutants["pin"] = cert._replace(pins=_replaced(cert.pins, k, (port, 1 - bit)))
        for kind, bad in mutants.items():
            assert not bad.verify(f), (kind, f)
            seen[kind] += 1
        assert not cert.verify(_with_extra_port(f))
    assert min(seen[kind] for kind in ("lam", "swap", "pin")) >= 20


def test_membership_product_matches_rescan_reference():
    # whole results, certificates and refutation witnesses alike; a product
    # support has its values perturbed or a string added or dropped, and a
    # random support keeps each string with a random density
    rng = random.Random(47)
    stages = Counter()
    for t in range(2400):
        n = rng.randint(1, 7)
        if t % 2:
            f = rand_product_signature(rng, n)
            entries = {m: f.value(m) for m in f.support()}
            r = rng.random()
            if r < 0.15:
                m = rng.choice(list(entries))
                entries[m] = entries[m] * rand_nonzero_value(rng)
            elif r < 0.3:
                entries[rng.randrange(1 << n)] = rand_nonzero_value(rng)
            elif r < 0.4 and len(entries) > 1:
                del entries[rng.choice(list(entries))]
        else:
            density = rng.random()
            entries = {m: rand_nonzero_value(rng) for m in range(1 << n) if rng.random() < density}
            entries = entries or {rng.randrange(1 << n): rand_nonzero_value(rng)}
        f = from_entries(n, entries)
        got = membership_product(f)
        assert got == reference_membership_product(f), f
        stages[got.stage if isinstance(got, Refutation) else "certificate"] += 1
    assert stages["certificate"] >= 800 and stages["support_not_product"] >= 800
    assert stages["values_not_rank_one"] >= 50


# -- per-pairing class tests -----------------------------------------------------


def test_membership_all_pairings_examples():
    f = tensor(gen_diseq("01", 1, I), gen_diseq("01", 1, I))
    rep = membership_all_pairings(f, "affine")
    assert rep.ok and rep.pairings_checked == 3

    g = m_delta1((1, 1, 2))
    assert membership_all_pairings(g, "product").ok
    rep2 = membership_all_pairings(g, "affine")
    assert not rep2.ok
    assert rep2.failure.stage == "ratio_not_power_of_i"

    h = from_entries(4, {"0011": 1, "0101": 1, "1010": 1})
    assert not membership_all_pairings(h, "product").ok
    assert not membership_all_pairings(h, "affine").ok

    with pytest.raises(CapExceeded):
        membership_all_pairings(rand_eo_signature(random.Random(1), 14, nonzero=True),
                                "product")


def test_class_membership_implies_pairing_class():
    rng = random.Random(43)
    checked = 0
    for _ in range(30):
        f = rand_affine_signature(rng, 4)
        if f.is_eo():
            checked += 1
            assert membership_all_pairings(f, "affine").ok
    for _ in range(30):
        f = rand_product_signature(rng, 4)
        if f.is_eo():
            checked += 1
            assert membership_all_pairings(f, "product").ok
    assert checked > 5


def test_restriction_keeps_only_opposite_strings():
    f = m_delta1((1, 1, 2))
    r = restrict_to_pairing(f, ((0, 1), (2, 3)))
    assert sorted(r.support_strings()) == ["1001", "1010"]


# -- rebalancing -----------------------------------------------------------------


def test_rebalancing_examples():
    res = is_rebalancing(diseq(4), 0)
    assert res.ok
    assert res.chain  # explicit partner chain at the top level

    const = Signature(0, {0: V(7)})
    assert is_rebalancing(const, 0).ok
    assert is_rebalancing(const, 1).ok

    # decided by the exhaustive recursion: the all-heavy triple signature
    # rebalances at 0 (unreachable pinnings leave zero residuals) but not at 1
    f = m_delta1()
    assert is_rebalancing(f, 0).ok
    r1 = is_rebalancing(f, 1)
    assert not r1.ok
    assert r1.failing_port == 0

    # dual situation: all-light triples block rebalancing at 0
    g = from_entries(4, {"0011": 1, "0101": 1, "0110": 1})
    r0 = is_rebalancing(g, 0)
    assert not r0.ok
    assert is_rebalancing(g, 1).ok


def _reference_rebalancing(f: Signature, b: int) -> RebalanceResult:
    """The partner search on Signatures: pin each pair with pin_pair and
    memoize on the residual signature itself."""
    memo: dict = {}

    def partner(sig, x):
        n = sig.arity
        for y in range(n):
            both = (1 << (n - 1 - x)) | (1 << (n - 1 - y))
            clash = both if b else 0
            if y == x or any(m & both == clash for m in sig.support()):
                continue
            sub = rec(pin_pair(sig, x, y, f"{b}{1 - b}"))
            if sub is not None:
                return y, sub
        return None

    def rec(sig):
        if sig in memo:
            return memo[sig]
        if sig.arity == 0 or sig.is_zero():
            memo[sig] = "leaf"
            return "leaf"
        memo[sig] = None
        chain = {}
        for x in range(sig.arity):
            found = partner(sig, x)
            if found is None:
                return None
            chain[x] = {"partner": found[0], "residual": found[1]}
        memo[sig] = chain
        return chain

    result = rec(f)
    if result is None:
        failing = next((x for x in range(f.arity) if partner(f, x) is None), None)
        return RebalanceResult(False, b, failing_port=failing)
    return RebalanceResult(True, b, chain=result if result != "leaf" else {})


def _balanced_sub_support(rng: random.Random, arity: int) -> list[int]:
    strings = [m for m in range(1 << arity) if f2.is_balanced(m, arity)]
    keep = rng.choice([len(strings), rng.randint(1, len(strings))])
    return sorted(rng.sample(strings, keep))


def test_rebalancing_matches_signature_reference():
    rng = random.Random(151)
    sigs = []
    for arity in (2, 4, 6, 8, 10):
        for _ in range({2: 4, 4: 30, 6: 30, 8: 12, 10: 4}[arity]):
            sigs.append(Signature(arity, {m: rand_nonzero_value(rng) for m in
                                          _balanced_sub_support(rng, arity)}))
    # 2-string supports {alpha, ~alpha} and their tensors
    for arity, left in ((4, 2), (6, 2), (8, 4), (10, 4)):
        sigs += [_rand_gen_diseq(rng, arity) for _ in range(3)]
        sigs += [tensor(_rand_gen_diseq(rng, left), _rand_gen_diseq(rng, arity - left))
                 for _ in range(3)]
    outcomes = set()
    for f in sigs:
        for b in (0, 1):
            got = is_rebalancing(f, b)
            assert got.to_json() == _reference_rebalancing(f, b).to_json(), (f, b)
            outcomes.add((f.arity, got.ok))
    assert {ok for _, ok in outcomes} == {True, False}


def test_rebalancing_trace_reads_support_only():
    rng = random.Random(152)
    for arity in (4, 6, 8):
        supp = _balanced_sub_support(rng, arity)
        f = Signature(arity, {m: rand_nonzero_value(rng) for m in supp})
        g = Signature(arity, {m: rand_nonzero_value(rng) + 7 for m in supp})
        assert f != g
        for b in (0, 1):
            assert is_rebalancing(f, b).to_json() == is_rebalancing(g, b).to_json()


def test_rebalancing_implies_gap_or_all_up():
    rng = random.Random(47)
    seen = 0
    for _ in range(150):
        f = rand_eo_signature(rng, 4, density=0.4, nonzero=True)
        if is_rebalancing(f, 0).ok:
            seen += 1
            tc = triple_class(f)
            assert tc.gap is not None or tc.all_up
    assert seen > 10


def _check_triples_imply_rebalancing(n, supp, counts):
    """No light triple => rebalancing at bit 0; no heavy triple => at bit 1.
    counts[n] counts the checks whose premise held on 3 or more strings."""
    f = from_entries(n, dict.fromkeys(supp, ONE))
    tc = triple_class(f)
    for b, triple in ((0, tc.light), (1, tc.heavy)):
        if triple is None:
            assert is_rebalancing(f, b).ok, [f2.mask_to_string(m, n) for m in supp]
            counts[n] += len(supp) >= 3


def test_no_light_or_heavy_triple_implies_rebalancing():
    counts = Counter()
    balanced4 = [m for m in range(16) if f2.is_balanced(m, 4)]
    for r in range(1, len(balanced4) + 1):
        for supp in itertools.combinations(balanced4, r):
            _check_triples_imply_rebalancing(4, supp, counts)
    for n, trials in ((6, 2500), (8, 2000), (10, 1000)):
        rng = random.Random(n)
        balanced = [m for m in range(1 << n) if f2.is_balanced(m, n)]
        for _ in range(trials):
            _check_triples_imply_rebalancing(n, rng.sample(balanced, rng.randint(2, 8)), counts)
    assert counts[4] >= 30 and counts[6] >= 500 and counts[8] >= 400 and counts[10] >= 200


# -- symmetry classes ---------------------------------------------------------------


def test_symmetry_class_examples():
    assert symmetry_class(neq2()).kind == "dual_symmetric"
    assert symmetry_class(gen_diseq("0101", 1, -1)).kind == "dual_antisymmetric"
    rep = symmetry_class(gen_diseq("0101", 1, I))
    assert rep.kind == "conjugate_dual"
    assert rep.unit == I
    assert symmetry_class(gen_diseq("0101", 1, 2)).kind == "none"


def test_symmetry_priority_order():
    # dual-symmetric signatures are also conjugate-dual with unit 1; the
    # report must give the stronger kind
    f = gen_diseq("0101", 3, 3)
    assert symmetry_class(f).kind == "dual_symmetric"


# -- sections and embedding -----------------------------------------------------------


def test_diseq_embedding_examples():
    emb = diseq_embedding(symmetric([1, 0]))
    assert emb.arity == 2
    assert emb.support_strings() == ("01",)

    g = symmetric([1, 2, 3])
    back = pairing_sections(diseq_embedding(g), natural_pairing(2))
    assert g in back


def test_pairing_sections_of_diseq4():
    secs = pairing_sections(diseq(4), ((0, 2), (1, 3)))
    assert len(secs) == 4
    assert equality(2) in secs

    with pytest.raises(PairingViolation):
        pairing_sections(m_delta1(), ((0, 1), (2, 3)))


def test_sections_roundtrip_random():
    rng = random.Random(53)
    for _ in range(15):
        d = rng.choice([1, 2, 3])
        entries = {m: V(rng.randint(-4, 4)) for m in range(1 << d)}
        g = from_entries(d, entries)
        if g.is_zero():
            continue
        back = pairing_sections(diseq_embedding(g), natural_pairing(d))
        assert back[0] == g
        assert len(back) == 1 << d


# -- verdicts ----------------------------------------------------------------------


def test_verdict_m_delta1_weighted():
    v = dichotomy_verdict([m_delta1((1, 1, 2))])
    assert v.tractable
    assert v.direction == "up"
    assert "product" in v.classes and "affine" not in v.classes
    # the recursion oracle finds a 0-rebalancing chain, so the fp tier applies
    assert v.outcome == "fp" and v.rebalancing == 0


def test_verdict_hard_gap():
    v = dichotomy_verdict([from_entries(4, {"0011": 1, "0101": 1, "1010": 1})])
    assert v.outcome == "sharp_p_hard"
    assert v.witness["kind"] == "gap_triple"
    assert v.witness["delta"] == "1100"


def test_verdict_diseq4():
    v = dichotomy_verdict([diseq(4)])
    assert v.outcome == "fp"
    assert v.direction == "both"
    assert "product" in v.classes
    assert v.rebalancing == 0


def test_verdict_heavy_and_light_hard():
    up = m_delta1()
    down = from_entries(4, {"0011": 1, "0101": 1, "0110": 1})
    v = dichotomy_verdict([up, down])
    assert v.outcome == "sharp_p_hard"
    assert v.witness["kind"] == "heavy_and_light"


def test_verdict_class_failure_hard():
    # pairwise-opposite support (no triple flags at all), but the values kill
    # both classes on the {(x1,x2),(x3,x4)} pairing: ratio 2 is not a power
    # of i, and the restricted table is not rank-1 across its two groups
    f = from_entries(4, {"0101": 1, "1010": 1, "0110": 1, "1001": 2})
    tc = triple_class(f)
    assert tc.gap is None and tc.heavy is None and tc.light is None
    assert not membership_all_pairings(f, "affine").ok
    assert not membership_all_pairings(f, "product").ok
    v = dichotomy_verdict([f])
    assert v.outcome == "sharp_p_hard"
    assert v.witness["kind"] == "class_failure"
    assert v.witness["affine"]["failure"]["stage"] == "ratio_not_power_of_i"


def test_verdict_errors():
    with pytest.raises(EmptySet):
        dichotomy_verdict([])
    with pytest.raises(NotEO):
        dichotomy_verdict([symmetric([1, 1, 1])])
    with pytest.raises(ZeroSignature):
        dichotomy_verdict([from_entries(2, {})])


def test_verdict_extended_upside():
    with pytest.raises(ModeViolation):
        verdict_extended([symmetric([1, 1, 1])], "upside")

    f = from_entries(2, {"01": 1, "10": 1, "11": 1})
    v = verdict_extended([f], "upside")
    assert v.tractable
    assert v.outcome == "fp"

    # odd arity restricts to zero: trivial verdict
    g = from_entries(3, {"111": 1})
    v2 = verdict_extended([g], "upside")
    assert v2.outcome == "fp"
    assert any("identically zero" in n for n in v2.notes)


def test_verdict_extended_names_dropped_zero_transforms():
    # "1110" is heavy, so its balanced restriction is zero and only diseq(4) stays
    heavy = from_entries(4, {"1110": 1}, "heavy")
    v = verdict_extended([heavy, diseq(4)], "upside")
    assert v.outcome == "fp"
    assert v.notes[-1] == "dropped identically-zero transforms of: heavy"
    assert [entry["name"] for entry in v.per_signature] == ["neq4"]


def test_verdict_extended_single_weighted():
    # a lone forced-1 unary is one-sided, so the restriction branch applies
    # and everything restricts to zero: trivially in FP (every instance is 0)
    d1 = symmetric([0, 1])
    v = verdict_extended([d1], "single_weighted")
    assert v.outcome == "fp"
    assert any("one-sided" in n for n in v.notes)

    with pytest.raises(ModeViolation):
        verdict_extended([symmetric([1, 1, 1])], "single_weighted")


def test_verdict_extended_mixed_single_weighted_padding_branch():
    heavy = from_entries(2, {"11": 1})    # weight 2 of arity 2
    light = from_entries(2, {"00": 1})    # weight 0
    v = verdict_extended([heavy, light], "single_weighted")
    assert any("mixed" in n for n in v.notes)
    assert v.tractable


# -- metamorphic relations of the verdict ---------------------------------------------


def _verdict_set(rng):
    """One to three nonzero EO signatures of arity 2-8 over Q(zeta_8): gen_diseq,
    tensors of it, balanced parts of affine and product members and random
    supports, each scaled by a random value of Q(zeta_8)."""
    sigs, size = [], rng.randint(1, 3)
    while len(sigs) < size:
        arity = rng.choice([2, 4, 6, 8])
        kind = rng.randrange(4)
        if kind == 0:
            f = _rand_gen_diseq(rng, arity)
        elif kind == 1 and arity >= 4:
            f = tensor(_rand_gen_diseq(rng, 2), _rand_gen_diseq(rng, arity - 2))
        elif kind == 2:
            f = _balanced_part(rng.choice([rand_affine_signature, rand_product_signature])(
                rng, arity))
        else:
            f = rand_eo_signature(rng, arity, rng.choice([0.2, 0.5]), nonzero=True)
        c = rand_cyclotomic(rng, 8)
        if not f.is_zero() and not c.is_zero():
            sigs.append(f.scaled(c))
    return sigs


def _mapped(f, fn):
    return from_entries(f.arity, {m: fn(v) for m, v in f.entries.items()})


def test_verdict_metamorphic_relations():
    # the outcome is unchanged by a port permutation and by dual; conjugation,
    # sigma_3, sigma_5, sigma_7 of Q(zeta_8) and nonzero scaling keep the
    # support, so classes, direction and rebalancing stay as well
    rng = random.Random(3401)
    value_maps = [ExactValue.conj] + [lambda x, k=k: galois(x, k) for k in (3, 5, 7)]
    outcomes = Counter()
    for _ in range(150):
        sigs = _verdict_set(rng)
        v = dichotomy_verdict(sigs)
        outcomes[v.outcome] += 1
        permuted = [permute(f, rng.sample(range(f.arity), f.arity)) for f in sigs]
        assert dichotomy_verdict(permuted).outcome == v.outcome
        assert dichotomy_verdict([dual(f) for f in sigs]).outcome == v.outcome
        kept = (v.outcome, v.classes, v.direction, v.rebalancing)
        for fn in value_maps:
            w = dichotomy_verdict([_mapped(f, fn) for f in sigs])
            assert (w.outcome, w.classes, w.direction, w.rebalancing) == kept
        scales = [rand_cyclotomic(rng, 8) for _ in sigs]
        if all(not c.is_zero() for c in scales):
            w = dichotomy_verdict([f.scaled(c) for f, c in zip(sigs, scales)])
            assert (w.outcome, w.classes, w.direction, w.rebalancing) == kept
    assert outcomes["fp"] and outcomes["sharp_p_hard"]
