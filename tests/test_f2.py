import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eoexact.errors import EmptyInput
from eoexact.f2 import (
    AffineSpace,
    bit_at,
    columns,
    complement,
    f2_affine_span,
    hamming,
    is_balanced,
    mask_to_string,
    rref,
    solve_linear_system,
    string_to_mask,
    weight_excess,
)
from tests_helpers import (
    nullspace,
    parity_checks,
    reference_solve_linear_system,
    transposed_solution,
)


def test_string_conventions():
    n, m = string_to_mask("0101")
    assert (n, m) == (4, 0b0101)
    assert mask_to_string(m, n) == "0101"
    # x1 is the most significant bit
    assert bit_at(m, 0, n) == 0
    assert bit_at(m, 1, n) == 1
    assert complement(m, n) == 0b1010
    assert is_balanced(m, n)
    assert weight_excess(0b1110, 4) == 2


def test_columns_transpose_the_masks():
    # column p's bit k is masks[k]'s bit at position p
    assert columns([0b0101, 0b0011], 4) == [0b00, 0b01, 0b10, 0b11]
    assert columns([], 3) == [0, 0, 0]
    assert columns([0], 0) == []


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=20))))
def test_columns_match_bit_at(case):
    n, masks = case
    cols = columns(masks, n)
    assert len(cols) == n
    for p, col in enumerate(cols):
        assert col == sum(bit_at(m, p, n) << k for k, m in enumerate(masks))


def test_span_singleton():
    sp = f2_affine_span([0b0101], n=4)
    assert sp.offset == 0b0101 and sp.basis == ()
    assert sp.size() == 1
    assert sp.contains(0b0101) and not sp.contains(0b1010)


def test_span_pair():
    sp = f2_affine_span([0b0011, 0b1100], n=4)
    assert sp.offset == 0b0011
    assert sp.basis == (0b1111,)
    assert sorted(sp.elements()) == [0b0011, 0b1100]


def test_span_triple():
    sp = f2_affine_span([0b1100, 0b1010, 0b1001], n=4)
    assert sp.size() == 4
    assert sorted(sp.elements()) == sorted([0b1100, 0b1010, 0b1001, 0b1111])


def test_span_closure_by_enumeration():
    strings = [0b0011, 0b0101, 0b1010]
    sp = f2_affine_span(strings, n=4)
    elems = set(sp.elements())
    for a in elems:
        for b in elems:
            for c in elems:
                assert a ^ b ^ c in elems
    for s in strings:
        assert s in elems


def test_span_empty_input():
    with pytest.raises(EmptyInput):
        f2_affine_span([], n=4)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=6))
def test_span_idempotent_and_minimal(masks):
    sp = f2_affine_span(masks, n=8)
    again = f2_affine_span(list(sp.elements()), n=8)
    assert again == sp
    # every element is an odd xor of inputs: check containment both ways
    for m in masks:
        assert sp.contains(m)


def test_coordinates_roundtrip():
    sp = f2_affine_span([0b1100, 0b1010, 0b1001], n=4)
    for el in sp.elements():
        t = sp.coordinates(el)
        v = sp.offset
        for ti, b in zip(t, sp.basis):
            if ti:
                v ^= b
        assert v == el


def test_parity_checks():
    sp = f2_affine_span([0b0011, 0b1100], n=4)
    checks = parity_checks(sp)
    assert len(checks) == 3
    for h in checks:
        want = (h & sp.offset).bit_count() & 1
        for el in sp.elements():
            assert (h & el).bit_count() & 1 == want


def test_rref_unique_pivots():
    basis = rref([0b1111, 0b0111, 0b0011])
    pivots = [b.bit_length() - 1 for b in basis]
    assert len(set(pivots)) == len(basis)
    for b in basis:
        for other in basis:
            if other is not b:
                assert not (other >> (b.bit_length() - 1)) & 1


def span(rows):
    out = {0}
    for r in rows:
        out |= {v ^ r for v in out}
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=8))))
def test_rref_echelon_and_span(case):
    n, rows = case
    basis = rref(rows)
    pivots = [b.bit_length() - 1 for b in basis]
    assert 0 not in basis
    assert pivots == sorted(pivots, reverse=True) and len(set(pivots)) == len(pivots)
    for p in pivots:
        assert sum((b >> p) & 1 for b in basis) == 1
    assert span(basis) == span(rows)


def test_nullspace_orthogonal():
    rows = [0b110010, 0b001110]
    for h in nullspace(rows, 6):
        for r in rows:
            assert (h & r).bit_count() & 1 == 0
    assert len(nullspace(rows, 6)) == 4


def solutions(exprs, free):
    """Every assignment that an (exprs, free) solution describes."""
    out = set()
    for t in range(1 << free):
        out.add(sum(1 << x for x, (mask, bit) in enumerate(exprs)
                    if hamming(mask & t) % 2 ^ bit))
    return out


def test_solve_linear_system():
    # x0 ^ x1 = 1, x1 ^ x2 = 0
    sol = solve_linear_system([(0b011, 1), (0b110, 0)], 3)
    assert sol is not None
    exprs, free = sol
    assert free == 1 and len(exprs) == 3
    assert solutions(exprs, free) == {0b001, 0b110}
    # inconsistent
    assert solve_linear_system([(0b01, 0), (0b01, 1)], 2) is None
    # all free
    exprs, free = solve_linear_system([], 3)
    assert free == 3 and exprs == [(0b001, 0), (0b010, 0), (0b100, 0)]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 1)), max_size=8))
def test_solve_linear_system_random(eqs):
    out = solve_linear_system(eqs, 6)
    truth = {v for v in range(64)
             if all(hamming(v & m) % 2 == b for m, b in eqs)}
    if out is None:
        assert truth == set()
        return
    exprs, free = out
    assert len(exprs) == 6
    assert solutions(exprs, free) == truth and len(truth) == 1 << free


def test_solve_linear_system_matches_reference():
    rng = random.Random(28)
    inconsistent = 0
    for n in range(13):
        for _ in range(60):
            eqs = [(rng.getrandbits(n) if n else 0, rng.getrandbits(1))
                   for _ in range(rng.randrange(2 * n + 2))]
            if eqs and rng.random() < 0.5:  # a redundant row: the xor of two others
                (ma, ba), (mb, bb) = rng.choice(eqs), rng.choice(eqs)
                eqs.insert(rng.randrange(len(eqs) + 1), (ma ^ mb, ba ^ bb))
            got = solve_linear_system(eqs, n)
            want = reference_solve_linear_system(eqs, n)
            assert (got is None) == (want is None), (n, eqs)
            if want is None:
                inconsistent += 1
                continue
            particular, basis = want
            exprs, free = got
            assert free == len(basis)
            assert exprs == transposed_solution(particular, basis, n), (n, eqs)
    assert 100 <= inconsistent <= 13 * 60 - 100  # both outcomes well covered
