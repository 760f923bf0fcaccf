import random

from hypothesis import given, settings
from hypothesis import strategies as st

from eoexact.gauss import Z4Form, gauss_sum
from eoexact.values import ExactValue, I
from tests_helpers import add_quad_pair, enumerate_sum, form_value_at

V = ExactValue.rational


def rand_form(rng, nvars):
    form = Z4Form(nvars)
    form.add_const(rng.randrange(4))
    for v in range(nvars):
        form.add_linear(v, rng.randrange(4))
    for u in range(nvars):
        for v in range(u + 1, nvars):
            if rng.random() < 0.4:
                add_quad_pair(form, u, v)
    return form


def test_empty_form():
    form = Z4Form(0)
    form.add_const(3)
    assert gauss_sum(form) == I ** 3


def test_single_variable():
    # sum over t of i^t = 1 + i
    form = Z4Form(1)
    form.add_linear(0, 1)
    assert gauss_sum(form) == ExactValue.gauss(1, 1)
    # sum of i^(2t) = 0
    form2 = Z4Form(1)
    form2.add_linear(0, 2)
    assert gauss_sum(form2) == ExactValue.gauss(0, 0)
    # free variable doubles
    form3 = Z4Form(1)
    assert gauss_sum(form3) == V(2)


def test_affine_lift_matches_xor():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(1, 5)
        mask = rng.randrange(1, 1 << n)
        cbit = rng.randrange(2)
        scale = rng.randrange(4)
        form = Z4Form(n)
        form.add_affine_lift(mask, cbit, scale)
        for t in range(1 << n):
            xor = bin(t & mask).count("1") % 2 ^ cbit
            assert form_value_at(form, t) == (scale * xor) % 4


def test_doubled_product_matches_and():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = (rng.randrange(1 << n), rng.randrange(2))
        b = (rng.randrange(1 << n), rng.randrange(2))
        form = Z4Form(n)
        form.add_doubled_product(a, b)
        for t in range(1 << n):
            va = bin(t & a[0]).count("1") % 2 ^ a[1]
            vb = bin(t & b[0]).count("1") % 2 ^ b[1]
            assert form_value_at(form, t) == (2 * va * vb) % 4


def rand_mask(rng, nvars):
    mask = 0
    for _ in range(rng.randint(0, 4)):
        mask |= 1 << rng.randrange(nvars)
    return mask


def rand_affine_form(rng, nvars):
    """A form built the way eval_affine builds one: lifted affine exponents
    plus doubled products of affine coordinates."""
    form = Z4Form(nvars)
    form.add_const(rng.randrange(4))
    for _ in range(rng.randint(1, 2 * nvars)):
        a = (rand_mask(rng, nvars), rng.randrange(2))
        if rng.random() < 0.5:
            form.add_affine_lift(*a, rng.randrange(4))
        else:
            form.add_doubled_product(a, (rand_mask(rng, nvars), rng.randrange(2)))
    return form


def test_gauss_sum_vs_enumeration_random():
    rng = random.Random(4)
    for _ in range(120):
        n = rng.randint(0, 10)
        form = rand_form(rng, n)
        assert gauss_sum(form) == enumerate_sum(form)
    for _ in range(120):
        n = rng.randint(1, 10)
        form = rand_affine_form(rng, n)
        assert gauss_sum(form) == enumerate_sum(form)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gauss_sum_vs_enumeration_hypothesis(data):
    n = data.draw(st.integers(0, 6))
    form = Z4Form(n)
    form.add_const(data.draw(st.integers(0, 3)))
    for v in range(n):
        form.add_linear(v, data.draw(st.integers(0, 3)))
    for u in range(n):
        for v in range(u + 1, n):
            if data.draw(st.booleans()):
                add_quad_pair(form, u, v)
    assert gauss_sum(form) == enumerate_sum(form)


def test_larger_form_stays_fast():
    rng = random.Random(5)
    form = rand_form(rng, 40)
    val = gauss_sum(form)
    assert val is not None  # completes without enumeration

