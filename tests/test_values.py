import itertools
import random
import re
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eoexact import values
from eoexact.errors import EOError, LiteralSyntaxError, ZeroValue
from eoexact.grids import brute_force_partition
from eoexact.values import (
    I,
    ONE,
    ZERO,
    ExactValue,
    FieldMode,
    RootOrder,
    as_value,
    compare_abs,
    cyclotomic_coeffs,
    euler_phi,
    parse_value,
    render_value,
    root_order,
)

from tests_helpers import (
    dense_torus,
    enumerate_reference,
    i_power_exponent,
    rand_cyclotomic,
    reference_parse_value,
    reference_power,
    reweighted,
)

V = ExactValue.rational
G = ExactValue.gauss
Z = ExactValue.zeta


def test_cyclotomic_polynomials():
    assert cyclotomic_coeffs(1) == (-1, 1)
    assert cyclotomic_coeffs(2) == (1, 1)
    assert cyclotomic_coeffs(3) == (1, 1, 1)
    assert cyclotomic_coeffs(4) == (1, 0, 1)
    assert cyclotomic_coeffs(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)
    phi105 = cyclotomic_coeffs(105)
    assert len(phi105) == 49 and [j for j, c in enumerate(phi105) if c == -2] == [7, 41]


def test_gaussian_basics():
    x = G(1, 2)
    y = G(3, -1)
    assert x + y == G(4, 1)
    assert x * y == G(5, 5)
    assert (x / y) * y == x
    assert x.conj() == G(1, -2)
    assert (x * x.conj()).gauss_parts()[1] == 0
    assert I * I == V(-1)
    h = G(Fraction(1, 2), Fraction(-1, 3))
    assert h * 6 == G(3, -2)
    assert h.inverse() == G(Fraction(18, 13), Fraction(12, 13))
    assert h - h == ZERO


def test_downcast_to_gaussian():
    assert Z(8, 2) == I
    assert Z(8, 4) == V(-1)
    assert Z(4, 1) == I
    assert Z(2, 1) == V(-1)
    assert Z(8, 1) ** 8 == ONE
    assert not Z(8, 1).is_gaussian
    assert (Z(8, 1) * Z(8, 1)).is_gaussian
    h = G(Fraction(-3, 4), Fraction(5, 6))
    assert h * Z(8, 1) * Z(8, 1).inverse() == h
    assert V(Fraction(-3, 4)) + V(Fraction(5, 6)) * Z(8, 1) * Z(8, 1) == h


def test_hash_agrees_with_eq():
    assert ONE == 1 and hash(ONE) == hash(1)
    assert len({ONE, 1}) == 1
    assert {ONE: "one"}[1] == "one"
    assert {Fraction(-2, 6): "q"}[V(Fraction(-1, 3))] == "q"
    assert hash(G(-7, 0)) == hash(-7) and hash(ZERO) == hash(0)
    assert hash(G(1, 2)) == hash(G(Fraction(2, 2), 2))


def test_real_hash_matches_fraction_and_int():
    P, inf = sys.hash_info.modulus, sys.hash_info.inf
    rng = random.Random(16)
    edge = (0, 1, 2, P - 1, P, P + 1, P + 2, 2 * P, 3 * P + 3)
    pairs = [(sign * a, d) for a in edge for sign in (1, -1)
             for d in (1, 2, 3, P - 1, P, P + 1, 2 * P, 3 * P + 3)]
    pairs += [(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** rng.randint(1, 30)))
              for _ in range(3000)]
    for a, d in pairs:
        q = Fraction(a, d)
        assert hash(V(q)) == hash(q), (a, d)
        if q.denominator == 1:
            assert hash(V(q)) == hash(q.numerator), (a, d)
    assert hash(V(Fraction(1, P))) == inf       # a denominator divisible by the modulus
    assert hash(V(Fraction(-1, 2 * P))) == -inf
    assert hash(V(Fraction(-(P + 2), 2))) == -2  # the rational hash -1 maps to -2
    assert hash(V(-1)) == hash(-1) == -2


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2", 1j])
def test_inexact_input_rejected(bad):
    for build in (G, lambda x: G(0, x), V, as_value):
        with pytest.raises(EOError, match="cannot coerce"):
            build(bad)


def _ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def _ref_inverse(x):
    a, b = x
    n = a * a + b * b
    return a / n, -b / n


_FRACTIONS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.tuples(_FRACTIONS, _FRACTIONS), st.tuples(_FRACTIONS, _FRACTIONS))
def test_gaussian_arm_matches_fraction_reference(xs, ys):
    x, y = G(*xs), G(*ys)
    (a, b), (c, d) = xs, ys
    assert x.gauss_parts() == xs and y.gauss_parts() == ys
    assert (x + y).gauss_parts() == (a + c, b + d)
    assert (x - y).gauss_parts() == (a - c, b - d)
    assert (-x).gauss_parts() == (-a, -b)
    assert (x * y).gauss_parts() == _ref_mul(xs, ys)
    assert x.conj().gauss_parts() == (a, -b)
    assert x.abs2().gauss_parts() == (a * a + b * b, 0)
    diff = (a * a + b * b) - (c * c + d * d)
    assert compare_abs(x, y) == (diff > 0) - (diff < 0)
    for num, den, rnum, rden in ((x, y, xs, ys), (y, x, ys, xs)):
        if den.is_zero():
            with pytest.raises(ZeroDivisionError):
                num / den
            continue
        assert den.inverse().gauss_parts() == _ref_inverse(rden)
        assert (num / den).gauss_parts() == _ref_mul(rnum, _ref_inverse(rden))
        inv = _ref_inverse(rden)
        assert (den ** -3).gauss_parts() == _ref_mul(_ref_mul(inv, inv), inv)
    for v in (x, y, x + y, x - x, x * y, -y, x.conj()):
        p, q, r = v._co
        assert r > 0 and gcd(p, q, r) == 1
        assert v._co == (0, 0, 1) or not v.is_zero()
    routes = [x, V(a) + V(b) * I, V(a) + V(b) * Z(8, 2), parse_value(render_value(x)),
              x * Z(8, 1) * Z(8, 1).inverse()]
    assert all(r == x and hash(r) == hash(x) for r in routes)
    if b == 0:
        assert x == a and hash(x) == hash(a)


# 1 and 2 downcast every value; Phi_9 has a gap; Phi_105 is the first
# cyclotomic polynomial with a coefficient outside {-1, 0, 1} (two -2s)
_ORDERS = [1, 2, 3, 5, 7, 8, 9, 12, 15, 16, 20, 24, 36, 105]


def _ref_reduce(vec, n):
    """A Fraction vector reduced modulo the n-th cyclotomic polynomial."""
    phi = cyclotomic_coeffs(n)
    k = len(phi) - 1
    vec = list(vec) + [Fraction(0)] * (k - len(vec))
    terms = [(j, e) for j, e in enumerate(phi) if e]
    for i in range(len(vec) - 1, k - 1, -1):
        c = vec[i]
        if c:
            for j, e in terms:
                vec[i - k + j] -= c * e
    return vec[:k]


def _ref_cyc_mul(x, y, n):
    out = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, p in enumerate(x):
        if p:
            for j, q in enumerate(y):
                if q:
                    out[i + j] += p * q
    return _ref_reduce(out, n)


def _ref_vec(v, n):
    """The reduced Fraction vector of v inside Q(zeta_n)."""
    if v.is_gaussian:
        re, im = v.gauss_parts()
        out = [Fraction(0)] * euler_phi(n)
        out[0] = re
        if im:
            out[n // 4] = im
        return out
    *nums, d = v._co
    out = [Fraction(0)] * n
    for j, c in enumerate(nums):
        out[j * (n // v.ambient)] = Fraction(c, d)
    return _ref_reduce(out, n)


def _assert_canonical(v, n):
    assert all(type(c) is int for c in v._co)
    *nums, d = v._co
    assert d > 0 and gcd(d, *nums) == 1
    if v.is_gaussian:
        assert len(v._co) == 3
    else:
        m = v.ambient
        assert n % m == 0 and len(v._co) == euler_phi(m) + 1
        # a value of Q(i) is always downcast
        assert any(c for j, c in enumerate(nums) if j and 4 * j != m)


_SMALL_FRACTIONS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def _cyclotomic_operands(draw):
    """An order n, a reduced Fraction vector over Q(zeta_n), and one over a
    subfield Q(zeta_m) (m | n, or Q(i) when 4 | n) as a vector of length m."""
    n = draw(st.sampled_from(_ORDERS))
    coeff = st.one_of(st.just(Fraction(0)), _SMALL_FRACTIONS)
    xs = draw(st.lists(coeff, min_size=euler_phi(n), max_size=euler_phi(n)))
    m = draw(st.sampled_from([m for m in _ORDERS if n % m == 0] + [4] * (n % 4 == 0)))
    ys = draw(st.lists(coeff, min_size=euler_phi(m), max_size=euler_phi(m)))
    return n, xs, m, ys


def _build(vec, m):
    total = ZERO
    for j, c in enumerate(vec):
        total = total + V(c) * Z(m, j)
    return total


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_cyclotomic_operands())
def test_cyclotomic_arm_matches_fraction_reference(operands):
    n, xs, m, ys = operands
    x, y = _build(xs, n), _build(ys, m)
    ys = _ref_vec(y, n)
    assert _ref_vec(x, n) == xs
    one = [Fraction(1)] + [Fraction(0)] * (len(xs) - 1)

    def mul(p, q):
        return _ref_cyc_mul(p, q, n)

    assert _ref_vec(x + y, n) == [p + q for p, q in zip(xs, ys)]
    assert _ref_vec(y - x, n) == [q - p for p, q in zip(xs, ys)]
    assert _ref_vec(-x, n) == [-p for p in xs]
    assert _ref_vec(x * y, n) == mul(xs, ys)
    assert _ref_vec(x ** 3, n) == mul(mul(xs, xs), xs)
    conj = [Fraction(0)] * n
    for j, c in enumerate(xs):
        conj[-j % n] = c
    assert _ref_vec(x.conj(), n) == _ref_reduce(conj, n)
    assert _ref_vec(x.abs2(), n) == mul(xs, _ref_reduce(conj, n))
    results = [x, y, x + y, y - x, -x, x * y, x ** 3, x.conj(), x.abs2()]
    for den, dens in ((x, xs), (y, ys)):
        if den.is_zero():
            with pytest.raises(ZeroDivisionError):
                den.inverse()
            continue
        assert mul(_ref_vec(den.inverse(), n), dens) == one
        assert mul(_ref_vec(den ** -2, n), mul(dens, dens)) == one
        assert mul(_ref_vec((x + y) / den, n), dens) == [p + q for p, q in zip(xs, ys)]
        results += [den.inverse(), den ** -2, (x + y) / den]
    for v in results:
        _assert_canonical(v, n)
    mode = FieldMode.parse(f"zeta:{n}")
    routes = [
        sum((V(c) * Z(n, j) for j, c in reversed(list(enumerate(xs)))), ZERO),
        parse_value(render_value(x), mode),
        x * Z(n, 1) * Z(n, 1).inverse(),
        (x + y) - y,
        x.conj().conj(),
    ]
    for r in routes:
        assert r == x and r._co == x._co and hash(r) == hash(x)


def test_cyclotomic_field():
    z = Z(3, 1)
    assert z * z * z == ONE
    assert z.conj() == Z(3, 2)
    assert (ONE + z + z * z).is_zero()
    w = Z(5, 2)
    assert (w / w) == ONE
    assert w.inverse() * w == ONE
    assert w.is_unimodular()


def test_conj_involution_cyclotomic():
    x = Z(8, 1) + V(Fraction(1, 2)) * Z(8, 3)
    assert x.conj().conj() == x
    m = x.abs2()
    assert m == m.conj()


def _rand_cyclotomic(rng, n):
    """A random value of Q(zeta_n): a few rational multiples of its roots,
    sometimes plus a Gaussian rational (with an i part only when i lies in it)."""
    x = ZERO
    for _ in range(rng.randint(1, 4)):
        x = x + V(Fraction(rng.randint(-6, 6), rng.randint(1, 5))) * Z(n, rng.randrange(n))
    if rng.random() < 0.3:
        x = x + G(rng.randint(-3, 3), rng.randint(-3, 3) if n % 4 == 0 else 0)
    return x


@pytest.mark.parametrize("n", [3, 5, 7, 8, 12, 15, 16, 20, 24, 36, 105])
def test_field_axioms_across_orders(n):
    rng = random.Random(n)
    for _ in range(8):
        a, b, c = (_rand_cyclotomic(rng, n) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        if not a.is_zero():
            assert a * a.inverse() == ONE
            assert (b / a) * a == b


def test_arithmetic_after_warm_up_divides_no_polynomial(monkeypatch):
    # Phi_N is found by division once per order, in cyclotomic_coeffs; after
    # that every operation, and the raw contraction, folds with Phi_N's terms
    rng = random.Random(19)
    operands = {n: [_rand_cyclotomic(rng, n) for _ in range(3)] for n in (5, 8, 105)}
    grid = reweighted(dense_torus(2, rng), rng, lambda r: rand_cyclotomic(r, 8))
    assert any(not w.is_gaussian for _, sig in grid.vertices for w in sig.entries.values())
    want = enumerate_reference(grid)[0].value(0)
    for n in operands:
        values._field(n)

    def refuse(*args):
        raise AssertionError("polynomial division after warm-up")
    monkeypatch.setattr(values, "_divmod_monic", refuse)
    for n, (a, b, c) in operands.items():
        assert not a.is_zero() and not b.is_zero()
        assert (a + b) - b == a and (a - b) + b == a
        assert (a * b) / b == a and a / a == ONE
        assert a * a.inverse() == ONE and (c * a) * a.inverse() == c
        assert (V(Fraction(-2, 3)) * Z(n, 2)).inverse() == V(Fraction(-3, 2)) * Z(n, n - 2)
        assert a.conj().conj() == a and (a * b).conj() == a.conj() * b.conj()
        assert a ** 3 == a * a * a and a ** -2 * a * a == ONE
        assert a.abs2() == a * a.conj() and a.abs2() == a.abs2().conj()
        assert root_order(Z(n, 1), cap=n) == RootOrder("root", n)
        assert root_order(Z(n, 1) * 2).kind == "not_root"
    assert brute_force_partition(grid) == want


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
def test_norm_expansion_identity(a, b):
    x = G(*a)
    y = G(*b)
    lhs = (x + y) * (x + y).conj()
    rhs = x * x.conj() + x * y.conj() + y * x.conj() + y * y.conj()
    assert lhs == rhs


@pytest.mark.parametrize("base", [G(2, 0), G(1, 1), G(Fraction(3, 2), -2), I,
                                  Z(8, 1), Z(8, 1) + V(1), V(3) * Z(8, 3) - V(Fraction(1, 2)),
                                  Z(5, 2) + V(2)],
                         ids=["2", "1+i", "3/2-2i", "i", "z8", "1+z8", "3z8^3-1/2", "2+z5^2"])
def test_pow_matches_repeated_multiplication(base, monkeypatch):
    want = ONE
    for k in range(34):
        assert base ** k == want
        if k:
            assert base ** -k == want.inverse()
        want = want * base
    # squares and products run on raw numerators: no ExactValue product, and
    # one normalization (a gcd and a canonical tuple) per power
    calls, norms = [], []
    real = ExactValue.__mul__
    monkeypatch.setattr(ExactValue, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    for name in ("_gaussian", "_cyclotomic"):
        monkeypatch.setattr(values, name, lambda *a, _f=getattr(values, name):
                            norms.append(1) or _f(*a))
    assert base ** 1 is base
    for k in (2, 3, 256, 1000):
        norms.clear()
        got = base ** k
        assert len(norms) == 1
    assert not calls
    monkeypatch.undo()
    assert got == base ** 488 * base ** 512
    assert V(0) ** 0 == ONE and V(0) ** 5 == ZERO
    with pytest.raises(ZeroDivisionError):
        V(0) ** -1


@pytest.mark.parametrize("base", [G(Fraction(3, 2), -2), Z(5, 2) + V(2),
                                  V(3) * Z(8, 3) - V(Fraction(1, 2)), Z(8, 1) * G(1, 1)],
                         ids=["3/2-2i", "2+z5^2", "3z8^3-1/2", "(1+i)z8"])
def test_pow_matches_reference_power(base):
    # raw-numerator powers against normalized ExactValue products, exponents
    # -3..1000; (1+i)z8 has powers in Q(i), which the normalization downcasts
    for k in range(-3, 1001):
        assert base ** k == reference_power(base, k)


def test_compare_abs():
    assert compare_abs(V(2), V(-3)) == -1
    assert compare_abs(G(3, 4), V(5)) == 0
    assert compare_abs(Z(8, 1), ONE) == 0
    assert compare_abs(ONE + Z(5, 1), V(1)) == 1
    assert compare_abs(ONE + Z(5, 2), V(3)) == -1
    # coefficients past the float range
    assert compare_abs(ONE, V(10**400) * Z(8, 1) + ONE) == -1


_SQRT2 = Z(8, 1) - Z(8, 3)


@pytest.mark.parametrize("k", [100, 450, 600])
def test_compare_abs_decides_powers_of_sqrt2_minus_1(k):
    # (sqrt2 - 1)^k is about 2^(-1.27k) with coefficients near 2^(1.27k), so
    # its squared magnitude takes about 5k bits to tell from 0
    small = (_SQRT2 - 1) ** k
    assert compare_abs(small, ZERO) == 1 and compare_abs(ZERO, small) == -1
    assert compare_abs(small * (_SQRT2 - 1), small) == -1
    assert compare_abs(small, (_SQRT2 + 1) ** -k * Z(8, 3)) == 0


def _mp_value(mp, x, roots):
    """x as an mpmath complex, from its power basis; roots[j] is zeta_n^j."""
    if x.is_gaussian:
        a, b, d = x._co
        return mp.mpc(a, b) / d
    *nums, d = x._co
    return mp.fsum(c * roots[j] for j, c in enumerate(nums) if c) / d


def test_cos_table_within_stated_bound():
    mp = pytest.importorskip("mpmath").mp
    for n in _ORDERS + [4, 1024]:
        for p in (64, 128, 1024):
            with mp.workprec(p + 64):
                for j, c in enumerate(values._cos_table(n, p)):
                    assert abs(c - mp.ldexp(mp.cospi(mp.mpf(2 * j) / n), p)) < 2, (n, p, j)


def test_compare_abs_matches_mpmath_reference():
    # seeded pairs in every order of the Fraction-reference test: unrelated
    # values, equal magnitudes (a against conj(a) times a root of unity), and
    # near ties a against a(1 + e zeta^k) with |e| down to 10^-60; the
    # reference decides at 250 digits
    mp = pytest.importorskip("mpmath").mp
    pairs = numeric = 0  # numeric: pairs whose |a|^2 - |b|^2 leaves Q(i)
    for n in _ORDERS:
        rng = random.Random(n)
        with mp.workdps(250):
            roots = [mp.expjpi(mp.mpf(2 * j) / n) for j in range(n)]
            for i in range(150):
                a = rand_cyclotomic(rng, n)
                if i % 3 == 0:
                    b = rand_cyclotomic(rng, n)
                elif i % 3 == 1:
                    b = a.conj() * Z(n, rng.randrange(n))
                else:
                    e = Fraction(rng.choice([-1, 1]), 10 ** rng.randrange(1, 61))
                    b = a * (1 + V(e) * Z(n, rng.randrange(n)))
                diff = abs(_mp_value(mp, a, roots)) ** 2 - abs(_mp_value(mp, b, roots)) ** 2
                want = 0 if abs(diff) < mp.mpf(10) ** -200 else (1 if diff > 0 else -1)
                assert compare_abs(a, b) == want == -compare_abs(b, a), (n, a, b)
                pairs += 1
                numeric += not (a.abs2() - b.abs2()).is_gaussian
    assert pairs >= 2000 and numeric >= 1000


def test_root_order_gaussian():
    assert root_order(V(-1)).order == 2
    assert root_order(ONE).order == 1
    assert root_order(I).order == 4
    assert root_order(V(2)).kind == "not_root"
    # unimodular but not a root of unity
    assert root_order(G(Fraction(3, 5), Fraction(4, 5))).kind == "not_root"
    with pytest.raises(ZeroValue):
        root_order(ZERO)
    # a root of order above the cap is unknown, as in Q(zeta_N)
    assert root_order(I, cap=3) == root_order(G(0, -1), cap=3) == RootOrder("unknown")
    assert root_order(V(-1), cap=1) == RootOrder("unknown")
    assert root_order(I, cap=4) == RootOrder("root", 4)
    assert root_order(G(Fraction(3, 5), Fraction(4, 5)), cap=1).kind == "not_root"


def test_root_order_cyclotomic():
    assert root_order(Z(8, 3), cap=16).order == 8
    assert root_order(Z(12, 1) * Z(12, 3)
                      ).order == 3
    assert root_order(ONE + Z(5, 1)).kind == "not_root"
    assert root_order(Z(5, 1), cap=3).kind == "unknown"
    # unimodular, yet no power is 1: decided from x^lcm(2, N), not by trial
    assert root_order(G(Fraction(3, 5), Fraction(4, 5)) * Z(8, 1)).kind == "not_root"
    assert root_order(G(Fraction(3, 5), Fraction(4, 5)) * Z(20, 3), cap=10 ** 6).kind == "not_root"


def test_root_orders_of_all_roots_in_small_fields():
    for n in (3, 5, 8, 9, 12, 16):
        for j in range(2 * n):
            x = -Z(n, j % n) if j >= n else Z(n, j)
            want = next(k for k in range(1, 2 * n + 1) if x ** k == ONE)
            assert root_order(x, cap=2 * n) == RootOrder("root", want)
            assert root_order(x, cap=want - 1).kind == "unknown"


@settings(max_examples=80, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6),
       st.integers(1, 6), st.integers(1, 6))
def test_gaussian_root_orders_limited(a, b, p, q):
    v = G(Fraction(a, p), Fraction(b, q))
    if v.is_zero():
        return
    ro = root_order(v)
    if ro.is_root:
        assert ro.order in (1, 2, 4)
        assert v ** ro.order == ONE


def test_i_power_exponent():
    assert i_power_exponent(ONE) == 0
    assert i_power_exponent(I) == 1
    assert i_power_exponent(V(-1)) == 2
    assert i_power_exponent(G(0, -1)) == 3
    assert i_power_exponent(V(2)) is None


def test_literal_parse_gauss():
    assert parse_value("3") == V(3)
    assert parse_value("-1/2") == V(Fraction(-1, 2))
    assert parse_value("i") == I
    assert parse_value("-i") == G(0, -1)
    assert parse_value("3i") == G(0, 3)
    assert parse_value("1+2i") == G(1, 2)
    assert parse_value("1 - 2i") == G(1, -2)
    assert parse_value(" 2 + i ") == G(2, 1)
    with pytest.raises(LiteralSyntaxError):
        parse_value("z8^1")
    with pytest.raises(LiteralSyntaxError):
        parse_value("")
    with pytest.raises(LiteralSyntaxError):
        parse_value("2+")
    for text in ("1/0", "2 + 3/00*i"):
        with pytest.raises(LiteralSyntaxError, match="zero denominator"):
            parse_value(text)


def test_literal_parse_zeta():
    mode = FieldMode.parse("zeta:8")
    assert parse_value("z8^1", mode) == Z(8, 1)
    assert parse_value("1/2*z8^1 - z8^3", mode) == \
        V(Fraction(1, 2)) * Z(8, 1) - Z(8, 3)
    assert parse_value("z4^1", mode) == I
    assert parse_value("z2^1", mode) == V(-1)
    assert parse_value("2*z8^1+1", mode) == V(2) * Z(8, 1) + ONE
    with pytest.raises(LiteralSyntaxError):
        parse_value("z3^1", mode)


def test_literal_juxtaposed_terms_rejected():
    mode = FieldMode.parse("zeta:8")
    for text in ("i i", "ii", "i2", "z8z8", "z8^1 i", "1+i 2"):
        with pytest.raises(LiteralSyntaxError, match="between terms"):
            parse_value(text, mode)
    # One coefficient times one atom is still a single term, and signs may
    # lead or repeat.
    assert parse_value("2i", mode) == G(0, 2)
    assert parse_value("2 i", mode) == G(0, 2)
    assert parse_value("1/2i", mode) == G(0, Fraction(1, 2))
    assert parse_value("3*z8^1", mode) == V(3) * Z(8, 1)
    assert parse_value("+3", mode) == V(3)
    assert parse_value("--3", mode) == V(3)
    assert parse_value("3+-2", mode) == ONE


def test_literal_whitespace_separates_tokens():
    mode = FieldMode.parse("zeta:8")
    # a space never joins two numbers, nor a number to an exponent
    for text in ("2 3", "1/2 3", "z8^1 2", "1 2/3", "2 2i"):
        with pytest.raises(LiteralSyntaxError, match="between terms"):
            parse_value(text, mode)
    for text in ("z 8", "1/ 2", "z8^ 1", "3 /4"):
        with pytest.raises(LiteralSyntaxError, match="bad value literal"):
            parse_value(text, mode)
    assert parse_value("1 + i", mode) == G(1, 1)
    assert parse_value(" 2 ", mode) == V(2)
    assert parse_value("\t-  1/2 +\n3 * z8^2 ", mode) == G(Fraction(-1, 2), 3)
    assert parse_value("3*z8^2", mode) == G(0, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20),
       st.integers(1, 9), st.integers(1, 9))
def test_render_parse_roundtrip_gauss(a, b, p, q):
    v = G(Fraction(a, p), Fraction(b, q))
    assert parse_value(render_value(v)) == v


def test_render_parse_roundtrip_zeta():
    mode = FieldMode.parse("zeta:8")
    vals = [Z(8, 1), -Z(8, 3), V(Fraction(1, 2)) * Z(8, 1) - Z(8, 3),
            Z(8, 1) + V(2), ZERO, V(-3)]
    for v in vals:
        assert parse_value(render_value(v), mode) == v


def test_render_parse_roundtrip_cyclotomic():
    rng = random.Random(20)
    for n in (3, 5, 9, 12, 16, 36, 105):
        mode = FieldMode.parse(f"zeta:{n}")
        for _ in range(40):
            v = rand_cyclotomic(rng, n)
            got = parse_value(render_value(v), mode)
            assert got == v and hash(got) == hash(v), (n, render_value(v))




def test_reflected_operators_match_forward_ones():
    # int and Fraction on the left reach __radd__, __rsub__, __rmul__ and
    # __rtruediv__, which are public API
    for x in (G(Fraction(3, 2), -2), Z(8, 1) + V(Fraction(1, 3)), Z(5, 2) * V(-4)):
        for k in (2, -7, Fraction(5, 3)):
            assert k * x == x * k == V(k) * x
            assert k + x == x + k == V(k) + x
            assert k - x == V(k) - x == -(x - k)
            assert k / x == V(k) / x == V(k) * x.inverse()
        assert 1 + x == V(1) + x and 1 - x == V(1) - x
        assert 2 * x == V(2) * x and 1 / x == x.inverse()

def test_render_long_numbers():
    # up to CPython's default integer-string limit a rendering is str() of
    # its parts; past it the parts are converted in pieces, exactly
    rng = random.Random(22)
    for digits in (1, 2, 599, 600, 601, 1300, 4299, 4300):
        for _ in range(4):
            a = rng.randrange(10 ** (digits - 1), 10 ** digits) * rng.choice((1, -1))
            b = rng.randrange(1, 10 ** digits)
            q = Fraction(a, b if abs(a) != b else b + 1)  # a part of +-1 renders as i
            assert render_value(V(q)) == str(q)
            assert render_value(G(0, q)) == f"{q}i"
            assert render_value(G(1, q)) == (f"1+{q}i" if q > 0 else f"1-{-q}i")
            assert render_value(Z(8, 3) * V(q)) == (f"{q}*z8^3" if q > 0 else f"-{-q}*z8^3")
    big = 10 ** 9000 + 7 * 10 ** 4500 + 3
    want = "1" + "0" * 4499 + "7" + "0" * 4499 + "3"
    assert render_value(V(big)) == want
    assert render_value(V(Fraction(-big, 10 ** 5000 + 1))) == \
        f"-{want}/1{'0' * 4999}1"
    assert render_value(G(0, big)) == want + "i"


def test_render_parse_roundtrip_long_numbers():
    # past CPython's integer-string limit render_value writes a number by
    # halves and parse_value reads it back the same way, up to
    # MAX_LITERAL_DIGITS digits
    rng = random.Random(31)
    zeta8 = FieldMode.parse("zeta:8")
    assert parse_value(render_value(V(10 ** 5000 + 1))) == V(10 ** 5000 + 1)
    for digits in (599, 600, 601, 1201, 4300, 4301, 5001, 12345):
        for _ in range(2):
            a = rng.randrange(10 ** (digits - 1), 10 ** digits) * rng.choice((1, -1))
            q = Fraction(a, rng.randrange(1, 10 ** rng.randint(1, digits)))
            for v in (V(q), G(1, q), G(q, -q)):
                assert parse_value(render_value(v)) == v, digits
            v = V(q) * Z(8, 3) + Z(8, 1)
            assert parse_value(render_value(v), zeta8) == v, digits
    limit = values.MAX_LITERAL_DIGITS
    n = rng.randrange(10 ** (limit - 1), 10 ** limit)
    assert parse_value(render_value(V(n))) == V(n)
    with pytest.raises(LiteralSyntaxError, match=f"more than {limit} digits"):
        parse_value("7" * (limit + 1))
    # a long root order is read too, and refused for its size in one short
    # line that names its leading digits and its digit count
    for digits in (21, 5001, limit):
        with pytest.raises(EOError, match="above the limit") as err:
            parse_value("z" + "7" * digits)
        assert str(err.value) == (f"cyclotomic order {'7' * 20}... ({digits} digits) "
                                  f"above the limit {values.MAX_ORDER}")
    with pytest.raises(EOError, match=f"order {'7' * 20} above the limit"):
        parse_value("z" + "7" * 20)


def test_literal_errors_echo_a_clipped_literal():
    # a literal of more than 20 characters is named by its first 20 and its
    # length; a short one is echoed whole
    long = "7" * 5001
    for text, mode, want in (
            (long + "x", values.GAUSS_MODE,
             f"bad value literal {'7' * 20!r}... (5002 characters) at 'x'"),
            ("z" + long, FieldMode(8),
             f"literal {'z' + '7' * 19!r}... (5002 characters) does not live in the "
             "session field Q(zeta_8)"),
            ("1 " + long, values.GAUSS_MODE,
             f"missing '+' or '-' between terms in {'1 ' + '7' * 18!r}... (5003 characters)"),
            (long + "/0", values.GAUSS_MODE,
             f"zero denominator in {'7' * 20!r}... (5003 characters)")):
        with pytest.raises(LiteralSyntaxError) as err:
            parse_value(text, mode)
        assert str(err.value) == want
    with pytest.raises(LiteralSyntaxError) as err:
        parse_value("2 x")
    assert str(err.value) == "bad value literal '2 x' at 'x'"
    with pytest.raises(LiteralSyntaxError) as err:
        FieldMode.parse("zeta:" + long)
    assert str(err.value) == f"bad field spec {'zeta:' + '7' * 15!r}... (5006 characters)"


# Numbers, a zero denominator, atoms with and without exponents (z0 and a bare
# z are malformed), every operator, whitespace and a stray letter.
LITERAL_ALPHABET = ["2", "12", "1/2", "1/0", "i", "z8", "z8^3", "z16^5", "z4^0",
                    "z3", "z0", "z", "+", "-", "*", "/", "^", " ", "\t", "\n", "x"]


def _parse_outcome(parse, text, mode):
    try:
        return parse(text, mode)
    except Exception as exc:
        return type(exc)


def test_literal_parser_matches_reference():
    rng = random.Random(20)
    corpus = ["".join(seq) for k in range(4)
              for seq in itertools.product(LITERAL_ALPHABET, repeat=k)]
    corpus += ["".join(rng.choices(LITERAL_ALPHABET, k=rng.randint(4, 12)))
               for _ in range(2000)]
    # joined pieces can spell a large order (z8 then 12 reads z812), whose
    # field is slow to build; those literals are left out
    corpus = [t for t in corpus if all(int(n) <= 64 for n in re.findall(r"z(\d+)", t))]
    modes = [FieldMode.parse(spec) for spec in ("gauss", "zeta:8", "zeta:16")]
    values = 0
    for text in corpus:
        for mode in modes:
            got = _parse_outcome(parse_value, text, mode)
            want = _parse_outcome(reference_parse_value, text, mode)
            if isinstance(want, type):
                assert got is want, (text, mode, got, want)
            else:
                values += 1
                assert isinstance(got, ExactValue) and got._co == want._co and \
                    got.ambient == want.ambient, (text, mode, got, want)
    assert len(corpus) > 10000 and values > 2000


def test_field_mode_spec():
    assert FieldMode.parse("gauss").spec() == "gauss"
    assert FieldMode.parse("zeta:12").spec() == "zeta:12"
    with pytest.raises(LiteralSyntaxError):
        FieldMode.parse("zeta:x")


def test_field_mode_holds_only_the_order():
    assert FieldMode.parse("gauss") == values.GAUSS_MODE == FieldMode()
    assert FieldMode.parse("gauss").order is None
    assert FieldMode.parse(" ZETA:8 ").order == 8
    assert FieldMode.parse("zeta:8")._fields == ("order",)


def test_field_mode_hashes_and_prints_by_its_order():
    assert hash(FieldMode(8)) == hash(FieldMode.parse("zeta:8"))
    assert len({values.GAUSS_MODE, FieldMode()}) == 1
    assert repr(FieldMode(8)) == "FieldMode(order=8)"


@pytest.mark.parametrize("n", [1152921504606846976, 9223372036854775804])
def test_order_above_limit_rejected_at_once(n):
    # n = 4 * (2^61 - 1) once spent its time in euler_phi's trial division,
    # and a zN literal of order 2^60 asked for a list of 2^60 coefficients
    with pytest.raises(EOError, match="limit"):
        FieldMode.parse(f"zeta:{n}")
    with pytest.raises(EOError, match="limit"):
        parse_value(f"z{n}^1")
    with pytest.raises(EOError, match="limit"):
        ExactValue.zeta(n)


def test_order_limit_admits_large_orders():
    assert values.MAX_ORDER >= 99991
    assert FieldMode.parse("zeta:99991").spec() == "zeta:99991"
    assert FieldMode.parse(f"zeta:{values.MAX_ORDER}").order == values.MAX_ORDER
    with pytest.raises(EOError):
        FieldMode.parse(f"zeta:{values.MAX_ORDER + 1}")


def test_unsupported_ambient_order_rejected():
    # downcast detection needs zeta^(N/4) to stay a monomial (N/4 < phi(N));
    # the first failing order is 420
    from eoexact.errors import EOError
    with pytest.raises(EOError):
        ExactValue.zeta(420)
    with pytest.raises(EOError):
        FieldMode.parse("zeta:420")
    assert ExactValue.zeta(360, 1) is not None
