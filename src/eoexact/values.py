"""Exact complex arithmetic: Gaussian rationals and cyclotomic fields Q(zeta_N).

Every value is stored as Python ints: numerators over a power basis, then one
denominator d > 0, with the gcd of all of them 1.  A Gaussian rational is
(a, b, d), meaning (a + b*i)/d; a value of Q(zeta_N) is
(c_0, ..., c_{phi(N)-1}, d), meaning sum c_j zeta_N^j / d with the vector
reduced modulo the N-th cyclotomic polynomial.  Construction canonicalises,
and any cyclotomic value that actually lies in Q(i) is downcast to the
Gaussian form, so equality is a plain structural comparison, and a real
Gaussian value hashes like the equal int or Fraction.  Values are immutable.

Two values in different ambient cyclotomic fields compare unequal even when
they denote the same algebraic number; a session fixes one N and sticks to it
(divisor-field literals are embedded upward when parsed).
"""

from __future__ import annotations

import re as _re
import sys
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import zip_longest
from math import gcd, lcm
from typing import NamedTuple

from .errors import (
    EOError,
    FieldMismatch,
    LiteralSyntaxError,
    ZeroValue,
)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divmod_monic(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of the int polynomial num by the monic int
    polynomial den (ascending coefficients); the remainder has len(den) - 1
    entries."""
    num = list(num)
    dd = len(den) - 1
    terms = [(j, e) for j, e in enumerate(den[:dd]) if e]
    quot = [0] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, e in terms:
                num[i - dd + j] -= c * e
    return quot, num[:dd] + [0] * (dd - len(num))


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by Phi_d for every proper divisor d of n.
    """
    if n < 1:
        raise EOError("cyclotomic index must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _divmod_monic(poly, cyclotomic_coeffs(d))
            if any(rem):
                raise EOError("cyclotomic division left a remainder")
    return tuple(poly)


class _Field(NamedTuple):
    """What arithmetic in Q(zeta_n) needs of its order; its size is the
    number of terms of Phi_n, never a phi(n)-square table."""

    n: int
    phi: int
    i_pos: int  # position of i in the power basis: n/4 when 4 | n, else 0
    # (j - phi, e) for each nonzero term e*x^j of Phi_n below x^phi: a
    # coefficient c at position k >= phi folds away as c*e subtracted at k + j - phi
    terms: tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def _field(n: int) -> _Field:
    phi = cyclotomic_coeffs(n)
    k = len(phi) - 1
    return _Field(n, k, n // 4 if n % 4 == 0 else 0,
                  tuple((j - k, e) for j, e in enumerate(phi[:k]) if e))


def _reduce(field: _Field, nums: list[int]) -> list[int]:
    """The int list nums, of any length, reduced in place modulo Phi_n,
    top-down with no quotient; returned."""
    _, k, _, terms = field
    for i in range(len(nums) - 1, k - 1, -1):
        c = nums[i]
        if c:
            for j, e in terms:
                nums[i + j] -= c * e
    if len(nums) > k:
        del nums[k:]
    else:
        nums.extend([0] * (k - len(nums)))
    return nums


def _mul(field: _Field, x, y) -> list[int]:
    """The product of the int vectors x and y (any lengths) reduced modulo
    Phi_n: the one multiply-and-reduce kernel of Q(zeta_n)."""
    out = [0] * (len(x) + len(y) - 1)
    for i, p in enumerate(x):
        if p:
            for j, q in enumerate(y, i):
                out[j] += p * q
    return _reduce(field, out)


def _galois(field: _Field, nums, k: int) -> list[int]:
    """The automorphism zeta_n -> zeta_n^k (gcd(k, n) = 1) applied to a
    reduced int vector, reduced again."""
    n = field.n
    out = [0] * n
    for j, c in enumerate(nums):
        out[j * k % n] = c
    return _reduce(field, out)


# The largest ambient order: Q(zeta_N) builds tables of up to N + 1 entries
# and euler_phi trial-divides N, so a larger order, from EO_FIELD or a zN
# literal, is refused before either runs.
MAX_ORDER = 1 << 17


def _check_ambient(n: int) -> None:
    # Downcast detection of Q(i) values relies on zeta^(N/4) reducing to a
    # monomial, which needs N/4 < phi(N).  First failure is N = 420.
    if n < 1:
        raise EOError("cyclotomic index must be positive")
    if n > MAX_ORDER:
        d = _decimal(n)  # past 20 digits, named by its first 20 and its length
        d = d if len(d) <= 20 else f"{d[:20]}... ({len(d)} digits)"
        raise EOError(f"cyclotomic order {d} above the limit {MAX_ORDER}")
    if n % 4 == 0 and n // 4 >= euler_phi(n):
        raise EOError(f"unsupported ambient cyclotomic order {n}")


def _as_rational(x) -> int | Fraction:
    if isinstance(x, (int, Fraction)):
        return x
    raise EOError(f"cannot coerce {x!r} to an exact value")


def _gaussian(a: int, b: int, d: int) -> ExactValue:
    """The Gaussian value (a + b*i)/d in canonical form; d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return ExactValue(None, (a, b, d))


def _cyclotomic(field: _Field, nums: list[int], d: int) -> ExactValue:
    """The value sum nums[j] zeta_n^j / d in canonical form, downcast to a
    Gaussian triple when it lies in Q(i); d != 0, n passed _check_ambient.
    A list nums of the wrong length is reduced in place."""
    n, k, q, _ = field
    if len(nums) != k:
        _reduce(field, nums)
    g = gcd(d, *nums)
    if d < 0:
        g = -g
    if g != 1:
        nums, d = [c // g for c in nums], d // g
    # Q(i) holds the values whose only nonzero positions are 0 and q
    if k == nums.count(0) + (nums[0] != 0) + (q != 0 and nums[q] != 0):
        return ExactValue(None, (nums[0], nums[q] if q else 0, d))
    return ExactValue(n, (*nums, d))


def _meet(n: int | None, m: int | None) -> int | None:
    """The ambient order holding values of orders n and m (None: Gaussian)."""
    if n is None or n == m:
        return m
    if m is None or n % m == 0:
        return n
    if m % n == 0:
        return m
    raise FieldMismatch(f"incompatible cyclotomic orders {n} and {m}")


_HASH_P, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


class ExactValue:
    """An exact complex number: Gaussian rational or cyclotomic."""

    __slots__ = ("_n", "_co")

    _n: int | None
    _co: tuple[int, ...]

    def __init__(self, n: int | None, co: tuple):
        # Internal: use the factory constructors below.
        self._n = n
        self._co = co

    # -- constructors --------------------------------------------------

    @staticmethod
    def gauss(re, im=0) -> ExactValue:
        re, im = _as_rational(re), _as_rational(im)
        p, q, r, s = re.numerator, re.denominator, im.numerator, im.denominator
        return _gaussian(p * s, r * q, q * s)

    @staticmethod
    def rational(q) -> ExactValue:
        q = _as_rational(q)
        return ExactValue(None, (q.numerator, 0, q.denominator))

    @staticmethod
    def zeta(n: int, k: int = 1) -> ExactValue:
        """The root of unity zeta_n^k, canonicalised."""
        _check_ambient(n)
        k %= n
        return _cyclotomic(_field(n), [0] * k + [1], 1)

    # -- predicates ----------------------------------------------------

    @property
    def is_gaussian(self) -> bool:
        return self._n is None

    @property
    def ambient(self) -> int | None:
        return self._n

    def is_zero(self) -> bool:
        return self._n is None and self._co[0] == 0 and self._co[1] == 0

    def gauss_parts(self) -> tuple[Fraction, Fraction]:
        if self._n is not None:
            raise EOError("value is not a Gaussian rational")
        a, b, d = self._co
        return Fraction(a, d), Fraction(b, d)

    # -- coercion ------------------------------------------------------

    def _embed(self, field: _Field) -> tuple[list[int] | tuple[int, ...], int]:
        """Numerators and denominator of self inside Q(zeta_n), reduced; a
        Gaussian value gives the shortest vector, [a] or a up to b at the
        position of i."""
        co, n = self._co, field.n
        if self._n == n:
            return co[:-1], co[-1]
        if self._n is None:
            a, b, d = co
            if not b:
                return [a], d
            q = field.i_pos
            if not q:
                raise FieldMismatch(f"i is not contained in Q(zeta_{n})")
            return [a] + [0] * (q - 1) + [b], d
        if n % self._n != 0:
            raise FieldMismatch(f"cannot embed Q(zeta_{self._n}) into Q(zeta_{n})")
        step = n // self._n
        out = [0] * n
        for j, c in enumerate(co[:-1]):
            out[j * step] = c
        return _reduce(field, out), co[-1]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> ExactValue:
        other = as_value(other)
        if self._n is None and other._n is None:
            (a, b, d), (c, e, f) = self._co, other._co
            if d == f:
                return _gaussian(a + c, b + e, d)
            return _gaussian(a * f + c * d, b * f + e * d, d * f)
        field = _field(_meet(self._n, other._n))
        (x, d), (y, f) = self._embed(field), other._embed(field)
        if d == f:
            return _cyclotomic(field, [p + q for p, q in zip_longest(x, y, fillvalue=0)], d)
        return _cyclotomic(
            field, [p * f + q * d for p, q in zip_longest(x, y, fillvalue=0)], d * f)

    def __radd__(self, other) -> ExactValue:
        return self.__add__(other)

    def __neg__(self) -> ExactValue:
        if self._n is None:
            a, b, d = self._co
            return ExactValue(None, (-a, -b, d))
        co = self._co
        return ExactValue(self._n, (*(-c for c in co[:-1]), co[-1]))

    def __sub__(self, other) -> ExactValue:
        return self.__add__(-as_value(other))

    def __rsub__(self, other) -> ExactValue:
        return (-self).__add__(other)

    def __mul__(self, other) -> ExactValue:
        other = as_value(other)
        if self._n is None and other._n is None:
            (a, b, d), (c, e, f) = self._co, other._co
            return _gaussian(a * c - b * e, a * e + b * c, d * f)
        field = _field(_meet(self._n, other._n))
        (x, d), (y, f) = self._embed(field), other._embed(field)
        return _cyclotomic(field, _mul(field, x, y), d * f)

    def __rmul__(self, other) -> ExactValue:
        return self.__mul__(other)

    def inverse(self) -> ExactValue:
        if self.is_zero():
            raise ZeroDivisionError("division by exact zero")
        if self._n is None:
            a, b, d = self._co
            return _gaussian(a * d, -b * d, a * a + b * b)
        n, nums, d = self._n, self._co[:-1], self._co[-1]
        field = _field(n)
        if nums.count(0) == field.phi - 1:  # c zeta^j / d inverts to d zeta^(n - j) / c
            j = next(j for j, c in enumerate(nums) if c)
            return _cyclotomic(field, [0] * (n - j) + [d], nums[j])
        # 1/c is the product of the other Galois conjugates of c over the
        # rational norm c * (that product).
        prod = [1]
        for k in range(2, n):
            if gcd(k, n) == 1:
                prod = _mul(field, prod, _galois(field, nums, k))
        norm = _mul(field, nums, prod)
        if any(norm[1:]):
            raise EOError("cyclotomic inverse failed; norm is not rational")
        return _cyclotomic(field, [c * d for c in prod], norm[0])

    def __truediv__(self, other) -> ExactValue:
        return self.__mul__(as_value(other).inverse())

    def __rtruediv__(self, other) -> ExactValue:
        return as_value(other).__mul__(self.inverse())

    def __pow__(self, k: int) -> ExactValue:
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return ONE
        if k == 1:
            return self
        # power_product's one-factor case, without its set-up
        *nums, d = self._co
        if self._n is None:
            return _gaussian(*_raw_power(_gauss_mul, nums, k), d ** k)
        field = _field(self._n)
        return _cyclotomic(field, _raw_power(partial(_mul, field), nums, k), d ** k)

    def conj(self) -> ExactValue:
        if self._n is None:
            a, b, d = self._co
            return ExactValue(None, (a, -b, d))
        field = _field(self._n)
        return _cyclotomic(field, _galois(field, self._co[:-1], self._n - 1), self._co[-1])

    def abs2(self) -> ExactValue:
        """x * conj(x); always a real value."""
        return self * self.conj()

    def is_unimodular(self) -> bool:
        return self.abs2() == ONE

    # -- comparisons / hashing ------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is not ExactValue:  # skips Fraction's ABC check
            if isinstance(other, (int, Fraction)):
                other = as_value(other)
            elif not isinstance(other, ExactValue):
                return NotImplemented
        return self._n == other._n and self._co == other._co

    def __hash__(self) -> int:
        if self._n is None:
            a, b, d = self._co
            if b:
                return hash(self._co)
            if d == 1:
                return hash(a)
            # A real value hashes like the Fraction a/d it equals: CPython's
            # rational hash, |a| / d modulo the hash prime, signed like a (the
            # interpreter turns a returned -1 into -2, as it does for Fraction).
            h = _HASH_INF if d % _HASH_P == 0 else abs(a) * pow(d, -1, _HASH_P) % _HASH_P
            return h if a >= 0 else -h
        return hash((self._n, self._co))

    def __repr__(self) -> str:
        return f"ExactValue({render_value(self)!r})"

    def __str__(self) -> str:
        return render_value(self)

ZERO = ExactValue.gauss(0, 0)
ONE = ExactValue.gauss(1, 0)
I = ExactValue.gauss(0, 1)
MINUS_ONE = ExactValue.gauss(-1, 0)


def as_value(x) -> ExactValue:
    if isinstance(x, ExactValue):
        return x
    return ExactValue.rational(x)


# -- raw numerators ------------------------------------------------------------


def _gauss_mul(x, y) -> tuple[int, int]:
    (a, b), (c, e) = x, y
    return a * c - b * e, a * e + b * c


def _raw_power(mul, x, k: int, acc=None):
    """acc times x to the power k >= 1 (x ** k when acc is None) for raw
    numerators under the product mul: the lowest set bit seeds the power,
    and squares stop at the top bit."""
    while not k & 1:
        x = mul(x, x)
        k >>= 1
    acc = x if acc is None else mul(acc, x)
    while k := k >> 1:
        x = mul(x, x)
        if k & 1:
            acc = mul(acc, x)
    return acc


def power_product(factors) -> ExactValue:
    """The product of value ** count over the (value, count) pairs, counts
    >= 0, normalized once: raw numerators, Gaussian (a, b) pairs or lists
    multiplied through _mul in the field that _meet gives for the values of
    nonzero count, over the product of the denominators.  Fields that do not
    meet raise FieldMismatch, even where a power lies in Q(i)."""
    factors = [(v, k) for v, k in factors if k]
    n = reduce(_meet, (v._n for v, _ in factors), None)
    field = None if n is None else _field(n)
    mul = _gauss_mul if field is None else partial(_mul, field)
    nums, den = None, 1
    for v, k in factors:
        nums = _raw_power(mul, v._co[:2] if field is None else v._embed(field)[0], k, nums)
        den *= v._co[-1] ** k
    if nums is None:
        return ONE
    return _gaussian(*nums, den) if field is None else _cyclotomic(field, nums, den)


def _gauss_mul_add(nxt, key, val, rest, matches):
    a, b = val
    for out, _, (c, e) in matches:
        k = rest | out
        if k in nxt:
            x, y = nxt[k]
            nxt[k] = (x + a * c - b * e, y + a * e + b * c)
        else:
            nxt[k] = (a * c - b * e, a * e + b * c)


class RawArm:
    """Bare int numerators of one ambient field, for sums of many products.

    A numerator is (a, b), meaning a + b*i, when every value is Gaussian, and
    otherwise a list of power-basis coefficients of the one Q(zeta_N) that
    holds every value.  The caller keeps the denominator aside, so no product
    or sum builds an ExactValue or takes a gcd.  ``mul_add`` is the merge
    kernel of ``grids.frontier_pass``: for each (out, string, numerator) in
    matches it adds val * numerator into nxt[rest | out].  A Q(zeta_N)
    product goes through the multiply-and-reduce kernel of ExactValue, so
    every sum is a reduced list of phi(N) entries.
    """

    __slots__ = ("field", "one", "mul_add")

    def __init__(self, vals):
        n = None
        for v in vals:
            if v._n is not None and v._n != n:
                n = _meet(n, v._n)
        if n is None:
            self.field, self.one, self.mul_add = None, (1, 0), _gauss_mul_add
            return
        self.field = field = _field(n)
        self.one = [1] + [0] * (field.phi - 1)

        def mul_add(nxt, key, val, rest, matches):
            for out, _, w in matches:
                k = rest | out
                prod = _mul(field, val, w)
                acc = nxt.get(k)
                if acc is None:
                    nxt[k] = prod
                else:
                    for j, c in enumerate(prod):
                        acc[j] += c
        self.mul_add = mul_add

    def numerators(self, entries) -> tuple[dict, int]:
        """The values of the mapping entries over their least common
        denominator L, as {key: numerator}, and L; FieldMismatch when a value
        does not embed in the arm.  A Q(zeta_N) numerator is reduced, and may
        be shorter than phi(N) when its value is Gaussian."""
        field = self.field
        den = lcm(*(v._co[-1] for v in entries.values()))
        out = {}
        for k, v in entries.items():
            if field is None:
                nums = v._co[:2]
            else:
                nums = v._embed(field)[0]
            f = den // v._co[-1]
            out[k] = nums if f == 1 else tuple(c * f for c in nums)
        return out, den

    def value(self, nums, d: int) -> ExactValue:
        """The value numerator / d in canonical form."""
        return _gaussian(*nums, d) if self.field is None else _cyclotomic(self.field, nums, d)


def _atan_inv(x: int, w: int) -> int:
    """2^w arctan(1/x), x > 1: each series term floor(2^w / ((2k+1) x^(2k+1)))
    is one exact floor, so the sum is within 2 + w / (2 log2 x)."""
    t = s = (1 << w) // x
    k, x2 = 1, x * x
    while t:
        t //= x2
        k += 2
        s += -(t // k) if k & 2 else t // k
    return s


@lru_cache(maxsize=None)
def _cos_table(n: int, p: int) -> tuple[int, ...]:
    """C_j with |C_j - 2^p cos(2 pi j / n)| < 2 for 0 <= j <= n/2, by int
    floors at w = p + g bits, where 2^g > 5w + 45.

    Machin's pi is within 3.7w + 40 of 2^w pi, so X = floor(2 j pi / n) is
    within 3.7w + 41 of 2^w x, x <= pi, and cos moves less than x does.  The
    Taylor term t_k = floor(t_(k-1) X^2 / (4^w 2k (2k-1))) is e_k < r_k e_(k-1)
    + 1 below its exact value, r_k = x^2 / (2k (2k-1)), so e_k < 2 as r_2 <
    0.86 and r_k < 0.35 after.  The first t_K = 0 ends the sum with K <= w/2
    + 1 and a tail below 2: s is within 4.7w + 45 of 2^w cos x.
    """
    g = p.bit_length() + 8
    w = p + g
    pi = 16 * _atan_inv(5, w) - 4 * _atan_inv(239, w)
    out = []
    for j in range(n // 2 + 1):
        x = 2 * j * pi // n
        u = x * x
        t = s = 1 << w
        k = 0
        while t:
            k += 2
            t = (t * u >> 2 * w) // (k * (k - 1))
            s += -t if k & 2 else t
        out.append(s >> g)
    return tuple(out)


def compare_abs(a: ExactValue, b: ExactValue) -> int:
    """Exact comparison of |a| and |b|: returns -1, 0 or 1.

    d = |a|^2 - |b|^2 is formed exactly, which decides equality and Gaussian
    d.  A cyclotomic d = sum c_j zeta^j / den != 0 has the sign of S = sum
    c_j cos(2 pi j / n), and sum c_j C_j over _cos_table at p bits is within
    2 sum |c_j| of 2^p S: it decides once it reaches that bound, and p
    doubles until it does, which ends as 2^p |S| grows without bound.
    """
    d = a.abs2() - b.abs2()
    if d.is_zero():
        return 0
    if d.is_gaussian:
        re, im = d.gauss_parts()
        if im != 0:
            raise EOError("magnitude difference is not real")
        return 1 if re > 0 else -1
    n, nums = d.ambient, d._co[:-1]
    bound = 2 * sum(map(abs, nums))
    p = 64
    while True:
        table = _cos_table(n, p)
        s = sum(c * table[min(j, n - j)] for j, c in enumerate(nums) if c)
        if abs(s) >= bound:
            return 1 if s > 0 else -1
        p *= 2


# -- root orders -------------------------------------------------------------


class RootOrder(NamedTuple):
    kind: str  # "root" | "not_root" | "unknown"
    order: int | None = None

    @property
    def is_root(self) -> bool:
        return self.kind == "root"


def root_order(x: ExactValue, cap: int = 64) -> RootOrder:
    """Smallest k <= cap with x**k == 1, or the reason there is none.

    The roots of unity are the M-th roots for M = 4 in Q(i) and M = lcm(2, N)
    in Q(zeta_N), so x is one exactly when x**M == 1, and its order is the
    least divisor of M that x reaches 1 at, found prime by prime.  A root of
    order above the cap is reported "unknown".
    """
    if x.is_zero():
        raise ZeroValue("root order of zero is undefined")
    if not x.is_unimodular():
        return RootOrder("not_root")
    m = order = 4 if x.is_gaussian else lcm(2, x.ambient)
    rest, p = m, 2
    while rest > 1:
        if p * p > rest:
            p = rest  # the last prime factor
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            while order % p == 0 and x ** (order // p) == ONE:
                order //= p
        p += 1
    # x**(order // p) == 1 implies x**m == 1, so only an order still at m
    # leaves open whether x is a root at all
    if order == m and x ** m != ONE:
        return RootOrder("not_root")
    return RootOrder("root", order) if order <= cap else RootOrder("unknown")


# -- value literals -----------------------------------------------------------


class FieldMode(NamedTuple):
    """Session arithmetic mode: the order N of one fixed Q(zeta_N), or None
    for Gaussian rationals."""

    order: int | None = None

    @staticmethod
    def parse(spec: str) -> FieldMode:
        spec = spec.strip().lower()
        if spec == "gauss":
            return FieldMode()
        if spec.startswith("zeta:"):
            try:
                n = int(spec.split(":", 1)[1])
            except ValueError:
                raise LiteralSyntaxError(f"bad field spec {_quote(spec)}") from None
            _check_ambient(n)
            return FieldMode(n)
        raise LiteralSyntaxError(f"bad field spec {_quote(spec)}")

    def spec(self) -> str:
        return "gauss" if self.order is None else f"zeta:{self.order}"


GAUSS_MODE = FieldMode()

# One term of a value literal: a run of signs, then an optional rational, an
# optional '*' and an optional atom, i or zN^k.  Whitespace may stand between
# these pieces but never inside a number or an atom, so "2 3" is two terms.
_TERM = _re.compile(r"\s*((?:[+-]\s*)*)(?:(\d+(?:/\d+)?)\s*)?(\*\s*)?(i|z(\d+)(?:\^(\d+))?)?")


def _quote(text: str) -> str:
    """repr(text), or past 20 characters the repr of its first 20 and its
    length, as _check_ambient names a long order: no error echoes a long
    literal whole."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


def _terms(text: str) -> list[_re.Match]:
    """The term matches that cover text; all are matched before any is
    evaluated, so a character no term holds is reported first."""
    end = len(text.rstrip())
    if not end:
        raise LiteralSyntaxError("empty value literal")
    out, pos = [], 0
    while pos < end:
        m = _TERM.match(text, pos, end)
        if not any(m.groups()):
            raise LiteralSyntaxError(
                f"bad value literal {_quote(text)} at {_quote(text[pos:end].lstrip())}")
        out.append(m)
        pos = m.end()
    return out


MAX_LITERAL_DIGITS = 100_000  # such a number parses in about 25 ms (2-vCPU VM, CPython 3.11)


def _int(digits: str) -> int:
    """int(digits) for a run of up to MAX_LITERAL_DIGITS digits.  CPython's
    int() refuses more than sys.get_int_max_str_digits() digits, never below
    640, so a longer run is read by halves, as _decimal writes it."""
    if len(digits) > MAX_LITERAL_DIGITS:
        raise LiteralSyntaxError(f"number of more than {MAX_LITERAL_DIGITS} digits")
    if len(digits) <= _SHORT_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _int(digits[:-k]) * 10 ** k + _int(digits[-k:])


def _atom(m: _re.Match, mode: FieldMode) -> ExactValue:
    """The atom of the term match m, i or zN^k, in the session field."""
    tok, n, k = m.group(4, 5, 6)
    if tok == "i":
        return I
    n, k = _int(n), _int(k) if k else 1
    if n < 1:
        raise LiteralSyntaxError(f"bad root order in {_quote(tok)}")
    order = mode.order
    if order is not None:
        if order % n != 0:
            raise LiteralSyntaxError(
                f"literal {_quote(tok)} does not live in the session field Q(zeta_{order})")
        return ExactValue.zeta(order, order // n * k)
    val = ExactValue.zeta(n, k)
    if not val.is_gaussian:
        raise LiteralSyntaxError(
            f"literal {_quote(tok)} needs a cyclotomic session field (EO_FIELD=zeta:{n})")
    return val


def parse_value(text: str, mode: FieldMode = GAUSS_MODE) -> ExactValue:
    """Parse a value literal: terms, each a run of signs and then a rational,
    an atom, or a rational times an atom ('*' optional); every term after the
    first needs a sign."""
    total = ZERO
    for t, m in enumerate(_terms(text)):
        signs, num, star, atom = m.group(1, 2, 3, 4)
        if t and not signs:
            raise LiteralSyntaxError(f"missing '+' or '-' between terms in {_quote(text)}")
        if not (num or star or atom):
            raise LiteralSyntaxError(f"trailing operator in {_quote(text)}")
        term = ONE
        if num:
            # tested before Fraction, whose error prints the numerator, and
            # str() refuses a numerator of more than 4300 digits
            p, _, q = num.partition("/")
            q = _int(q) if q else 1
            if not q:
                raise LiteralSyntaxError(f"zero denominator in {_quote(text)}")
            term = ExactValue.rational(Fraction(_int(p), q))
        if star and not (num and atom):
            raise LiteralSyntaxError(
                f"'*' needs a number before and an atom after in {_quote(text)}")
        if atom:
            term = term * _atom(m, mode)
        total = total + (-term if signs.count("-") % 2 else term)
    return total


# int() and str() convert up to this many digits, whatever the digit limit
_SHORT_DIGITS = 600
_SHORT = 10 ** _SHORT_DIGITS


def _decimal(n: int) -> str:
    """str(n) for an int of any length.  CPython's str() refuses an int of
    more digits than sys.get_int_max_str_digits(), which is never below 640,
    so a longer one is split by divmod with a power of ten, halving its
    digit count per level."""
    if -_SHORT < n < _SHORT:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
    hi, lo = divmod(n, 10 ** k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def _rational(q: Fraction) -> str:
    """str(q), also past CPython's integer-string limit."""
    if q.denominator == 1:
        return _decimal(q.numerator)
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


def render_value(v: ExactValue) -> str:
    """Canonical literal for a value; parse_value reads it back to v while
    none of its numbers has more than MAX_LITERAL_DIGITS digits."""
    if v.is_gaussian:
        re, im = v.gauss_parts()
        if im == 0:
            return _rational(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{_rational(im)}i"
        if im > 0:
            return f"{_rational(re)}+i" if im == 1 else f"{_rational(re)}+{_rational(im)}i"
        return f"{_rational(re)}-i" if im == -1 else f"{_rational(re)}-{_rational(-im)}i"
    n = v.ambient
    den = v._co[-1]
    pieces: list[str] = []
    for j, c in enumerate(v._co[:-1]):
        if c == 0:
            continue
        c = Fraction(c, den)
        if j == 0:
            body = _rational(abs(c))
        elif abs(c) == 1:
            body = f"z{n}^{j}"
        else:
            body = f"{_rational(abs(c))}*z{n}^{j}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"
