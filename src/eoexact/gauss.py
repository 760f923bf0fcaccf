"""Exact sums of i^Q(t) over Boolean vectors, for Z4-valued quadratic forms.

A form is c + sum(lin[v] * t_v) + 2 * sum(t_u * t_v over quad pairs) taken
mod 4, with t ranging over {0,1}^nvars.  This shape is closed under
substituting F2-affine functions for variables, which is what makes the
variable-elimination evaluator below exact and enumeration-free.

An F2-affine function of the variables is written (mask, const): the xor of
the masked variables plus the constant bit.  Masks are LSB-indexed by
variable number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EOError
from .values import ExactValue, I, ONE, ZERO, as_value

Affine = tuple[int, int]


@dataclass
class Z4Form:
    nvars: int
    const: int = 0
    lin: dict[int, int] = field(default_factory=dict)
    quad: set[tuple[int, int]] = field(default_factory=set)

    # -- primitive mutators ------------------------------------------------

    def add_const(self, c: int) -> None:
        self.const = (self.const + c) % 4

    def add_linear(self, v: int, lam: int) -> None:
        lam %= 4
        if lam:
            cur = (self.lin.get(v, 0) + lam) % 4
            if cur:
                self.lin[v] = cur
            else:
                self.lin.pop(v, None)

    def add_quad_pair(self, u: int, v: int) -> None:
        """Add 2*t_u*t_v (mod 4); squares fold into the linear part."""
        if u == v:
            self.add_linear(u, 2)
            return
        key = (u, v) if u < v else (v, u)
        if key in self.quad:
            self.quad.remove(key)
        else:
            self.quad.add(key)

    # -- structured adders ---------------------------------------------------

    def add_affine_lift(self, mask: int, const_bit: int, scale: int = 1) -> None:
        """Add scale * lift(affine) where lift maps the F2 value into {0,1} in Z4.

        lift(xor of S) = sum(t_i) + 2*sum(t_i t_j), and a constant 1 flips it
        to 1 + 3*sum(t_i) + 2*sum(t_i t_j)  (all mod 4).
        """
        scale %= 4
        if scale == 0:
            return
        bits = _mask_bits(mask)
        lin_coeff = 3 if const_bit else 1
        if const_bit:
            self.add_const(scale)
        for b in bits:
            self.add_linear(b, scale * lin_coeff)
        if scale % 2:
            for x in range(len(bits)):
                for y in range(x + 1, len(bits)):
                    self.add_quad_pair(bits[x], bits[y])

    def add_doubled_product(self, a: Affine, b: Affine) -> None:
        """Add 2 * lift(a) * lift(b) (mod 4) for two affine functions.

        The F2 product expands to a quadratic polynomial; doubling makes the
        expansion additive mod 4.
        """
        amask, ac = a
        bmask, bc = b
        abits = _mask_bits(amask)
        bbits = _mask_bits(bmask)
        for x in abits:
            for y in bbits:
                if x == y:
                    self.add_linear(x, 2)
                else:
                    self.add_quad_pair(x, y)
        if bc:
            for x in abits:
                self.add_linear(x, 2)
        if ac:
            for y in bbits:
                self.add_linear(y, 2)
        if ac and bc:
            self.add_const(2)

    # -- substitution ----------------------------------------------------------

    def compose_affine(self, subst: list[Affine], new_nvars: int) -> Z4Form:
        """The form with every variable v replaced by the affine function subst[v]."""
        if len(subst) != self.nvars:
            raise EOError("substitution arity mismatch")
        out = Z4Form(new_nvars)
        out.add_const(self.const)
        for v, lam in self.lin.items():
            mask, cbit = subst[v]
            out.add_affine_lift(mask, cbit, lam)
        for (u, v) in self.quad:
            out.add_doubled_product(subst[u], subst[v])
        return out

    # -- evaluation --------------------------------------------------------------

    def value_at(self, t: int) -> int:
        acc = self.const
        for v, lam in self.lin.items():
            if (t >> v) & 1:
                acc += lam
        for (u, v) in self.quad:
            if (t >> u) & 1 and (t >> v) & 1:
                acc += 2
        return acc % 4

    def copy(self) -> Z4Form:
        return Z4Form(self.nvars, self.const, dict(self.lin), set(self.quad))


def _mask_bits(mask: int) -> list[int]:
    bits = []
    b = 0
    while mask:
        if mask & 1:
            bits.append(b)
        mask >>= 1
        b += 1
    return bits


def _drop_last_var(form: Z4Form) -> tuple[Z4Form, int, int]:
    """Split off the last variable: returns (rest, lam, link_mask)."""
    k = form.nvars - 1
    lam = form.lin.get(k, 0)
    link = 0
    rest = Z4Form(k, form.const,
                  {v: c for v, c in form.lin.items() if v != k},
                  set())
    for (u, v) in form.quad:
        if v == k:
            link |= 1 << u
        elif u == k:
            link |= 1 << v
        else:
            rest.quad.add((u, v))
    return rest, lam % 4, link


def _eliminate_with_constraint(rest: Z4Form, link: int, target: int) -> Z4Form:
    """Restrict rest to the subspace xor(link bits) == target, dropping one var."""
    pivot = link.bit_length() - 1
    others = link ^ (1 << pivot)
    subst: list[Affine] = []

    def reindex_mask(mask: int) -> int:
        out = 0
        for b in _mask_bits(mask):
            out |= 1 << (b if b < pivot else b - 1)
        return out

    for v in range(rest.nvars):
        if v == pivot:
            subst.append((reindex_mask(others), target))
        else:
            subst.append((1 << (v if v < pivot else v - 1), 0))
    return rest.compose_affine(subst, rest.nvars - 1)


def gauss_sum(form: Z4Form) -> ExactValue:
    """Exact value of sum over t in {0,1}^nvars of i^form(t), in Q(i).

    Variables are eliminated one at a time.  Summing out t_k from
    lam*t_k + 2*t_k*L(t) yields 1 + i^lam * (-1)^L: for even lam this is a
    parity constraint on L (or a constant factor), for odd lam it is
    (1 + i^lam) times i^(c*L) with c in {1, 3}, which folds back into the
    same form shape.  Every step removes at least one variable.
    """
    form = form.copy()
    factor = ONE
    while form.nvars > 0:
        rest, lam, link = _drop_last_var(form)
        if lam % 2 == 1:
            factor = factor * (ONE + I ** lam)
            if factor.is_zero():
                return ZERO
            rest.add_affine_lift(link, 0, 3 if lam == 1 else 1)
            form = rest
            continue
        if link == 0:
            if lam == 0:
                factor = factor * as_value(2)
                form = rest
                continue
            return ZERO  # factor 1 + i^2 kills every term
        target = 1 if lam == 2 else 0
        factor = factor * as_value(2)
        form = _eliminate_with_constraint(rest, link, target)
    return factor * I ** form.const


def enumerate_sum(form: Z4Form, cap: int = 1 << 24) -> ExactValue:
    """Brute-force reference for gauss_sum (differential testing)."""
    if 1 << form.nvars > cap:
        raise EOError("enumeration fallback cap exceeded")
    acc = ZERO
    for t in range(1 << form.nvars):
        acc = acc + I ** form.value_at(t)
    return acc
