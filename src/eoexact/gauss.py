"""Exact sums of i^Q(t) over Boolean vectors, for Z4-valued quadratic forms.

A form is c + sum(lin[v] * t_v) + 2 * sum(t_u * t_v over neighbour pairs)
taken mod 4, with t ranging over {0,1}^nvars.  This shape is closed under
substituting F2-affine functions for variables, which is what makes the
variable-elimination evaluator below exact and enumeration-free.

An F2-affine function of the variables is written (mask, const): the xor of
the masked variables plus the constant bit.  Masks are LSB-indexed by
variable number.
"""

from __future__ import annotations

from .values import ExactValue, I, ONE, ZERO, power_product

Affine = tuple[int, int]


class Z4Form:
    """lin[v] is the coefficient of t_v; adj[v] is the neighbour mask of t_v,
    with bit u set iff 2*t_u*t_v is a term."""

    def __init__(self, nvars: int, const: int = 0, lin: list[int] | None = None,
                 adj: list[int] | None = None):
        self.nvars = nvars
        self.const = const
        self.lin = lin or [0] * nvars
        self.adj = adj or [0] * nvars

    # -- primitive mutators ------------------------------------------------

    def add_const(self, c: int) -> None:
        self.const = (self.const + c) % 4

    def add_linear(self, v: int, lam: int) -> None:
        self.lin[v] = (self.lin[v] + lam) % 4

    def remove_var(self, v: int) -> tuple[int, int]:
        """Drop every term of t_v; returns its linear coefficient and neighbour mask."""
        lam, nb = self.lin[v], self.adj[v]
        self.lin[v] = self.adj[v] = 0
        for u in _mask_bits(nb):
            self.adj[u] ^= 1 << v
        return lam, nb

    # -- structured adders ---------------------------------------------------

    def add_affine_lift(self, mask: int, const_bit: int, scale: int = 1) -> None:
        """Add scale * lift(affine) where lift maps the F2 value into {0,1} in Z4.

        lift(xor of S) = sum(t_i) + 2*sum(t_i t_j), and a constant 1 flips it
        to 1 + 3*sum(t_i) + 2*sum(t_i t_j)  (all mod 4).
        """
        scale %= 4
        if scale == 0:
            return
        if const_bit:
            self.add_const(scale)
        lam = scale * (3 if const_bit else 1)
        for b in _mask_bits(mask):
            self.add_linear(b, lam)
            if scale % 2:
                self.adj[b] ^= mask ^ (1 << b)

    def add_doubled_product(self, a: Affine, b: Affine) -> None:
        """Add 2 * lift(a) * lift(b) (mod 4) for two affine functions.

        The F2 product expands to a quadratic polynomial; doubling makes the
        expansion additive mod 4.  Each t_x t_y with x in a and y in b sets
        bit y of adj[x] here and bit x of adj[y] in the second loop.
        """
        amask, ac = a
        bmask, bc = b
        for x in _mask_bits(amask):
            self.adj[x] ^= bmask & ~(1 << x)
            self.add_linear(x, 2 * (((bmask >> x) & 1) + bc))
        for y in _mask_bits(bmask):
            self.adj[y] ^= amask & ~(1 << y)
            self.add_linear(y, 2 * ac)
        self.add_const(2 * ac * bc)


def _mask_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def gauss_sum(form: Z4Form) -> ExactValue:
    """Exact value of sum over t in {0,1}^nvars of i^form(t), in Q(i).

    Variables are eliminated one at a time.  Summing out t_k from
    lam*t_k + 2*t_k*L(t), with L the xor of k's neighbours, yields
    1 + i^lam * (-1)^L.  For odd lam this is (1 + i^lam) times i^(c*L) with
    c in {1, 3}, which folds back into the same form shape.  For even lam it
    is a constant factor, or twice a parity constraint L == target: one
    neighbour p is solved for, and t_p = target xor (the other neighbours)
    is substituted into p's own terms only.  Every step removes one or two
    variables.  The factors 2, 1 + i and 1 - i are counted, and each is
    raised to its count once.
    """
    work = Z4Form(form.nvars, form.const, list(form.lin), list(form.adj))
    counts = [0, 0, 0, 0]  # exponents of _FACTORS
    alive = (1 << form.nvars) - 1
    while alive:
        k = alive.bit_length() - 1
        alive ^= 1 << k
        lam, link = work.remove_var(k)
        if lam % 2 == 1:
            counts[lam] += 1  # the factor 1 + i^lam
            work.add_affine_lift(link, 0, 3 if lam == 1 else 1)
        elif link == 0 and lam == 2:
            return ZERO  # factor 1 + i^2 kills every term
        else:
            counts[2] += 1
            if link:
                p = link.bit_length() - 1
                alive ^= 1 << p
                solved = (link ^ (1 << p), 1 if lam == 2 else 0)
                lam_p, nb_p = work.remove_var(p)
                work.add_affine_lift(*solved, lam_p)
                work.add_doubled_product(solved, (nb_p, 0))
    counts[0] = work.const
    return power_product(zip(_FACTORS, counts))


# i, 1 + i, 2 and 1 - i: position lam holds 1 + i^lam for odd lam
_FACTORS = (I, ONE + I, ExactValue.gauss(2), ONE - I)
