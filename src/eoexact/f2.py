"""Bit-string conventions and F2 linear algebra on int bitsets.

A length-n assignment string is stored as an int whose most significant of
the n bits is variable x1 (so the string "0101" is 0b0101 with n = 4).
Linear-system variables elsewhere use plain LSB-first bit indices; functions
document which convention they take.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import EmptyInput, EOError


def string_to_mask(s: str) -> tuple[int, int]:
    """Parse a 01-string into (length, mask)."""
    if not s or any(ch not in "01" for ch in s):
        raise EOError(f"bad bit string {s!r}")
    return len(s), int(s, 2)


def mask_to_string(mask: int, n: int) -> str:
    return format(mask, f"0{n}b")


def bit_at(mask: int, pos: int, n: int) -> int:
    """Bit of variable x_{pos+1} (0-based pos, MSB-first)."""
    return (mask >> (n - 1 - pos)) & 1


def gather(mask: int, positions: Iterable[int], n: int) -> int:
    """The string of the bits of mask at the given positions, in their order."""
    out = 0
    for pos in positions:
        out = (out << 1) | ((mask >> (n - 1 - pos)) & 1)
    return out


def columns(masks: Sequence[int], n: int) -> list[int]:
    """Column p < n: the int whose bit k is the bit masks[k] reads at position p."""
    cols = [0] * n
    for k, m in enumerate(masks):
        for p in range(n):
            cols[p] |= (m >> (n - 1 - p) & 1) << k
    return cols


def hamming(mask: int) -> int:
    return mask.bit_count()


def is_balanced(mask: int, n: int) -> bool:
    return 2 * hamming(mask) == n


def weight_excess(mask: int, n: int) -> int:
    """Number of ones minus number of zeros."""
    return 2 * hamming(mask) - n


def complement(mask: int, n: int) -> int:
    return mask ^ ((1 << n) - 1)


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """Echelon form keyed by pivot: each row is reduced only by the pivots at
    its leading bit, until it is zero or has a new pivot."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            p = row.bit_length() - 1
            b = pivots.get(p)
            if b is None:
                pivots[p] = row
                break
            row ^= b
    return pivots


def rref(rows: Iterable[int]) -> list[int]:
    """Reduced row echelon basis, highest pivot first; every pivot bit occurs
    in one row only.

    One back-substitution over the echelon form, lowest pivot first, clears
    the pivot bits below each leading bit.
    """
    pivots = _echelon(rows)
    done = 0  # pivot bits whose rows are already reduced
    for p in sorted(pivots):
        row = pivots[p]
        below = row & done
        while below:
            q = below.bit_length() - 1
            row ^= pivots[q]
            below ^= 1 << q
        pivots[p] = row
        done |= 1 << p
    return [pivots[p] for p in sorted(pivots, reverse=True)]


class AffineSpace(NamedTuple):
    """Affine subspace of F2^n: offset + span(basis).

    Canonical form: basis in reduced row echelon form, offset with all pivot
    bits cleared.  Equality of canonical spaces is field-by-field.
    """

    n: int
    offset: int
    basis: tuple[int, ...]

    @staticmethod
    def make(n: int, offset: int, rows: Iterable[int]) -> AffineSpace:
        basis = rref(rows)
        for b in basis:
            p = b.bit_length() - 1
            if offset & (1 << p):
                offset ^= b
        return AffineSpace(n, offset, tuple(basis))

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def size(self) -> int:
        return 1 << len(self.basis)

    def contains(self, mask: int) -> bool:
        mask ^= self.offset
        for b in self.basis:
            if (mask >> (b.bit_length() - 1)) & 1:
                mask ^= b
        return mask == 0

    def elements(self) -> Iterator[int]:
        k = len(self.basis)
        for combo in range(1 << k):
            v = self.offset
            for i in range(k):
                if (combo >> i) & 1:
                    v ^= self.basis[i]
            yield v

    def coordinates(self, mask: int) -> tuple[int, ...]:
        """Coefficients t with mask == offset xor sum(t_i * basis_i)."""
        if not self.contains(mask):
            raise EOError("mask not in affine space")
        rel = mask ^ self.offset
        return tuple((rel >> (b.bit_length() - 1)) & 1 for b in self.basis)


def f2_affine_span(masks: Sequence[int], n: int) -> AffineSpace:
    """Minimal affine space of F2^n containing the given n-bit masks."""
    if not masks:
        raise EmptyInput("affine span of an empty set")
    base = masks[0]
    return AffineSpace.make(n, base, [m ^ base for m in masks[1:]])


def solve_linear_system(equations: list[tuple[int, int]], nvars: int):
    """Solve a system of XOR equations over LSB-indexed variables.

    Each equation is (mask, bit) meaning xor of the masked variables equals
    bit.  Returns None when inconsistent, else (exprs, free): exprs[x] is
    (mask, bit), saying that variable x equals bit xor the free variables in
    mask, and free counts the free variables, numbered upward from the
    lowest.  The echelon form is read lowest pivot first, so every variable
    below a pivot row's leading bit already has its expression.
    """
    # augmented rows (mask << 1) | bit; a row 1 reads 0 = 1
    pivots = _echelon((mask << 1) | bit for mask, bit in equations)
    if 0 in pivots:
        return None
    exprs: list[tuple[int, int]] = []
    free = 0
    for x in range(nvars):
        row = pivots.get(x + 1)
        if row is None:
            exprs.append((1 << free, 0))
            free += 1
            continue
        mask, bit = 0, row & 1
        rest = (row >> 1) ^ (1 << x)
        while rest:
            q = rest.bit_length() - 1
            m, b = exprs[q]
            mask ^= m
            bit ^= b
            rest ^= 1 << q
        exprs.append((mask, bit))
    return exprs, free
