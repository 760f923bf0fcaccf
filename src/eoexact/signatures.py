"""Signatures (sparse arity-k value tables) and the single-signature gadget calculus.

Index convention: a signature maps each mask ``idx`` in [0, 2^k) to the value
on the string whose bit for variable x_{p+1} is ``(idx >> (k-1-p)) & 1``
(MSB-first, matching the rendered 01-string); only nonzero values are stored.
Port arguments in this module are 0-based.  Zero signatures are legal values
throughout; callers test for triviality where they care.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import f2
from .errors import (
    ArityMismatch,
    CapExceeded,
    EOError,
    LiteralSyntaxError,
    PortError,
    ZeroSignature,
)
from .values import (
    GAUSS_MODE,
    ONE,
    ZERO,
    ExactValue,
    FieldMode,
    as_value,
    compare_abs,
    parse_value,
    render_value,
)

ARITY_CAP = 16


class Signature:
    """Function from {0,1}^arity to exact values, stored as its nonzero
    entries in mask order; every other mask reads zero.  The support and the
    hash are computed once, at construction.  Immutable."""

    __slots__ = ("arity", "entries", "name", "_support", "_hash")

    arity: int
    entries: Mapping[int, ExactValue]
    name: str | None

    def __init__(self, arity: int, entries: Mapping[int, ExactValue],
                 name: str | None = None):
        if arity < 0 or arity > ARITY_CAP:
            raise CapExceeded(f"arity {arity} outside [0, {ARITY_CAP}]")
        size = 1 << arity
        kept: dict[int, ExactValue] = {}
        for mask in sorted(entries):
            if not 0 <= mask < size:
                raise ArityMismatch(f"mask {mask} outside [0, {size}) for arity {arity}")
            if not entries[mask].is_zero():
                kept[mask] = entries[mask]
        init = object.__setattr__
        init(self, "arity", arity)
        init(self, "entries", MappingProxyType(kept))
        init(self, "name", name)
        init(self, "_support", tuple(kept))
        init(self, "_hash", hash((arity, tuple(kept.items()))))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which __setattr__ leaves as
        # the only way to set the slots
        return Signature, (self.arity, dict(self.entries), self.name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self._hash == other._hash and self.arity == other.arity and \
            self.entries == other.entries

    def __hash__(self) -> int:
        return self._hash

    # -- access ----------------------------------------------------------

    @property
    def values(self) -> tuple[ExactValue, ...]:
        """The dense table of all 2^arity values, built on each call."""
        return tuple(self.entries.get(m, ZERO) for m in range(1 << self.arity))

    def value(self, mask: int) -> ExactValue:
        return self.entries.get(mask, ZERO)

    def value_at(self, string: str) -> ExactValue:
        n, mask = f2.string_to_mask(string)
        if n != self.arity:
            raise ArityMismatch(f"string length {n} vs arity {self.arity}")
        return self.value(mask)

    def support(self) -> tuple[int, ...]:
        return self._support

    def support_strings(self) -> tuple[str, ...]:
        return tuple(f2.mask_to_string(m, self.arity) for m in self.support())

    def is_zero(self) -> bool:
        return not self._support

    def is_eo(self) -> bool:
        """True when every support string is balanced (needs even arity unless zero)."""
        return all(f2.is_balanced(m, self.arity) for m in self.support())

    def scaled(self, c) -> Signature:
        c = as_value(c)
        return Signature(self.arity, {m: c * v for m, v in self.entries.items()})

    def with_name(self, name: str | None) -> Signature:
        return Signature(self.arity, self.entries, name)

    def __repr__(self) -> str:
        label = self.name or "sig"
        entries = ", ".join(f"{f2.mask_to_string(m, self.arity)}={render_value(v)}"
                            for m, v in self.entries.items())
        return f"<{label}/{self.arity}: {entries or '0'}>"


def from_entries(arity: int, entries: dict[str, object] | dict[int, object],
                 name: str | None = None) -> Signature:
    """Build a signature from a sparse {string-or-mask: value} mapping."""
    table: dict[int, ExactValue] = {}
    for key, val in entries.items():
        if isinstance(key, str):
            n, mask = f2.string_to_mask(key)
            if n != arity:
                raise ArityMismatch(f"key {key!r} vs arity {arity}")
        else:
            mask = int(key)
        table[mask] = as_value(val)
    return Signature(arity, table, name)


class BinaryDiseq(NamedTuple):
    """Binary signature supported on {01, 10}: value a at 01, b at 10."""

    a: ExactValue
    b: ExactValue

    def as_signature(self, name: str | None = None) -> Signature:
        return Signature(2, {0b01: self.a, 0b10: self.b}, name)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def normalized(self) -> tuple["BinaryDiseq", ExactValue, bool]:
        """Scale (and possibly swap slots) so the first slot holds 1.

        Returns (normal form, scale, swapped): the original equals
        scale * (normal form), slots swapped first when |b| > |a|.
        By convention a tie keeps the 01-slot as the unit.
        """
        a, b = self.a, self.b
        swapped = False
        if a.is_zero() and b.is_zero():
            raise ZeroSignature("cannot normalise the zero binary signature")
        if a.is_zero() or (not b.is_zero() and compare_abs(a, b) < 0):
            a, b = b, a
            swapped = True
        return BinaryDiseq(ONE, b / a), a, swapped

    @property
    def parameter(self) -> ExactValue:
        """r with the normal form != (1, r)."""
        return self.normalized()[0].b


# -- named constructors -------------------------------------------------------


def diseq(arity: int) -> Signature:
    """Disequality of even arity 2d: 1 when x_1..x_d all differ from x_{d+1}..x_{2d}."""
    if arity % 2 != 0 or arity < 2:
        raise ArityMismatch("disequality needs positive even arity")
    d = arity // 2
    hi = ((1 << d) - 1) << d
    lo = (1 << d) - 1
    return from_entries(arity, {hi: ONE, lo: ONE}, f"neq{arity}")


def gen_diseq(alpha: str, a, b, name: str | None = None) -> Signature:
    """Signature with support {alpha, complement(alpha)}, values a and b."""
    n, mask = f2.string_to_mask(alpha)
    return from_entries(n, {mask: as_value(a), f2.complement(mask, n): as_value(b)},
                        name or f"neq{n}ab")


def symmetric(entries: Sequence[object]) -> Signature:
    """Symmetric signature [f_0, ..., f_r]: value f_i on every weight-i string."""
    arity = len(entries) - 1
    if arity < 0:
        raise ArityMismatch("symmetric signature needs at least one entry")
    vals = [as_value(e) for e in entries]
    return Signature(arity, {m: vals[f2.hamming(m)] for m in range(1 << arity)})


def delta0() -> Signature:
    return symmetric([1, 0]).with_name("delta0")


def delta1() -> Signature:
    return symmetric([0, 1]).with_name("delta1")


def pin_signature() -> Signature:
    """The binary pin: value 1 at 01 only (fixes its ports to 0 and 1)."""
    return BinaryDiseq(ONE, ZERO).as_signature("delta")


def neq2() -> Signature:
    return diseq(2).with_name("neq2")


# -- calculus -----------------------------------------------------------------


def tensor(f: Signature, g: Signature) -> Signature:
    """Tensor product; f's variables come first."""
    return Signature(f.arity + g.arity,
                     {(mf << g.arity) | mg: vf * vg
                      for mf, vf in f.entries.items() for mg, vg in g.entries.items()})


def _check_ports(f: Signature, i: int, j: int) -> None:
    if f.arity < 2:
        raise PortError("operation needs arity at least 2")
    if i == j or not (0 <= i < f.arity) or not (0 <= j < f.arity):
        raise PortError(f"bad port pair ({i}, {j}) for arity {f.arity}")


def _restrict(f: Signature, i: int, j: int, bi: int, bj: int) -> dict[int, ExactValue]:
    """Entries over the remaining ports of the strings with x_i = bi, x_j = bj."""
    k = f.arity
    rest = [p for p in range(k) if p not in (i, j)]
    return {f2.gather(m, rest, k): v for m, v in f.entries.items()
            if f2.bit_at(m, i, k) == bi and f2.bit_at(m, j, k) == bj}


def self_loop(f: Signature, i: int, j: int, w: BinaryDiseq | None = None,
              orientation: str = "ij") -> Signature:
    """Close ports i and j through a weighted binary disequality.

    Orientation "ij" yields a*f[x_i=0,x_j=1] + b*f[x_i=1,x_j=0]; "ji" swaps
    the two weights.  Both wiring directions of the weight vertex are
    reachable this way.
    """
    _check_ports(f, i, j)
    if w is None:
        w = BinaryDiseq(ONE, ONE)
    if orientation not in ("ij", "ji"):
        raise PortError(f"bad orientation {orientation!r}")
    a, b = (w.a, w.b) if orientation == "ij" else (w.b, w.a)
    out: dict[int, ExactValue] = {}
    for weight, bi in ((a, 0), (b, 1)):
        for m, v in _restrict(f, i, j, bi, 1 - bi).items():
            out[m] = out.get(m, ZERO) + weight * v
    return Signature(f.arity - 2, out)


def pin_pair(f: Signature, i: int, j: int, pattern: str) -> Signature:
    """Fix ports (i, j) to the given two-bit pattern ("01" or "10")."""
    _check_ports(f, i, j)
    if pattern not in ("01", "10"):
        raise PortError(f"bad pin pattern {pattern!r}")
    return Signature(f.arity - 2, _restrict(f, i, j, int(pattern[0]), int(pattern[1])))


def dual(f: Signature) -> Signature:
    """Value table with every input string complemented."""
    full = (1 << f.arity) - 1
    return Signature(f.arity, {m ^ full: v for m, v in f.entries.items()})


def permute(f: Signature, perm: Sequence[int]) -> Signature:
    """Reorder ports: new variable p reads old variable perm[p] (0-based)."""
    k = f.arity
    if sorted(perm) != list(range(k)):
        raise PortError(f"bad permutation {perm!r}")
    return Signature(k, {f2.gather(m, perm, k): v for m, v in f.entries.items()})


# -- signature files ----------------------------------------------------------


def parse_signature_blocks(text: str, mode: FieldMode = GAUSS_MODE) -> list[Signature]:
    """Parse the line-based signature format.

    Blocks start with ``signature <name> arity <k>``; each following
    ``<bitstring> <value-literal>`` line sets one entry; omitted strings are
    zero; ``#`` starts a comment.
    """
    return parse_signature_lines(enumerate(text.splitlines(), 1), mode)


def parse_signature_lines(numbered: Iterable[tuple[int, str]],
                          mode: FieldMode = GAUSS_MODE) -> list[Signature]:
    """Signature blocks from (line number, line) pairs, so that every error
    names its line in the file the lines come from."""
    blocks: list[tuple[int, str, dict[int, ExactValue]]] = []  # arity, name, entries
    for lineno, raw in numbered:
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            if parts[0] == "signature":
                if len(parts) != 4 or parts[2] != "arity":
                    raise LiteralSyntaxError(f"bad signature header {raw!r}")
                try:
                    arity = int(parts[3])
                except ValueError:
                    raise LiteralSyntaxError(f"bad arity in {raw!r}") from None
                Signature(arity, {})  # an arity out of range fails on the header's line
                blocks.append((arity, parts[1], {}))
                continue
            if not blocks:
                raise LiteralSyntaxError("entry before signature header")
            arity, _, entries = blocks[-1]
            # an arity-0 entry is its value alone: its bit string is empty
            bits, value = (parts[0], parts[1:]) if arity else ("", parts)
            if len(bits) != arity or any(c not in "01" for c in bits):
                raise LiteralSyntaxError(f"bad bit string {bits!r}")
            entries[int(bits or "0", 2)] = parse_value(" ".join(value), mode)
        except EOError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return [from_entries(arity, entries, name) for arity, name, entries in blocks]


def render_signature_block(sig: Signature, name: str | None = None) -> str:
    name = name or sig.name or "f"
    lines = [f"signature {name} arity {sig.arity}"]
    for m, v in sig.entries.items():
        bits = f2.mask_to_string(m, sig.arity) + " " if sig.arity else ""
        lines.append(bits + render_value(v))
    return "\n".join(lines) + "\n"


def load_signature_file(path, mode: FieldMode = GAUSS_MODE) -> dict[str, Signature]:
    with open(path, "r", encoding="utf-8") as fh:
        blocks = parse_signature_blocks(fh.read(), mode)
    out: dict[str, Signature] = {}
    for sig in blocks:
        if sig.name in out:
            raise LiteralSyntaxError(f"duplicate signature name {sig.name!r}")
        out[sig.name] = sig
    return out


BUILTIN_SIGNATURES: dict[str, Signature] = {
    "neq2": neq2(),
    "delta": pin_signature(),
    "delta0": delta0(),
    "delta1": delta1(),
}
