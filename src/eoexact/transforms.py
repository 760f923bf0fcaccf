"""Support-shape transforms: balanced restriction and balance padding.

These realize the reductions that extend the balanced-support classification
to weakly-heavy/light and single-weighted signature sets, both at the level
of single signatures and of whole grids.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from . import f2
from .errors import MixedWeights
from .signatures import Signature, delta0, delta1, from_entries, pin_signature

if TYPE_CHECKING:
    from .grids import Grid


class WeightProfile(NamedTuple):
    arity: int
    weight: int | None  # the unique support Hamming weight, None for empty support
    mixed: bool

    @property
    def balanced(self) -> bool:
        return self.weight is not None and 2 * self.weight == self.arity


def weight_profile(f: Signature) -> WeightProfile:
    weights = {f2.hamming(m) for m in f.support()}
    if not weights:
        return WeightProfile(f.arity, None, False)
    if len(weights) == 1:
        return WeightProfile(f.arity, weights.pop(), False)
    return WeightProfile(f.arity, None, True)


def restrict_eo(f: Signature) -> Signature:
    """Zero the table outside balanced strings; odd arity becomes the zero signature."""
    entries = {m: f.value(m) for m in f.support() if f2.is_balanced(m, f.arity)}
    return from_entries(f.arity, entries, f.name)


def pad_to_eo(f: Signature) -> Signature:
    """Append forced-bit ports to a single-weighted signature until balanced:
    forced-0 ports when the weight is heavy, forced-1 ports when light.  This
    is f tensored with one delta0 or delta1 per padding port.
    """
    prof = weight_profile(f)
    if prof.mixed:
        raise MixedWeights("padding needs a single-weighted signature")
    if prof.weight is None or prof.balanced:
        return f
    pad = abs(2 * prof.weight - f.arity)
    fill = 0 if 2 * prof.weight > f.arity else (1 << pad) - 1
    return Signature(f.arity + pad, {m << pad | fill: v for m, v in f.entries.items()}, f.name)


class PadDiagnostics(NamedTuple):
    balanced: bool
    pairing_edges: int = 0
    replaced_pins: int = 0
    message: str = ""


def grid_pad_single_weighted(grid: Grid) -> tuple[Grid, PadDiagnostics]:
    """Rewrite a closed single-weighted grid into a balanced-signature grid.

    Unary forced-bit vertices become binary pins keeping their original
    connection; unbalanced signatures get forced-bit padding ports; padding
    and spare pin ports are then matched pairwise (0-end to 1-end) through
    fresh edges.  The partition function is preserved exactly.  When the
    weight bookkeeping admits no balanced matching the partition function is
    identically zero: a constant-0 grid comes back with a diagnostic.  An
    invalid grid raises InvalidGrid.
    """
    from .grids import Grid, require_valid
    require_valid(grid)
    replaced_pins = 0
    new_vertices: list[tuple[str, Signature]] = []
    port_map: dict[tuple[int, int], tuple[int, int]] = {}  # moved slots only
    zero_ends: list[tuple[int, int]] = []  # slots forced to 0, needing a 1 partner
    one_ends: list[tuple[int, int]] = []
    d0, d1, pin = delta0(), delta1(), pin_signature()

    for vidx, (vid, sig) in enumerate(grid.vertices):
        if sig == d0:
            new_vertices.append((vid, pin))  # pin's 0-side keeps the wiring
            one_ends.append((vidx, 1))
            replaced_pins += 1
            continue
        if sig == d1:
            new_vertices.append((vid, pin))
            port_map[(vidx, 0)] = (vidx, 1)  # pin's 1-side keeps the wiring
            zero_ends.append((vidx, 0))
            replaced_pins += 1
            continue
        prof = weight_profile(sig)
        if prof.mixed:
            raise MixedWeights(f"vertex {vid} carries a mixed-weight signature")
        padded = pad_to_eo(sig)
        new_vertices.append((vid, padded))
        if padded.arity != sig.arity:
            forced_zero = prof.weight is not None and 2 * prof.weight > sig.arity
            for p in range(sig.arity, padded.arity):
                (zero_ends if forced_zero else one_ends).append((vidx, p))

    if len(zero_ends) != len(one_ends):
        message = (f"padding needs {len(zero_ends)} zero-ends matched to "
                   f"{len(one_ends)} one-ends; partition function is identically 0")
        zero_grid = Grid.make([("zero", Signature(0, {}))], [])
        return zero_grid, PadDiagnostics(False, 0, replaced_pins, message)

    edges = [(port_map.get(a, a), port_map.get(b, b)) for a, b in grid.edges]
    edges += zip(sorted(zero_ends), sorted(one_ends))
    dangling = tuple(port_map.get(s, s) for s in grid.dangling)
    return Grid.make(new_vertices, edges, dangling), \
        PadDiagnostics(True, len(zero_ends), replaced_pins)
