"""Constructions of the source paper that the tests check but that no ``eo``
command, engine or verdict runs: pure supports, the search for one pairing
that every support string is opposite on, pairing sections and the
disequality embedding, the support oracle on one string, the single-pin
reduction through an asymmetric binary gate, the equality signature, the
view of an arity-2 signature as a binary disequality, path gates and the
powers x^j that interpolation reads off them, and the replay of
generating-process recipes through gates."""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from eoexact import f2
from eoexact.classify import (
    Pairing,
    _require_eo,
    _require_nonzero,
    perfect_pairings,
    restrict_to_pairing,
    symmetry_class,
)
from eoexact.errors import EOError
from eoexact.generate import LoopRecipe, Recipe
from eoexact.grids import Grid, brute_force_partition, gate_signature
from eoexact.signatures import BinaryDiseq, Signature, neq2
from eoexact.tractable import ExhaustiveOracle, _require_closed, pin_vertices
from eoexact.values import ONE, ExactValue


class PairingViolation(EOError):
    pass


class StringNotInSupport(EOError):
    pass


class NoAsymmetricGateFound(EOError):
    pass


def equality(arity: int) -> Signature:
    return Signature(arity, {0: ONE, (1 << arity) - 1: ONE}, f"eq{arity}")


def as_binary_diseq(sig: Signature) -> BinaryDiseq | None:
    """View an arity-2 signature as a generalized binary disequality, if it is one."""
    if sig.arity != 2 or 0b00 in sig.entries or 0b11 in sig.entries:
        return None
    return BinaryDiseq(sig.value(0b01), sig.value(0b10))


# -- pure supports and pairings ------------------------------------------------


def is_pure(f: Signature, direction: str) -> bool:
    """Whether the affine span of the support stays weakly heavy (or light)."""
    _require_eo(f)
    _require_nonzero(f)
    if direction not in ("up", "down"):
        raise ValueError(f"bad direction {direction!r}")
    sign = 1 if direction == "up" else -1
    return all(sign * f2.weight_excess(el, f.arity) >= 0
               for el in f2.f2_affine_span(f.support(), f.arity).elements())


def _pairing_search(ports: Sequence[int], cols: Sequence[int], kept: int,
                    need: int) -> Iterator[tuple[Pairing, int]]:
    """Iterative DFS over the perfect pairings of ``ports`` in the order of
    classify.perfect_pairings.

    ``kept`` is a bitset over support strings, and a child keeps those whose
    ``cols`` (``f2.columns``) differ on its new pair.  Yields (pairing, kept)
    per leaf; a prefix keeping fewer than ``need`` strings is yielded once,
    in place of the pairings below it.
    """
    stack = [((), tuple(sorted(ports)), kept)]
    while stack:
        prefix, free, kept = stack.pop()
        if not free or kept.bit_count() < need:
            yield prefix, kept
            continue
        lead, rest = free[0], free[1:]
        stack.extend(reversed([(prefix + ((lead, partner),), rest[:k] + rest[k + 1:],
                                kept & (cols[lead] ^ cols[partner]))
                               for k, partner in enumerate(rest)]))


def find_pairing(f: Signature) -> Pairing | None:
    """A perfect port pairing whose pairs take opposite values on all of supp."""
    _require_eo(f)
    supp = f.support()
    full = (1 << len(supp)) - 1
    return next((pairing for pairing, kept in
                 _pairing_search(range(f.arity), f2.columns(supp, f.arity), full, len(supp))
                 if kept == full), None)


# -- pairing sections and the disequality embedding ---------------------------


def pairing_sections(f: Signature, pairing: Pairing) -> list[Signature]:
    """All 2^d half-arity signatures read off a pairing-opposite signature.

    Selection bit t chooses which element of pair t becomes the free
    variable; its partner is forced opposite.
    """
    n = f.arity
    d = len(pairing)
    if sorted(p for pair in pairing for p in pair) != list(range(n)):
        raise PairingViolation("pairing must cover every port exactly once")
    if restrict_to_pairing(f, pairing) != f:
        raise PairingViolation("support is not opposite on the given pairing")
    out = []
    for selection in range(1 << d):
        reps = [j if (selection >> t) & 1 else i for t, (i, j) in enumerate(pairing)]
        out.append(Signature(d, {f2.gather(m, reps, n): v for m, v in f.entries.items()}))
    return out


def diseq_embedding(g: Signature) -> Signature:
    """Interleave each variable with a forced-opposite partner.

    The result has arity 2d over ports (x1, y1, x2, y2, ...) and support only
    where every y is the complement of its x, carrying g's value.
    """
    d = g.arity
    entries = {}
    for x, v in g.entries.items():
        m = 0
        for t in range(d):
            bit = (x >> (d - 1 - t)) & 1
            m = (m << 2) | (bit << 1) | (1 - bit)
        entries[m] = v
    return Signature(2 * d, entries)


def natural_pairing(d: int) -> Pairing:
    return tuple((2 * t, 2 * t + 1) for t in range(d))


# -- support oracle on one string, and the single-pin reduction ---------------


def support_oracle(grid: Grid, vertex: int, string, backend=None):
    """Whether the string at the vertex occurrence extends to a nonzero-weight
    global assignment; returns (flag, witness), the witness being the tuple of
    strings each vertex reads, or None."""
    _require_closed(grid)
    backend = backend or ExhaustiveOracle()
    sig = grid.signature_of(vertex)
    mask = f2.string_to_mask(string)[1] if isinstance(string, str) else int(string)
    if mask not in sig.support():
        raise StringNotInSupport(
            f"string {f2.mask_to_string(mask, sig.arity)} not in the vertex support")
    return backend.query(grid, vertex, mask)


def _binary_gates(signatures: list[Signature], max_vertices: int):
    """Yield (gate signature as BinaryDiseq, description) for all small gates."""
    for size in range(1, max_vertices + 1):
        for combo in itertools.combinations_with_replacement(signatures, size):
            ports = [(v, p) for v, sig in enumerate(combo) for p in range(sig.arity)]
            if len(ports) % 2 != 0 or len(ports) < 2:
                continue
            for d1 in range(len(ports)):
                for d2 in range(d1 + 1, len(ports)):
                    dangling = [ports[d1], ports[d2]]
                    rest = [s for i, s in enumerate(ports) if i not in (d1, d2)]
                    for matching in perfect_pairings(range(len(rest))):
                        edges = [(rest[i], rest[j]) for i, j in matching]
                        grid = Grid.make(
                            [(f"g{v}", sig) for v, sig in enumerate(combo)],
                            edges, dangling)
                        try:
                            gate = gate_signature(grid)
                        except EOError:
                            continue
                        bd = as_binary_diseq(gate)
                        if bd is not None:
                            yield bd, grid


def reduce_single_delta(grid: Grid, gate_vertex_cap: int = 3) -> ExactValue:
    """Evaluate a grid containing exactly one pin without interpolation.

    Always computes the pin-replaced-by-disequality value; when every other
    signature equals its dual that value simply halves, otherwise a small
    asymmetric binary gate is searched to disentangle the two orientations
    by a 2x2 linear solve.
    """
    _require_closed(grid)
    pins = pin_vertices(grid)
    if len(pins) != 1:
        raise EOError(f"expected exactly one pin occurrence, found {len(pins)}")
    vpin = pins[0]
    z3 = brute_force_partition(grid.with_vertex_signature(vpin, neq2()))
    # the pin is the only vertex carrying its signature
    index = grid.signature_index
    distinct = [sig for k, sig in enumerate(index.distinct) if k != index.of_vertex[vpin]]
    if all(sig.is_zero() or
           symmetry_class(sig).kind == "dual_symmetric"
           for sig in distinct):
        return z3 / 2
    for bd, gate_grid in _binary_gates(distinct, gate_vertex_cap):
        if bd.a != bd.b:
            z4 = brute_force_partition(
                grid.with_vertex_signature(vpin, bd.as_signature()))
            # z3 = z1 + z2, z4 = a*z1 + b*z2
            return (z4 - bd.b * z3) / (bd.a - bd.b)
    raise NoAsymmetricGateFound(
        f"no asymmetric binary gate with at most {gate_vertex_cap} vertices")


# -- path gates and recipe replay ----------------------------------------------


def chain_gate(chain: Sequence[Signature]) -> Signature:
    """Gate of binary signatures in a path: port 2 of each joins port 1 of the next."""
    verts = [(f"c{t}", sig) for t, sig in enumerate(chain)]
    edges = [((t, 1), (t + 1, 0)) for t in range(len(chain) - 1)]
    return gate_signature(Grid.make(verts, edges, [(0, 0), (len(chain) - 1, 1)]))


def chain_power(x: ExactValue, j: int) -> Signature:
    """Path of j >= 1 weighted disequalities != (1, x), realized through a
    gate: the != (1, x^j) that pin interpolation puts in place of a pin."""
    return chain_gate([BinaryDiseq(ONE, x).as_signature()] * j)


def loop_gadget_grid(f: Signature, recipe: LoopRecipe) -> Grid:
    """Open grid realizing a loop recipe: f plus one weight vertex per loop."""
    verts: list[tuple[str, Signature]] = [("f", f)]
    edges = []
    for t, spec in enumerate(recipe.loops):
        verts.append((f"w{t}", BinaryDiseq(ONE, spec.weight).as_signature()))
        widx = t + 1
        if spec.orientation == "ij":
            edges.append(((0, spec.port_a), (widx, 1)))
            edges.append(((0, spec.port_b), (widx, 0)))
        else:
            edges.append(((0, spec.port_a), (widx, 0)))
            edges.append(((0, spec.port_b), (widx, 1)))
    dangling = [(0, recipe.dangling[0]), (0, recipe.dangling[1])]
    return Grid.make(verts, edges, dangling)


def replay_recipe(f: Signature, recipe: Recipe,
                  recipes: dict[ExactValue, Recipe | None]) -> Signature:
    """Rebuild the realized binary signature of a recipe through gates."""
    if isinstance(recipe, LoopRecipe):
        return gate_signature(loop_gadget_grid(f, recipe))
    chain: list[Signature] = []
    for param in recipe.parts:
        sub = recipes.get(param)
        if sub is None:
            chain.append(neq2() if param == ONE else BinaryDiseq(ONE, param).as_signature())
        else:
            chain.append(replay_recipe(f, sub, recipes))
    return chain_gate(chain)
