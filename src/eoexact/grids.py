"""Signature grids and gates: wiring, validation, exact partition functions.

Every internal edge is implicitly a binary disequality: the two endpoint
slots always take opposite bits, which is exactly one orientation choice per
edge.  Dangling slots are raw external variables with no implicit
constraint.  Grids are immutable; rewiring helpers return new grids.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import chain
from math import prod
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    BruteForceCapExceeded,
    ClosedGridError,
    GridFormatError,
    InvalidGrid,
    OpenGridError,
)
from .signatures import (
    ARITY_CAP,
    BUILTIN_SIGNATURES,
    Signature,
    load_signature_file,
    parse_signature_lines,
    render_signature_block,
)
from .values import ExactValue, FieldMode, GAUSS_MODE, RawArm

Slot = tuple[int, int]  # (vertex index, 0-based port)

DEFAULT_OP_CAP = 1 << 20


class SignatureIndex(NamedTuple):
    distinct: tuple[Signature, ...]  # the distinct vertex signatures, first seen first
    of_vertex: tuple[int, ...]       # each vertex's position in distinct


class Grid:
    """Immutable; equality and hash read the three fields, and the cached
    properties live in the instance dict."""

    vertices: tuple[tuple[str, Signature], ...]
    edges: tuple[tuple[Slot, Slot], ...]
    dangling: tuple[Slot, ...]

    def __init__(self, vertices: tuple[tuple[str, Signature], ...],
                 edges: tuple[tuple[Slot, Slot], ...], dangling: tuple[Slot, ...] = ()):
        init = object.__setattr__
        init(self, "vertices", vertices)
        init(self, "edges", edges)
        init(self, "dangling", dangling)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.edges, self.dangling) == \
            (other.vertices, other.edges, other.dangling)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges, self.dangling))

    def __repr__(self) -> str:
        return (f"Grid(vertices={self.vertices!r}, edges={self.edges!r}, "
                f"dangling={self.dangling!r})")

    # -- construction ------------------------------------------------------

    @staticmethod
    def make(vertices: Sequence[tuple[str, Signature]],
             edges: Iterable[tuple[Slot, Slot]] = (),
             dangling: Iterable[Slot] = ()) -> Grid:
        return Grid(tuple(vertices), tuple((a, b) for a, b in edges), tuple(dangling))

    @property
    def is_closed(self) -> bool:
        return not self.dangling

    def signature_of(self, vidx: int) -> Signature:
        return self.vertices[vidx][1]

    def with_vertex_signature(self, vidx: int, sig: Signature) -> Grid:
        vid, old = self.vertices[vidx]
        if sig.arity != old.arity:
            raise InvalidGrid("replacement signature must keep the arity")
        verts = list(self.vertices)
        verts[vidx] = (vid, sig)
        return Grid(tuple(verts), self.edges, self.dangling)

    @functools.cached_property
    def signature_index(self) -> SignatureIndex:
        """Each vertex's distinct signature, hashed once per vertex; kept like diagnostics."""
        pos: dict[Signature, int] = {}
        of_vertex = tuple(pos.setdefault(sig, len(pos)) for _, sig in self.vertices)
        return SignatureIndex(tuple(pos), of_vertex)

    @functools.cached_property
    def diagnostics(self) -> Diagnostics:
        """validate(self), kept on the instance; not a field, so == and hash ignore it."""
        return validate(self)


class Diagnostics(NamedTuple):
    ok: bool
    closed: bool
    all_eo: bool
    issues: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        # the error this record has always raised, imported on this path only
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")


def validate(grid: Grid) -> Diagnostics:
    """Check port/arity bookkeeping; report rather than raise."""
    issues: list[str] = []
    for idx, (a, b) in enumerate(grid.edges):
        if a == b:
            issues.append(f"edge {idx} connects a slot to itself")
    used: dict[Slot, int] = {}
    wired: Counter[int] = Counter()  # distinct slots in use, per vertex index
    for s in chain(*grid.edges, grid.dangling):
        if s not in used:
            wired[s[0]] += 1
        used[s] = used.get(s, 0) + 1
    for s, count in used.items():
        vidx, port = s
        if not (0 <= vidx < len(grid.vertices)):
            issues.append(f"slot {s}: no such vertex")
            continue
        arity = grid.signature_of(vidx).arity
        if not (0 <= port < arity):
            issues.append(f"slot {s}: port out of range for arity {arity}")
        if count > 1:
            issues.append(f"slot {s}: used {count} times")
    for vidx, (vid, sig) in enumerate(grid.vertices):
        if wired[vidx] != sig.arity:
            issues.append(f"vertex {vid}: {wired[vidx]} ports wired, arity {sig.arity} "
                          "(PortCountMismatch)")
    all_eo = all(sig.is_eo() for sig in grid.signature_index.distinct)
    return Diagnostics(ok=not issues, closed=grid.is_closed, all_eo=all_eo, issues=tuple(issues))


def require_valid(grid: Grid) -> Diagnostics:
    diag = grid.diagnostics
    if not diag.ok:
        raise InvalidGrid("; ".join(diag.issues))
    return diag


class Plan(NamedTuple):
    steps: list[tuple[int, int, dict]]
    width: int  # frontier bits open at the widest step


def plan_contraction(grid: Grid, tables: Sequence[Mapping] | None = None) -> Plan:
    """Compile a grid into contraction steps, one per vertex, placing first
    the vertex with most edges to placed ones, then the one with the smaller
    support, then the lowest index.

    A frontier state is an int of open-edge bits: dangling slot i holds bit
    d-1-i throughout; an edge holds the lowest free bit above those, set to
    what its first placed end reads, until its second end closes it.  A step
    is (vertex, mask of the bits it closes, groups): the support strings that
    pass the vertex's self-loops, keyed by the bits they need on the closed
    edges, as (bits they open, string, weight).  The weight is the string's
    entry in tables[grid.signature_index.of_vertex[v]] for vertex v, or in
    the signature itself without tables.  Steps of one shape (signature,
    and per port its role and frontier bit) share one groups mapping, which
    no caller may change.  The grid must be valid (see require_valid).
    """
    index = grid.signature_index
    of_vertex = index.of_vertex
    # Slot off[v] + p is port p of vertex v.  A queue key encodes (-edges to
    # placed vertices, support size, vertex) in one int: a support has at most
    # 2^ARITY_CAP strings, so `up` lies above every size and vertex part.
    # key[v] is v's current key, lowered by `up` per edge to a placed vertex
    # and None once v is placed; a popped key that is not current is stale.
    low = len(of_vertex).bit_length()
    mask = (1 << low) - 1
    off, key = [0], []
    for v, (_, sig) in enumerate(grid.vertices):
        off.append(off[-1] + sig.arity)
        key.append(len(sig.support()) << low | v)
    up = 1 << low + ARITY_CAP + 1
    queue = key[:]
    heapify(queue)
    # peer and peer_vertex name the slot and vertex at the other end of a
    # slot's edge (-1: dangling); held is the frontier bit a slot holds
    peer = [-1] * off[-1]
    peer_vertex = peer[:]
    held = peer[:]
    for (va, pa), (vb, pb) in grid.edges:
        a = off[va] + pa
        b = off[vb] + pb
        peer[a] = b
        peer[b] = a
        peer_vertex[a] = vb
        peer_vertex[b] = va
    d = len(grid.dangling)
    bit = 1 << d
    for v, p in grid.dangling:
        bit >>= 1
        held[off[v] + p] = bit
    free, top, live = 0, 1 << d, d  # freed bits, lowest never used, bits held
    shapes: dict[tuple[int, ...], dict] = {}
    steps, width = [], d
    while queue:
        k = heappop(queue)
        v = k & mask
        if k != key[v]:
            continue
        key[v] = None
        end = off[v + 1]
        close = 0
        # the step's shape: v's signature position, then per port its
        # frontier bit if it opens one, minus it if it reads one, and on a
        # self-loop the port bits of both ends (never a power of 2) at the
        # lower port and 0 at the other
        shape = [of_vertex[v]]
        for s in range(off[v], end):
            q = peer[s]
            if q < 0:
                shape.append(held[s])
            elif (u := peer_vertex[s]) == v:
                shape.append(1 << (end - 1 - s) | 1 << (end - 1 - q) if s < q else 0)
            elif key[u] is None:
                bit = held[q]
                free |= bit
                close |= bit
                live -= 1
                shape.append(-bit)
            else:
                if free:
                    bit = free & -free
                    free ^= bit
                else:
                    bit, top = top, top << 1
                held[s] = bit
                live += 1
                shape.append(bit)
                key[u] -= up
                heappush(queue, key[u])
        shape = tuple(shape)
        groups = shapes.get(shape)
        if groups is None:
            # decode the shape, then group the support strings
            reads, opens, loops = [], [], []  # reads/opens: (port bit, frontier bit)
            bit = 1 << len(shape) - 1
            for c in shape[1:]:
                bit >>= 1
                if c < 0:
                    reads.append((bit, -c))
                elif c & (c - 1):
                    loops.append(c)
                elif c:
                    opens.append((bit, c))
            groups = shapes[shape] = {}
            sig = shape[0]
            for s, w in (tables[sig] if tables else index.distinct[sig].entries).items():
                if loops and not _opposite_ends(s, loops):
                    continue
                read = out = 0
                for bit, k in reads:
                    if not s & bit:
                        read |= k
                for bit, k in opens:
                    if s & bit:
                        out |= k
                groups.setdefault(read, []).append((out, s, w))
        steps.append((v, close, groups))
        if live > width:
            width = live
    return Plan(steps, width)


def _opposite_ends(s: int, loops: list[int]) -> bool:
    """Whether the string reads opposite bits at the two ends of every
    self-loop, each given as the port bits of its two ends."""
    for m in loops:
        if (s & m) in (0, m):
            return False
    return True


def frontier_pass(plan: Plan, frontier: dict, merge: Callable[..., None]) -> Iterator[dict]:
    """Carry a frontier {state: value} through the plan's steps, yielding
    the frontier after each.  For each state whose step matches some support
    strings, merge(nxt, state, value, rest, matches) writes the new entries,
    where rest is the state without the bits the step closes.
    DEFAULT_OP_CAP, read when the pass starts, bounds the matches over the
    whole pass, so it bounds both the work and every table; past it,
    BruteForceCapExceeded.
    """
    ops, cap = 0, DEFAULT_OP_CAP
    for _, close, groups in plan.steps:
        nxt: dict = {}
        for key, val in frontier.items():
            matches = groups.get(key & close)
            if matches:
                ops += len(matches)
                if ops > cap:
                    raise BruteForceCapExceeded(
                        f"contraction wrote more than {cap} frontier entries; its plan "
                        f"opens {plan.width} frontier bits at its widest step")
                merge(nxt, key, val, key & ~close, matches)
        yield nxt
        frontier = nxt


def _collapse(grid: Grid) -> Signature:
    """The signature over the dangling ports (arity 0 for a closed grid): a
    state's value sums, over the strings read so far that lead to it, the
    product of their weights.  The pass carries raw numerators: each
    distinct signature is scaled once by the lcm of its denominators, and
    each final entry is divided once by the product of those lcms."""
    index = grid.signature_index
    arm = RawArm(w for sig in index.distinct for w in sig.entries.values())
    raw = [arm.numerators(sig.entries) for sig in index.distinct]
    frontier = {0: arm.one}
    for frontier in frontier_pass(plan_contraction(grid, [t for t, _ in raw]), frontier,
                                  arm.mul_add):
        pass
    den = prod(raw[k][1] for k in index.of_vertex)
    return Signature(len(grid.dangling), {k: arm.value(v, den) for k, v in frontier.items()})


def brute_force_partition(grid: Grid) -> ExactValue:
    """Exact partition function of a closed grid by contraction."""
    require_valid(grid)
    if not grid.is_closed:
        raise OpenGridError("partition function needs a closed grid; use gate_signature")
    return _collapse(grid).value(0)


def gate_signature(grid: Grid) -> Signature:
    """Collapse an open grid into the signature over its dangling ports."""
    require_valid(grid)
    if grid.is_closed:
        raise ClosedGridError("gate has no dangling ports; use brute_force_partition")
    return _collapse(grid)


# -- grid files ---------------------------------------------------------------


def parse_grid_text(text: str, base_dir: str = ".",
                    mode: FieldMode = GAUSS_MODE) -> Grid:
    """Parse the line-based grid format.

    Directives: ``use <signature-file>``, ``vertex <id> <signature-name>``,
    ``edge <id>.<port> <id>.<port>``, ``dangle <id>.<port>`` with 1-based
    ports.  Inline ``signature`` blocks are also accepted, making files
    self-contained.  ``#`` starts a comment.
    """
    names: dict[str, Signature] = dict(BUILTIN_SIGNATURES)
    vertices: list[tuple[str, Signature]] = []
    vertex_index: dict[str, int] = {}
    edges: list[tuple[Slot, Slot]] = []
    dangling: list[Slot] = []

    def parse_slot(tok: str, lineno: int) -> Slot:
        if "." not in tok:
            raise GridFormatError(f"line {lineno}: bad slot {tok!r}")
        vid, port_s = tok.rsplit(".", 1)
        if vid not in vertex_index:
            raise GridFormatError(f"line {lineno}: unknown vertex {vid!r}")
        try:
            port = int(port_s)
        except ValueError:
            raise GridFormatError(f"line {lineno}: bad port in {tok!r}") from None
        if port < 1:
            raise GridFormatError(f"line {lineno}: ports are 1-based in {tok!r}")
        return (vertex_index[vid], port - 1)

    lines = text.splitlines()
    idx = 0
    while idx < len(lines):
        raw = lines[idx]
        line = raw.split("#", 1)[0].strip()
        idx += 1
        if not line:
            continue
        parts = line.split()
        if parts[0] == "signature":
            block = [(idx, raw)]
            while idx < len(lines):
                peek = lines[idx].split("#", 1)[0].strip()
                if peek and peek.split()[0] in ("signature", "use", "vertex", "edge", "dangle"):
                    break
                block.append((idx + 1, lines[idx]))
                idx += 1
            for sig in parse_signature_lines(block, mode):
                names[sig.name] = sig
            continue
        if parts[0] == "use":
            if len(parts) < 2 or "\0" in line:
                raise GridFormatError(f"line {idx}: bad use line {raw!r}")
            path = line.split(None, 1)[1]
            names.update(load_signature_file(os.path.join(base_dir, path), mode))
            continue
        if parts[0] == "vertex":
            if len(parts) != 3:
                raise GridFormatError(f"line {idx}: bad vertex line {raw!r}")
            vid, signame = parts[1], parts[2]
            if signame not in names:
                raise GridFormatError(
                    f"line {idx}: unknown signature {signame!r} for vertex {vid!r}")
            if vid in vertex_index:
                raise GridFormatError(f"line {idx}: duplicate vertex id {vid!r}")
            vertex_index[vid] = len(vertices)
            vertices.append((vid, names[signame].with_name(signame)))
            continue
        if parts[0] == "edge":
            if len(parts) != 3:
                raise GridFormatError(f"line {idx}: bad edge line {raw!r}")
            edges.append((parse_slot(parts[1], idx), parse_slot(parts[2], idx)))
            continue
        if parts[0] == "dangle":
            if len(parts) != 2:
                raise GridFormatError(f"line {idx}: bad dangle line {raw!r}")
            dangling.append(parse_slot(parts[1], idx))
            continue
        raise GridFormatError(f"line {idx}: unknown directive {parts[0]!r}")
    return Grid.make(vertices, edges, dangling)


def load_grid_file(path, mode: FieldMode = GAUSS_MODE) -> Grid:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grid_text(fh.read(), os.path.dirname(os.path.abspath(path)), mode)


def render_grid_text(grid: Grid) -> str:
    """Self-contained grid file: inline signature blocks, then the wiring."""
    index = grid.signature_index
    blocks = [render_signature_block(sig, f"s{k}") for k, sig in enumerate(index.distinct)]
    lines = ["\n".join(blocks)] if blocks else []
    for (vid, _), k in zip(grid.vertices, index.of_vertex):
        lines.append(f"vertex {vid} s{k}")
    for (va, pa), (vb, pb) in grid.edges:
        lines.append(f"edge {grid.vertices[va][0]}.{pa + 1} {grid.vertices[vb][0]}.{pb + 1}")
    for (v, p) in grid.dangling:
        lines.append(f"dangle {grid.vertices[v][0]}.{p + 1}")
    return "\n".join(lines) + "\n"
