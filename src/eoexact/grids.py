"""Signature grids and gates: wiring, validation, exact partition functions.

Every internal edge is implicitly a binary disequality: the two endpoint
slots always take opposite bits, which is exactly one orientation choice per
edge.  Dangling slots are raw external variables with no implicit
constraint.  Grids are immutable; rewiring helpers return new grids.
"""

from __future__ import annotations

import heapq
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from math import prod
from operator import getitem
from typing import Iterable, Sequence

from .errors import (
    BruteForceCapExceeded,
    ClosedGridError,
    GridFormatError,
    InvalidGrid,
    OpenGridError,
)
from .signatures import (
    BUILTIN_SIGNATURES,
    Signature,
    load_signature_file,
    parse_signature_blocks,
    render_signature_block,
)
from .values import ExactValue, FieldMode, GAUSS_MODE, ONE, ZERO

Slot = tuple[int, int]  # (vertex index, 0-based port)

DEFAULT_OP_CAP = 1 << 24


@dataclass(frozen=True)
class Grid:
    vertices: tuple[tuple[str, Signature], ...]
    edges: tuple[tuple[Slot, Slot], ...]
    dangling: tuple[Slot, ...] = ()

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
        return replace(self, vertices=tuple(verts))

    def distinct_signatures(self) -> list[Signature]:
        seen: list[Signature] = []
        for _, sig in self.vertices:
            if sig not in seen:
                seen.append(sig)
        return seen


@dataclass
class Diagnostics:
    ok: bool
    closed: bool
    all_eo: bool
    issues: list[str] = field(default_factory=list)


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
    all_eo = all(sig.is_eo() for _, sig in grid.vertices)
    return Diagnostics(ok=not issues, closed=grid.is_closed, all_eo=all_eo, issues=issues)


def require_valid(grid: Grid) -> Diagnostics:
    diag = validate(grid)
    if not diag.ok:
        raise InvalidGrid("; ".join(diag.issues))
    return diag


def _greedy_order(touched: list[tuple[int, ...]], nv: int) -> list[int]:
    """Repeatedly pick the variable whose vertices have the most slots already
    assigned, lowest index first on ties, so vertices complete (and prune)
    early.  Scores only grow, so a heap that skips stale entries suffices."""
    at: list[list[int]] = [[] for _ in range(nv)]
    for i, vs in enumerate(touched):
        for v in vs:
            at[v].append(i)
    score = [0] * len(touched)
    done = [False] * len(touched)
    heap = [(0, i) for i in range(len(touched))]
    order: list[int] = []
    while heap:
        neg, i = heapq.heappop(heap)
        if -neg == score[i] and not done[i]:
            done[i] = True
            order.append(i)
            for v in touched[i]:
                for j in at[v]:
                    if not done[j]:
                        score[j] += 1
                        heapq.heappush(heap, (-score[j], j))
    return order


class OrientationSearch:
    """Iterative depth-first search over the support-consistent assignments
    of a grid.

    The variables are the edges, whose two slots take opposite bits, and the
    dangling slots, which are free.  After each assignment the partial string
    of every vertex it touches must still extend to a string of that vertex's
    support.  Supports, variable order and the partial strings allowed at
    each step are built once, so one search serves many runs on one grid.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._supports = [sig.support() for _, sig in grid.vertices]
        arities = [sig.arity for _, sig in grid.vertices]
        # (slot set to 1 when the variable is 1, slot set to 1 when it is 0)
        variables = [(a, b) for a, b in grid.edges] + [(s, None) for s in grid.dangling]
        touched = [tuple(s[0] for s in var if s) for var in variables]
        care = [0] * len(grid.vertices)
        # per step (va, ba, allowed at va, vb, bb, allowed at vb); a dangling
        # slot has vb == va and bb == 0, so its value 0 sets no bit
        self._steps: list[tuple] = []
        self._cares: list[tuple[int, int]] = []
        self._touching: list[list[int]] = [[] for _ in grid.vertices]
        for pos, idx in enumerate(_greedy_order(touched, len(grid.vertices))):
            (va, pa), zero = variables[idx]
            vb, pb = zero or (va, None)
            ba = 1 << (arities[va] - 1 - pa)
            bb = 0 if zero is None else 1 << (arities[vb] - 1 - pb)
            care[va] |= ba
            care[vb] |= bb
            oka = self._allowed(va, care[va])
            okb = oka if vb == va else self._allowed(vb, care[vb])
            self._steps.append((va, ba, oka, vb, bb, okb))
            self._cares.append((care[va], care[vb]))
            for v in {va, vb}:
                self._touching[v].append(pos)

    def _allowed(self, v: int, care: int) -> frozenset[int]:
        return frozenset(s & care for s in self._supports[v])

    def assignments(self, cap: int = DEFAULT_OP_CAP,
                    vertex: int | None = None, mask: int = 0):
        """Yield the per-vertex support masks of every support-consistent
        assignment; with ``vertex`` given, only of those where it reads ``mask``.

        The yielded list is reused: read it before resuming the generator.
        ``cap`` bounds the number of assignments that pass the support check.
        """
        steps = self._steps
        if vertex is not None:
            if mask not in self._supports[vertex]:
                return
            steps = list(steps)
            for pos in self._touching[vertex]:
                va, ba, oka, vb, bb, okb = steps[pos]
                ca, cb = self._cares[pos]
                steps[pos] = (va, ba, {mask & ca} if va == vertex else oka,
                              vb, bb, {mask & cb} if vb == vertex else okb)
        if not all(self._supports):
            return
        masks = [0] * len(self._supports)
        if not steps:
            yield masks
            return
        tried = [0] * len(steps)
        last = len(steps) - 1
        ops = pos = 0
        while pos >= 0:
            va, ba, oka, vb, bb, okb = steps[pos]
            t = tried[pos]
            if t == 0:
                masks[vb] |= bb
            elif t == 1:
                masks[vb] ^= bb
                masks[va] |= ba
            else:
                masks[va] ^= ba
                tried[pos] = 0
                pos -= 1
                continue
            tried[pos] = t + 1
            if masks[va] in oka and masks[vb] in okb:
                ops += 1
                if ops > cap:
                    raise BruteForceCapExceeded(
                        f"orientation enumeration exceeded {cap} steps")
                if pos == last:
                    yield masks
                else:
                    pos += 1


def _collapse(grid: Grid, cap: int) -> Signature:
    """The signature over the dangling ports (arity 0 for a closed grid)."""
    tables = [sig.entries for _, sig in grid.vertices]
    ports = [(v, 1 << (grid.signature_of(v).arity - 1 - p)) for v, p in grid.dangling]
    entries: dict[int, ExactValue] = {}
    for masks in OrientationSearch(grid).assignments(cap):
        out = 0
        for v, bit in ports:
            out = (out << 1) | bool(masks[v] & bit)
        entries[out] = entries.get(out, ZERO) + prod(map(getitem, tables, masks), start=ONE)
    return Signature(len(ports), entries)


def brute_force_partition(grid: Grid, cap: int = DEFAULT_OP_CAP) -> ExactValue:
    """Exact partition function of a closed grid by orientation enumeration."""
    require_valid(grid)
    if not grid.is_closed:
        raise OpenGridError("partition function needs a closed grid; use gate_signature")
    return _collapse(grid, cap).value(0)


def gate_signature(grid: Grid, cap: int = DEFAULT_OP_CAP) -> Signature:
    """Collapse an open grid into the signature over its dangling ports."""
    require_valid(grid)
    if grid.is_closed:
        raise ClosedGridError("gate has no dangling ports; use brute_force_partition")
    return _collapse(grid, cap)


def chain_gate(chain: Sequence[Signature]) -> Signature:
    """Gate of binary signatures in a path: port 2 of each joins port 1 of the next."""
    verts = [(f"c{t}", sig) for t, sig in enumerate(chain)]
    edges = [((t, 1), (t + 1, 0)) for t in range(len(chain) - 1)]
    return gate_signature(Grid.make(verts, edges, [(0, 0), (len(chain) - 1, 1)]))


# -- grid files ---------------------------------------------------------------


def parse_grid_text(text: str, base_dir: str = ".",
                    mode: FieldMode = GAUSS_MODE,
                    extra_signatures: dict[str, Signature] | None = None) -> Grid:
    """Parse the line-based grid format.

    Directives: ``use <signature-file>``, ``vertex <id> <signature-name>``,
    ``edge <id>.<port> <id>.<port>``, ``dangle <id>.<port>`` with 1-based
    ports.  Inline ``signature`` blocks are also accepted, making files
    self-contained.  ``#`` starts a comment.
    """
    names: dict[str, Signature] = dict(BUILTIN_SIGNATURES)
    if extra_signatures:
        names.update(extra_signatures)
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
            block = [raw]
            while idx < len(lines):
                peek = lines[idx].split("#", 1)[0].strip()
                if peek and peek.split()[0] in ("signature", "use", "vertex", "edge", "dangle"):
                    break
                block.append(lines[idx])
                idx += 1
            for sig in parse_signature_blocks("\n".join(block), mode):
                names[sig.name] = sig
            continue
        if parts[0] == "use":
            if len(parts) < 2 or "\0" in line:
                raise GridFormatError(f"bad use line {raw!r}")
            path = line.split(None, 1)[1]
            names.update(load_signature_file(os.path.join(base_dir, path), mode))
            continue
        if parts[0] == "vertex":
            if len(parts) != 3:
                raise GridFormatError(f"bad vertex line {raw!r}")
            vid, signame = parts[1], parts[2]
            if signame not in names:
                raise GridFormatError(f"unknown signature {signame!r} for vertex {vid!r}")
            if vid in vertex_index:
                raise GridFormatError(f"duplicate vertex id {vid!r}")
            vertex_index[vid] = len(vertices)
            vertices.append((vid, names[signame].with_name(signame)))
            continue
        if parts[0] == "edge":
            if len(parts) != 3:
                raise GridFormatError(f"bad edge line {raw!r}")
            edges.append((parse_slot(parts[1], idx), parse_slot(parts[2], idx)))
            continue
        if parts[0] == "dangle":
            if len(parts) != 2:
                raise GridFormatError(f"bad dangle line {raw!r}")
            dangling.append(parse_slot(parts[1], idx))
            continue
        raise GridFormatError(f"unknown directive {parts[0]!r}")
    return Grid.make(vertices, edges, dangling)


def load_grid_file(path, mode: FieldMode = GAUSS_MODE) -> Grid:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grid_text(fh.read(), os.path.dirname(os.path.abspath(path)), mode)


def render_grid_text(grid: Grid) -> str:
    """Self-contained grid file: inline signature blocks, then the wiring."""
    blocks: list[str] = []
    sig_names: dict[int, str] = {}
    seen: dict[Signature, str] = {}
    for vidx, (vid, sig) in enumerate(grid.vertices):
        if sig in seen:
            sig_names[vidx] = seen[sig]
            continue
        name = f"s{len(seen)}"
        seen[sig] = name
        sig_names[vidx] = name
        blocks.append(render_signature_block(sig, name))
    lines = ["\n".join(blocks)] if blocks else []
    for vidx, (vid, _) in enumerate(grid.vertices):
        lines.append(f"vertex {vid} {sig_names[vidx]}")
    for (va, pa), (vb, pb) in grid.edges:
        lines.append(f"edge {grid.vertices[va][0]}.{pa + 1} {grid.vertices[vb][0]}.{pb + 1}")
    for (v, p) in grid.dangling:
        lines.append(f"dangle {grid.vertices[v][0]}.{p + 1}")
    return "\n".join(lines) + "\n"


def join_gates(f: Signature, g: Signature, l: int) -> Grid:
    """Open grid joining the last l ports of f to the first l ports of g."""
    if l < 0 or l > f.arity or l > g.arity:
        raise InvalidGrid("bad join width")
    edges = [((0, f.arity - l + t), (1, t)) for t in range(l)]
    dangling = [(0, p) for p in range(f.arity - l)] + \
        [(1, p) for p in range(l, g.arity)]
    return Grid.make([("f", f), ("g", g)], edges, dangling)
