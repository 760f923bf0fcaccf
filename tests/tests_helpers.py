"""Shared randomized generators for the test suite (deterministic via seeds),
and the reference constructions the tests check the library against."""

from __future__ import annotations

import random
import re
from fractions import Fraction

from eoexact import f2
from eoexact.errors import EOError, InvalidGrid, LiteralSyntaxError, PortError
from eoexact.f2 import AffineSpace
from eoexact.gauss import Z4Form
from eoexact.grids import Grid
from eoexact.signatures import Signature, diseq, from_entries, pin_signature
from eoexact.values import GAUSS_MODE, ExactValue, FieldMode, I, ONE, ZERO, euler_phi

V = ExactValue.rational


def rand_value(rng: random.Random, allow_i: bool = True) -> ExactValue:
    re = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3]))
    im = Fraction(rng.randint(-3, 3)) if allow_i and rng.random() < 0.4 else Fraction(0)
    return ExactValue.gauss(re, im)


def rand_cyclotomic(rng: random.Random, n: int) -> ExactValue:
    """Random value of Q(zeta_n): small rationals over the power basis."""
    total = ZERO
    for j in range(euler_phi(n)):
        total = total + ExactValue.rational(
            Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))) * ExactValue.zeta(n, j)
    return total


def rand_nonzero_value(rng: random.Random, allow_i: bool = True) -> ExactValue:
    while True:
        v = rand_value(rng, allow_i)
        if not v.is_zero():
            return v


def rand_eo_signature(rng: random.Random, arity: int, density: float = 0.7,
                      nonzero: bool = False) -> Signature:
    """Random signature supported on balanced strings only."""
    while True:
        entries = {}
        for m in range(1 << arity):
            if f2.is_balanced(m, arity) and rng.random() < density:
                v = rand_value(rng)
                if not v.is_zero():
                    entries[m] = v
        if entries or not nonzero:
            return from_entries(arity, entries)


def rand_affine_signature(rng: random.Random, arity: int) -> Signature:
    """Random member of the affine class, built from its normal form."""
    n = arity
    dim = rng.randint(0, min(n, 3))
    rows = [rng.randrange(1, 1 << n) for _ in range(dim)]
    offset = rng.randrange(1 << n)
    space = AffineSpace.make(n, offset, rows)
    d = space.dimension
    lam = rand_nonzero_value(rng)
    lin = [rng.randrange(4) for _ in range(d)]
    quad = {(i, j): rng.randrange(2) for i in range(d) for j in range(i + 1, d)}
    entries = {}
    for el in space.elements():
        t = space.coordinates(el)
        e = sum(lin[i] * t[i] for i in range(d))
        e += 2 * sum(quad[i, j] * t[i] * t[j] for (i, j) in quad)
        entries[el] = lam * (I ** (e % 4))
    return from_entries(arity, entries)


def rand_product_signature(rng: random.Random, arity: int) -> Signature:
    """Random member of the product class: pins, parity groups, rank-1 weights."""
    ports = list(range(arity))
    rng.shuffle(ports)
    pins: dict[int, int] = {}
    groups: list[list[int]] = []
    for p in ports:
        r = rng.random()
        if r < 0.25 or not groups:
            if r < 0.15:
                pins[p] = rng.randrange(2)
            else:
                groups.append([p])
        else:
            rng.choice(groups).append(p)
    parity = {}
    for g in groups:
        for idx, p in enumerate(g):
            parity[p] = 0 if idx == 0 else rng.randrange(2)
    lam = rand_nonzero_value(rng)
    weights = [(rand_nonzero_value(rng), rand_nonzero_value(rng)) for _ in groups]
    entries = {}
    for combo in range(1 << len(groups)):
        mask = 0
        val = lam
        for gi, g in enumerate(groups):
            rep = (combo >> gi) & 1
            val = val * weights[gi][rep]
            for p in g:
                if rep ^ parity[p]:
                    mask |= 1 << (arity - 1 - p)
        for p, b in pins.items():
            if b:
                mask |= 1 << (arity - 1 - p)
        entries[mask] = val
    return from_entries(arity, entries)


def rand_closed_grid(rng: random.Random, signatures: list[Signature],
                     max_vertices: int = 5, max_edges: int = 10) -> Grid:
    """Random closed grid over the given signatures (ports matched at random)."""
    while True:
        nv = rng.randint(1, max_vertices)
        chosen = [rng.choice(signatures) for _ in range(nv)]
        slots = [(v, p) for v, sig in enumerate(chosen) for p in range(sig.arity)]
        if len(slots) % 2 != 0 or len(slots) // 2 > max_edges:
            continue
        rng.shuffle(slots)
        edges = []
        ok = True
        while slots:
            a = slots.pop()
            b = slots.pop()
            if a == b:
                ok = False
                break
            edges.append((a, b))
        if not ok:
            continue
        return Grid.make([(f"v{i}", sig) for i, sig in enumerate(chosen)], edges)


def rand_single_weighted_signature(rng: random.Random, arity: int) -> Signature:
    """Random signature with all support at one Hamming weight."""
    d = rng.randint(0, arity)
    candidates = [m for m in range(1 << arity) if f2.hamming(m) == d]
    rng.shuffle(candidates)
    take = candidates[: rng.randint(1, len(candidates))]
    entries = {m: rand_nonzero_value(rng) for m in take}
    return from_entries(arity, entries)


def rand_wired_grid(rng: random.Random, max_vertices: int = 5, max_vars: int = 12) -> Grid:
    """Random grid of arity 0-4 signatures (zero ones included, support not
    necessarily balanced): slots are paired at random, so a vertex may meet
    itself, and a random number of them stay dangling."""
    while True:
        sigs = []
        for _ in range(rng.randint(1, max_vertices)):
            arity = rng.randint(0, 4)
            density = 0.0 if rng.random() < 0.08 else rng.choice([0.5, 0.8, 1.0])
            sigs.append(from_entries(arity, {m: rand_value(rng) for m in range(1 << arity)
                                             if rng.random() < density}))
        slots = [(v, p) for v, sig in enumerate(sigs) for p in range(sig.arity)]
        rng.shuffle(slots)
        d = rng.randint(1, min(4, len(slots))) if slots and rng.random() < 0.6 else 0
        if (len(slots) - d) % 2 or d + (len(slots) - d) // 2 > max_vars:
            continue
        dangling, rest = slots[:d], slots[d:]
        edges = [(rest[i], rest[i + 1]) for i in range(0, len(rest), 2)]
        return Grid.make([(f"v{i}", sig) for i, sig in enumerate(sigs)], edges, dangling)


def reweighted(grid: Grid, rng: random.Random, draw) -> Grid:
    """The grid with each distinct signature's entries redrawn by draw(rng),
    on the same support (a draw of zero drops its string)."""
    index = grid.signature_index
    new = [from_entries(sig.arity, {m: draw(rng) for m in sig.support()})
           for sig in index.distinct]
    return Grid.make([(vid, new[k]) for (vid, _), k in zip(grid.vertices, index.of_vertex)],
                     grid.edges, grid.dangling)


def dense_torus(side: int, rng: random.Random) -> Grid:
    """side x side torus of quaternaries on all six balanced strings: port 3
    of each vertex meets port 1 of its right neighbour, port 4 port 2 of the
    one below."""
    balanced = [m for m in range(16) if bin(m).count("1") == 2]
    pool = [Signature(4, {m: rand_nonzero_value(rng) for m in balanced}) for _ in range(6)]

    def at(r, c):
        return (r % side) * side + c % side
    edges = [e for r in range(side) for c in range(side)
             for e in (((at(r, c), 2), (at(r, c + 1), 0)), ((at(r, c), 3), (at(r + 1, c), 1)))]
    return Grid.make([(f"v{i}", rng.choice(pool)) for i in range(side * side)], edges)


def enumerate_reference(grid: Grid) -> tuple[Signature, list[set[int]]]:
    """Sum over all 2^(edges+dangling) bit assignments, in the most direct way.

    An edge variable sets its first slot and clears its second when 1, and the
    other way round when 0; dangling slot i reads bit i of the gate string,
    counted from the left.  Returns the gate signature over the dangling
    slots (arity 0 for a closed grid) and, per vertex, the strings it reads
    in some assignment where every vertex reads a support string.
    """
    arity = [sig.arity for _, sig in grid.vertices]
    d = len(grid.dangling)
    ne = len(grid.edges)
    entries: dict[int, ExactValue] = {}
    reached: list[set[int]] = [set() for _ in grid.vertices]
    for bits in range(1 << (ne + d)):
        masks = [0] * len(grid.vertices)
        for e, (sa, sb) in enumerate(grid.edges):
            v, p = sa if (bits >> e) & 1 else sb
            masks[v] |= 1 << (arity[v] - 1 - p)
        out = bits >> ne
        for i, (v, p) in enumerate(grid.dangling):
            if (out >> (d - 1 - i)) & 1:
                masks[v] |= 1 << (arity[v] - 1 - p)
        weight = ONE
        for (_, sig), m in zip(grid.vertices, masks):
            weight = weight * sig.value(m)
        if not weight.is_zero():
            entries[out] = entries.get(out, ZERO) + weight
            for seen, m in zip(reached, masks):
                seen.add(m)
    return Signature(d, entries), reached


# -- reference constructions ---------------------------------------------------


def add_quad_pair(form: Z4Form, u: int, v: int) -> None:
    """Add 2*t_u*t_v (mod 4) to the form; squares fold into the linear part."""
    if u == v:
        form.add_linear(u, 2)
        return
    form.adj[u] ^= 1 << v
    form.adj[v] ^= 1 << u


def form_value_at(form: Z4Form, t: int) -> int:
    """The form's value mod 4 at the assignment t (bit v is t_v)."""
    acc = form.const
    for v in range(t.bit_length()):
        if t >> v & 1:
            # each pair inside t is counted once from either end
            acc += form.lin[v] + (form.adj[v] & t).bit_count()
    return acc % 4


def enumerate_sum(form: Z4Form, cap: int = 1 << 24) -> ExactValue:
    """Brute-force reference for gauss_sum: i^form(t) summed over every t."""
    if 1 << form.nvars > cap:
        raise EOError("enumeration fallback cap exceeded")
    acc = ZERO
    for t in range(1 << form.nvars):
        acc = acc + I ** form_value_at(form, t)
    return acc


def signature_matrix(f: Signature, split: int) -> list[list[ExactValue]]:
    """2^split x 2^(k-split) matrix; rows indexed by x_1..x_split."""
    k = f.arity
    if not 0 <= split <= k:
        raise PortError(f"bad split {split} for arity {k}")
    cols = 1 << (k - split)
    return [[f.value((r << (k - split)) | c) for c in range(cols)]
            for r in range(1 << split)]


def join_gates(f: Signature, g: Signature, l: int) -> Grid:
    """Open grid joining the last l ports of f to the first l ports of g."""
    if l < 0 or l > f.arity or l > g.arity:
        raise InvalidGrid("bad join width")
    edges = [((0, f.arity - l + t), (1, t)) for t in range(l)]
    dangling = [(0, p) for p in range(f.arity - l)] + \
        [(1, p) for p in range(l, g.arity)]
    return Grid.make([("f", f), ("g", g)], edges, dangling)


def realize_delta_copies(k: int) -> Grid:
    """Open gate turning one pin plus one disequality into k parallel pins.

    Wiring one pin across a (2k+2)-ary disequality forces one whole side to
    each bit; the 2k leftover ports, interleaved, carry exactly the k-fold
    tensor power of the pin.
    """
    if k < 1:
        raise EOError("need a positive number of pin copies")
    verts = [("p", pin_signature()), ("d", diseq(2 * k + 2))]
    edges = [((0, 0), (1, 0)), ((0, 1), (1, k + 1))]
    dangling = []
    for t in range(1, k + 1):
        dangling.append((1, k + 1 + t))
        dangling.append((1, t))
    return Grid.make(verts, edges, dangling)


def reference_solve(clauses: list[list[int]], nvars: int) -> dict[int, bool] | None:
    """The recursive DPLL that ``oracle_cli.solve`` replaced, kept as its
    reference: the same propagation passes and the same decision order, so
    both return the same model or ``None`` on every input."""
    assign: dict[int, bool] = {}

    def value(lit: int) -> bool | None:
        v = assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def propagate() -> list[int] | None:
        """Unit propagation; returns trail of variables set, None on conflict."""
        trail: list[int] = []
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                unassigned = None
                satisfied = False
                count = 0
                for lit in clause:
                    val = value(lit)
                    if val is True:
                        satisfied = True
                        break
                    if val is None:
                        unassigned = lit
                        count += 1
                if satisfied:
                    continue
                if count == 0:
                    for v in trail:
                        del assign[v]
                    return None
                if count == 1:
                    assign[abs(unassigned)] = unassigned > 0
                    trail.append(abs(unassigned))
                    changed = True
        return trail

    def dfs() -> bool:
        trail = propagate()
        if trail is None:
            return False
        var = next((v for v in range(1, nvars + 1) if v not in assign), None)
        if var is None:
            return True
        for choice in (False, True):
            assign[var] = choice
            if dfs():
                return True
            del assign[var]
        for v in trail:
            del assign[v]
        return False

    if dfs():
        return {v: assign.get(v, False) for v in range(1, nvars + 1)}
    return None


_TOKEN = re.compile(r"\s*(\d+(?:/\d+)?|z\d+(?:\^\d+)?|i|[+*-])")
_RAT = re.compile(r"\A\d+(?:/\d+)?\Z")
_ZLIT = re.compile(r"\Az(\d+)(?:\^(\d+))?\Z")


def _reference_tokenize(text: str) -> list[str]:
    end = len(text.rstrip())
    if not end:
        raise LiteralSyntaxError("empty value literal")
    pos = 0
    out = []
    while pos < end:
        m = _TOKEN.match(text, pos, end)
        if not m:
            raise LiteralSyntaxError(
                f"bad value literal {text!r} at {text[pos:end].lstrip()!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _reference_atom(tok: str, mode: FieldMode) -> ExactValue:
    if tok == "i":
        return I
    m = _ZLIT.match(tok)
    if not m:
        raise LiteralSyntaxError(f"bad term {tok!r}")
    n = int(m.group(1))
    k = int(m.group(2)) if m.group(2) else 1
    if n < 1:
        raise LiteralSyntaxError(f"bad root order in {tok!r}")
    if mode.order is not None:
        if mode.order % n != 0:
            raise LiteralSyntaxError(
                f"literal {tok!r} does not live in the session field Q(zeta_{mode.order})")
        return ExactValue.zeta(mode.order, (mode.order // n) * k)
    val = ExactValue.zeta(n, k)
    if not val.is_gaussian:
        raise LiteralSyntaxError(
            f"literal {tok!r} needs a cyclotomic session field (EO_FIELD=zeta:{n})")
    return val


def reference_parse_value(text: str, mode: FieldMode = GAUSS_MODE) -> ExactValue:
    """The token-level state machine that ``values.parse_value`` replaced,
    kept as its reference: on every literal both give the same value or
    raise the same exception class."""
    toks = _reference_tokenize(text)
    total = ZERO
    sign = 1
    idx = 0
    expect_term = True
    while idx < len(toks):
        tok = toks[idx]
        if tok in "+-":
            if expect_term and tok == "-":
                sign = -sign
                idx += 1
                continue
            if expect_term:
                idx += 1
                continue
            sign = 1 if tok == "+" else -1
            idx += 1
            expect_term = True
            continue
        if not expect_term:
            raise LiteralSyntaxError(f"missing '+' or '-' between terms in {text!r}")
        coeff = 1
        atom: ExactValue | None = None
        if _RAT.match(tok):
            try:
                coeff = Fraction(tok)
            except ZeroDivisionError:
                raise LiteralSyntaxError(f"zero denominator in {text!r}") from None
            idx += 1
            if idx < len(toks) and toks[idx] == "*":
                idx += 1
                if idx >= len(toks):
                    raise LiteralSyntaxError(f"dangling '*' in {text!r}")
                atom = _reference_atom(toks[idx], mode)
                idx += 1
            elif idx < len(toks) and toks[idx] not in "+-" and not _RAT.match(toks[idx]):
                atom = _reference_atom(toks[idx], mode)
                idx += 1
        else:
            atom = _reference_atom(tok, mode)
            idx += 1
        term = ExactValue.rational(coeff)
        if atom is not None:
            term = term * atom
        total = total + (term if sign > 0 else -term)
        expect_term = False
        sign = 1
    if expect_term:
        raise LiteralSyntaxError(f"trailing operator in {text!r}")
    return total
