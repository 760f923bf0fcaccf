"""Shared randomized generators for the test suite (deterministic via seeds),
and the reference constructions the tests check the library against."""

from __future__ import annotations

import heapq
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import count
from typing import Mapping, Sequence

from eoexact import classify, f2, generate
from eoexact.classify import AffineCertificate, ProductCertificate, ProductGroup, Refutation
from eoexact.errors import (
    EOError,
    InvalidGrid,
    LiteralSyntaxError,
    NonAffineVertex,
    NonProductVertex,
    PortError,
)
from eoexact.f2 import AffineSpace
from eoexact.generate import GeneratingState, LoopRecipe, LoopSpec
from eoexact.gauss import Z4Form, gauss_sum
from eoexact.grids import Grid, Plan
from eoexact.signatures import (
    BinaryDiseq,
    Signature,
    diseq,
    from_entries,
    pin_signature,
    self_loop,
)
from eoexact.tractable import _certificates, _require_closed
from eoexact.values import (
    GAUSS_MODE,
    ExactValue,
    FieldMode,
    I,
    ONE,
    ZERO,
    compare_abs,
    euler_phi,
)

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


def rand_long_value(rng: random.Random, order: int | None = None) -> ExactValue:
    """A nonzero value whose numbers have 1 to 6 000 digits, about half of
    them past CPython's 4 300-digit string limit: a Gaussian rational, or
    one of Q(zeta_order) with rational coefficients over the power basis."""
    def rational():
        num, den = (rng.randrange(10 ** (d - 1), 10 ** d)
                    for d in (rng.choice([1, 3, rng.randint(4301, 6000)]) for _ in range(2)))
        return Fraction(num * rng.choice((1, -1)), den)

    while True:
        if order is None:
            v = ExactValue.gauss(rational(), rational() if rng.random() < 0.5 else 0)
        else:
            v = sum((V(rational()) * ExactValue.zeta(order, j)
                     for j in range(euler_phi(order)) if rng.random() < 0.6), ZERO)
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


def rand_affine_signature(rng: random.Random, arity: int, max_dim: int = 3) -> Signature:
    """Random member of the affine class, built from its normal form."""
    n = arity
    dim = rng.randint(0, min(n, max_dim))
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


def rand_class_grid(rng: random.Random, cls: str, max_vertices: int = 5) -> Grid:
    """Random closed grid of affine- or product-class vertices of arity 1-5:
    the ports are matched at random, so two ports of one vertex may meet.
    Affine supports take every dimension up to the arity; product vertices
    carry pins and parity groups.  About half the vertices reuse an earlier
    signature of their arity."""
    while True:
        arities = [rng.randint(1, 5) for _ in range(rng.randint(1, max_vertices))]
        if sum(arities) % 2 == 0:
            break
    sigs: list[Signature] = []
    for n in arities:
        earlier = [s for s in sigs if s.arity == n]
        if earlier and rng.random() < 0.5:
            sigs.append(rng.choice(earlier))
        elif cls == "affine":
            sigs.append(rand_affine_signature(rng, n, n))
        else:
            sigs.append(rand_product_signature(rng, n))
    slots = [(v, p) for v, n in enumerate(arities) for p in range(n)]
    rng.shuffle(slots)
    return Grid.make([(f"v{v}", sig) for v, sig in enumerate(sigs)],
                     zip(slots[::2], slots[1::2]))


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


def i_power_exponent(x: ExactValue) -> int | None:
    """Return e with x == i**e for e in 0..3, or None."""
    for e, v in enumerate((ONE, I, -ONE, -I)):
        if x == v:
            return e
    return None


def reference_membership_affine(f: Signature) -> AffineCertificate | Refutation:
    """membership_affine as it was with one division per support string: each
    ratio f(m) / f(offset) is matched against the powers of i."""
    supp = f.support()
    n = f.arity
    span = f2.f2_affine_span(supp, n)
    if span.size() != len(supp):
        missing = next(el for el in span.elements() if el not in set(supp))
        return Refutation("support_not_affine", f2.mask_to_string(missing, n))
    base = span.offset
    lam = f.value(base)
    exps: dict[int, int] = {}
    for m in supp:
        e = i_power_exponent(f.value(m) / lam)
        if e is None:
            return Refutation("ratio_not_power_of_i", f2.mask_to_string(m, n))
        exps[m] = e
    d = span.dimension
    lin = [exps[base ^ span.basis[i]] for i in range(d)]
    quad: list[tuple[int, int, int]] = []
    for i in range(d):
        for j in range(i + 1, d):
            s = (exps[base ^ span.basis[i] ^ span.basis[j]] - lin[i] - lin[j]) % 4
            if s % 2:
                return Refutation(
                    "quadratic_parity",
                    f2.mask_to_string(base ^ span.basis[i] ^ span.basis[j], n))
            quad.append((i, j, s // 2))
    cert = AffineCertificate(n, lam, span, tuple(lin), tuple(quad))
    for m in supp:
        if exps[m] != cert.exponent(span.coordinates(m)):
            return Refutation("exponent_mismatch", f2.mask_to_string(m, n))
    return cert


def _put_bit(mask: int, pos: int, n: int, value: int) -> int:
    b = 1 << (n - 1 - pos)
    return (mask | b) if value else (mask & ~b)


def reference_membership_product(f: Signature) -> ProductCertificate | Refutation:
    """membership_product as it was with one support rescan per port and
    existing group, and ports placed bit by bit."""
    n = f.arity
    supp = f.support()
    supp_set = set(supp)
    pins = []
    free = []
    for p in range(n):
        bits = {f2.bit_at(m, p, n) for m in supp}
        if len(bits) == 1:
            pins.append((p, bits.pop()))
        else:
            free.append(p)
    # group free ports by forced equal / forced opposite
    groups: list[list[int]] = []
    parities: dict[int, int] = {}
    for p in free:
        placed = False
        for g in groups:
            lead = g[0]
            rel = {f2.bit_at(m, p, n) ^ f2.bit_at(m, lead, n) for m in supp}
            if len(rel) == 1:
                g.append(p)
                parities[p] = rel.pop()
                placed = True
                break
        if not placed:
            groups.append([p])
            parities[p] = 0
    if len(supp) != 1 << len(groups):
        # find a combination that should exist but does not
        for combo in range(1 << len(groups)):
            m = 0
            for port, bit in pins:
                m = _put_bit(m, port, n, bit)
            for gi, g in enumerate(groups):
                rep = (combo >> gi) & 1
                for port in g:
                    m = _put_bit(m, port, n, rep ^ parities[port])
            if m not in supp_set:
                return Refutation("support_not_product", f2.mask_to_string(m, n))
        return Refutation("support_not_product", "inconsistent combination count")
    base = supp[0]
    lam = f.value(base)
    ws = []
    for g in groups:
        flip = 0
        for port in g:
            flip = _put_bit(flip, port, n, 1)
        lead_bit = f2.bit_at(base, g[0], n)
        val_base = ONE
        val_flip = f.value(base ^ flip) / lam
        w0, w1 = (val_base, val_flip) if lead_bit == 0 else (val_flip, val_base)
        ws.append((w0, w1))
    cert = ProductCertificate(
        n, lam, tuple(pins),
        tuple(ProductGroup(tuple(g), tuple(parities[p] for p in g), w0, w1)
              for g, (w0, w1) in zip(groups, ws)))
    for m in supp:
        if f.value(m) != cert.reconstruct(m):
            return Refutation("values_not_rank_one", f2.mask_to_string(m, n))
    return cert


def reference_pairing_search(ports: Sequence[int], arity: int, strings: Sequence[int],
                             need: int):
    """The pairing search over tuples of kept masks: the same DFS order and
    yields as paper._pairing_search, with the kept set as the
    arity-``arity`` masks of ``strings`` still opposite on every pair."""
    stack = [((), tuple(sorted(ports)), tuple(strings))]
    while stack:
        prefix, free, kept = stack.pop()
        if not free or len(kept) < need:
            yield prefix, kept
            continue
        lead, rest = free[0], free[1:]
        children = []
        for k, partner in enumerate(rest):
            i, j = arity - 1 - lead, arity - 1 - partner
            children.append((prefix + ((lead, partner),), rest[:k] + rest[k + 1:],
                             tuple(m for m in kept if ((m >> i) ^ (m >> j)) & 1)))
        stack.extend(reversed(children))


def reference_membership_all_pairings(f: Signature, cls: str) -> classify.PairingClassReport:
    """The one-class memoized pairing walk: a leaf runs membership once per
    distinct kept set, whether or not f itself passes, and a subtree walked
    without a refutation adds its stored (checked, vacuous) counts."""
    supp = f.support()
    cols = f2.columns(supp, f.arity)
    results: dict = {}
    memo: dict = {}
    path: list[tuple[int, int]] = []
    checked = vacuous = 0

    def walk(free: int, kept: int) -> Refutation | None:
        nonlocal checked, vacuous
        if not free:
            checked += 1
            if kept not in results:
                results[kept] = classify.membership(Signature(f.arity, {
                    m: f.entries[m] for k, m in enumerate(supp) if kept >> k & 1}), cls)
            result = results[kept]
            return result if isinstance(result, Refutation) else None
        done = memo.get((free, kept))
        if done is not None:
            checked += done[0]
            vacuous += done[1]
            return None
        before = checked, vacuous
        low = free & -free
        lead, rest = low.bit_length() - 1, free ^ low
        below = classify.pairing_count(rest.bit_count() - 1)
        others = rest
        while others:
            bit = others & -others
            others ^= bit
            partner = bit.bit_length() - 1
            child = kept & (cols[lead] ^ cols[partner])
            if not child:
                checked += below
                vacuous += below
                continue
            path.append((lead, partner))
            failure = walk(rest ^ bit, child)
            if failure is not None:
                return failure
            path.pop()
        memo[free, kept] = checked - before[0], vacuous - before[1]
        return None

    failure = walk((1 << f.arity) - 1, (1 << len(supp)) - 1)
    if failure is None:
        return classify.PairingClassReport(cls, True, checked, vacuous)
    return classify.PairingClassReport(cls, False, checked, vacuous, tuple(path), failure)


def reference_is_rebalancing(f: Signature, b: int) -> classify.RebalanceResult:
    """The recursive partner search on (arity, support) states, trying every
    candidate partner y in turn and recursing on each pin's residual, also
    where the pin keeps no string."""
    memo: dict = {}

    def reads_b(n: int, supp: tuple[int, ...]) -> list[int]:
        flip = 0 if b else (1 << len(supp)) - 1
        return [col ^ flip for col in f2.columns(supp, n)]

    def partner(n: int, supp: tuple[int, ...], cols: list[int], x: int):
        at_x = cols[x]
        for y in range(n):
            if y == x or at_x & cols[y]:
                continue
            lo, hi = sorted((n - 1 - x, n - 1 - y))
            low, mid = (1 << lo) - 1, (1 << (hi - 1)) - (1 << lo)
            sub = rec(n - 2, tuple((m & low) | ((m >> 1) & mid) | ((m >> (hi + 1)) << (hi - 1))
                                   for k, m in enumerate(supp) if at_x >> k & 1))
            if sub is not None:
                return y, sub
        return None

    def rec(n: int, supp: tuple[int, ...]):
        key = (n, supp)
        if key in memo:
            return memo[key]
        if n == 0 or not supp:
            memo[key] = "leaf"
            return "leaf"
        memo[key] = None
        cols = reads_b(n, supp)
        chain: dict = {}
        for x in range(n):
            found = partner(n, supp, cols, x)
            if found is None:
                return None
            chain[x] = {"partner": found[0], "residual": found[1]}
        memo[key] = chain
        return chain

    supp = f.support()
    result = rec(f.arity, supp)
    if result is None:
        cols = reads_b(f.arity, supp)
        failing = next((x for x in range(f.arity)
                        if partner(f.arity, supp, cols, x) is None), None)
        return classify.RebalanceResult(False, b, failing_port=failing)
    return classify.RebalanceResult(True, b, chain=result if result != "leaf" else {})


def _set_bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, lowest first."""
    text = bin(mask)[:1:-1]
    out = []
    pos = text.find("1")
    while pos >= 0:
        out.append(pos)
        pos = text.find("1", pos + 1)
    return out


def _free_basis(basis: list[int], n: int) -> list[int]:
    """For each non-pivot bit f of a reduced basis, the vector with f set and
    every pivot bit set whose row holds f: one solution of the homogeneous
    system per free variable."""
    out = {f: 1 << f for f in range(n)}
    for b in basis:
        p = b.bit_length() - 1
        del out[p]
        rest = b ^ (1 << p)  # free bits only: the basis is reduced
        while rest:
            f = rest.bit_length() - 1
            out[f] |= 1 << p
            rest ^= 1 << f
    return list(out.values())


def reference_solve_linear_system(equations: list[tuple[int, int]], nvars: int):
    """The F2 solver as it was before ``f2.solve_linear_system`` returned one
    expression per variable, kept as its reference: None when inconsistent,
    else (particular, free_basis) where free_basis spans the solution space
    around the particular solution, one vector per free variable, lowest
    free variable first."""
    # augmented rows (mask << 1) | bit; a reduced row 1 reads 0 = 1
    basis = f2.rref((mask << 1) | bit for mask, bit in equations)
    if basis and basis[-1] == 1:
        return None
    # with free variables at 0, each pivot variable equals its row's bit
    particular = sum(1 << (b.bit_length() - 2) for b in basis if b & 1)
    return particular, _free_basis([b >> 1 for b in basis], nvars)


def transposed_solution(particular: int, basis: list[int], nvars: int) -> list[tuple[int, int]]:
    """A (particular, free_basis) solution as one (mask, bit) per variable:
    bit t of mask is set when free_basis[t] holds the variable."""
    masks = [0] * nvars
    for t, vec in enumerate(basis):
        for x in _set_bits(vec):
            masks[x] |= 1 << t
    return [(masks[x], (particular >> x) & 1) for x in range(nvars)]


def reference_vandermonde_solve(nodes, rhs) -> list[ExactValue]:
    """Coefficients c_0..c_m of the polynomial with sum c_j node_k^j = rhs_k,
    by exact Gaussian elimination on the Vandermonde matrix: the solver that
    ``tractable.interpolate_delta`` used before its Lagrange sum, kept as its
    reference.  The nodes must be distinct."""
    m = len(nodes)
    rows = []
    for node, value in zip(nodes, rhs):
        row = [ONE]
        for _ in range(m - 1):
            row.append(row[-1] * node)
        rows.append(row + [value])
    for col in range(m):
        pivot = next(r for r in range(col, m) if not rows[r][col].is_zero())
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [c * inv for c in rows[col]]
        for r in range(m):
            if r != col and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [c - f * d for c, d in zip(rows[r], rows[col])]
    return [rows[k][m] for k in range(m)]


def nullspace(rows: list[int], n: int) -> list[int]:
    """Basis of {h : h & r has even weight for every row r}, bit positions shared with rows."""
    return _free_basis(f2.rref(rows), n)


def parity_checks(space: AffineSpace) -> list[int]:
    """Vectors h with: mask in space implies h & mask and h & space.offset
    have weights of one parity."""
    return nullspace(list(space.basis), space.n)


def galois(x: ExactValue, k: int, n: int = 8) -> ExactValue:
    """sigma_k(x) for x in Q(zeta_n): zeta_n -> zeta_n^k with gcd(k, n) = 1,
    applied term by term to x's power-basis coefficients; a Gaussian x reads
    i as zeta_n^(n/4)."""
    if x.is_gaussian:
        re, im = x.gauss_parts()
        return V(re) + V(im) * ExactValue.zeta(n, n // 4 * k)
    assert x.ambient == n
    *coeffs, d = x._co
    return sum((V(Fraction(c, d)) * ExactValue.zeta(n, j * k)
                for j, c in enumerate(coeffs) if c), ZERO)


def reference_power(x: ExactValue, k: int) -> ExactValue:
    """x ** k by square-and-multiply on ExactValue products, each of them
    normalized: the reference of ``ExactValue.__pow__``."""
    if k < 0:
        return reference_power(x.inverse(), -k)
    result = ONE
    while k:
        if k & 1:
            result = result * x
        x = x * x
        k >>= 1
    return result


def reference_power_product(values: Sequence[ExactValue], counts: Mapping[int, int],
                            flip: int = 0) -> ExactValue:
    """The product of values[key ^ flip] ** count, one ExactValue product per
    counted key: the reference of ``tractable._power_product``."""
    total = ONE
    for key, count in counts.items():
        total = total * reference_power(values[key ^ flip], count)
    return total


def reference_eval_affine(grid: Grid) -> ExactValue:
    """The affine engine over edge variables, kept as the reference of
    ``tractable.eval_affine``: one equation per certificate parity check.

    Support constraints become one F2 linear system over edge variables; the
    i-exponents, written in the free variables of its solution, add up to
    one Z4 quadratic form, summed exactly by gauss_sum.  An infeasible
    system means the value 0.  Each certificate's parity checks and
    coordinates are read once per distinct signature, and its scale is
    raised to the number of vertices carrying it.
    """
    _require_closed(grid)
    certs = _certificates(grid, "affine", NonAffineVertex)
    if certs is None:
        return ZERO
    # per certificate: each parity check as (ports, constant), each local
    # coordinate as (pivot port of its basis row, offset bit there)
    checks, coords = [], []
    for cert in certs:
        n, offset = cert.arity, cert.space.offset
        checks.append([([p for p in range(n) if f2.bit_at(h, p, n)], (h & offset).bit_count() & 1)
                       for h in parity_checks(cert.space)])
        pivots = [n - b.bit_length() for b in cert.space.basis]
        coords.append([(p, f2.bit_at(offset, p, n)) for p in pivots])
    of_vertex = grid.signature_index.of_vertex
    # slot[start[v] + p] is 2 * edge, plus 1 at the edge's second end, which
    # reads the edge variable xor 1
    start = list(itertools.accumulate((certs[k].arity for k in of_vertex), initial=0))
    slot = [0] * start[-1]
    for eidx, ((va, pa), (vb, pb)) in enumerate(grid.edges):
        slot[start[va] + pa] = 2 * eidx
        slot[start[vb] + pb] = 2 * eidx + 1

    equations: list[tuple[int, int]] = []
    for s, k in zip(start, of_vertex):
        for ports, const in checks[k]:
            mask = 0
            for p in ports:
                e = slot[s + p]
                mask ^= 1 << (e >> 1)
                const ^= e & 1
            equations.append((mask, const))
    solved = reference_solve_linear_system(equations, len(grid.edges))
    if solved is None:
        return ZERO
    particular, basis = solved

    # each edge variable as an affine function of the free variables
    edge_mask = [0] * len(grid.edges)
    for t, vec in enumerate(basis):
        for e in _set_bits(vec):
            edge_mask[e] |= 1 << t
    edge_const = [int(c) for c in f"{particular:0{len(grid.edges)}b}"[::-1]]
    total = Z4Form(len(basis))
    for s, k in zip(start, of_vertex):
        cert = certs[k]
        xs = []
        for p, off in coords[k]:
            e = slot[s + p]
            xs.append((edge_mask[e >> 1], edge_const[e >> 1] ^ (e & 1) ^ off))
        for (mask, const), lam in zip(xs, cert.lin):
            total.add_affine_lift(mask, const, lam)
        for i, j, mu in cert.quad:
            if mu:
                total.add_doubled_product(xs[i], xs[j])
    return gauss_sum(total) * reference_power_product([c.lam for c in certs], Counter(of_vertex))


def reference_eval_product(grid: Grid) -> ExactValue:
    """The product engine over an F2 system, kept as the reference of
    ``tractable.eval_product``.

    Each parity group is one F2 variable (its leader bit); pins and edge
    disequalities become XOR equations on at most two of them, solved by
    reference_solve_linear_system.  Each free basis vector of the solution is
    one connected set of groups, which contributes the sum of its two
    assignments; every other group is fixed by the particular solution.
    Weights are counted by (distinct signature, group, bit) and each one is
    raised to its count, as is each certificate's scale.
    """
    _require_closed(grid)
    certs = _certificates(grid, "product", NonProductVertex)
    if certs is None:
        return ZERO
    # weights[key + b]: weight of one certificate group when its leader bit
    # is b, key even; ports[k][p]: (mask of port p's group among certificate
    # k's groups, or 0 for a pin; bit read when that group's variable is 0)
    weights: list[ExactValue] = []
    ports: list[list[tuple[int, int]]] = []
    group_keys: list[list[int]] = []
    for cert in certs:
        local = [(0, 0)] * cert.arity
        for port, bit in cert.pins:
            local[port] = (0, bit)
        keys = []
        for j, grp in enumerate(cert.groups):
            keys.append(len(weights))
            weights += (grp.w0, grp.w1)
            for port, parity in zip(grp.ports, grp.parities):
                local[port] = (1 << j, parity)
        ports.append(local)
        group_keys.append(keys)
    of_vertex = grid.signature_index.of_vertex
    first: list[int] = []    # per vertex: the variable of its first group
    var_key: list[int] = []  # per variable: its group's key
    for k in of_vertex:
        first.append(len(var_key))
        var_key += group_keys[k]
    equations = []
    for (va, pa), (vb, pb) in grid.edges:
        ma, ba = ports[of_vertex[va]][pa]
        mb, bb = ports[of_vertex[vb]][pb]
        equations.append(((ma << first[va]) ^ (mb << first[vb]), ba ^ bb ^ 1))
    solved = reference_solve_linear_system(equations, len(var_key))
    if solved is None:
        return ZERO
    particular, basis = solved

    # each variable's weight key under the particular solution
    bits = f"{particular:0{len(var_key)}b}"[::-1]
    key = [k + (b == "1") for k, b in zip(var_key, bits)]
    total = reference_power_product([c.lam for c in certs], Counter(of_vertex))
    fixed = (1 << len(var_key)) - 1
    for vec in basis:
        fixed ^= vec
        counts = Counter(key[v] for v in _set_bits(vec))
        total = total * (reference_power_product(weights, counts)
                         + reference_power_product(weights, counts, 1))
    return total * reference_power_product(weights, Counter(key[v] for v in _set_bits(fixed)))


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


def reference_plan_contraction(grid: Grid, tables: Sequence[Mapping] | None = None) -> Plan:
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
    the signature itself without tables.
    """
    peer: dict[Slot, Slot] = {}
    for a, b in grid.edges:
        peer[a], peer[b] = b, a
    d = len(grid.dangling)
    held = {s: d - 1 - i for i, s in enumerate(grid.dangling)}  # open slot -> its bit
    free: list[int] = []
    unused = count(d)
    score = [0] * len(grid.vertices)
    size = [len(sig.support()) for _, sig in grid.vertices]
    placed = [False] * len(grid.vertices)
    heap = [(0, size[v], v) for v in range(len(grid.vertices))]
    heapq.heapify(heap)
    index = grid.signature_index
    tables = tables or [sig.entries for sig in index.distinct]
    steps, width = [], d
    while heap:
        neg, _, v = heapq.heappop(heap)
        if placed[v] or -neg != score[v]:
            continue
        placed[v] = True
        sig = grid.signature_of(v)
        n = sig.arity
        close, reads, opens, loops = 0, [], [], []  # reads/opens: (port bit, frontier bit)
        for p in range(n):
            bit = 1 << (n - 1 - p)
            other = peer.get((v, p))
            if other is None:
                opens.append((bit, 1 << held[v, p]))
            elif other[0] == v:
                if p < other[1]:
                    loops.append(bit | 1 << (n - 1 - other[1]))
            elif placed[other[0]]:
                k = held.pop(other)
                heapq.heappush(free, k)
                close |= 1 << k
                reads.append((bit, 1 << k))
            else:
                held[v, p] = k = heapq.heappop(free) if free else next(unused)
                opens.append((bit, 1 << k))
                u = other[0]
                score[u] += 1
                heapq.heappush(heap, (-score[u], size[u], u))
        groups: dict[int, list[tuple[int, int, object]]] = {}
        for s, w in tables[index.of_vertex[v]].items():
            if loops and not all((s & m) not in (0, m) for m in loops):
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
        width = max(width, len(held))
    return Plan(steps, width)


def reference_loop_layer(f: Signature, weights: Sequence[ExactValue],
                         state: GeneratingState, work_cap: int
                         ) -> dict[ExactValue, tuple[LoopRecipe, ExactValue]]:
    """All normalized binary parameters from d-1 weighted self-loops on f,
    one weight tuple and orientation tuple at a time: the loop layer that
    generate._loop_layer replaced, kept as its reference.

    Returns {parameter: (recipe, raw ratio b/a)}, each parameter with the
    first recipe that reaches it; zero gates are dropped.  A loop is linear
    in its weight w: with A and B the partial signature restricted to 01
    and 10 on the loop's ports, orientation "ij" leaves A + w*B and "ji"
    leaves w*A + B.  So each loop prefix is closed and split once per
    matching, and each normalized parameter is computed once per (a, b).
    """
    n = f.arity
    d = n // 2
    out: dict[ExactValue, tuple[LoopRecipe, ExactValue]] = {}
    params: dict[tuple[ExactValue, ExactValue], ExactValue] = {}
    for i in range(n):
        for j in range(i + 1, n):
            rest = [p for p in range(n) if p not in (i, j)]
            for matching in classify.perfect_pairings(rest):
                # per loop: the arity before it, the positions of its two
                # ports among the live ones, and the positions it keeps
                cuts = []
                live = list(range(n))
                for pa, pb in matching:
                    ia, ib = live.index(pa), live.index(pb)
                    kept = [p for p in range(len(live)) if p not in (ia, ib)]
                    cuts.append((len(live), ia, ib, kept))
                    live.remove(pa)
                    live.remove(pb)
                splits: dict[tuple, tuple[dict, dict]] = {}

                def closed(ws: tuple[int, ...], ors: tuple[int, ...]):
                    """The entries of f after the loops with weight indices ws
                    and orientations ors."""
                    if not ws:
                        return f.entries
                    return _linear_loop(*split(ws[:-1], ors[:-1]), weights[ws[-1]], ors[-1])

                def split(ws: tuple[int, ...], ors: tuple[int, ...]):
                    """(A, B) of closed(ws, ors) on the next loop's ports."""
                    got = splits.get((ws, ors))
                    if got is None:
                        got = splits[ws, ors] = _split_pair(closed(ws, ors), *cuts[len(ws)])
                    return got

                for ws in itertools.product(range(len(weights)), repeat=d - 1):
                    for ors in itertools.product((0, 1), repeat=d - 1):
                        state.work += 1
                        if state.work > work_cap:
                            raise generate._WorkCap()
                        g = closed(ws, ors)
                        if any(not g[m].is_zero() for m in (0b00, 0b11) if m in g):
                            continue
                        a, b = g.get(0b01, ZERO), g.get(0b10, ZERO)
                        if a.is_zero() and b.is_zero():
                            continue
                        param = params.get((a, b))
                        if param is None:
                            param = params[a, b] = BinaryDiseq(a, b).parameter
                        if param not in out:
                            loops = tuple(
                                LoopSpec(pa, pb, weights[w], ("ij", "ji")[o])
                                for (pa, pb), w, o in zip(matching, ws, ors))
                            out[param] = (LoopRecipe((i, j), loops),
                                          ZERO if a.is_zero() else b / a)
    return out


def reference_equal_pair_gadget_exists(f: Signature) -> bool:
    """generate._equal_pair_gadget_exists as it was before it closed each
    set of port pairs once: every order of plain self-loops, recursively."""

    def quaternaries(sig: Signature):
        if sig.arity == 4:
            yield sig
            return
        n = sig.arity
        for i in range(n):
            for j in range(i + 1, n):
                g = self_loop(sig, i, j)
                if not g.is_zero():
                    yield from quaternaries(g)

    if f.arity < 4:
        return False
    for g in quaternaries(f):
        supp = g.support()
        if len(supp) == 2 and supp[0] ^ supp[1] == 0b1111:
            return True
    return False


def reference_generating_process(f: Signature,
                                 max_steps: int = generate.DEFAULT_STEP_CAP,
                                 max_set: int = generate.DEFAULT_SET_CAP,
                                 order_cap: int = generate.DEFAULT_ORDER_CAP):
    """generate.generating_process as it was before it skipped root_order on
    layer parameters already in the closure: every parameter of every layer
    gets root_order (looked up on generate, where tests patch it)."""
    work_cap = generate.DEFAULT_WORK_CAP
    state = GeneratingState()
    state.recipes[ONE] = None
    current: dict = {ONE: None}
    lcm_history = [1]
    for step in range(1, max_steps + 1):
        try:
            layer = generate._loop_layer(f, list(current), state, work_cap)
        except generate._WorkCap:
            return generate._cap_outcome(state, lcm_history, "loop enumeration work cap"), state
        layer_params = []
        group_order = lcm_history[-1]
        for param, (recipe, raw_ratio) in layer.items():
            if param.is_zero():
                state.recipes[ZERO] = recipe
                return generate.RootDescriptor("pin_direct", value=ZERO, recipe=recipe,
                                               note="a free pin is realized directly"), state
            ro = generate.root_order(param, order_cap)
            if ro.kind == "not_root":
                state.recipes.setdefault(param, recipe)
                rep = param
                if not raw_ratio.is_zero() and compare_abs(param, ONE) < 0:
                    rep = param.inverse()
                return generate.RootDescriptor("non_root", value=rep, recipe=recipe,
                                               note="parameter off the root lattice"), state
            if ro.kind == "unknown":
                state.recipes.setdefault(param, recipe)
                return generate._cap_outcome(state, lcm_history,
                                             f"root order beyond cap {order_cap}"), state
            group_order = math.lcm(group_order, ro.order)
            layer_params.append(param)
            state.recipes.setdefault(param, recipe)
        merged = dict(current)
        for p in layer_params:
            merged.setdefault(p, state.recipes[p])
        try:
            closed = generate._closure_under_products(merged, max_set)
        except generate._WorkCap:
            return generate._cap_outcome(state, lcm_history, "closure size cap"), state
        for p in closed:
            state.recipes.setdefault(p, closed[p])
        state.steps.append(generate.GenerationStep(
            step, tuple(sorted(layer, key=str)), tuple(sorted(closed, key=str)), group_order))
        lcm_history.append(group_order)
        if set(closed) == set(current):
            return generate.RootDescriptor("finite_group", order=group_order,
                                           orders_seen=tuple(lcm_history[1:])), state
        current = closed
    return generate._cap_outcome(state, lcm_history, "step cap"), state


def _split_pair(entries, k: int, ia: int, ib: int, kept: list[int]
                ) -> tuple[dict[int, ExactValue], dict[int, ExactValue]]:
    """The arity-k entries with (x_ia, x_ib) = 01 and = 10, over the kept ports."""
    sa, sb = k - 1 - ia, k - 1 - ib
    a: dict[int, ExactValue] = {}
    b: dict[int, ExactValue] = {}
    for m, v in entries.items():
        bits = (m >> sa & 1, m >> sb & 1)
        if bits == (0, 1):
            a[f2.gather(m, kept, k)] = v
        elif bits == (1, 0):
            b[f2.gather(m, kept, k)] = v
    return a, b


def _linear_loop(a: dict[int, ExactValue], b: dict[int, ExactValue],
                 w: ExactValue, swapped: int) -> dict[int, ExactValue]:
    """a + w*b for orientation "ij", w*a + b for "ji" (swapped)."""
    plain, scaled = (b, a) if swapped else (a, b)
    out = dict(plain)
    for m, v in scaled.items():
        out[m] = out[m] + w * v if m in out else w * v
    return out
