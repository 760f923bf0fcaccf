"""Seeded input families for the four benchmark workloads.

Every family builds its inputs from ``random.Random(f"{family}:{size}:{variant}")``,
so an instance key names its input exactly.  A workload's run seed only picks
variants and the order of the cycle.  Each instance is one library call; its
answer is checked by exact equality against its ``reference``: a value known
by construction (rings, chains), or a second engine or code path, run after
timing.  Without one, the answer is looked up in ``references.json``, which
``record.py`` wrote from the seed commit for every variant of the family
(variants are then limited to ``RECORDED_VARIANTS``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from eoexact import f2
from eoexact.f2 import AffineSpace
from eoexact import classify, generate, grids, tractable
from eoexact.grids import Grid, brute_force_partition, render_grid_text
from eoexact.signatures import (
    BinaryDiseq,
    Signature,
    diseq,
    from_entries,
    gen_diseq,
    render_signature_block,
    self_loop,
    tensor,
)
from eoexact.tractable import ExhaustiveOracle, eval_affine, eval_product
from eoexact.values import I, ONE, ExactValue, render_value

RECORDED_VARIANTS = 16
OPEN_VARIANTS = 1 << 30

SMALL_GAUSS = [ExactValue.gauss(re, im) for re, im in
               ((1, 0), (2, 0), (3, 0), (-1, 0), (1, 1), (2, -1), (1, 2), (0, 1))]


@dataclass
class Instance:
    key: str          # family:size:variant[:call]; names the input exactly
    family: str
    call: Callable[[Callable], object]   # takes a wrapper for oracle backends
    reference: Callable[[], object] | None = None   # None: look up references.json
    validate: Callable[[], bool] | None = None   # brute force on a small member
    inputs: object = None     # the Grid or signature list the call receives


def canon(result) -> str:
    """Canonical text of an answer; equal texts mean exactly equal answers."""
    if isinstance(result, ExactValue):
        return render_value(result)
    if isinstance(result, Signature):
        return f"{result.arity}:" + ",".join(render_value(v) for v in result.values)
    if hasattr(result, "to_json"):
        text = json.dumps(result.to_json(), sort_keys=True)
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:32]
    raise TypeError(f"no canonical form for {type(result).__name__}")


def family_rng(family: str, size, variant: int) -> random.Random:
    return random.Random(f"{family}:{size}:{variant}")


def pick_variant(rng: random.Random, recorded: bool) -> int:
    return rng.randrange(RECORDED_VARIANTS if recorded else OPEN_VARIANTS)


# -- grids --------------------------------------------------------------------


def ring(sigs: list[Signature]) -> Grid:
    """Ring of arity-2h signatures: the last h ports of v meet the first h of v+1."""
    n = len(sigs)
    h = sigs[0].arity // 2
    edges = [((v, h + p), ((v + 1) % n, p)) for v in range(n) for p in range(h)]
    return Grid.make([(f"v{v}", s) for v, s in enumerate(sigs)], edges)


def torus(side: int, sigs: list[Signature]) -> Grid:
    """side x side torus of quaternaries with ports (N, E, S, W)."""
    def at(r, c):
        return (r % side) * side + (c % side)
    edges = []
    for r in range(side):
        for c in range(side):
            edges.append(((at(r, c), 1), (at(r, c + 1), 3)))
            edges.append(((at(r, c), 2), (at(r + 1, c), 0)))
    return Grid.make([(f"v{v}", s) for v, s in enumerate(sigs)], edges)


# The torus orientation N=0, E=1, S=1, W=0 ("0110") and its complement are
# globally consistent, so families that keep 0110 in every support have Z != 0
# in general.
TORUS_BASE = 0b0110


def weighted_deq4(rng: random.Random) -> tuple[Signature, ExactValue, ExactValue]:
    """deq4 support {1100, 0011} with seeded unit weights a and b = a * i^k.

    Unit weights keep the ring's cost independent of the variant: the engines'
    bookkeeping, not the size of the numbers, sets it.
    """
    a = I ** rng.randrange(4)
    b = a * (I ** rng.randrange(4))
    return gen_diseq("1100", a, b, "deq4w"), a, b


def deq4_ring(family: str, n: int, variant: int, pool: int = 4):
    """Ring of n weighted deq4 vertices drawn from a pool; Z = prod a + prod b."""
    rng = family_rng(family, n, variant)
    choices = [weighted_deq4(rng) for _ in range(pool)]
    picks = [rng.randrange(pool) for _ in range(n)]
    prod_a = prod_b = ONE
    for p in picks:
        prod_a = prod_a * choices[p][1]
        prod_b = prod_b * choices[p][2]
    return ring([choices[p][0] for p in picks]), prod_a + prod_b


def affine_quaternary(rng: random.Random) -> Signature:
    """Affine-class quaternary whose support is an affine space through 0110."""
    dim = rng.choice((1, 1, 2))
    space = AffineSpace.make(4, TORUS_BASE, [rng.randrange(1, 16) for _ in range(dim)])
    d = space.dimension
    lam = rng.choice(SMALL_GAUSS)
    lin = [rng.randrange(4) for _ in range(d)]
    quad = {(i, j): rng.randrange(2) for i in range(d) for j in range(i + 1, d)}
    entries = {}
    for el in space.elements():
        t = space.coordinates(el)
        e = sum(lin[i] * t[i] for i in range(d))
        e += 2 * sum(q * t[i] * t[j] for (i, j), q in quad.items())
        entries[el] = lam * (I ** (e % 4))
    return from_entries(4, entries)


def product_quaternary(rng: random.Random) -> Signature:
    """Product-class quaternary (pins, parity groups, rank-1 weights) through 0110."""
    base = [f2.bit_at(TORUS_BASE, p, 4) for p in range(4)]
    ports = list(range(4))
    rng.shuffle(ports)
    pins, groups = [], []
    for p in ports:
        r = rng.random()
        if r < 0.2:
            pins.append(p)
        elif r < 0.55 or not groups:
            groups.append([p])
        else:
            rng.choice(groups).append(p)
    lam = rng.choice(SMALL_GAUSS)
    weights = [(rng.choice(SMALL_GAUSS), rng.choice(SMALL_GAUSS)) for _ in groups]
    entries = {}
    for combo in range(1 << len(groups)):
        mask, val = 0, lam
        for gi, g in enumerate(groups):
            rep = (combo >> gi) & 1
            val = val * weights[gi][rep]
            for p in g:
                if rep ^ base[p] ^ base[g[0]]:
                    mask |= 1 << (3 - p)
        for p in pins:
            if base[p]:
                mask |= 1 << (3 - p)
        entries[mask] = val
    return from_entries(4, entries)


def dense_balanced(rng: random.Random, arity: int, drop: int = 0) -> Signature:
    """All but `drop` balanced strings in the support, seeded nonzero Gaussian values."""
    strings = [m for m in range(1 << arity) if f2.is_balanced(m, arity)]
    rng.shuffle(strings)
    return from_entries(arity, {m: rng.choice(SMALL_GAUSS) for m in sorted(strings[drop:])})


def torus_grid(family: str, side: int, variant: int) -> Grid:
    rng = family_rng(family, side, variant)
    make = {"torus-affine": affine_quaternary, "torus-product": product_quaternary,
            # 3x3: all six balanced strings; 4x4: five of six, to stay near 100 ms
            "brute-torus": lambda r: dense_balanced(r, 4, drop=0 if side == 3 else 1)}[family]
    pool = [make(rng) for _ in range(6)]
    return torus(side, [rng.choice(pool) for _ in range(side * side)])


# -- gadgets ------------------------------------------------------------------


def loop_gadget(variant: int, arity: int, dangling: int) -> tuple[Grid, Callable[[], Signature]]:
    """Dense balanced base of even arity, closed by weighted self-loops down to
    `dangling` open ports.

    The reference applies ``self_loop`` to the table, port by port, which is a
    second code path for the same gate.
    """
    loops = (arity - dangling) // 2
    rng = family_rng("gate-loop", f"{arity}-{dangling}", variant)
    base = dense_balanced(rng, arity)
    ports = list(range(arity))
    rng.shuffle(ports)
    pairs = [(ports[2 * t], ports[2 * t + 1]) for t in range(loops)]
    open_ports = sorted(ports[2 * loops:])
    weights = [BinaryDiseq(ONE, rng.choice(SMALL_GAUSS)) for _ in range(loops)]
    verts = [("f", base)] + [(f"w{t}", w.as_signature()) for t, w in enumerate(weights)]
    edges = []
    for t, (pa, pb) in enumerate(pairs):
        edges.append(((0, pa), (t + 1, 1)))
        edges.append(((0, pb), (t + 1, 0)))
    grid = Grid.make(verts, edges, [(0, p) for p in open_ports])

    def reference() -> Signature:
        sig, live = base, list(range(arity))
        for (pa, pb), w in zip(pairs, weights):
            sig = self_loop(sig, live.index(pa), live.index(pb), w, "ij")
            live.remove(pa)
            live.remove(pb)
        return sig
    return grid, reference


def chain_gadget(variant: int, length: int) -> tuple[Grid, Signature]:
    """Path of weighted disequalities != (1, x); the gate is != (1, x^length)."""
    x = family_rng("gate-chain", length, variant).choice(SMALL_GAUSS[:3] + SMALL_GAUSS[4:])
    base = BinaryDiseq(ONE, x).as_signature()
    verts = [(f"c{t}", base) for t in range(length)]
    edges = [((t, 1), (t + 1, 0)) for t in range(length - 1)]
    return (Grid.make(verts, edges, [(0, 0), (length - 1, 1)]),
            BinaryDiseq(ONE, x ** length).as_signature())


# -- classifier inputs --------------------------------------------------------


def balanced_alpha(rng: random.Random, arity: int) -> str:
    bits = ["0"] * (arity // 2) + ["1"] * (arity // 2)
    rng.shuffle(bits)
    return "".join(bits)


def classify_set(family: str, arity: int, variant: int) -> list[Signature]:
    rng = family_rng(family, arity, variant)
    if family == "diseq":
        return [diseq(arity)]
    if family == "gdiseq":
        return [gen_diseq(balanced_alpha(rng, arity), rng.choice(SMALL_GAUSS),
                          rng.choice(SMALL_GAUSS), "g")]
    if family == "tensor":
        left = 4
        f = gen_diseq(balanced_alpha(rng, left), rng.choice(SMALL_GAUSS), rng.choice(SMALL_GAUSS))
        g = gen_diseq(balanced_alpha(rng, arity - left), rng.choice(SMALL_GAUSS),
                      rng.choice(SMALL_GAUSS))
        return [tensor(f, g).with_name("t")]
    if family == "random":
        return [dense_balanced(rng, rng.choice((4, 6))).with_name(f"r{t}") for t in range(2)]
    raise ValueError(family)


def realizability_input(family: str, arity: int, variant: int) -> Signature:
    """Generalized disequality with a weight in Q(zeta_8), Q(zeta_5) or off the circle."""
    from eoexact.values import FieldMode, parse_value
    rng = family_rng(family, arity, variant)
    alpha = balanced_alpha(rng, arity)
    if family == "nonroot":
        return gen_diseq(alpha, ONE, rng.choice(SMALL_GAUSS[1:3] + SMALL_GAUSS[4:7]), "g")
    order = 8 if family == "zeta8" else 5
    mode = FieldMode.parse(f"zeta:{order}")
    k = rng.choice([k for k in range(1, order) if k % 2 or order % 2])
    return gen_diseq(alpha, ONE, parse_value(f"z{order}^{k}", mode), "g")


# -- instance builders, one per slot kind ------------------------------------


def _engine(name: str):
    """Call an engine through its module, where a tracer may have wrapped it."""
    return lambda grid: getattr(tractable, name)(grid)


def _ring_instances(engine: str, n: int, variant: int) -> list[Instance]:
    grid, z = deq4_ring("ring", n, variant)
    run = _engine(f"eval_{engine}")
    return [Instance(f"ring:{n}:{variant}:{engine}", f"ring-{engine}", lambda wrap: run(grid),
                     lambda: z, inputs=grid)]


def _torus_instances(family: str, side: int, variant: int) -> list[Instance]:
    grid = torus_grid(family, side, variant)
    run = _engine("eval_affine" if family == "torus-affine" else "eval_product")

    def validate() -> bool:
        small = torus_grid(family, 3, variant)
        return run(small) == brute_force_partition(small)
    return [Instance(f"{family}:{side}:{variant}", family, lambda wrap: run(grid),
                     validate=validate, inputs=grid)]


def _brute_instances(side: int, variant: int) -> list[Instance]:
    grid = torus_grid("brute-torus", side, variant)
    return [Instance(f"brute-torus:{side}:{variant}", "brute-torus",
                     lambda wrap: grids.brute_force_partition(grid), inputs=grid)]


def _loop_instances(arity: int, dangling: int, variant: int) -> list[Instance]:
    grid, reference = loop_gadget(variant, arity, dangling)
    return [Instance(f"gate-loop:{arity}:{variant}:d{dangling}", "gate-loop",
                     lambda wrap: grids.gate_signature(grid), reference, inputs=grid)]


def _chain_instances(length: int, variant: int) -> list[Instance]:
    grid, expect = chain_gadget(variant, length)
    return [Instance(f"gate-chain:{length}:{variant}", "gate-chain",
                     lambda wrap: grids.gate_signature(grid), lambda: expect,
                     inputs=grid)]


def _fpnp_instances(family: str, n: int, variant: int) -> list[Instance]:
    if family == "fpnp-deq4":
        grid, z = deq4_ring(family, n, variant, pool=1)
        hint = "affine"
    else:
        a, b = family_rng(family, n, variant).sample(range(1, 5), 2)
        grid = ring([gen_diseq("010101", a, b, "g6")] * n)
        z, hint = ExactValue.rational(a ** n + b ** n), "product"
    direct = eval_affine if hint == "affine" else eval_product
    return [Instance(f"{family}:{n}:{variant}", family,
                     lambda wrap: tractable.eval_fpnp(grid, hint, wrap(ExhaustiveOracle())),
                     lambda: _agree(z, direct(grid)), inputs=grid)]


def _deep_instances(n: int, variant: int) -> list[Instance]:
    grid, z = deq4_ring("deep", n, variant)
    return [Instance(f"deep:{n}:{variant}", "deep", lambda wrap: grids.brute_force_partition(grid),
                     lambda: _agree(z, eval_product(grid)), inputs=grid)]


VERDICT_CALLS = ("eo", "upside", "downside", "single_weighted")


def _verdict_instances(family: str, arity: int, calls, variant: int) -> list[Instance]:
    if family == "diseq":     # one fixed input, whatever the variant
        variant = 0
    sigs = classify_set(family, arity, variant)
    out = []
    for call in calls:
        if call == "eo":
            fn = (lambda wrap: classify.dichotomy_verdict(sigs))
        else:
            fn = (lambda wrap, c=call: classify.verdict_extended(sigs, c))
        out.append(Instance(f"{family}:{arity}:{variant}:{call}", f"verdict-{family}",
                            fn, inputs=sigs))
    return out


def _realize_instances(family: str, arity: int, variant: int) -> list[Instance]:
    sig = realizability_input(family, arity, variant)
    return [Instance(f"{family}:{arity}:{variant}", f"realize-{family}",
                     lambda wrap: generate.delta_realizability(sig), inputs=[sig])]


def _agree(expected, other):
    """Return the analytic value after checking a second engine agrees with it."""
    if other != expected:
        raise AssertionError(f"reference engines disagree: {expected!r} vs {other!r}")
    return expected


# A slot is (builder, args, recorded, count): `count` instances of one family
# and size in every cycle, each with its own seeded variant.  The counts place
# the median and the 90th percentile inside groups of similar cost (see
# NOTES.md), so that they do not jump between groups from seed to seed.
SLOTS = {
    "closed-form": [
        (_ring_instances, ("affine", 128), False, 1),
        (_ring_instances, ("product", 128), False, 2),
        (_ring_instances, ("affine", 256), False, 1),
        (_ring_instances, ("product", 256), False, 12),
        (_ring_instances, ("affine", 512), False, 1),
        (_ring_instances, ("product", 512), False, 1),
        (_torus_instances, ("torus-affine", 8), True, 1),
        (_torus_instances, ("torus-affine", 12), True, 1),
        (_torus_instances, ("torus-affine", 16), True, 1),
        (_torus_instances, ("torus-product", 8), True, 1),
        (_torus_instances, ("torus-product", 12), True, 1),
        (_torus_instances, ("torus-product", 16), True, 1),
    ],
    "enumerate": [
        (_loop_instances, (6, 2), False, 5),
        (_loop_instances, (6, 4), False, 5),
        (_loop_instances, (8, 4), False, 4),
        (_chain_instances, (8,), False, 1),
        (_chain_instances, (16,), False, 1),
        (_brute_instances, (3,), True, 8),
        (_brute_instances, (4,), True, 6),
        (_fpnp_instances, ("fpnp-deq4", 16), False, 1),
        (_fpnp_instances, ("fpnp-deq4", 32), False, 1),
        (_fpnp_instances, ("fpnp-deq4", 64), False, 4),
        (_fpnp_instances, ("fpnp-g6", 16), False, 1),
        (_fpnp_instances, ("fpnp-g6", 32), False, 1),
        (_fpnp_instances, ("fpnp-g6", 64), False, 1),
        (_deep_instances, (512,), False, 1),
    ],
    "classify": [
        (_verdict_instances, ("random", 0, ("eo",)), True, 9),
        (_verdict_instances, ("diseq", 6, VERDICT_CALLS), True, 1),
        (_verdict_instances, ("gdiseq", 6, VERDICT_CALLS), True, 4),
        (_verdict_instances, ("tensor", 6, VERDICT_CALLS), True, 2),
        (_verdict_instances, ("diseq", 8, VERDICT_CALLS), True, 2),
        (_verdict_instances, ("gdiseq", 8, VERDICT_CALLS), True, 1),
        (_verdict_instances, ("tensor", 8, VERDICT_CALLS), True, 1),
        (_realize_instances, ("zeta8", 4), True, 4),
        (_realize_instances, ("zeta5", 4), True, 4),
        (_realize_instances, ("nonroot", 6), True, 1),
        (_verdict_instances, ("diseq", 10, ("eo",)), True, 1),
    ],
}


def build_cycle(workload: str, seed: int) -> list[Instance]:
    """The workload's cycle for a seed: fixed family mix, seeded variants and order."""
    rng = random.Random(seed)
    out: list[Instance] = []
    for builder, args, recorded, count in SLOTS[workload]:
        for _ in range(count):
            out.extend(builder(*args, pick_variant(rng, recorded)))
    rng.shuffle(out)
    return out


def all_recorded_instances(workload: str):
    """Every recorded variant of every slot: what ``record.py`` computes."""
    for builder, args, recorded, _ in SLOTS[workload]:
        if recorded:
            for variant in range(RECORDED_VARIANTS):
                yield from builder(*args, variant)


def input_text(inst: Instance) -> str:
    """The instance's input in the repository's file formats."""
    if isinstance(inst.inputs, Grid):
        return render_grid_text(inst.inputs)
    return "\n".join(render_signature_block(s) for s in inst.inputs)
