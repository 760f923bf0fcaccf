"""Iterative realization of binary signatures from one signature.

Round i closes d-1 of the 2d ports with weighted-disequality self-loops
(weights drawn from the previous round's set), normalizes the surviving
binary gates, and then closes the parameter set under products (which path
composition realizes physically).  The reachable parameter set decides how a
free pin can be obtained: directly, by interpolation on a non-root
parameter, by a growing root lattice, or not at all (finite root group).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from . import classify
from .errors import CoprimalityError, EOError, NotEO
from .grids import Grid, gate_signature
from .signatures import BinaryDiseq, Signature, as_binary_diseq, neq2
from .values import ExactValue, ONE, ZERO, compare_abs, root_order

DEFAULT_STEP_CAP = 8
DEFAULT_SET_CAP = 4096
DEFAULT_ORDER_CAP = 64
DEFAULT_WORK_CAP = 250_000


@dataclass(frozen=True)
class LoopSpec:
    port_a: int
    port_b: int
    weight: ExactValue      # normalized parameter of the loop weight
    orientation: str        # "ij" | "ji"


@dataclass(frozen=True)
class LoopRecipe:
    """d-1 weighted self-loops on the base signature, two ports left open."""
    dangling: tuple[int, int]
    loops: tuple[LoopSpec, ...]


@dataclass(frozen=True)
class PathRecipe:
    """Chain of previously realized parameters; parameters multiply."""
    parts: tuple[ExactValue, ...]


Recipe = LoopRecipe | PathRecipe


@dataclass
class GenerationStep:
    index: int
    loop_params: tuple[ExactValue, ...]
    closure_params: tuple[ExactValue, ...]
    order_lcm: int


@dataclass
class GeneratingState:
    base: Signature
    steps: list[GenerationStep] = field(default_factory=list)
    recipes: dict[ExactValue, Recipe | None] = field(default_factory=dict)
    work: int = 0

    def closure(self) -> tuple[ExactValue, ...]:
        return self.steps[-1].closure_params if self.steps else (ONE,)


@dataclass
class RootDescriptor:
    outcome: str  # "finite_group" | "non_root" | "order_growth" | "cap_exhausted" | "pin_direct"
    order: int | None = None
    value: ExactValue | None = None
    recipe: Recipe | None = None
    orders_seen: tuple[int, ...] = ()
    note: str = ""

    def to_json(self) -> dict:
        from .values import render_value
        return {
            "outcome": self.outcome,
            "order": self.order,
            "value": render_value(self.value) if self.value is not None else None,
            "orders_seen": list(self.orders_seen),
            "note": self.note,
        }


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
    verts = [(f"c{t}", sig) for t, sig in enumerate(chain)]
    edges = [((t, 1), (t + 1, 0)) for t in range(len(chain) - 1)]
    dangling = [(0, 0), (len(chain) - 1, 1)]
    return gate_signature(Grid.make(verts, edges, dangling))


def _loop_layer(f: Signature, weights: Sequence[ExactValue],
                state: GeneratingState, work_cap: int):
    """All normalized binary parameters from d-1 weighted self-loops on f.

    Yields (parameter, recipe, raw ratio) triples; zero gates are dropped.
    """
    from .signatures import self_loop
    n = f.arity
    d = n // 2
    out: dict[ExactValue, tuple[LoopRecipe, ExactValue]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            rest = [p for p in range(n) if p not in (i, j)]
            for matching in classify.perfect_pairings(rest):
                for combo in itertools.product(weights, repeat=d - 1):
                    for orients in itertools.product(("ij", "ji"), repeat=d - 1):
                        state.work += 1
                        if state.work > work_cap:
                            raise _WorkCap()
                        g = f
                        live = list(range(n))
                        for (pa, pb), w, ori in zip(matching, combo, orients):
                            ia, ib = live.index(pa), live.index(pb)
                            g = self_loop(g, ia, ib, BinaryDiseq(ONE, w), ori)
                            live.remove(pa)
                            live.remove(pb)
                        bd = as_binary_diseq(g)
                        if bd is None or bd.is_zero():
                            continue
                        norm, _, _ = bd.normalized()
                        param = norm.b
                        if param not in out:
                            loops = tuple(
                                LoopSpec(pa, pb, w, ori)
                                for (pa, pb), w, ori in zip(matching, combo, orients))
                            out[param] = (LoopRecipe((i, j), loops),
                                          ZERO if bd.a.is_zero() else bd.b / bd.a)
    return out


class _WorkCap(Exception):
    pass


def _closure_under_products(params: dict[ExactValue, Recipe | None],
                            orders: dict[ExactValue, int],
                            set_cap: int) -> dict[ExactValue, Recipe | None]:
    """Close a set of root-of-unity parameters under products.

    For roots this is the cyclic group of order lcm(orders); it is built by
    walking powers and pairwise products until stable, recording a path
    recipe for every new element.
    """
    closed = dict(params)
    frontier = list(params)
    while frontier:
        new_frontier = []
        for p in frontier:
            for q in list(closed):
                r = p * q
                if r not in closed:
                    closed[r] = PathRecipe((p, q))
                    new_frontier.append(r)
                    if len(closed) > set_cap:
                        raise _WorkCap()
        frontier = new_frontier
    return closed


def generating_process(f: Signature,
                       max_steps: int = DEFAULT_STEP_CAP,
                       max_set: int = DEFAULT_SET_CAP,
                       order_cap: int = DEFAULT_ORDER_CAP,
                       work_cap: int = DEFAULT_WORK_CAP,
                       ) -> tuple[RootDescriptor, GeneratingState]:
    """Run the loop/path closure rounds until a verdict about pins emerges.

    Stops at: a zero parameter (a free pin fell out directly), a non-root
    parameter (interpolation applies), a fixed point (finite root group), or
    the caps (order growth versus plain exhaustion, judged by whether the
    group order kept climbing).
    """
    if not f.is_eo():
        raise NotEO("the generating process is defined on balanced-support signatures")
    if f.arity < 2 or f.arity % 2:
        raise EOError("need even arity at least 2")
    state = GeneratingState(f)
    state.recipes[ONE] = None
    current: dict[ExactValue, Recipe | None] = {ONE: None}
    orders: dict[ExactValue, int] = {ONE: 1}
    lcm_history: list[int] = [1]

    for step in range(1, max_steps + 1):
        try:
            layer = _loop_layer(f, list(current), state, work_cap)
        except _WorkCap:
            return _cap_outcome(state, lcm_history, "loop enumeration work cap"), state
        layer_params = []
        for param, (recipe, raw_ratio) in layer.items():
            if param.is_zero():
                state.recipes[ZERO] = recipe
                return RootDescriptor("pin_direct", value=ZERO, recipe=recipe,
                                      note="a free pin is realized directly"), state
            ro = root_order(param, order_cap)
            if ro.kind == "not_root":
                state.recipes.setdefault(param, recipe)
                rep = param
                if not raw_ratio.is_zero() and compare_abs(param, ONE) < 0:
                    rep = param.inverse()
                return RootDescriptor("non_root", value=rep, recipe=recipe,
                                      note="parameter off the root lattice"), state
            if ro.kind == "unknown":
                state.recipes.setdefault(param, recipe)
                return _cap_outcome(state, lcm_history,
                                    f"root order beyond cap {order_cap}"), state
            orders[param] = ro.order
            layer_params.append(param)
            state.recipes.setdefault(param, recipe)
        merged = dict(current)
        for p in layer_params:
            merged.setdefault(p, state.recipes[p])
        try:
            closed = _closure_under_products(merged, orders, max_set)
        except _WorkCap:
            return _cap_outcome(state, lcm_history, "closure size cap"), state
        for p in closed:
            if p not in state.recipes:
                state.recipes[p] = closed[p]
            if p not in orders:
                ro = root_order(p, max(order_cap, len(closed) + 1))
                orders[p] = ro.order if ro.is_root else 0
        group_order = 1
        for p in closed:
            group_order = lcm(group_order, orders.get(p, 1) or 1)
        state.steps.append(GenerationStep(
            step, tuple(sorted(layer.keys(), key=str)),
            tuple(sorted(closed.keys(), key=str)), group_order))
        lcm_history.append(group_order)
        if set(closed) == set(current):
            return RootDescriptor("finite_group", order=group_order,
                                  orders_seen=tuple(lcm_history[1:])), state
        current = closed
    return _cap_outcome(state, lcm_history, "step cap"), state


def _cap_outcome(state: GeneratingState, lcm_history: list[int], why: str) -> RootDescriptor:
    growth = sum(1 for a, b in zip(lcm_history, lcm_history[1:]) if b > a)
    if growth >= 3:
        return RootDescriptor("order_growth", orders_seen=tuple(lcm_history[1:]),
                              note=f"group order kept growing ({why})")
    return RootDescriptor("cap_exhausted", orders_seen=tuple(lcm_history[1:]),
                          note=why)


# ---------------------------------------------------------------------------
# root combination arithmetic
# ---------------------------------------------------------------------------


def combine_roots(a: int, c: int, b: int, d: int, t: int) -> tuple[int, int]:
    """Exponents (r, s) with frac(rc/a + sd/b) == frac(t/ab).

    Needs gcd(a, c) == gcd(b, d) == gcd(a, b) == 1; computed with modular
    inverses from the extended Euclid algorithm.
    """
    if a < 1 or b < 1:
        raise CoprimalityError("moduli must be positive")
    if gcd(a, c) != 1 or gcd(b, d) != 1:
        raise CoprimalityError("numerators must be coprime to their moduli")
    if gcd(a, b) != 1:
        raise CoprimalityError("moduli must be coprime")
    # rcb + sda == t (mod ab), split by the Chinese remainders
    r = (t * pow(c * b % a if a > 1 else 0, -1, a)) % a if a > 1 else 0
    s = (t * pow(d * a % b if b > 1 else 0, -1, b)) % b if b > 1 else 0
    lhs = Fraction(r * c, a) + Fraction(s * d, b)
    want = Fraction(t, a * b)
    if (lhs - want) % 1 != 0:
        raise EOError("root combination arithmetic failed")
    return r, s


# ---------------------------------------------------------------------------
# pin realizability report
# ---------------------------------------------------------------------------


@dataclass
class PinRealizabilityReport:
    descriptor: RootDescriptor
    symmetry: classify.SymmetryReport
    route: str
    consistent: bool
    findings: list[str] = field(default_factory=list)
    equal_pair_gadget: bool = False

    def to_json(self) -> dict:
        return {
            "descriptor": self.descriptor.to_json(),
            "symmetry": self.symmetry.to_json(),
            "route": self.route,
            "consistent": self.consistent,
            "findings": list(self.findings),
            "equal_pair_gadget": self.equal_pair_gadget,
        }


def _equal_pair_gadget_exists(f: Signature) -> bool:
    """Whether plain self-loops reach a two-string quaternary gate with both
    values nonzero (the springboard for duplicating a single pin)."""
    from .signatures import self_loop

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


def delta_realizability(f: Signature,
                        max_steps: int = DEFAULT_STEP_CAP,
                        max_set: int = DEFAULT_SET_CAP,
                        order_cap: int = DEFAULT_ORDER_CAP) -> PinRealizabilityReport:
    """Combine the generating process with the dual-symmetry tests.

    Decides which pin-realization route applies and cross-checks the
    structural expectations; a failed expectation is reported as a finding
    rather than silently accepted.
    """
    descriptor, state = generating_process(f, max_steps, max_set, order_cap)
    symmetry = classify.symmetry_class(f)
    findings: list[str] = []
    consistent = True
    equal_pair = _equal_pair_gadget_exists(f)

    if descriptor.outcome == "pin_direct":
        route = "pin_realized_directly"
    elif descriptor.outcome == "non_root":
        route = "interpolation"
    elif descriptor.outcome == "order_growth":
        route = "root_lattice_interpolation"
    elif descriptor.outcome == "cap_exhausted":
        route = "inconclusive"
    else:
        k = descriptor.order or 1
        if k >= 3:
            route = "conjugate_dual_regime"
            if classify.conjugate_dual_unit(f) is None:
                consistent = False
                findings.append(
                    f"finite root group of order {k} but no conjugate-dual unit")
        elif k == 2:
            route = "negation_regime"
            if symmetry.kind != "dual_antisymmetric":
                consistent = False
                findings.append(
                    "root group {1,-1} but the signature is not dual-antisymmetric")
        else:
            route = "symmetric_regime"
            if symmetry.kind != "dual_symmetric":
                consistent = False
                findings.append(
                    "root group {1} but the signature is not dual-symmetric")
        if equal_pair:
            route += "+equal_pair_gadget"
    return PinRealizabilityReport(descriptor, symmetry, route, consistent,
                                  findings, equal_pair)
