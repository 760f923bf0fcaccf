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
from math import lcm
from typing import NamedTuple, Sequence

from . import classify
from .errors import EOError, NotEO
from .signatures import BinaryDiseq, Signature, self_loop
from .values import ExactValue, ONE, ZERO, compare_abs, render_value, root_order

DEFAULT_STEP_CAP = 8
DEFAULT_SET_CAP = 4096
DEFAULT_ORDER_CAP = 64
DEFAULT_WORK_CAP = 250_000


class LoopSpec(NamedTuple):
    port_a: int
    port_b: int
    weight: ExactValue      # normalized parameter of the loop weight
    orientation: str        # "ij" | "ji"


class LoopRecipe(NamedTuple):
    """d-1 weighted self-loops on the base signature, two ports left open."""
    dangling: tuple[int, int]
    loops: tuple[LoopSpec, ...]


class PathRecipe(NamedTuple):
    """Chain of previously realized parameters; parameters multiply."""
    parts: tuple[ExactValue, ...]


Recipe = LoopRecipe | PathRecipe


class GenerationStep(NamedTuple):
    index: int
    loop_params: tuple[ExactValue, ...]
    closure_params: tuple[ExactValue, ...]
    order_lcm: int


class GeneratingState:
    def __init__(self):
        self.steps: list[GenerationStep] = []
        self.recipes: dict[ExactValue, Recipe | None] = {}
        self.work = 0        # loop-layer forms evaluated; the work cap bounds it

    def closure(self) -> tuple[ExactValue, ...]:
        return self.steps[-1].closure_params if self.steps else (ONE,)


class RootDescriptor(NamedTuple):
    # "finite_group" | "non_root" | "order_growth" | "cap_exhausted" | "pin_direct"
    outcome: str
    order: int | None = None
    value: ExactValue | None = None
    recipe: Recipe | None = None
    orders_seen: tuple[int, ...] = ()
    note: str = ""

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "order": self.order,
            "value": render_value(self.value) if self.value is not None else None,
            "orders_seen": list(self.orders_seen),
            "note": self.note,
        }


def _loop_layer(f: Signature, weights: Sequence[ExactValue],
                state: GeneratingState, work_cap: int
                ) -> dict[ExactValue, tuple[LoopRecipe, ExactValue]]:
    """All normalized binary parameters from d-1 weighted self-loops on f.

    Returns {parameter: (recipe, raw ratio b/a)}, each parameter with the
    first recipe that reaches it in the order (dangling pair, matching,
    weight tuple, orientations); zero gates are dropped.  A loop is linear in
    its weight, so for one dangling pair and matching each gate entry is a
    multilinear form: the sum of f(s) * w^(r xor o) over the support strings
    s that read 01 or 10 on every loop, where bit t of r is set when s reads
    10 on loop t and o holds the orientations ("ji" sets the bit).  When the
    weights are a finite group W of roots listed with 1 first, and the 00
    and 11 forms are empty while 01 and 10 are single terms, the ratios over
    all weight tuples form one coset c*W (or the one value c), read off the
    exponents.  Other forms are evaluated at every (weight tuple,
    orientations) by closing one loop at a time on vectors over all
    orientations, so each prefix of a weight tuple is closed once.
    state.work grows by one per (pair, matching) that its forms decide (a
    coset, or no 01 or 10 term) and by one per (weight tuple, orientations)
    elsewhere.
    """
    n = f.arity
    loops = n // 2 - 1
    inverse = _group_inverses(weights)
    reach = [_first_reach(inverse, flip) for flip in (0, 1)] if inverse else None
    strings = [([s >> (n - 1 - p) & 1 for p in range(n)], v) for s, v in f.entries.items()]
    orients = [(ors, sum(o << t for t, o in enumerate(ors)))
               for ors in itertools.product((0, 1), repeat=loops)]
    out: dict[ExactValue, tuple[LoopRecipe, ExactValue]] = {}
    params: dict[tuple[ExactValue, ExactValue], ExactValue] = {}
    # (c, 1/c or None) by the two terms' values, and the representatives of
    # the whole cosets inserted so far
    ratios: dict[tuple[ExactValue, ExactValue], tuple[ExactValue, ExactValue | None]] = {}
    covered: set[ExactValue] = set()

    def recipe(pair, matching, ws, ors) -> LoopRecipe:
        return LoopRecipe(pair, tuple(LoopSpec(pa, pb, weights[w], ("ij", "ji")[o])
                                      for (pa, pb), w, o in zip(matching, ws, ors)))

    for i in range(n):
        for j in range(i + 1, n):
            rest = [p for p in range(n) if p not in (i, j)]
            for matching in classify.perfect_pairings(rest):
                # the four forms by dangling bits x_i x_j, as (r, f(s)) terms;
                # the dangling bits and r fix s, so no two terms share an r
                forms: tuple[list[tuple[int, ExactValue]], ...] = ([], [], [], [])
                for b, v in strings:
                    r = 0
                    for t, (pa, pb) in enumerate(matching):
                        if b[pa] == b[pb]:
                            break
                        r |= b[pa] << t
                    else:
                        forms[b[i] << 1 | b[j]].append((r, v))
                f00, f01, f10, f11 = forms
                if not (f01 or f10) or (inverse and not (f00 or f11)
                                         and len(f01) == len(f10) == 1):
                    state.work += 1
                    if state.work > work_cap:
                        raise _WorkCap()
                    if not (f01 or f10):
                        continue
                    (r1, c1), (r2, c2) = f01[0], f10[0]
                    # the parameter is the ratio b/a, or a/b when |a| < |b|;
                    # unimodular weights keep that choice across the coset
                    got = ratios.get((c1, c2))
                    if got is None:
                        got = ratios[c1, c2] = (c2 / c1,
                                                c1 / c2 if compare_abs(c1, c2) < 0 else None)
                    c, inv_c = got
                    rep = c if inv_c is None else inv_c
                    if rep in covered:
                        continue
                    # only the last loop T whose exponents differ carries a
                    # weight; the others keep weights[0] == 1
                    diff = r1 ^ r2
                    last = diff.bit_length() - 1
                    if diff:  # equal exponents give the one value c, not c*W
                        covered.add(rep)
                    for k, o, q in reach[r1 >> last & 1] if diff else ((0, 0, 0),):
                        ratio = c * weights[q]
                        param = ratio if inv_c is None else inv_c * weights[inverse[q]]
                        if param not in out:
                            ws, ors = [0] * loops, [0] * loops
                            if diff:
                                ws[last], ors[last] = k, o
                            out[param] = (recipe((i, j), matching, ws, ors), ratio)
                    continue
                vectors = [[dict(form).get(r) for r in range(1 << loops)] if form else None
                           for form in forms]
                for ws, (g00, g01, g10, g11) in _closed_loops(vectors, weights, loops):
                    for ors, o in orients:
                        state.work += 1
                        if state.work > work_cap:
                            raise _WorkCap()
                        if not (_at(g00, o).is_zero() and _at(g11, o).is_zero()):
                            continue
                        a, b = _at(g01, o), _at(g10, o)
                        if a.is_zero() and b.is_zero():
                            continue
                        param = params.get((a, b))
                        if param is None:
                            param = params[a, b] = BinaryDiseq(a, b).parameter
                        if param not in out:
                            out[param] = (recipe((i, j), matching, ws, ors),
                                          ZERO if a.is_zero() else b / a)
    return out


def _group_inverses(weights: Sequence[ExactValue]) -> list[int] | None:
    """For weights that are a finite group of roots listed with 1 first
    (m distinct values whose m-th powers are 1), the index of each one's
    inverse; None otherwise."""
    m = len(weights)
    index = {w: k for k, w in enumerate(weights)}
    if not m or len(index) != m or weights[0] != ONE or any(w ** m != ONE for w in weights[1:]):
        return None
    inverse = [index.get(w.conj()) for w in weights]
    return None if None in inverse else inverse


def _first_reach(inverse: list[int], flip: int) -> list[tuple[int, int, int]]:
    """(k, o, q) for each index q of a group of weights, in the order weight
    index k and orientation o of one loop first reach w_q: the loop scales
    the ratio by w_k when o == flip and by 1/w_k otherwise."""
    seen: set[int] = set()
    out = []
    for k in range(len(inverse)):
        for o in (0, 1):
            q = k if o == flip else inverse[k]
            if q not in seen:
                seen.add(q)
                out.append((k, o, q))
    return out


def _closed_loops(vectors: list, weights: Sequence[ExactValue], loops: int,
                  t: int = 0, ws: tuple[int, ...] = ()):
    """(ws, vectors) for each tuple ws of weight indices of loops t, t+1, ...
    in product order, each form's vector with those loops closed.  A vector
    lists a form's values by an index over the loops whose bit t is r_t while
    loop t is open and o_t once it is closed; None is no term, and so is a
    vector that is None.  Each prefix of ws is closed once."""
    if t == loops:
        yield ws, vectors
        return
    for k, w in enumerate(weights):
        yield from _closed_loops([vec and _close_loop(vec, w, 1 << t) for vec in vectors],
                                 weights, loops, t + 1, ws + (k,))


def _close_loop(vec: list, w: ExactValue, bit: int) -> list:
    """vec with the loop of `bit` closed by weight w: with x and y the values
    at r_t = 0 and 1, orientation "ij" (o_t = 0) leaves x + w*y and "ji"
    leaves w*x + y."""
    out = [None] * len(vec)
    one = w == ONE
    for p in range(len(vec)):
        if p & bit:
            continue
        q = p | bit
        x, y = vec[p], vec[q]
        if x is None:
            if y is not None:
                out[p], out[q] = (y, y) if one else (w * y, y)
        elif y is None:
            out[p], out[q] = (x, x) if one else (x, w * x)
        elif one:
            out[p] = out[q] = x + y
        else:
            out[p], out[q] = x + w * y, w * x + y
    return out


def _at(vec: list | None, o: int) -> ExactValue:
    """A form's value at orientation o, ZERO where it has no term."""
    v = vec[o] if vec else None
    return ZERO if v is None else v


class _WorkCap(Exception):
    pass


def _closure_under_products(params: dict[ExactValue, Recipe | None],
                            set_cap: int) -> dict[ExactValue, Recipe | None]:
    """Close a set of root-of-unity parameters under products.

    For roots this is the cyclic group whose order is the lcm of theirs; it
    is built by walking powers and pairwise products until stable, recording
    a path recipe for every new element.
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
    state = GeneratingState()
    state.recipes[ONE] = None
    current: dict[ExactValue, Recipe | None] = {ONE: None}
    lcm_history: list[int] = [1]
    labels: dict[ExactValue, str] = {}

    def label(p: ExactValue) -> str:
        """str(p), rendered once per process: steps are sorted by it."""
        got = labels.get(p)
        if got is None:
            got = labels[p] = str(p)
        return got

    for step in range(1, max_steps + 1):
        try:
            layer = _loop_layer(f, list(current), state, work_cap)
        except _WorkCap:
            return _cap_outcome(state, lcm_history, "loop enumeration work cap"), state
        layer_params = []
        # The closure is the cyclic group spanned by the previous closure and
        # this round's roots, so its order is the lcm of their orders.
        group_order = lcm_history[-1]
        # every element of the current set has an order dividing that lcm, so
        # within the cap root_order would call it a root and add no order
        known = current if group_order <= order_cap else {}
        for param, (recipe, raw_ratio) in layer.items():
            if param.is_zero():
                state.recipes[ZERO] = recipe
                return RootDescriptor("pin_direct", value=ZERO, recipe=recipe,
                                      note="a free pin is realized directly"), state
            if param in known:
                continue
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
            group_order = lcm(group_order, ro.order)
            layer_params.append(param)
            state.recipes.setdefault(param, recipe)
        merged = dict(current)
        for p in layer_params:
            merged.setdefault(p, state.recipes[p])
        try:
            # the current set is closed already, so a layer with nothing new
            # leaves it as it is
            closed = (current if len(merged) == len(current)
                      else _closure_under_products(merged, max_set))
        except _WorkCap:
            return _cap_outcome(state, lcm_history, "closure size cap"), state
        for p in closed:
            if p not in state.recipes:
                state.recipes[p] = closed[p]
        state.steps.append(GenerationStep(
            step, tuple(sorted(layer, key=label)), tuple(sorted(closed, key=label)), group_order))
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
# pin realizability report
# ---------------------------------------------------------------------------


class PinRealizabilityReport(NamedTuple):
    descriptor: RootDescriptor
    symmetry: classify.SymmetryReport
    route: str
    consistent: bool
    findings: list[str]
    equal_pair_gadget: bool
    # the gadget recipes of the generating-process run (not part of to_json)
    recipes: dict[ExactValue, Recipe | None]

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
                                  findings, equal_pair, state.recipes)
