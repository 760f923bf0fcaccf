"""Polynomial-structure evaluators, effective-support pruning, and pin
interpolation.

The two closed-form engines (affine and product) compute partition functions
without enumerating assignments; the support oracle answers per-occurrence
reachability queries either from one forward and one backward contraction
pass per grid or through an external clause-form solver; on top of those
sit the oracle-assisted pipeline and the pin interpolation, which replaces
each pin by weighted disequalities and reads the pinned value off a
polynomial.
"""

from __future__ import annotations

import itertools
from collections import Counter

from . import f2
from .errors import (
    NonAffineVertex,
    NonProductVertex,
    NotInterpolatable,
    OpenGridError,
    OracleProtocolError,
    PreconditionViolated,
)
from .gauss import Z4Form
from .gauss import gauss_sum as _gauss_sum
from .grids import (
    Diagnostics,
    Grid,
    Slot,
    brute_force_partition,
    frontier_pass,
    plan_contraction,
    require_valid,
)
from .signatures import BinaryDiseq, from_entries, pin_signature
from .values import ONE, ZERO, ExactValue, as_value, power_product, root_order


def _require_closed(grid: Grid) -> Diagnostics:
    diag = require_valid(grid)
    if not diag.closed:
        raise OpenGridError("operation needs a closed grid")
    return diag


def _certificates(grid: Grid, cls: str, error):
    """Certificates of class cls by position in grid.signature_index.distinct,
    or None as soon as a signature is zero; a signature outside the class
    raises error, naming its first vertex.  The distinct signatures are read
    in first-seen order, which is vertex order."""
    from . import classify
    index = grid.signature_index
    certs = []
    for k, sig in enumerate(index.distinct):
        if sig.is_zero():
            return None
        got = classify.membership(sig, cls)
        if isinstance(got, classify.Refutation):
            vid = grid.vertices[index.of_vertex.index(k)][0]
            raise error(f"vertex {vid}: {got.stage} at {got.witness}")
        certs.append(got)
    return certs


def _power_product(values: list[ExactValue], counts: Counter, flip: int = 0) -> ExactValue:
    """The product of values[key ^ flip] ** count over the counted keys: one
    power per distinct key, however often it occurs, and one normalization."""
    return power_product((values[key ^ flip], count) for key, count in counts.items())


# ---------------------------------------------------------------------------
# affine-class engine
# ---------------------------------------------------------------------------


def eval_affine(grid: Grid) -> ExactValue:
    """Exact partition function when every vertex signature is affine-class.

    The variables are each vertex's coordinates in its certificate's affine
    space: a port reads the offset bit xor the coordinates whose basis row
    holds that port, and each edge gives one XOR equation between its two
    ends, solved by f2.solve_linear_system.  An infeasible system means the
    value 0.  The i-exponents, written in the free variables of the
    solution, add up to one Z4 quadratic form, summed exactly by gauss_sum;
    each certificate's scale is raised to the number of vertices carrying it.
    """
    _require_closed(grid)
    certs = _certificates(grid, "affine", NonAffineVertex)
    if certs is None:
        return ZERO
    # ports[k][p]: (column p of certificate k's basis, offset bit at p)
    ports = [[(col, f2.bit_at(c.space.offset, p, c.arity))
              for p, col in enumerate(f2.columns(c.space.basis, c.arity))]
             for c in certs]
    of_vertex = grid.signature_index.of_vertex
    # vertex v's coordinates are the variables first[v] .. first[v + 1] - 1
    dims = [c.space.dimension for c in certs]
    first = list(itertools.accumulate(map(dims.__getitem__, of_vertex), initial=0))
    equations = []
    for (va, pa), (vb, pb) in grid.edges:
        ma, ca = ports[of_vertex[va]][pa]
        mb, cb = ports[of_vertex[vb]][pb]
        equations.append(((ma << first[va]) ^ (mb << first[vb]), ca ^ cb ^ 1))
    solved = f2.solve_linear_system(equations, first[-1])
    if solved is None:
        return ZERO
    exprs, free = solved
    # both adders are linear in the scale, so each distinct term is added
    # once: lift scales summed mod 4, doubled products counted mod 2
    lifts, doubled = Counter(), Counter()
    for s, e, k in zip(first, first[1:], of_vertex):
        cert = certs[k]
        xs = exprs[s:e]
        for x, lam in zip(xs, cert.lin):
            lifts[x] += lam
        for i, j, mu in cert.quad:
            if mu:
                doubled[xs[i], xs[j]] += 1
    total = Z4Form(free)
    for (mask, const), lam in lifts.items():
        total.add_affine_lift(mask, const, lam)
    for (a, b), count in doubled.items():
        if count & 1:
            total.add_doubled_product(a, b)
    return _gauss_sum(total) * _power_product([c.lam for c in certs], Counter(of_vertex))


# ---------------------------------------------------------------------------
# product-class engine
# ---------------------------------------------------------------------------


def eval_product(grid: Grid) -> ExactValue:
    """Exact partition function when every vertex signature is product-class.

    Each parity group is one variable.  An edge between two groups links
    their parities, an edge to a pin fixes its group (a link to one ground
    node at 0), and a pin-pin edge links the ground to itself, a constant
    check.  One iterative walk per connected set of groups assigns each group
    its parity relative to the set's first group; a conflict means the value
    0.  The ground's set contributes its one assignment, every other set the
    sum of its two.
    Weights are counted by (distinct signature, group, bit) and each one is
    raised to its count.  Sets with equal counts share one factor, which is
    raised to the number of such sets, as each certificate's scale is to the
    number of its vertices, in one power_product.
    """
    _require_closed(grid)
    certs = _certificates(grid, "product", NonProductVertex)
    if certs is None:
        return ZERO
    # weights[key + b]: weight of one certificate group when its leader bit
    # is b, key even; ports[k][p]: (index of port p's group in certificate k,
    # or -1 for a pin; bit read when that group's leader bit is 0)
    weights: list[ExactValue] = []
    ports: list[list[tuple[int, int]]] = []
    group_keys: list[list[int]] = []
    for cert in certs:
        local = [(-1, 0)] * cert.arity
        for port, bit in cert.pins:
            local[port] = (-1, bit)
        keys = []
        for j, grp in enumerate(cert.groups):
            keys.append(len(weights))
            weights += (grp.w0, grp.w1)
            for port, parity in zip(grp.ports, grp.parities):
                local[port] = (j, parity)
        ports.append(local)
        group_keys.append(keys)
    of_vertex = grid.signature_index.of_vertex
    first: list[int] = []    # per vertex: the node of its first group
    node_key: list[int] = []  # per node: its group's weight key
    for k in of_vertex:
        first.append(len(node_key))
        node_key += group_keys[k]
    ground = len(node_key)
    links: list[list[tuple[int, int]]] = [[] for _ in range(ground + 1)]
    for (va, pa), (vb, pb) in grid.edges:
        ja, ba = ports[of_vertex[va]][pa]
        jb, bb = ports[of_vertex[vb]][pb]
        a = first[va] + ja if ja >= 0 else ground
        b = first[vb] + jb if jb >= 0 else ground
        links[a].append((b, ba ^ bb ^ 1))
        links[b].append((a, ba ^ bb ^ 1))

    rel = [-1] * (ground + 1)  # each node's parity relative to its set's first node
    shapes = Counter()  # (ground's set?, its weight counts) -> number of such sets
    for root in (ground, *range(ground)):
        if rel[root] >= 0:
            continue
        rel[root] = 0
        stack, counts = [root], Counter()
        while stack:
            g = stack.pop()
            r = rel[g]
            for h, parity in links[g]:
                if rel[h] < 0:
                    rel[h] = r ^ parity
                    stack.append(h)
                elif rel[h] != r ^ parity:
                    return ZERO
            if g != ground:
                counts[node_key[g] + r] += 1
        shapes[root == ground, frozenset(counts.items())] += 1
    factors = [(certs[k].lam, n) for k, n in Counter(of_vertex).items()]
    for (grounded, items), n in shapes.items():
        counts = dict(items)
        own = _power_product(weights, counts)
        factors.append((own if grounded else own + _power_product(weights, counts, 1), n))
    return power_product(factors)


# ---------------------------------------------------------------------------
# support oracle
# ---------------------------------------------------------------------------


def _first_parent(nxt, key, _, rest, matches):
    for out, s, _ in matches:
        nxt.setdefault(rest | out, (key, s))


class ExhaustiveOracle:
    """Answers every query on a grid from two passes over its contraction
    steps, kept for the last grid queried.  The forward pass keeps, for each
    reachable state, the first (state before, string read) that reaches it;
    the backward pass keeps the forward states that reach the empty end
    state, each with one (state after, string read), and the first such live
    transition (step, state before, state after) of every (vertex, string).
    A witness is read back through both pointers from that transition.  The
    cap counts the forward pass; the backward pass revisits only its states."""

    name = "exhaustive"
    _grid: Grid | None = None

    def query(self, grid: Grid, vertex: int, mask: int):
        if self._grid is not grid:
            self._passes(grid)
        hit = self._hits.get((vertex, mask))
        if hit is None:
            return False, None
        i, before, after = hit
        masks = [0] * len(grid.vertices)
        masks[vertex] = mask
        for j in range(i - 1, -1, -1):
            before, masks[self._steps[j][0]] = self._trail[j][before]
        for j in range(i + 1, len(self._steps)):
            after, masks[self._steps[j][0]] = self._ahead[j][after]
        return True, tuple(masks)

    def _passes(self, grid: Grid) -> None:
        require_valid(grid)  # the plan reads every port as wired or dangling
        plan = plan_contraction(grid)
        steps = plan.steps
        trail = list(frontier_pass(plan, {0: None}, _first_parent))
        ahead = [None] * len(steps)
        hits: dict[tuple[int, int], tuple[int, int, int]] = {}  # (vertex, string) -> transition
        live = {0: None}
        for i in range(len(steps) - 1, -1, -1):
            v, close, groups = steps[i]
            child = {}
            for key in trail[i - 1] if i else (0,):
                for out, s, _ in groups.get(key & close, ()):
                    nxt = (key & ~close) | out
                    if nxt in live:
                        child.setdefault(key, (nxt, s))
                        hits.setdefault((v, s), (i, key, nxt))
            ahead[i] = live = child
        # cached only once both passes are through, so a capped grid stays uncached
        self._grid, self._steps, self._trail, self._ahead, self._hits = \
            grid, steps, trail, ahead, hits


def encode_support_query(grid: Grid, vertex: int, mask: int) -> str:
    """Clause-form text: one edge variable per edge, support constraints as
    forbidden-pattern clauses, plus unit clauses pinning the queried string."""
    lines: list[str] = []
    slot_lit: dict[Slot, int] = {}
    for eidx, (sa, sb) in enumerate(grid.edges):
        slot_lit[sa] = eidx + 1        # slot true iff edge variable true
        slot_lit[sb] = -(eidx + 1)     # opposite endpoint

    def literal(slot: Slot, bit: int) -> int:
        lit = slot_lit[slot]
        return lit if bit else -lit

    for vidx, (vid, sig) in enumerate(grid.vertices):
        n = sig.arity
        supp = set(sig.support())
        for pattern in range(1 << n):
            if pattern in supp:
                continue
            clause = [literal((vidx, p), 1 - f2.bit_at(pattern, p, n))
                      for p in range(n)]
            if clause:
                lines.append(" ".join(str(l) for l in clause))
            else:
                # an arity-0 zero vertex forbids everything
                lines.append("1")
                lines.append("-1")
    n = grid.signature_of(vertex).arity
    for p in range(n):
        lines.append(str(literal((vertex, p), f2.bit_at(mask, p, n))))
    return "\n".join(line for line in lines if line) + "\n"


ORACLE_TIMEOUT_S = 120


class ExternalOracle:
    """Subprocess backend speaking the clause-form text protocol; a nonzero
    exit code or no answer within ORACLE_TIMEOUT_S is a protocol error.
    subprocess and shlex are imported here, by their only user, so a command
    that spawns no oracle does not load them."""

    def __init__(self, command):
        if isinstance(command, str):
            import shlex
            self.command = shlex.split(command)
        else:
            self.command = list(command)
        self.name = f"external:{' '.join(self.command)}"

    def query(self, grid: Grid, vertex: int, mask: int):
        text = encode_support_query(grid, vertex, mask)
        import subprocess
        try:
            proc = subprocess.run(self.command, input=text, capture_output=True,
                                  text=True, timeout=ORACLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise OracleProtocolError(
                f"{self.name}: no answer within {ORACLE_TIMEOUT_S} s") from None
        if proc.returncode:
            raise OracleProtocolError(f"{self.name} exited with code {proc.returncode}")
        reply = proc.stdout.strip().splitlines()
        if not reply:
            raise OracleProtocolError(f"no response from {self.name}")
        line = reply[-1].strip()
        if line == "UNSAT":
            return False, None
        if not line.startswith("SAT"):
            raise OracleProtocolError(f"bad oracle response {line!r}")
        try:
            lits = [int(tok) for tok in line.split()[1:]]
        except ValueError:
            raise OracleProtocolError(f"bad literal in oracle response {line!r}") from None
        # edge variable true: its first slot reads 1, else its second does
        orient = {abs(l): l > 0 for l in lits}
        masks = [0] * len(grid.vertices)
        for eidx, slots in enumerate(grid.edges):
            v, p = slots[0] if orient.get(eidx + 1, False) else slots[1]
            masks[v] |= 1 << (grid.signature_of(v).arity - 1 - p)
        for (vid, sig), m in zip(grid.vertices, masks):
            if m not in sig.entries:
                raise OracleProtocolError(
                    f"{self.name}: witness reads {f2.mask_to_string(m, sig.arity)} "
                    f"outside the support of vertex {vid}")
        if masks[vertex] != mask:
            raise OracleProtocolError(
                f"{self.name}: witness does not read the queried string at vertex "
                f"{grid.vertices[vertex][0]}")
        return True, tuple(masks)


def effective_support(grid: Grid, backend=None) -> list[set[int]]:
    """The effective strings of every vertex, one set per vertex index, found
    vertex by vertex.  A support string that some earlier SAT witness
    already realizes at the vertex is effective without a query; every other
    one is queried.  Once a vertex has no effective string, no assignment
    has nonzero weight, so every later string is ineffective without a
    query.  A string that some SAT witness realizes but the backend answered
    UNSAT is an OracleProtocolError."""
    _require_closed(grid)
    backend = backend or ExhaustiveOracle()
    found: list[set[int]] = []
    realized: list[set[int]] = [set() for _ in grid.vertices]  # by some SAT witness
    for vidx, (vid, sig) in enumerate(grid.vertices):
        effective = set()
        for m in sig.support():
            if m in realized[vidx]:
                effective.add(m)
                continue
            ok, witness = backend.query(grid, vidx, m)
            if ok:
                effective.add(m)
                for seen, s in zip(realized, witness or ()):
                    seen.add(s)
        found.append(effective)
        if not effective:   # every assignment reads some string here: none is effective
            found += [set() for _ in grid.vertices[vidx + 1:]]
            break
    for (vid, sig), seen, effective in zip(grid.vertices, realized, found):
        lied = sorted(seen.intersection(sig.entries) - effective)
        if lied:
            raise OracleProtocolError(
                f"{getattr(backend, 'name', '?')}: answered UNSAT for "
                f"{f2.mask_to_string(lied[0], sig.arity)} at vertex {vid}, "
                "which a SAT witness realizes")
    return found


def prune_effective(grid: Grid, backend=None) -> Grid:
    """Zero every non-effective support string, occurrence by occurrence.

    The partition function is unchanged: dropped strings never appear in a
    nonzero-weight assignment.
    """
    _require_closed(grid)
    effective = effective_support(grid, backend)
    pruned = {vidx: from_entries(sig.arity, {m: sig.entries[m] for m in keep}, sig.name)
              for vidx, ((_, sig), keep) in enumerate(zip(grid.vertices, effective))
              if len(keep) < len(sig.entries)}  # keep is a subset of the support
    if not pruned:
        return grid
    verts = tuple((vid, pruned.get(vidx, sig)) for vidx, (vid, sig) in enumerate(grid.vertices))
    return Grid(verts, grid.edges, grid.dangling)


# ---------------------------------------------------------------------------
# oracle-assisted pipeline
# ---------------------------------------------------------------------------


def eval_fpnp(grid: Grid, class_hint: str, backend=None) -> ExactValue:
    """Prune to effective supports, then run the hinted closed-form engine.

    Preconditions (checked): every vertex signature has balanced support,
    the signature set is one-sided for triples, and every signature passes
    the hinted class on all pairings.  The hint "auto" picks product when
    every signature passes the product pairing test, else affine.  After
    pruning, every occurrence must have affine support and pass that class
    outright; the engine checks that, and a failure there is a soundness
    alarm, not a routine error.
    """
    from . import classify
    if class_hint not in ("auto", "affine", "product"):
        raise ValueError(f"bad class hint {class_hint!r}")
    if not _require_closed(grid).all_eo:
        raise PreconditionViolated("grid carries a signature with unbalanced support")
    distinct = grid.signature_index.distinct
    if any(f.is_zero() for f in distinct):
        return ZERO
    triples = [classify.triple_class(f) for f in distinct]
    if any(t.gap for t in triples):
        raise PreconditionViolated("signature set has a balanced-gap triple")
    if not (all(t.all_up for t in triples) or all(t.all_down for t in triples)):
        raise PreconditionViolated("signature set is not one-sided for triples")
    for cls in ("product", "affine") if class_hint == "auto" else (class_hint,):
        failed = next((f for f in distinct
                       if not classify.membership_all_pairings(f, cls).ok), None)
        if failed is None:
            break
    else:
        raise PreconditionViolated(
            f"signature {failed.name or failed} fails the {cls} pairing test")

    pruned = prune_effective(grid, backend)
    engine = eval_affine if cls == "affine" else eval_product
    try:
        return engine(pruned)
    except (NonAffineVertex, NonProductVertex) as exc:
        raise PreconditionViolated(
            f"soundness alarm: pruned occurrence fails {cls} membership "
            f"({exc})") from None


# ---------------------------------------------------------------------------
# pin elimination
# ---------------------------------------------------------------------------


def pin_vertices(grid: Grid) -> list[int]:
    """Indices of vertices carrying the binary pin signature."""
    pin = pin_signature()
    return [i for i, (_, sig) in enumerate(grid.vertices) if sig == pin]


def _constant_term(nodes: list[ExactValue], values: list[ExactValue]) -> ExactValue:
    """P(0) for the polynomial P of degree below len(nodes) with
    P(nodes[k]) == values[k], as the Lagrange sum over distinct nodes."""
    total = ZERO
    for k, (xk, zk) in enumerate(zip(nodes, values)):
        num, den = zk, ONE
        for j, xj in enumerate(nodes):
            if j != k:
                num = num * xj
                den = den * (xj - xk)
        total = total + num / den
    return total


def interpolate_delta(grid: Grid, x: ExactValue) -> ExactValue:
    """Recover the pinned partition function from pin-free evaluations.

    Each pin occurrence is replaced by the weighted disequality != (1, x^j)
    for j = 1..m+1, which a path of j copies of != (1, x) realizes; the
    value with true pins is the constant term of the polynomial through
    these evaluations.  The nodes x^j are distinct because x is not a root
    of unity.
    """
    _require_closed(grid)
    x = as_value(x)
    pins = pin_vertices(grid)
    m = len(pins)
    if m == 0:
        return brute_force_partition(grid)
    if x.is_zero():
        raise NotInterpolatable("interpolation node base must be nonzero")
    order = root_order(x)
    if order.kind != "not_root":
        raise NotInterpolatable(
            "interpolation needs a base that is provably not a root of unity")
    nodes = [x ** j for j in range(1, m + 2)]
    rhs = []
    for xj in nodes:
        replacement = BinaryDiseq(ONE, xj).as_signature()
        modified = grid
        for vidx in pins:
            modified = modified.with_vertex_signature(vidx, replacement)
        rhs.append(brute_force_partition(modified))
    return _constant_term(nodes, rhs)
