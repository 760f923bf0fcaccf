"""Polynomial-structure evaluators, effective-support pruning, and the
pin-elimination reductions.

The two closed-form engines (affine and product) compute partition functions
without enumerating assignments; the support oracle answers per-occurrence
reachability queries either by exhaustive backtracking or through an
external clause-form solver; on top of those sit the oracle-assisted
pipeline, the pin interpolation, and the single-pin reduction.
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass, field

from . import classify, f2
from .errors import (
    EOError,
    NoAsymmetricGateFound,
    NonAffineVertex,
    NonProductVertex,
    NotInterpolatable,
    OpenGridError,
    OracleProtocolError,
    PreconditionViolated,
    StringNotInSupport,
)
from .gauss import Z4Form
from .gauss import gauss_sum as _gauss_sum
from .grids import (
    Grid,
    OrientationSearch,
    brute_force_partition,
    gate_signature,
    require_valid,
    validate,
)
from .signatures import (
    BinaryDiseq,
    Signature,
    as_binary_diseq,
    diseq,
    from_entries,
    neq2,
    pin_signature,
)
from .values import ONE, ZERO, ExactValue, as_value, root_order

Slot = tuple[int, int]


def _require_closed(grid: Grid) -> None:
    require_valid(grid)
    if not grid.is_closed:
        raise OpenGridError("operation needs a closed grid")


def _slot_affines(grid: Grid) -> dict[Slot, tuple[int, int]]:
    """Each slot as an F2-affine function (mask, const) of the edge variables."""
    out: dict[Slot, tuple[int, int]] = {}
    for eidx, (sa, sb) in enumerate(grid.edges):
        out[sa] = (1 << eidx, 0)
        out[sb] = (1 << eidx, 1)
    return out


# ---------------------------------------------------------------------------
# affine-class engine
# ---------------------------------------------------------------------------


def eval_affine(grid: Grid) -> ExactValue:
    """Exact partition function when every vertex signature is affine-class.

    Support constraints become one F2 linear system over edge variables; the
    i-exponents add up to one Z4 quadratic form over the free variables,
    summed exactly by gauss_sum.  An infeasible system means the value 0.
    """
    _require_closed(grid)
    certs: dict[Signature, classify.AffineCertificate] = {}
    for vidx, (vid, sig) in enumerate(grid.vertices):
        if sig.is_zero():
            return ZERO
        if sig not in certs:
            got = classify.membership_affine(sig)
            if isinstance(got, classify.Refutation):
                raise NonAffineVertex(
                    f"vertex {vid}: {got.stage} at {got.witness}")
            certs[sig] = got
    nedges = len(grid.edges)
    slot_aff = _slot_affines(grid)

    equations: list[tuple[int, int]] = []
    for vidx, (vid, sig) in enumerate(grid.vertices):
        cert = certs[sig]
        n = sig.arity
        for h in cert.space.parity_checks():
            mask = 0
            const = f2.dot(h, cert.space.offset)
            for p in range(n):
                if f2.bit_at(h, p, n):
                    emask, ec = slot_aff[(vidx, p)]
                    mask ^= emask
                    const ^= ec
            equations.append((mask, const))
    solved = f2.solve_linear_system(equations, nedges)
    if solved is None:
        return ZERO
    particular, basis = solved
    r = len(basis)

    total = Z4Form(nedges)
    for vidx, (vid, sig) in enumerate(grid.vertices):
        cert = certs[sig]
        d = cert.space.dimension
        local = Z4Form(d)
        for i, lam in enumerate(cert.lin):
            local.add_linear(i, lam)
        for i, j, mu in cert.quad:
            if mu:
                local.add_quad_pair(i, j)
        subst = []
        n = sig.arity
        for b in cert.space.basis:
            pivot_port = n - 1 - (b.bit_length() - 1)
            emask, ec = slot_aff[(vidx, pivot_port)]
            ec ^= f2.bit_at(cert.space.offset, pivot_port, n)
            subst.append((emask, ec))
        total.add_form(local.compose_affine(subst, nedges))

    # substitute edge variables by particular + span(basis) over free vars
    subst_edges = []
    for e in range(nedges):
        mask = 0
        for t, vec in enumerate(basis):
            if (vec >> e) & 1:
                mask |= 1 << t
        subst_edges.append((mask, (particular >> e) & 1))
    final = total.compose_affine(subst_edges, r)
    result = _gauss_sum(final)
    for vidx, (vid, sig) in enumerate(grid.vertices):
        result = result * certs[sig].lam
    return result


# ---------------------------------------------------------------------------
# product-class engine
# ---------------------------------------------------------------------------


class _ParityUnion:
    def __init__(self):
        self.parent: dict = {}
        self.parity: dict = {}

    def add(self, x) -> None:
        if x not in self.parent:
            self.parent[x] = x
            self.parity[x] = 0

    def find(self, x):
        self.add(x)
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        root = x
        p = 0
        for node in reversed(path):
            p ^= self.parity[node]
            self.parent[node] = root
            self.parity[node] = p
        return root, self.parity[path[0]] if path else 0

    def rel(self, x):
        root, _ = self.find(x)
        return root, self.parity[x]

    def union(self, x, y, parity: int) -> bool:
        """Impose value(x) xor value(y) == parity; False on contradiction."""
        rx, px = self.rel(x)
        ry, py = self.rel(y)
        if rx == ry:
            return (px ^ py) == parity
        self.parent[rx] = ry
        self.parity[rx] = px ^ py ^ parity
        return True


def eval_product(grid: Grid) -> ExactValue:
    """Exact partition function when every vertex signature is product-class.

    Pins, parity groups, and edge disequalities reduce to one parity
    union-find; each connected component contributes the sum over its (at
    most two) consistent assignments of the product of group weights.
    """
    _require_closed(grid)
    certs: dict[Signature, classify.ProductCertificate] = {}
    for vidx, (vid, sig) in enumerate(grid.vertices):
        if sig.is_zero():
            return ZERO
        if sig not in certs:
            got = classify.membership_product(sig)
            if isinstance(got, classify.Refutation):
                raise NonProductVertex(
                    f"vertex {vid}: {got.stage} at {got.witness}")
            certs[sig] = got

    CONST = ("const",)
    uf = _ParityUnion()
    uf.add(CONST)
    # slot -> (None, bit) for pinned ports, (group node, parity) otherwise
    slot_expr: dict[Slot, tuple] = {}
    group_weights: dict[tuple, tuple[ExactValue, ExactValue]] = {}
    for vidx, (vid, sig) in enumerate(grid.vertices):
        cert = certs[sig]
        for port, bit in cert.pins:
            slot_expr[(vidx, port)] = (None, bit)
        for gi, grp in enumerate(cert.groups):
            node = (vidx, gi)
            group_weights[node] = (grp.w0, grp.w1)
            uf.add(node)
            for port, parity in zip(grp.ports, grp.parities):
                slot_expr[(vidx, port)] = (node, parity)

    for sa, sb in grid.edges:
        na, pa = slot_expr[sa]
        nb, pb = slot_expr[sb]
        if na is None and nb is None:
            if pa == pb:
                return ZERO
            continue
        if na is None:
            if not uf.union(nb, CONST, pb ^ pa ^ 1):
                return ZERO
            continue
        if nb is None:
            if not uf.union(na, CONST, pa ^ pb ^ 1):
                return ZERO
            continue
        if not uf.union(na, nb, pa ^ pb ^ 1):
            return ZERO

    components: dict = {}
    for node in group_weights:
        root, parity = uf.rel(node)
        components.setdefault(root, []).append((node, parity))
    const_root, const_parity = uf.rel(CONST)

    total = ONE
    for vidx, (vid, sig) in enumerate(grid.vertices):
        total = total * certs[sig].lam
    for root, members in components.items():
        if root == const_root:
            acc = ONE
            for node, parity in members:
                w0, w1 = group_weights[node]
                acc = acc * (w1 if parity ^ const_parity else w0)
            total = total * acc
        else:
            branch = ZERO
            for root_val in (0, 1):
                acc = ONE
                for node, parity in members:
                    w0, w1 = group_weights[node]
                    acc = acc * (w1 if parity ^ root_val else w0)
                branch = branch + acc
            total = total * branch
    return total


# ---------------------------------------------------------------------------
# support oracle
# ---------------------------------------------------------------------------


class ExhaustiveOracle:
    """Depth-first search for one support-consistent orientation through the
    queried string.  The search of the last grid queried is kept, so one
    effective-support pass builds supports and variable order once."""

    name = "exhaustive"
    _search: OrientationSearch | None = None

    def query(self, grid: Grid, vertex: int, mask: int):
        search = self._search
        if search is None or search.grid is not grid:
            search = self._search = OrientationSearch(grid)
        masks = next(search.assignments(vertex=vertex, mask=mask), None)
        if masks is None:
            return False, None
        return True, {(v, p): f2.bit_at(masks[v], p, sig.arity)
                      for v, (_, sig) in enumerate(grid.vertices) for p in range(sig.arity)}


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


class ExternalOracle:
    """Subprocess backend speaking the clause-form text protocol."""

    def __init__(self, command):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.name = f"external:{' '.join(self.command)}"

    def query(self, grid: Grid, vertex: int, mask: int):
        if mask not in grid.signature_of(vertex).support():
            return False, None
        text = encode_support_query(grid, vertex, mask)
        proc = subprocess.run(self.command, input=text, capture_output=True,
                              text=True, timeout=120)
        reply = proc.stdout.strip().splitlines()
        if not reply:
            raise OracleProtocolError(f"no response from {self.name}")
        line = reply[-1].strip()
        if line == "UNSAT":
            return False, None
        if not line.startswith("SAT"):
            raise OracleProtocolError(f"bad oracle response {line!r}")
        lits = [int(tok) for tok in line.split()[1:]]
        orient = {abs(l): (1 if l > 0 else 0) for l in lits}
        witness: dict[Slot, int] = {}
        for eidx, (sa, sb) in enumerate(grid.edges):
            z = orient.get(eidx + 1, 0)
            witness[sa] = z
            witness[sb] = 1 - z
        return True, witness


def support_oracle(grid: Grid, vertex: int, string, backend=None):
    """Whether the string at the vertex occurrence extends to a nonzero-weight
    global assignment; returns (flag, witness slot assignment)."""
    _require_closed(grid)
    backend = backend or ExhaustiveOracle()
    sig = grid.signature_of(vertex)
    mask = f2.string_to_mask(string)[1] if isinstance(string, str) else int(string)
    if mask not in sig.support():
        raise StringNotInSupport(
            f"string {f2.mask_to_string(mask, sig.arity)} not in the vertex support")
    return backend.query(grid, vertex, mask)


@dataclass
class EffectiveSupportReport:
    backend: str
    entries: dict[tuple[int, int], tuple[bool, dict | None]] = field(default_factory=dict)

    def effective_masks(self, vertex: int) -> list[int]:
        return [m for (v, m), (ok, _) in self.entries.items() if v == vertex and ok]


def effective_support(grid: Grid, backend=None) -> EffectiveSupportReport:
    _require_closed(grid)
    backend = backend or ExhaustiveOracle()
    report = EffectiveSupportReport(getattr(backend, "name", "?"))
    for vidx, (vid, sig) in enumerate(grid.vertices):
        for m in sig.support():
            ok, witness = backend.query(grid, vidx, m)
            report.entries[(vidx, m)] = (ok, witness)
    return report


def prune_effective(grid: Grid, backend=None) -> Grid:
    """Zero every non-effective support string, occurrence by occurrence.

    The partition function is unchanged: dropped strings never appear in a
    nonzero-weight assignment.
    """
    report = effective_support(grid, backend)
    out = grid
    for vidx, (vid, sig) in enumerate(grid.vertices):
        keep = set(report.effective_masks(vidx))
        if keep != set(sig.support()):
            pruned = from_entries(sig.arity,
                                  {m: sig.value(m) for m in keep},
                                  sig.name)
            out = out.with_vertex_signature(vidx, pruned)
    return out


# ---------------------------------------------------------------------------
# oracle-assisted pipeline
# ---------------------------------------------------------------------------


def eval_fpnp(grid: Grid, class_hint: str, backend=None) -> ExactValue:
    """Prune to effective supports, then run the hinted closed-form engine.

    Preconditions (checked): every vertex signature has balanced support,
    the signature set is one-sided for triples, and every signature passes
    the hinted class on all pairings.  After pruning, every occurrence must
    have affine support and pass the hinted class outright; a failure there
    is a soundness alarm, not a routine error.
    """
    if class_hint not in ("affine", "product"):
        raise ValueError(f"bad class hint {class_hint!r}")
    _require_closed(grid)
    diag = validate(grid)
    if not diag.all_eo:
        raise PreconditionViolated("grid carries a signature with unbalanced support")
    distinct = grid.distinct_signatures()
    if any(f.is_zero() for f in distinct):
        return ZERO
    triples = [classify.triple_class(f) for f in distinct]
    if any(t.gap for t in triples):
        raise PreconditionViolated("signature set has a balanced-gap triple")
    if not (all(t.all_up for t in triples) or all(t.all_down for t in triples)):
        raise PreconditionViolated("signature set is not one-sided for triples")
    for f in distinct:
        if not classify.membership_all_pairings(f, class_hint).ok:
            raise PreconditionViolated(
                f"signature {f.name or f} fails the {class_hint} pairing test")

    pruned = prune_effective(grid, backend)
    for vidx, (vid, sig) in enumerate(pruned.vertices):
        if sig.is_zero():
            return ZERO
        result = classify.membership(sig, class_hint)
        if isinstance(result, classify.Refutation):
            raise PreconditionViolated(
                f"soundness alarm: pruned occurrence at vertex {vid} fails "
                f"{class_hint} membership ({result.stage} at {result.witness})")
    engine = eval_affine if class_hint == "affine" else eval_product
    return engine(pruned)


# ---------------------------------------------------------------------------
# pin elimination
# ---------------------------------------------------------------------------


def pin_vertices(grid: Grid) -> list[int]:
    """Indices of vertices carrying the binary pin signature."""
    pin = pin_signature()
    return [i for i, (_, sig) in enumerate(grid.vertices) if sig == pin]


def chain_power(x: ExactValue, j: int) -> Signature:
    """Path of j weighted disequalities != (1, x), realized through a gate."""
    if j < 1:
        raise EOError("chain length must be positive")
    base = BinaryDiseq(ONE, x).as_signature()
    verts = [(f"c{t}", base) for t in range(j)]
    edges = [((t, 1), (t + 1, 0)) for t in range(j - 1)]
    dangling = [(0, 0), (j - 1, 1)]
    return gate_signature(Grid.make(verts, edges, dangling))


def interpolate_delta(grid: Grid, x: ExactValue) -> ExactValue:
    """Recover the pinned partition function from pin-free evaluations.

    Each pin occurrence is replaced by the weighted disequality != (1, x^j)
    for j = 1..m+1 (powers built by path composition); solving the resulting
    Vandermonde system gives the polynomial's constant term, which is the
    value with true pins.
    """
    from .values import vandermonde_solve
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
    nodes = []
    rhs = []
    for j in range(1, m + 2):
        replacement = chain_power(x, j)
        expect = BinaryDiseq(ONE, x ** j).as_signature()
        if replacement != expect:
            raise EOError("path composition produced an unexpected signature")
        modified = grid
        for vidx in pins:
            modified = modified.with_vertex_signature(vidx, replacement)
        nodes.append(x ** j)
        rhs.append(brute_force_partition(modified))
    coeffs = vandermonde_solve(nodes, rhs)
    return coeffs[0]


def _binary_gates(signatures: list[Signature], max_vertices: int):
    """Yield (gate signature as BinaryDiseq, description) for all small gates."""
    import itertools
    for size in range(1, max_vertices + 1):
        for combo in itertools.combinations_with_replacement(signatures, size):
            ports = [(v, p) for v, sig in enumerate(combo) for p in range(sig.arity)]
            if len(ports) % 2 != 0 or len(ports) < 2:
                continue
            for d1 in range(len(ports)):
                for d2 in range(d1 + 1, len(ports)):
                    dangling = [ports[d1], ports[d2]]
                    rest = [s for i, s in enumerate(ports) if i not in (d1, d2)]
                    for matching in classify.perfect_pairings(range(len(rest))):
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
    others = [sig for i, (_, sig) in enumerate(grid.vertices) if i != vpin]
    z3 = brute_force_partition(grid.with_vertex_signature(vpin, neq2()))
    distinct = []
    for sig in others:
        if sig not in distinct:
            distinct.append(sig)
    if all(sig.is_zero() or
           classify.symmetry_class(sig).kind == "dual_symmetric"
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


def realize_delta_copies(k: int) -> Grid:
    """Open gate turning one pin plus one disequality into k parallel pins.

    Wiring one pin across a (2k+2)-ary disequality forces one whole side to
    each bit; the 2k leftover ports, interleaved, carry exactly the k-fold
    tensor power of the pin.
    """
    if k < 1:
        raise EOError("need a positive number of pin copies")
    big = diseq(2 * k + 2)
    verts = [("p", pin_signature()), ("d", big)]
    edges = [((0, 0), (1, 0)), ((0, 1), (1, k + 1))]
    dangling = []
    for t in range(1, k + 1):
        dangling.append((1, k + 1 + t))
        dangling.append((1, t))
    return Grid.make(verts, edges, dangling)
