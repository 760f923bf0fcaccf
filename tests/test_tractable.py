import random
import sys
from collections import Counter

import pytest

from eoexact import f2, grids, tractable
from eoexact.classify import membership
from eoexact.errors import (
    BruteForceCapExceeded,
    FieldMismatch,
    InvalidGrid,
    NonAffineVertex,
    NonProductVertex,
    NotInterpolatable,
    OracleProtocolError,
    PreconditionViolated,
)
from eoexact.grids import Grid, brute_force_partition, gate_signature
from eoexact.signatures import (
    BinaryDiseq,
    Signature,
    delta0,
    diseq,
    dual,
    from_entries,
    gen_diseq,
    neq2,
    permute,
    pin_signature,
    tensor,
)
from eoexact.tractable import (
    ExhaustiveOracle,
    _power_product,
    ExternalOracle,
    chain_power,
    effective_support,
    encode_support_query,
    eval_affine,
    eval_fpnp,
    eval_product,
    interpolate_delta,
    prune_effective,
)
from eoexact.values import ExactValue, I, ONE, ZERO
from paper import (
    NoAsymmetricGateFound,
    StringNotInSupport,
    reduce_single_delta,
    support_oracle,
)
from tests_helpers import (
    dense_torus,
    enumerate_reference,
    galois,
    rand_affine_signature,
    rand_class_grid,
    rand_closed_grid,
    rand_cyclotomic,
    rand_eo_signature,
    rand_product_signature,
    rand_value,
    rand_wired_grid,
    realize_delta_copies,
    reference_eval_affine,
    reference_eval_product,
    reference_power_product,
    reference_vandermonde_solve,
)

V = ExactValue.rational

EXTERNAL_CMD = [sys.executable, "-m", "eoexact.oracle_cli"]


def weighted_deq4_ring(n):
    """Ring of n weighted deq4 vertices (2n edges): ports 3,4 of v meet 1,2 of v+1."""
    rng = random.Random(n)
    return deq4_ring([from_entries(4, {"0011": rng.choice([1, 2, I]),
                                       "1100": rng.choice([1, 3, -I])})
                      for _ in range(n)])


def deq4_ring(sigs):
    """Ring of the given quaternaries: ports 3,4 of v meet 1,2 of v+1."""
    n = len(sigs)
    edges = [((v, 2 + p), ((v + 1) % n, p)) for v in range(n) for p in range(2)]
    return Grid.make([(f"v{v}", sig) for v, sig in enumerate(sigs)], edges)


def assert_valid_witness(grid, vidx, m, witness):
    """The witness is the string each vertex reads: every edge takes opposite
    bits, every vertex reads a support string, and the queried vertex reads
    the queried string."""
    assert len(witness) == len(grid.vertices)

    def bit(slot):
        v, p = slot
        return f2.bit_at(witness[v], p, grid.signature_of(v).arity)

    for (sa, sb) in grid.edges:
        assert bit(sa) != bit(sb)
    for v2, (vid2, sig2) in enumerate(grid.vertices):
        assert witness[v2] in sig2.support()
    assert witness[vidx] == m


def pinned_triple_grid():
    """Arity-4 signature with (x1,x2) pinned to 01 by a pin vertex, (x3,x4) looped."""
    f = from_entries(4, {"0011": 1, "0101": 1, "1010": 1})
    return Grid.make(
        [("f", f), ("d", pin_signature())],
        [((1, 1), (0, 0)), ((1, 0), (0, 1)), ((0, 2), (0, 3))])


# -- affine engine ------------------------------------------------------------


def test_eval_affine_examples():
    g1 = Grid.make([("v", gen_diseq("01", 1, I))], [((0, 0), (0, 1))])
    assert eval_affine(g1) == ExactValue.gauss(1, 1)

    g2 = Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    assert eval_affine(g2) == V(2)

    # two pins wired head-to-head and tail-to-tail: infeasible, value 0
    g3 = Grid.make([("p", pin_signature()), ("q", pin_signature())],
                   [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    assert eval_affine(g3) == ZERO

    with pytest.raises(NonAffineVertex):
        eval_affine(Grid.make(
            [("v", gen_diseq("01", 1, 2))], [((0, 0), (0, 1))]))


def test_eval_affine_matches_brute_force():
    rng = random.Random(71)
    sigs = [rand_affine_signature(rng, rng.choice([1, 2, 3, 4])) for _ in range(8)]
    sigs = [s for s in sigs if not s.is_zero()]
    for _ in range(25):
        grid = rand_closed_grid(rng, sigs, max_vertices=4, max_edges=8)
        assert eval_affine(grid) == brute_force_partition(grid)


# -- product engine -------------------------------------------------------------


def test_eval_product_examples():
    g1 = Grid.make([("v", gen_diseq("0101", 2, 3))],
                   [((0, 0), (0, 1)), ((0, 2), (0, 3))])
    assert eval_product(g1) == V(5)

    g2 = Grid.make([("a", neq2()), ("b", neq2())],
                   [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    assert eval_product(g2) == V(2)

    g3 = Grid.make([("p", pin_signature()), ("q", pin_signature())],
                   [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    assert eval_product(g3) == ZERO

    with pytest.raises(NonProductVertex):
        eval_product(Grid.make(
            [("v", from_entries(4, {"1100": 1, "1010": 1, "1001": 1}))],
            [((0, 0), (0, 2)), ((0, 1), (0, 3))]))


@pytest.mark.parametrize("engine, error, outside", [
    (eval_affine, NonAffineVertex, gen_diseq("0011", 1, 2)),
    (eval_product, NonProductVertex, from_entries(4, {"1100": 1, "1010": 1, "1001": 1})),
], ids=["affine", "product"])
def test_first_occurrence_decides_refusal_or_zero(engine, error, outside):
    # vertices are read in order: whichever of an outside signature and a
    # zero one comes first decides, and a refusal names the first vertex
    # carrying the outside signature
    zero = from_entries(4, {})
    with pytest.raises(error, match="^vertex v1: "):
        engine(deq4_ring([diseq(4), outside, zero, outside]))
    assert engine(deq4_ring([diseq(4), zero, outside, zero])) == ZERO


def unit_deq4_ring(n):
    """Ring of n deq4 vertices weighted by seeded powers of i (affine and product)."""
    rng = random.Random(n)
    units = [ONE, I, V(-1), -I]
    return deq4_ring([from_entries(4, {"0011": rng.choice(units), "1100": rng.choice(units)})
                      for _ in range(n)])


def cut_open(grid):
    """The grid with its last two edges cut into four dangling slots."""
    return Grid.make(grid.vertices, grid.edges[:-2], [s for e in grid.edges[-2:] for s in e])


@pytest.mark.parametrize("run, make", [
    (brute_force_partition, unit_deq4_ring),
    (gate_signature, lambda n: cut_open(unit_deq4_ring(n))),
    (eval_affine, unit_deq4_ring),
    (eval_product, unit_deq4_ring),
], ids=["brute", "gate", "affine", "product"])
def test_signatures_hashed_once_per_grid(monkeypatch, run, make):
    grid = make(128)
    calls = []
    real = Signature.__hash__
    monkeypatch.setattr(Signature, "__hash__", lambda sig: calls.append(sig) or real(sig))
    first = run(grid)
    assert len(calls) <= len(grid.vertices)
    calls.clear()
    assert run(grid) == first
    assert calls == []


def test_eval_product_matches_brute_force():
    rng = random.Random(73)
    sigs = [rand_product_signature(rng, rng.choice([1, 2, 3, 4])) for _ in range(8)]
    for _ in range(25):
        grid = rand_closed_grid(rng, sigs, max_vertices=4, max_edges=8)
        assert eval_product(grid) == brute_force_partition(grid)


def test_brute_force_deep_ring_matches_product():
    grid = weighted_deq4_ring(512)
    assert len(grid.edges) == 1024
    assert brute_force_partition(grid) == eval_product(grid)


def disjoint_union(*grids):
    vertices, edges, offset = [], [], 0
    for g in grids:
        vertices += [(f"{vid}.{offset}", sig) for vid, sig in g.vertices]
        edges += [((va + offset, pa), (vb + offset, pb)) for (va, pa), (vb, pb) in g.edges]
        offset += len(g.vertices)
    return Grid.make(vertices, edges)


def test_eval_product_several_components():
    # two free rings, one group closed on itself, one group fixed by a pin
    parts = [
        weighted_deq4_ring(5),
        weighted_deq4_ring(7),
        Grid.make([("v", gen_diseq("0101", 2, 3))], [((0, 0), (0, 1)), ((0, 2), (0, 3))]),
        Grid.make([("p", pin_signature()), ("q", gen_diseq("01", 2, 3))],
                  [((0, 0), (1, 0)), ((0, 1), (1, 1))]),
    ]
    values = [eval_product(g) for g in parts]
    assert values[2:] == [V(5), V(3)]
    grid = disjoint_union(*parts)
    want = ONE
    for v in values:
        want = want * v
    assert eval_product(grid) == want == brute_force_partition(grid)


SCALES = [V(2), V(3), ExactValue.gauss(1, 1), ExactValue.gauss(2, -1), ExactValue.zeta(8, 1),
          ExactValue.zeta(8, 3) * V(2), ExactValue.zeta(8, 1) + ONE]


def scaled(sig, factor, unary=None):
    """sig times factor, and times unary[p] at every port p reading 1."""
    entries = {}
    for m, w in sig.entries.items():
        w = w * factor
        for p in range(sig.arity):
            if unary and f2.bit_at(m, p, sig.arity):
                w = w * unary[p]
        entries[m] = w
    return from_entries(sig.arity, entries)


def class_pool(rng, cls, arity):
    """Two or three distinct nonzero signatures of one arity in the class, with
    non-unit Gaussian and Q(zeta_8) weights (unary twists keep product class).
    Mostly their supports hold 0..01..1, which a ring of them can read at every
    vertex, so that not every ring is infeasible."""
    pool = []
    size = rng.choice([2, 3])
    base = (1 << arity // 2) - 1
    while len(pool) < size:
        if cls == "affine":
            sig = scaled(rand_affine_signature(rng, arity), rng.choice(SCALES))
        else:
            sig = scaled(rand_product_signature(rng, arity), rng.choice(SCALES),
                         [rng.choice(SCALES) for _ in range(arity)])
        if sig not in pool and (base in sig.entries or rng.random() < 0.2):
            pool.append(sig)
    return pool


def ring_of(rng, pool, length):
    """Ring of signatures drawn from pool: the upper half of v's ports meets the
    lower half of v+1's (a one-vertex ring closes on itself)."""
    half = pool[0].arity // 2
    sigs = [rng.choice(pool) for _ in range(length)]
    edges = [((v, half + p), ((v + 1) % length, p)) for v in range(length) for p in range(half)]
    return Grid.make([(f"v{v}", sig) for v, sig in enumerate(sigs)], edges)


@pytest.mark.parametrize("cls, engine", [("affine", eval_affine), ("product", eval_product)])
def test_engines_match_brute_force_on_repeated_signatures(cls, engine):
    rng = random.Random(89)
    heads_to_heads = Grid.make([("p", pin_signature()), ("q", pin_signature())],
                               [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    zeros = nonzeros = 0
    for _ in range(24):
        parts = []
        for _ in range(rng.randint(1, 3)):
            pool = class_pool(rng, cls, rng.choice([2, 4]))
            if pool[0].arity == 2 and rng.random() < 0.5:
                pool.append(pin_signature())
            parts.append(ring_of(rng, pool, rng.randint(1, 40)))
        if rng.random() < 0.15:
            parts.append(heads_to_heads)  # an inconsistent system: Z = 0
        grid = disjoint_union(*parts)
        got = engine(grid)
        assert got == brute_force_partition(grid)
        zeros += got.is_zero()
        nonzeros += not got.is_zero()
    assert zeros >= 3 and nonzeros >= 3


@pytest.mark.parametrize("engine", [eval_affine, eval_product])
def test_engines_multiply_once_per_distinct_factor(monkeypatch, engine):
    rng = random.Random(97)
    # weights in both classes: each ratio is a power of i
    zeta = ExactValue.zeta(8, 1)
    pool = [from_entries(4, {"0011": w, "1100": w * r}) for w, r in
            [(V(2), I), (ExactValue.gauss(1, 1), -I), (zeta, ONE), (zeta + 1, V(-1))]]
    grid = deq4_ring([rng.choice(pool) for _ in range(512)])
    assert len(grid.signature_index.distinct) == 4
    want = brute_force_partition(grid)
    calls = []
    real = ExactValue.__mul__
    monkeypatch.setattr(ExactValue, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    assert engine(grid) == want
    assert len(calls) < 200  # 1 000 or more when each vertex is one product


@pytest.mark.parametrize("cls, engine, reference", [
    ("affine", eval_affine, reference_eval_affine),
    ("product", eval_product, reference_eval_product),
], ids=["affine", "product"])
def test_engines_match_references_on_random_grids(cls, engine, reference):
    rng = random.Random(103)
    zeros = self_edges = 0
    shapes = set()  # affine: (arity, dimension); product: (has pins, has groups)
    for _ in range(300):
        grid = rand_class_grid(rng, cls)
        got = engine(grid)
        assert got == reference(grid) == brute_force_partition(grid)
        zeros += got.is_zero()
        self_edges += any(a[0] == b[0] for a, b in grid.edges)
        for sig in grid.signature_index.distinct:
            cert = membership(sig, cls)
            shapes.add((sig.arity, cert.space.dimension) if cls == "affine"
                       else (bool(cert.pins), bool(cert.groups)))
    assert 30 <= zeros <= 270 and self_edges >= 100
    if cls == "affine":
        assert {d for _, d in shapes} == set(range(6))
        assert all((n, n) in shapes for n in range(1, 6))
    else:
        assert shapes == {(False, True), (True, False), (True, True)}


@pytest.mark.parametrize("engine", [eval_affine, eval_product])
def test_engines_on_a_deep_ring(engine):
    # 20 000 weighted deq4 vertices: every vertex reads 0011 or every one 1100
    rng = random.Random(107)
    pool = [(a, a * I ** k) for a in (ONE, V(2), ExactValue.gauss(1, 1)) for k in range(4)]
    weights = [rng.choice(pool) for _ in range(20_000)]
    grid = deq4_ring([from_entries(4, {"0011": a, "1100": b}) for a, b in weights])
    prod_a = prod_b = ONE
    for a, b in weights:
        prod_a, prod_b = prod_a * a, prod_b * b
    assert engine(grid) == prod_a + prod_b


@pytest.mark.parametrize("order", [None, 5, 8], ids=["gauss", "zeta5", "zeta8"])
def test_power_product_matches_reference(order):
    # one normalization over raw numerators against one ExactValue product
    # per counted key, with and without flip, on counts 0..1000
    rng = random.Random(f"power-product:{order}")
    draw = (lambda: rand_value(rng)) if order is None else \
        (lambda: rand_cyclotomic(rng, order) + rand_value(rng, allow_i=order == 8))
    values = [draw() for _ in range(6)]
    assert _power_product(values, Counter()) == ONE
    for _ in range(40):
        counts = Counter({rng.randrange(6): rng.choice([0, 1, 2, rng.randint(3, 1000)])
                          for _ in range(rng.randint(1, 4))})
        for flip in (0, 1):
            assert _power_product(values, counts, flip) == \
                reference_power_product(values, counts, flip)


@pytest.mark.parametrize("values", [
    [ExactValue.zeta(5, 1), ExactValue.zeta(8, 1)],
    [I, ExactValue.zeta(5, 2)],
    [ExactValue.zeta(8, 1), ExactValue.zeta(12, 1)],
], ids=["zeta5-zeta8", "i-zeta5", "zeta8-zeta12"])
def test_power_product_of_mixed_orders_is_refused(values):
    counts = Counter({0: 3, 1: 2})
    with pytest.raises(FieldMismatch):
        reference_power_product(values, counts)
    with pytest.raises(FieldMismatch):
        _power_product(values, counts)


# -- metamorphic relations of Z, past brute force ------------------------------


def torus_of(rng, pool, side):
    """side x side torus of quaternaries drawn from pool, wired as dense_torus
    wires it; every vertex can read 0011 there."""
    def at(r, c):
        return (r % side) * side + c % side
    edges = [e for r in range(side) for c in range(side)
             for e in (((at(r, c), 2), (at(r, c + 1), 0)), ((at(r, c), 3), (at(r + 1, c), 1)))]
    return Grid.make([(f"v{i}", rng.choice(pool)) for i in range(side * side)], edges)


def mapped(grid, fn):
    """The grid with fn applied to every value of every vertex signature."""
    index = grid.signature_index
    new = [from_entries(sig.arity, {m: fn(v) for m, v in sig.entries.items()})
           for sig in index.distinct]
    return Grid.make([(vid, new[k]) for (vid, _), k in zip(grid.vertices, index.of_vertex)],
                     grid.edges)


def relabelled(grid, rng):
    """The same grid under new names: vertices in shuffled order, each one's
    ports permuted, every edge rewired to the permuted ports, the edges
    shuffled and each one's ends swapped at random."""
    order = list(range(len(grid.vertices)))
    rng.shuffle(order)  # order[new index] = old index
    new_index = {old: new for new, old in enumerate(order)}
    perms, permuted = [], {}
    for _, sig in grid.vertices:
        perm = list(range(sig.arity))
        rng.shuffle(perm)  # new port p reads old port perm[p]
        perms.append(perm)
        permuted.setdefault((sig, tuple(perm)), permute(sig, perm))
    vertices = [(grid.vertices[old][0], permuted[grid.vertices[old][1], tuple(perms[old])])
                for old in order]

    def slot(v, p):
        return new_index[v], perms[v].index(p)
    edges = [(slot(*b), slot(*a)) if rng.random() < 0.5 else (slot(*a), slot(*b))
             for a, b in grid.edges]
    rng.shuffle(edges)
    return Grid.make(vertices, edges)


@pytest.mark.parametrize("shape", ["ring512", "ring4096", "torus16"])
@pytest.mark.parametrize("cls, engine", [("affine", eval_affine), ("product", eval_product)],
                         ids=["affine", "product"])
def test_engine_metamorphic_relations(cls, engine, shape):
    # exact relations of Z where brute force cannot reach: scaling one vertex
    # by c scales Z by c; relabelling vertices and ports leaves Z unchanged;
    # sigma_k of every value gives sigma_k(Z) in Q(zeta_8), conjugation conj(Z)
    rng = random.Random(f"{cls}:{shape}")
    for _ in range(20):  # many affine draws sum to 0, where every relation reads 0 = 0
        pool = []
        while len(pool) < 3:  # each readable at 0011, scaled by a dense value of Q(zeta_8)
            pool += [sig.scaled(rand_cyclotomic(rng, 8)) for sig in class_pool(rng, cls, 4)
                     if 0b0011 in sig.entries]
        grid = torus_of(rng, pool, 16) if shape == "torus16" else \
            ring_of(rng, pool, int(shape[4:]))
        z = engine(grid)
        if not z.is_zero():
            break
    assert not z.is_zero() and z.ambient == 8

    v = rng.randrange(len(grid.vertices))
    c = rand_cyclotomic(rng, 8)
    assert not c.is_zero()
    assert engine(grid.with_vertex_signature(v, grid.signature_of(v).scaled(c))) == c * z
    assert engine(relabelled(grid, rng)) == z
    for k in (3, 5, 7):
        assert engine(mapped(grid, lambda x: galois(x, k))) == galois(z, k)
    assert engine(mapped(grid, ExactValue.conj)) == z.conj() == galois(z, 7)


# -- support oracle ---------------------------------------------------------------


def test_support_oracle_examples():
    g = Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    ok, witness = support_oracle(g, 0, "0011")
    assert ok
    assert witness == (0b0011,)

    grid = pinned_triple_grid()
    assert support_oracle(grid, 0, "0101")[0]
    assert not support_oracle(grid, 0, "0011")[0]

    with pytest.raises(StringNotInSupport):
        support_oracle(grid, 0, "0110")


def test_support_oracle_zero_grid():
    f = from_entries(2, {"01": 1})
    # pin against pin reversed: nothing effective
    g = Grid.make([("p", pin_signature()), ("q", pin_signature())],
                  [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    for m in (0b01,):
        assert not support_oracle(g, 0, m)[0]


def test_external_oracle_agrees():
    rng = random.Random(79)
    ext = ExternalOracle(EXTERNAL_CMD)
    exh = ExhaustiveOracle()
    sigs = [diseq(4), gen_diseq("0101", 1, 2),
            from_entries(4, {"0011": 1, "0101": 1, "1010": 1}), neq2()]
    queries = 0
    while queries < 24:
        grid = rand_closed_grid(rng, sigs, max_vertices=3, max_edges=6)
        for vidx, (vid, sig) in enumerate(grid.vertices):
            for m in sig.support()[:2]:
                got_x = exh.query(grid, vidx, m)
                got_e = ext.query(grid, vidx, m)
                assert got_x[0] == got_e[0]
                queries += 1
    assert queries >= 24


def test_witnesses_are_valid_assignments():
    rng = random.Random(83)
    sigs = [diseq(4), neq2(), gen_diseq("0101", 1, 2)]
    for _ in range(6):
        grid = rand_closed_grid(rng, sigs, max_vertices=3, max_edges=6)
        for vidx, (vid, sig) in enumerate(grid.vertices):
            for m in sig.support():
                ok, witness = support_oracle(grid, vidx, m)
                if ok:
                    assert_valid_witness(grid, vidx, m, witness)


def test_exhaustive_oracle_deep_ring():
    grid = weighted_deq4_ring(512)
    oracle = ExhaustiveOracle()
    for vidx, m in ((0, 0b0011), (300, 0b1100)):
        ok, witness = oracle.query(grid, vidx, m)
        assert ok
        assert_valid_witness(grid, vidx, m, witness)


def test_exhaustive_oracle_matches_naive_reference():
    # the grids of test_grids.py::test_contraction_matches_naive_reference
    # (self-loops and arity-0 vertices included); two grids at a time share
    # one oracle, queried in a shuffled order, so its cache is rebuilt at
    # every switch between them
    rng = random.Random(101)
    oracle = ExhaustiveOracle()
    closed = [g for g in (rand_wired_grid(rng) for _ in range(300)) if g.is_closed]
    assert any(sig.arity == 0 for g in closed for _, sig in g.vertices)
    assert any(a[0] == b[0] for g in closed for a, b in g.edges)
    hit_at = set()
    for pair in zip(closed[::2], closed[1::2]):
        queries = []
        for grid in pair:
            _, reached = enumerate_reference(grid)
            order = [v for v, _, _ in grids.plan_contraction(grid).steps]
            for vidx, (_, sig) in enumerate(grid.vertices):
                step = order.index(vidx)
                where = "first" if step == 0 else "last" if step == len(order) - 1 else "middle"
                queries += [(grid, vidx, m, m in reached[vidx], where) for m in sig.support()]
        rng.shuffle(queries)
        for grid, vidx, m, want, where in queries:
            ok, witness = oracle.query(grid, vidx, m)
            assert ok == want
            if ok:
                assert_valid_witness(grid, vidx, m, witness)
                hit_at.add(where)
    assert hit_at == {"first", "middle", "last"}


def test_exhaustive_oracle_cap(monkeypatch):
    # the forward pass reads both strings at each of the four steps, so it
    # writes two frontier entries per step
    grid = weighted_deq4_ring(4)
    monkeypatch.setattr(grids, "DEFAULT_OP_CAP", 8)
    assert ExhaustiveOracle().query(grid, 0, 0b0011)[0]
    monkeypatch.setattr(grids, "DEFAULT_OP_CAP", 7)
    with pytest.raises(BruteForceCapExceeded, match="contraction"):
        ExhaustiveOracle().query(grid, 0, 0b0011)


def test_exhaustive_oracle_rejects_an_invalid_grid():
    # port 4 of the second vertex is neither wired nor dangling
    grid = Grid.make([("a", diseq(4)), ("b", diseq(4))],
                     [((0, p), (1, p)) for p in range(3)], [(0, 3)])
    with pytest.raises(InvalidGrid, match="PortCountMismatch"):
        ExhaustiveOracle().query(grid, 0, 0b0011)


def test_exhaustive_oracle_cap_leaves_nothing_cached(monkeypatch):
    grid = weighted_deq4_ring(4)
    oracle = ExhaustiveOracle()
    monkeypatch.setattr(grids, "DEFAULT_OP_CAP", 7)
    for vidx, m in ((0, 0b0011), (1, 0b1100)):
        with pytest.raises(BruteForceCapExceeded, match="contraction"):
            oracle.query(grid, vidx, m)
    monkeypatch.setattr(grids, "DEFAULT_OP_CAP", 8)
    ok, witness = oracle.query(grid, 1, 0b1100)
    assert ok
    assert_valid_witness(grid, 1, 0b1100, witness)


def test_exhaustive_oracle_one_pass_per_grid(monkeypatch):
    calls = {"plan": 0, "pass": 0}
    plan, run = tractable.plan_contraction, tractable.frontier_pass

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(tractable, "plan_contraction", counted("plan", plan))
    monkeypatch.setattr(tractable, "frontier_pass", counted("pass", run))
    grid = weighted_deq4_ring(16)
    effective = effective_support(grid)
    assert all(len(eff) == 2 for eff in effective)
    assert calls == {"plan": 1, "pass": 1}


def test_exhaustive_fpnp_long_ring():
    # weights a and a * i^k keep every vertex affine
    rng = random.Random(1024)
    a = b = ONE
    sigs = []
    for _ in range(1024):
        wa = rng.choice([ONE, V(2), I])
        wb = wa * I ** rng.randrange(4)
        sigs.append(from_entries(4, {"0011": wa, "1100": wb}))
        a, b = a * wa, b * wb
    grid = deq4_ring(sigs)
    got = eval_fpnp(grid, "affine", ExhaustiveOracle())
    assert got == a + b == eval_affine(grid)


def test_exhaustive_oracle_default_cap():
    # a dense 10 x 10 torus needs about 2^25 frontier entries; the default cap
    # stops the query, whose parent pointers are all kept, well before that
    grid = dense_torus(10, random.Random(0))
    with pytest.raises(BruteForceCapExceeded, match="contraction"):
        ExhaustiveOracle().query(grid, 0, 0b0011)


@pytest.mark.parametrize("answer", [
    "SAT 1 -2",   # the vertex reads 1001, outside the support of diseq(4)
    "SAT 1 2",    # the vertex reads 1100, not the queried 0011
])
def test_external_oracle_rejects_forged_witness(answer):
    g = Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    forger = ExternalOracle([sys.executable, "-c", f"print({answer!r})"])
    with pytest.raises(OracleProtocolError):
        forger.query(g, 0, 0b0011)


# -- pruning ----------------------------------------------------------------------


def test_external_oracle_nonzero_exit():
    grid = Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    oracle = ExternalOracle([sys.executable, "-c", "print('UNSAT'); raise SystemExit(3)"])
    with pytest.raises(OracleProtocolError, match="exited with code 3"):
        oracle.query(grid, 0, 0b0011)


class FalseUnsat(ExhaustiveOracle):
    """Answers UNSAT for one (vertex, string) pair, truthfully otherwise."""

    name = "false-unsat"

    def __init__(self, vertex, mask):
        self.lie = (vertex, mask)

    def query(self, grid, vertex, mask):
        if (vertex, mask) == self.lie:
            return False, None
        return super().query(grid, vertex, mask)


def test_false_unsat_alarm():
    grid = Grid.make([(f"v{v}", diseq(4)) for v in range(4)],
                     [((v, 2 + p), ((v + 1) % 4, p)) for v in range(4) for p in range(2)])
    assert brute_force_partition(grid) == V(2)
    with pytest.raises(OracleProtocolError, match="UNSAT for 1100 at vertex v0"):
        eval_fpnp(grid, "affine", FalseUnsat(0, 0b1100))


class CountingOracle(ExhaustiveOracle):
    def __init__(self):
        self.queries = 0

    def query(self, grid, vertex, mask):
        self.queries += 1
        return super().query(grid, vertex, mask)


def test_witnesses_cover_later_queries():
    # the witnesses of the two strings at v0 realize both strings everywhere
    grid = deq4_ring([diseq(4)] * 64)
    oracle = CountingOracle()
    effective = effective_support(grid, oracle)
    assert all(eff == {0b0011, 0b1100} for eff in effective)
    assert oracle.queries == 2


def test_unsat_vertex_ends_the_queries():
    # pins joined port to port give both ends of an edge the same bit: the
    # first vertex has no effective string, so no assignment does and
    # nothing more is queried
    grid = Grid.make([(f"p{v}", pin_signature()) for v in range(4)],
                     [((v, p), (v + 1, p)) for v in (0, 2) for p in range(2)])
    oracle = CountingOracle()
    effective = effective_support(grid, oracle)
    assert effective == [set()] * 4
    assert oracle.queries == 1
    assert brute_force_partition(prune_effective(grid)) == brute_force_partition(grid) == ZERO


def test_prune_effective_example():
    grid = pinned_triple_grid()
    pruned = prune_effective(grid)
    assert pruned.signature_of(0).support_strings() == ("0101",)
    assert brute_force_partition(pruned) == brute_force_partition(grid)


def test_prune_noop_when_everything_effective():
    g = Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    assert prune_effective(g) == g


def test_prune_zero_grid_empties_supports():
    g = Grid.make([("p", pin_signature()), ("q", pin_signature())],
                  [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    pruned = prune_effective(g)
    assert all(sig.is_zero() for _, sig in pruned.vertices)


def test_prune_preserves_z_random():
    rng = random.Random(89)
    for _ in range(15):
        sigs = [rand_eo_signature(rng, rng.choice([2, 4]), nonzero=True)
                for _ in range(3)]
        grid = rand_closed_grid(rng, sigs, max_vertices=4, max_edges=7)
        assert brute_force_partition(prune_effective(grid)) == \
            brute_force_partition(grid)


def test_prune_builds_the_grid_of_per_vertex_replacements():
    # a ring on which 0101 is ineffective at every vertex, among others
    rng = random.Random(109)
    sig = from_entries(4, {"1100": 1, "0011": 1, "0101": 1})
    grids = [deq4_ring([sig] * 6)]
    for _ in range(10):
        sigs = [rand_eo_signature(rng, rng.choice([2, 4]), nonzero=True) for _ in range(3)]
        grids.append(rand_closed_grid(rng, sigs, max_vertices=4, max_edges=7))
    changed = 0
    for grid in grids:
        want = grid
        for vidx, keep in enumerate(effective_support(grid)):
            old = grid.signature_of(vidx)
            if len(keep) < len(old.entries):
                changed += 1
                want = want.with_vertex_signature(
                    vidx, from_entries(old.arity, {m: old.entries[m] for m in keep}, old.name))
        got = prune_effective(grid)
        assert got == want
        assert [s.name for _, s in got.vertices] == [s.name for _, s in want.vertices]
    assert changed >= 10


# -- oracle-assisted pipeline ---------------------------------------------------


def test_eval_fpnp_m_delta1():
    rng = random.Random(97)
    f = from_entries(4, {"1100": 1, "1010": 1, "1001": 2})
    count = 0
    while count < 8:
        grid = rand_closed_grid(rng, [f], max_vertices=4, max_edges=8)
        got = eval_fpnp(grid, "product")
        assert got == brute_force_partition(grid)
        count += 1


def test_eval_fpnp_diseq_set():
    rng = random.Random(101)
    sigs = [diseq(4), gen_diseq("010101", 2, 3)]
    for _ in range(6):
        grid = rand_closed_grid(rng, sigs, max_vertices=3, max_edges=9)
        assert eval_fpnp(grid, "product") == brute_force_partition(grid)


def test_effective_triples_stay_one_sided():
    # in an all-heavy-triples grid, three effective strings at one vertex
    # never xor into a strictly heavy string, and when the xor stays in the
    # support it is itself effective
    rng = random.Random(107)
    f = from_entries(4, {"1100": 1, "1010": 1, "1001": 2})
    for _ in range(6):
        grid = rand_closed_grid(rng, [f], max_vertices=4, max_edges=8)
        effective = effective_support(grid)
        for vidx, (vid, sig) in enumerate(grid.vertices):
            eff = sorted(effective[vidx])
            supp = set(sig.support())
            for a in eff:
                for b in eff:
                    for c in eff:
                        d = a ^ b ^ c
                        assert f2.weight_excess(d, sig.arity) <= 0
                        if d in supp:
                            assert d in eff


def test_eval_fpnp_precondition_errors():
    gap = from_entries(4, {"0011": 1, "0101": 1, "1010": 1})
    grid = Grid.make([("v", gap)], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    with pytest.raises(PreconditionViolated):
        eval_fpnp(grid, "product")

    unbalanced = from_entries(2, {"11": 1})
    g2 = Grid.make([("v", unbalanced)], [((0, 0), (0, 1))])
    with pytest.raises(PreconditionViolated):
        eval_fpnp(g2, "product")


def test_eval_fpnp_refuses_a_two_sided_set():
    # m-delta1 has only heavy triples and its dual only light ones
    f = from_entries(4, {"1100": 1, "1010": 1, "1001": 1})
    grid = Grid.make([("a", f), ("b", dual(f))], [((0, p), (1, p)) for p in range(4)])
    with pytest.raises(PreconditionViolated, match="not one-sided for triples"):
        eval_fpnp(grid, "product")


def test_eval_fpnp_refuses_a_failed_pairing_test():
    # the weight 2 leaves a restriction whose values are not i-powers of one scale
    f = from_entries(4, {"1100": 1, "1010": 1, "1001": 2})
    grid = Grid.make([("a", f), ("b", f)],
                     [((0, 2), (1, 0)), ((0, 3), (1, 1)),
                      ((1, 2), (0, 0)), ((1, 3), (0, 1))])
    with pytest.raises(PreconditionViolated, match="fails the affine pairing test"):
        eval_fpnp(grid, "affine")


def test_eval_fpnp_of_a_zero_signature_is_zero():
    # a zero vertex gives every assignment weight 0: no engine runs, no query
    class Unqueried:
        def query(self, grid, vertex, mask):
            raise AssertionError("queried")

    grid = Grid.make([("a", diseq(4)), ("z", Signature(4, {}))],
                     [((0, p), (1, p)) for p in range(4)])
    assert brute_force_partition(grid) == ZERO
    for hint in ("affine", "product"):
        assert eval_fpnp(grid, hint, Unqueried()) == ZERO


class EverythingEffective:
    """A lying backend: every queried string is effective."""

    name = "liar"

    def query(self, grid, vertex, mask):
        return True, None


def test_eval_fpnp_alarm_on_unpruned_occurrence():
    # m-delta1 passes every pairing test but is not itself product-class, so
    # an oracle that prunes nothing leaves the engine a non-product vertex
    f = from_entries(4, {"1100": 1, "1010": 1, "1001": 2})
    grid = Grid.make([("a", f), ("b", f)],
                     [((0, 2), (1, 0)), ((0, 3), (1, 1)),
                      ((1, 2), (0, 0)), ((1, 3), (0, 1))])
    with pytest.raises(PreconditionViolated, match="soundness alarm"):
        eval_fpnp(grid, "product", EverythingEffective())


# -- pin interpolation ------------------------------------------------------------


def loop_pin_grid(f, reversed_pin=False):
    """f with its first two ports pinned through a pin vertex, rest looped."""
    edges = [((1, 1), (0, 0)), ((1, 0), (0, 1))] if not reversed_pin else \
        [((1, 0), (0, 0)), ((1, 1), (0, 1))]
    extra = [((0, p), (0, p + 1)) for p in range(2, f.arity - 1, 2)]
    return Grid.make([("f", f), ("d", pin_signature())], edges + extra)


def test_eval_fpnp_validates_once(monkeypatch):
    calls = []
    validate = grids.validate
    monkeypatch.setattr(grids, "validate", lambda g: calls.append(g) or validate(g))
    grid = deq4_ring([diseq(4)] * 4)
    assert eval_fpnp(grid, "affine") == V(2)
    assert len(calls) == 1 and calls[0] is grid
    for public in (effective_support, prune_effective, eval_affine, eval_product):
        grid = deq4_ring([diseq(4)] * 4)
        before = len(calls)
        public(grid)
        public(grid)
        assert len(calls) == before + 1 and calls[-1] is grid
    assert len({id(g) for g in calls}) == len(calls)


def test_eval_fpnp_goes_through_public_names(monkeypatch):
    # the pipeline's prune and engine calls stay visible to wrappers of the
    # module's public names
    seen = []

    def counting(name):
        real = getattr(tractable, name)
        return lambda *args: seen.append(name) or real(*args)

    for name in ("prune_effective", "eval_affine", "eval_product"):
        monkeypatch.setattr(tractable, name, counting(name))
    grid = deq4_ring([diseq(4)] * 4)
    assert eval_fpnp(grid, "affine") == V(2)
    assert seen == ["prune_effective", "eval_affine"]
    seen.clear()
    assert eval_fpnp(grid, "product") == V(2)
    assert seen == ["prune_effective", "eval_product"]


def test_unbalanced_replacement_of_validated_grid_is_rejected():
    grid = deq4_ring([diseq(4)] * 4)
    assert eval_fpnp(grid, "affine") == V(2)
    bad = grid.with_vertex_signature(1, from_entries(4, {"0111": 1, "0011": 1}))
    with pytest.raises(PreconditionViolated, match="unbalanced support"):
        eval_fpnp(bad, "affine")


def test_interpolate_delta_example():
    grid = loop_pin_grid(gen_diseq("0101", 1, 1))
    direct = brute_force_partition(grid)
    assert direct == V(1)
    assert interpolate_delta(grid, V(2)) == direct


def test_interpolate_delta_reversed_orientation():
    grid = loop_pin_grid(gen_diseq("0101", 1, 1), reversed_pin=True)
    assert interpolate_delta(grid, V(2)) == brute_force_partition(grid)


def test_interpolate_delta_no_pin_passthrough():
    g = Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    assert interpolate_delta(g, V(2)) == V(2)


def test_interpolate_delta_rejects_roots():
    grid = loop_pin_grid(gen_diseq("0101", 1, 1))
    with pytest.raises(NotInterpolatable):
        interpolate_delta(grid, I)
    with pytest.raises(NotInterpolatable):
        interpolate_delta(grid, ZERO)


def test_interpolate_delta_three_pins_zeta8():
    rng = random.Random(28)
    z8 = [from_entries(4, {m: rand_cyclotomic(rng, 8) for m in ("0011", "0101", "1010", "1100")})
          for _ in range(2)]
    done = 0
    while done < 3:
        grid = rand_closed_grid(rng, z8 + [pin_signature()], max_vertices=6, max_edges=8)
        want = brute_force_partition(grid)
        if sum(sig == pin_signature() for _, sig in grid.vertices) == 3 and not want.is_zero():
            assert interpolate_delta(grid, ONE + ExactValue.zeta(8, 1)) == want
            done += 1


def test_constant_term_matches_vandermonde_reference():
    rng = random.Random(28)
    for draw in (rand_value, lambda r: rand_cyclotomic(r, 8)):
        for m in range(1, 7):
            for _ in range(4):
                nodes = []
                while len(nodes) < m:
                    x = draw(rng)
                    if x not in nodes:
                        nodes.append(x)
                values = [draw(rng) for _ in nodes]
                want = reference_vandermonde_solve(nodes, values)[0]
                assert tractable._constant_term(nodes, values) == want


def test_chain_power():
    x = V(3)
    for j in (1, 2, 3, 4):
        assert chain_power(x, j) == BinaryDiseq(ONE, x ** j).as_signature()


def test_interpolate_delta_random():
    rng = random.Random(103)
    sigs = [rand_eo_signature(rng, 4, nonzero=True) for _ in range(3)] + \
        [pin_signature()]
    done = 0
    while done < 10:
        grid = rand_closed_grid(rng, sigs, max_vertices=4, max_edges=8)
        npins = len([1 for _, s in grid.vertices if s == pin_signature()])
        if not 1 <= npins <= 3:
            continue
        assert interpolate_delta(grid, V(2)) == brute_force_partition(grid)
        done += 1


# -- single-pin reduction -----------------------------------------------------------


def test_reduce_single_delta_dual_symmetric():
    f = diseq(4)
    grid = Grid.make([("f", f), ("d", pin_signature())],
                     [((1, 1), (0, 0)), ((1, 0), (0, 2)), ((0, 1), (0, 3))])
    want = brute_force_partition(grid)
    assert reduce_single_delta(grid) == want
    # and the halving shortcut applies: replacing the pin doubles
    z3 = brute_force_partition(grid.with_vertex_signature(1, neq2()))
    assert z3 == want * 2


def test_reduce_single_delta_asymmetric():
    f = gen_diseq("0101", 1, 2)
    grid = loop_pin_grid(f)
    assert reduce_single_delta(grid) == brute_force_partition(grid)


def test_reduce_single_delta_zero():
    f = diseq(4)
    # pin wired so that both orientations miss the support
    grid = Grid.make([("f", f), ("d", pin_signature())],
                     [((1, 0), (0, 0)), ((1, 1), (0, 1)), ((0, 2), (0, 3))])
    assert brute_force_partition(grid) == ZERO
    assert reduce_single_delta(grid) == ZERO


def test_reduce_single_delta_wrong_pin_count():
    g = Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    with pytest.raises(Exception):
        reduce_single_delta(g)


def test_reduce_single_delta_gate_search_exhaustion():
    grid = loop_pin_grid(gen_diseq("0101", 1, 2))
    with pytest.raises(NoAsymmetricGateFound):
        reduce_single_delta(grid, gate_vertex_cap=0)


def test_eval_fpnp_affine_hint():
    rng = random.Random(109)
    sigs = [diseq(4), gen_diseq("0101", 1, I)]
    for _ in range(5):
        grid = rand_closed_grid(rng, sigs, max_vertices=3, max_edges=8)
        assert eval_fpnp(grid, "affine") == brute_force_partition(grid)


# -- pin duplication gadget ----------------------------------------------------------


def test_realize_delta_copies():
    pin = pin_signature()
    for k in (1, 2, 3):
        gate = gate_signature(realize_delta_copies(k))
        want = pin
        for _ in range(k - 1):
            want = tensor(want, pin)
        assert gate == want
