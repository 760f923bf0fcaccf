import copy
import dataclasses
import random
import re
from fractions import Fraction

import pytest

from eoexact.errors import (
    BruteForceCapExceeded,
    ClosedGridError,
    FieldMismatch,
    GridFormatError,
    InvalidGrid,
    LiteralSyntaxError,
    OpenGridError,
)
from eoexact import grids, tractable
from eoexact.grids import (
    Grid,
    brute_force_partition,
    frontier_pass,
    gate_signature,
    load_grid_file,
    parse_grid_text,
    plan_contraction,
    render_grid_text,
    validate,
)
from eoexact.signatures import (
    Signature,
    diseq,
    from_entries,
    gen_diseq,
    neq2,
    pin_signature,
    self_loop,
    tensor,
)
from eoexact.values import ExactValue, FieldMode, I, ONE, RawArm, ZERO
from tests_helpers import (
    dense_torus,
    enumerate_reference,
    join_gates,
    rand_cyclotomic,
    rand_long_value,
    rand_nonzero_value,
    rand_value,
    rand_wired_grid,
    reference_plan_contraction,
    reweighted,
    signature_matrix,
)

V = ExactValue.rational


def closed_diseq4_grid():
    return Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])


def test_validate_examples():
    diag = validate(closed_diseq4_grid())
    assert diag.ok and diag.closed and diag.all_eo

    bad = Grid.make([("v", diseq(4))], [((0, 0), (0, 2))], [(0, 1)])
    d2 = validate(bad)
    assert not d2.ok
    assert any("3 ports wired" in msg or "ports wired" in msg for msg in d2.issues)

    open_ok = Grid.make([("v", diseq(4))], [((0, 0), (0, 2))], [(0, 1), (0, 3)])
    d3 = validate(open_ok)
    assert d3.ok and not d3.closed


@pytest.mark.parametrize("edges, dangling, issue", [
    ([((0, 0), (0, 0)), ((0, 1), (0, 3))], [(0, 2)], "edge 0 connects a slot to itself"),
    ([((0, 0), (0, 2)), ((0, 1), (3, 0))], [(0, 3)], "slot (3, 0): no such vertex"),
    ([((0, 0), (0, 2)), ((0, 1), (0, 3))], [(0, 7)], "slot (0, 7): port out of range for arity 4"),
    ([((0, 0), (0, 2)), ((0, 1), (0, 3))], [(0, 1)], "slot (0, 1): used 2 times"),
])
def test_validate_reports_each_issue(edges, dangling, issue):
    diag = validate(Grid.make([("v", diseq(4))], edges, dangling))
    assert not diag.ok and issue in diag.issues


def test_cached_diagnostics_leave_equality_alone():
    checked, fresh = closed_diseq4_grid(), closed_diseq4_grid()
    assert checked.diagnostics.ok
    assert checked.signature_index.distinct == (diseq(4),)
    assert checked == fresh and hash(checked) == hash(fresh)
    assert repr(checked) == repr(fresh)
    assert not checked == 1 and checked != diseq(4)


def test_signature_index():
    # first-seen order, equal signatures shared whatever their names, kept
    # on the grid, and built afresh for a grid with a replaced vertex
    a, b = diseq(4), gen_diseq("0011", 1, 2)
    grid = Grid.make([("x", b), ("y", a), ("z", b), ("w", a.with_name("other"))])
    index = grid.signature_index
    assert index == ((b, a), (0, 1, 0, 1)) and index.distinct[1] is a
    assert grid.signature_index is index
    swapped = grid.with_vertex_signature(0, a)
    assert swapped.signature_index == ((a, b), (0, 0, 1, 0))
    assert grid.signature_index is index


def test_bad_wiring_raises_on_every_call():
    bad = Grid.make([("v", diseq(4))], [((0, 0), (0, 2))], [(0, 1)])
    for _ in range(2):
        with pytest.raises(InvalidGrid, match="ports wired"):
            brute_force_partition(bad)


def test_diagnostics_are_frozen():
    diag = validate(closed_diseq4_grid())
    with pytest.raises(dataclasses.FrozenInstanceError):
        diag.ok = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        diag.issues = ("edge 0 connects a slot to itself",)
    assert diag.issues == ()


def test_brute_force_examples():
    assert brute_force_partition(closed_diseq4_grid()) == V(2)

    loop = Grid.make([("v", neq2())], [((0, 0), (0, 1))])
    assert brute_force_partition(loop) == V(2)

    g = Grid.make([("v", gen_diseq("0101", 1, I))],
                  [((0, 0), (0, 1)), ((0, 2), (0, 3))])
    assert brute_force_partition(g) == ExactValue.gauss(1, 1)

    with pytest.raises(OpenGridError):
        brute_force_partition(Grid.make([("v", neq2())], [], [(0, 0), (0, 1)]))


def test_gate_signature_basics():
    # a single vertex with no internal edges is the signature itself
    f = gen_diseq("0101", 2, 3)
    g = Grid.make([("v", f)], [], [(0, p) for p in range(4)])
    assert gate_signature(g) == f

    with pytest.raises(ClosedGridError):
        gate_signature(closed_diseq4_grid())


def test_gate_two_copies_joined():
    # two copies of a generalized disequality joined pairwise on ports 3,4
    f = gen_diseq("0101", 2, 3)
    g = Grid.make([("f", f), ("g", f)],
                  [((0, 2), (1, 2)), ((0, 3), (1, 3))],
                  [(0, 0), (0, 1), (1, 0), (1, 1)])
    got = gate_signature(g)
    ab = V(6)
    assert got == from_entries(4, {"0110": ab, "1001": ab})
    # a (scaled) generalized disequality with equal values on complementary strings
    supp = got.support()
    assert len(supp) == 2 and supp[0] ^ supp[1] == 0b1111
    assert got.value(supp[0]) == got.value(supp[1])


def test_gate_chain_squares_parameter():
    r = V(5)
    f = gen_diseq("01", 1, 5)
    chain = Grid.make([("a", f), ("b", f)], [((0, 1), (1, 0))], [(0, 0), (1, 1)])
    got = gate_signature(chain)
    assert got == from_entries(2, {"01": ONE, "10": V(25)})


def test_gate_loop_with_dangling_ports_matches_self_loop():
    # the internal edge and the dangling ports share the one vertex
    rng = random.Random(29)
    from tests_helpers import rand_eo_signature
    for _ in range(6):
        f = rand_eo_signature(rng, 6)
        i, j = rng.sample(range(6), 2)
        rest = [p for p in range(6) if p not in (i, j)]
        grid = Grid.make([("v", f)], [((0, i), (0, j))], [(0, p) for p in rest])
        assert gate_signature(grid) == self_loop(f, min(i, j), max(i, j))


def test_matrix_composition_law():
    rng = random.Random(13)
    from tests_helpers import rand_eo_signature  # local helper module
    for _ in range(6):
        f = rand_eo_signature(rng, 4)
        g = rand_eo_signature(rng, 4)
        l = rng.choice([1, 2])
        joined = join_gates(f, g, l)
        h = gate_signature(joined)
        mf = signature_matrix(f, f.arity - l)
        mg = signature_matrix(g, l)
        # D = l-fold tensor of the binary disequality matrix (anti-diagonal)
        dim = 1 << l
        full = dim - 1
        rows = len(mf)
        cols = len(mg[0])
        expect = [[ZERO for _ in range(cols)] for _ in range(rows)]
        for rr in range(rows):
            for cc in range(cols):
                acc = ZERO
                for t in range(dim):
                    acc = acc + mf[rr][t] * mg[t ^ full][cc]
                expect[rr][cc] = acc
        got = signature_matrix(h, f.arity - l)
        assert got == expect


def test_gate_then_close_matches_brute_force():
    rng = random.Random(17)
    from tests_helpers import rand_eo_signature
    for _ in range(6):
        f = rand_eo_signature(rng, 4)
        g = rand_eo_signature(rng, 4)
        open_grid = Grid.make([("f", f), ("g", g)],
                              [((0, 0), (1, 0)), ((0, 1), (1, 1))],
                              [(0, 2), (0, 3), (1, 2), (1, 3)])
        gate = gate_signature(open_grid)
        closed_gate = Grid.make([("h", gate)], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
        closed_full = Grid.make([("f", f), ("g", g)],
                                [((0, 0), (1, 0)), ((0, 1), (1, 1)),
                                 ((0, 2), (1, 2)), ((0, 3), (1, 3))])
        assert brute_force_partition(closed_gate) == brute_force_partition(closed_full)


def test_relabeling_invariance():
    rng = random.Random(23)
    from tests_helpers import rand_eo_signature
    f = rand_eo_signature(rng, 4)
    g = rand_eo_signature(rng, 4)
    base = Grid.make([("a", f), ("b", g)],
                     [((0, 0), (1, 3)), ((0, 1), (1, 2)),
                      ((0, 2), (1, 1)), ((0, 3), (1, 0))])
    flipped = Grid.make([("b", g), ("a", f)],
                        [((0, 3), (1, 0)), ((0, 2), (1, 1)),
                         ((1, 2), (0, 1)), ((1, 3), (0, 0))])
    assert brute_force_partition(base) == brute_force_partition(flipped)


def test_unbalanced_assignments_contribute_zero():
    # all-EO grid: Z over balanced-per-vertex assignments equals Z over all
    # edge-consistent assignments, because unbalanced local strings value 0
    g = Grid.make([("v", diseq(4))], [((0, 0), (0, 1)), ((0, 2), (0, 3))])
    assert brute_force_partition(g) == ZERO


def test_brute_force_cap(monkeypatch):
    grid = closed_diseq4_grid()
    monkeypatch.setattr(grids, "DEFAULT_OP_CAP", 1)
    with pytest.raises(BruteForceCapExceeded):
        brute_force_partition(grid)


def test_gate_cap(monkeypatch):
    # closing the self-loop writes one frontier entry per support string
    grid = Grid.make([("v", diseq(4))], [((0, 0), (0, 2))], [(0, 1), (0, 3)])
    monkeypatch.setattr(grids, "DEFAULT_OP_CAP", 2)
    assert gate_signature(grid) == self_loop(diseq(4), 0, 2)
    monkeypatch.setattr(grids, "DEFAULT_OP_CAP", 1)
    with pytest.raises(BruteForceCapExceeded, match="contraction"):
        gate_signature(grid)


def test_contraction_matches_naive_reference():
    rng = random.Random(101)
    for _ in range(300):
        grid = rand_wired_grid(rng)
        gate, _ = enumerate_reference(grid)
        if grid.is_closed:
            assert brute_force_partition(grid) == gate.value(0)
        else:
            assert gate_signature(grid) == gate


def _fractional(rng):
    return ExactValue.gauss(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 12])),
                            Fraction(rng.randint(-9, 9), rng.choice([1, 4, 9])))


@pytest.mark.parametrize("draw", [
    lambda rng: rand_cyclotomic(rng, 8),
    lambda rng: rand_cyclotomic(rng, 5),
    lambda rng: rand_cyclotomic(rng, 8) if rng.random() < 0.5 else rand_value(rng),
    _fractional,
], ids=["zeta8", "zeta5", "zeta8-gauss", "fractional"])
def test_raw_contraction_matches_naive_reference(draw):
    # the contraction carries int numerators over one denominator per
    # signature; the reference multiplies ExactValues assignment by assignment
    rng = random.Random(103)
    kinds = set()  # (ambient, has an imaginary part) of every nonzero gate entry
    for _ in range(150):
        grid = reweighted(rand_wired_grid(rng), rng, draw)
        gate, _ = enumerate_reference(grid)
        if grid.is_closed:
            assert brute_force_partition(grid) == gate.value(0)
        else:
            assert gate_signature(grid) == gate
        kinds |= {(v.ambient, v.is_gaussian and v.gauss_parts()[1] != 0)
                  for v in gate.entries.values()}
    assert len(kinds) >= 2


def test_contraction_answers_in_the_common_field():
    # Q(zeta_8) lies in Q(zeta_16), so the pass runs in Q(zeta_16) and every
    # entry comes back in that form (or Gaussian); the reference leaves a
    # product of zeta_8 weights alone in Q(zeta_8) form, and values in
    # different ambient fields compare unequal, so compare the numbers
    rng = random.Random(107)
    for _ in range(100):
        grid = reweighted(rand_wired_grid(rng), rng,
                          lambda r: rand_cyclotomic(r, r.choice([8, 16])))
        want, _ = enumerate_reference(grid)
        if grid.is_closed:
            got = Signature(0, {0: brute_force_partition(grid)})
        else:
            got = gate_signature(grid)
        common = max((w.ambient or 0 for _, sig in grid.vertices
                      for w in sig.entries.values()), default=0)
        assert got.support() == want.support()
        for m, v in got.entries.items():
            assert (v - want.value(m)).is_zero()
            assert v.ambient in (None, common)


def test_contraction_fields_must_meet():
    # Q(zeta_5) does not contain i
    f = from_entries(2, {"01": ExactValue.zeta(5), "10": 1})
    g = from_entries(2, {"01": 1, "10": I})
    grid = Grid.make([("f", f), ("g", g)], [((0, 0), (1, 0)), ((0, 1), (1, 1))])
    with pytest.raises(FieldMismatch):
        brute_force_partition(grid)


def test_plan_places_smaller_support_first_on_ties():
    dense = from_entries(4, {m: 1 for m in (3, 5, 6, 9, 10, 12)})
    grid = Grid.make([("a", dense), ("b", diseq(4))],
                     [((0, p), (1, p)) for p in range(4)])
    assert [v for v, _, _ in plan_contraction(grid).steps] == [1, 0]
    # a one-string binary goes first; then both neighbours have one edge to it
    pin = from_entries(2, {"01": 1})
    grid = Grid.make([("c", pin), ("a", dense), ("b", diseq(4))],
                     [((0, 0), (1, 0)), ((0, 1), (2, 0))] +
                     [((1, p), (2, p)) for p in range(1, 4)])
    assert [v for v, _, _ in plan_contraction(grid).steps] == [0, 2, 1]


def test_cap_error_names_the_plan_width(monkeypatch):
    # the two edges back to the first vertex stay open beside the two to the next
    ring = Grid.make([(f"v{v}", diseq(4)) for v in range(6)],
                     [((v, 2 + p), ((v + 1) % 6, p)) for v in range(6) for p in range(2)])
    assert plan_contraction(ring).width == 4
    monkeypatch.setattr(grids, "DEFAULT_OP_CAP", 3)
    with pytest.raises(BruteForceCapExceeded, match="contraction.* opens 4 frontier bits"):
        brute_force_partition(ring)


def ring(sigs):
    """Ring of arity-2h signatures: the last h ports of v meet the first h of v+1."""
    n, h = len(sigs), sigs[0].arity // 2
    return Grid.make([(f"v{v}", s) for v, s in enumerate(sigs)],
                     [((v, h + p), ((v + 1) % n, p)) for v in range(n) for p in range(h)])


def loop_closed(rng, arity, dangling):
    """A dense balanced base whose other ports are closed in pairs, each
    through one binary loop vertex."""
    base = from_entries(arity, {m: rand_nonzero_value(rng) for m in range(1 << arity)
                                if 2 * bin(m).count("1") == arity})
    ports = list(range(arity))
    rng.shuffle(ports)
    verts, edges = [("f", base)], []
    for t in range((arity - dangling) // 2):
        verts.append((f"w{t}", from_entries(2, {"01": 1, "10": rand_nonzero_value(rng)})))
        edges += [((0, ports[2 * t]), (t + 1, 1)), ((0, ports[2 * t + 1]), (t + 1, 0))]
    return Grid.make(verts, edges, [(0, p) for p in sorted(ports[arity - dangling:])])


def planner_inputs():
    """Seeded wired grids (self-loops, dangling ports, arity-0 vertices and
    zero signatures among them), dense tori, weighted deq4 rings and loop
    gadget shapes."""
    grids_ = [rand_wired_grid(random.Random(seed), max_vertices=7) for seed in range(2000)]
    grids_ += [dense_torus(side, random.Random(side)) for side in range(3, 8)]
    rng = random.Random(22)
    for n in (1, 2, 3, 16, 64, 512):
        pool = [gen_diseq("1100", rand_nonzero_value(rng), rand_nonzero_value(rng))
                for _ in range(3)]
        grids_.append(ring([rng.choice(pool) for _ in range(n)]))
    for arity, dangling in ((4, 0), (6, 0), (6, 2), (6, 4), (8, 4), (8, 2)):
        grids_ += [loop_closed(rng, arity, dangling) for _ in range(3)]
    return grids_


def raw_tables(grid):
    """The numerator tables that brute force and gates plan with."""
    index = grid.signature_index
    arm = RawArm(w for sig in index.distinct for w in sig.entries.values())
    return arm, [arm.numerators(sig.entries)[0] for sig in index.distinct]


def test_plan_matches_reference_planner():
    for grid in planner_inputs():
        assert validate(grid).ok
        assert plan_contraction(grid) == reference_plan_contraction(grid)
        tables = raw_tables(grid)[1]
        assert plan_contraction(grid, tables) == reference_plan_contraction(grid, tables)


def test_collapse_plans_with_raw_tables(monkeypatch):
    calls = []
    real = grids.plan_contraction
    monkeypatch.setattr(grids, "plan_contraction",
                        lambda grid, tables=None: calls.append(tables) or real(grid, tables))
    grid = loop_closed(random.Random(3), 6, 2)
    gate_signature(grid)
    assert calls == [raw_tables(grid)[1]]


def test_plan_steps_of_one_shape_share_groups():
    plan = plan_contraction(ring([diseq(4)] * 4096))
    assert len(plan.steps) == 4096
    assert len({id(groups) for _, _, groups in plan.steps}) <= 4


def test_passes_leave_shared_groups_unchanged(monkeypatch):
    rng = random.Random(7)
    for draw in (rand_nonzero_value, lambda r: rand_cyclotomic(r, 8)):
        pool = [gen_diseq("1100", draw(rng), draw(rng)) for _ in range(2)]
        grid = ring([rng.choice(pool) for _ in range(12)])
        arm, tables = raw_tables(grid)
        plan = plan_contraction(grid, tables)
        assert len({id(groups) for _, _, groups in plan.steps}) < len(plan.steps)
        before = copy.deepcopy(plan.steps)
        for _ in frontier_pass(plan, {0: arm.one}, arm.mul_add):
            pass
        assert plan.steps == before

        made = []
        monkeypatch.setattr(tractable, "plan_contraction",
                            lambda g: made.append(plan_contraction(g)) or made[-1])
        oracle = tractable.ExhaustiveOracle()
        for v, (_, sig) in enumerate(grid.vertices):
            for mask in sig.support():
                assert oracle.query(grid, v, mask)[0]
        assert len(made) == 1 and made[0].steps == plan_contraction(grid).steps


def test_validate_checks_balance_once_per_signature(monkeypatch):
    calls = []
    real = Signature.is_eo
    monkeypatch.setattr(Signature, "is_eo", lambda sig: calls.append(sig) or real(sig))
    ring = Grid.make([(f"v{v}", diseq(4)) for v in range(8)],
                     [((v, 2 + p), ((v + 1) % 8, p)) for v in range(8) for p in range(2)])
    assert validate(ring).all_eo
    assert calls == [diseq(4)]


def test_dense_torus_within_work_bound(monkeypatch):
    grid = dense_torus(5, random.Random(0))
    last = len(grid.vertices) - 1

    def flip(slot):
        return (last - slot[0], slot[1])
    # listing the vertices backwards gives another elimination order
    backwards = Grid.make(grid.vertices[::-1], [(flip(a), flip(b)) for a, b in grid.edges])
    monkeypatch.setattr(grids, "DEFAULT_OP_CAP", 1 << 16)
    assert brute_force_partition(grid) == brute_force_partition(backwards)


def test_zero_arity_vertices():
    g = Grid.make([("c", Signature(0, {0: V(3)})), ("d", Signature(0, {0: V(5)}))], [])
    assert brute_force_partition(g) == V(15)


def test_grid_file_roundtrip(tmp_path):
    sig_path = tmp_path / "sigs.sig"
    sig_path.write_text("signature deq4 arity 4\n1100 1\n0011 1\n")
    grid_path = tmp_path / "g.grid"
    grid_path.write_text(
        f"use {sig_path.name}\n"
        "vertex v1 deq4\n"
        "edge v1.1 v1.3\n"
        "edge v1.2 v1.4\n")
    grid = load_grid_file(grid_path)
    assert brute_force_partition(grid) == V(2)

    text = render_grid_text(grid)
    again = parse_grid_text(text)
    assert brute_force_partition(again) == V(2)


def test_open_grid_text_round_trip():
    # an open grid: each port off an edge dangles, listed out of port order
    a = from_entries(4, {"0101": 1, "1010": ExactValue.gauss(2, -1)})
    grid = Grid.make([("a", a), ("b", diseq(4)), ("c", a.scaled(I))],
                     [((0, 0), (1, 2)), ((1, 0), (2, 1)), ((0, 3), (2, 2))],
                     [(0, 1), (1, 1), (1, 3), (2, 0), (0, 2), (2, 3)])
    text = render_grid_text(grid)
    assert text.count("\ndangle ") == 6
    assert parse_grid_text(text) == grid


@pytest.mark.parametrize("order", [None, 8], ids=["gauss", "zeta8"])
def test_grid_text_round_trip_long_weights(order):
    # open and closed grids, zero signatures and self-edges included, with
    # weights whose numbers run past CPython's integer-string limit
    rng = random.Random(f"grid-text:{order}")
    mode = FieldMode(order)
    longest = 0
    for _ in range(8):
        grid = reweighted(rand_wired_grid(rng), rng, lambda r: rand_long_value(r, order))
        text = render_grid_text(grid)
        assert parse_grid_text(text, mode=mode) == grid
        longest = max([longest, *map(len, re.findall(r"\d+", text))])
    assert longest > 4300


def test_grid_file_builtins_and_inline():
    text = """
signature f arity 2
01 2
10 3
vertex a f
vertex p delta
edge a.1 p.1
edge a.2 p.2
"""
    grid = parse_grid_text(text)
    # delta forces its slot 1 to 0 and slot 2 to 1; edges flip: a.1=1, a.2=0
    assert brute_force_partition(grid) == V(3)


def test_grid_file_errors(tmp_path):
    with pytest.raises(GridFormatError):
        parse_grid_text("vertex v nosuch\n")
    with pytest.raises(GridFormatError):
        parse_grid_text("edge a.1 b.2\n")
    with pytest.raises(GridFormatError):
        parse_grid_text("wat\n")
    for line in ("use", "use  # no file", "use a\0b.sig"):
        with pytest.raises(GridFormatError):
            parse_grid_text(line + "\n")


@pytest.mark.parametrize("text, message", [
    ("use\n", "line 1: bad use line 'use'"),
    ("# no file\nuse  # none\n", "line 2: bad use line 'use  # none'"),
    ("use a\0b.sig\n", "line 1: bad use line 'use a\\x00b.sig'"),
    ("vertex v\n", "line 1: bad vertex line 'vertex v'"),
    ("vertex v delta extra\n", "line 1: bad vertex line 'vertex v delta extra'"),
    ("\nvertex v nosuch\n", "line 2: unknown signature 'nosuch' for vertex 'v'"),
    ("vertex v delta\nvertex v delta0\n", "line 2: duplicate vertex id 'v'"),
    ("vertex v delta\nedge v.1\n", "line 2: bad edge line 'edge v.1'"),
    ("vertex v delta\nedge v.1 v.2 v.1\n", "line 2: bad edge line 'edge v.1 v.2 v.1'"),
    ("vertex v delta\ndangle\n", "line 2: bad dangle line 'dangle'"),
    ("vertex v delta\ndangle v.1 v.2\n", "line 2: bad dangle line 'dangle v.1 v.2'"),
    ("vertex v delta\n\nwat v.1\n", "line 3: unknown directive 'wat'"),
    ("vertex v delta\nedge v1 v.2\n", "line 2: bad slot 'v1'"),
    ("vertex v delta\nedge a.1 v.2\n", "line 2: unknown vertex 'a'"),
    ("vertex v delta\nedge v.1 v.x\n", "line 2: bad port in 'v.x'"),
    ("vertex v delta\ndangle v.0\n", "line 2: ports are 1-based in 'v.0'"),
])
def test_grid_file_errors_name_the_line(text, message):
    with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
        parse_grid_text(text)


def test_inline_block_errors_name_the_file_line():
    text = "# wiring below\nvertex p delta\n\nsignature f arity 2\n{}\nvertex a f\n"
    with pytest.raises(LiteralSyntaxError, match="^line 5: bad bit string '0110'"):
        parse_grid_text(text.format("0110 1"))
    with pytest.raises(LiteralSyntaxError, match="^line 5: missing '\\+' or '-' between terms"):
        parse_grid_text(text.format("01 2 3"))
    with pytest.raises(LiteralSyntaxError, match="^line 5: bad signature header"):
        parse_grid_text(text.format("signature g arity"))


def test_with_vertex_signature():
    grid = closed_diseq4_grid()
    new = grid.with_vertex_signature(0, tensor(neq2(), neq2()))
    assert brute_force_partition(new) == V(2)
    with pytest.raises(InvalidGrid):
        grid.with_vertex_signature(0, neq2())
