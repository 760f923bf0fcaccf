import random

import pytest

from eoexact.errors import (
    BruteForceCapExceeded,
    ClosedGridError,
    GridFormatError,
    InvalidGrid,
    OpenGridError,
)
from eoexact.grids import (
    Grid,
    brute_force_partition,
    gate_signature,
    join_gates,
    load_grid_file,
    parse_grid_text,
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
    signature_matrix,
    tensor,
)
from eoexact.values import ExactValue, I, ONE, ZERO

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


def test_brute_force_cap():
    grid = closed_diseq4_grid()
    with pytest.raises(BruteForceCapExceeded):
        brute_force_partition(grid, cap=2)


def test_zero_arity_vertices():
    g = Grid.make([("c", Signature(0, (V(3),))), ("d", Signature(0, (V(5),)))], [])
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


def test_with_vertex_signature():
    grid = closed_diseq4_grid()
    new = grid.with_vertex_signature(0, tensor(neq2(), neq2()))
    assert brute_force_partition(new) == V(2)
    with pytest.raises(InvalidGrid):
        grid.with_vertex_signature(0, neq2())
