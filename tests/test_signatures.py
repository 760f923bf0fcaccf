import random
import re

import pytest

from eoexact.errors import ArityMismatch, CapExceeded, EOError, LiteralSyntaxError, PortError
from eoexact.signatures import (
    BinaryDiseq,
    Signature,
    delta0,
    delta1,
    diseq,
    dual,
    from_entries,
    gen_diseq,
    load_signature_file,
    neq2,
    parse_signature_blocks,
    permute,
    pin_pair,
    pin_signature,
    render_signature_block,
    self_loop,
    symmetric,
    tensor,
)
from eoexact.values import I, ONE, ZERO, ExactValue, FieldMode
from paper import as_binary_diseq, equality
from tests_helpers import rand_long_value, signature_matrix

V = ExactValue.rational


def rand_eo_signature(rng, arity, density=0.7):
    from eoexact import f2
    entries = {}
    for m in range(1 << arity):
        if f2.is_balanced(m, arity) and rng.random() < density:
            entries[m] = V(rng.randint(-3, 3))
    return from_entries(arity, entries)


def test_build_named_examples():
    d4 = diseq(4)
    assert d4.support_strings() == ("0011", "1100")
    assert d4.value_at("1100") == ONE and d4.value_at("0011") == ONE

    d0 = symmetric([1, 0])
    assert d0 == delta0()
    assert d0.support_strings() == ("0",)

    g = gen_diseq("0101", 1, -1)
    assert g.value_at("0101") == ONE
    assert g.value_at("1010") == V(-1)
    assert len(g.support()) == 2

    with pytest.raises(ArityMismatch):
        symmetric([])


def test_only_nonzero_entries_are_stored():
    f = from_entries(2, {"01": 0, "10": 3, 3: ZERO})
    assert dict(f.entries) == {0b10: V(3)}
    assert f.support() == (0b10,)
    assert f.values == (ZERO, ZERO, V(3), ZERO)
    assert f == Signature(2, {0b10: V(3), 0b01: ZERO})
    assert hash(f) == hash(Signature(2, {0b10: V(3)}))
    assert not f == 1 and f != "10"
    assert from_entries(2, {"00": 0}).is_zero()


@pytest.mark.parametrize("mask", [-1, 4])
def test_mask_outside_arity_rejected(mask):
    with pytest.raises(ArityMismatch):
        from_entries(2, {mask: 5})
    with pytest.raises(ArityMismatch):
        Signature(2, {mask: V(5)})


def test_equality_signature():
    e3 = equality(3)
    assert e3.support_strings() == ("000", "111")


def test_tensor_examples():
    t = tensor(delta0(), delta1())
    assert t.arity == 2
    assert t.support_strings() == ("01",)
    assert t.value_at("01") == ONE

    tt = tensor(neq2(), neq2())
    assert sorted(tt.support_strings()) == ["0101", "0110", "1001", "1010"]
    assert all(tt.value_at(s) == ONE for s in tt.support_strings())

    scalar = Signature(0, {0: V(3)})
    f = gen_diseq("01", 2, 5)
    assert tensor(scalar, f) == f.scaled(3)


def test_self_loop_examples():
    f = gen_diseq("0101", 1, -1)
    g = self_loop(f, 2, 3)
    assert g.value_at("01") == ONE
    assert g.value_at("10") == V(-1)

    d4 = diseq(4)
    h = self_loop(d4, 0, 2)
    assert h == neq2()

    z = self_loop(d4, 0, 1)
    assert z.is_zero()

    with pytest.raises(PortError):
        self_loop(d4, 1, 1)
    with pytest.raises(PortError):
        self_loop(d4, 0, 4)


def test_self_loop_orientation():
    f = gen_diseq("0101", 1, 1)
    w = BinaryDiseq(V(2), V(3))
    g_ij = self_loop(f, 2, 3, w, "ij")
    g_ji = self_loop(f, 2, 3, w, "ji")
    # orientation ij: a*f[x3=0,x4=1] + b*f[x3=1,x4=0]
    assert g_ij.value_at("01") == V(2)
    assert g_ij.value_at("10") == V(3)
    assert g_ji.value_at("01") == V(3)
    assert g_ji.value_at("10") == V(2)


def test_pin_pair_examples():
    d4 = diseq(4)
    p = pin_pair(d4, 0, 2, "10")
    assert p.support_strings() == ("10",)
    assert p.value_at("10") == ONE

    g = gen_diseq("0101", 1, -1)
    q = pin_pair(g, 0, 1, "01")
    assert q.support_strings() == ("01",)
    assert q.value_at("01") == ONE

    z = pin_pair(d4, 0, 1, "01")
    assert z.is_zero()


def test_pin_pair_is_delta_self_loop():
    rng = random.Random(7)
    for _ in range(10):
        f = rand_eo_signature(rng, 4)
        w = BinaryDiseq(ONE, ZERO)
        assert pin_pair(f, 1, 3, "01") == self_loop(f, 1, 3, w, "ij")
        assert pin_pair(f, 1, 3, "10") == self_loop(f, 1, 3, w, "ji")


def test_self_loop_decomposes_into_pins():
    rng = random.Random(11)
    for _ in range(10):
        f = rand_eo_signature(rng, 6)
        loop = self_loop(f, 1, 4)
        lo = pin_pair(f, 1, 4, "01")
        hi = pin_pair(f, 1, 4, "10")
        assert loop.values == tuple(a + b for a, b in zip(lo.values, hi.values))


def test_dual_examples():
    assert dual(delta0()) == delta1()
    assert dual(neq2()) == neq2()
    assert dual(gen_diseq("0101", 1, -1)) == gen_diseq("0101", -1, 1)
    rng = random.Random(3)
    for _ in range(5):
        f = rand_eo_signature(rng, 4)
        g = rand_eo_signature(rng, 4)
        assert dual(dual(f)) == f
        assert dual(tensor(f, g)) == tensor(dual(f), dual(g))


def test_eo_closure_properties():
    rng = random.Random(5)
    for _ in range(10):
        f = rand_eo_signature(rng, 6)
        g = rand_eo_signature(rng, 4)
        assert f.is_eo() and g.is_eo()
        assert tensor(f, g).is_eo()
        assert self_loop(f, 0, 3).is_eo()
        assert pin_pair(f, 2, 5, "10").is_eo()


def test_permute_and_matrix():
    f = tensor(delta0(), delta1())
    swapped = permute(f, [1, 0])
    assert swapped == tensor(delta1(), delta0())

    b = from_entries(2, {"00": 1, "01": 2, "10": 3, "11": 4})
    m = signature_matrix(b, 1)
    assert m == [[V(1), V(2)], [V(3), V(4)]]

    m2 = signature_matrix(diseq(4), 2)
    nz = [(r, c) for r in range(4) for c in range(4) if not m2[r][c].is_zero()]
    assert nz == [(0b00, 0b11), (0b11, 0b00)]


def test_tensor_associative_up_to_relabeling():
    rng = random.Random(9)
    f = rand_eo_signature(rng, 2)
    g = rand_eo_signature(rng, 2)
    h = rand_eo_signature(rng, 2)
    assert tensor(tensor(f, g), h) == tensor(f, tensor(g, h))


def test_binary_diseq_normalization():
    bd = BinaryDiseq(V(2), V(4))
    norm, scale, swapped = bd.normalized()
    assert swapped and scale == V(4)
    # |4| > |2| so slots swap and the unit is 4
    assert norm.a == ONE and norm.b == ExactValue.rational(1) / 2

    tie = BinaryDiseq(ONE, I)
    norm2, scale2, swapped2 = tie.normalized()
    assert not swapped2 and scale2 == ONE and norm2.b == I

    delta_like = BinaryDiseq(ZERO, V(5))
    norm3, scale3, swapped3 = delta_like.normalized()
    assert swapped3 and scale3 == V(5) and norm3.b.is_zero()

    assert as_binary_diseq(pin_signature()) is not None
    assert as_binary_diseq(equality(2)) is None


def test_signature_file_roundtrip(tmp_path):
    text = """
# sample file
signature deq4 arity 4
1100 1
0011 1

signature gd arity 4
0101 1+2i   # comment
1010 -1/2
"""
    sigs = parse_signature_blocks(text)
    assert len(sigs) == 2
    assert sigs[0] == diseq(4)
    assert sigs[1].value_at("0101") == ExactValue.gauss(1, 2)

    path = tmp_path / "sigs.sig"
    path.write_text(render_signature_block(sigs[1], "gd"))
    loaded = load_signature_file(path)
    assert loaded["gd"] == sigs[1]

    with pytest.raises(LiteralSyntaxError):
        parse_signature_blocks("0011 1\n")


@pytest.mark.parametrize("order", [None, 8], ids=["gauss", "zeta8"])
def test_signature_blocks_round_trip_long_weights(order):
    # blocks of arity 0-4, weights with numbers of up to 6 000 digits, past
    # CPython's integer-string limit, in Q(i) and Q(zeta_8)
    rng = random.Random(f"blocks:{order}")
    mode = FieldMode(order)
    # an arity-0 entry is written as its value alone (once "0 3", unreadable)
    assert render_signature_block(from_entries(0, {0: 3}), "c") == "signature c arity 0\n3\n"
    longest = 0
    for _ in range(8):
        sigs = []
        for _ in range(rng.randint(1, 3)):
            arity = rng.randint(0, 4)
            sigs.append(from_entries(arity, {m: rand_long_value(rng, order)
                                             for m in range(1 << arity) if rng.random() < 0.5}))
        text = "".join(render_signature_block(sig, f"f{k}") for k, sig in enumerate(sigs))
        assert parse_signature_blocks(text, mode) == sigs
        longest = max([longest, *map(len, re.findall(r"\d+", text))])
    assert longest > 4300
    with pytest.raises(LiteralSyntaxError):
        parse_signature_blocks("signature f arity 2\n111 1\n")


def test_signature_block_errors_name_their_line():
    text = "# a comment\nsignature f arity 2\n01 1\n10 2 3\n"
    with pytest.raises(LiteralSyntaxError,
                       match="^line 4: missing '\\+' or '-' between terms in '2 3'$"):
        parse_signature_blocks(text)
    # an error that is not a syntax error keeps its class
    with pytest.raises(EOError, match="^line 3: unsupported ambient cyclotomic order 420$") as err:
        parse_signature_blocks("signature f arity 2\n\n01 z420^1\n")
    assert type(err.value) is EOError
    # an arity out of range is reported at its header's line
    with pytest.raises(CapExceeded, match="^line 2: arity 17"):
        parse_signature_blocks("signature f arity 2\nsignature g arity 17\nsignature h arity 2\n")
