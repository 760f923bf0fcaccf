"""Cross-module scenarios: cyclotomic weights through every engine, and
pipelines where pruning genuinely rewrites supports."""

import copy
from fractions import Fraction

import pytest

from eoexact.classify import (
    AffineCertificate,
    ProductCertificate,
    dichotomy_verdict,
    is_rebalancing,
    membership_affine,
    membership_all_pairings,
    membership_product,
    symmetry_class,
    triple_class,
)
from eoexact.generate import LoopRecipe, PathRecipe, delta_realizability, generating_process
from eoexact.grids import Grid, brute_force_partition, validate
from eoexact.signatures import BinaryDiseq, diseq, from_entries, gen_diseq, pin_signature
from eoexact.transforms import grid_pad_single_weighted, weight_profile
from eoexact.tractable import (
    eval_affine,
    eval_fpnp,
    eval_product,
    interpolate_delta,
    prune_effective,
)
from eoexact.values import ExactValue, FieldMode, I, ONE, root_order

V = ExactValue.rational
Z = ExactValue.zeta


def test_affine_engine_with_cyclotomic_scale():
    # class membership constrains value ratios, not the overall scale; a
    # third root of unity and i need a common ambient field, so the session
    # order is 12 (zeta_12^4 is the third root, zeta_12^3 is i)
    lam = Z(12, 4)
    f = from_entries(2, {"01": lam, "10": lam * I})
    assert isinstance(membership_affine(f), AffineCertificate)
    g = Grid.make([("v", f)], [((0, 0), (0, 1))])
    want = brute_force_partition(g)
    assert eval_affine(g) == want
    assert want == lam * (ONE + I)


def test_product_engine_with_cyclotomic_weights():
    f = gen_diseq("0101", Z(5, 1), Z(5, 4))
    g = Grid.make([("v", f)], [((0, 0), (0, 1)), ((0, 2), (0, 3))])
    want = brute_force_partition(g)
    assert eval_product(g) == want
    assert want == Z(5, 1) + Z(5, 4)


def test_interpolation_with_cyclotomic_base():
    f = gen_diseq("0101", 1, 1)
    grid = Grid.make([("f", f), ("d", pin_signature())],
                     [((1, 1), (0, 0)), ((1, 0), (0, 1)), ((0, 2), (0, 3))])
    x = V(2) * Z(8, 1)  # modulus 2: provably off the unit circle
    assert interpolate_delta(grid, x) == brute_force_partition(grid)
    # modulus 1, but x^8 != 1, so x is no root of unity of Q(zeta_8)
    x = ExactValue.gauss(Fraction(3, 5), Fraction(4, 5)) * Z(8, 1)
    assert interpolate_delta(grid, x) == brute_force_partition(grid)


def test_pipeline_where_pruning_rewrites_supports():
    f = from_entries(4, {"1100": 1, "1010": 1, "1001": 2}, "mform")
    grid = Grid.make(
        [("a", f), ("b", f)],
        [((0, 0), (1, 1)), ((0, 1), (1, 0)), ((0, 2), (1, 2)), ((0, 3), (1, 3))])
    pruned = prune_effective(grid)
    assert set(pruned.signature_of(0).support_strings()) == {"1010", "1001"}
    assert set(pruned.signature_of(1).support_strings()) == {"1010", "1001"}
    # the pruned occurrences are product-class outright even though the
    # original support is not
    assert isinstance(membership_product(pruned.signature_of(0)), ProductCertificate)
    assert brute_force_partition(grid) == V(4)
    assert eval_fpnp(grid, "product") == V(4)


def test_classify_with_cyclotomic_values():
    f = gen_diseq("0101", 1, Z(8, 1))
    v = dichotomy_verdict([f])
    assert v.tractable
    assert "product" in v.classes
    assert "affine" not in v.classes  # zeta_8 ratio is not a power of i


def _immutable_records():
    """One of each immutable record, from the calls that return them."""
    gd = gen_diseq("0101", 1, I)
    heavy = from_entries(4, {"1100": 1, "1010": 1, "1001": 2})
    affine = membership_affine(gd)
    product = membership_product(gd)
    descriptor, state = generating_process(gd)
    recipes = list(state.recipes.values())
    loop = next(r for r in recipes if isinstance(r, LoopRecipe))
    grid = Grid.make([("v", diseq(4))], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    return [
        triple_class(heavy), triple_class(heavy).heavy, affine, affine.space,
        membership_affine(heavy), product, product.groups[0],
        membership_all_pairings(gd, "affine"), symmetry_class(gd), loop, loop.loops[0],
        next(r for r in recipes if isinstance(r, PathRecipe)), state.steps[0],
        validate(grid), BinaryDiseq(ONE, I), root_order(I), weight_profile(gd),
        gd, grid, FieldMode.parse("zeta:8"), dichotomy_verdict([gd]), is_rebalancing(gd, 0),
        descriptor, delta_realizability(gd), grid_pad_single_weighted(grid)[1],
    ]


def test_immutable_records_refuse_assignment():
    plain = {"Signature": ("arity", "entries", "name"),
             "Grid": ("vertices", "edges", "dangling"), "FieldMode": ("order",)}
    records = _immutable_records()
    assert len({type(r).__name__ for r in records}) == len(records)
    for rec in records:
        names = getattr(rec, "_fields", None) or plain[type(rec).__name__]
        for name in names:
            before = getattr(rec, name)
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
            assert getattr(rec, name) is before
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert copy.copy(rec) == rec
