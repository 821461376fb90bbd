import random
import zlib
from fractions import Fraction

import pytest

from derpair import constructions
from derpair.cochains import MultiMap
from derpair.constructions import (RECIPE_KINDS, RECIPES, dendrify,
                                   endo_brackets, nijenhuis_product,
                                   rb_deform_assder, rb_lie_to_prelie)
from derpair.errors import InvalidStructureError, SchemaError
from derpair.linalg import Space
from derpair.structures import (KIND_INFO, Presentation, check_operator,
                                check_structure, evaluate)

import gen
import oracles

S2 = Space.of_dim(2)
S3 = Space.of_dim(3)

SEED = 505


def P(space, kind, products, derivations=None):
    return Presentation(space, products, derivations or {}, kind)


# -- anchored examples ----------------------------------------------------------

def test_zinbiel_chain_to_associative():
    delta = gen.mm(S2, 1, [(0, 0, 1), (0, 1, 1), (1, 1, 2)])
    zinder = P(S2, "zinder", {"star": gen.ZIN2}, {"delta": delta})
    dendrider = dendrify(zinder, "zinbiel-to-dendriform")
    assert dendrider.kind == "dendrider"
    assert check_structure(dendrider) is None
    assder = dendrify(dendrider, "dendriform-to-associative")
    assert assder.kind == "assder"
    assert assder.products["mu"].eval((0, 0)) == [0, Fraction(2)]
    assert assder.derivations["delta"] == delta
    assert check_structure(assder) is None


def test_zero_products_stay_zero():
    from derpair.structures import kind_shape
    for recipe, table in RECIPE_KINDS.items():
        for input_kind in table:
            names, dnames = kind_shape(input_kind)
            p = P(S2, input_kind,
                  {name: MultiMap.zero(S2, 2) for name in names},
                  {name: MultiMap.zero(S2, 1) for name in dnames})
            out = dendrify(p, recipe)
            assert all(m.is_zero() for m in out.products.values())


def test_linear_combine_of_anchor_lie_pair():
    p = P(S2, "compatible-lie", {"bracket1": gen.AFF2A, "bracket2": gen.AFF2B})
    out = dendrify(p, "linear-combine")
    assert out.kind == "lie"
    assert out.products["bracket"].eval((0, 1)) == [Fraction(1), Fraction(1)]
    assert check_structure(out) is None
    with_ders = P(S2, "compatible-lieder",
                  {"bracket1": gen.AFF2A, "bracket2": gen.AFF2B},
                  {"delta1": MultiMap.zero(S2, 1), "delta2": MultiMap.zero(S2, 1)})
    out = dendrify(with_ders, "linear-combine", (1, 1, 1, 1))
    assert out.kind == "lieder"
    assert check_structure(out) is None


def test_recipe_errors():
    p = P(S2, "zinbiel", {"star": gen.ZIN2})
    with pytest.raises(SchemaError):
        dendrify(p, "no-such-recipe")
    with pytest.raises(SchemaError):
        dendrify(p, "associative-to-lie")
    bad = P(S2, "associative", {"mu": gen.mm(S2, 2, [(0, 0, 1, 1), (1, 0, 0, 1)])})
    with pytest.raises(InvalidStructureError):
        dendrify(bad, "associative-to-lie")
    zero = MultiMap.zero(S2, 1)
    for construct in (rb_deform_assder, endo_brackets, rb_lie_to_prelie):
        with pytest.raises(SchemaError, match="needs a .* presentation"):
            construct(p, zero)


def test_failed_preconditions_name_what_failed_and_where():
    bad = gen.mm(S2, 2, [(0, 0, 1, 1), (1, 0, 0, 1)])
    zero = MultiMap.zero(S2, 1)
    pair = P(S2, "compatible-assder", {"mu1": gen.NIL2, "mu2": gen.NIL2},
             {"delta1": zero, "delta2": zero})
    cases = (
        (lambda: dendrify(P(S2, "associative", {"mu": bad}), "associative-to-lie"),
         "input fails associativity(mu) at (0, 0, 0)"),
        (lambda: nijenhuis_product(bad, zero), "product fails associativity(mu) at (0, 0, 0)"),
        (lambda: nijenhuis_product(gen.NIL2, gen.mm(S2, 1, [(0, 0, 1)])),
         "operator fails nijenhuis(mu) at (0, 0)"),
        (lambda: rb_deform_assder(pair, gen.mm(S2, 1, [(1, 0, 1)])),
         "operator fails rota-baxter(mu1) at (0, 1)"),
    )
    for call, message in cases:
        with pytest.raises(InvalidStructureError) as info:
            call()
        assert str(info.value) == message
        assert info.value.violation is not None


# -- transfer soundness -----------------------------------------------------------

def _sources(rng, recipe, count):
    if recipe in ("dendriform-to-associative", "dendriform-to-prelie"):
        return gen.dendrider_instances(rng, count)
    if recipe in ("zinbiel-to-dendriform", "zinbiel-to-associative"):
        return gen.der_pair_instances(rng, count, gen.ZINBIEL_CATALOG,
                                      "zinder", "star")
    if recipe == "associative-to-lie":
        return gen.der_pair_instances(rng, count, gen.ASSOCIATIVE_CATALOG,
                                      "assder", "mu")
    if recipe == "prelie-to-lie":
        return gen.der_pair_instances(rng, count, gen.PRELIE_CATALOG,
                                      "prelieder", "circ")
    if recipe == "compatible-assder-to-compatible-lieder":
        return gen.compatible_assder_instances(rng, count)
    if recipe.startswith("compatible-dendrider"):
        return gen.compatible_dendrider_instances(rng, count)
    if recipe == "compatible-prelieder-to-compatible-lieder":
        return gen.compatible_prelieder_instances(rng, count)
    if recipe == "compatible-zinder-to-compatible-assder":
        return gen.compatible_zinder_instances(rng, count)
    raise AssertionError(recipe)


@pytest.mark.parametrize("recipe", sorted(set(RECIPE_KINDS) - {"linear-combine"}))
def test_transfer_soundness(recipe):
    rng = random.Random(SEED + zlib.crc32(recipe.encode()) % 997)
    for p in _sources(rng, recipe, 10):
        out = dendrify(p, recipe)
        assert out.kind == RECIPE_KINDS[recipe][p.kind]
        assert check_structure(out) is None, recipe
        assert out.provenance["recipe"] == recipe


# -- cross-check against the dense transfer oracle ------------------------------------

RATIONALS = (Fraction(-3, 2), Fraction(2, 3), Fraction(5, 4))


def _rational(rng, p):
    """p with every product scaled by one rational and every derivation by
    another; every identity in play is homogeneous in each, so p stays valid."""
    c, c_der = rng.choice(RATIONALS), rng.choice(RATIONALS)
    return Presentation(p.space, {n: m.scale(c) for n, m in p.products.items()},
                        {n: m.scale(c_der) for n, m in p.derivations.items()},
                        p.kind)


def _without_derivations(p):
    info = KIND_INFO[p.kind]._replace(with_derivation=False)
    kind = next(k for k, i in KIND_INFO.items() if i == info)
    return Presentation(p.space, dict(p.products), {}, kind)


def _sheared(rng, p, op):
    """p and op under one random unimodular basis change."""
    g, g_inv = gen.random_unimodular(rng, p.space)
    return (Presentation(
        p.space,
        {n: gen.conjugate_map(g, g_inv, m) for n, m in p.products.items()},
        {n: gen.conjugate_map(g, g_inv, m) for n, m in p.derivations.items()},
        p.kind), gen.conjugate_map(g, g_inv, op))


# a product with no symmetry per family, so that no swapped argument goes
# unnoticed; the catalogs draw mostly symmetric ones
ANCHORS = {
    "associative": {"mu": gen.IDEM2},
    "prelie": {"circ": gen.IDEM2},
    "lie": {"bracket": gen.AFF2A},
    "zinbiel": {"star": gen.ZIN3},
    "dendriform": dict(zip(("prec", "succ"), gen.zinbiel_split(gen.ZIN3))),
}


def _anchor(rng, kind):
    """The family's anchor as a presentation of kind (no derivations), sheared."""
    info = KIND_INFO[kind]
    products = ANCHORS[info.family]
    if info.compatible:
        products = {name + i: m.scale(c) for name, m in products.items()
                    for i, c in (("1", 1), ("2", 2))}
    space = next(iter(products.values())).space
    return gen.conjugate_presentation(rng, Presentation(space, products, {}, kind))


def _oracle_sources(rng, recipe):
    if recipe == "linear-combine":
        sources = [p for make in (gen.compatible_lieder_instances,
                                  gen.compatible_assder_instances,
                                  gen.compatible_zinder_instances,
                                  gen.compatible_dendrider_instances,
                                  gen.compatible_prelieder_instances)
                   for p in make(rng, 1)]
    else:
        sources = _sources(rng, recipe, 3)
    sources += [_anchor(rng, kind) for kind in RECIPE_KINDS[recipe]
                if not KIND_INFO[kind].with_derivation]
    sources += [_rational(rng, p) for p in sources]
    return sources + [_without_derivations(p) for p in sources
                      if KIND_INFO[p.kind].with_derivation]


@pytest.mark.parametrize("recipe", sorted(RECIPE_KINDS))
def test_recipes_match_transfer_oracle(recipe):
    rng = random.Random(SEED + 10 + zlib.crc32(recipe.encode()) % 997)
    for p in _oracle_sources(rng, recipe):
        coefficients = tuple(gen.rand_rational(rng) for _ in range(4))
        out = dendrify(p, recipe, coefficients)
        assert out.kind == RECIPE_KINDS[recipe][p.kind]
        assert (out.products, out.derivations) == oracles.transfer_oracle(
            p, recipe, coefficients=coefficients), (recipe, p.kind)


def test_operator_constructions_match_transfer_oracle():
    rng = random.Random(SEED + 11)
    cases = [("rb-deform", rb_deform_assder, p, op)
             for p, op in gen.rb_ready_assder_instances(rng, 3)]
    cases += [("endo-brackets", endo_brackets, p, op)
              for p, op in gen.endo_ready_instances(rng, 3)]
    cases += [("rb-to-prelie", rb_lie_to_prelie, p, op)
              for p, op in gen.rb_ready_lieder_instances(rng, 3)]
    # anchors on products with no symmetry; the searches draw few of them
    zero = MultiMap.zero(S2, 1)
    for name, construct, kind, product, base, op in (
            ("rb-deform", rb_deform_assder, "compatible-assder", "mu", gen.IDEM2,
             gen.mm(S2, 1, [(0, 1, -1)])),
            ("endo-brackets", endo_brackets, "compatible-assder", "mu", gen.IDEM2,
             gen.mm(S2, 1, [(0, 0, 1), (0, 1, -1)])),
            ("rb-to-prelie", rb_lie_to_prelie, "compatible-lieder", "bracket",
             gen.AFF2A, gen.mm(S2, 1, [(0, 1, -1)]))):
        cases.append((name, construct, P(S2, kind, {product + "1": base,
                                                     product + "2": base.scale(2)},
                                         {"delta1": zero, "delta2": zero}), op))
    for name, construct, p, op in cases:
        for q, q_op in ((p, op), _sheared(rng, _rational(rng, p), op)):
            out = construct(q, q_op)
            assert (out.products, out.derivations) == oracles.transfer_oracle(
                q, name, op=q_op), name
    for mu, n_op in gen.nijenhuis_ready_instances(rng, 6):
        for nu in (mu, mu.scale(rng.choice(RATIONALS))):
            host = Presentation(nu.space, {"mu": nu}, {}, "associative")
            products, _ = oracles.transfer_oracle(host, "nijenhuis", op=n_op)
            assert nijenhuis_product(nu, n_op) == products["mu"]


def test_recipe_table_is_closed():
    names = {r.name for r in RECIPES}
    assert names == set(RECIPE_KINDS)
    assert len(RECIPE_KINDS) == 12


# -- diagram path commutation -------------------------------------------------------

def test_zinbiel_two_paths_agree_exactly():
    rng = random.Random(SEED + 1)
    for p in gen.der_pair_instances(rng, 20, gen.ZINBIEL_CATALOG, "zinder", "star"):
        via = dendrify(dendrify(p, "zinbiel-to-dendriform"),
                       "dendriform-to-associative")
        direct = dendrify(p, "zinbiel-to-associative")
        assert via.products == direct.products
        assert via.derivations == direct.derivations


def test_dendriform_two_paths_to_lie_agree():
    rng = random.Random(SEED + 2)
    for p in gen.dendrider_instances(rng, 20):
        through_assoc = dendrify(dendrify(p, "dendriform-to-associative"),
                                 "associative-to-lie")
        through_prelie = dendrify(dendrify(p, "dendriform-to-prelie"),
                                  "prelie-to-lie")
        assert through_assoc.products == through_prelie.products
        assert through_assoc.derivations == through_prelie.derivations


def test_endo_with_identity_equals_commutator_recipe():
    rng = random.Random(SEED + 3)
    for p in gen.compatible_assder_instances(rng, 10):
        via_endo = endo_brackets(p, MultiMap.identity(p.space))
        via_recipe = dendrify(p, "compatible-assder-to-compatible-lieder")
        assert via_endo.products == via_recipe.products
        assert via_endo.derivations == via_recipe.derivations


# -- operator-induced constructions ---------------------------------------------------

def test_nijenhuis_product_identity_and_zero():
    assert nijenhuis_product(gen.NIL2, MultiMap.identity(S2)) == gen.NIL2
    assert nijenhuis_product(gen.NIL2, MultiMap.zero(S2, 1)).is_zero()


def test_nijenhuis_product_shift_example():
    shift = gen.mm(S3, 1, [(0, 1, 1), (1, 2, 1)])
    mu_n = nijenhuis_product(gen.POLY3, shift)
    assert mu_n.eval((0, 0)) == [0, 0, Fraction(1)]
    pair = P(S3, "compatible-associative", {"mu1": gen.POLY3, "mu2": mu_n})
    assert check_structure(pair) is None


def test_nijenhuis_product_rejects_non_integrable_operator():
    # diag(1,0) fails the integrability identity on mu(e1,e1)=e2, so the
    # product refuses it even though the defining formula would print 2e2.
    bad = gen.mm(S2, 1, [(0, 0, 1)])
    with pytest.raises(InvalidStructureError):
        nijenhuis_product(gen.NIL2, bad)
    value = evaluate(S2, constructions._NIJENHUIS, 2, {"mu": gen.NIL2, "N": bad})
    assert value.eval((0, 0)) == [0, Fraction(2)]


def test_nijenhuis_product_randomized_soundness():
    rng = random.Random(SEED + 4)
    for mu, n_op in gen.nijenhuis_ready_instances(rng, 15):
        mu_n = nijenhuis_product(mu, n_op)
        pair = P(mu.space, "compatible-associative", {"mu1": mu, "mu2": mu_n})
        assert check_structure(pair) is None


def test_rb_deform_zero_operator():
    rng = random.Random(SEED + 5)
    p = gen.compatible_assder_instances(rng, 1)[0]
    q = Presentation(p.space, dict(p.products),
                     {"delta1": MultiMap.zero(p.space, 1),
                      "delta2": MultiMap.zero(p.space, 1)}, p.kind)
    out = rb_deform_assder(q, MultiMap.zero(p.space, 1))
    assert all(m.is_zero() for m in out.products.values())


def test_rb_deform_rejects_lie_style_operator():
    # R(e1)=0, R(e2)=e1 satisfies the bracket-side identity but not the
    # associative one on mu(e1,e1)=e2; the deformed table is still the stated
    # substitution when computed unchecked.
    zero = MultiMap.zero(S2, 1)
    p = P(S2, "compatible-assder", {"mu1": gen.NIL2, "mu2": gen.NIL2},
          {"delta1": zero, "delta2": zero})
    r = gen.mm(S2, 1, [(1, 0, 1)])
    assert check_operator(p, r, "rota-baxter", 0) is not None
    with pytest.raises(InvalidStructureError):
        rb_deform_assder(p, r)
    deformed = gen._precompose(gen.NIL2, 0, r) + gen._precompose(gen.NIL2, 1, r)
    assert deformed.eval((0, 0)) == [0, 0]
    assert deformed.eval((0, 1)) == [0, Fraction(1)]
    assert deformed.eval((1, 0)) == [0, Fraction(1)]


def test_rb_deform_randomized_soundness():
    rng = random.Random(SEED + 6)
    for p, r_op in gen.rb_ready_assder_instances(rng, 12):
        out = rb_deform_assder(p, r_op)
        assert out.kind == "compatible-assder"
        assert check_structure(out) is None


def test_endo_brackets_zero_and_soundness():
    rng = random.Random(SEED + 7)
    p, t_op = gen.endo_ready_instances(rng, 1)[0]
    zero_out = endo_brackets(
        Presentation(p.space, dict(p.products),
                     {"delta1": MultiMap.zero(p.space, 1),
                      "delta2": MultiMap.zero(p.space, 1)}, p.kind),
        MultiMap.zero(p.space, 1))
    assert all(m.is_zero() for m in zero_out.products.values())
    for p, t_op in gen.endo_ready_instances(rng, 12):
        out = endo_brackets(p, t_op)
        assert out.kind == "compatible-lieder"
        assert check_structure(out) is None


def test_endo_brackets_rejects_plain_idempotent():
    # Idempotent but not multiplicative: the induced brackets need not be Lie.
    zero = MultiMap.zero(S3, 1)
    p = P(S3, "compatible-assder", {"mu1": gen.POLY3, "mu2": gen.POLY3.scale(-1)},
          {"delta1": zero, "delta2": zero})
    t = gen.mm(S3, 1, [(1, 0, 1), (1, 1, 1), (2, 0, 1), (2, 2, 1)])
    assert gen._postcompose(t, t) == t
    with pytest.raises(InvalidStructureError):
        endo_brackets(p, t)


def test_rb_lie_to_prelie_zero_and_example():
    zero = MultiMap.zero(S2, 1)
    p = P(S2, "compatible-lieder", {"bracket1": gen.AFF2A, "bracket2": gen.AFF2A},
          {"delta1": zero, "delta2": zero})
    out = rb_lie_to_prelie(p, zero)
    assert all(m.is_zero() for m in out.products.values())
    r = gen.mm(S2, 1, [(1, 0, 1)])     # R(e1)=0, R(e2)=e1
    out = rb_lie_to_prelie(p, r)
    for name in ("circ1", "circ2"):
        circ = out.products[name]
        assert circ.eval((1, 1)) == [Fraction(1), 0]   # e2 o e2 = [e1,e2] = e1
        assert circ.eval((1, 0)) == [0, 0]
        assert circ.eval((0, 0)) == [0, 0]
        assert circ.eval((0, 1)) == [0, 0]
    assert out.kind == "compatible-prelieder"
    assert check_structure(out) is None


def test_rb_lie_to_prelie_randomized_soundness():
    rng = random.Random(SEED + 8)
    for p, r_op in gen.rb_ready_lieder_instances(rng, 12):
        out = rb_lie_to_prelie(p, r_op)
        assert check_structure(out) is None


def test_invertible_rota_baxter_inverse_is_dendriform_derivation():
    # An invertible splitting-compatible averaging operator has an inverse
    # that acts as a derivation of both one-sided products.
    prec, succ = gen.zinbiel_split(gen.ZIN2)
    dendriform = P(S2, "dendriform", {"prec": prec, "succ": succ})
    r = gen.mm(S2, 1, [(0, 0, 2), (1, 1, 1)])      # diag(2,1)
    assert check_operator(dendriform, r, "rota-baxter", 0) is None
    r_inv = gen.mm(S2, 1, [(0, 0, Fraction(1, 2)), (1, 1, 1)])
    assert gen._postcompose(r, r_inv) == MultiMap.identity(S2)
    dendrider = P(S2, "dendrider", {"prec": prec, "succ": succ},
                  {"delta": r_inv})
    assert check_structure(dendrider) is None


def test_outputs_do_not_alias_inputs():
    rng = random.Random(SEED + 9)
    p = gen.compatible_assder_instances(rng, 1)[0]
    before = {name: dict(m.coeffs) for name, m in p.products.items()}
    dendrify(p, "compatible-assder-to-compatible-lieder")
    after = {name: dict(m.coeffs) for name, m in p.products.items()}
    assert before == after
