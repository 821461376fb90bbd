import itertools
import random
import zlib
from fractions import Fraction
from math import comb

import pytest

from derpair import cochains
from derpair.brackets import dc_bracket, gerstenhaber
from derpair.cochains import AltMap, DerCochain, MultiMap, _ad_block
from derpair.cohomology import ComplexSpec, cohomology, lieder_d
from derpair.errors import SchemaError, ShapeError, UnsupportedRoleError
from derpair.linalg import Space, nullspace
from derpair.structures import (_FAMILY_PRODUCTS, KIND_INFO, KINDS, Presentation,
                                Violation, _parse, check_morphism, check_operator,
                                check_structure, cross_derivation_system,
                                derivation_system, evaluate, fingerprint, kind_shape)

import gen
from oracles import (check_morphism_oracle, check_operator_oracle,
                     check_structure_oracle, cross_derivation_system_oracle,
                     derivation_system_oracle, formula_oracle, table_formulas)

S2 = Space.of_dim(2)
S3 = Space.of_dim(3)

SEED = 404


def P(space, kind, products, derivations=None):
    return Presentation(space, products, derivations or {}, kind)


# -- anchor instances ----------------------------------------------------------------

def test_compatible_lie_example():
    p = P(S2, "compatible-lie",
          {"bracket1": gen.AFF2A, "bracket2": gen.AFF2B})
    assert check_structure(p) is None


def test_zinder_example_alpha1_beta1():
    delta = gen.mm(S2, 1, [(0, 0, 1), (0, 1, 1), (1, 1, 2)])
    p = P(S2, "zinder", {"star": gen.ZIN2}, {"delta": delta})
    assert check_structure(p) is None


def test_associativity_violation_witness():
    bad = gen.mm(S2, 2, [(0, 0, 1, 1), (1, 0, 0, 1)])
    violation = check_structure(P(S2, "associative", {"mu": bad}))
    assert violation is not None
    assert violation.witness == (0, 0, 0)
    assert violation.axiom.startswith("associativity")
    # (e1 e1) e1 = e2 e1 = e1 while e1 (e1 e1) = 0
    assert violation.lhs == (Fraction(1), Fraction(0))
    assert violation.rhs == (Fraction(0), Fraction(0))


def test_skew_symmetry_reported_for_bad_table():
    bad = gen.mm(S2, 2, [(0, 1, 0, 1)])   # missing the (1,0) entry
    violation = check_structure(P(S2, "lie", {"bracket": bad}))
    assert violation is not None
    assert violation.axiom.startswith("skew-symmetry")


# -- every kind accepts valid instances and rejects corrupted ones ------------------

def _valid_instance(rng, kind):
    if kind == "associative":
        return P(S2, kind, {"mu": gen.NIL2})
    if kind == "assder":
        mu = gen.POLY3
        return P(S3, kind, {"mu": mu},
                 {"delta": gen.sample_derivation(rng, S3, (mu,))})
    if kind == "lie":
        return P(S3, kind, {"bracket": gen.SL2})
    if kind == "lieder":
        br = gen.HEIS3
        return P(S3, kind, {"bracket": br},
                 {"delta": gen.sample_derivation(rng, S3, (br,))})
    if kind == "prelie":
        return P(S2, kind, {"circ": gen.IDEM2})
    if kind == "prelieder":
        c = gen.NIL2
        return P(S2, kind, {"circ": c},
                 {"delta": gen.sample_derivation(rng, S2, (c,))})
    if kind == "zinbiel":
        return P(S3, kind, {"star": gen.ZIN3})
    if kind == "zinder":
        s = gen.ZIN2
        return P(S2, kind, {"star": s},
                 {"delta": gen.sample_derivation(rng, S2, (s,))})
    if kind == "dendriform":
        prec, succ = gen.zinbiel_split(gen.ZIN3)
        return P(S3, kind, {"prec": prec, "succ": succ})
    if kind == "dendrider":
        return gen.dendrider_instances(rng, 1)[0]
    if kind == "compatible-associative":
        m1, m2 = gen.compatible_assoc_products(rng)
        return P(m1.space, kind, {"mu1": m1, "mu2": m2})
    if kind == "compatible-assder":
        return gen.compatible_assder_instances(rng, 1)[0]
    if kind == "compatible-lie":
        b1, b2 = gen.compatible_lie_products(rng)
        return P(b1.space, kind, {"bracket1": b1, "bracket2": b2})
    if kind == "compatible-lieder":
        return gen.compatible_lieder_instances(rng, 1)[0]
    if kind == "compatible-prelie":
        q = gen.compatible_prelieder_instances(rng, 1)[0]
        return P(q.space, kind, {"circ1": q.products["circ1"],
                                 "circ2": q.products["circ2"]})
    if kind == "compatible-prelieder":
        return gen.compatible_prelieder_instances(rng, 1)[0]
    if kind == "compatible-zinbiel":
        q = gen.compatible_zinder_instances(rng, 1)[0]
        return P(q.space, kind, {"star1": q.products["star1"],
                                 "star2": q.products["star2"]})
    if kind == "compatible-zinder":
        return gen.compatible_zinder_instances(rng, 1)[0]
    if kind == "compatible-dendriform":
        q = gen.compatible_dendrider_instances(rng, 1)[0]
        return P(q.space, kind, {name: q.products[name]
                                 for name in ("prec1", "succ1", "prec2", "succ2")})
    if kind == "compatible-dendrider":
        return gen.compatible_dendrider_instances(rng, 1)[0]
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", KINDS)
def test_kind_passes_on_valid_instances(kind):
    rng = random.Random(SEED + zlib.crc32(kind.encode()) % 1000)
    for _ in range(3):
        p = _valid_instance(rng, kind)
        assert check_structure(p) is None, kind


def test_corrupted_instances_usually_fail_and_always_report_first_tuple():
    rng = random.Random(SEED + 1)
    flagged = 0
    for _ in range(40):
        base = _valid_instance(rng, rng.choice(
            ("associative", "lie", "zinbiel", "compatible-lieder",
             "compatible-assder")))
        bad = gen.corrupt(rng, base)
        violation = check_structure(bad)
        if violation is not None:
            flagged += 1
            assert isinstance(violation, Violation)
            assert violation.lhs != violation.rhs
    assert flagged > 25


def test_schema_validation():
    with pytest.raises(SchemaError):
        check_structure(P(S2, "no-such-kind", {"mu": gen.NIL2}))
    with pytest.raises(SchemaError):
        check_structure(P(S2, "associative", {"wrong": gen.NIL2}))
    with pytest.raises(SchemaError):
        check_structure(P(S2, "associative", {"mu": gen.NIL2},
                          {"delta": MultiMap.zero(S2, 1)}))
    with pytest.raises(SchemaError):
        check_structure(P(S2, "assder", {"mu": MultiMap.zero(S2, 1)},
                          {"delta": MultiMap.zero(S2, 1)}))
    with pytest.raises(SchemaError, match="product 'mu' lives on a different space"):
        check_structure(P(S2, "associative", {"mu": MultiMap.zero(S3, 2)}))
    with pytest.raises(SchemaError, match="derivation 'delta' lives on a different space"):
        check_structure(P(S2, "assder", {"mu": gen.NIL2}, {"delta": MultiMap.zero(S3, 1)}))
    with pytest.raises(SchemaError, match="derivation 'delta' must be linear"):
        check_structure(P(S2, "assder", {"mu": gen.NIL2}, {"delta": gen.NIL2}))


def test_a_presentation_holds_only_multimaps():
    # Lie brackets are full bilinear tables: an AltMap holds only the
    # increasing keys, which a complex antisymmetrizing it again would halve
    space = Space.of_dim(3)
    bracket = MultiMap(space, 2, {((0, 1), 2): 1, ((1, 0), 2): -1})
    delta = MultiMap(space, 1, {((0,), 0): 1, ((1,), 1): 1, ((2,), 2): 2})
    p = P(space, "lieder", {"bracket": bracket}, {"delta": delta})
    assert check_structure(p) is None
    c = DerCochain(AltMap(space, 1, {((0,), 0): 1}), None)
    assert lieder_d(p, c).top == AltMap(space, 2, {((0, 1), 2): 1})
    for bad in (P(space, "lieder", {"bracket": AltMap.from_multimap(bracket)},
                  {"delta": delta}),
                P(space, "lieder", {"bracket": bracket},
                  {"delta": AltMap(space, 1, delta.coeffs)}),
                P(space, "lie", {"bracket": bracket.coeffs})):
        with pytest.raises(SchemaError, match="must be a MultiMap"):
            check_structure(bad)
        with pytest.raises(SchemaError, match="must be a MultiMap"):
            cohomology(ComplexSpec("chevalley-eilenberg", bad, 1))


def test_operators_and_morphisms_are_linear_multimaps():
    p = P(S2, "associative", {"mu": gen.NIL2})
    for op in (MultiMap.zero(S3, 1), gen.NIL2, AltMap.identity(S2)):
        with pytest.raises(ShapeError, match="operator must be a linear endomorphism"):
            check_operator(p, op, "derivation")
    for phi in (gen.NIL2, AltMap.identity(S2)):
        with pytest.raises(ShapeError, match="a morphism is a linear map"):
            check_morphism(p, p, phi)
    q = P(S3, "associative", {"mu": MultiMap.zero(S3, 2)})
    for src, dst, phi in ((p, q, MultiMap.identity(S2)), (p, p, MultiMap.identity(S3))):
        with pytest.raises(ShapeError, match="morphism must map the source space"):
            check_morphism(src, dst, phi)


def test_kind_shape_table():
    assert kind_shape("compatible-dendrider") == (
        ("prec1", "succ1", "prec2", "succ2"), ("delta1", "delta2"))
    assert kind_shape("lieder") == (("bracket",), ("delta",))


# -- linear-combination closure ------------------------------------------------------

def test_self_pair_is_compatible_associative():
    rng = random.Random(SEED + 2)
    for mu in gen.ASSOCIATIVE_CATALOG:
        assert check_structure(
            P(mu.space, "compatible-associative", {"mu1": mu, "mu2": mu})) is None
    for _ in range(10):
        p = _valid_instance(rng, "associative")
        mu = p.products["mu"]
        assert check_structure(
            P(mu.space, "compatible-associative", {"mu1": mu, "mu2": mu})) is None


def test_compatible_assder_sum_is_assder():
    rng = random.Random(SEED + 3)
    from derpair.constructions import dendrify
    for p in gen.compatible_assder_instances(rng, 50):
        combined = dendrify(p, "linear-combine")
        assert check_structure(combined) is None


def test_compatible_lieder_sum_is_lieder():
    rng = random.Random(SEED + 4)
    from derpair.constructions import dendrify
    for p in gen.compatible_lieder_instances(rng, 50):
        combined = dendrify(p, "linear-combine")
        assert check_structure(combined) is None


def test_general_combinations_on_strong_pairs():
    # When each derivation is a derivation of both brackets, every coefficient
    # choice yields a valid pair (see the combination counterexample below for
    # why the definitional cross-sum alone is not enough).
    rng = random.Random(SEED + 5)
    from derpair.constructions import dendrify
    produced = 0
    while produced < 50:
        b1, b2 = gen.compatible_lie_products(rng)
        basis = gen.strong_der_basis(b1.space, (b1,), (b2,))
        d1 = gen.operator_from_vector(
            b1.space, gen.sample_from_basis(rng, basis, b1.space.dimension ** 2))
        d2 = gen.operator_from_vector(
            b1.space, gen.sample_from_basis(rng, basis, b1.space.dimension ** 2))
        p = P(b1.space, "compatible-lieder",
              {"bracket1": b1, "bracket2": b2},
              {"delta1": d1, "delta2": d2})
        if check_structure(p) is not None:
            continue
        produced += 1
        coefficients = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        combined = dendrify(p, "linear-combine", coefficients)
        assert check_structure(combined) is None


def test_combination_counterexample_with_cross_sum_only():
    # Valid compatible pair whose individual cross-derivation defects are
    # nonzero: only their sum vanishes, so one-sided coefficient choices break.
    from derpair.constructions import dendrify
    d1 = gen.mm(S2, 1, [(0, 0, 1)])
    d2 = gen.mm(S2, 1, [(0, 1, 1)])
    p = P(S2, "compatible-lieder",
          {"bracket1": gen.AFF2A, "bracket2": gen.AFF2B},
          {"delta1": d1, "delta2": d2})
    assert check_structure(p) is None
    assert check_structure(dendrify(p, "linear-combine")) is None
    broken = dendrify(p, "linear-combine", (0, 1, 1, 0))
    assert check_structure(broken) is not None


def test_compatible_prelieder_combinations():
    rng = random.Random(SEED + 6)
    from derpair.constructions import dendrify
    for p in gen.compatible_prelieder_instances(rng, 25):
        assert check_structure(dendrify(p, "linear-combine")) is None


def test_compatible_zinbiel_exchange_identity():
    # x*1(z*2 y) + x*2(z*1 y) = z*1(x*2 y) + z*2(x*1 y) on compatible pairs
    rng = random.Random(SEED + 7)
    for p in gen.compatible_zinder_instances(rng, 20):
        s1, s2 = p.products["star1"], p.products["star2"]
        d = p.space.dimension
        for t in itertools.product(range(d), repeat=3):
            x, y, z = (p.space.basis_vector(i) for i in t)
            lhs = [a + b for a, b in zip(
                s1.apply([x, s2.apply([z, y])]), s2.apply([x, s1.apply([z, y])]))]
            rhs = [a + b for a, b in zip(
                s1.apply([z, s2.apply([x, y])]), s2.apply([z, s1.apply([x, y])]))]
            assert lhs == rhs


# -- cross-module consistency -----------------------------------------------------

def test_assder_check_matches_bracket_conditions():
    rng = random.Random(SEED + 8)
    for _ in range(40):
        mu = (gen.ASSOCIATIVE_CATALOG[rng.randrange(len(gen.ASSOCIATIVE_CATALOG))]
              if rng.random() < 0.5 else gen.rand_multimap(rng, S2, 2, entries=3))
        delta = (gen.sample_derivation(rng, mu.space, (mu,))
                 if rng.random() < 0.5 else gen.rand_multimap(rng, mu.space, 1))
        passes = check_structure(
            P(mu.space, "assder", {"mu": mu}, {"delta": delta})) is None
        bracket_zero = (gerstenhaber(mu, mu).is_zero()
                        and gerstenhaber(mu, delta).is_zero())
        assert passes == bracket_zero


def test_lieder_check_matches_pair_bracket():
    rng = random.Random(SEED + 9)
    for _ in range(40):
        base = gen.LIE_CATALOG[rng.randrange(len(gen.LIE_CATALOG))]
        br = base if rng.random() < 0.5 else gen.rand_skew_multimap(rng, S3)
        delta = (gen.sample_derivation(rng, br.space, (br,))
                 if rng.random() < 0.5 else gen.rand_multimap(rng, br.space, 1))
        passes = check_structure(
            P(br.space, "lieder", {"bracket": br}, {"delta": delta})) is None
        w = AltMap.from_multimap(br)
        pair = DerCochain(w, AltMap(br.space, 1, dict(delta.coeffs)))
        assert passes == dc_bracket(pair, pair).is_zero()


# -- morphisms ----------------------------------------------------------------------

def test_morphism_identity_and_zero():
    rng = random.Random(SEED + 10)
    p = _valid_instance(rng, "zinder")
    ident = MultiMap.identity(p.space)
    zero = MultiMap.zero(p.space, 1)
    assert check_morphism(p, p, ident) is None
    assert check_morphism(p, p, zero) is None


def test_morphism_scaling_violation():
    delta = MultiMap.zero(S2, 1)
    p = P(S2, "zinder", {"star": gen.ZIN2}, {"delta": delta})
    phi = gen.mm(S2, 1, [(0, 0, 1), (1, 1, 2)])   # diag(1,2)
    violation = check_morphism(p, p, phi)
    assert violation is not None
    assert violation.witness == (0, 0)
    # phi(e1*e1) = 2 e2 but phi(e1)*phi(e1) = e2
    assert violation.lhs == (Fraction(0), Fraction(2))
    assert violation.rhs == (Fraction(0), Fraction(1))


def test_morphism_kind_mismatch():
    p = P(S2, "zinbiel", {"star": gen.ZIN2})
    q = P(S2, "prelie", {"circ": gen.ZIN2})
    with pytest.raises(SchemaError):
        check_morphism(p, q, MultiMap.identity(S2))


# -- operators -----------------------------------------------------------------------

def test_zero_operator_roles():
    rng = random.Random(SEED + 11)
    zero2 = MultiMap.zero(S2, 1)
    p = _valid_instance(rng, "zinder")
    assert check_operator(p, MultiMap.zero(p.space, 1), "derivation") is None
    lie = P(S2, "lie", {"bracket": gen.AFF2A})
    assert check_operator(lie, zero2, "rota-baxter", 0) is None


def test_rota_baxter_lie_example():
    lie = P(S2, "lie", {"bracket": gen.AFF2A})
    r = gen.mm(S2, 1, [(1, 0, 1)])    # R(e1)=0, R(e2)=e1
    assert check_operator(lie, r, "rota-baxter", 0) is None


def test_rota_baxter_weighted():
    # R = -id is a weight-1 Rota-Baxter operator on any associative algebra:
    # mu(x,y) - mu(x,y) = R(-2 mu(x,y)) = 2 mu(x,y)? no; use R = 0 and weight.
    assoc = P(S2, "associative", {"mu": gen.NIL2})
    assert check_operator(assoc, MultiMap.zero(S2, 1), "rota-baxter",
                          Fraction(3)) is None
    # -id has weight 1: lhs mu(x,y) + 1*(-mu(x,y)) = 0 = R(-2mu) applied? -(-2mu)=2mu, no
    violation = check_operator(assoc, MultiMap.identity(S2).scale(-1),
                               "rota-baxter", Fraction(1))
    assert violation is not None


def test_unsupported_roles():
    p = P(S2, "zinbiel", {"star": gen.ZIN2})
    with pytest.raises(UnsupportedRoleError):
        check_operator(p, MultiMap.zero(S2, 1), "rota-baxter", 0)
    with pytest.raises(UnsupportedRoleError):
        check_operator(p, MultiMap.zero(S2, 1), "nijenhuis")
    lie = P(S2, "lie", {"bracket": gen.AFF2A})
    with pytest.raises(UnsupportedRoleError):
        check_operator(lie, MultiMap.zero(S2, 1), "nijenhuis")
    with pytest.raises(UnsupportedRoleError):
        check_operator(lie, MultiMap.zero(S2, 1), "no-such-role")


def test_nijenhuis_role():
    assoc = P(S3, "associative", {"mu": gen.POLY3})
    shift = gen.mm(S3, 1, [(0, 1, 1), (1, 2, 1)])
    assert check_operator(assoc, shift, "nijenhuis") is None
    bad = gen.mm(S3, 1, [(0, 0, 1)])   # diag(1,0,0)
    assert check_operator(assoc, bad, "nijenhuis") is not None


def test_idempotent_role_checks_commutation():
    rng = random.Random(SEED + 12)
    p = gen.compatible_assder_instances(rng, 1)[0]
    ident = MultiMap.identity(p.space)
    assert check_operator(p, ident, "idempotent-endomorphism") is None
    assert check_operator(p, ident.scale(2), "idempotent-endomorphism") is not None


def test_compatible_rota_baxter_requires_commutation():
    d1 = gen.mm(S2, 1, [(0, 0, 1), (0, 1, 1), (1, 1, 2)])
    p = P(S2, "compatible-assder", {"mu1": gen.NIL2, "mu2": gen.NIL2.scale(2)},
          {"delta1": d1, "delta2": d1.scale(2)})
    assert check_structure(p) is None
    r = gen.mm(S2, 1, [(0, 1, 1)])    # R(e1)=e2, R(e2)=0
    plain = P(S2, "associative", {"mu": gen.NIL2})
    assert check_operator(plain, r, "rota-baxter", 0) is None
    violation = check_operator(p, r, "rota-baxter", 0)
    assert violation is not None
    assert violation.axiom.startswith("commutes")


# -- the derivation linear system -----------------------------------------------------

def test_derivation_system_kernel_members_are_derivations():
    rng = random.Random(SEED + 13)
    from oracles import derivation_defect
    for prod in (gen.NIL2, gen.POLY3, gen.SL2, gen.ZIN3):
        basis = nullspace(derivation_system(prod.space, [prod]))
        for vec in basis:
            op = gen.operator_from_vector(prod.space, vec)
            assert derivation_defect(op, prod) is None
        # random combinations stay derivations
        for _ in range(5):
            op = gen.sample_derivation(rng, prod.space, (prod,))
            assert derivation_defect(op, prod) is None


def test_zinder_derivation_family_matches_parameter_count():
    # derivations of e1*e1=e2 form the two-parameter family found by solving
    # the linear system
    basis = nullspace(derivation_system(S2, [gen.ZIN2]))
    assert len(basis) == 2


def test_derivation_systems_match_dense_oracles():
    rng = random.Random(SEED + 14)
    catalog = (gen.ASSOCIATIVE_CATALOG + gen.LIE_CATALOG + gen.ZINBIEL_CATALOG
               + tuple(prod for pair in gen.DENDRIFORM_CATALOG for prod in pair))
    checked = 0
    for space in (S2, S3):
        products = [prod for prod in catalog if prod.space == space]
        products += [gen.rand_rational_map(rng, MultiMap, space, 2, False)
                     for _ in range(3)]
        for _ in range(6):
            first = rng.sample(products, rng.randint(1, 2))
            second = rng.sample(products, rng.randint(1, 2))
            assert derivation_system(space, first) == \
                derivation_system_oracle(space, first)
            assert cross_derivation_system(space, first, second) == \
                cross_derivation_system_oracle(space, first, second)
            checked += 1
        # no products: no rows, over the same columns
        for first, second in (([], []), ([], products[:1]), (products[:1], [])):
            assert derivation_system(space, first) == \
                derivation_system_oracle(space, first)
            assert cross_derivation_system(space, first, second) == \
                cross_derivation_system_oracle(space, first, second)
    assert checked == 12


def test_cross_derivation_system_without_products():
    # no products impose nothing: every pair (delta1, delta2) is a solution
    m = cross_derivation_system(S3, [], [])
    assert (m.rows, m.cols) == (0, 18)
    assert len(nullspace(m)) == 18


def test_derivation_system_without_products():
    # as for the pair: no rows, and every delta is a solution
    m = derivation_system(S3, [])
    assert (m.rows, m.cols) == (0, 9)
    assert len(nullspace(m)) == 9


def test_cross_derivation_system_builds_each_product_block_once(monkeypatch):
    # an aligned product enters two blocks of rows, under its own unknown and
    # under the other one in the cross identity; its block is built once
    built = []

    def counting(x, k):
        built.append((x, k))
        return _ad_block(x, k)

    monkeypatch.setattr(cochains, "_ad_block", counting)
    first, second = [gen.NIL2, gen.AFF2B], [gen.AFF2A]
    m = cross_derivation_system(S2, first, second)
    assert m == cross_derivation_system_oracle(S2, first, second)
    assert sorted(built, key=repr) == sorted(((x, 1) for x in first + second), key=repr)


def test_fingerprint_changes_with_content():
    p = P(S2, "associative", {"mu": gen.NIL2})
    q = P(S2, "associative", {"mu": gen.NIL2.scale(2)})
    assert fingerprint(p) != fingerprint(q)
    assert fingerprint(p) == fingerprint(
        P(S2, "associative", {"mu": gen.mm(S2, 2, [(0, 0, 1, 1)])}))


# -- residual tensors against the per-tuple checkers ------------------------------

def _graded_presentation(kind, d, rng):
    """A valid instance of kind on d basis vectors, rescaled rationally.

    e_i has degree i+1 and every product is e_i e_j = c_ij e_{i+j+1} below d:
    the nilpotent associative algebra, the Witt pre-Lie product x^a d o x^b d
    and its commutator, the half-shuffle zinbiel product and its dendriform
    split.  The grading is a derivation of all of them, and a compatible pair
    is (P, cP).  The basis is then rescaled by random rationals.
    """
    space = Space.of_dim(d)
    info = KIND_INFO[kind]
    coefficient = {
        "associative": lambda i, j: 1,
        "prelie": lambda i, j: j + 2,
        "lie": lambda i, j: j - i,
        "zinbiel": lambda i, j: comb(i + j + 1, i + 1),
    }
    family = "zinbiel" if info.family == "dendriform" else info.family

    def graded(scale):
        table = {((i, j), i + j + 1): scale * coefficient[family](i, j)
                 for i in range(d) for j in range(d) if i + j + 1 < d}
        star = MultiMap(space, 2, table)
        if info.family == "dendriform":
            return dict(zip(("prec", "succ"), gen.zinbiel_split(star)))
        return {_FAMILY_PRODUCTS[info.family][0]: star}

    grading = gen.mm(space, 1, [(i, i, i + 1) for i in range(d)])
    if info.compatible:
        c = rng.choice((-2, 3, Fraction(1, 2)))
        products = {f"{name}{i}": m for i, scale in (("1", 1), ("2", c))
                    for name, m in graded(scale).items()}
        derivations = {"delta1": grading, "delta2": grading.scale(c)}
    else:
        products, derivations = graded(1), {"delta": grading}
    if not info.with_derivation:
        derivations = {}
    scales = [rng.choice((1, -1)) * gen.rand_rational(rng, 4) or Fraction(1)
              for _ in range(d)]
    return _rescaled(P(space, kind, products, derivations), scales)


def _rescaled(p, scales):
    """Image of p under the basis change e_i -> scales[i] e_i."""
    def move(m):
        table = {}
        for (args, out), value in m.coeffs.items():
            for a in args:
                value /= scales[a]
            table[(args, out)] = value * scales[out]
        return MultiMap(p.space, m.arity, table)
    return P(p.space, p.kind, {n: move(m) for n, m in p.products.items()},
             {n: move(m) for n, m in p.derivations.items()})


def _perturbed(rng, p):
    """p with one map plus a sparse random rational map (skew for brackets)."""
    maps = {**p.products, **p.derivations}
    target = rng.choice(sorted(maps))
    m = maps[target]
    if target.startswith("bracket") and rng.random() < 0.5:
        extra = gen.rand_rational_map(rng, AltMap, p.space, 2, False).to_multimap()
    else:
        extra = gen.rand_rational_map(rng, MultiMap, p.space, m.arity, False)
    group = dict(p.products if target in p.products else p.derivations)
    group[target] = m + extra
    if target in p.products:
        return P(p.space, p.kind, group, p.derivations)
    return P(p.space, p.kind, p.products, group)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except UnsupportedRoleError as exc:
        return f"UnsupportedRoleError: {exc}"


def test_check_structure_matches_per_tuple_oracle_all_kinds():
    rng = random.Random(SEED + 7)
    failures = 0
    for kind in KINDS:
        for d in range(1, 6):
            clean = _graded_presentation(kind, d, rng)
            cases = [clean, _perturbed(rng, clean), _perturbed(rng, clean)]
            if d <= 3:
                cases.append(_valid_instance(rng, kind))
            for p in cases:
                expected = check_structure_oracle(p)
                assert repr(check_structure(p)) == repr(expected), (kind, d)
                failures += expected is not None
            assert check_structure(clean) is None, (kind, d)
    assert failures > 100


def _operators(rng, p):
    d = p.space.dimension
    grading = gen.mm(p.space, 1, [(i, i, i + 1) for i in range(d)])
    ops = [MultiMap.zero(p.space, 1), MultiMap.identity(p.space),
           MultiMap.identity(p.space).scale(Fraction(-3, 2)), grading,
           gen.rand_rational_map(rng, MultiMap, p.space, 1, False),
           gen.rand_rational_map(rng, MultiMap, p.space, 1, True)]
    ops += [op + gen.rand_rational_map(rng, MultiMap, p.space, 1, False)
            for op in ops[1:4]]
    return ops


def test_check_operator_matches_per_tuple_oracle_every_role():
    rng = random.Random(SEED + 8)
    roles = (("derivation", 0), ("rota-baxter", 0), ("rota-baxter", Fraction(-2, 3)),
             ("nijenhuis", 0), ("idempotent-endomorphism", 0), ("no-such-role", 0))
    passes = failures = refusals = 0
    for kind in KINDS:
        for d in (1, 2, 4):
            p = _graded_presentation(kind, d, rng)
            for op in _operators(rng, p):
                for role, weight in roles:
                    expected = _outcome(check_operator_oracle, p, op, role, weight)
                    assert _outcome(check_operator, p, op, role, weight) == expected, \
                        (kind, d, role, weight)
                    passes += expected == "None"
                    refusals += expected.startswith("Unsupported")
                    failures += expected.startswith("Violation")
    # searched operators that satisfy their role on the catalog algebras
    for p, r_op in gen.rb_ready_assder_instances(rng, 3) + gen.rb_ready_lieder_instances(rng, 3):
        for op in (r_op, r_op + MultiMap.identity(p.space)):
            expected = repr(check_operator_oracle(p, op, "rota-baxter"))
            assert repr(check_operator(p, op, "rota-baxter")) == expected
            passes += expected == "None"
    for mu, n_op in gen.nijenhuis_ready_instances(rng, 4):
        host = P(mu.space, "associative", {"mu": mu})
        expected = repr(check_operator_oracle(host, n_op, "nijenhuis"))
        assert expected == "None"
        assert repr(check_operator(host, n_op, "nijenhuis")) == expected
    for p, t_op in gen.endo_ready_instances(rng, 3):
        for op in (t_op, t_op.scale(2)):
            expected = repr(check_operator_oracle(p, op, "idempotent-endomorphism"))
            assert repr(check_operator(p, op, "idempotent-endomorphism")) == expected
    host = P(S2, "associative", {"mu": gen.NIL2})
    for weight in (1, -1):
        found = gen.rota_baxter_search(S2, (gen.NIL2,), weight)
        assert found
        for op in found[:8]:
            expected = repr(check_operator_oracle(host, op, "rota-baxter", weight))
            assert expected == "None"
            assert repr(check_operator(host, op, "rota-baxter", weight)) == expected
    assert passes > 50 and failures > 500 and refusals > 50
    with pytest.raises(UnsupportedRoleError, match="weight 0 only"):
        check_operator(_graded_presentation("dendriform", 3, rng),
                       MultiMap.zero(Space.of_dim(3), 1), "rota-baxter", 1)


def test_check_morphism_matches_per_tuple_oracle():
    rng = random.Random(SEED + 9)
    outcomes = set()
    for kind in KINDS:
        for d in (1, 3, 5):
            src = _graded_presentation(kind, d, rng)
            scales = [gen.rand_rational(rng, 4) or Fraction(3) for _ in range(d)]
            dst = _rescaled(src, scales)
            phi = MultiMap(src.space, 1, {((i,), i): s for i, s in enumerate(scales)})
            for target, image in ((dst, phi), (_perturbed(rng, dst), phi),
                                  (dst, phi + gen.rand_rational_map(
                                      rng, MultiMap, src.space, 1, False))):
                expected = check_morphism_oracle(src, target, image)
                assert repr(check_morphism(src, target, image)) == repr(expected)
                outcomes.add(expected is None)
            assert check_morphism(src, dst, phi) is None
    assert outcomes == {True, False}


def _named(formula):
    """{map name: arity} and the scalar names of a formula's parsed terms."""
    arities, scalars = {}, set()

    def walk(node):
        arities[node[0]] = len(node[1])
        for child in node[1]:
            if not isinstance(child, int):
                walk(child[1])      # (slot, inner tree)

    for _, scalar, node, _ in _parse(formula):
        walk(node)
        scalars.add(scalar)
    return arities, scalars - {None}


def _formula_maps(rng, space, arities, scalars, case):
    # "sparse": seeded sparse rational maps; "zero": every map zero;
    # "cancel": every value +-1 on every key, and a map named with suffix 2
    # the negative of its suffix-1 twin, so sums inside and across terms cancel
    maps = {}
    for name, arity in sorted(arities.items()):
        if case == "zero":
            maps[name] = MultiMap.zero(space, arity)
        elif case == "sparse":
            maps[name] = gen.rand_rational_map(rng, MultiMap, space, arity, False)
        else:
            maps[name] = MultiMap(space, arity, {
                (args, out): rng.choice((1, -1))
                for args in itertools.product(range(space.dimension), repeat=arity)
                for out in range(space.dimension)})
    if case == "cancel":
        for name in arities:
            if name.endswith("2") and name[:-1] + "1" in maps:
                maps[name] = maps[name[:-1] + "1"].scale(-1)
    # scalars, the Rota-Baxter weight w among them, are nonzero
    maps.update({name: gen.rand_rational(rng) or Fraction(-2, 3) for name in scalars})
    return maps


def test_evaluate_matches_dense_formula_oracle_on_every_table_formula():
    # whole tables, not only a first violation: every side of every axiom and
    # every transfer formula, evaluated by substituting inner trees slot by
    # slot, equals the same parsed tree applied one basis tuple at a time
    rng = random.Random(SEED + 10)
    cases = {1: ("sparse", "zero"), 2: ("sparse", "cancel"), 3: ("sparse", "cancel"),
             4: ("sparse",)}
    # every table side holding a 3-cycle of its variables holds the inverse
    # cycle too, on the same tree, so lone 3-cycles pin the reordering's sense
    formulas = list(table_formulas()) + [("3-cycle", "mu(mu(x1,x2),x0)", 3),
                                         ("3-cycle", "w*mu(x2,mu(x0,x1))", 3)]
    cancelled = 0
    for where, formula, arity in formulas:
        arities, scalars = _named(formula)
        for d, kinds in cases.items():
            space = Space.of_dim(d)
            for case in kinds:
                maps = _formula_maps(rng, space, arities, scalars, case)
                got = evaluate(space, formula, arity, maps).coeffs
                assert got == formula_oracle(space, formula, arity, maps), (where, d, case)
                cancelled += not got and case == "cancel" and formula != "0"
    # the twins' terms cancel to an empty table on some formulas
    assert len(formulas) > 60 and cancelled > 4
