import itertools
import json
import random
from fractions import Fraction
from math import lcm

import pytest

from derpair import cochains
from derpair import cohomology as co
from derpair import files
from derpair.brackets import gerstenhaber, nijenhuis_richardson
from derpair.cochains import (AltMap, CompatCochain, DerCochain, MultiMap, _ad_block,
                              circle_g, circle_nr, dense_coords, sparse_coords)
from derpair.errors import (DegreeBudgetError, InvalidStructureError, SchemaError,
                            ShapeError)
from derpair.linalg import Matrix, Space, compose, nullspace, rank
from derpair.structures import Presentation, check_structure, kind_shape

import gen
from oracles import (antisymmetrizer_oracle, ce_face_d, circle_g_oracle, circle_nr_oracle,
                     compat_pair_d_oracle, der_D_oracle, der_pair_d_oracle,
                     hochschild_face_d, map_d_oracle, sparse_product_oracle, sparse_rows,
                     staircase_d_oracle, weight0_images)
from test_linalg import _assert_matches_oracles, _catalog_complexes, _degree0_images

S1 = Space.of_dim(1)
S2 = Space.of_dim(2)
S3 = Space.of_dim(3)

SEED = 606


def P(space, kind, products, derivations=None):
    return Presentation(space, products, derivations or {}, kind)


def alt_op(m):
    return AltMap(m.space, 1, dict(m.coeffs))


# -- the derivation insertion operator ---------------------------------------------

def test_der_D_zero_operator():
    rng = random.Random(SEED)
    f = gen.rand_multimap(rng, S2, 2)
    assert co.der_D(MultiMap.zero(S2, 1), f).is_zero()


def test_der_D_on_identity_cochain():
    delta = gen.mm(S2, 1, [(0, 0, 1), (0, 1, 1), (1, 1, 2)])
    assert co.der_D(delta, MultiMap.identity(S2)).is_zero()
    assert co.der_D(delta, AltMap.identity(S2)).is_zero()


def test_der_D_of_product_is_derivation_defect():
    delta = gen.mm(S2, 1, [(0, 0, 1), (0, 1, 1), (1, 1, 2)])
    assert co.der_D(delta, gen.NIL2).is_zero()      # delta is a derivation
    not_der = MultiMap.identity(S2)
    assert not co.der_D(not_der, gen.NIL2).is_zero()


def test_der_D_equals_bracket_with_operator():
    rng = random.Random(SEED + 1)
    for _ in range(30):
        delta = gen.rand_multimap(rng, S2, 1)
        f = gen.rand_multimap(rng, S2, rng.randint(1, 3))
        assert co.der_D(delta, f) == gerstenhaber(delta, f).scale(-1)
    for _ in range(30):
        delta = gen.rand_multimap(rng, S3, 1)
        f = gen.rand_altmap(rng, S3, rng.randint(1, 3))
        assert co.der_D(delta, f) == \
            nijenhuis_richardson(alt_op(delta), f).scale(-1)


# -- single-structure coboundaries ---------------------------------------------------

def test_hochschild_d_zero_product():
    rng = random.Random(SEED + 2)
    zero = MultiMap.zero(S2, 2)
    for _ in range(5):
        f = gen.rand_multimap(rng, S2, rng.randint(1, 3))
        assert co.hochschild_d(zero, f).is_zero()


def test_hochschild_d_of_identity():
    assert co.hochschild_d(gen.NIL2, MultiMap.identity(S2)) == gen.NIL2


def test_hochschild_d_squares_to_zero_and_matches_face_formula():
    rng = random.Random(SEED + 3)
    for mu in (gen.NIL2, gen.IDEM2, gen.POLY3, gen.UNITAL3):
        for _ in range(6):
            f = gen.rand_multimap(rng, mu.space, rng.randint(1, 3))
            df = co.hochschild_d(mu, f)
            assert co.hochschild_d(mu, df).is_zero()
            assert df == hochschild_face_d(mu, f)


def test_hochschild_d_rejects_nonassociative():
    bad = gen.mm(S2, 2, [(0, 0, 1, 1), (1, 0, 0, 1)])
    with pytest.raises(InvalidStructureError):
        co.hochschild_d(bad, MultiMap.identity(S2))


def test_ce_d_matches_classical_formula():
    rng = random.Random(SEED + 4)
    for br in (gen.AFF2A, gen.HEIS3, gen.SL2):
        w = AltMap.from_multimap(br)
        for _ in range(6):
            f = gen.rand_altmap(rng, br.space, rng.randint(1, 3))
            df = co.ce_d(w, f)
            assert df == ce_face_d(w, f)
            assert co.ce_d(w, df).is_zero()


def test_ce_d_zero_and_abelian():
    f1 = AltMap.identity(S1)
    assert co.ce_d(AltMap.zero(S1, 2), f1).is_zero()
    rng = random.Random(SEED + 5)
    f = gen.rand_altmap(rng, S3, 2)
    assert co.ce_d(AltMap.zero(S3, 2), f).is_zero()


# -- derivation-pair complexes ----------------------------------------------------------

def _assder_instance(rng):
    mu = gen.ASSOCIATIVE_CATALOG[rng.randrange(len(gen.ASSOCIATIVE_CATALOG))]
    delta = gen.sample_derivation(rng, mu.space, (mu,))
    return P(mu.space, "assder", {"mu": mu}, {"delta": delta})


def _lieder_instance(rng):
    br = gen.LIE_CATALOG[rng.randrange(len(gen.LIE_CATALOG))]
    delta = gen.sample_derivation(rng, br.space, (br,))
    return P(br.space, "lieder", {"bracket": br}, {"delta": delta})


def test_assder_d_zero_cochain_and_dim1():
    rng = random.Random(SEED + 6)
    p = _assder_instance(rng)
    for degree in (1, 2, 3):
        zero = DerCochain.zero(p.space, degree, "multi")
        assert co.assder_d(p, zero).is_zero()
    trivial = P(S1, "assder", {"mu": MultiMap.zero(S1, 2)},
                {"delta": MultiMap.zero(S1, 1)})
    f = MultiMap.identity(S1)
    out = co.assder_d(trivial, DerCochain(f, None))
    assert out.is_zero()


def test_assder_d_squares_to_zero():
    rng = random.Random(SEED + 7)
    for _ in range(8):
        p = _assder_instance(rng)
        for degree in (1, 2):
            for b in DerCochain.basis(p.space, degree, "multi"):
                db = co.assder_d(p, b)
                assert co.assder_d(p, db).is_zero()


def test_lieder_d_matches_pair_bracket_form():
    from derpair.brackets import dc_bracket
    rng = random.Random(SEED + 8)
    for _ in range(30):
        p = _lieder_instance(rng)
        w = AltMap.from_multimap(p.products["bracket"])
        pair = DerCochain(w, alt_op(p.derivations["delta"]))
        degree = rng.randint(1, 3)
        c = DerCochain(gen.rand_altmap(rng, p.space, degree),
                       gen.rand_altmap(rng, p.space, degree - 1)
                       if degree > 1 else None)
        direct = co.lieder_d(p, c)
        via_bracket = dc_bracket(pair, c).scale((-1) ** (degree - 1))
        assert direct.top == via_bracket.top
        assert direct.shadow == via_bracket.shadow


def test_assder_d_matches_pair_bracket_form():
    from derpair.brackets import assder_bracket
    rng = random.Random(SEED + 18)
    for _ in range(30):
        p = _assder_instance(rng)
        pair = DerCochain(p.products["mu"], p.derivations["delta"])
        degree = rng.randint(1, 3)
        c = DerCochain(gen.rand_multimap(rng, p.space, degree),
                       gen.rand_multimap(rng, p.space, degree - 1)
                       if degree > 1 else None)
        direct = co.assder_d(p, c)
        via_bracket = assder_bracket(pair, c).scale((-1) ** (degree - 1))
        assert direct.top == via_bracket.top
        assert direct.shadow == via_bracket.shadow


# -- compatible complexes ----------------------------------------------------------------

def test_compat_assoc_d_degree_one_formula():
    rng = random.Random(SEED + 9)
    m1, m2 = gen.compatible_assoc_products(rng)
    p = P(m1.space, "compatible-associative", {"mu1": m1, "mu2": m2})
    f = gen.rand_multimap(rng, m1.space, 1)
    out = co.compat_assoc_d(p, (f,))
    assert out == (gerstenhaber(m1, f), gerstenhaber(m2, f))


def test_compat_assoc_d_zero_and_square():
    rng = random.Random(SEED + 10)
    for _ in range(6):
        m1, m2 = gen.compatible_assoc_products(rng)
        p = P(m1.space, "compatible-associative", {"mu1": m1, "mu2": m2})
        zero = tuple(MultiMap.zero(m1.space, 2) for _ in range(2))
        assert all(x.is_zero() for x in co.compat_assoc_d(p, zero))
        for degree in (1, 2):
            for slot in range(degree):
                for b in MultiMap.basis(m1.space, degree):
                    tup = tuple(b if i == slot else MultiMap.zero(m1.space, degree)
                                for i in range(degree))
                    first = co.compat_assoc_d(p, tup)
                    second = co.compat_assoc_d(p, first)
                    assert all(x.is_zero() for x in second)


def _dd_zero(p, d_fn, flavor, max_source_degree):
    for degree in range(1, max_source_degree + 1):
        for b in CompatCochain.basis(p.space, degree, flavor):
            if not d_fn(p, d_fn(p, b)).is_zero():
                return False
    return True


def test_cad_d_zero_cochains():
    rng = random.Random(SEED + 11)
    p = gen.compatible_assder_instances(rng, 1)[0]
    for degree in (1, 2):
        zero = CompatCochain.zero(p.space, degree, "multi")
        assert co.cad_d(p, zero).is_zero()


def test_cad_d_on_zero_structure():
    zero_op = MultiMap.zero(S2, 1)
    p = P(S2, "compatible-assder",
          {"mu1": MultiMap.zero(S2, 2), "mu2": MultiMap.zero(S2, 2)},
          {"delta1": zero_op, "delta2": zero_op})
    rng = random.Random(SEED + 17)
    f = gen.rand_multimap(rng, S2, 1)
    out = co.cad_d(p, CompatCochain([DerCochain(f, None)]))
    assert out.is_zero()


def test_cad_d_squares_to_zero():
    rng = random.Random(SEED + 12)
    count = 0
    while count < 8:
        p = gen.compatible_assder_instances(rng, 1)[0]
        if p.space.dimension > 2:
            continue
        count += 1
        assert _dd_zero(p, co.cad_d, "multi", 3)


def test_cad_last_shadow_sign_is_forced():
    # The alternative sign on the trailing [w2, g^n] term breaks d o d = 0, so
    # only the uniform minus is implemented: the package's d o d vanishes on
    # the basis cochains, and the oracle's with the flipped sign does not.
    d1 = gen.mm(S2, 1, [(0, 0, 1), (0, 1, 1), (1, 1, 2)])
    d2 = gen.mm(S2, 1, [(0, 0, 2), (0, 1, -1), (1, 1, 4)])
    p = P(S2, "compatible-assder",
          {"mu1": gen.NIL2, "mu2": gen.NIL2.scale(2)},
          {"delta1": d1, "delta2": d2})
    assert check_structure(p) is None

    def flipped(c):
        return compat_pair_d_oracle(c, gen.NIL2, gen.NIL2.scale(2), d1, d2, gerstenhaber,
                                    last_shadow_sign=+1)

    def dd_zero(d):
        return all(d(d(b)).is_zero() for degree in (1, 2, 3)
                   for b in CompatCochain.basis(S2, degree, "multi"))

    assert dd_zero(lambda c: co.cad_d(p, c))
    assert not dd_zero(flipped)


def _use_last_shadow_sign(monkeypatch, sign):
    """Set the sign of the trailing [P_1, shadow] term in the package's term table.

    That term maps the last in slot 2n-1 (the last part's shadow) to the last
    out slot 2n+1 of a compatible complex with a derivation; its sign is -1,
    and +1 (the displayed sources' sign) breaks d o d = 0.
    """
    terms = co._terms

    def patched(compatible, with_derivation, n):
        for out, coeff, x, slot in terms(compatible, with_derivation, n):
            last = (out, slot) == (2 * n + 1, 2 * n - 1)
            yield out, -sign * coeff if last else coeff, x, slot

    monkeypatch.setattr(co, "_terms", patched)


def test_cldp_d_degree_one_on_anchor_pair():
    zero = MultiMap.zero(S2, 1)
    p = P(S2, "compatible-lieder",
          {"bracket1": gen.AFF2A, "bracket2": gen.AFF2B},
          {"delta1": zero, "delta2": zero})
    rng = random.Random(SEED + 13)
    f = gen.rand_altmap(rng, S2, 1)
    out = co.cldp_d(p, CompatCochain([DerCochain(f, None)]))
    w1 = AltMap.from_multimap(gen.AFF2A)
    w2 = AltMap.from_multimap(gen.AFF2B)
    assert out.parts[0].top == nijenhuis_richardson(w1, f)
    assert out.parts[0].shadow.is_zero()
    assert out.parts[1].top == nijenhuis_richardson(w2, f)
    assert out.parts[1].shadow.is_zero()


def test_cldp_d_squares_to_zero():
    rng = random.Random(SEED + 14)
    for p in gen.compatible_lieder_instances(rng, 8):
        assert _dd_zero(p, co.cldp_d, "alt", 3)


# -- the double-bracket identities over a compatible pair --------------------------------

def test_double_bracket_identities():
    from oracles import double_bracket_identities_hold
    rng = random.Random(SEED + 15)
    for p in gen.compatible_lieder_instances(rng, 20):
        arity = rng.randint(1, 3)
        f = gen.rand_altmap(rng, p.space, arity)
        f2 = gen.rand_altmap(rng, p.space, arity)
        assert double_bracket_identities_hold(p, f, f2)


# -- full reports ---------------------------------------------------------------------

def test_lieder_cohomology_of_abelian_line():
    p = P(S1, "lieder", {"bracket": MultiMap.zero(S1, 2)},
          {"delta": MultiMap.zero(S1, 1)})
    report = co.cohomology(co.ComplexSpec("lieder", p, 2))
    assert report.dd_zero_certified
    assert report.degrees[0].dim_cochains == 0
    assert report.degrees[1].dim_cochains == 1
    assert report.degrees[1].dim_cohomology == 1


def test_cldp_cohomology_of_zero_structure():
    zero = MultiMap.zero(S1, 1)
    p = P(S1, "compatible-lieder",
          {"bracket1": MultiMap.zero(S1, 2), "bracket2": MultiMap.zero(S1, 2)},
          {"delta1": zero, "delta2": zero})
    report = co.cohomology(co.ComplexSpec("cldp", p, 2))
    assert report.dd_zero_certified
    for row in report.degrees:
        assert row.dim_cohomology == row.dim_cochains


def _oracle_cad_matrices(p, max_degree):
    """Dense assembly of the compatible pair coboundary via the oracle bracket."""
    def g_bracket(f, g):
        sign = (-1) ** ((f.arity - 1) * (g.arity - 1))
        return circle_g_oracle(f, g) - circle_g_oracle(g, f).scale(sign)

    space = p.space
    m1, m2 = p.products["mu1"], p.products["mu2"]
    d1, d2 = p.derivations["delta1"], p.derivations["delta2"]

    def d_of(parts):
        n = len(parts)
        sign = (-1) ** (n - 1)
        out = []
        for i in range(1, n + 2):
            top = MultiMap.zero(space, n + 1)
            shadow = MultiMap.zero(space, n)
            if 1 <= i - 1 <= n:
                prev_top, prev_shadow = parts[i - 2]
                top = top + g_bracket(m2, prev_top)
                if prev_shadow is not None:
                    shadow = shadow - g_bracket(m2, prev_shadow)
                shadow = shadow - g_bracket(prev_top, d2)
            if 1 <= i <= n:
                cur_top, cur_shadow = parts[i - 1]
                top = top + g_bracket(m1, cur_top)
                if cur_shadow is not None:
                    shadow = shadow - g_bracket(m1, cur_shadow)
                shadow = shadow - g_bracket(cur_top, d1)
            out.append((top.scale(sign), shadow.scale(sign)))
        return out

    def coords(parts):
        values = []
        for top, shadow in parts:
            values.extend(top.coords())
            if shadow is not None:
                values.extend(shadow.coords())
        return values

    def basis(n):
        for c in CompatCochain.basis(space, n, "multi"):
            yield [(part.top, part.shadow) for part in c.parts]

    matrices = {}
    for n in range(1, max_degree + 1):
        cols = [coords(d_of(b)) for b in basis(n)]
        rows = len(cols[0]) if cols else 0
        matrices[n] = Matrix(rows, len(cols),
                             tuple(col[i] for i in range(rows) for col in cols))
    return matrices


def test_cad_report_matches_dense_oracle():
    zero = MultiMap.zero(S2, 1)
    mu = gen.NIL2
    mu_n = mu.scale(2)    # deformed product of the integrable operator 2id+e21
    p = P(S2, "compatible-assder", {"mu1": mu, "mu2": mu_n},
          {"delta1": zero, "delta2": zero})
    report = co.cohomology(co.ComplexSpec("cad", p, 2))
    assert report.dd_zero_certified
    matrices = _oracle_cad_matrices(p, 2)
    expected_rank = {n: rank(m).rank for n, m in matrices.items()}
    for row in report.degrees:
        if row.degree == 0:
            assert row.dim_cochains == 0
            continue
        assert row.rank_d == expected_rank[row.degree]
        closed = row.dim_cochains - expected_rank[row.degree]
        exact = expected_rank.get(row.degree - 1, 0)
        assert row.dim_cohomology == closed - exact


def test_compatible_associative_degree_zero():
    # NIL2 is commutative, so both adjoint maps vanish on everything; IDEM2
    # has a zero center, so its adjoint is injective: with mu2 = mu1 every
    # vector is a 0-cochain, and with mu2 = -mu1 none is
    for mu1, mu2, dim0, rank0 in ((gen.NIL2, gen.NIL2.scale(2), 2, 0),
                                  (gen.IDEM2, gen.IDEM2, 2, 2),
                                  (gen.IDEM2, gen.IDEM2.scale(-1), 0, 0)):
        p = P(S2, "compatible-associative", {"mu1": mu1, "mu2": mu2})
        report = co.cohomology(co.ComplexSpec("compatible-associative", p, 2))
        assert report.dd_zero_certified
        assert report.degrees[0].dim_cochains == dim0
        assert report.degrees[0].rank_d == rank0


def test_hochschild_report_dims_match_face_formula_assembly():
    mu = gen.UNITAL3
    p = P(S3, "associative", {"mu": mu})
    report = co.cohomology(co.ComplexSpec("hochschild", p, 2))
    assert report.dd_zero_certified
    # unital algebra K[x]/x^3: center is everything, derivations x^k d/dx
    for n in (1, 2):
        cols = [hochschild_face_d(mu, b).coords()
                for b in MultiMap.basis(S3, n)]
        rows = len(cols[0])
        m = Matrix(rows, len(cols),
                   tuple(col[i] for i in range(rows) for col in cols))
        assert report.degrees[n].rank_d == rank(m).rank


def test_ce_cohomology_of_semisimple_algebra_vanishes():
    # adjoint module of sl2 is irreducible and nontrivial, so every group is 0
    p = P(S3, "lie", {"bracket": gen.SL2})
    report = co.cohomology(co.ComplexSpec("chevalley-eilenberg", p, 3))
    assert report.dd_zero_certified
    assert [row.dim_cohomology for row in report.degrees] == [0, 0, 0, 0]


def test_hochschild_cohomology_of_truncated_polynomials():
    # k[x]/x^3 in characteristic 0: center is everything, outer derivations
    # x d/dx and x^2 d/dx, then the classical periodic pattern
    # dim H^{2i} = dim A/(f') and dim H^{2i-1} = dim Ann(f') with f' = 3x^2
    p = P(S3, "associative", {"mu": gen.UNITAL3})
    report = co.cohomology(co.ComplexSpec("hochschild", p, 3))
    assert report.dd_zero_certified
    assert [row.dim_cohomology for row in report.degrees] == [3, 2, 2, 2]


def test_cohomology_budget_error():
    p = P(S3, "associative", {"mu": gen.POLY3})
    with pytest.raises(DegreeBudgetError):
        co.cohomology(co.ComplexSpec("hochschild", p, 3), budget=50)


def test_cohomology_invariant_under_basis_permutation():
    rng = random.Random(SEED + 16)
    p = _lieder_instance(rng)
    while p.space.dimension != 3 or p.products["bracket"].is_zero():
        p = _lieder_instance(rng)
    perm_rows = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    g = gen._matrix_op(S3, perm_rows)
    g_inv = gen._matrix_op(S3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    q = Presentation(
        S3,
        {"bracket": gen.conjugate_map(g, g_inv, p.products["bracket"])},
        {"delta": gen.conjugate_map(g, g_inv, p.derivations["delta"])},
        "lieder")
    r1 = co.cohomology(co.ComplexSpec("lieder", p, 2))
    r2 = co.cohomology(co.ComplexSpec("lieder", q, 2))
    assert [row.dim_cohomology for row in r1.degrees] == \
        [row.dim_cohomology for row in r2.degrees]


def test_cohomology_flavor_validation():
    p = P(S2, "lie", {"bracket": gen.AFF2A})
    with pytest.raises(SchemaError):
        co.cohomology(co.ComplexSpec("hochschild", p, 2))
    with pytest.raises(SchemaError):
        co.cohomology(co.ComplexSpec("unknown", p, 2))
    bad = P(S2, "associative", {"mu": gen.mm(S2, 2, [(0, 0, 1, 1), (1, 0, 0, 1)])})
    with pytest.raises(InvalidStructureError):
        co.cohomology(co.ComplexSpec("hochschild", bad, 2))


def test_compat_assoc_degree0_rejects_an_invalid_base():
    # mu1 is associative; under mu2, (e1 e1) e1 = e1 but e1 (e1 e1) = 0
    mu1 = gen.mm(S2, 2, [(0, 0, 0, 1)])
    mu2 = gen.mm(S2, 2, [(0, 0, 1, 1), (1, 0, 0, 1)])
    p = P(S2, "compatible-associative", {"mu1": mu1, "mu2": mu2})
    assert check_structure(p).axiom == "associativity(mu2)"
    with pytest.raises(InvalidStructureError, match=r"associativity\(mu2\)"):
        co.compat_assoc_degree0(p)


def test_a_malformed_presentation_is_a_schema_error_before_its_base_is_read():
    # the schema of p's own kind comes first: a compatible-assder without mu2
    # once reached its base products as a bare KeyError
    zero = MultiMap.zero(S2, 1)
    p = P(S2, "compatible-assder", {"mu1": gen.NIL2}, {"delta1": zero, "delta2": zero})
    missing = r"needs products \['mu1', 'mu2'\], got \['mu1'\]"
    with pytest.raises(SchemaError, match=missing):
        co.compat_assoc_d(p, (MultiMap.zero(S2, 1),))
    with pytest.raises(SchemaError, match=missing):
        co.compat_assoc_degree0(p)
    for flavor in ("compatible-associative", "cad"):
        with pytest.raises(SchemaError, match=missing):
            co._Complex(flavor, p)


def test_a_base_that_fails_its_axioms_names_the_first_violation():
    bad = gen.mm(S2, 2, [(0, 0, 1, 1), (1, 0, 0, 1)])
    message = "base fails associativity(mu) at (0, 0, 0)"
    for call in (lambda: co.hochschild_d(bad, MultiMap.zero(S2, 1)),
                 lambda: co.cohomology(co.ComplexSpec(
                     "hochschild", P(S2, "associative", {"mu": bad}), 2))):
        with pytest.raises(InvalidStructureError) as info:
            call()
        assert str(info.value) == message
        assert info.value.violation.axiom == "associativity(mu)"


# -- entry-driven D and the matrix certification of d o d ------------------------------

def test_der_D_matches_dense_oracle_both_flavors():
    rng = random.Random(SEED + 40)
    for d in range(1, 6):
        space = Space.of_dim(d)
        for full in (False, True):
            for arity in range(1, 4):
                delta = gen.rand_rational_map(rng, MultiMap, space, 1, full)
                for cls in (MultiMap, AltMap):
                    f = gen.rand_rational_map(rng, cls, space, arity, full)
                    assert co.der_D(delta, f) == der_D_oracle(delta, f)


def test_dd_certification_reports_the_flipped_last_shadow_sign(monkeypatch):
    d1 = gen.mm(S2, 1, [(0, 0, 1), (0, 1, 1), (1, 1, 2)])
    d2 = gen.mm(S2, 1, [(0, 0, 2), (0, 1, -1), (1, 1, 4)])
    p = P(S2, "compatible-assder",
          {"mu1": gen.NIL2, "mu2": gen.NIL2.scale(2)},
          {"delta1": d1, "delta2": d2})
    spec = co.ComplexSpec("cad", p, 3)
    assert co.cohomology(spec).dd_zero_certified
    _use_last_shadow_sign(monkeypatch, +1)
    assert not co.cohomology(spec).dd_zero_certified


# -- the term table against the per-shape differentials ------------------------------

def _term_table_instances(rng):
    for mu in gen.ASSOCIATIVE_CATALOG[:4]:
        yield "hochschild", P(mu.space, "associative", {"mu": mu})
    yield from (("assder", p) for p in gen.der_pair_instances(
        rng, 3, gen.ASSOCIATIVE_CATALOG, "assder", "mu"))
    for _ in range(2):
        m1, m2 = gen.compatible_assoc_products(rng)
        yield "compatible-associative", P(m1.space, "compatible-associative",
                                          {"mu1": m1, "mu2": m2})
    yield from (("cad", p) for p in gen.compatible_assder_instances(rng, 3))
    for br in gen.LIE_CATALOG[:4]:
        yield "chevalley-eilenberg", P(br.space, "lie", {"bracket": br})
    yield from (("lieder", p) for p in gen.der_pair_instances(
        rng, 3, gen.LIE_CATALOG, "lieder", "bracket"))
    yield from (("cldp", p) for p in gen.compatible_lieder_instances(rng, 3))


def _flat(cochain) -> tuple:
    """The slots of a map, a tuple of maps, a DerCochain or a CompatCochain."""
    if isinstance(cochain, CompatCochain):
        return tuple(f for part in cochain.parts for f in _flat(part))
    if isinstance(cochain, DerCochain):
        return _flat(cochain.top) + _flat(cochain.shadow)
    if cochain is None:
        return ()
    return tuple(cochain) if isinstance(cochain, tuple) else (cochain,)


def _public_and_oracle(flavor, p, cx, n, slots):
    """(public *_d of the slots, old per-shape differential of them)."""
    maps = cx.maps
    if flavor in ("hochschild", "chevalley-eilenberg"):
        bracket = gerstenhaber if flavor == "hochschild" else nijenhuis_richardson
        public = co.hochschild_d if flavor == "hochschild" else co.ce_d
        (f,) = slots
        return public(maps[0], f), map_d_oracle(bracket, maps[0], f)
    if flavor == "compatible-associative":
        return (co.compat_assoc_d(p, slots),
                staircase_d_oracle(*maps, slots, gerstenhaber))
    bracket = nijenhuis_richardson if flavor in ("lieder", "cldp") else gerstenhaber
    width = len(slots) // (n if flavor in ("cad", "cldp") else 1)
    parts = [DerCochain(*slots[i:i + width]) for i in range(0, len(slots), width)]
    if flavor in ("assder", "lieder"):
        public = co.assder_d if flavor == "assder" else co.lieder_d
        return public(p, parts[0]), der_pair_d_oracle(*maps, parts[0], bracket)
    public = co.cad_d if flavor == "cad" else co.cldp_d
    c = CompatCochain(parts)
    return public(p, c), compat_pair_d_oracle(c, *maps, bracket)


def test_term_table_matches_per_shape_differentials():
    rng = random.Random(SEED + 31)
    flavors = set()
    for flavor, p in _term_table_instances(rng):
        cx = co._Complex(flavor, p)
        cls = AltMap if flavor in ("chevalley-eilenberg", "lieder", "cldp") else MultiMap
        for n in (1, 2, 3):
            for trial in range(3):
                # every third slot, shifted by the trial, is left empty
                slots = tuple(cls.zero(p.space, arity) if (k + trial) % 3 == 0
                              else gen.rand_rational_map(rng, cls, p.space, arity, False)
                              for k, arity in enumerate(cx.arities(n)))
                image = cx.d(n, slots)
                public, oracle = _public_and_oracle(flavor, p, cx, n, slots)
                assert image == _flat(oracle), (flavor, n, trial)
                assert public == oracle, (flavor, n, trial)
        flavors.add(flavor)
    assert flavors == set(co.FLAVORS)


def test_complex_shapes_match_the_cochain_classes():
    # a complex's dimensions and basis are those of its cochain class, and
    # its basis cochains are the unit vectors of the coordinate order
    rng = random.Random(SEED + 37)
    pair_classes = {"assder": DerCochain, "lieder": DerCochain,
                    "cad": CompatCochain, "cldp": CompatCochain}
    flavors = set()
    for flavor, p in _catalog_complexes(rng):
        cx = co._Complex(flavor, p)
        alt = flavor in ("chevalley-eilenberg", "lieder", "cldp")
        cls = AltMap if alt else MultiMap
        for n in (1, 2, 3):
            basis = list(cx.basis(n))
            if flavor in pair_classes:
                pairs = pair_classes[flavor]
                assert cx.dim(n) == pairs.coord_length(
                    p.space, n, "alt" if alt else "multi"), (flavor, n)
                assert basis == [_flat(b) for b in pairs.basis(
                    p.space, n, "alt" if alt else "multi")], (flavor, n)
            else:
                parts = n if flavor == "compatible-associative" else 1
                assert cx.dim(n) == parts * cls.coord_length(p.space, n), (flavor, n)
            assert len(basis) == cx.dim(n)
            for index, b in enumerate(basis):
                coords = dense_coords(b)
                assert coords == [int(i == index) for i in range(len(basis))], \
                    (flavor, n, index)
        flavors.add(flavor)
    assert flavors == set(co.FLAVORS)


def test_no_bracket_is_computed_on_an_empty_operand(monkeypatch):
    calls = []

    def counting(bracket):
        def wrapper(f, g):
            assert f.coeffs and g.coeffs
            calls.append(bracket)
            return bracket(f, g)
        return wrapper

    monkeypatch.setattr(co, "gerstenhaber", counting(gerstenhaber))
    monkeypatch.setattr(co, "nijenhuis_richardson", counting(nijenhuis_richardson))
    rng = random.Random(SEED + 32)
    flavors = set()
    for flavor, p in _term_table_instances(rng):
        if flavor not in flavors:
            flavors.add(flavor)
            cx = co._Complex(flavor, p)
            for n in (1, 2):
                for b in cx.basis(n):
                    cx.d(n, b)
    assert flavors == set(co.FLAVORS)
    assert gerstenhaber in calls and nijenhuis_richardson in calls


# -- block assembly against the images of the basis cochains ---------------------------

def _rescaled(rng, p):
    """p in a random integer basis, its products and derivations each times a rational."""
    q = gen.conjugate_presentation(rng, p)
    c, e = (rng.choice((Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)))
            for _ in range(2))
    return Presentation(q.space, {name: m.scale(c) for name, m in q.products.items()},
                        {name: m.scale(e) for name, m in q.derivations.items()}, q.kind)


@pytest.mark.parametrize("last_shadow_sign", [-1, +1])
def test_block_assembly_matches_the_basis_images(monkeypatch, last_shadow_sign):
    _use_last_shadow_sign(monkeypatch, last_shadow_sign)
    rng = random.Random(SEED + 33)
    catalog = list(_catalog_complexes(rng))
    rescaled = [(flavor, _rescaled(rng, p)) for flavor, p in catalog]
    assert all(check_structure(p) is None for _, p in rescaled)
    flavors = set()
    for flavor, p in catalog + rescaled:
        cx = co._Complex(flavor, p)
        blocks = {}
        for n in range(4 if p.space.dimension == 2 else 3):
            if n == 0:
                images = [dict(enumerate(column)) for column in _degree0_images(cx)]
            else:
                images = [sparse_coords(cx.d(n, b)) for b in cx.basis(n)]
            assert cx.images(n, blocks).transpose() == Matrix.from_columns(
                cx.dim(n + 1), images), (flavor, n)
        flavors.add(flavor)
    assert flavors == set(co.FLAVORS)


def _inserted_vector(x, o):
    """[x, e_o] for a vector e_o: sum_s (-1)^s x(..., e_o in slot s, ...), by eval.

    An alternating x takes e_o in its first slot only.  The result is a map of
    arity a-1, or a vector (a dict of its coordinates) at a = 1.
    """
    d, a = x.space.dimension, x.arity
    alternating = isinstance(x, AltMap)
    tuples = (itertools.combinations(range(d), a - 1) if alternating
              else itertools.product(range(d), repeat=a - 1))
    table = {}
    for t in tuples:
        slots = (0,) if alternating else range(a)
        for s in slots:
            for j, value in enumerate(x.eval(t[:s] + (o,) + t[s:])):
                if value:
                    table[t, j] = table.get((t, j), 0) + (-1) ** s * value
    table = {key: value for key, value in table.items() if value}
    if a == 1:
        return {j: value for ((), j), value in table.items()}
    return sparse_coords(type(x)(x.space, a - 1, table))


def _block_cases(rng):
    """(x, k) with x a seeded random map: AltMaps d <= 6, MultiMaps d <= 4.

    The Heisenberg bracket is added as an AltMap and as its skew MultiMap
    table, in which terms of one column meet at one row and cancel.
    """
    for _ in range(14):
        d, a = rng.randint(1, 6), rng.choice((1, 2, 3))
        space = Space.of_dim(d)
        x = gen.rand_altmap(rng, space, a, entries=rng.randint(1, 6), bound=2)
        for k in range(min(d, 4) + 1):
            if x.coeffs:
                yield x, k
    for _ in range(10):
        d, a = rng.randint(1, 4), rng.choice((1, 2, 3))
        x = gen.rand_multimap(rng, Space.of_dim(d), a, entries=rng.randint(1, 6), bound=2)
        for k in range(4):
            if x.coeffs:
                yield x, k
    heis = AltMap.from_multimap(gen.HEIS3)
    for k in range(4):
        yield heis, k
        yield gen.HEIS3, k


def test_ad_blocks_match_brackets_and_oracles_on_random_maps():
    # Column c of _ad_block(x, k) is [x, b_c] for the c-th basis map b_c: checked
    # on every column against the package's bracket, and on a seeded sample of
    # columns against the dense oracles, x o b - (-1)^{pq} b o x written out.
    rng = random.Random(SEED + 41)
    repeats = cancellations = 0
    for x, k in _block_cases(rng):
        d, a = x.space.dimension, x.arity
        alternating = isinstance(x, AltMap)
        block = _ad_block(x, k)
        if k == 0:
            assert block == [_inserted_vector(x, o) for o in range(d)], (x, k)
            continue
        cls = type(x)
        bracket = nijenhuis_richardson if alternating else gerstenhaber
        oracle = circle_nr_oracle if alternating else circle_g_oracle
        basis = list(cls.basis(x.space, k))
        assert len(block) == len(basis)
        for c, b in enumerate(basis):
            assert block[c] == sparse_coords(bracket(x, b)), (x, k, c)
        twist = 1 if (a - 1) * (k - 1) % 2 else -1
        for c in rng.sample(range(len(basis)), min(4, len(basis))):
            b = basis[c]
            forward, backward = oracle(x, b), oracle(b, x)
            assert block[c] == sparse_coords(forward + backward.scale(twist)), (x, k, c)
            shared = forward.coeffs.keys() & backward.coeffs.keys()
            cancellations += sum(forward.coeffs[key] + twist * backward.coeffs[key] == 0
                                 for key in shared)
            (args, _), = b.coeffs
            repeats += any(set(args) & set(xargs) for xargs, _ in x.coeffs)
    assert repeats and cancellations


# -- ranks on a complement of the previous image, kernels on the pivot rows ------------

@pytest.mark.parametrize("last_shadow_sign", [-1, +1])
def test_pruned_ranks_and_kernels_equal_those_on_all_rows(monkeypatch, last_shadow_sign):
    _use_last_shadow_sign(monkeypatch, last_shadow_sign)
    calls = []

    def recording(m, skip=()):
        record = rank(m, skip)
        calls.append((skip, record))
        return record

    monkeypatch.setattr(co, "rank", recording)
    rng = random.Random(SEED + 35)
    catalog = list(_catalog_complexes(rng))
    rescaled = [(flavor, _rescaled(rng, p)) for flavor, p in catalog]
    needed = 0          # fallbacks where the complement would give a wrong rank
    for flavor, p in catalog + rescaled:
        top = 3 if p.space.dimension == 2 else 2
        calls.clear()
        report = co.cohomology(co.ComplexSpec(flavor, p, top), include_kernel_bases=True)
        cx, blocks = co._Complex(flavor, p), {}
        images = [cx.images(n, blocks) for n in range(top + 1)]
        dd_zero = [n > 0 and compose(images[n - 1], images[n]).is_zero()
                   for n in range(top + 1)]
        assert report.dd_zero_certified == all(dd_zero[1:])
        for n, data in enumerate(report.degrees):
            full = rank(images[n]).rank
            assert data.rank_d == full, (flavor, n)
            assert report.kernel_bases[n] == nullspace(images[n].transpose()), (flavor, n)
            skip = calls[n][0]
            previous = n and {col for _, col in calls[n - 1][1].pivots}
            if dd_zero[n]:
                assert skip == previous, (flavor, n)
            else:
                assert skip == (), (flavor, n)
                if n:
                    needed += rank(images[n], previous).rank != full
    assert (needed > 0) == (last_shadow_sign == +1)


def test_each_degree_is_ranked_and_reduced_through_the_public_names(monkeypatch):
    # the benchmark's trace wraps linalg.rank and linalg.nullspace by name and
    # reads the matrix from the first positional argument; each degree is
    # ranked, then reduced, before the next
    calls = []
    for name in ("rank", "nullspace"):
        def counting(m, *args, _name=name, _fn=getattr(co, name)):
            calls.append((_name, type(m)))
            return _fn(m, *args)
        monkeypatch.setattr(co, name, counting)
    p = P(S3, "lieder", {"bracket": gen.HEIS3},
          {"delta": gen.mm(S3, 1, [(0, 0, 1), (1, 1, 1), (2, 2, 2)])})
    co.cohomology(co.ComplexSpec("lieder", p, 3), include_kernel_bases=True)
    assert calls == [("rank", Matrix), ("nullspace", Matrix)] * 4


def _scaled_apart(p, scales):
    """p with each map times its own scale: products, then derivations."""
    products, derivations = kind_shape(p.kind)
    factor = dict(zip(products + derivations, scales))
    return Presentation(p.space,
                        {name: m.scale(factor[name]) for name, m in p.products.items()},
                        {name: m.scale(factor[name]) for name, m in p.derivations.items()},
                        p.kind)


def _report_bytes(flavor, p, top):
    report = co.cohomology(co.ComplexSpec(flavor, p, top), include_kernel_bases=True)
    return json.dumps(files.cohomology_to_dict(report), sort_keys=True)


def test_rational_structure_maps_assemble_over_their_common_denominator():
    # Every benchmark input is integral, so only here do the maps scale by L > 1.
    # The compatible kinds scale (P1, P2, D1, D2) by (a, a r, b, b r), which
    # keeps their identities, every one homogeneous in the maps.
    rng = random.Random(SEED + 34)
    F = Fraction
    cases = [(p, (F(1, 2), F(1, 3))) for p in gen.der_pair_instances(
        rng, 2, gen.ASSOCIATIVE_CATALOG, "assder", "mu")]
    cases += [(p, (F(1, 2), F(1, 3), F(1, 5), F(2, 15)))
              for p in gen.compatible_assder_instances(rng, 2)]
    cases += [(p, (F(-3, 4), F(1, 2), F(2, 7), F(-4, 21)))
              for p in gen.compatible_lieder_instances(rng, 2)]
    flavor_of = {"assder": "assder", "compatible-assder": "cad",
                 "compatible-lieder": "cldp"}
    dens = set()
    for base, scales in cases:
        flavor = flavor_of[base.kind]
        p = _scaled_apart(base, scales)
        assert check_structure(p) is None, flavor
        cx = co._Complex(flavor, p)
        dens.add(lcm(*(v.denominator for m in cx.maps for v in m.coeffs.values())))
        blocks = {}
        top = 3 if p.space.dimension == 2 else 2
        for n in range(1, top + 1):
            basis = list(cx.basis(n))
            m = cx.images(n, blocks).transpose()
            assert m == Matrix.from_columns(
                cx.dim(n + 1), [sparse_coords(cx.d(n, b)) for b in basis]), (flavor, n)
            dense = [dense_coords(_flat(_public_and_oracle(flavor, p, cx, n, b)[1]))
                     for b in basis]
            assert m == Matrix(m.rows, m.cols, tuple(
                column[i] for i in range(m.rows) for column in dense)), (flavor, n)
            _assert_matches_oracles(m)
        # scaling every map by c scales every D_n by c: the same ranks and kernels
        third = _scaled_apart(p, [F(1, 3)] * len(scales))
        assert _report_bytes(flavor, third, top) == _report_bytes(flavor, p, top)
    assert min(dens) > 1


def test_no_block_is_built_for_an_empty_structure_map(monkeypatch):
    built = []

    def counting(x, k):
        assert x.coeffs
        built.append((x, k))
        return _ad_block(x, k)

    # the builder lives in cochains, where _ad_matrix assembles the matrices with it
    monkeypatch.setattr(cochains, "_ad_block", counting)
    zero_delta = P(S3, "lieder", {"bracket": gen.HEIS3}, {"delta": MultiMap.zero(S3, 1)})
    co.cohomology(co.ComplexSpec("lieder", zero_delta, 3))
    w = AltMap.from_multimap(gen.HEIS3)
    assert built == [(w, 1), (w, 2), (w, 3)]

    grading = gen.mm(S3, 1, [(0, 0, 1), (1, 1, 1), (2, 2, 2)])
    d1 = gen.mm(S2, 1, [(0, 0, 1), (0, 1, 1), (1, 1, 2)])
    d2 = gen.mm(S2, 1, [(0, 0, 2), (0, 1, -1), (1, 1, 4)])
    for flavor, p in (
            ("cad", P(S2, "compatible-assder", {"mu1": gen.NIL2, "mu2": gen.NIL2.scale(2)},
                      {"delta1": d1, "delta2": d2})),
            ("cldp", P(S3, "compatible-lieder",
                       {"bracket1": gen.HEIS3, "bracket2": gen.HEIS3.scale(2)},
                       {"delta1": grading, "delta2": grading.scale(-1)}))):
        assert check_structure(p) is None
        cx = co._Complex(flavor, p)
        built.clear()
        cx.images(3, {}).transpose()
        # three parts, but each product block once per arity, each derivation's once
        products, derivations = cx.maps[:2], cx.maps[2:]
        expected = [(x, k) for x in products for k in (3, 2)] + [(x, 3) for x in derivations]
        assert len(built) == len(expected) and set(built) == set(expected), flavor


# -- operands of the wrong class ---------------------------------------------------------

def test_differentials_reject_a_cochain_of_the_wrong_class():
    alt2 = AltMap(S2, 2, {((0, 1), 0): 1})
    alt1, multi1 = AltMap.identity(S2), MultiMap.identity(S2)
    w = AltMap.from_multimap(gen.AFF2A)
    zero = MultiMap.zero(S2, 1)
    assder = P(S2, "assder", {"mu": gen.NIL2}, {"delta": zero})
    lieder = P(S2, "lieder", {"bracket": gen.AFF2A}, {"delta": zero})
    compat = P(S2, "compatible-associative", {"mu1": gen.NIL2, "mu2": gen.NIL2.scale(2)})
    cad = P(S2, "compatible-assder", {"mu1": gen.NIL2, "mu2": gen.NIL2.scale(2)},
            {"delta1": zero, "delta2": zero})
    cldp = P(S2, "compatible-lieder", {"bracket1": gen.AFF2A, "bracket2": gen.AFF2B},
             {"delta1": zero, "delta2": zero})
    calls = [
        lambda: co.hochschild_d(gen.NIL2, alt2),
        lambda: co.hochschild_d(gen.NIL2, AltMap.zero(S2, 1)),
        lambda: co.ce_d(w, gen.NIL2),
        lambda: co.assder_d(assder, DerCochain(alt2, alt1)),
        lambda: co.lieder_d(lieder, DerCochain(gen.NIL2, multi1)),
        lambda: co.compat_assoc_d(compat, (alt1,)),
        lambda: co.cad_d(cad, CompatCochain([DerCochain(alt1)])),
        lambda: co.cldp_d(cldp, CompatCochain([DerCochain(multi1)])),
        lambda: circle_g(gen.NIL2, alt2),
        lambda: circle_g(alt2, gen.NIL2),
        lambda: circle_nr(w, gen.NIL2),
        lambda: circle_nr(gen.NIL2, w),
        lambda: co.der_D(multi1, DerCochain.zero(S2, 2, "multi")),
        lambda: co.der_D(multi1, CompatCochain.zero(S2, 1, "alt")),
    ]
    for call in calls:
        with pytest.raises(ShapeError):
            call()
    with pytest.raises(ShapeError, match="MultiMap or an AltMap"):
        co.der_D(multi1, DerCochain.zero(S2, 1, "alt"))
    other = MultiMap.identity(S3)
    spaces, tuples = "operands live on different spaces", "expected an n-tuple of arity-n"
    cases = [("D needs a linear operator", lambda: co.der_D(gen.NIL2, multi1)),
             (spaces, lambda: co.der_D(other, multi1)),
             (spaces, lambda: co.hochschild_d(gen.NIL2, other)),
             (spaces, lambda: co.ce_d(w, AltMap.identity(S3))),
             (spaces, lambda: co.assder_d(assder, DerCochain(other))),
             (tuples, lambda: co.compat_assoc_d(compat, ())),
             (tuples, lambda: co.compat_assoc_d(compat, (gen.NIL2,)))]
    for message, call in cases:
        with pytest.raises(ShapeError, match=message):
            call()


def test_pair_differentials_reject_the_other_pair_class():
    # a compatible complex takes CompatCochains and the others DerCochains
    zero = MultiMap.zero(S2, 1)
    assder = P(S2, "assder", {"mu": gen.NIL2}, {"delta": zero})
    cad = P(S2, "compatible-assder", {"mu1": gen.NIL2, "mu2": gen.NIL2.scale(2)},
            {"delta1": zero, "delta2": zero})
    for degree in (1, 2):
        with pytest.raises(ShapeError):
            co.cad_d(cad, DerCochain.zero(S2, degree, "multi"))
        with pytest.raises(ShapeError):
            co.assder_d(assder, CompatCochain.zero(S2, degree, "multi"))


# -- the commutator cochain map --------------------------------------------------------

def _commutator_pairs(rng):
    """(associative flavor, Lie flavor, base, the base with commutator brackets).

    The bases are M_2, M_2 in a unimodular basis, and the strictly
    upper-triangular 4x4 matrices, each with delta = ad_{E12}; the compatible
    ones pair mu with 2 mu and delta with itself.
    """
    m2, upper = gen.matrix_units(2), gen.matrix_units(4, strict=True)
    bases = [P(mu.space, "assder", {"mu": mu}, {"delta": gen.inner_derivation(mu, a)})
             for mu, a in ((m2, 1), (upper, 0))]
    bases.insert(1, gen.conjugate_presentation(rng, bases[0]))
    for p in bases:
        mu, delta = p.products["mu"], p.derivations["delta"]
        bracket = mu - gen.swapped(mu)
        q = P(p.space, "lieder", {"bracket": bracket}, {"delta": delta})
        both = {"delta1": delta, "delta2": delta}
        yield "hochschild", "chevalley-eilenberg", p, q
        yield "assder", "lieder", p, q
        yield ("cad", "cldp",
               P(p.space, "compatible-assder", {"mu1": mu, "mu2": mu.scale(2)}, both),
               P(p.space, "compatible-lieder",
                 {"bracket1": bracket, "bracket2": bracket.scale(2)}, both))


def test_antisymmetrization_maps_each_associative_complex_to_its_lie_complex():
    # The commutator bracket makes A = k! AltMap.from_multimap, slot by slot, a
    # cochain map from each associative complex to the Lie complex of the
    # commutator: A_{n+1} D_n = D_n A_n, or, on the images of the basis
    # cochains, images_H[n] A_{n+1} = A_n images_L[n], both products taken by
    # the oracles.
    rng = random.Random(SEED + 50)
    checked = set()
    for assoc, lie, p, q in _commutator_pairs(rng):
        assert check_structure(p) is None and check_structure(q) is None
        h, lie_cx = co._Complex(assoc, p), co._Complex(lie, q)
        d = p.space.dimension
        for n in range(4):
            left = sparse_product_oracle(sparse_rows(h.images(n, {})),
                                         antisymmetrizer_oracle(d, h.arities(n + 1)))
            right = sparse_product_oracle(antisymmetrizer_oracle(d, h.arities(n)),
                                          sparse_rows(lie_cx.images(n, {})))
            assert left == right, (assoc, d, n)
            if left:
                checked.add((assoc, n))
    assert checked == {(assoc, n) for assoc in ("hochschild", "assder", "cad")
                       for n in range(4) if n or assoc == "hochschild"}


@pytest.mark.parametrize("flavor, base_flavor, kind, name, catalog", [
    ("assder", "hochschild", "assder", "mu", gen.ASSOCIATIVE_CATALOG),
    ("lieder", "chevalley-eilenberg", "lieder", "bracket", gen.LIE_CATALOG)])
def test_zero_derivation_splits_into_the_base_complex_and_its_shift(flavor, base_flavor,
                                                                   kind, name, catalog):
    # The shadows (0, g) form a subcomplex, d(0, g) = (0, -s[P, g]): the base
    # complex from degree 1 up, shifted up one degree, with the base complex
    # as the quotient.  With delta = 0 the connecting map g -> [delta, g] of
    # the long exact sequence vanishes, so with H'^1 = dim Z^1 and H'^n =
    # dim H^n (n >= 2) of the base, H^1 = H'^1 and H^n = H'^n + H'^{n-1}.
    top = 5
    for product in catalog:
        p = P(product.space, kind, {name: product}, {"delta": MultiMap.zero(product.space, 1)})
        base = co.cohomology(co.ComplexSpec(base_flavor, p, top)).degrees
        found = co.cohomology(co.ComplexSpec(flavor, p, top)).degrees
        shifted = [None, base[1].dim_closed] + [base[n].dim_cohomology
                                                for n in range(2, top + 1)]
        assert [found[n].dim_cohomology for n in range(1, top + 1)] == [shifted[1]] + [
            shifted[n] + shifted[n - 1] for n in range(2, top + 1)], (flavor, product.coeffs)


def _graded(d, coefficient):
    """e_i e_j = coefficient(i, j) e_{i+j+1} on d basis vectors, and its weights i + 1."""
    return gen.mm(Space.of_dim(d), 2, [(i, j, i + j + 1, coefficient(i, j))
                                       for i in range(d) for j in range(d)
                                       if i + j + 1 < d and coefficient(i, j)]), range(1, d + 1)


def _heisenberg(d):
    """[e_i, e_{k+i}] = e_{d-1} for i < k = (d-1)//2, and its weights."""
    k = (d - 1) // 2
    return gen.mm(Space.of_dim(d), 2, [entry for i in range(k) for entry in (
        (i, k + i, d - 1, 1), (k + i, i, d - 1, -1))]), [1] * (d - 1) + [2]


def _strict_upper(m):
    """The strictly upper-triangular m x m matrices, E_ij of weight j - i."""
    return gen.matrix_units(m, strict=True), [j - i for i in range(m) for j in range(i + 1, m)]


@pytest.mark.parametrize("flavor, base_flavor, name, graded, top", [
    ("assder", "hochschild", "mu", _graded(11, lambda i, j: 1), 3),
    ("assder", "hochschild", "mu", _strict_upper(4), 4),
    ("lieder", "chevalley-eilenberg", "bracket", _graded(13, lambda i, j: j - i), 4),
    ("lieder", "chevalley-eilenberg", "bracket", _heisenberg(13), 4)])
def test_grading_derivation_leaves_the_weight0_part_of_the_base_complex(
        flavor, base_flavor, name, graded, top):
    # With delta the grading derivation, the connecting map g -> [delta, g]
    # of the long exact sequence multiplies a class of weight w by -w: the
    # classes of weight w != 0 cancel, and weight 0 splits as with delta = 0.
    # So with H'^1 = dim Z^1 and H'^n = dim H^n (n >= 2) of the weight-0 part
    # of the base, H^1 = H'^1 and H^n = H'^n + H'^{n-1}.
    product, weights = graded
    weights = list(weights)
    delta = gen.mm(product.space, 1, [(i, i, w) for i, w in enumerate(weights)])
    p = P(product.space, flavor, {name: product}, {"delta": delta})
    found = co.cohomology(co.ComplexSpec(flavor, p, top), budget=10 ** 6).degrees
    base = co._Complex(base_flavor, p)
    dims, ranks = {}, {0: 0}
    for n in range(1, top + 1):
        m = weight0_images(base, weights, n)
        dims[n], ranks[n] = m.rows, rank(m).rank
    shifted = {n: dims[n] - ranks[n] - ranks[n - 1] for n in dims}
    assert [found[n].dim_cohomology for n in dims] == [shifted[1]] + [
        shifted[n] + shifted[n - 1] for n in range(2, top + 1)], (flavor, dims)
