import random
from fractions import Fraction

import pytest

from derpair import cohomology as co
from derpair.brackets import gerstenhaber, nijenhuis_richardson
from derpair.cochains import (AltMap, CompatCochain, DerCochain, MultiMap, circle_g,
                              circle_nr, sparse_coords)
from derpair.errors import (DegreeBudgetError, InvalidStructureError, SchemaError,
                            ShapeError)
from derpair.linalg import Matrix, Space, rank
from derpair.structures import Presentation, check_structure

import gen
from oracles import (ce_face_d, circle_g_oracle, compat_pair_d_oracle, der_D_oracle,
                     der_pair_d_oracle, hochschild_face_d, map_d_oracle,
                     staircase_d_oracle)
from test_linalg import _catalog_complexes

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
            df = co.hochschild_d(mu, f, check=False)
            assert co.hochschild_d(mu, df, check=False).is_zero()
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
            df = co.ce_d(w, f, check=False)
            assert df == ce_face_d(w, f)
            assert co.ce_d(w, df, check=False).is_zero()


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
        assert co.assder_d(p, zero, check=False).is_zero()
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
                db = co.assder_d(p, b, check=False)
                assert co.assder_d(p, db, check=False).is_zero()


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
        direct = co.lieder_d(p, c, check=False)
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
        direct = co.assder_d(p, c, check=False)
        via_bracket = assder_bracket(pair, c).scale((-1) ** (degree - 1))
        assert direct.top == via_bracket.top
        assert direct.shadow == via_bracket.shadow


# -- compatible complexes ----------------------------------------------------------------

def test_compat_assoc_d_degree_one_formula():
    rng = random.Random(SEED + 9)
    m1, m2 = gen.compatible_assoc_products(rng)
    p = P(m1.space, "compatible-associative", {"mu1": m1, "mu2": m2})
    f = gen.rand_multimap(rng, m1.space, 1)
    out = co.compat_assoc_d(p, (f,), check=False)
    assert out == (gerstenhaber(m1, f), gerstenhaber(m2, f))


def test_compat_assoc_d_zero_and_square():
    rng = random.Random(SEED + 10)
    for _ in range(6):
        m1, m2 = gen.compatible_assoc_products(rng)
        p = P(m1.space, "compatible-associative", {"mu1": m1, "mu2": m2})
        zero = tuple(MultiMap.zero(m1.space, 2) for _ in range(2))
        assert all(x.is_zero() for x in co.compat_assoc_d(p, zero, check=False))
        for degree in (1, 2):
            for slot in range(degree):
                for b in MultiMap.basis(m1.space, degree):
                    tup = tuple(b if i == slot else MultiMap.zero(m1.space, degree)
                                for i in range(degree))
                    first = co.compat_assoc_d(p, tup, check=False)
                    second = co.compat_assoc_d(p, first, check=False)
                    assert all(x.is_zero() for x in second)


def _dd_zero(p, d_fn, flavor, max_source_degree):
    for degree in range(1, max_source_degree + 1):
        for b in CompatCochain.basis(p.space, degree, flavor):
            if not d_fn(p, d_fn(p, b, check=False), check=False).is_zero():
                return False
    return True


def test_cad_d_zero_cochains():
    rng = random.Random(SEED + 11)
    p = gen.compatible_assder_instances(rng, 1)[0]
    for degree in (1, 2):
        zero = CompatCochain.zero(p.space, degree, "multi")
        assert co.cad_d(p, zero, check=False).is_zero()


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


def test_cad_last_shadow_sign_is_forced(monkeypatch):
    # The alternative sign on the trailing [w2, g^n] term breaks d o d = 0, so
    # only the uniform minus is implemented.
    d1 = gen.mm(S2, 1, [(0, 0, 1), (0, 1, 1), (1, 1, 2)])
    d2 = gen.mm(S2, 1, [(0, 0, 2), (0, 1, -1), (1, 1, 4)])
    p = P(S2, "compatible-assder",
          {"mu1": gen.NIL2, "mu2": gen.NIL2.scale(2)},
          {"delta1": d1, "delta2": d2})
    assert check_structure(p) is None

    def dd_with(sign):
        monkeypatch.setattr(co, "_LAST_SHADOW_SIGN", sign)
        for degree in (1, 2, 3):
            for b in CompatCochain.basis(S2, degree, "multi"):
                second = co.cad_d(p, co.cad_d(p, b, check=False), check=False)
                if not second.is_zero():
                    return False
        return True

    assert dd_with(-1)
    assert not dd_with(+1)


def test_cldp_d_degree_one_on_anchor_pair():
    zero = MultiMap.zero(S2, 1)
    p = P(S2, "compatible-lieder",
          {"bracket1": gen.AFF2A, "bracket2": gen.AFF2B},
          {"delta1": zero, "delta2": zero})
    rng = random.Random(SEED + 13)
    f = gen.rand_altmap(rng, S2, 1)
    out = co.cldp_d(p, CompatCochain([DerCochain(f, None)]), check=False)
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
    expected_rank = {n: rank(m) for n, m in matrices.items()}
    for row in report.degrees:
        if row.degree == 0:
            assert row.dim_cochains == 0
            continue
        assert row.rank_d == expected_rank[row.degree]
        closed = row.dim_cochains - expected_rank[row.degree]
        exact = expected_rank.get(row.degree - 1, 0)
        assert row.dim_cohomology == closed - exact


def test_compatible_associative_degree_zero():
    p = P(S2, "compatible-associative",
          {"mu1": gen.NIL2, "mu2": gen.NIL2.scale(2)})
    report = co.cohomology(co.ComplexSpec("compatible-associative", p, 2))
    assert report.dd_zero_certified
    # the product is commutative, so both adjoint maps vanish on everything
    assert report.degrees[0].dim_cochains == 2
    assert report.degrees[0].rank_d == 0


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
        assert report.degrees[n].rank_d == rank(m)


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
    monkeypatch.setattr(co, "_LAST_SHADOW_SIGN", +1)
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
            for n in range(3):
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
    monkeypatch.setattr(co, "_LAST_SHADOW_SIGN", last_shadow_sign)
    rng = random.Random(SEED + 33)
    catalog = list(_catalog_complexes(rng))
    rescaled = [(flavor, _rescaled(rng, p)) for flavor, p in catalog]
    assert all(check_structure(p) is None for _, p in rescaled)
    flavors = set()
    for flavor, p in catalog + rescaled:
        cx = co._Complex(flavor, p)
        blocks = {}
        for n in range(4 if p.space.dimension == 2 else 3):
            images = [sparse_coords(cx.d(n, b)) for b in cx.basis(n)]
            assert cx.matrix(n, blocks) == Matrix.from_columns(cx.dim(n + 1), images), \
                (flavor, n)
        flavors.add(flavor)
    assert flavors == set(co.FLAVORS)


def test_no_block_is_built_for_an_empty_structure_map(monkeypatch):
    built = []

    def counting(x, k):
        assert x.coeffs
        built.append((x, k))
        return ad_block(x, k)

    ad_block = co._ad_block
    monkeypatch.setattr(co, "_ad_block", counting)
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
        cx.matrix(3, {})
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
    ]
    for call in calls:
        with pytest.raises(ShapeError):
            call()
