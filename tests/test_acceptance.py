"""Release gate: every advertised guarantee at its stated sample count.

Each criterion below is one test; the terminal summary prints one pass/fail
line per criterion (see conftest).  All equalities are exact rational
identities with zero tolerance.  Seeds come from the corpus manifest so the
randomized corpora are reproducible.
"""

import random
import time
from fractions import Fraction

from derpair import cohomology as co
from derpair.brackets import (assder_bracket, dc_bracket, gerstenhaber,
                              nijenhuis_richardson)
from derpair.cochains import AltMap, DerCochain, MultiMap, dense_coords
from derpair.constructions import (RECIPE_KINDS, dendrify, endo_brackets,
                                   nijenhuis_product, rb_deform_assder,
                                   rb_lie_to_prelie)
from derpair.files import parse_presentation
from derpair.linalg import Space
from derpair.maurer_cartan import (mc_assder, mc_lieder, mc_pair_assder,
                                   mc_pair_lieder)
from derpair.structures import Presentation, check_structure

import gen
from oracles import (associator_defect, double_bracket_identities_hold,
                     jacobiator_defect)

MODULE_T0 = time.monotonic()
SEED = 909

S2 = Space.of_dim(2)
S3 = Space.of_dim(3)


def P(space, kind, products, derivations=None):
    return Presentation(space, products, derivations or {}, kind)


def alt_op(m):
    return AltMap(m.space, 1, dict(m.coeffs))


def antisym_ok(bracket, f, g, deg_f, deg_g):
    return bracket(f, g) == bracket(g, f).scale(-((-1) ** (deg_f * deg_g)))


def jacobi_ok(bracket, f, g, h, deg_f, deg_g):
    lhs = bracket(f, bracket(g, h))
    rhs = bracket(bracket(f, g), h) \
        + bracket(g, bracket(f, h)).scale((-1) ** (deg_f * deg_g))
    return lhs == rhs


def test_criterion_1_bracket_laws():
    start = time.monotonic()
    rng = random.Random(SEED + 1)
    for _ in range(200):
        space = S2 if rng.random() < 0.5 else S3
        f, g, h = (gen.rand_multimap(rng, space, rng.randint(1, 3))
                   for _ in range(3))
        assert antisym_ok(gerstenhaber, f, g, f.arity - 1, g.arity - 1)
        assert jacobi_ok(gerstenhaber, f, g, h, f.arity - 1, g.arity - 1)
    for _ in range(200):
        space = S2 if rng.random() < 0.5 else S3
        f, g, h = (gen.rand_altmap(rng, space, rng.randint(1, 3))
                   for _ in range(3))
        assert antisym_ok(nijenhuis_richardson, f, g, f.arity - 1, g.arity - 1)
        assert jacobi_ok(nijenhuis_richardson, f, g, h,
                         f.arity - 1, g.arity - 1)
    for _ in range(200):
        degrees = [rng.randint(1, 2) for _ in range(3)]
        a, b, c = (DerCochain(gen.rand_altmap(rng, S3, n),
                              gen.rand_altmap(rng, S3, n - 1) if n > 1 else None)
                   for n in degrees)
        assert antisym_ok(dc_bracket, a, b, degrees[0] - 1, degrees[1] - 1)
        assert jacobi_ok(dc_bracket, a, b, c, degrees[0] - 1, degrees[1] - 1)
    for _ in range(200):
        space = S2 if rng.random() < 0.5 else S3
        degrees = [rng.randint(1, 2) for _ in range(3)]
        a, b, c = (DerCochain(gen.rand_multimap(rng, space, n),
                              gen.rand_multimap(rng, space, n - 1)
                              if n > 1 else None)
                   for n in degrees)
        assert antisym_ok(assder_bracket, a, b, degrees[0] - 1, degrees[1] - 1)
        assert jacobi_ok(assder_bracket, a, b, c, degrees[0] - 1, degrees[1] - 1)
    assert time.monotonic() - start < 60


def test_criterion_2_square_zero_detects_structure():
    rng = random.Random(SEED + 2)
    assoc_verdicts = {True: 0, False: 0}
    for i in range(210):
        roll = i % 3
        if roll == 0:
            mu = gen.ASSOCIATIVE_CATALOG[rng.randrange(len(gen.ASSOCIATIVE_CATALOG))]
            g_op, g_inv = gen.random_unimodular(rng, mu.space)
            mu = gen.conjugate_map(g_op, g_inv, mu)
        elif roll == 1:
            base = gen.ASSOCIATIVE_CATALOG[rng.randrange(len(gen.ASSOCIATIVE_CATALOG))]
            mu = gen.corrupt(rng, P(base.space, "associative", {"mu": base})) \
                .products["mu"]
        else:
            mu = gen.rand_multimap(rng, S2 if rng.random() < 0.5 else S3, 2,
                                   entries=3)
        expected = associator_defect(mu) is None
        assoc_verdicts[expected] += 1
        assert expected == gerstenhaber(mu, mu).is_zero()
    assert min(assoc_verdicts.values()) >= 30

    lie_verdicts = {True: 0, False: 0}
    for i in range(210):
        roll = i % 3
        if roll == 0:
            br = gen.LIE_CATALOG[rng.randrange(len(gen.LIE_CATALOG))]
            g_op, g_inv = gen.random_unimodular(rng, br.space)
            w = AltMap.from_multimap(gen.conjugate_map(g_op, g_inv, br))
        elif roll == 1:
            base = gen.LIE_CATALOG[rng.randrange(len(gen.LIE_CATALOG))]
            bad = gen.corrupt_skew(
                rng, P(base.space, "lie", {"bracket": base}))
            w = AltMap.from_multimap(bad.products["bracket"])
        else:
            w = gen.rand_altmap(rng, S3, 2, entries=3)
        expected = jacobiator_defect(w) is None
        lie_verdicts[expected] += 1
        assert expected == nijenhuis_richardson(w, w).is_zero()
    assert min(lie_verdicts.values()) >= 30


def test_criterion_3_verdict_agreement():
    rng = random.Random(SEED + 3)
    disagreements = 0
    total = 0

    def lieder_pool():
        out = []
        for _ in range(30):
            br = gen.LIE_CATALOG[rng.randrange(len(gen.LIE_CATALOG))]
            delta = gen.sample_derivation(rng, br.space, (br,))
            p = P(br.space, "lieder", {"bracket": br}, {"delta": delta})
            out.append(p)
            out.append(gen.corrupt_skew(rng, p))
        return out

    for p in lieder_pool():
        total += 1
        verdict = mc_lieder(AltMap.from_multimap(p.products["bracket"]),
                            p.derivations["delta"])
        disagreements += verdict.holds != (check_structure(p) is None)

    for _ in range(30):
        mu = gen.ASSOCIATIVE_CATALOG[rng.randrange(len(gen.ASSOCIATIVE_CATALOG))]
        delta = gen.sample_derivation(rng, mu.space, (mu,))
        for q in (P(mu.space, "assder", {"mu": mu}, {"delta": delta}),):
            for candidate in (q, gen.corrupt(rng, q)):
                total += 1
                verdict = mc_assder(candidate.products["mu"],
                                    candidate.derivations["delta"])
                disagreements += verdict.holds != (
                    check_structure(candidate) is None)

    for p in gen.compatible_lieder_instances(rng, 30):
        for candidate in (p, gen.corrupt_skew(rng, p)):
            total += 1
            verdict = mc_pair_lieder(
                AltMap.from_multimap(candidate.products["bracket1"]),
                candidate.derivations["delta1"],
                AltMap.from_multimap(candidate.products["bracket2"]),
                candidate.derivations["delta2"])
            disagreements += verdict.holds != (check_structure(candidate) is None)

    for p in gen.compatible_assder_instances(rng, 30):
        for candidate in (p, gen.corrupt(rng, p)):
            total += 1
            verdict = mc_pair_assder(
                candidate.products["mu1"], candidate.derivations["delta1"],
                candidate.products["mu2"], candidate.derivations["delta2"])
            disagreements += verdict.holds != (check_structure(candidate) is None)

    assert total >= 200
    assert disagreements == 0


def _dd_certified(complex_like, degrees):
    for n in degrees:
        for basis_cochain in complex_like.basis(n):
            image = complex_like.d(n, basis_cochain)
            second = complex_like.d(n + 1, image)
            coords = dense_coords(second)
            if any(x != 0 for x in coords):
                return False
    return True


def test_criterion_4_dd_zero_all_flavors():
    rng = random.Random(SEED + 4)
    instances = 0

    def bases_for(flavor, count):
        built = []
        while len(built) < count:
            if flavor == "hochschild":
                mu = gen.ASSOCIATIVE_CATALOG[rng.randrange(len(gen.ASSOCIATIVE_CATALOG))]
                p = gen.conjugate_presentation(
                    rng, P(mu.space, "associative", {"mu": mu}))
            elif flavor == "chevalley-eilenberg":
                br = gen.LIE_CATALOG[rng.randrange(len(gen.LIE_CATALOG))]
                p = gen.conjugate_presentation(
                    rng, P(br.space, "lie", {"bracket": br}))
            elif flavor == "assder":
                p = gen.der_pair_instances(rng, 1, gen.ASSOCIATIVE_CATALOG,
                                           "assder", "mu")[0]
            elif flavor == "lieder":
                p = gen.der_pair_instances(rng, 1, gen.LIE_CATALOG,
                                           "lieder", "bracket")[0]
            elif flavor == "compatible-associative":
                m1, m2 = gen.compatible_assoc_products(rng)
                p = gen.conjugate_presentation(
                    rng, P(m1.space, "compatible-associative",
                           {"mu1": m1, "mu2": m2}))
            elif flavor == "cad":
                p = gen.compatible_assder_instances(rng, 1)[0]
                if p.space.dimension > 2:
                    continue
            else:
                p = gen.compatible_lieder_instances(rng, 1)[0]
            built.append(p)
        return built

    for flavor in co.FLAVORS:
        for p in bases_for(flavor, 15):
            instances += 1
            cx = co._Complex(flavor, p)
            assert _dd_certified(cx, (1, 2, 3)), (flavor, p)
    assert instances >= 100


def test_criterion_5_pair_differential_equals_bracket_form():
    rng = random.Random(SEED + 5)
    for _ in range(100):
        br = gen.LIE_CATALOG[rng.randrange(len(gen.LIE_CATALOG))]
        delta = gen.sample_derivation(rng, br.space, (br,))
        p = P(br.space, "lieder", {"bracket": br}, {"delta": delta})
        p = gen.conjugate_presentation(rng, p)
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


def test_criterion_6_double_bracket_identities():
    rng = random.Random(SEED + 6)
    for p in gen.compatible_lieder_instances(rng, 100):
        arity = rng.randint(1, 3)
        f = gen.rand_altmap(rng, p.space, arity)
        f2 = gen.rand_altmap(rng, p.space, arity)
        assert double_bracket_identities_hold(p, f, f2)


def _recipe_sources(rng, recipe, count):
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
    if recipe == "linear-combine":
        return gen.compatible_lieder_instances(rng, count // 2) \
            + gen.compatible_assder_instances(rng, count - count // 2)
    raise AssertionError(recipe)


def test_criterion_7_transfer_soundness():
    rng = random.Random(SEED + 7)
    for recipe in sorted(RECIPE_KINDS):
        for p in _recipe_sources(rng, recipe, 50):
            out = dendrify(p, recipe)
            assert check_structure(out) is None, recipe
    # general coefficients on pairs whose derivations act on both brackets
    produced = 0
    while produced < 50:
        b1, b2 = gen.compatible_lie_products(rng)
        basis = gen.strong_der_basis(b1.space, (b1,), (b2,))
        d1 = gen.operator_from_vector(
            b1.space, gen.sample_from_basis(rng, basis, b1.space.dimension ** 2))
        d2 = gen.operator_from_vector(
            b1.space, gen.sample_from_basis(rng, basis, b1.space.dimension ** 2))
        p = P(b1.space, "compatible-lieder", {"bracket1": b1, "bracket2": b2},
              {"delta1": d1, "delta2": d2})
        if check_structure(p) is not None:
            continue
        produced += 1
        coefficients = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        assert check_structure(
            dendrify(p, "linear-combine", coefficients)) is None

    for mu, n_op in gen.nijenhuis_ready_instances(rng, 50):
        mu_n = nijenhuis_product(mu, n_op)
        assert check_structure(
            P(mu.space, "compatible-associative", {"mu1": mu, "mu2": mu_n})) is None
    for p, r_op in gen.rb_ready_assder_instances(rng, 50):
        assert check_structure(rb_deform_assder(p, r_op)) is None
    for p, t_op in gen.endo_ready_instances(rng, 50):
        assert check_structure(endo_brackets(p, t_op)) is None
    for p, r_op in gen.rb_ready_lieder_instances(rng, 50):
        assert check_structure(rb_lie_to_prelie(p, r_op)) is None

    # diagram path commutation, exact equality of presentations
    for p in gen.der_pair_instances(rng, 25, gen.ZINBIEL_CATALOG,
                                    "zinder", "star"):
        via = dendrify(dendrify(p, "zinbiel-to-dendriform"),
                       "dendriform-to-associative")
        direct = dendrify(p, "zinbiel-to-associative")
        assert via.products == direct.products
        assert via.derivations == direct.derivations
    for p in gen.dendrider_instances(rng, 25):
        through_assoc = dendrify(dendrify(p, "dendriform-to-associative"),
                                 "associative-to-lie")
        through_prelie = dendrify(dendrify(p, "dendriform-to-prelie"),
                                  "prelie-to-lie")
        assert through_assoc.products == through_prelie.products
    for p in gen.compatible_assder_instances(rng, 25):
        via_endo = endo_brackets(p, MultiMap.identity(p.space))
        via_recipe = dendrify(p, "compatible-assder-to-compatible-lieder")
        assert via_endo.products == via_recipe.products
        assert via_endo.derivations == via_recipe.derivations


def test_criterion_8_anchor_instances(corpus):
    lie_pair_presentation = parse_presentation(
        (corpus / "compatible_lie.json").read_text())
    assert check_structure(lie_pair_presentation) is None
    zero = MultiMap.zero(lie_pair_presentation.space, 1)
    verdict = mc_pair_lieder(
        AltMap.from_multimap(lie_pair_presentation.products["bracket1"]), zero,
        AltMap.from_multimap(lie_pair_presentation.products["bracket2"]), zero)
    assert verdict.holds

    zinder = parse_presentation((corpus / "zinder_alpha1_beta1.json").read_text())
    assert check_structure(zinder) is None

    chain = dendrify(dendrify(zinder, "zinbiel-to-dendriform"),
                     "dendriform-to-associative")
    assert chain.kind == "assder"
    assert chain.products["mu"].eval((0, 0)) == [Fraction(0), Fraction(2)]
    assert check_structure(chain) is None


def test_criterion_9_desk_scale_cohomology(corpus):
    abelian = parse_presentation((corpus / "abelian1_lieder.json").read_text())
    report = co.cohomology(co.ComplexSpec("lieder", abelian, 2))
    assert report.dd_zero_certified
    assert report.degrees[1].dim_cohomology == 1

    zero_pair = parse_presentation((corpus / "zero_cldp.json").read_text())
    report = co.cohomology(co.ComplexSpec("cldp", zero_pair, 2))
    assert report.dd_zero_certified
    for row in report.degrees:
        assert row.dim_cohomology == row.dim_cochains

    assert time.monotonic() - MODULE_T0 < 600
