import random
from fractions import Fraction

import pytest

from derpair import brackets
from derpair.brackets import assder_bracket, dc_bracket
from derpair.cochains import AltMap, DerCochain, MultiMap
from derpair.errors import InvalidStructureError, SchemaError, ShapeError
from derpair.linalg import Space
from derpair.maurer_cartan import (ass_pair, bidifferential_check,
                                   deformation_check, lie_pair, mc_assder,
                                   mc_lieder, mc_pair_assder, mc_pair_lieder)
from derpair.structures import Presentation, check_structure

import gen

S2 = Space.of_dim(2)
S3 = Space.of_dim(3)

SEED = 707


def P(space, kind, products, derivations=None):
    return Presentation(space, products, derivations or {}, kind)


def alt_op(m):
    return AltMap(m.space, 1, dict(m.coeffs))


W2A = AltMap.from_multimap(gen.AFF2A)
W2B = AltMap.from_multimap(gen.AFF2B)


# -- single-pair checks -----------------------------------------------------------

def test_mc_lieder_zero_pair():
    assert mc_lieder(AltMap.zero(S2, 2), MultiMap.zero(S2, 1)).holds


def test_mc_lieder_with_derivation():
    delta = gen.mm(S2, 1, [(0, 0, 1)])  # diag(1,0)
    assert mc_lieder(W2A, delta).holds


def test_mc_lieder_failure_residual():
    delta = gen.mm(S2, 1, [(1, 1, 1)])  # diag(0,1): not a derivation
    verdict = mc_lieder(W2A, delta)
    assert not verdict.holds
    assert [name for name, _ in verdict.residuals] == ["-2[w,delta]_NR"]
    residual = dict(verdict.residuals)["-2[w,delta]_NR"]
    # [w,delta](e1,e2) = w(de1,e2) + w(e1,de2) - d(w(e1,e2)) = e1
    assert residual.eval((0, 1)) == [Fraction(-2), Fraction(0)]


@pytest.mark.parametrize("check, pack, bracket, cls, inner", [
    (mc_lieder, lie_pair, dc_bracket, AltMap, "nijenhuis_richardson"),
    (mc_assder, ass_pair, assder_bracket, MultiMap, "gerstenhaber"),
])
def test_self_square_brackets_the_shadow_once(monkeypatch, check, pack, bracket,
                                              cls, inner):
    # Both shadow terms of {P, P} are one bracket, so a square-zero check
    # makes two brackets, and its residuals are those of {P, Q} for a copy Q.
    rng = random.Random(SEED + 1)
    cases = [(gen.rand_rational_map(rng, cls, S3, 2, full=False),
              gen.rand_rational_map(rng, MultiMap, S3, 1, full=False))
             for _ in range(8)]
    cases += [(AltMap.from_multimap(gen.AFF2A) if cls is AltMap else gen.NIL2,
               MultiMap.identity(S2))]
    calls = []
    real = getattr(brackets, inner)
    monkeypatch.setattr(brackets, inner,
                        lambda f, g: calls.append((f, g)) or real(f, g))
    for top, delta in cases:
        calls.clear()
        verdict = check(top, delta)
        assert len(calls) == 2
        general = bracket(pack(top, delta), pack(top, delta))
        assert len(calls) == 5
        residuals = [value for value in (general.top, general.shadow)
                     if not value.is_zero()]
        assert [value for _, value in verdict.residuals] == residuals


def test_mc_assder_examples():
    assert mc_assder(MultiMap.zero(S2, 2), MultiMap.zero(S2, 1)).holds
    good = gen.mm(S2, 1, [(0, 0, 1), (1, 1, 2)])   # delta(e1)=e1, delta(e2)=2e2
    assert mc_assder(gen.NIL2, good).holds
    bad = MultiMap.identity(S2)
    verdict = mc_assder(gen.NIL2, bad)
    assert not verdict.holds
    assert [name for name, _ in verdict.residuals] == ["-2[mu,delta]_G"]


# -- compatible-pair checks ---------------------------------------------------------

def test_mc_pair_lieder_two_dim_anchor():
    zero = MultiMap.zero(S2, 1)
    assert mc_pair_lieder(W2A, zero, W2B, zero).holds


def test_mc_pair_lieder_zero():
    zero = MultiMap.zero(S2, 1)
    w0 = AltMap.zero(S2, 2)
    assert mc_pair_lieder(w0, zero, w0, zero).holds


def test_mc_pair_lieder_cross_failure():
    d1 = gen.mm(S2, 1, [(0, 0, 1)])   # diag(1,0): derivation of bracket1
    d2 = gen.mm(S2, 1, [(1, 1, 1)])   # diag(0,1): derivation of bracket2
    verdict = mc_pair_lieder(W2A, d1, W2B, d2)
    assert not verdict.holds
    names = [name for name, _ in verdict.residuals]
    assert names == ["-[w1,delta2]_NR-[w2,delta1]_NR"]
    residual = verdict.residuals[0][1]
    assert residual.eval((0, 1)) == [Fraction(-1), Fraction(-1)]


def test_mc_pair_assder_self_and_nijenhuis():
    rng = random.Random(SEED)
    zero3 = MultiMap.zero(S3, 1)
    for _ in range(5):
        p = gen.der_pair_instances(rng, 1, gen.ASSOCIATIVE_CATALOG,
                                   "assder", "mu")[0]
        mu, delta = p.products["mu"], p.derivations["delta"]
        assert mc_pair_assder(mu, delta, mu, delta).holds
    shift = gen.mm(S3, 1, [(0, 1, 1), (1, 2, 1)])
    from derpair.constructions import nijenhuis_product
    mu_n = nijenhuis_product(gen.POLY3, shift)
    assert mc_pair_assder(gen.POLY3, zero3, mu_n, zero3).holds


# -- equivalence with the structure checkers ------------------------------------------

def test_mc_lieder_agrees_with_checker():
    rng = random.Random(SEED + 1)
    for _ in range(60):
        if rng.random() < 0.5:
            br = gen.LIE_CATALOG[rng.randrange(len(gen.LIE_CATALOG))]
        else:
            br = gen.rand_skew_multimap(rng, S3)
        delta = (gen.sample_derivation(rng, br.space, (br,))
                 if rng.random() < 0.5 else gen.rand_multimap(rng, br.space, 1))
        expected = check_structure(
            P(br.space, "lieder", {"bracket": br}, {"delta": delta})) is None
        assert mc_lieder(AltMap.from_multimap(br), delta).holds == expected


def test_mc_pair_lieder_agrees_with_checker():
    # corruption keeps bracket tables skew so both sides see the same data
    rng = random.Random(SEED + 2)
    valid = gen.compatible_lieder_instances(rng, 25)
    pool = valid + [gen.corrupt_skew(rng, p) for p in valid]
    agreements = {True: 0, False: 0}
    for p in pool:
        verdict = mc_pair_lieder(
            AltMap.from_multimap(p.products["bracket1"]), p.derivations["delta1"],
            AltMap.from_multimap(p.products["bracket2"]), p.derivations["delta2"])
        expected = check_structure(p) is None
        assert verdict.holds == expected
        agreements[expected] += 1
    assert agreements[True] >= 20 and agreements[False] >= 10


def test_mc_pair_assder_agrees_with_checker():
    rng = random.Random(SEED + 3)
    valid = gen.compatible_assder_instances(rng, 25)
    pool = valid + [gen.corrupt(rng, p) for p in valid]
    for p in pool:
        verdict = mc_pair_assder(
            p.products["mu1"], p.derivations["delta1"],
            p.products["mu2"], p.derivations["delta2"])
        assert verdict.holds == (check_structure(p) is None)


# -- the twisted square-zero equation ---------------------------------------------------

def test_deformation_zero_perturbation():
    delta = gen.mm(S2, 1, [(0, 0, 1)])
    assert deformation_check(W2A, delta,
                             AltMap.zero(S2, 2), MultiMap.zero(S2, 1)).holds


def test_deformation_by_the_base_itself():
    delta = gen.mm(S2, 1, [(0, 0, 1)])
    assert deformation_check(W2A, delta, W2A, delta).holds
    doubled = P(S2, "lieder", {"bracket": gen.AFF2A.scale(2)},
                {"delta": delta.scale(2)})
    assert check_structure(doubled) is None


def test_deformation_bad_operator_part():
    not_der = gen.mm(S2, 1, [(1, 1, 1)])
    verdict = deformation_check(W2A, MultiMap.zero(S2, 1),
                                AltMap.zero(S2, 2), not_der)
    assert not verdict.holds


def test_deformation_requires_valid_base():
    with pytest.raises(InvalidStructureError):
        deformation_check(W2A, MultiMap.identity(S2),
                          AltMap.zero(S2, 2), MultiMap.zero(S2, 1))


def test_deformation_matches_summed_structure():
    rng = random.Random(SEED + 4)
    checked = 0
    while checked < 40:
        base = gen.LIE_CATALOG[rng.randrange(len(gen.LIE_CATALOG))]
        delta = gen.sample_derivation(rng, base.space, (base,))
        w = AltMap.from_multimap(base)
        w1 = gen.rand_altmap(rng, base.space, 2, entries=2)
        d1 = (gen.sample_derivation(rng, base.space, (base,))
              if rng.random() < 0.4 else gen.rand_multimap(rng, base.space, 1,
                                                           entries=2))
        verdict = deformation_check(w, delta, w1, d1)
        summed = P(base.space, "lieder",
                   {"bracket": base + w1.to_multimap()},
                   {"delta": delta + d1})
        assert verdict.holds == (check_structure(summed) is None)
        checked += 1


# -- anticommuting differentials ----------------------------------------------------------

def test_bidifferential_zero_pairs():
    zero_pair = DerCochain(AltMap.zero(S2, 2), AltMap.zero(S2, 1))
    assert bidifferential_check(zero_pair, zero_pair).holds


def test_bidifferential_single_coboundary():
    delta = gen.mm(S2, 1, [(0, 0, 1)])
    pair = lie_pair(W2A, delta)
    assert bidifferential_check(pair, pair, max_degree=2).holds


def test_bidifferential_on_compatible_pairs():
    rng = random.Random(SEED + 5)
    for p in gen.compatible_lieder_instances(rng, 10):
        pair1 = lie_pair(AltMap.from_multimap(p.products["bracket1"]),
                         p.derivations["delta1"])
        pair2 = lie_pair(AltMap.from_multimap(p.products["bracket2"]),
                         p.derivations["delta2"])
        assert bidifferential_check(pair1, pair2, max_degree=2).holds


def test_bidifferential_assder_flavor():
    rng = random.Random(SEED + 6)
    for p in gen.compatible_assder_instances(rng, 6):
        pair1 = DerCochain(p.products["mu1"], p.derivations["delta1"])
        pair2 = DerCochain(p.products["mu2"], p.derivations["delta2"])
        assert bidifferential_check(pair1, pair2, flavor="assder",
                                    max_degree=2).holds


def test_bidifferential_refuses_an_empty_degree_range():
    # with no degree checked there is no certificate for a verdict
    pair = lie_pair(W2A, gen.mm(S2, 1, [(0, 0, 1)]))
    for max_degree in (0, -1, -5):
        with pytest.raises(SchemaError, match="max_degree must be >= 1"):
            bidifferential_check(pair, pair, max_degree=max_degree)
    assert bidifferential_check(pair, pair, max_degree=1).holds


def test_bidifferential_detects_incompatibility():
    d1 = gen.mm(S2, 1, [(0, 0, 1)])
    d2 = gen.mm(S2, 1, [(1, 1, 1)])
    pair1 = lie_pair(W2A, d1)
    pair2 = lie_pair(W2B, d2)
    verdict = bidifferential_check(pair1, pair2, max_degree=2)
    assert not verdict.holds


def test_square_zero_checks_refuse_bad_shapes():
    w, mu, delta = W2A, gen.NIL2, MultiMap.zero(S2, 1)
    cases = [("expected a linear operator", lambda: lie_pair(w, gen.NIL2)),
             ("expected an alternating bilinear map",
              lambda: mc_lieder(AltMap.identity(S2), delta)),
             ("expected a bilinear map", lambda: mc_assder(delta, delta)),
             ("operands live on different spaces",
              lambda: mc_lieder(w, MultiMap.zero(S3, 1))),
             ("operands live on different spaces",
              lambda: mc_assder(mu, MultiMap.zero(S3, 1)))]
    for message, call in cases:
        with pytest.raises(ShapeError, match=message):
            call()


def test_bidifferential_shape_errors():
    pair2 = DerCochain(AltMap.zero(S2, 2), AltMap.zero(S2, 1))
    pair3 = DerCochain(AltMap.zero(S3, 2), AltMap.zero(S3, 1))
    with pytest.raises(ShapeError):
        bidifferential_check(pair2, pair3)
    with pytest.raises(SchemaError):
        bidifferential_check(pair2, pair2, flavor="nope")
    multi = DerCochain(MultiMap.zero(S2, 2), MultiMap.zero(S2, 1))
    with pytest.raises(ShapeError):
        bidifferential_check(multi, multi, flavor="lieder")
