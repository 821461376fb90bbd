import itertools
import random
from fractions import Fraction

import pytest

from derpair.brackets import (assder_bracket, dc_bracket, gerstenhaber,
                              nijenhuis_richardson)
from derpair.cochains import AltMap, DerCochain, MultiMap
from derpair.errors import ShapeError
from derpair.linalg import Space

import gen
from oracles import associator_defect, derivation_defect, jacobiator_defect

S2 = Space.of_dim(2)
S3 = Space.of_dim(3)

RNG_SEED = 303


def graded_antisym_holds(bracket, f, g, deg_f, deg_g):
    return bracket(f, g) == bracket(g, f).scale(-((-1) ** (deg_f * deg_g)))


def graded_jacobi_holds(bracket, f, g, h, deg_f, deg_g):
    lhs = bracket(f, bracket(g, h))
    rhs = bracket(bracket(f, g), h) \
        + bracket(g, bracket(f, h)).scale((-1) ** (deg_f * deg_g))
    return lhs == rhs


def alt_op(m):
    return AltMap(m.space, 1, dict(m.coeffs))


# -- the insertion bracket -------------------------------------------------------

def test_gerstenhaber_square_detects_associativity():
    mu = gen.mm(S2, 2, [(0, 0, 1, 1)])
    assert associator_defect(mu) is None
    assert gerstenhaber(mu, mu).is_zero()


def test_gerstenhaber_identity_bracket():
    mu = gen.mm(S2, 2, [(0, 0, 1, 1)])
    ident = MultiMap.identity(S2)
    assert gerstenhaber(ident, mu) == mu.scale(-1)


def test_gerstenhaber_antisymmetry_randomized():
    rng = random.Random(RNG_SEED)
    for _ in range(40):
        f = gen.rand_multimap(rng, S2, rng.randint(1, 3))
        g = gen.rand_multimap(rng, S2, rng.randint(1, 3))
        assert graded_antisym_holds(gerstenhaber, f, g,
                                    f.arity - 1, g.arity - 1)


def test_nr_square_vanishes_in_dim2():
    w = AltMap(S2, 2, {((0, 1), 0): Fraction(1)})
    assert nijenhuis_richardson(w, w).is_zero()


def test_nr_with_operator_is_derivation_defect():
    w = AltMap(S2, 2, {((0, 1), 0): Fraction(1)})
    for table in ({((0,), 0): Fraction(1)},            # diag(1,0): derivation
                  {((1,), 1): Fraction(1)},            # diag(0,1): not
                  {((1,), 0): Fraction(2)}):
        delta = MultiMap(S2, 1, table)
        bracket = nijenhuis_richardson(w, alt_op(delta))
        defect = derivation_defect(delta, w.to_multimap())
        if defect is None:
            assert bracket.is_zero()
        else:
            t, lhs, rhs = defect
            value = bracket.eval(t)
            # bracket = w(dx,y) + w(x,dy) - d(w(x,y)) = rhs - lhs at the witness
            assert value == [r - l for l, r in zip(lhs, rhs)]
    delta_bad = MultiMap(S2, 1, {((1,), 1): Fraction(1)})
    assert nijenhuis_richardson(w, alt_op(delta_bad)).eval((0, 1)) == \
        [Fraction(1), 0]


def test_nr_identity_bracket():
    w = AltMap(S2, 2, {((0, 1), 0): Fraction(1)})
    assert nijenhuis_richardson(w, AltMap.identity(S2)) == w


# -- pair brackets ------------------------------------------------------------------

def test_dc_bracket_square_formula():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(20):
        w = gen.rand_altmap(rng, S3, 2)
        delta = alt_op(gen.rand_multimap(rng, S3, 1))
        pair = DerCochain(w, delta)
        square = dc_bracket(pair, pair)
        assert square.top == nijenhuis_richardson(w, w)
        assert square.shadow == nijenhuis_richardson(w, delta).scale(-2)


def test_dc_bracket_mixed_formula():
    rng = random.Random(RNG_SEED + 2)
    for _ in range(20):
        w1, w2 = (gen.rand_altmap(rng, S3, 2) for _ in range(2))
        d1, d2 = (alt_op(gen.rand_multimap(rng, S3, 1)) for _ in range(2))
        value = dc_bracket(DerCochain(w1, d1), DerCochain(w2, d2))
        assert value.top == nijenhuis_richardson(w1, w2)
        assert value.shadow == (nijenhuis_richardson(w1, d2)
                                + nijenhuis_richardson(w2, d1)).scale(-1)


def test_dc_bracket_zero_and_bilinearity():
    rng = random.Random(RNG_SEED + 3)
    zero = DerCochain.zero(S3, 2, "alt")
    other = DerCochain(gen.rand_altmap(rng, S3, 2), gen.rand_altmap(rng, S3, 1))
    assert dc_bracket(zero, other).is_zero()
    c = Fraction(3, 2)
    scaled = dc_bracket(other.scale(c), other)
    assert scaled == dc_bracket(other, other).scale(c)


def test_assder_bracket_square_formula():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(20):
        mu = gen.rand_multimap(rng, S2, 2)
        delta = gen.rand_multimap(rng, S2, 1)
        pair = DerCochain(mu, delta)
        square = assder_bracket(pair, pair)
        assert square.top == gerstenhaber(mu, mu)
        assert square.shadow == gerstenhaber(mu, delta).scale(-2)


def test_assder_bracket_mixed_formula():
    rng = random.Random(RNG_SEED + 5)
    for _ in range(20):
        m1, m2 = (gen.rand_multimap(rng, S2, 2) for _ in range(2))
        d1, d2 = (gen.rand_multimap(rng, S2, 1) for _ in range(2))
        value = assder_bracket(DerCochain(m1, d1), DerCochain(m2, d2))
        assert value.top == gerstenhaber(m1, m2)
        assert value.shadow == (gerstenhaber(m1, d2).scale(-1)
                                + gerstenhaber(d1, m2))


def test_assder_bracket_zero():
    zero = DerCochain.zero(S2, 2, "multi")
    rng = random.Random(RNG_SEED + 6)
    other = DerCochain(gen.rand_multimap(rng, S2, 2),
                       gen.rand_multimap(rng, S2, 1))
    assert assder_bracket(zero, other).is_zero()


def _dc_formula(a, b):
    # a = (f_{m+1}, g_m), b = (f_{n+1}, g_n):
    # (-1)^m [f_{m+1}, g_n] - (-1)^{n(m+1)} [f_{n+1}, g_m], all NR
    m, n = a.top.arity - 1, b.top.arity - 1
    terms = []
    if b.shadow is not None:
        terms.append(nijenhuis_richardson(a.top, b.shadow).scale((-1) ** m))
    if a.shadow is not None:
        terms.append(nijenhuis_richardson(b.top, a.shadow)
                     .scale(-(-1) ** (n * (m + 1))))
    return nijenhuis_richardson(a.top, b.top), terms


def _assder_formula(a, b):
    # a = (f_m, f_{m-1}), b = (g_n, g_{n-1}):
    # (-1)^{m+1} [f_m, g_{n-1}] + [f_{m-1}, g_n], all G
    m = a.top.arity
    terms = []
    if b.shadow is not None:
        terms.append(gerstenhaber(a.top, b.shadow).scale((-1) ** (m + 1)))
    if a.shadow is not None:
        terms.append(gerstenhaber(a.shadow, b.top))
    return gerstenhaber(a.top, b.top), terms


def _random_pair(rng, cls, space, degree, rational):
    def part(arity):
        if rational:
            return gen.rand_rational_map(rng, cls, space, arity, full=False)
        if cls is MultiMap:
            return gen.rand_multimap(rng, space, arity)
        return gen.rand_altmap(rng, space, arity)
    return DerCochain(part(degree), part(degree - 1) if degree > 1 else None)


@pytest.mark.parametrize("bracket, formula, cls, space", [
    (dc_bracket, _dc_formula, AltMap, Space.of_dim(4)),
    (assder_bracket, _assder_formula, MultiMap, S2),
])
def test_pair_brackets_follow_their_formulas(bracket, formula, cls, space):
    # Top arities 1..3 in both argument orders and as a self-bracket, over
    # integer and rational maps, against the formula of each docstring.
    rng = random.Random(RNG_SEED + 11)
    for rational in (False, True):
        for m, n in itertools.combinations_with_replacement((1, 2, 3), 2):
            a = _random_pair(rng, cls, space, m, rational)
            b = _random_pair(rng, cls, space, n, rational)
            for x, y in ((a, b), (b, a), (a, a), (b, b)):
                value = bracket(x, y)
                top, terms = formula(x, y)
                assert value.top == top
                if terms:
                    assert value.shadow == sum(terms[1:], terms[0])
                else:
                    assert value.shadow is None


# -- graded Lie laws -------------------------------------------------------------

def test_graded_laws_all_brackets():
    rng = random.Random(RNG_SEED + 7)
    for _ in range(40):
        f, g, h = (gen.rand_multimap(rng, S2, rng.randint(1, 3))
                   for _ in range(3))
        assert graded_antisym_holds(gerstenhaber, f, g, f.arity - 1, g.arity - 1)
        assert graded_jacobi_holds(gerstenhaber, f, g, h,
                                   f.arity - 1, g.arity - 1)
    for _ in range(40):
        f, g, h = (gen.rand_altmap(rng, S3, rng.randint(1, 3))
                   for _ in range(3))
        assert graded_antisym_holds(nijenhuis_richardson, f, g,
                                    f.arity - 1, g.arity - 1)
        assert graded_jacobi_holds(nijenhuis_richardson, f, g, h,
                                   f.arity - 1, g.arity - 1)
    for _ in range(30):
        degrees = [rng.randint(1, 2) for _ in range(3)]
        a, b, c = (DerCochain(gen.rand_altmap(rng, S3, n),
                              gen.rand_altmap(rng, S3, n - 1) if n > 1 else None)
                   for n in degrees)
        assert graded_antisym_holds(dc_bracket, a, b,
                                    degrees[0] - 1, degrees[1] - 1)
        assert graded_jacobi_holds(dc_bracket, a, b, c,
                                   degrees[0] - 1, degrees[1] - 1)
    for _ in range(30):
        degrees = [rng.randint(1, 2) for _ in range(3)]
        a, b, c = (DerCochain(gen.rand_multimap(rng, S2, n),
                              gen.rand_multimap(rng, S2, n - 1) if n > 1 else None)
                   for n in degrees)
        assert graded_antisym_holds(assder_bracket, a, b,
                                    degrees[0] - 1, degrees[1] - 1)
        assert graded_jacobi_holds(assder_bracket, a, b, c,
                                   degrees[0] - 1, degrees[1] - 1)


# -- structure detection equivalences ------------------------------------------------

def test_associativity_equivalence_both_directions():
    rng = random.Random(RNG_SEED + 8)
    seen_valid = seen_invalid = 0
    for i in range(120):
        if i % 3 == 0:
            mu = gen.ASSOCIATIVE_CATALOG[rng.randrange(len(gen.ASSOCIATIVE_CATALOG))]
        else:
            mu = gen.rand_multimap(rng, S2 if rng.random() < 0.5 else S3, 2,
                                   entries=3)
        is_assoc = associator_defect(mu) is None
        seen_valid += is_assoc
        seen_invalid += not is_assoc
        assert is_assoc == gerstenhaber(mu, mu).is_zero()
    assert seen_valid > 10 and seen_invalid > 10


def test_jacobi_equivalence_both_directions():
    rng = random.Random(RNG_SEED + 9)
    seen_valid = seen_invalid = 0
    for i in range(120):
        if i % 3 == 0:
            w = gen.AltMap.from_multimap(
                gen.LIE_CATALOG[rng.randrange(len(gen.LIE_CATALOG))])
        else:
            w = gen.rand_altmap(rng, S3, 2, entries=3)
        is_lie = jacobiator_defect(w) is None
        seen_valid += is_lie
        seen_invalid += not is_lie
        assert is_lie == nijenhuis_richardson(w, w).is_zero()
    assert seen_valid > 10 and seen_invalid > 10


def test_derivation_equivalence_via_brackets():
    rng = random.Random(RNG_SEED + 10)
    for _ in range(60):
        mu = gen.ASSOCIATIVE_CATALOG[rng.randrange(len(gen.ASSOCIATIVE_CATALOG))]
        delta = (gen.sample_derivation(rng, mu.space, (mu,))
                 if rng.random() < 0.6 else gen.rand_multimap(rng, mu.space, 1))
        assert (derivation_defect(delta, mu) is None) == \
            gerstenhaber(mu, delta).is_zero()
    for _ in range(60):
        br = gen.LIE_CATALOG[rng.randrange(len(gen.LIE_CATALOG))]
        w = gen.AltMap.from_multimap(br)
        delta = (gen.sample_derivation(rng, br.space, (br,))
                 if rng.random() < 0.6 else gen.rand_multimap(rng, br.space, 1))
        assert (derivation_defect(delta, br) is None) == \
            nijenhuis_richardson(w, alt_op(delta)).is_zero()


def test_space_mismatch_errors():
    with pytest.raises(ShapeError):
        gerstenhaber(MultiMap.identity(S2), MultiMap.identity(S3))
    with pytest.raises(ShapeError):
        nijenhuis_richardson(AltMap.identity(S2), AltMap.identity(S3))
    with pytest.raises(ShapeError):
        dc_bracket(DerCochain.zero(S2, 1, "alt"), DerCochain.zero(S2, 1, "multi"))
    for bracket, flavor in ((dc_bracket, "alt"), (assder_bracket, "multi")):
        with pytest.raises(ShapeError, match="operands live on different spaces"):
            bracket(DerCochain.zero(S2, 1, flavor), DerCochain.zero(S3, 2, flavor))
    with pytest.raises(ShapeError, match="assder_bracket needs multilinear cochains"):
        assder_bracket(DerCochain.zero(S2, 1, "alt"), DerCochain.zero(S2, 1, "alt"))
