"""Deterministic instance generation for the property suites.

Valid structures are drawn from small catalogs (nilpotent, truncated
polynomial, the standard two-dimensional brackets, sl2, Heisenberg, truncated
free zinbiel) and then randomized by unimodular basis changes, which preserve
every identity in play.  Derivations and compatible derivation pairs are
sampled from the exact kernel of the derivation linear system, operators such
as Rota-Baxter and integrable endomorphisms by exhaustive small-integer
search (cached per catalog algebra).  Rejection sampling on raw structure
constants almost never lands on valid instances, which is why everything here
is constructive.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from derpair.cochains import AltMap, MultiMap, accumulate
from derpair.linalg import Matrix, Space, nullspace
from derpair.structures import (Presentation, check_structure,
                                cross_derivation_system, derivation_system)

S1 = Space.of_dim(1)
S2 = Space.of_dim(2)
S3 = Space.of_dim(3)


def mm(space, arity, entries):
    return MultiMap(space, arity,
                    {(tuple(e[:-2]), e[-2]): Fraction(e[-1]) for e in entries})


def rand_multimap(rng, space, arity, entries=4, bound=3):
    d = space.dimension
    table = {}
    for _ in range(entries):
        key = (tuple(rng.randrange(d) for _ in range(arity)), rng.randrange(d))
        value = Fraction(rng.randint(-bound, bound))
        if value:
            table[key] = value
    return MultiMap(space, arity, table)


def rand_altmap(rng, space, arity, entries=4, bound=3):
    d = space.dimension
    combos = list(itertools.combinations(range(d), arity))
    table = {}
    if not combos:
        return AltMap(space, arity, {})
    for _ in range(entries):
        key = (combos[rng.randrange(len(combos))], rng.randrange(d))
        value = Fraction(rng.randint(-bound, bound))
        if value:
            table[key] = value
    return AltMap(space, arity, table)


def rand_rational(rng, bound=5):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 4))


def rand_rational_map(rng, cls, space, arity, full):
    """A MultiMap or AltMap with rational values on every key (full) or about
    a fifth of them."""
    d = space.dimension
    if cls is MultiMap:
        tuples = itertools.product(range(d), repeat=arity)
    else:
        tuples = itertools.combinations(range(d), arity)
    table = {}
    for args in tuples:
        for out in range(d):
            if full or rng.random() < 0.2:
                table[(args, out)] = rand_rational(rng)
    return cls(space, arity, table)


def rand_skew_multimap(rng, space, entries=3, bound=3):
    return rand_altmap(rng, space, 2, entries, bound).to_multimap()


def rand_vector(rng, space, bound=3):
    return tuple(Fraction(rng.randint(-bound, bound))
                 for _ in range(space.dimension))


def _precompose(m: MultiMap, slot: int, op: MultiMap) -> MultiMap:
    """m with op applied to argument `slot`: (x,y) -> m(..., op(arg), ...)."""
    terms = [((args[:slot] + (src,) + args[slot + 1:], out), value * coefficient)
             for (args, out), value in m.coeffs.items()
             for ((src,), mid), coefficient in op.coeffs.items() if mid == args[slot]]
    return MultiMap(m.space, m.arity, accumulate({}, terms))


def _postcompose(op: MultiMap, m: MultiMap) -> MultiMap:
    """op o m."""
    terms = [((args, dst), value * coefficient)
             for (args, out), value in m.coeffs.items()
             for ((src,), dst), coefficient in op.coeffs.items() if src == out]
    return MultiMap(m.space, m.arity, accumulate({}, terms))


def swapped(m):
    """A bilinear map with its two arguments exchanged."""
    return MultiMap(m.space, 2, {((b, a), out): value
                                 for ((a, b), out), value in m.coeffs.items()})


# -- unimodular basis changes -------------------------------------------------

def _matrix_op(space, rows):
    d = space.dimension
    return MultiMap(space, 1, {((i,), j): Fraction(rows[j][i])
                               for i in range(d) for j in range(d)
                               if rows[j][i]})


def random_unimodular(rng, space):
    """A random integer basis change with exact inverse, as operator pair.

    fwd is built by left-multiplying elementary matrices, so inv picks up the
    matching inverse column operations and inv * fwd = identity throughout.
    """
    d = space.dimension
    fwd = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    inv = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(rng.randint(2, 5)):
        kind = rng.randrange(3)
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if kind == 0 and i != j:
            c = Fraction(rng.choice((-2, -1, 1, 2)))
            for col in range(d):
                fwd[i][col] += c * fwd[j][col]
            for row in range(d):
                inv[row][j] -= c * inv[row][i]
        elif kind == 1 and i != j:
            fwd[i], fwd[j] = fwd[j], fwd[i]
            for row in range(d):
                inv[row][i], inv[row][j] = inv[row][j], inv[row][i]
        else:
            for col in range(d):
                fwd[i][col] = -fwd[i][col]
            for row in range(d):
                inv[row][i] = -inv[row][i]
    return _matrix_op(space, fwd), _matrix_op(space, inv)


def conjugate_map(g, g_inv, m):
    """g^{-1} m(g ..., g ...) for a product, g^{-1} m g for an operator."""
    if m.arity == 1:
        return _postcompose(g_inv, _postcompose(m, g))
    out = m
    for slot in range(m.arity):
        out = _precompose(out, slot, g)
    return _postcompose(g_inv, out)


def conjugate_presentation(rng, p):
    g, g_inv = random_unimodular(rng, p.space)
    return Presentation(
        p.space,
        {name: conjugate_map(g, g_inv, m) for name, m in p.products.items()},
        {name: conjugate_map(g, g_inv, m) for name, m in p.derivations.items()},
        p.kind)


def corrupt(rng, p):
    """Bump one structure constant; usually breaks some axiom."""
    target = rng.choice(sorted(p.products))
    m = p.products[target]
    d = p.space.dimension
    key = (tuple(rng.randrange(d) for _ in range(m.arity)), rng.randrange(d))
    table = dict(m.coeffs)
    table[key] = table.get(key, Fraction(0)) + Fraction(rng.choice((1, -1, 2)))
    products = dict(p.products)
    products[target] = MultiMap(p.space, m.arity, {k: v for k, v in table.items() if v})
    return Presentation(p.space, products, dict(p.derivations), p.kind)


def corrupt_skew(rng, p):
    """Corrupt a bracket or a derivation while keeping bracket tables skew."""
    d = p.space.dimension
    if p.derivations and rng.random() < 0.5:
        target = rng.choice(sorted(p.derivations))
        m = p.derivations[target]
        key = ((rng.randrange(d),), rng.randrange(d))
        table = dict(m.coeffs)
        table[key] = table.get(key, Fraction(0)) + Fraction(rng.choice((1, -1, 2)))
        derivations = dict(p.derivations)
        derivations[target] = MultiMap(p.space, 1,
                                       {k: v for k, v in table.items() if v})
        return Presentation(p.space, dict(p.products), derivations, p.kind)
    target = rng.choice(sorted(p.products))
    m = p.products[target]
    if d < 2:
        return p
    i, j = rng.sample(range(d), 2)
    out = rng.randrange(d)
    bump = Fraction(rng.choice((1, -1, 2)))
    table = dict(m.coeffs)
    table[((i, j), out)] = table.get(((i, j), out), Fraction(0)) + bump
    table[((j, i), out)] = table.get(((j, i), out), Fraction(0)) - bump
    products = dict(p.products)
    products[target] = MultiMap(p.space, 2, {k: v for k, v in table.items() if v})
    return Presentation(p.space, products, dict(p.derivations), p.kind)


# -- catalogs ------------------------------------------------------------------

NIL2 = mm(S2, 2, [(0, 0, 1, 1)])                      # e1 e1 = e2
IDEM2 = mm(S2, 2, [(0, 0, 0, 1), (0, 1, 1, 1)])       # e1 idempotent left unit on e2
POLY3 = mm(S3, 2, [(0, 0, 1, 1), (0, 1, 2, 1), (1, 0, 2, 1)])   # x,x^2,x^3 in K[x]/x^4
UNITAL3 = mm(S3, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
                     (0, 2, 2, 1), (2, 0, 2, 1), (1, 1, 2, 1)])  # 1,x,x^2 in K[x]/x^3

AFF2A = mm(S2, 2, [(0, 1, 0, 1), (1, 0, 0, -1)])      # [e1,e2] = e1
AFF2B = mm(S2, 2, [(0, 1, 1, 1), (1, 0, 1, -1)])      # [e1,e2] = e2
HEIS3 = mm(S3, 2, [(0, 1, 2, 1), (1, 0, 2, -1)])      # [e1,e2] = e3
SL2 = mm(S3, 2, [(0, 1, 1, 2), (1, 0, 1, -2),
                 (0, 2, 2, -2), (2, 0, 2, 2),
                 (1, 2, 0, 1), (2, 1, 0, -1)])        # [h,e]=2e, [h,f]=-2f, [e,f]=h

ZIN2 = mm(S2, 2, [(0, 0, 1, 1)])                      # e1*e1 = e2
ZIN3 = mm(S3, 2, [(0, 0, 1, 1), (0, 1, 2, 2), (1, 0, 2, 1)])  # truncated free zinbiel
ZIN3B = mm(S3, 2, [(0, 0, 2, 1)])                     # e1*e1 = e3

ASSOCIATIVE_CATALOG = (
    MultiMap.zero(S2, 2), NIL2, IDEM2,
    MultiMap.zero(S3, 2), POLY3, UNITAL3,
)
LIE_CATALOG = (
    MultiMap.zero(S2, 2), AFF2A, AFF2B,
    MultiMap.zero(S3, 2), HEIS3, SL2,
)
ZINBIEL_CATALOG = (MultiMap.zero(S2, 2), ZIN2, MultiMap.zero(S3, 2), ZIN3, ZIN3B)
# every associative product is pre-Lie (zero associator)
PRELIE_CATALOG = ASSOCIATIVE_CATALOG


def matrix_units(m, strict=False):
    """E_ij E_jk = E_ik on the m x m matrices, or on the strictly upper-triangular ones.

    The basis is the E_ij, with i < j when strict, in row-major order.
    """
    units = [(i, j) for i in range(m) for j in range(m) if not strict or i < j]
    index = {unit: n for n, unit in enumerate(units)}
    return MultiMap(Space.of_dim(len(units)), 2, {
        ((index[i, j], index[j, k]), index[i, k]): 1
        for i, j in units for k in range(m) if (j, k) in index and (i, k) in index})


def inner_derivation(mu, a):
    """x -> e_a x - x e_a, a derivation of the associative product mu."""
    terms = []
    for ((x, y), out), value in mu.coeffs.items():
        if x == a:
            terms.append((((y,), out), value))
        if y == a:
            terms.append((((x,), out), -value))
    return MultiMap(mu.space, 1, accumulate({}, terms))


def zinbiel_split(star):
    return swapped(star), star    # (prec, succ)


def _dendriform_catalog():
    entries = []
    for star in ZINBIEL_CATALOG:
        prec, succ = zinbiel_split(star)
        entries.append((prec, succ))
    return tuple(entries)


DENDRIFORM_CATALOG = _dendriform_catalog()


# -- derivation sampling -------------------------------------------------------

@lru_cache(maxsize=None)
def derivation_basis(space, products):
    return tuple(nullspace(derivation_system(space, list(products))))


def operator_from_vector(space, vec):
    d = space.dimension
    return MultiMap(space, 1, {((i,), j): vec[i * d + j]
                               for i in range(d) for j in range(d)
                               if vec[i * d + j]})


def sample_from_basis(rng, basis, size, bound=2):
    combo = [Fraction(0)] * size
    for vec in basis:
        c = Fraction(rng.randint(-bound, bound))
        if c:
            for i, x in enumerate(vec):
                combo[i] += c * x
    return combo


def sample_derivation(rng, space, products):
    basis = derivation_basis(space, tuple(products))
    if not basis:
        return MultiMap.zero(space, 1)
    vec = sample_from_basis(rng, basis, space.dimension ** 2)
    return operator_from_vector(space, vec)


def commutation_rows(space, op):
    """Linear rows in delta-unknowns expressing op o delta = delta o op."""
    d = space.dimension
    rows = []
    for i in range(d):
        op_ei = op.eval((i,))
        for j in range(d):
            row = [Fraction(0)] * (d * d)
            for k in range(d):
                cell = op.eval((k,))[j]
                if cell:
                    row[i * d + k] += cell
                if op_ei[k]:
                    row[k * d + j] -= op_ei[k]
            rows.append(row)
    return rows


@lru_cache(maxsize=None)
def compatible_der_basis(space, products1, products2, commute_with=None):
    base = cross_derivation_system(space, list(products1), list(products2))
    rows = [list(base.row(i)) for i in range(base.rows)]
    n = space.dimension ** 2
    if commute_with is not None:
        for block in (0, n):
            for row in commutation_rows(space, commute_with):
                padded = [Fraction(0)] * (2 * n)
                padded[block:block + n] = row
                rows.append(padded)
    return tuple(nullspace(Matrix.from_rows(rows)))


def sample_compatible_derivations(rng, space, products1, products2,
                                  commute_with=None):
    basis = compatible_der_basis(space, tuple(products1), tuple(products2),
                                 commute_with)
    n = space.dimension ** 2
    if not basis:
        return MultiMap.zero(space, 1), MultiMap.zero(space, 1)
    vec = sample_from_basis(rng, basis, 2 * n)
    return operator_from_vector(space, vec[:n]), operator_from_vector(space, vec[n:])


@lru_cache(maxsize=None)
def strong_der_basis(space, products1, products2):
    """Derivations of every product of both structures at once."""
    return tuple(nullspace(derivation_system(
        space, list(products1) + list(products2))))


# -- operator searches ----------------------------------------------------------

def _small_operators(space, bound=1):
    d = space.dimension
    cells = range(-bound, bound + 1)
    for values in itertools.product(cells, repeat=d * d):
        yield operator_from_vector(space, [Fraction(v) for v in values])


def _fast_rb_ok(products, op, weight):
    space = products[0].space
    d = space.dimension
    for a in range(d):
        ra = op.eval((a,))
        for b in range(d):
            rb = op.eval((b,))
            for prod in products:
                lhs = prod.apply([ra, rb])
                if weight:
                    for j, x in enumerate(op.apply([prod.eval((a, b))])):
                        lhs[j] += weight * x
                inner = [x + y for x, y in zip(
                    prod.apply([ra, space.basis_vector(b)]),
                    prod.apply([space.basis_vector(a), rb]))]
                if lhs != op.apply([inner]):
                    return False
    return True


def _fast_nijenhuis_ok(mu, op):
    space = mu.space
    d = space.dimension
    for a in range(d):
        na = op.eval((a,))
        for b in range(d):
            nb = op.eval((b,))
            lhs = mu.apply([na, nb])
            inner = [x + y - z for x, y, z in zip(
                mu.apply([na, space.basis_vector(b)]),
                mu.apply([space.basis_vector(a), nb]),
                op.apply([mu.eval((a, b))]))]
            if lhs != op.apply([inner]):
                return False
    return True


@lru_cache(maxsize=None)
def rota_baxter_search(space, products, weight=0, limit=40):
    """Small-integer weight-`weight` Rota-Baxter operators for the products."""
    weight = Fraction(weight)
    found = []
    for op in _small_operators(space):
        if _fast_rb_ok(products, op, weight):
            found.append(op)
            if len(found) >= limit:
                break
    return tuple(found)


@lru_cache(maxsize=None)
def nijenhuis_search(space, mu, limit=40):
    found = []
    for op in _small_operators(space):
        if _fast_nijenhuis_ok(mu, op):
            found.append(op)
            if len(found) >= limit:
                break
    return tuple(found)


@lru_cache(maxsize=None)
def idempotent_search(space, limit=40):
    found = []
    for op in _small_operators(space):
        if _postcompose(op, op) == op:
            found.append(op)
            if len(found) >= limit:
                break
    return tuple(found)


def _is_multiplicative(op, products):
    space = products[0].space
    d = space.dimension
    for prod in products:
        for a in range(d):
            for b in range(d):
                lhs = op.apply([prod.eval((a, b))])
                if lhs != prod.apply([op.eval((a,)), op.eval((b,))]):
                    return False
    return True


@lru_cache(maxsize=None)
def multiplicative_idempotents(space, products, limit=60):
    found = []
    for op in _small_operators(space):
        if _postcompose(op, op) == op and _is_multiplicative(op, products):
            found.append(op)
            if len(found) >= limit:
                break
    return tuple(found)


# -- instances paired with a compatible operator ---------------------------------

def _proportional_pair(rng, catalog):
    base = catalog[rng.randrange(len(catalog))]
    return base, base.scale(rng.choice((-2, -1, 1, 2, 3)))


def rb_ready_assder_instances(rng, count):
    """(compatible-assder presentation, weight-0 Rota-Baxter R commuting with it)."""
    out = []
    while len(out) < count:
        m1, m2 = _proportional_pair(rng, ASSOCIATIVE_CATALOG)
        ops = rota_baxter_search(m1.space, (m1,))
        if not ops:
            continue
        r_op = ops[rng.randrange(len(ops))]
        d1, d2 = sample_compatible_derivations(rng, m1.space, (m1,), (m2,),
                                               commute_with=r_op)
        p = Presentation(m1.space, {"mu1": m1, "mu2": m2},
                         {"delta1": d1, "delta2": d2}, "compatible-assder")
        if check_structure(p) is None:
            out.append((p, r_op))
    return out


def rb_ready_lieder_instances(rng, count):
    out = []
    while len(out) < count:
        b1, b2 = _proportional_pair(rng, LIE_CATALOG)
        ops = rota_baxter_search(b1.space, (b1,))
        if not ops:
            continue
        r_op = ops[rng.randrange(len(ops))]
        d1, d2 = sample_compatible_derivations(rng, b1.space, (b1,), (b2,),
                                               commute_with=r_op)
        p = Presentation(b1.space, {"bracket1": b1, "bracket2": b2},
                         {"delta1": d1, "delta2": d2}, "compatible-lieder")
        if check_structure(p) is None:
            out.append((p, r_op))
    return out


def endo_ready_instances(rng, count):
    """(compatible-assder presentation, multiplicative idempotent T)."""
    out = []
    while len(out) < count:
        m1, m2 = compatible_assoc_products(rng)
        ops = multiplicative_idempotents(m1.space, (m1, m2))
        if not ops:
            continue
        t_op = ops[rng.randrange(len(ops))]
        d1, d2 = sample_compatible_derivations(rng, m1.space, (m1,), (m2,),
                                               commute_with=t_op)
        p = Presentation(m1.space, {"mu1": m1, "mu2": m2},
                         {"delta1": d1, "delta2": d2}, "compatible-assder")
        if check_structure(p) is None:
            out.append((p, t_op))
    return out


def nijenhuis_ready_instances(rng, count):
    """(associative product, integrable operator N), basis-changed."""
    out = []
    while len(out) < count:
        mu = ASSOCIATIVE_CATALOG[rng.randrange(len(ASSOCIATIVE_CATALOG))]
        ops = nijenhuis_search(mu.space, mu)
        if not ops:
            continue
        n_op = ops[rng.randrange(len(ops))]
        g, g_inv = random_unimodular(rng, mu.space)
        out.append((conjugate_map(g, g_inv, mu), conjugate_map(g, g_inv, n_op)))
    return out


# -- assembled presentations -----------------------------------------------------

def der_pair_instances(rng, count, catalog, kind, product_name):
    """Randomized (product, derivation) pairs of the given plain-der kind."""
    out = []
    while len(out) < count:
        base = catalog[rng.randrange(len(catalog))]
        delta = sample_derivation(rng, base.space, (base,))
        p = Presentation(base.space, {product_name: base}, {"delta": delta}, kind)
        p = conjugate_presentation(rng, p)
        out.append(p)
    return out


def dendrider_instances(rng, count):
    out = []
    while len(out) < count:
        prec, succ = DENDRIFORM_CATALOG[rng.randrange(len(DENDRIFORM_CATALOG))]
        delta = sample_derivation(rng, prec.space, (prec, succ))
        p = Presentation(prec.space, {"prec": prec, "succ": succ},
                         {"delta": delta}, "dendrider")
        out.append(conjugate_presentation(rng, p))
    return out


def compatible_lie_products(rng):
    """A valid compatible Lie pair of skew bilinear tables."""
    roll = rng.random()
    if roll < 0.45:
        return rand_skew_multimap(rng, S2), rand_skew_multimap(rng, S2)
    base = LIE_CATALOG[rng.randrange(len(LIE_CATALOG))]
    if roll < 0.85:
        return base, base.scale(rng.choice((-2, -1, 1, 2, 3)))
    other = LIE_CATALOG[rng.randrange(len(LIE_CATALOG))]
    if other.space is base.space:
        cand = Presentation(base.space, {"bracket1": base, "bracket2": other},
                            {}, "compatible-lie")
        if check_structure(cand) is None:
            return base, other
    return base, base.scale(2)


def compatible_assoc_products(rng):
    roll = rng.random()
    if roll < 0.4:
        nij = nijenhuis_search(S3, POLY3)
        n_op = nij[rng.randrange(len(nij))]
        mu_n = (_precompose(POLY3, 0, n_op) + _precompose(POLY3, 1, n_op)
                - _postcompose(n_op, POLY3))
        return POLY3, mu_n
    base = ASSOCIATIVE_CATALOG[rng.randrange(len(ASSOCIATIVE_CATALOG))]
    return base, base.scale(rng.choice((-2, -1, 1, 2, 3)))


def compatible_lieder_instances(rng, count, commute_with=None):
    out = []
    while len(out) < count:
        b1, b2 = compatible_lie_products(rng)
        d1, d2 = sample_compatible_derivations(rng, b1.space, (b1,), (b2,),
                                               commute_with)
        p = Presentation(b1.space, {"bracket1": b1, "bracket2": b2},
                         {"delta1": d1, "delta2": d2}, "compatible-lieder")
        if commute_with is None:
            p = conjugate_presentation(rng, p)
        if check_structure(p) is None:
            out.append(p)
    return out


def compatible_assder_instances(rng, count, commute_with=None):
    out = []
    while len(out) < count:
        m1, m2 = compatible_assoc_products(rng)
        d1, d2 = sample_compatible_derivations(rng, m1.space, (m1,), (m2,),
                                               commute_with)
        p = Presentation(m1.space, {"mu1": m1, "mu2": m2},
                         {"delta1": d1, "delta2": d2}, "compatible-assder")
        if commute_with is None:
            p = conjugate_presentation(rng, p)
        if check_structure(p) is None:
            out.append(p)
    return out


def compatible_zinder_instances(rng, count):
    out = []
    while len(out) < count:
        roll = rng.random()
        if roll < 0.5:
            s1 = ZINBIEL_CATALOG[rng.randrange(len(ZINBIEL_CATALOG))]
            s2 = s1.scale(rng.choice((-2, -1, 1, 2, 3)))
        else:
            s1, s2 = ZIN3, ZIN3B
        d1, d2 = sample_compatible_derivations(rng, s1.space, (s1,), (s2,))
        p = Presentation(s1.space, {"star1": s1, "star2": s2},
                         {"delta1": d1, "delta2": d2}, "compatible-zinder")
        p = conjugate_presentation(rng, p)
        if check_structure(p) is None:
            out.append(p)
    return out


def compatible_dendrider_instances(rng, count):
    out = []
    while len(out) < count:
        source = compatible_zinder_instances(rng, 1)[0]
        prec1, succ1 = zinbiel_split(source.products["star1"])
        prec2, succ2 = zinbiel_split(source.products["star2"])
        p = Presentation(source.space,
                         {"prec1": prec1, "succ1": succ1,
                          "prec2": prec2, "succ2": succ2},
                         dict(source.derivations), "compatible-dendrider")
        if check_structure(p) is None:
            out.append(p)
    return out


def compatible_prelieder_instances(rng, count):
    out = []
    while len(out) < count:
        roll = rng.random()
        if roll < 0.5:
            base = PRELIE_CATALOG[rng.randrange(len(PRELIE_CATALOG))]
            c1, c2 = base, base.scale(rng.choice((-2, -1, 1, 2)))
            d1, d2 = sample_compatible_derivations(rng, c1.space, (c1,), (c2,))
            p = Presentation(c1.space, {"circ1": c1, "circ2": c2},
                             {"delta1": d1, "delta2": d2},
                             "compatible-prelieder")
            p = conjugate_presentation(rng, p)
        else:
            source = compatible_dendrider_instances(rng, 1)[0]
            c1 = source.products["succ1"] - swapped(source.products["prec1"])
            c2 = source.products["succ2"] - swapped(source.products["prec2"])
            p = Presentation(source.space, {"circ1": c1, "circ2": c2},
                             dict(source.derivations), "compatible-prelieder")
        if check_structure(p) is None:
            out.append(p)
    return out
