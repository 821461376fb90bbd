"""Seeded instance families for the benchmark, written without derpair.

A structure is a dict of named tables; a table maps ``(args, out)`` to a
nonzero ``Fraction`` with 0-based basis indices, as in derpair's file format.
Every family here is graded: basis element ``e_i`` has weight ``w_i``, every
product sends weights ``(w_i, w_j)`` to ``w_i + w_j``, so the grading map
``delta(e_i) = w_i e_i`` is a derivation of it and every ``*der`` kind is
valid.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

FAMILY_PRODUCTS = {
    "associative": ("mu",),
    "lie": ("bracket",),
    "prelie": ("circ",),
    "zinbiel": ("star",),
    "dendriform": ("prec", "succ"),
}
DER_KIND = {"associative": "assder", "lie": "lieder", "prelie": "prelieder",
            "zinbiel": "zinder", "dendriform": "dendrider"}
KIND_FAMILY = {}
for _family, _der in DER_KIND.items():
    for _kind in (_family, _der, f"compatible-{_family}", f"compatible-{_der}"):
        KIND_FAMILY[_kind] = _family


def kind_info(kind: str) -> tuple[str, bool, bool]:
    """(family, compatible, with_derivation) of a structure kind."""
    return (KIND_FAMILY[kind], kind.startswith("compatible-"),
            kind.removeprefix("compatible-") in DER_KIND.values())


# -- graded families ------------------------------------------------------------

def _graded(d: int, coefficient) -> dict:
    # e_i * e_j = coefficient(i, j) e_{i+j+1}: weights w_i = i + 1
    return {((i, j), i + j + 1): Fraction(coefficient(i, j))
            for i in range(d) for j in range(d)
            if i + j + 1 < d and coefficient(i, j)}


def nilpotent_assoc(d: int) -> dict:
    """e_i e_j = e_{i+j+1}: truncated x K[x]."""
    return _graded(d, lambda i, j: 1)


def witt_prelie(d: int) -> dict:
    """e_i o e_j = (j+1) e_{i+j+1}: truncated x^a d/dx composition."""
    return _graded(d, lambda i, j: j + 1)


def witt_lie(d: int) -> dict:
    """[e_i, e_j] = (j-i) e_{i+j+1}: the commutator of witt_prelie."""
    return _graded(d, lambda i, j: j - i)


def shuffle_zinbiel(d: int) -> dict:
    """e_i * e_j = C(i+j+1, j) e_{i+j+1}: the truncated half-shuffle product."""
    return _graded(d, lambda i, j: comb(i + j + 1, j))


def flip(table: dict) -> dict:
    return {((b, a), out): v for ((a, b), out), v in table.items()}


def heisenberg(d: int) -> dict:
    """[e_i, e_{k+i}] = e_{d-1} for i < k = (d-1)//2, as a full skew table."""
    k = (d - 1) // 2
    table = {}
    for i in range(k):
        table[((i, k + i), d - 1)] = Fraction(1)
        table[((k + i, i), d - 1)] = Fraction(-1)
    return table


def heisenberg_weights(d: int) -> list[int]:
    return [1] * (d - 1) + [2]


def family_products(family: str, d: int, lie: str = "witt") -> dict:
    if family == "associative":
        return {"mu": nilpotent_assoc(d)}
    if family == "lie":
        return {"bracket": heisenberg(d) if lie == "heisenberg" else witt_lie(d)}
    if family == "prelie":
        return {"circ": witt_prelie(d)}
    if family == "zinbiel":
        return {"star": shuffle_zinbiel(d)}
    star = shuffle_zinbiel(d)
    # x < y = y * x, x > y = x * y splits the zinbiel product into a
    # dendriform pair
    return {"prec": flip(star), "succ": star}


def grading(weights) -> dict:
    return {((i,), i): Fraction(w) for i, w in enumerate(weights)}


def scaled(table: dict, factor) -> dict:
    return {key: factor * v for key, v in table.items()}


def structure(kind: str, d: int, lie: str = "witt") -> tuple[dict, dict]:
    """(products, derivations) of the canonical valid instance of a kind.

    Compatible kinds pair the family product with twice itself, and the
    derivation kinds carry the grading derivation (twice it on the second
    structure), so every compatibility and cross-derivation axiom holds.
    """
    family, compatible, with_der = kind_info(kind)
    base = family_products(family, d, lie)
    weights = (heisenberg_weights(d) if family == "lie" and lie == "heisenberg"
               else range(1, d + 1))
    delta = grading(weights)
    if not compatible:
        return dict(base), ({"delta": delta} if with_der else {})
    products = {}
    for name, table in base.items():
        products[f"{name}1"] = table
        products[f"{name}2"] = scaled(table, 2)
    derivations = ({"delta1": delta, "delta2": scaled(delta, 2)}
                   if with_der else {})
    return products, derivations


# -- basis changes ------------------------------------------------------------------

def permutation_change(rng, d: int):
    """A seeded relabelling of the basis, as (g, g_inv) integer matrices."""
    perm = list(range(d))
    rng.shuffle(perm)
    g = [[int(perm[j] == i) for j in range(d)] for i in range(d)]
    g_inv = [list(row) for row in zip(*g)]
    return g, g_inv


def sign_change(rng, d: int):
    """A seeded change e_i -> +-e_i: same sparsity and magnitudes, new signs."""
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    g = [[signs[i] if i == j else 0 for j in range(d)] for i in range(d)]
    return g, g


def unimodular_change(rng, d: int):
    """A seeded integer basis change with integer inverse: S (1 + J) S'.

    J is the shift with ones on the superdiagonal, so every new basis vector
    mixes two old ones and the inverse (1 - J + J^2 - ...) mixes all later
    ones; S and S' are seeded diagonal signs.  The magnitudes are the same
    on every seed, so seeds differ in signs but not in how dense the
    conjugated structure gets or how large its entries are.
    """
    left, _ = sign_change(rng, d)
    right, _ = sign_change(rng, d)
    shear = [[int(i == j or j == i + 1) for j in range(d)] for i in range(d)]
    shear_inv = [[(-1) ** (j - i) if j >= i else 0 for j in range(d)] for i in range(d)]
    return (_matmul(left, _matmul(shear, right)),
            _matmul(right, _matmul(shear_inv, left)))


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def conjugate(table: dict, arity: int, g, g_inv, d: int) -> dict:
    """The table of g^{-1} m(g x_1, ..., g x_k) in the new basis.

    g[i][j] is the coefficient of old basis vector e_i in new basis vector
    f_j; g_inv converts old coordinates back to new ones.
    """
    cols = [[(i, g[i][j]) for i in range(d) if g[i][j]] for j in range(d)]
    out = {}
    keys = [()]
    for _ in range(arity):
        keys = [k + (j,) for k in keys for j in range(d)]
    for new_args in keys:
        acc = [Fraction(0)] * d
        partial = [((), Fraction(1))]
        for j in new_args:
            partial = [(old + (i,), c * v) for old, c in partial for i, v in cols[j]]
        for old_args, c in partial:
            for k in range(d):
                v = table.get((old_args, k))
                if v:
                    acc[k] += c * v
        for new_out in range(d):
            v = sum(g_inv[new_out][k] * acc[k] for k in range(d) if acc[k])
            if v:
                out[(new_args, new_out)] = Fraction(v)
    return out


def conjugate_structure(products: dict, derivations: dict, g, g_inv, d: int):
    return ({n: conjugate(t, 2, g, g_inv, d) for n, t in products.items()},
            {n: conjugate(t, 1, g, g_inv, d) for n, t in derivations.items()})


# -- file emission ---------------------------------------------------------------------

def _scalar(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def entries(table: dict) -> list:
    return [[*args, out, _scalar(v)] for (args, out), v in sorted(table.items())]


def presentation_text(kind: str, d: int, products: dict, derivations: dict) -> str:
    doc = {
        "dimension": d,
        "kind": kind,
        "products": {n: entries(products[n]) for n in sorted(products)},
        "derivations": {n: entries(derivations[n]) for n in sorted(derivations)},
    }
    return json.dumps(doc, indent=1) + "\n"


def corrupt(rng, kind: str, products: dict, derivations: dict, d: int):
    """Bump one seeded structure constant; Lie brackets stay skew.

    The target is a product or, for derivation kinds, a derivation; returns
    new (products, derivations).  The bump can leave the structure valid, so
    callers re-draw until their oracle finds a violation.
    """
    names = sorted(products) + sorted(derivations)
    target = rng.choice(names)
    bump = Fraction(rng.choice((-1, 1, 2)))
    products = dict(products)
    derivations = dict(derivations)
    if target in derivations:
        table = dict(derivations[target])
        keys = [((rng.randrange(d),), rng.randrange(d))]
        signs = [1]
    else:
        table = dict(products[target])
        i, j = rng.sample(range(d), 2)
        out = rng.randrange(d)
        if KIND_FAMILY[kind] == "lie":
            keys, signs = [((i, j), out), ((j, i), out)], [1, -1]
        else:
            keys, signs = [((i, rng.choice((i, j))), out)], [1]
    for key, sign in zip(keys, signs):
        value = table.get(key, Fraction(0)) + sign * bump
        if value:
            table[key] = value
        else:
            table.pop(key, None)
    (derivations if target in derivations else products)[target] = table
    return products, derivations
