"""Expected answers for verify jobs, computed without derpair.

Each axiom of a structure kind is a signed sum of compositions of its
products and derivations.  The oracle expands those compositions on the
stored structure constants into a defect tensor (left side minus right side,
keyed by basis tuple) and reads the first witness off it as the smallest
tuple with a nonzero defect, taking the axioms in derpair's documented
order.  The square-zero residuals and the transfer recipes are the same
tensors and tables under the conventions spelled out next to each one.
"""

from __future__ import annotations


from instances import FAMILY_PRODUCTS, flip, kind_info

# -- composition tensors ------------------------------------------------------------
# A tensor maps an argument tuple to a sparse output vector {out: value}.


def _add_into(acc: dict, args: tuple, vector: dict, factor) -> None:
    row = acc.setdefault(args, {})
    for out, v in vector.items():
        total = row.get(out, 0) + factor * v
        if total:
            row[out] = total
        else:
            row.pop(out, None)


def _by_arg(table: dict, slot: int) -> dict:
    index = {}
    for (args, out), v in table.items():
        index.setdefault(args[slot], []).append((args, out, v))
    return index


def left(outer: dict, inner: dict) -> dict:
    """(x, y, z) -> outer(inner(x, y), z)."""
    acc = {}
    by_first = _by_arg(outer, 0)
    for ((a, b), k), v in inner.items():
        for (_, c), o, w in by_first.get(k, ()):
            _add_into(acc, (a, b, c), {o: w}, v)
    return acc


def right(outer: dict, inner: dict) -> dict:
    """(x, y, z) -> outer(x, inner(y, z))."""
    acc = {}
    by_second = _by_arg(outer, 1)
    for ((b, c), k), v in inner.items():
        for (a, _), o, w in by_second.get(k, ()):
            _add_into(acc, (a, b, c), {o: w}, v)
    return acc


def plain(table: dict) -> dict:
    acc = {}
    for (args, out), v in table.items():
        _add_into(acc, args, {out: v}, 1)
    return acc


def after(delta: dict, prod: dict) -> dict:
    """(x, y) -> delta(prod(x, y))."""
    acc = {}
    for (args, k), v in prod.items():
        for ((src,), out), w in delta.items():
            if src == k:
                _add_into(acc, args, {out: w}, v)
    return acc


def before(prod: dict, delta: dict, slot: int) -> dict:
    """(x, y) -> prod(..., delta(x_slot), ...)."""
    acc = {}
    by_slot = _by_arg(prod, slot)
    for ((src,), k), w in delta.items():
        for args, out, v in by_slot.get(k, ()):
            new = list(args)
            new[slot] = src
            _add_into(acc, tuple(new), {out: v}, w)
    return acc


def combine(terms) -> dict:
    """Sum of (sign, tensor, order) terms, where term(t) = tensor(t permuted).

    ``order`` lists, for each tensor slot, which position of t feeds it; the
    result is keyed by t and holds only nonzero vectors.
    """
    acc = {}
    for sign, tensor, order in terms:
        inverse = [order.index(i) for i in range(len(order))]
        for s, vector in tensor.items():
            _add_into(acc, tuple(s[j] for j in inverse), vector, sign)
    return {t: v for t, v in acc.items() if v}


XYZ, YXZ, YZX, ZXY, XY, YX = (0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 0, 1), (0, 1), (1, 0)


# -- axioms in derpair's order -----------------------------------------------------

def _family_axioms(family: str, prods: dict, tag: str):
    if family == "associative":
        mu = prods["mu"]
        yield f"associativity({tag})", lambda: combine(
            [(1, left(mu, mu), XYZ), (-1, right(mu, mu), XYZ)])
    elif family == "lie":
        br = prods["bracket"]
        yield f"skew-symmetry({tag})", lambda: combine(
            [(1, plain(br), XY), (1, plain(br), YX)])
        yield f"jacobi({tag})", lambda: _cyclic(br, br)
    elif family == "prelie":
        c = prods["circ"]
        yield f"pre-lie({tag})", lambda: combine(
            [(1, left(c, c), XYZ), (-1, right(c, c), XYZ),
             (-1, left(c, c), YXZ), (1, right(c, c), YXZ)])
    elif family == "zinbiel":
        s = prods["star"]
        yield f"zinbiel({tag})", lambda: combine(
            [(1, right(s, s), XYZ), (-1, left(s, s), XYZ), (-1, left(s, s), YXZ)])
    else:
        p, s = prods["prec"], prods["succ"]
        yield f"dendriform-left({tag})", lambda: combine(
            [(1, left(p, p), XYZ), (-1, right(p, p), XYZ), (-1, right(p, s), XYZ)])
        yield f"dendriform-middle({tag})", lambda: combine(
            [(1, left(p, s), XYZ), (-1, right(s, p), XYZ)])
        yield f"dendriform-right({tag})", lambda: combine(
            [(1, right(s, s), XYZ), (-1, left(s, p), XYZ), (-1, left(s, s), XYZ)])


def _cyclic(outer: dict, inner: dict) -> dict:
    t = left(outer, inner)
    return combine([(1, t, XYZ), (1, t, YZX), (1, t, ZXY)])


def _sum(*tensors) -> dict:
    return combine([(1, t, tuple(range(len(next(iter(t), ()))))) for t in tensors if t])


def _compat_axioms(family: str, one: dict, two: dict):
    if family == "associative":
        m1, m2 = one["mu"], two["mu"]
        yield "compatible-associative", lambda: combine(
            [(1, left(m2, m1), XYZ), (1, left(m1, m2), XYZ),
             (-1, right(m1, m2), XYZ), (-1, right(m2, m1), XYZ)])
    elif family == "lie":
        b1, b2 = one["bracket"], two["bracket"]
        yield "compatible-jacobi", lambda: _sum(_cyclic(b2, b1), _cyclic(b1, b2))
    elif family == "prelie":
        c1, c2 = one["circ"], two["circ"]
        side = [(1, right(c1, c2)), (1, right(c2, c1)),
                (-1, left(c1, c2)), (-1, left(c2, c1))]
        yield "compatible-pre-lie", lambda: combine(
            [(sign, t, XYZ) for sign, t in side]
            + [(-sign, t, YXZ) for sign, t in side])
    elif family == "zinbiel":
        s1, s2 = one["star"], two["star"]
        yield "compatible-zinbiel", lambda: combine(
            [(1, right(s1, s2), XYZ), (1, right(s2, s1), XYZ),
             (-1, left(s1, s2), XYZ), (-1, left(s2, s1), XYZ),
             (-1, left(s1, s2), YXZ), (-1, left(s2, s1), YXZ)])
    else:
        p1, s1, p2, s2 = one["prec"], one["succ"], two["prec"], two["succ"]
        yield "compatible-dendriform-left", lambda: combine(
            [(1, left(p2, p1), XYZ), (1, left(p1, p2), XYZ),
             (-1, right(p2, p1), XYZ), (-1, right(p2, s1), XYZ),
             (-1, right(p1, p2), XYZ), (-1, right(p1, s2), XYZ)])
        yield "compatible-dendriform-middle", lambda: combine(
            [(1, left(p2, s1), XYZ), (1, left(p1, s2), XYZ),
             (-1, right(s2, p1), XYZ), (-1, right(s1, p2), XYZ)])
        yield "compatible-dendriform-right", lambda: combine(
            [(1, left(s2, p1), XYZ), (1, left(s2, s1), XYZ),
             (1, left(s1, p2), XYZ), (1, left(s1, s2), XYZ),
             (-1, right(s2, s1), XYZ), (-1, right(s1, s2), XYZ)])


def derivation_defect(delta: dict, prod: dict) -> dict:
    """delta(xy) - delta(x) y - x delta(y)."""
    return combine([(1, after(delta, prod), XY), (-1, before(prod, delta, 0), XY),
                    (-1, before(prod, delta, 1), XY)])


def axioms(kind: str, products: dict, derivations: dict):
    """(name, defect thunk) pairs of a kind, in derpair's checking order."""
    family, compatible, with_der = kind_info(kind)
    names = FAMILY_PRODUCTS[family]
    if not compatible:
        yield from _family_axioms(family, products, ",".join(names))
        if with_der:
            for name in names:
                yield (f"derivation(delta,{name})",
                       lambda name=name: derivation_defect(derivations["delta"],
                                                           products[name]))
        return
    one = {n: products[f"{n}1"] for n in names}
    two = {n: products[f"{n}2"] for n in names}
    yield from _family_axioms(family, one, ",".join(f"{n}1" for n in names))
    yield from _family_axioms(family, two, ",".join(f"{n}2" for n in names))
    yield from _compat_axioms(family, one, two)
    if with_der:
        d1, d2 = derivations["delta1"], derivations["delta2"]
        for n in names:
            yield (f"derivation(delta1,{n}1)",
                   lambda n=n: derivation_defect(d1, one[n]))
            yield (f"derivation(delta2,{n}2)",
                   lambda n=n: derivation_defect(d2, two[n]))
        for n in names:
            yield (f"cross-derivation({n})",
                   lambda n=n: _sum(derivation_defect(d1, two[n]),
                                    derivation_defect(d2, one[n])))


def _arity(axiom: str) -> int:
    return 2 if axiom.startswith(("skew-symmetry", "derivation(", "cross-derivation(")) else 3


def witness_depth(kind: str, products: dict, derivations: dict, d: int,
                  violation) -> float:
    """Share of derpair's checking order (axiom by axiom, tuples in
    lexicographic order) that comes before the witness."""
    name, witness, _ = violation
    total = before = 0
    for axiom, _ in axioms(kind, products, derivations):
        if axiom == name:
            before = total + sum(i * d ** (len(witness) - 1 - k)
                                 for k, i in enumerate(witness))
        total += d ** _arity(axiom)
    return before / total


def first_violation(kind: str, products: dict, derivations: dict):
    """(axiom, witness, defect vector) of the first failing axiom, or None."""
    for name, defect in axioms(kind, products, derivations):
        tensor = defect()
        if tensor:
            witness = min(tensor)
            return name, witness, tensor[witness]
    return None


# -- square-zero residuals -----------------------------------------------------------
# For a product mu, [mu,mu]_G = 2 (mu o mu) is twice the associator, and
# -2[mu,delta]_G is twice the derivation defect; for a skew bracket w,
# [w,w]_NR = 2 (w o w) is twice the cyclic Jacobi sum, and -2[w,delta]_NR is
# twice the derivation defect.  The mixed brackets of a compatible pair are
# the compatibility and cross-derivation defects with coefficient 1.
# Alternating residuals are stored on increasing argument tuples only.

def _first_entry(tensor: dict, alternating: bool, factor):
    keys = [t for t in tensor if not alternating or list(t) == sorted(set(t))]
    entries = [(t, out, v) for t in keys for out, v in tensor[t].items()]
    if not entries:
        return None
    args, out, v = min(entries)
    return args, out, factor * v


def mc_residuals(kind: str, products: dict, derivations: dict, pair: bool):
    """[(name, (args, out, value))] of the nonzero residuals, in report order."""
    family, _, _ = kind_info(kind)
    alternating = family == "lie"

    def single(prod, delta):
        square = (_cyclic(prod, prod) if alternating else combine(
            [(1, left(prod, prod), XYZ), (-1, right(prod, prod), XYZ)]))
        name = "w" if alternating else "mu"
        suffix = "_NR" if alternating else "_G"
        return [(f"[{name},{name}]{suffix}", square, 2),
                (f"-2[{name},delta]{suffix}", derivation_defect(delta, prod), 2)]

    pname = "bracket" if alternating else "mu"
    if not pair:
        found = single(products[pname], derivations.get("delta", {}))
    else:
        p1, p2 = products[f"{pname}1"], products[f"{pname}2"]
        d1, d2 = derivations.get("delta1", {}), derivations.get("delta2", {})
        found = [(f"{n}[pair1]", t, c) for n, t, c in single(p1, d1)]
        found += [(f"{n}[pair2]", t, c) for n, t, c in single(p2, d2)]
        if alternating:
            found.append(("[w1,w2]_NR", _sum(_cyclic(p1, p2), _cyclic(p2, p1)), 1))
            shadow = "-[w1,delta2]_NR-[w2,delta1]_NR"
        else:
            found.append(("[mu1,mu2]_G", combine(
                [(1, left(p1, p2), XYZ), (-1, right(p1, p2), XYZ),
                 (1, left(p2, p1), XYZ), (-1, right(p2, p1), XYZ)]), 1))
            shadow = "-[mu1,delta2]_G+[delta1,mu2]_G"
        found.append((shadow, _sum(derivation_defect(d1, p2),
                                   derivation_defect(d2, p1)), 1))
    out = []
    for name, tensor, factor in found:
        entry = _first_entry(tensor, alternating, factor)
        if entry is not None:
            out.append((name, entry))
    return out


# -- transfer recipes ----------------------------------------------------------------

def _plus(a: dict, b: dict, k=1) -> dict:
    out = dict(a)
    for key, v in b.items():
        total = out.get(key, 0) + k * v
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def _commutator(m: dict) -> dict:
    return _plus(m, flip(m), -1)


RECIPE_OUTPUT = {
    # recipe -> {input kind: output kind}
    "dendriform-to-associative": {"dendriform": "associative", "dendrider": "assder"},
    "dendriform-to-prelie": {"dendriform": "prelie", "dendrider": "prelieder"},
    "zinbiel-to-dendriform": {"zinbiel": "dendriform", "zinder": "dendrider"},
    "zinbiel-to-associative": {"zinbiel": "associative", "zinder": "assder"},
    "associative-to-lie": {"associative": "lie", "assder": "lieder"},
    "prelie-to-lie": {"prelie": "lie", "prelieder": "lieder"},
    "compatible-assder-to-compatible-lieder": {
        "compatible-assder": "compatible-lieder",
        "compatible-associative": "compatible-lie"},
    "compatible-dendrider-to-compatible-assder": {
        "compatible-dendrider": "compatible-assder",
        "compatible-dendriform": "compatible-associative"},
    "compatible-dendrider-to-compatible-prelieder": {
        "compatible-dendrider": "compatible-prelieder",
        "compatible-dendriform": "compatible-prelie"},
    "compatible-prelieder-to-compatible-lieder": {
        "compatible-prelieder": "compatible-lieder",
        "compatible-prelie": "compatible-lie"},
    "compatible-zinder-to-compatible-assder": {
        "compatible-zinder": "compatible-assder",
        "compatible-zinbiel": "compatible-associative"},
    "linear-combine": {},    # compatible-X -> X, coefficients 1,1,1,1
}


def recipe_output(recipe: str, kind: str, products: dict, derivations: dict):
    """(output kind, products, derivations) of a transfer on a valid input.

    The splittings follow the displayed formulas: x*y = x<y + x>y, the
    pre-Lie product x>y - y<x, the zinbiel splitting x<y = y*x, x>y = x*y,
    its symmetrization x*y + y*x, commutators xy - yx, and for
    linear-combine the sum of the two structures.
    """
    if recipe == "linear-combine":
        out_kind = kind.removeprefix("compatible-")
        names = FAMILY_PRODUCTS[kind_info(kind)[0]]
        prods = {n: _plus(products[f"{n}1"], products[f"{n}2"]) for n in names}
        ders = ({"delta": _plus(derivations["delta1"], derivations["delta2"])}
                if derivations else {})
        return out_kind, prods, ders
    out_kind = RECIPE_OUTPUT[recipe][kind]
    pairs = ("1", "2") if kind.startswith("compatible-") else ("",)
    source, _, target = recipe.partition("-to-")
    source = source.removeprefix("compatible-")
    target = target.removeprefix("compatible-")
    prods = {}
    for i in pairs:
        if source.startswith("dendri"):
            prec, succ = products[f"prec{i}"], products[f"succ{i}"]
            if target.startswith("ass"):
                prods[f"mu{i}"] = _plus(prec, succ)
            else:
                prods[f"circ{i}"] = _plus(succ, flip(prec), -1)
        elif source.startswith("zin"):
            star = products[f"star{i}"]
            if target.startswith("dendri"):
                prods[f"prec{i}"], prods[f"succ{i}"] = flip(star), dict(star)
            else:
                prods[f"mu{i}"] = _plus(star, flip(star))
        else:
            base = products[f"mu{i}"] if source.startswith("ass") else products[f"circ{i}"]
            prods[f"bracket{i}"] = _commutator(base)
    return out_kind, prods, dict(derivations)
