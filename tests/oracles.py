"""Independent reference implementations used to freeze expected test values.

Everything here is written against the displayed definitions, by direct
evaluation over all basis tuples, and deliberately avoids the package's
sparse composition kernels: the insertion composition is expanded position by
position via `eval`, the alternating composition is recovered from the full
symmetric-group antisymmetrization, and the classical coboundaries use the
textbook face sums.  The dense Bareiss rank and the Gauss-Jordan kernel are
the linear algebra the package used before its sparse eliminator, and
``apply_oracle`` and ``der_D_oracle`` are the dense evaluation and
derivation insertion it used before its entry-driven kernels;
``degree0_oracle`` writes the degree-0 coboundary out with the former.
``check_structure_oracle``, ``check_operator_oracle`` and
``check_morphism_oracle`` are its per-tuple axiom checkers from before the
residual tensors.  ``transfer_oracle`` writes every transfer recipe and
operator construction out from its displayed formula, basis pair by basis
pair.  ``formula_oracle`` reads any formula of the axiom and transfer
tables (``table_formulas``) from its parsed tree, one basis tuple at a
time.  ``antisymmetrizer_oracle`` writes the commutator cochain map k!
``AltMap.from_multimap`` out as a sparse matrix from the coordinate layout,
``sparse_product_oracle`` multiplies sparse row tables without
``linalg.compose``, and ``weight0_images`` picks the weight-0 part of an
assembled coboundary matrix under a grading derivation.
"""

import itertools
from fractions import Fraction
from math import factorial, gcd

from derpair.cochains import AltMap, CompatCochain, DerCochain, MultiMap, linear_combination
from derpair.errors import SchemaError, ShapeError, UnsupportedRoleError
from derpair.linalg import ONE, ZERO, Matrix, Space
from derpair.structures import (_FAMILY_PRODUCTS, KIND_INFO, Presentation,
                                Violation, validate_presentation)


def _perm_sign(perm) -> int:
    """The sign of a permutation by counting its inversions."""
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def circle_g_oracle(f: MultiMap, g: MultiMap) -> MultiMap:
    """Insertion composition by direct evaluation of the displayed sum."""
    space = f.space
    d = space.dimension
    p = f.arity - 1
    q = g.arity - 1
    out_arity = p + q + 1
    table = {}
    for args in itertools.product(range(d), repeat=out_arity):
        acc = [ZERO] * d
        for i in range(p + 1):
            inner = g.eval(args[i:i + q + 1])
            sign = (-1) ** (i * q)
            for k, c in enumerate(inner):
                if c:
                    outer = f.eval(args[:i] + (k,) + args[i + q + 1:])
                    for j, x in enumerate(outer):
                        if x:
                            acc[j] += sign * c * x
        for j, x in enumerate(acc):
            if x:
                table[(args, j)] = x
    return MultiMap(space, out_arity, table)


def circle_nr_oracle(f: AltMap, g: AltMap) -> AltMap:
    """Unshuffle composition recovered from the full permutation sum.

    Summing f(g(x_{s(1)},...,x_{s(n+1)}), x_{s(n+2)},...) over the whole
    symmetric group counts every unshuffle (n+1)! m! times because f and g
    are alternating, so dividing restores the unshuffle sum.
    """
    space = f.space
    d = space.dimension
    m = f.arity - 1
    n = g.arity - 1
    out_arity = m + n + 1
    table = {}
    norm = Fraction(1, factorial(n + 1) * factorial(m))
    for args in itertools.combinations(range(d), out_arity):
        acc = [ZERO] * d
        for perm in itertools.permutations(range(out_arity)):
            sign = _perm_sign(perm)
            permuted = tuple(args[p_] for p_ in perm)
            inner = g.eval(permuted[:n + 1])
            for k, c in enumerate(inner):
                if c:
                    outer = f.eval((k,) + permuted[n + 1:])
                    for j, x in enumerate(outer):
                        if x:
                            acc[j] += sign * c * x
        for j, x in enumerate(acc):
            value = x * norm
            if value:
                table[(args, j)] = value
    return AltMap(space, out_arity, table)


def apply_oracle(m, vectors) -> list:
    """Multilinear extension by summing over every basis index tuple."""
    if len(vectors) != m.arity:
        raise ShapeError("argument count != arity")
    d = m.space.dimension
    out = [ZERO] * d
    for args in itertools.product(range(d), repeat=m.arity):
        factor = ONE
        for vec, i in zip(vectors, args):
            factor *= vec[i]
            if factor == 0:
                break
        if factor == 0:
            continue
        for j, c in zip(range(d), m.eval(args)):
            if c:
                out[j] += factor * c
    return out


def degree0_oracle(P, y) -> list:
    """d^0 y = P(., y) - P(y, .), as the dense coordinates of a linear map.

    Coordinate i*d + j is the e_j coefficient of P(e_i, y) - P(y, e_i).  An
    AltMap, whose value is already skew, counts once: it gives P(e_i, y).
    """
    d = P.space.dimension
    half = Fraction(1, 2) if isinstance(P, AltMap) else ONE
    coords = []
    for i in range(d):
        e_i = [ONE if k == i else ZERO for k in range(d)]
        coords += [half * (a - b) for a, b in zip(apply_oracle(P, [e_i, y]),
                                                  apply_oracle(P, [y, e_i]))]
    return coords


def _entries(m) -> list:
    """The stored entries of m, each coefficient read as a Fraction."""
    return [(key, Fraction(value)) for key, value in m.coeffs.items()]


def der_D_oracle(delta: MultiMap, f):
    """sum_i f(..., delta in slot i, ...) - delta o f, written out directly.

    A MultiMap f is expanded slot by slot over its stored entries; an AltMap
    f is evaluated on every increasing index tuple.
    """
    if isinstance(f, AltMap):
        return _der_D_alt_oracle(delta, f)
    table = {}

    def bump(key, value):
        total = table.get(key, ZERO) + value
        if total == 0:
            table.pop(key, None)
        else:
            table[key] = total

    for slot in range(f.arity):
        for (fargs, fout), fc in _entries(f):
            for ((src,), mid), dc in _entries(delta):
                if mid == fargs[slot]:
                    bump((fargs[:slot] + (src,) + fargs[slot + 1:], fout), fc * dc)
    for (fargs, fout), fc in _entries(f):
        for ((src,), out), dc in _entries(delta):
            if src == fout:
                bump((fargs, out), -fc * dc)
    return MultiMap(f.space, f.arity, table)


def _der_D_alt_oracle(delta: MultiMap, f: AltMap) -> AltMap:
    d = f.space.dimension
    table = {}
    for args in itertools.combinations(range(d), f.arity):
        acc = [ZERO] * d
        for slot in range(f.arity):
            dv = delta.eval((args[slot],))
            for a, c in enumerate(dv):
                if c:
                    value = f.eval(args[:slot] + (a,) + args[slot + 1:])
                    for j, x in enumerate(value):
                        if x:
                            acc[j] += c * x
        for j, x in enumerate(apply_oracle(delta, [f.eval(args)])):
            if x:
                acc[j] -= x
        for j, c in enumerate(acc):
            if c:
                table[(args, j)] = c
    return AltMap(f.space, f.arity, table)


def alt_from_multimap_oracle(m: MultiMap) -> AltMap:
    """Antisymmetrize by dense evaluation: average of signed permuted values."""
    d = m.space.dimension
    table = {}
    k = m.arity
    norm = Fraction(1, factorial(k))
    for args in itertools.combinations(range(d), k):
        acc = [ZERO] * d
        for perm in itertools.permutations(range(k)):
            sign = _perm_sign(perm)
            permuted = tuple(args[p] for p in perm)
            for j, c in zip(range(d), m.eval(permuted)):
                if c:
                    acc[j] += sign * c
        for j, c in enumerate(acc):
            if c:
                table[(args, j)] = c * norm
    return AltMap(m.space, k, table)


def associator_defect(mu: MultiMap):
    """First triple where mu(mu(x,y),z) != mu(x,mu(y,z)), or None."""
    space = mu.space
    d = space.dimension
    for t in itertools.product(range(d), repeat=3):
        lhs = mu.apply([mu.eval(t[:2]), space.basis_vector(t[2])])
        rhs = mu.apply([space.basis_vector(t[0]), mu.eval(t[1:])])
        if lhs != rhs:
            return t, lhs, rhs
    return None


def jacobiator_defect(w):
    """First increasing triple violating the cyclic Jacobi sum, or None."""
    space = w.space
    d = space.dimension
    for t in itertools.combinations(range(d), 3):
        total = [sum(column) for column in zip(
            w.apply([w.eval((t[0], t[1])), space.basis_vector(t[2])]),
            w.apply([w.eval((t[1], t[2])), space.basis_vector(t[0])]),
            w.apply([w.eval((t[2], t[0])), space.basis_vector(t[1])]))]
        if any(total):
            return t, total
    return None


def derivation_defect(delta: MultiMap, prod):
    """First pair where delta(prod(x,y)) != prod(dx,y) + prod(x,dy), or None."""
    space = prod.space
    d = space.dimension
    for t in itertools.product(range(d), repeat=2):
        lhs = delta.apply([prod.eval(t)])
        rhs = [a + b for a, b in zip(
            prod.apply([delta.eval((t[0],)), space.basis_vector(t[1])]),
            prod.apply([space.basis_vector(t[0]), delta.eval((t[1],))]))]
        if lhs != rhs:
            return t, lhs, rhs
    return None


def ce_face_d(w: AltMap, f: AltMap) -> AltMap:
    """Classical alternating coboundary with adjoint coefficients.

    (df)(x_1,...,x_{n+1}) = sum_i (-1)^{i+1} [x_i, f(...no x_i...)]
                          + sum_{i<j} (-1)^{i+j} f([x_i,x_j], ...rest...),
    with 1-based positions.
    """
    space = f.space
    d = space.dimension
    n = f.arity
    table = {}
    for args in itertools.combinations(range(d), n + 1):
        acc = [ZERO] * d
        for i in range(n + 1):
            inner = f.eval(args[:i] + args[i + 1:])
            term = w.apply([space.basis_vector(args[i]), inner])
            for j, x in enumerate(term):
                acc[j] += ((-1) ** i) * x
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                rest = tuple(a for k, a in enumerate(args) if k not in (i, j))
                inner = w.eval((args[i], args[j]))
                term = f.apply([inner] + [space.basis_vector(a) for a in rest])
                for jj, x in enumerate(term):
                    acc[jj] += ((-1) ** (i + j)) * x
        for j, x in enumerate(acc):
            if x:
                table[(args, j)] = x
    return AltMap(space, n + 1, table)


def double_bracket_identities_hold(p, f, f2):
    """The four double-bracket identities of a compatible Lie derivation pair.

    For brackets w1, w2 with derivations d1, d2 forming a compatible pair and
    any equal-arity alternating f, f2:

        [w1,[w1,f]] = 0
        [w1,[f,d1]] = [[w1,f],d1]
        [w2,[w1,f]] + [w1,[w2,f]] + [w1,[w1,f2]] = 0
        [w2,[f,d1]] + [w1,[f,d2]] + [w1,[f2,d1]]
            = [[w1,f],d2] + [[w2,f],d1] + [[w1,f2],d1]
    """
    from derpair.brackets import nijenhuis_richardson as nr

    w1 = AltMap.from_multimap(p.products["bracket1"])
    w2 = AltMap.from_multimap(p.products["bracket2"])
    d1 = AltMap(p.space, 1, dict(p.derivations["delta1"].coeffs))
    d2 = AltMap(p.space, 1, dict(p.derivations["delta2"].coeffs))
    one = nr(w1, nr(w1, f))
    two = nr(w1, nr(f, d1)) - nr(nr(w1, f), d1)
    three = nr(w2, nr(w1, f)) + nr(w1, nr(w2, f)) + nr(w1, nr(w1, f2))
    four = (nr(w2, nr(f, d1)) + nr(w1, nr(f, d2)) + nr(w1, nr(f2, d1))
            - nr(nr(w1, f), d2) - nr(nr(w2, f), d1) - nr(nr(w1, f2), d1))
    return (one.is_zero() and two.is_zero() and three.is_zero()
            and four.is_zero())


def hochschild_face_d(mu: MultiMap, f: MultiMap) -> MultiMap:
    """Classical face-sum coboundary of an associative product.

    (df)(x_1,...,x_{n+1}) = x_1 f(x_2,...) + sum_i (-1)^i f(..., x_i x_{i+1}, ...)
                          + (-1)^{n+1} f(x_1,...,x_n) x_{n+1}.
    """
    space = f.space
    d = space.dimension
    n = f.arity
    table = {}
    for args in itertools.product(range(d), repeat=n + 1):
        acc = mu.apply([space.basis_vector(args[0]), f.eval(args[1:])])
        for i in range(1, n + 1):
            inner = mu.eval((args[i - 1], args[i]))
            term = f.apply([space.basis_vector(a) for a in args[:i - 1]]
                           + [inner]
                           + [space.basis_vector(a) for a in args[i + 1:]])
            for j, x in enumerate(term):
                acc[j] += ((-1) ** i) * x
        term = mu.apply([f.eval(args[:n]), space.basis_vector(args[n])])
        for j, x in enumerate(term):
            acc[j] += ((-1) ** (n + 1)) * x
        for j, x in enumerate(acc):
            if x:
                table[(args, j)] = x
    return MultiMap(space, n + 1, table)


# The per-shape differentials the package used before its term table, kept
# as the reference for it.  They build each component from the package's
# brackets, one linear combination per component.

def map_d_oracle(bracket, s, f):
    # d^n f = (-1)^{n-1} [s, f]
    return linear_combination([((-1) ** (f.arity - 1), bracket(s, f))])


def der_pair_d_oracle(product, delta, c: DerCochain, bracket) -> DerCochain:
    # (f_n, g_{n-1}) |-> (d f_n, d g_{n-1} + (-1)^n D f_n) with
    # d h = (-1)^{arity(h)-1} [product, h] and D f = -[delta, f]; delta is
    # in the class of the cochain
    sign = (-1) ** (c.degree - 1)
    top = linear_combination([(sign, bracket(product, c.top))])
    tail = [(sign, bracket(delta, c.top))]
    if c.shadow is not None:
        tail.append((-sign, bracket(product, c.shadow)))
    return DerCochain(top, linear_combination(tail))


def staircase_d_oracle(mu1, mu2, parts, bracket) -> tuple:
    # component i is (-1)^{n-1} ([mu2, f^{i-1}] + [mu1, f^i]), for i = 1..n+1,
    # boundary terms dropping off
    parts = tuple(parts)
    n = len(parts)
    if n == 0 or any(f.arity != n for f in parts):
        raise ShapeError("expected an n-tuple of arity-n cochains")
    sign = (-1) ** (n - 1)
    out = []
    for i in range(1, n + 2):
        terms = [(sign, bracket(mu2, parts[i - 2]))] if i > 1 else []
        if i <= n:
            terms.append((sign, bracket(mu1, parts[i - 1])))
        out.append(linear_combination(terms))
    return tuple(out)


def compat_pair_d_oracle(c: CompatCochain, w1, w2, delta1, delta2, bracket,
                         last_shadow_sign: int = -1) -> CompatCochain:
    # Component i of the output couples part i-1 through w2/delta2 and part i
    # through w1/delta1; last_shadow_sign is the sign of the very last
    # [w2, g^n] term.  The deltas are in the class of the cochain.
    parts = c.parts
    n = c.degree
    sign = (-1) ** (n - 1)
    out = []
    for i in range(1, n + 2):
        top, shadow = [], []
        if i > 1:
            prev = parts[i - 2]
            top.append((sign, bracket(w2, prev.top)))
            if prev.shadow is not None:
                coeff = last_shadow_sign if i == n + 1 else -1
                shadow.append((sign * coeff, bracket(w2, prev.shadow)))
            shadow.append((-sign, bracket(prev.top, delta2)))
        if i <= n:
            cur = parts[i - 1]
            top.append((sign, bracket(w1, cur.top)))
            if cur.shadow is not None:
                shadow.append((-sign, bracket(w1, cur.shadow)))
            shadow.append((-sign, bracket(cur.top, delta1)))
        out.append(DerCochain(linear_combination(top), linear_combination(shadow)))
    return CompatCochain(out)


def _integer_rows(m: Matrix) -> list[list[int]]:
    # Scaling each row by the lcm of its denominators preserves the row space.
    rows = []
    for i in range(m.rows):
        row = m.row(i)
        scale = 1
        for x in row:
            d = x.denominator
            scale = scale * d // gcd(scale, d)
        rows.append([int(x * scale) for x in row])
    return rows


def sparse_rows(m: Matrix) -> dict:
    """{row: {column: Fraction}} of a matrix, its nonzero entries only."""
    return {i: {j: Fraction(x, m.den) for j, x in row.items()}
            for i, row in m._table.items()}


def weight0_images(cx, weights, n: int) -> Matrix:
    """The rows of ``cx.images(n)`` at the basis cochains of weight 0.

    Under the grading derivation e_i -> weights[i] e_i, the basis map that
    sends (e_a1, ..., e_ak) to e_j has weight weights[j] - sum weights[a_t],
    and a basis cochain is one such map in one slot.  The structure maps
    have weight 0, so these rows are D_n on the weight-0 part of the
    complex; the columns they leave zero are dropped.
    """
    rows = [k for k, slots in enumerate(cx.basis(n))
            if not any(weights[j] - sum(weights[a] for a in args)
                       for f in slots for args, j in f.coeffs)]
    images, columns = cx.images(n, {}), {}
    for r, i in enumerate(rows):
        for j, x in images._table.get(i, {}).items():
            columns.setdefault(j, {})[r] = Fraction(x, images.den)
    return Matrix.from_columns(len(rows), columns.values())


def sparse_product_oracle(a: dict, b: dict) -> dict:
    """The product of two {row: {column: value}} tables, zero entries dropped."""
    out = {}
    for i, row in a.items():
        acc = {}
        for j, x in row.items():
            for k, y in b.get(j, {}).items():
                acc[k] = acc.get(k, 0) + x * y
        acc = {k: v for k, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def antisymmetrizer_oracle(d: int, arities) -> dict:
    """A = k! AltMap.from_multimap slot by slot, from multi to alt coordinates.

    Row args * d + j, args read in base d, is the basis map e_{args -> j}.  With
    distinct indices it goes to the sign of the permutation sorting args, at
    the alternating coordinate of (sorted args, j): the rank of sorted args
    among the increasing tuples, times d, plus j.  Each slot's block sits at
    the offsets of the slots before it.
    """
    rows, row0, col0 = {}, 0, 0
    for k in arities:
        alt = {key: i for i, key in enumerate(itertools.combinations(range(d), k))}
        for position, args in enumerate(itertools.product(range(d), repeat=k)):
            key = tuple(sorted(args))
            if key in alt:
                sign = _perm_sign(sorted(range(k), key=args.__getitem__))
                for j in range(d):
                    rows[row0 + position * d + j] = {col0 + alt[key] * d + j: sign}
        row0, col0 = row0 + d ** (k + 1), col0 + len(alt) * d
    return rows


def compose_oracle(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product by the dense row-times-column sums over Fractions."""
    entries = [sum((a.entry(i, k) * b.entry(k, j) for k in range(a.cols)), ZERO)
               for i in range(a.rows) for j in range(b.cols)]
    return Matrix(a.rows, b.cols, entries)


def rank_oracle(m: Matrix) -> int:
    """Exact rank over the rationals via dense fraction-free Bareiss elimination."""
    a = _integer_rows(m)
    n_rows, n_cols = m.rows, m.cols
    r = 0
    prev = 1
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if a[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, n_rows):
            row_i, row_r = a[i], a[r]
            head = row_i[c]
            for j in range(c + 1, n_cols):
                num = row_r[c] * row_i[j] - head * row_r[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("Bareiss division must be exact")
                row_i[j] = q
            row_i[c] = 0
        prev = a[r][c]
        r += 1
        if r == n_rows:
            break
    return r


def rref_oracle(m: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (plain rational Gauss-Jordan) and pivot columns."""
    a = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot = next((i for i in range(r, m.rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return a, pivots


def nullspace_oracle(m: Matrix) -> list[tuple[Fraction, ...]]:
    """A basis of the right kernel read off the dense reduced row echelon form."""
    a, pivots = rref_oracle(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        basis.append(tuple(v))
    return basis


# -- per-tuple axiom checks ------------------------------------------------------
# The structure, operator and morphism checkers the package used before its
# residual tensors: every axiom is evaluated one basis tuple at a time, each
# side through ``apply`` on basis vectors, and the first tuple whose sides
# differ is the witness.

def _add(*vectors):
    out = list(vectors[0])
    for vec in vectors[1:]:
        for i, x in enumerate(vec):
            out[i] += x
    return out


def _sub(a, b):
    return [x - y for x, y in zip(a, b)]


def _neg(a):
    return [-x for x in a]


class _Axioms:
    """Collects (name, arity, fn) triples; fn maps an index tuple to (lhs, rhs)."""

    def __init__(self, space: Space):
        self.space = space
        self.items = []

    def add(self, name, arity, fn):
        self.items.append((name, arity, fn))

    def bv(self, i):
        return self.space.basis_vector(i)

    def first_violation(self):
        d = self.space.dimension
        for name, arity, fn in self.items:
            for tpl in itertools.product(range(d), repeat=arity):
                lhs, rhs = fn(tpl)
                if lhs != rhs:
                    return Violation(name, tpl, tuple(lhs), tuple(rhs))
        return None


def _ap(m, *vectors):
    return m.apply(vectors)


def _add_family_axioms(ax: _Axioms, family: str, prods: dict, tag: str):
    bv = ax.bv
    if family == "associative":
        mu = prods["mu"]
        ax.add(f"associativity({tag})", 3, lambda t: (
            _ap(mu, mu.eval(t[:2]), bv(t[2])),
            _ap(mu, bv(t[0]), mu.eval(t[1:]))))
    elif family == "lie":
        br = prods["bracket"]
        ax.add(f"skew-symmetry({tag})", 2, lambda t: (
            br.eval(t), _neg(br.eval((t[1], t[0])))))
        ax.add(f"jacobi({tag})", 3, lambda t: (
            _add(_ap(br, br.eval((t[0], t[1])), bv(t[2])),
                 _ap(br, br.eval((t[1], t[2])), bv(t[0])),
                 _ap(br, br.eval((t[2], t[0])), bv(t[1]))),
            [ZERO] * ax.space.dimension))
    elif family == "prelie":
        c = prods["circ"]
        ax.add(f"pre-lie({tag})", 3, lambda t: (
            _sub(_ap(c, c.eval((t[0], t[1])), bv(t[2])),
                 _ap(c, bv(t[0]), c.eval((t[1], t[2])))),
            _sub(_ap(c, c.eval((t[1], t[0])), bv(t[2])),
                 _ap(c, bv(t[1]), c.eval((t[0], t[2]))))))
    elif family == "zinbiel":
        s = prods["star"]
        ax.add(f"zinbiel({tag})", 3, lambda t: (
            _ap(s, bv(t[0]), s.eval((t[1], t[2]))),
            _add(_ap(s, s.eval((t[0], t[1])), bv(t[2])),
                 _ap(s, s.eval((t[1], t[0])), bv(t[2])))))
    elif family == "dendriform":
        p, s = prods["prec"], prods["succ"]
        ax.add(f"dendriform-left({tag})", 3, lambda t: (
            _ap(p, p.eval((t[0], t[1])), bv(t[2])),
            _ap(p, bv(t[0]), _add(p.eval((t[1], t[2])), s.eval((t[1], t[2]))))))
        ax.add(f"dendriform-middle({tag})", 3, lambda t: (
            _ap(p, s.eval((t[0], t[1])), bv(t[2])),
            _ap(s, bv(t[0]), p.eval((t[1], t[2])))))
        ax.add(f"dendriform-right({tag})", 3, lambda t: (
            _ap(s, bv(t[0]), s.eval((t[1], t[2]))),
            _ap(s, _add(p.eval((t[0], t[1])), s.eval((t[0], t[1]))), bv(t[2]))))
    else:  # pragma: no cover
        raise SchemaError(f"unknown family {family!r}")


def _add_compat_axioms(ax: _Axioms, family: str, one: dict, two: dict):
    bv = ax.bv
    if family == "associative":
        m1, m2 = one["mu"], two["mu"]
        ax.add("compatible-associative", 3, lambda t: (
            _add(_ap(m2, m1.eval(t[:2]), bv(t[2])),
                 _ap(m1, m2.eval(t[:2]), bv(t[2]))),
            _add(_ap(m1, bv(t[0]), m2.eval(t[1:])),
                 _ap(m2, bv(t[0]), m1.eval(t[1:])))))
    elif family == "lie":
        b1, b2 = one["bracket"], two["bracket"]

        def cyclic(br_out, br_in, t):
            x, y, z = t
            return _add(_ap(br_out, br_in.eval((x, y)), bv(z)),
                        _ap(br_out, br_in.eval((y, z)), bv(x)),
                        _ap(br_out, br_in.eval((z, x)), bv(y)))

        ax.add("compatible-jacobi", 3, lambda t: (
            _add(cyclic(b2, b1, t), cyclic(b1, b2, t)),
            [ZERO] * ax.space.dimension))
    elif family == "prelie":
        c1, c2 = one["circ"], two["circ"]

        def one_side(x, y, z):
            return _sub(
                _add(_ap(c1, bv(x), c2.eval((y, z))),
                     _ap(c2, bv(x), c1.eval((y, z)))),
                _add(_ap(c1, c2.eval((x, y)), bv(z)),
                     _ap(c2, c1.eval((x, y)), bv(z))))

        ax.add("compatible-pre-lie", 3, lambda t: (
            one_side(t[0], t[1], t[2]), one_side(t[1], t[0], t[2])))
    elif family == "zinbiel":
        s1, s2 = one["star"], two["star"]
        ax.add("compatible-zinbiel", 3, lambda t: (
            _add(_ap(s1, bv(t[0]), s2.eval((t[1], t[2]))),
                 _ap(s2, bv(t[0]), s1.eval((t[1], t[2])))),
            _add(_ap(s1, s2.eval((t[0], t[1])), bv(t[2])),
                 _ap(s2, s1.eval((t[0], t[1])), bv(t[2])),
                 _ap(s1, s2.eval((t[1], t[0])), bv(t[2])),
                 _ap(s2, s1.eval((t[1], t[0])), bv(t[2])))))
    elif family == "dendriform":
        p1, s1 = one["prec"], one["succ"]
        p2, s2 = two["prec"], two["succ"]
        ax.add("compatible-dendriform-left", 3, lambda t: (
            _add(_ap(p2, p1.eval(t[:2]), bv(t[2])),
                 _ap(p1, p2.eval(t[:2]), bv(t[2]))),
            _add(_ap(p2, bv(t[0]), _add(p1.eval(t[1:]), s1.eval(t[1:]))),
                 _ap(p1, bv(t[0]), _add(p2.eval(t[1:]), s2.eval(t[1:]))))))
        ax.add("compatible-dendriform-middle", 3, lambda t: (
            _add(_ap(p2, s1.eval(t[:2]), bv(t[2])),
                 _ap(p1, s2.eval(t[:2]), bv(t[2]))),
            _add(_ap(s2, bv(t[0]), p1.eval(t[1:])),
                 _ap(s1, bv(t[0]), p2.eval(t[1:])))))
        ax.add("compatible-dendriform-right", 3, lambda t: (
            _add(_ap(s2, _add(p1.eval(t[:2]), s1.eval(t[:2])), bv(t[2])),
                 _ap(s1, _add(p2.eval(t[:2]), s2.eval(t[:2])), bv(t[2]))),
            _add(_ap(s2, bv(t[0]), s1.eval(t[1:])),
                 _ap(s1, bv(t[0]), s2.eval(t[1:])))))


def _derivation_axiom(ax: _Axioms, delta, delta_tag: str, prod, prod_tag: str):
    bv = ax.bv
    ax.add(f"derivation({delta_tag},{prod_tag})", 2, lambda t: (
        _ap(delta, prod.eval(t)),
        _add(_ap(prod, delta.eval((t[0],)), bv(t[1])),
             _ap(prod, bv(t[0]), delta.eval((t[1],))))))


def _cross_derivation_axiom(ax: _Axioms, d1, d2, prod1, prod2, tag: str):
    # delta1 acting across structure 2 plus delta2 across structure 1.
    bv = ax.bv
    ax.add(f"cross-derivation({tag})", 2, lambda t: (
        _add(_ap(d1, prod2.eval(t)), _ap(d2, prod1.eval(t))),
        _add(_ap(prod2, d1.eval((t[0],)), bv(t[1])),
             _ap(prod2, bv(t[0]), d1.eval((t[1],))),
             _ap(prod1, d2.eval((t[0],)), bv(t[1])),
             _ap(prod1, bv(t[0]), d2.eval((t[1],))))))


def _structure_axioms(p: Presentation) -> _Axioms:
    info = KIND_INFO[p.kind]
    ax = _Axioms(p.space)
    base_names = _FAMILY_PRODUCTS[info.family]
    if not info.compatible:
        prods = {name: p.products[name] for name in base_names}
        _add_family_axioms(ax, info.family, prods, ",".join(base_names))
        if info.with_derivation:
            for name in base_names:
                _derivation_axiom(ax, p.derivations["delta"], "delta",
                                  p.products[name], name)
        return ax
    one = {name: p.products[f"{name}1"] for name in base_names}
    two = {name: p.products[f"{name}2"] for name in base_names}
    _add_family_axioms(ax, info.family, one, ",".join(f"{n}1" for n in base_names))
    _add_family_axioms(ax, info.family, two, ",".join(f"{n}2" for n in base_names))
    _add_compat_axioms(ax, info.family, one, two)
    if info.with_derivation:
        d1, d2 = p.derivations["delta1"], p.derivations["delta2"]
        for name in base_names:
            _derivation_axiom(ax, d1, "delta1", one[name], f"{name}1")
            _derivation_axiom(ax, d2, "delta2", two[name], f"{name}2")
        for name in base_names:
            _cross_derivation_axiom(ax, d1, d2, one[name], two[name], name)
    return ax


def check_structure_oracle(p: Presentation):
    """Verify every defining identity of p.kind; None on pass, else first Violation."""
    validate_presentation(p)
    return _structure_axioms(p).first_violation()


def check_morphism_oracle(src: Presentation, dst: Presentation, phi: MultiMap):
    """Verify phi preserves every product and intertwines every derivation."""
    validate_presentation(src)
    validate_presentation(dst)
    if src.kind != dst.kind:
        raise SchemaError("morphism endpoints must share a kind")
    if phi.arity != 1:
        raise ShapeError("a morphism is a linear map")
    if phi.space != src.space or dst.space.dimension != src.space.dimension:
        raise ShapeError("morphism must map the source space to the target space")
    ax = _Axioms(src.space)
    bv = ax.bv
    for name in sorted(src.products):
        sp, dp = src.products[name], dst.products[name]
        ax.add(f"morphism-product({name})", 2,
               lambda t, sp=sp, dp=dp: (
                   _ap(phi, sp.eval(t)),
                   _ap(dp, phi.eval((t[0],)), phi.eval((t[1],)))))
    for name in sorted(src.derivations):
        sd, dd = src.derivations[name], dst.derivations[name]
        ax.add(f"morphism-derivation({name})", 1,
               lambda t, sd=sd, dd=dd: (
                   _ap(phi, sd.eval(t)), _ap(dd, phi.eval(t))))
    return ax.first_violation()


_FAMILY_OF_PRODUCT = {
    "mu": "associative", "bracket": "lie", "circ": "prelie",
    "star": "zinbiel", "prec": "dendriform-prec", "succ": "dendriform-succ",
}


def _product_family(name: str) -> str:
    return _FAMILY_OF_PRODUCT[name.rstrip("12")]


def check_operator_oracle(p: Presentation, op: MultiMap, role: str, weight=0):
    """Verify op plays the given role on p; None on pass, else first Violation.

    Roles: "derivation", "rota-baxter" (with weight), "nijenhuis",
    "idempotent-endomorphism".  On compatible kinds the operator roles other
    than derivation additionally require commutation with every derivation of
    the presentation.
    """
    validate_presentation(p)
    if op.arity != 1 or op.space != p.space:
        raise ShapeError("operator must be a linear endomorphism of p.space")
    weight = Fraction(weight)
    info = KIND_INFO[p.kind]
    ax = _Axioms(p.space)
    bv = ax.bv

    if role == "derivation":
        for name in sorted(p.products):
            _derivation_axiom(ax, op, "op", p.products[name], name)
        return ax.first_violation()

    if role == "rota-baxter":
        for name in sorted(p.products):
            family = _product_family(name)
            prod = p.products[name]
            if family == "associative":
                ax.add(f"rota-baxter({name})", 2, lambda t, prod=prod: (
                    _add(_ap(prod, op.eval((t[0],)), op.eval((t[1],))),
                         [weight * x for x in _ap(op, prod.eval(t))]),
                    _ap(op, _add(_ap(prod, op.eval((t[0],)), bv(t[1])),
                                 _ap(prod, bv(t[0]), op.eval((t[1],)))))))
            elif family == "lie":
                ax.add(f"rota-baxter({name})", 2, lambda t, prod=prod: (
                    _add(_ap(prod, op.eval((t[0],)), op.eval((t[1],))),
                         [weight * x for x in _ap(op, prod.eval(t))]),
                    _ap(op, _add(_ap(prod, op.eval((t[0],)), bv(t[1])),
                                 _ap(prod, bv(t[0]), op.eval((t[1],)))))))
            elif family.startswith("dendriform"):
                if weight != 0:
                    raise UnsupportedRoleError(
                        "dendriform Rota-Baxter operators are weight 0 only")
                ax.add(f"rota-baxter({name})", 2, lambda t, prod=prod: (
                    _ap(prod, op.eval((t[0],)), op.eval((t[1],))),
                    _ap(op, _add(_ap(prod, op.eval((t[0],)), bv(t[1])),
                                 _ap(prod, bv(t[0]), op.eval((t[1],)))))))
            else:
                raise UnsupportedRoleError(
                    f"Rota-Baxter role undefined on {info.family} structures")
        if info.compatible:
            _commutation_axioms(ax, op, p)
        return ax.first_violation()

    if role == "nijenhuis":
        for name in sorted(p.products):
            if _product_family(name) != "associative":
                raise UnsupportedRoleError(
                    f"Nijenhuis role undefined on {info.family} structures")
            prod = p.products[name]
            ax.add(f"nijenhuis({name})", 2, lambda t, prod=prod: (
                _ap(prod, op.eval((t[0],)), op.eval((t[1],))),
                _ap(op, _sub(_add(_ap(prod, op.eval((t[0],)), bv(t[1])),
                                  _ap(prod, bv(t[0]), op.eval((t[1],)))),
                             _ap(op, prod.eval(t))))))
        if info.compatible:
            _commutation_axioms(ax, op, p)
        return ax.first_violation()

    if role == "idempotent-endomorphism":
        ax.add("idempotent", 1, lambda t: (
            _ap(op, op.eval(t)), op.eval(t)))
        # "endomorphism" is multiplicative: T(P(x,y)) = P(Tx,Ty).  Idempotency
        # plus commutation alone does not make the induced brackets Lie.
        for name in sorted(p.products):
            prod = p.products[name]
            ax.add(f"multiplicative({name})", 2, lambda t, prod=prod: (
                _ap(op, prod.eval(t)),
                _ap(prod, op.eval((t[0],)), op.eval((t[1],)))))
        _commutation_axioms(ax, op, p)
        return ax.first_violation()

    raise UnsupportedRoleError(f"unknown operator role {role!r}")


def _commutation_axioms(ax: _Axioms, op: MultiMap, p: Presentation):
    for name in sorted(p.derivations):
        delta = p.derivations[name]
        ax.add(f"commutes({name})", 1, lambda t, delta=delta: (
            _ap(op, delta.eval(t)), _ap(delta, op.eval(t))))



def derivation_system_oracle(space: Space, products) -> Matrix:
    """The derivation linear system built densely, row by row, with ``eval``.

    Unknowns are the d*d entries of delta in row-major order; one row per
    (product, input pair, output coordinate).
    """
    d = space.dimension
    rows = []
    for prod in products:
        for a in range(d):
            for b in range(d):
                value = prod.eval((a, b))
                for c in range(d):
                    row = [ZERO] * (d * d)
                    for k in range(d):
                        if value[k]:
                            row[k * d + c] += value[k]
                        pk = prod.eval((k, b))[c]
                        if pk:
                            row[a * d + k] -= pk
                        pk = prod.eval((a, k))[c]
                        if pk:
                            row[b * d + k] -= pk
                    rows.append(row)
    return Matrix.from_rows(rows) if rows else Matrix.zero(0, d * d)


def cross_derivation_system_oracle(space: Space, products1, products2) -> Matrix:
    """The compatible Der-pair system over (delta1, delta2), stacked densely.

    Blocks of rows: delta1 on every product of products1, delta2 on every
    product of products2, then for each aligned pair the cross identity.
    """
    d = space.dimension
    n = d * d
    rows = []

    def der_rows(prod, offset):
        block = derivation_system_oracle(space, [prod])
        for i in range(block.rows):
            row = [ZERO] * (2 * n)
            row[offset:offset + n] = list(block.row(i))
            rows.append(row)

    for prod in products1:
        der_rows(prod, 0)
    for prod in products2:
        der_rows(prod, n)
    for p1, p2 in zip(products1, products2):
        cross1 = derivation_system_oracle(space, [p2])  # defect of delta1 on product2
        cross2 = derivation_system_oracle(space, [p1])  # defect of delta2 on product1
        for i in range(cross1.rows):
            rows.append(list(cross1.row(i)) + list(cross2.row(i)))
    return Matrix.from_rows(rows) if rows else Matrix.zero(0, 2 * n)


# -- transfers ------------------------------------------------------------------
# Every recipe and operator construction written out from its displayed
# formula, one basis pair at a time through ``apply_oracle``, without the
# package's term evaluator.

# recipe or construction -> {output product: its value on vectors (x, y)},
# from e(input product, u, v) and the operator T
_TRANSFER_FORMULAS = {
    "dendriform-to-associative": {
        "mu": lambda e, T, x, y: _add(e("prec", x, y), e("succ", x, y))},
    "dendriform-to-prelie": {
        "circ": lambda e, T, x, y: _sub(e("succ", x, y), e("prec", y, x))},
    "zinbiel-to-dendriform": {
        "prec": lambda e, T, x, y: e("star", y, x),
        "succ": lambda e, T, x, y: e("star", x, y)},
    "zinbiel-to-associative": {
        "mu": lambda e, T, x, y: _add(e("star", x, y), e("star", y, x))},
    "associative-to-lie": {
        "bracket": lambda e, T, x, y: _sub(e("mu", x, y), e("mu", y, x))},
    "prelie-to-lie": {
        "bracket": lambda e, T, x, y: _sub(e("circ", x, y), e("circ", y, x))},
    "nijenhuis": {
        "mu": lambda e, T, x, y: _sub(_add(e("mu", T(x), y), e("mu", x, T(y))),
                                      T(e("mu", x, y)))},
    "rb-deform": {
        "mu": lambda e, T, x, y: _add(e("mu", T(x), y), e("mu", x, T(y)))},
    "endo-brackets": {
        "bracket": lambda e, T, x, y: _sub(e("mu", T(x), y), e("mu", T(y), x))},
    "rb-to-prelie": {
        "circ": lambda e, T, x, y: e("bracket", T(x), y)},
}

# names that act on each structure of a compatible pair -> their formulas
_PER_STRUCTURE = {
    "compatible-assder-to-compatible-lieder": "associative-to-lie",
    "compatible-dendrider-to-compatible-assder": "dendriform-to-associative",
    "compatible-dendrider-to-compatible-prelieder": "dendriform-to-prelie",
    "compatible-prelieder-to-compatible-lieder": "prelie-to-lie",
    "compatible-zinder-to-compatible-assder": "zinbiel-to-associative",
    "rb-deform": "rb-deform",
    "endo-brackets": "endo-brackets",
    "rb-to-prelie": "rb-to-prelie",
}


def _pointwise(space: Space, arity: int, value) -> MultiMap:
    """The map whose value on each basis tuple t is the vector value(t)."""
    d = space.dimension
    return MultiMap(space, arity, {(t, j): x
                                   for t in itertools.product(range(d), repeat=arity)
                                   for j, x in enumerate(value(t)) if x})


def transfer_oracle(p: Presentation, name: str, op: MultiMap = None,
                    coefficients=(1, 1, 1, 1)):
    """(products, derivations) that recipe or construction `name` makes of p.

    ``name`` is a recipe, or one of "nijenhuis" (on an associative p),
    "rb-deform", "endo-brackets" and "rb-to-prelie", which take the operator
    op.  Nothing is checked: this is only each output's formula, evaluated
    densely.
    """
    space = p.space
    if name == "linear-combine":
        k1, k2, p1, p2 = map(Fraction, coefficients)

        def combine(m1, m2, c1, c2):
            return lambda t: _add([c1 * x for x in m1.eval(t)],
                                  [c2 * x for x in m2.eval(t)])
        products = {n[:-1]: _pointwise(space, 2, combine(
                        p.products[n], p.products[n[:-1] + "2"], k1, k2))
                    for n in p.products if n.endswith("1")}
        derivations = {}
        if p.derivations:
            derivations["delta"] = _pointwise(space, 1, combine(
                p.derivations["delta1"], p.derivations["delta2"], p1, p2))
        return products, derivations

    def T(v):
        return apply_oracle(op, [v])

    def output(formula, s):
        def e(n, u, v):
            return apply_oracle(p.products[n + s], [u, v])
        bv = space.basis_vector
        return _pointwise(space, 2, lambda t: formula(e, T, bv(t[0]), bv(t[1])))

    suffixes = ("1", "2") if name in _PER_STRUCTURE else ("",)
    formulas = _TRANSFER_FORMULAS[_PER_STRUCTURE.get(name, name)]
    products = {out + s: output(formula, s)
                for s in suffixes for out, formula in formulas.items()}
    return products, dict(p.derivations)


def table_formulas():
    """(where, formula, arity) for every formula of the axiom and transfer tables."""
    from derpair import constructions, structures
    for _, name, arity, lhs, rhs in structures._AXIOMS:
        yield name, lhs, arity
        yield name, rhs, arity
    for recipe, rows in constructions._RECIPE_TABLE.items():
        for kind, (_, _, products, derivations) in rows.items():
            for arity, formulas in ((2, products), (1, derivations)):
                for out, formula in formulas.items():
                    yield f"{recipe}[{kind}].{out}", formula, arity
    for name, (*_, products) in constructions._OPERATORS.items():
        for out, formula in products.items():
            yield f"{name}.{out}", formula, 2
    yield "nijenhuis", constructions._NIJENHUIS, 2


def formula_oracle(space: Space, formula: str, arity: int, maps) -> dict:
    """{(args, out): value} of a formula in the axiom table's syntax, dense.

    Each term's parsed tree is applied to the basis vectors of one tuple at a
    time, every map by ``apply_oracle``, and the terms are summed as vectors;
    no stored entry is matched against another.
    """
    from derpair.structures import _parse
    d = space.dimension

    def value(node, args):
        if isinstance(node, int):
            return list(space.basis_vector(args[node]))
        name, children = node       # a child: a variable index or (slot, inner tree)
        return apply_oracle(maps[name], [value(c if isinstance(c, int) else c[1], args)
                                         for c in children])

    table = {}
    for args in itertools.product(range(d), repeat=arity):
        total = [ZERO] * d
        for sign, scalar, node, _ in _parse(formula):
            factor = sign * (ONE if scalar is None else maps[scalar])
            total = [t + factor * x for t, x in zip(total, value(node, args))]
        table.update({(args, j): x for j, x in enumerate(total) if x})
    return table
