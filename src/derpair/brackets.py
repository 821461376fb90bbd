"""The four graded Lie brackets used throughout the package.

On multilinear maps the insertion bracket ``gerstenhaber`` detects
associativity ([mu,mu] = 0) and derivations ([mu,delta] = 0); on alternating
maps ``nijenhuis_richardson`` detects the Jacobi identity and Lie-algebra
derivations the same way.  Both are ``_graded`` over their composition.
``dc_bracket`` and ``assder_bracket`` are ``_pair`` over them: on pairs (top,
shadow), a bracket with a derivation becomes one square-zero element.
Degrees: a map of arity k has bracket degree k-1, a pair whose top has arity
k sits in complex degree k.  Inner functions are named when called, so a
replaced module function is the one that runs.
"""

from __future__ import annotations

from .cochains import (AltMap, DerCochain, MultiMap, circle_g, circle_nr,
                       linear_combination)
from .errors import ShapeError


def _graded(circle, f, g):
    """f o g - (-1)^{pq} g o f for the composition o = circle."""
    if f.space != g.space:
        raise ShapeError("operands live on different spaces")
    second = circle(g, f)
    if ((f.arity - 1) * (g.arity - 1)) % 2:
        return circle(f, g) + second
    return circle(f, g) - second


def gerstenhaber(f: MultiMap, g: MultiMap) -> MultiMap:
    """[f,g] = f o g - (-1)^{pq} g o f with p = arity(f)-1, q = arity(g)-1."""
    return _graded(circle_g, f, g)


def nijenhuis_richardson(f: AltMap, g: AltMap) -> AltMap:
    """[f,g] = f ob g - (-1)^{mn} g ob f with m = arity(f)-1, n = arity(g)-1."""
    return _graded(circle_nr, f, g)


def _pair(bracket, a: DerCochain, b: DerCochain) -> DerCochain:
    """The formula of ``dc_bracket`` with the inner bracket [,] = bracket."""
    if a.space != b.space:
        raise ShapeError("operands live on different spaces")
    m = a.top.arity - 1
    n = b.top.arity - 1
    top = bracket(a.top, b.top)
    if m + n == 0:
        return DerCochain(top, None)
    # m + n > 0, so at least one side has a shadow
    if a is b:
        # both shadow terms are [f_{m+1}, g_m], and m(m+1) is even
        return DerCochain(top, bracket(a.top, a.shadow).scale((-1) ** m - 1))
    shadow = []
    if b.shadow is not None:
        shadow.append(((-1) ** m, bracket(a.top, b.shadow)))
    if a.shadow is not None:
        shadow.append((-(-1) ** (n * (m + 1)), bracket(b.top, a.shadow)))
    return DerCochain(top, linear_combination(shadow))


def dc_bracket(a: DerCochain, b: DerCochain) -> DerCochain:
    """Bracket on pairs of alternating maps.

    For a = (f_{m+1}, g_m) and b = (f_{n+1}, g_n):

        {a, b} = ([f_{m+1}, f_{n+1}],
                  (-1)^m [f_{m+1}, g_n] - (-1)^{n(m+1)} [f_{n+1}, g_m])

    with all brackets Nijenhuis-Richardson.  Output degree (top arity) is
    m + n + 1.
    """
    if a.flavor != "alt" or b.flavor != "alt":
        raise ShapeError("dc_bracket needs alternating cochains")
    return _pair(nijenhuis_richardson, a, b)


def assder_bracket(a: DerCochain, b: DerCochain) -> DerCochain:
    """Bracket on pairs of multilinear maps.

    For a = (f_m, f_{m-1}) in complex degree m and b = (g_n, g_{n-1}) in
    degree n:

        [[a, b]] = ([f_m, g_n],
                    (-1)^{m+1} [f_m, g_{n-1}] + [f_{m-1}, g_n])

    with all brackets Gerstenhaber; the output sits in degree m + n - 1.
    This is the formula of ``dc_bracket`` with m, n shifted by one, since
    [f_{m-1}, g_n] = -(-1)^{m(n+1)} [g_n, f_{m-1}].
    """
    if a.flavor != "multi" or b.flavor != "multi":
        raise ShapeError("assder_bracket needs multilinear cochains")
    return _pair(gerstenhaber, a, b)
