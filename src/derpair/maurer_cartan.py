"""Square-zero characterizations of structures as graded-bracket elements.

A Lie bracket w with a derivation delta packs into the pair P = (w, delta),
and (w, delta) defines a LieDer-style structure exactly when {P, P} = 0 in
the pair bracket; two such pairs are compatible exactly when additionally
{P1, P2} = 0.  The associative side reads the same, with the same pair
formula over the insertion bracket.  Each checker reports the nonzero bracket
components as named residuals so a failure points at the violated identity.

``deformation_check`` tests the twisted equation d_P(Q) + (1/2){Q, Q} = 0 for
a perturbation Q over a valid base P, and ``bidifferential_check`` verifies
that the operators {P1, .} and {P2, .} anticommute in degrees 1..max_degree;
its flavor ("lieder" or "assder") picks the pair bracket by one lookup.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .brackets import assder_bracket, dc_bracket
from .cochains import AltMap, DerCochain, MultiMap
from .errors import InvalidStructureError, SchemaError, ShapeError


class McVerdict(namedtuple("McVerdict", "holds residuals")):
    """Outcome of a square-zero check: holds iff no residuals survive."""

    __slots__ = ()


def _verdict(named_values) -> McVerdict:
    """The one McVerdict builder: the nonzero values of (name, value) pairs are its residuals."""
    residuals = [(name, value) for name, value in named_values
                 if not value.is_zero()]
    return McVerdict(not residuals, residuals)


def lie_pair(w: AltMap, delta: MultiMap) -> DerCochain:
    """Pack a bracket and an operator into one pair cochain."""
    if delta.arity != 1:
        raise ShapeError("expected a linear operator")
    return DerCochain(w, AltMap(delta.space, 1, dict(delta.coeffs)))


def ass_pair(mu: MultiMap, delta: MultiMap) -> DerCochain:
    return DerCochain(mu, delta)


def _square_zero(bracket, pair, names) -> McVerdict:
    square = bracket(pair, pair)
    return _verdict(zip(names, (square.top, square.shadow)))


def mc_lieder(w: AltMap, delta: MultiMap) -> McVerdict:
    """(w, delta) squares to zero iff w is Lie and delta is a derivation of it.

    {P, P} = ([w, w], -2[w, delta]) for P = (w, delta).
    """
    if w.arity != 2:
        raise ShapeError("expected an alternating bilinear map")
    if delta.space != w.space:
        raise ShapeError("operands live on different spaces")
    return _square_zero(dc_bracket, lie_pair(w, delta),
                        ("[w,w]_NR", "-2[w,delta]_NR"))


def mc_assder(mu: MultiMap, delta: MultiMap) -> McVerdict:
    """(mu, delta) squares to zero iff mu is associative with derivation delta.

    [[P, P]] = ([mu, mu], -2[mu, delta]) for P = (mu, delta).
    """
    if mu.arity != 2:
        raise ShapeError("expected a bilinear map")
    if delta.space != mu.space:
        raise ShapeError("operands live on different spaces")
    return _square_zero(assder_bracket, ass_pair(mu, delta),
                        ("[mu,mu]_G", "-2[mu,delta]_G"))


def _mc_pair(single, pack, bracket, names, pair1, pair2) -> McVerdict:
    """Both pairs square to zero (single) and their mixed bracket vanishes."""
    residuals = [(f"{name}[pair{i}]", value) for i, pair in ((1, pair1), (2, pair2))
                 for name, value in single(*pair).residuals]
    mixed = bracket(pack(*pair1), pack(*pair2))
    return _verdict(residuals + list(zip(names, (mixed.top, mixed.shadow))))


def mc_pair_lieder(w1: AltMap, delta1: MultiMap,
                   w2: AltMap, delta2: MultiMap) -> McVerdict:
    """Both pairs square to zero and their mixed bracket vanishes."""
    return _mc_pair(mc_lieder, lie_pair, dc_bracket,
                    ("[w1,w2]_NR", "-[w1,delta2]_NR-[w2,delta1]_NR"),
                    (w1, delta1), (w2, delta2))


def mc_pair_assder(mu1: MultiMap, delta1: MultiMap,
                   mu2: MultiMap, delta2: MultiMap) -> McVerdict:
    """Associative-side compatible pair condition."""
    return _mc_pair(mc_assder, ass_pair, assder_bracket,
                    ("[mu1,mu2]_G", "-[mu1,delta2]_G+[delta1,mu2]_G"),
                    (mu1, delta1), (mu2, delta2))


def deformation_check(w: AltMap, delta: MultiMap,
                      w1: AltMap, delta1: MultiMap) -> McVerdict:
    """Twisted square-zero equation for a perturbation of a valid base pair.

    Holds iff d_P(Q) + (1/2){Q, Q} = 0 for P = (w, delta), Q = (w1, delta1),
    equivalently iff (w + w1, delta + delta1) is again a bracket-derivation
    pair.
    """
    base = mc_lieder(w, delta)
    if not base.holds:
        raise InvalidStructureError("base pair fails its own square-zero check")
    p = lie_pair(w, delta)
    q = lie_pair(w1, delta1)
    # both pairs have degree 2, so their brackets have a shadow
    total = dc_bracket(p, q) + dc_bracket(q, q).scale(Fraction(1, 2))
    return _verdict([("deformation[top]", total.top),
                     ("deformation[shadow]", total.shadow)])


def bidifferential_check(pair1: DerCochain, pair2: DerCochain,
                         flavor: str = "lieder", max_degree: int = 2) -> McVerdict:
    """Check {P1,{P2,.}} + {P2,{P1,.}} = 0 on all basis cochains per degree."""
    if pair1.space != pair2.space:
        raise ShapeError("pairs live on different spaces")
    # complex flavor -> (pair bracket, cochain flavor), read when called
    known = {"lieder": (dc_bracket, "alt"), "assder": (assder_bracket, "multi")}
    if not isinstance(flavor, str) or flavor not in known:
        raise SchemaError(f"unknown flavor {flavor!r}")
    bracket, cochain_flavor = known[flavor]
    if max_degree < 1:
        raise SchemaError("max_degree must be >= 1")
    if pair1.flavor != cochain_flavor or pair2.flavor != cochain_flavor:
        raise ShapeError("pair flavor does not match the requested complex")
    return _verdict(
        (f"d1d2+d2d1 at degree {degree}, basis {index}",
         bracket(pair1, bracket(pair2, basis)) + bracket(pair2, bracket(pair1, basis)))
        for degree in range(1, max_degree + 1)
        for index, basis in enumerate(DerCochain.basis(pair1.space, degree, cochain_flavor)))
