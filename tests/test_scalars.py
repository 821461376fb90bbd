"""Exact scalars: ints when integral, Fractions otherwise, from file to report.

``linalg.as_scalar`` and ``parse_scalar`` normalise every coefficient the
package creates, so integral data read from a file stays on ints through the
compositions, the brackets, the axiom evaluator and the transfers.  Only the
read-outs (``eval``, coordinates, violations, matrix views) give Fractions.
"""

import itertools
import json
from fractions import Fraction

import pytest

from derpair import files
from derpair.brackets import (assder_bracket, dc_bracket, gerstenhaber,
                              nijenhuis_richardson)
from derpair.cochains import AltMap, circle_g, circle_nr
from derpair.constructions import RECIPE_KINDS, dendrify
from derpair.errors import SchemaError
from derpair.linalg import as_scalar, format_scalar, parse_scalar
from derpair.maurer_cartan import ass_pair, lie_pair
from derpair.structures import (KIND_INFO, Presentation, check_structure,
                                evaluate, fingerprint)

import oracles


def _halve(doc):
    # every coefficient c becomes "c/2": "2/2" is integral, the others are not
    for group in ("products", "derivations"):
        for entries in doc.get(group, {}).values():
            for entry in entries:
                entry[-1] += "/2"


def _presentations(corpus, rewrite=None):
    """{file name: presentation} of every presentation in the corpus."""
    found = {}
    for path in sorted(corpus.glob("*.json")):
        if path.name == "manifest.json":
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        if rewrite is not None:
            rewrite(doc)
        found[path.name] = files.presentation_from_dict(doc)
    return found


def _maps(p):
    return [*p.products.values(), *p.derivations.values()]


def _values(m):
    """The stored coefficients of a map, or of both parts of a pair cochain."""
    parts = (m.top, m.shadow) if hasattr(m, "top") else (m,)
    return [v for part in parts if part is not None for v in part.coeffs.values()]


def _doubled(p):
    """The compatible pair (p, 2p), valid whenever p is."""
    scaled = (("1", 1), ("2", 2))
    return Presentation(
        p.space, {n + i: m.scale(c) for n, m in p.products.items() for i, c in scaled},
        {"delta" + i: m.scale(c) for m in p.derivations.values() for i, c in scaled},
        "compatible-" + p.kind)


def _recipe_runs(valid):
    """{(recipe, input kind): (input, output)} for every recipe the inputs reach.

    The inputs are closed under the recipes and under doubling, one
    presentation per kind.
    """
    pool = {}
    for p in valid:
        pool.setdefault(p.kind, p)
    runs = {}
    grown = True
    while grown:
        grown = False
        for p in list(pool.values()):
            if not KIND_INFO[p.kind].compatible and "compatible-" + p.kind not in pool:
                pool["compatible-" + p.kind] = _doubled(p)
                grown = True
        for recipe, kinds in RECIPE_KINDS.items():
            for kind in kinds:
                if kind in pool and (recipe, kind) not in runs:
                    out = dendrify(pool[kind], recipe)
                    runs[recipe, kind] = (pool[kind], out)
                    pool.setdefault(out.kind, out)
                    grown = True
    assert {recipe for recipe, _ in runs} == set(RECIPE_KINDS)
    return runs


def _outputs(p):
    """Compositions, brackets and an evaluated formula on the maps of p."""
    multis = _maps(p)
    alts = [AltMap(p.space, 1, m.coeffs) for m in p.derivations.values()]
    if KIND_INFO[p.kind].family == "lie":
        alts += [AltMap.from_multimap(m) for m in p.products.values()]
    out = list(alts)
    for f, g in itertools.product(multis, repeat=2):
        out += [circle_g(f, g), gerstenhaber(f, g)]
    for f, g in itertools.product(alts, repeat=2):
        out += [circle_nr(f, g), nijenhuis_richardson(f, g)]
    for mu, delta in itertools.product(p.products.values(), p.derivations.values()):
        a, b = ass_pair(mu, delta), ass_pair(mu, delta.scale(2))
        out += [assder_bracket(a, a), assder_bracket(a, b)]
        if KIND_INFO[p.kind].family == "lie":
            a = lie_pair(AltMap.from_multimap(mu), delta)
            b = lie_pair(AltMap.from_multimap(mu), delta.scale(-1))
            out += [dc_bracket(a, a), dc_bracket(a, b)]
    for name in p.products:
        out.append(evaluate(p.space, f"{name}({name}(x0,x1),x2) - {name}(x0,{name}(x1,x2))",
                            3, p.products))
    return out


def test_integral_coefficients_are_stored_as_ints(corpus):
    presentations = _presentations(corpus)
    read = [v for p in presentations.values() for m in _maps(p) for v in _values(m)]
    assert read and all(type(v) is int for v in read)
    valid = [p for p in presentations.values() if check_structure(p) is None]
    assert len(valid) < len(presentations)      # the violation file is left out
    made = [v for p in valid for m in _outputs(p) for v in _values(m)]
    assert made and all(type(v) is int for v in made)
    runs = _recipe_runs(valid)
    made = [v for _, out in runs.values() for m in _maps(out) for v in _values(m)]
    assert made and all(type(v) is int for v in made)
    doubled = next(p for p in valid if p.kind == "compatible-lie")
    combined = dendrify(doubled, "linear-combine",
                        [parse_scalar(x) for x in ("2", "-3", "4/2", "+0")])
    assert all(type(v) is int for m in _maps(combined) for v in _values(m))


def _exact(values):
    # int when integral, Fraction otherwise: no float, no bool, no Fraction(n, 1)
    return all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
               for v in values)


def test_rational_coefficients_keep_their_fractions(corpus):
    integral = _presentations(corpus)
    halved = _presentations(corpus, _halve)
    read = [v for p in halved.values() for m in _maps(p) for v in _values(m)]
    assert _exact(read) and any(type(v) is Fraction for v in read)
    assert any(type(v) is int for v in read)                        # from "2/2"
    for name, p in halved.items():
        q = integral[name]
        for (f, g), (f2, g2) in zip(itertools.product(_maps(p), repeat=2),
                                    itertools.product(_maps(q), repeat=2)):
            composed = circle_g(f, g)
            assert composed == circle_g(f2, g2).scale(Fraction(1, 4))
            assert composed == oracles.circle_g_oracle(f, g)
            assert all(isinstance(v, (int, Fraction)) and type(v) is not bool
                       for v in _values(composed))
        if check_structure(q) is not None:
            continue
        for f, g in itertools.product([AltMap(p.space, 1, m.coeffs)
                                       for m in p.derivations.values()], repeat=2):
            assert circle_nr(f, g) == oracles.circle_nr_oracle(f, g)
    valid = [p for p in halved.values() if check_structure(p) is None]
    for (recipe, _), (p, out) in _recipe_runs(valid).items():
        assert (out.products, out.derivations) == oracles.transfer_oracle(p, recipe)


def test_as_scalar_normalises_each_exact_kind():
    cases = [(3, 3), (True, 1), (False, 0), (Fraction(8, 4), 2), (Fraction(-3, 6), Fraction(-1, 2)),
             ("12", 12), (" -6/3 ", -2), ("+0/5", 0), ("007", 7), ("-3/6", Fraction(-1, 2))]
    for given, expected in cases:
        value = as_scalar(given)
        assert value == expected and type(value) is type(expected), given
        assert format_scalar(value) == str(Fraction(expected))
    for bad in ("1/0", "1.5", "1e3", "1_0", "٣", "1/-2", "", "/2", 1.5, None):
        with pytest.raises(SchemaError):
            as_scalar(bad)


# fingerprints of the corpus presentations as computed when every coefficient
# was a Fraction and each entry was its own sha256 update: as read, and with
# every coefficient halved
_FINGERPRINTS = {
    "abelian1_lieder.json": (
        "e91c3742b7d4e630bf7d554e7f70e53ae7fba75bf4c75e1504a825941c23dbed",
        "e91c3742b7d4e630bf7d554e7f70e53ae7fba75bf4c75e1504a825941c23dbed"),
    "assoc_violation.json": (
        "06260bf6a21fd34f49d78febefb804603d48f7e4e5d8c8e6f1991eef0fbbbe43",
        "6320558f306314e1e3b203988c4141919783e881f979b9688678580e45dcb402"),
    "compatible_lie.json": (
        "9dfc39ab8143bf44d61da025c407df1bd43a1e84e6468e7b2b2794b4c1dec44a",
        "62ef82eec588c8f3b0bdf51272d41e2fd6ec03b52a89a68f73e0c8adf5bb14b1"),
    "compatible_lieder.json": (
        "c5bc473abbe2e9fb73c69d522654ac9d004cea3f9d4b11f2ad9156c4e6a38373",
        "e1b2fd643efd6f448912d5363eac3d062b04f9f81aa09372138d59ea73cd18fb"),
    "heisenberg3_lieder.json": (
        "1b4eaad6d1738776bd4bc1c0e85dbeea3e2ce235e6618e5ce374645d2eb86f63",
        "3d9524a063f8ed28293012db12c3f55d989c95038335c044b9f4835034d462bc"),
    "nilpotent2_cad.json": (
        "77174fa62ba260d0603e5fb54a24c2a84da7d25af4b052e52f7bf389b85d9483",
        "317422a372d1d561d89c3e182e74f95e62568a9d467ca014fe8af18b3f6dbaee"),
    "nilpotent3_assder.json": (
        "54f28041bbd1f99fceb9ed4939cbc9dd5793a91af569f1b6c7339c650f499e67",
        "a302658578a4d4a93636c6331fbb0c7df2ab88143db1a1c5906b2fe1a29b1035"),
    "nilpotent3_assoc.json": (
        "819e16a6e6f55ca5a6c73b4cad7ca1fddc51e1c90b42bbb1de7b37f9c390eeca",
        "03533c4ddcf12b52072765a025af794a1536a41f242fec097b0e41984caa2ff9"),
    "zero_cldp.json": (
        "d87cc8cc62440145d5f233aa89d48ac15bf399c42460f789e33c9c90645be197",
        "d87cc8cc62440145d5f233aa89d48ac15bf399c42460f789e33c9c90645be197"),
    "zin2_zinbiel.json": (
        "345b0c84cdec2c81b7e9b30f85f27f6cbd050a0212dd3b3c50da6ceaefc7ae18",
        "690d1a782c222724a14283de3fd6343036191a0f3229448d680ea7e489d9933e"),
    "zinder_alpha1_beta1.json": (
        "ca1a41b952ed4ac97004561fa6190e1dbfd25e69cb34caf76f3cf91c3c9dcbd2",
        "593bb15ec0990d6a9d6dede203db64298c661a9ae5f9c28b540f041a462816c8"),
}


def test_fingerprints_are_unchanged(corpus):
    integral, halved = _presentations(corpus), _presentations(corpus, _halve)
    assert {name: (fingerprint(p), fingerprint(halved[name]))
            for name, p in integral.items()} == _FINGERPRINTS
