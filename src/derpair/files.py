"""JSON formats for presentations, cochains, and report fragments.

A presentation file looks like

    {"dimension": 2,
     "labels": ["e1", "e2"],
     "kind": "compatible-lie",
     "products": {"bracket1": [[0, 1, 0, "1"], [1, 0, 0, "-1"]],
                  "bracket2": [[0, 1, 1, "1"], [1, 0, 1, "-1"]]},
     "derivations": {}}

A product entry [i, j, k, "p/q"] says the product of basis elements i and j
has coefficient p/q on basis element k; a derivation entry [i, j, "p/q"] says
delta(e_i) has coefficient p/q on e_j.  Indices are 0-based in files even
though reports print 1-based labels e1..en.  Rationals are strings "p/q", or
"p" when the denominator is 1.  Duplicate index keys, unknown kinds and
dimensions above MAX_DIMENSION are rejected; zero coefficients are dropped on
input and never emitted.  Text that is not JSON, arrays nested past the
decoder's recursion limit and integer literals past the interpreter's digit
limit are schema errors too.

Emission is canonical (sorted entries, fixed key order, two-space indent), so
parse followed by emit is the identity on anything this module emitted.
`emit` writes every file and report through this module's own writer,
`_write_json`, which takes dicts with str keys, lists, str, int, float, bool
and None, and raises TypeError on any other type.  It escapes strings with
json's C escaper `encode_basestring` and writes a list of scalars with one
join, and its bytes are those of `json.dumps(doc, indent=2,
ensure_ascii=False)` plus a newline.  json.dumps is not used: when it
indents it runs its pure-Python encoder, which is slower and holds more memory.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from math import factorial, inf

from .cochains import AltMap, DerCochain, MultiMap, _insert
from .errors import SchemaError
from .linalg import Space, format_scalar, parse_scalar
from .structures import Presentation, Violation, validate_presentation


def _require(condition: bool, message: str, *args) -> None:
    if not condition:       # the message is formatted only on failure
        raise SchemaError(message.format(*args) if args else message)


def _load_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad syntax (JSONDecodeError), or an integer literal past
        # the interpreter's digit limit; RecursionError: arrays or objects
        # nested deeper than the decoder's recursion limit
        raise SchemaError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top-level JSON value must be an object")
    return doc


# checked first: Space.of_dim builds one label per basis element
MAX_DIMENSION = 100_000


def _space_from(doc: dict) -> Space:
    dimension = doc.get("dimension")
    # `type(x) is int` in this module: JSON true and false load as bools, which
    # isinstance counts as ints
    _require(type(dimension) is int and dimension >= 1,
             "dimension must be a positive integer")
    _require(dimension <= MAX_DIMENSION,
             f"dimension {dimension} exceeds the limit of {MAX_DIMENSION}")
    labels = doc.get("labels")
    if labels is None:
        return Space.of_dim(dimension)
    _require(isinstance(labels, list) and all(isinstance(x, str) for x in labels),
             "labels must be a list of strings")
    return Space.of_dim(dimension, labels)


def _entries_to_map(space: Space, arity: int, entries, where: str) -> MultiMap:
    # each entry is checked in full, in this order, before the next one, so
    # the first defect of the file is the one reported
    if not isinstance(entries, list):
        raise SchemaError(f"{where}: entries must be a list")
    d, size, table, parsed = space.dimension, arity + 2, {}, {}    # parsed: each string once
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != size:
            raise SchemaError(f"{where}: each entry needs {arity} input indices, "
                              "one output index, and a coefficient")
        indices, inside = entry[:-1], True
        for i in indices:
            if type(i) is not int:
                raise SchemaError(f"{where}: indices must be integers")
            if not 0 <= i < d:
                inside = False
        if not inside:
            raise SchemaError(f"{where}: index out of range for dimension {d}")
        key = (tuple(entry[:arity]), entry[arity])
        if key in table:
            raise SchemaError(f"{where}: duplicate entry for {indices}")
        coefficient = entry[-1]
        if not isinstance(coefficient, str):
            raise SchemaError(f"{where}: coefficients must be rational strings")
        value = parsed.get(coefficient)
        if value is None:
            value = parsed[coefficient] = parse_scalar(coefficient)
        table[key] = value
    return MultiMap._of(space, arity, {key: value for key, value in table.items() if value})


def _map_to_entries(m) -> list:
    # sorted [*args, out, value] rows, an AltMap's with every ordering of each
    # key and its sign, made from its own entries (none for an empty map)
    orders = m._slot_orders() if m.coeffs else ()
    entries = sorted([*map(args.__getitem__, order), out, sign * value]
                     for (args, out), value in m.coeffs.items() for order, sign in orders)
    for entry in entries:
        entry[-1] = format_scalar(entry[-1])
    return entries


def presentation_from_dict(doc: dict, kind_override: str | None = None) -> Presentation:
    space = _space_from(doc)
    kind = kind_override if kind_override is not None else doc.get("kind")
    _require(isinstance(kind, str), "kind must be a string")
    raw_products = doc.get("products", {})
    raw_derivations = doc.get("derivations", {})
    _require(isinstance(raw_products, dict), "products must be an object")
    _require(isinstance(raw_derivations, dict), "derivations must be an object")
    products = {name: _entries_to_map(space, 2, entries, f"products.{name}")
                for name, entries in raw_products.items()}
    derivations = {name: _entries_to_map(space, 1, entries, f"derivations.{name}")
                   for name, entries in raw_derivations.items()}
    provenance = doc.get("provenance", {})
    _require(isinstance(provenance, dict), "provenance must be an object")
    p = Presentation(space, products, derivations, kind, provenance)
    validate_presentation(p)
    return p


def parse_presentation(text: str, kind_override: str | None = None) -> Presentation:
    return presentation_from_dict(_load_document(text), kind_override)


def presentation_to_dict(p: Presentation) -> dict:
    doc = {
        "dimension": p.space.dimension,
        "labels": list(p.space.labels),
        "kind": p.kind,
        "products": {name: _map_to_entries(p.products[name])
                     for name in sorted(p.products)},
        "derivations": {name: _map_to_entries(p.derivations[name])
                        for name in sorted(p.derivations)},
    }
    if p.provenance:
        doc["provenance"] = {key: p.provenance[key] for key in sorted(p.provenance)}
    return doc


def _float(x: float) -> str:
    # as json writes a float: NaN and the infinities by their JavaScript names
    if x != x:
        return "NaN"
    if x == inf or x == -inf:
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# the text of a scalar, by its type: the types json writes
_SCALARS = {str: encode_basestring, int: int.__repr__, float: _float,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def _write_json(value, indent: str, parts: list) -> None:
    # append value's text to parts; indent is the newline and spaces before
    # its closing bracket, and its members are indented two spaces more
    kind = type(value)
    if kind is not dict and kind is not list:
        if kind not in _SCALARS:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        parts.append(_SCALARS[kind](value))
        return
    if not value:
        parts.append("{}" if kind is dict else "[]")
        return
    inner = indent + "  "
    if kind is list:
        types = set(map(type, value))
        if types.issubset(_SCALARS):      # a list of scalars is one join
            texts = (map(_SCALARS[types.pop()], value) if len(types) == 1
                     else [_SCALARS[type(x)](x) for x in value])
            parts.append(f"[{inner}{(',' + inner).join(texts)}{indent}]")
            return
        opening = "[" + inner
        for item in value:
            parts.append(opening)
            _write_json(item, inner, parts)
            opening = "," + inner
        parts.append(indent + "]")
        return
    opening = "{" + inner
    for key, item in value.items():
        if type(key) is not str:
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        parts.append(f"{opening}{encode_basestring(key)}: ")
        _write_json(item, inner, parts)
        opening = "," + inner
    parts.append(indent + "}")


def emit(doc: dict) -> str:
    """The canonical text of a document: every file and report is written by this.

    The text is that of ``json.dumps(doc, indent=2, ensure_ascii=False)``
    plus a newline.  doc holds dicts with str keys, lists, str, int, float,
    bool and None; any other type raises TypeError.
    """
    parts = []
    _write_json(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def emit_presentation(p: Presentation) -> str:
    return emit(presentation_to_dict(p))


# -- cochain files -----------------------------------------------------------

def _as_alternating(m: MultiMap, where: str) -> AltMap:
    # reject tables that are not genuinely alternating rather than silently
    # projecting them (which would rescale lone entries): grouped by (sorted
    # key, out), each group must hold all k! orderings of its key, each equal
    # to sign * c for one c, which becomes the AltMap's entry.  A key with a
    # repeated index is a group of one, never complete for k >= 2.
    groups = {}
    for (args, out), value in m.coeffs.items():
        key, sign = _insert((), args) or (args, 0)
        groups.setdefault((key, out), []).append(sign * value)
    # k! orderings; when k exceeds the entry count no group can hold them
    # all, and k! is not computed (a file with k <= entries has >= k^2 indices)
    orderings = factorial(m.arity) if m.arity <= len(m.coeffs) else 0
    if not all(cs.count(cs[0]) == orderings for cs in groups.values()):
        raise SchemaError(
            f"{where}: an 'alt' cochain table must be alternating (every "
            "permutation of an entry present with its sign)")
    return AltMap._of(m.space, m.arity, {key: cs[0] for key, cs in groups.items()})


def cochain_from_dict(doc: dict) -> DerCochain:
    """Read a cochain file: a top map and an optional shadow one arity lower."""
    space = _space_from(doc)
    flavor = doc.get("flavor")
    _require(flavor in ("multi", "alt"), 'flavor must be "multi" or "alt"')
    arity = doc.get("arity")
    _require(type(arity) is int and arity >= 1,
             "arity must be a positive integer")
    maps = [_entries_to_map(space, arity, doc.get("entries", []), "entries")]
    shadow_entries = doc.get("shadow")
    _require(shadow_entries is None or arity >= 2, "a shadow needs top arity >= 2")
    if arity > 1:
        maps.append(_entries_to_map(space, arity - 1, [] if shadow_entries is None
                                    else shadow_entries, "shadow"))     # absent: zero
    if flavor == "alt":
        maps = [_as_alternating(m, where) for m, where in zip(maps, ("entries", "shadow"))]
    return DerCochain(*maps)


def parse_cochain(text: str) -> DerCochain:
    return cochain_from_dict(_load_document(text))


# the most entries an alternating cochain is written with, one per ordering
# of each key (k! at arity k); a multilinear one is written entry for entry
MAX_EMITTED_ENTRIES = 1_000_000


def _emitted_entries(m: AltMap) -> int:
    # the entries m is written as, counted only until past the limit, so an
    # empty map of any arity costs nothing
    count = len(m.coeffs)
    for k in range(2, m.arity + 1):
        if not 0 < count <= MAX_EMITTED_ENTRIES:
            break
        count *= k
    return count


def cochain_to_dict(c: DerCochain, with_shadow: bool) -> dict:
    written = (c.top, c.shadow) if with_shadow and c.shadow is not None else (c.top,)
    _require(c.flavor == "multi"
             or sum(map(_emitted_entries, written)) <= MAX_EMITTED_ENTRIES,
             "the cochain would be written as more than the limit of {} entries",
             MAX_EMITTED_ENTRIES)
    top, *shadow = map(_map_to_entries, written)
    doc = {
        "dimension": c.space.dimension,
        "labels": list(c.space.labels),
        "flavor": c.flavor,
        "arity": c.top.arity,
        "entries": top,
    }
    if with_shadow:
        doc["shadow"] = shadow[0] if shadow else None
    return doc


def emit_cochain(c: DerCochain, with_shadow: bool) -> str:
    return emit(cochain_to_dict(c, with_shadow))


# -- report fragments ---------------------------------------------------------

def violation_to_dict(v: Violation, space: Space) -> dict:
    return {
        "axiom": v.axiom,
        "witness": [space.labels[i] for i in v.witness],
        "lhs": [format_scalar(x) for x in v.lhs],
        "rhs": [format_scalar(x) for x in v.rhs],
    }


def mc_to_dict(verdict, space: Space) -> dict:
    # every residual is a nonzero map, witnessed by its smallest entry
    residuals = []
    for name, value in verdict.residuals:
        (args, out), coefficient = min(value.coeffs.items())
        residuals.append({"name": name, "witness": {
            "args": [space.labels[i] for i in args],
            "out": space.labels[out],
            "value": format_scalar(coefficient),
        }})
    return {"holds": verdict.holds, "residuals": residuals}


def cohomology_to_dict(report) -> dict:
    doc = {
        "flavor": report.flavor,
        "max_degree": report.max_degree,
        "dd_zero_certified": report.dd_zero_certified,
        "degrees": [row._asdict() for row in report.degrees],
    }
    if report.kernel_bases:
        doc["kernel_bases"] = {
            str(degree): [[format_scalar(x) for x in vec] for vec in vectors]
            for degree, vectors in sorted(report.kernel_bases.items())
        }
    return doc
