"""Bounded, derandomized fuzzing of the command line on generated files.

Whatever a presentation or cochain file holds, every command must end in exit
0, 1 or 2 without a traceback.  Each file is a valid document (a corpus file,
or one generated for a random kind) that half the time carries one defect:
a wrong type, a boolean, an index out of range, a ragged entry, an unknown
kind or flavor, or broken JSON.  Files have dimension at most 3 and
cohomology runs to degree 3 at most, so each call is small; the example
count bounds the whole test to a few seconds.
"""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from derpair import cli
from derpair import cohomology as co
from derpair.cochains import AltMap
from derpair.constructions import RECIPE_KINDS
from derpair.linalg import Space
from derpair.structures import KINDS, kind_shape

CORPUS = Path(__file__).parent / "corpus"
CORPUS_DOCS = [json.loads(path.read_text()) for path in sorted(CORPUS.glob("*.json"))
               if path.name != "manifest.json"]

COEFFICIENTS = st.sampled_from(["1", "-1", "2", "1/2", "-3/4"])
BAD_VALUES = st.sampled_from([0, -1, True, False, "2", 2.5, None, [], {}])
BAD_INDICES = st.one_of(st.integers(-3, -1), st.integers(3, 6), st.booleans(),
                        st.sampled_from(["0", 1.5, None, [0]]))
BAD_COEFFICIENTS = st.one_of(
    st.sampled_from(["1/0", "x", "", "1.5", "nan", "1e999"]), st.integers(-2, 2),
    st.floats(), st.booleans(), st.none())


@st.composite
def entries(draw, d: int, arity: int):
    """[indices..., out, coefficient] entries with distinct keys."""
    keys = draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * (arity + 1)),
                         max_size=4, unique=True))
    return [[*key, draw(COEFFICIENTS)] for key in keys]


@st.composite
def alternating_entries(draw, d: int, arity: int):
    """The entries of an alternating table: every permutation, with its sign."""
    keys = draw(st.lists(st.tuples(st.sampled_from(
        list(itertools.combinations(range(d), arity))), st.integers(0, d - 1)),
        max_size=3, unique=True))
    table = AltMap(Space.of_dim(d), arity, {key: draw(COEFFICIENTS) for key in keys})
    return [[*args, out, str(value)]
            for (args, out), value in table.to_multimap().coeffs.items()]


@st.composite
def generated_presentations(draw):
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(KINDS))
    products, derivations = kind_shape(kind)
    doc = {"dimension": d, "kind": kind,
           "products": {name: draw(entries(d, 2)) for name in products},
           "derivations": {name: draw(entries(d, 1)) for name in derivations}}
    if draw(st.booleans()):
        doc["labels"] = [f"x{i}" for i in range(d)]
    return doc


@st.composite
def cochains(draw, d=None, flavor=None):
    d = d or draw(st.integers(1, 3))
    flavor = flavor or draw(st.sampled_from(["multi", "alt"]))
    arity = draw(st.integers(1, min(3, d) if flavor == "alt" else 3))
    table = entries if flavor == "multi" else alternating_entries
    doc = {"dimension": d, "flavor": flavor, "arity": arity,
           "entries": draw(table(d, arity))}
    if arity > 1 and draw(st.booleans()):
        doc["shadow"] = draw(table(d, arity - 1))
    return doc


@st.composite
def bad_entry(draw, entry: list):
    """entry with one defect, or a value that is not an entry at all."""
    defect = draw(st.sampled_from(["index", "coefficient", "ragged", "scalar"]))
    if defect == "scalar":
        return draw(BAD_VALUES)
    if defect == "ragged":
        return entry[:-2] + entry[-1:] if len(entry) > 2 else entry + [0, "1"]
    entry = list(entry)
    if defect == "index":
        entry[draw(st.integers(0, len(entry) - 2))] = draw(BAD_INDICES)
    else:
        entry[-1] = draw(BAD_COEFFICIENTS)
    return entry


@st.composite
def with_one_defect(draw, doc: dict):
    doc = json.loads(json.dumps(doc))
    tables = [(section, name) for section in ("products", "derivations")
              for name in doc.get(section, {})]
    if "entries" in doc:
        tables.append((None, "entries"))
    defect = draw(st.sampled_from(["dimension", "labels", "kind", "flavor", "arity",
                                   "missing", "extra", "section"] + ["entry"] * 4))
    if defect == "dimension":
        doc["dimension"] = draw(BAD_VALUES)
    elif defect == "labels":
        d = doc["dimension"]
        doc["labels"] = draw(st.sampled_from(
            [[f"x{i}" for i in range(d - 1)], ["x"] * d, [1] * d, "x", None]))
    elif defect in ("kind", "flavor", "arity"):
        doc[defect] = draw(st.one_of(st.just("mystery"), BAD_VALUES))
    elif defect == "missing" and tables:
        section, name = draw(st.sampled_from(tables))
        del (doc if section is None else doc[section])[name]
    elif defect == "extra":
        doc.setdefault("products", {})["extra"] = []
    elif defect == "section":
        doc[draw(st.sampled_from(["products", "derivations", "entries"]))] = \
            draw(BAD_VALUES)
    elif defect == "entry" and tables:
        section, name = draw(st.sampled_from(tables))
        rows = (doc if section is None else doc[section])[name]
        arity = doc.get("arity", 2 if section == "products" else 1)
        entry = rows[0] if rows else [0] * (arity + 1) + ["1"]
        index = draw(st.integers(0, len(rows)))
        rows[index:index + 1] = [draw(bad_entry(entry))]
    return doc


@st.composite
def files(draw, docs):
    """The text of one input file: a document, perhaps with one defect, or not JSON."""
    doc = draw(docs)
    form = draw(st.sampled_from(["valid"] * 5 + ["defect"] * 4 + ["list", "broken"]))
    if form == "list":
        return "[1, 2]"
    if form == "defect":
        doc = draw(with_one_defect(doc))
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text) - 1))] if form == "broken" else text


PRESENTATIONS = st.one_of(st.sampled_from(CORPUS_DOCS), generated_presentations())


def _mostly_fitting(draw, choices, fits):
    """One of choices, usually one that fits the input when any does."""
    fitting = [choice for choice in choices if fits(choice)]
    return draw(st.sampled_from(fitting if fitting and draw(st.integers(0, 3))
                                else choices))


@st.composite
def calls(draw):
    """(argv with {0}, {1} in place of the input paths, the input texts)."""
    command = draw(st.sampled_from(["check", "cohomology", "mc", "dendrify",
                                    "bracket"]))
    if command == "bracket":
        d = draw(st.integers(1, 3))
        flavor = draw(st.sampled_from(["multi", "alt"]))
        kind = _mostly_fitting(draw, ["g", "nr", "dc", "assder"],
                               lambda k: (k in ("g", "assder")) == (flavor == "multi"))
        texts = [draw(files(PRESENTATIONS if draw(st.integers(0, 4)) == 0
                            else cochains(d, flavor))) for _ in range(2)]
        return ["bracket", "--kind", kind, "{0}", "{1}"], texts
    doc = draw(cochains() if draw(st.integers(0, 4)) == 0 else PRESENTATIONS)
    kind = doc.get("kind")
    argv = [command, "{0}"]
    if command == "check" and draw(st.booleans()):
        argv += ["--kind", draw(st.sampled_from(KINDS))]
    elif command == "cohomology":
        flavor = _mostly_fitting(draw, co.FLAVORS, lambda f: kind in co._FLAVORS[f].kinds)
        argv += ["--complex", flavor, "--max-degree", str(draw(st.integers(1, 3)))]
        if draw(st.booleans()):
            argv.append("--kernel-bases")
    elif command == "mc":
        if _mostly_fitting(draw, [False, True],
                           lambda pair: str(kind).startswith("compatible") == pair):
            argv.append("--pair")
    elif command == "dendrify":
        argv += ["--recipe", _mostly_fitting(draw, sorted(RECIPE_KINDS),
                                             lambda recipe: kind in RECIPE_KINDS[recipe])]
        if draw(st.booleans()):
            argv += ["--coefficients",
                     draw(st.sampled_from(["1,1,1,1", "2,-1,1/2,3", "1,2", "x,1,1,1"]))]
    return argv, [draw(files(st.just(doc)))]


@settings(max_examples=600, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(calls())
def test_cli_ends_in_an_exit_code_without_a_traceback(call):
    argv, texts = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for index, text in enumerate(texts):
            path = Path(tmp) / f"input{index}.json"
            path.write_text(text)
            paths.append(str(path))
        argv = [arg.format(*paths) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    assert code in (0, 1, 2), (argv, texts)
    assert "Traceback" not in stderr.getvalue(), (argv, texts)
