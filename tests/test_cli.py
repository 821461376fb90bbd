import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from derpair import cli, files
from derpair.cochains import AltMap, DerCochain
from derpair.errors import SchemaError
from derpair.linalg import Space
from derpair.structures import check_structure

import gen
from oracles import _perm_sign


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- file format ---------------------------------------------------------------

def test_parse_emit_roundtrip_on_corpus(corpus):
    for path in sorted(corpus.glob("*.json")):
        if path.name == "manifest.json":
            continue
        p = files.parse_presentation(path.read_text())
        emitted = files.emit_presentation(p)
        again = files.parse_presentation(emitted)
        assert files.emit_presentation(again) == emitted


def test_parse_emit_roundtrip_randomized():
    rng = random.Random(808)
    for p in gen.compatible_assder_instances(rng, 5):
        emitted = files.emit_presentation(p)
        again = files.parse_presentation(emitted)
        assert again.products == p.products
        assert again.derivations == p.derivations
        assert again.kind == p.kind
        assert files.emit_presentation(again) == emitted


def test_parse_rejects_duplicates_and_bad_input():
    base = {"dimension": 2, "kind": "associative",
            "products": {"mu": [[0, 0, 1, "1"], [0, 0, 1, "2"]]},
            "derivations": {}}
    with pytest.raises(SchemaError):
        files.presentation_from_dict(base)
    with pytest.raises(SchemaError):
        files.presentation_from_dict(
            {"dimension": 2, "kind": "mystery", "products": {}, "derivations": {}})
    with pytest.raises(SchemaError):
        files.presentation_from_dict(
            {"dimension": 2, "kind": "associative",
             "products": {"mu": [[0, 5, 1, "1"]]}, "derivations": {}})
    with pytest.raises(SchemaError):
        files.presentation_from_dict(
            {"dimension": 2, "kind": "associative",
             "products": {"mu": [[0, 0, 1, "1/0"]]}, "derivations": {}})
    with pytest.raises(SchemaError):
        files.parse_presentation("{not json")


def test_zero_coefficients_dropped():
    doc = {"dimension": 2, "kind": "associative",
           "products": {"mu": [[0, 0, 1, "0"]]}, "derivations": {}}
    p = files.presentation_from_dict(doc)
    assert p.products["mu"].is_zero()


# -- check command -----------------------------------------------------------------

def test_check_pass(capsys, corpus):
    code, out, _ = run_cli(capsys, "check", str(corpus / "compatible_lie.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "derpair-report/1"
    assert doc["verdict"] == "pass"
    assert doc["violations"] == []


def test_check_violation(capsys, corpus):
    code, out, _ = run_cli(capsys, "check", str(corpus / "assoc_violation.json"))
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    violation = doc["violations"][0]
    assert violation["witness"] == ["e1", "e1", "e1"]


def test_check_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "derpair:" in err
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "check", str(missing))
    assert code == 2


def test_check_kind_override(capsys, corpus, tmp_path):
    # the zinbiel table also defines a pre-Lie product only under its own name,
    # so an override with mismatched names is an operational error
    code, _, err = run_cli(capsys, "check", str(corpus / "zin2_zinbiel.json"),
                           "--kind", "prelie")
    assert code == 2
    # with matching shape the override re-labels the claim
    doc = json.loads((corpus / "zinder_alpha1_beta1.json").read_text())
    del doc["kind"]
    target = tmp_path / "unlabeled.json"
    target.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check", str(target), "--kind", "zinder")
    assert code == 0


def _large_sparse_file(tmp_path, entries):
    doc = {"dimension": 200, "kind": "associative",
           "products": {"mu": entries}, "derivations": {}}
    path = tmp_path / "large_sparse.json"
    path.write_text(json.dumps(doc))
    return path


def test_check_large_sparse_file(capsys, tmp_path):
    # 200 basis vectors and one product entry: the axiom residuals are empty
    # tensors, so the check costs the entries, not 200^3 tuples
    path = _large_sparse_file(tmp_path, [[3, 5, 8, "1"]])
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_check_large_sparse_file_violation(capsys, tmp_path):
    # e8 e8 = e43 and e43 e8 = e8: (e8 e8) e8 = e8 but e8 (e8 e8) = e8 e43 = 0
    path = _large_sparse_file(tmp_path, [[7, 7, 42, "1"], [42, 7, 7, "1"]])
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    violation = json.loads(out)["violations"][0]
    assert violation["axiom"] == "associativity(mu)"
    assert violation["witness"] == ["e8", "e8", "e8"]
    assert violation["lhs"] == ["1" if i == 7 else "0" for i in range(200)]
    assert violation["rhs"] == ["0"] * 200


def test_reports_byte_identical(capsys, corpus):
    _, first, _ = run_cli(capsys, "check", str(corpus / "compatible_lie.json"))
    _, second, _ = run_cli(capsys, "check", str(corpus / "compatible_lie.json"))
    assert first == second


# (frozen report in corpus/reports, exit code, argv): a pass and a fail for
# each report-writing command; the structure-failure reports of cohomology
# and dendrify carry no fingerprint, and dendrify's carries the recipe
FROZEN_REPORTS = [
    ("check_compatible_lie", 0, ["check", "compatible_lie.json"]),
    ("check_assoc_violation", 1, ["check", "assoc_violation.json"]),
    ("mc_abelian1_lieder", 0, ["mc", "abelian1_lieder.json"]),
    ("mc_assoc_violation", 1, ["mc", "assoc_violation.json"]),
    ("cohomology_abelian1_lieder_lieder_top1", 0,
     ["cohomology", "abelian1_lieder.json", "--complex", "lieder", "--max-degree", "1"]),
    ("cohomology_assoc_violation_hochschild", 1,
     ["cohomology", "assoc_violation.json", "--complex", "hochschild"]),
    ("dendrify_assoc_violation_associative-to-lie", 1,
     ["dendrify", "assoc_violation.json", "--recipe", "associative-to-lie"]),
]


frozen_reports = pytest.mark.parametrize("name, code, argv", FROZEN_REPORTS,
                                         ids=[name for name, _, _ in FROZEN_REPORTS])


@frozen_reports
def test_reports_are_frozen(capsys, corpus, monkeypatch, tmp_path, name, code, argv):
    # stdout and --out carry the same bytes, and nothing goes to stderr
    monkeypatch.chdir(corpus)
    frozen = (corpus / "reports" / f"{name}.json").read_text(encoding="utf-8")
    assert run_cli(capsys, *argv) == (code, frozen, "")
    out_path = tmp_path / "report.json"
    assert run_cli(capsys, *argv, "--out", str(out_path)) == (code, "", "")
    assert out_path.read_text(encoding="utf-8") == frozen


@frozen_reports
def test_timestamps_add_only_a_last_provenance_key(capsys, corpus, monkeypatch,
                                                   name, code, argv):
    monkeypatch.chdir(corpus)
    frozen = (corpus / "reports" / f"{name}.json").read_text(encoding="utf-8")
    got, out, _ = run_cli(capsys, *argv, "--timestamps")
    assert got == code
    doc = json.loads(out)
    assert list(doc["provenance"])[-1] == "timestamp"
    del doc["provenance"]["timestamp"]
    assert files.emit(doc) == frozen


# -- mc command ---------------------------------------------------------------------

def test_mc_pair_on_anchor_example(capsys, corpus):
    code, out, _ = run_cli(capsys, "mc", str(corpus / "compatible_lie.json"),
                           "--pair")
    assert code == 0
    assert json.loads(out)["mc"]["holds"] is True


def test_mc_single_failure(capsys, tmp_path):
    doc = {"dimension": 2, "kind": "lieder",
           "products": {"bracket": [[0, 1, 0, "1"], [1, 0, 0, "-1"]]},
           "derivations": {"delta": [[1, 1, "1"]]}}
    path = tmp_path / "bad_lieder.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "mc", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["mc"]["holds"] is False
    assert report["mc"]["residuals"][0]["name"] == "-2[w,delta]_NR"
    assert report["mc"]["residuals"][0]["witness"] == {
        "args": ["e1", "e2"], "out": "e1", "value": "-2"}


# -- cohomology command ----------------------------------------------------------------

def test_cohomology_abelian_line(capsys, corpus):
    code, out, _ = run_cli(capsys, "cohomology", str(corpus / "abelian1_lieder.json"),
                           "--complex", "lieder", "--max-degree", "2")
    assert code == 0
    doc = json.loads(out)["cohomology"]
    assert doc["dd_zero_certified"] is True
    degree1 = doc["degrees"][1]
    assert degree1["dim_cohomology"] == 1


def test_cohomology_zero_cldp(capsys, corpus):
    code, out, _ = run_cli(capsys, "cohomology", str(corpus / "zero_cldp.json"),
                           "--complex", "cldp", "--max-degree", "2")
    assert code == 0
    doc = json.loads(out)["cohomology"]
    for row in doc["degrees"]:
        assert row["dim_cohomology"] == row["dim_cochains"]


def test_cohomology_budget_env(capsys, corpus, monkeypatch):
    monkeypatch.setenv("DERPAIR_DEGREE_BUDGET", "1")
    code, _, err = run_cli(capsys, "cohomology", str(corpus / "zero_cldp.json"),
                           "--complex", "cldp", "--max-degree", "2")
    assert code == 2
    assert "resource limit" in err


def test_cohomology_kernel_bases_flag(capsys, corpus):
    code, out, _ = run_cli(capsys, "cohomology", str(corpus / "abelian1_lieder.json"),
                           "--complex", "lieder", "--max-degree", "1",
                           "--kernel-bases")
    assert code == 0
    doc = json.loads(out)["cohomology"]
    assert doc["kernel_bases"]["1"] == [["1"]]


def test_cohomology_kernel_bases_report_is_frozen(capsys, corpus, monkeypatch):
    # The expected report was produced by the dense Gauss-Jordan kernel that
    # the sparse eliminator replaced; the reduced echelon form is unique, so
    # the kernel bases must come out byte for byte the same.
    monkeypatch.chdir(corpus)
    code, out, _ = run_cli(capsys, "cohomology", "nilpotent3_assoc.json",
                           "--complex", "hochschild", "--max-degree", "3",
                           "--kernel-bases")
    assert code == 0
    frozen = corpus / "reports" / "nilpotent3_hochschild_top3_kernel_bases.json"
    assert out == frozen.read_text(encoding="utf-8")


@pytest.mark.parametrize("name, flavor, top", [
    ("heisenberg3_lieder", "chevalley-eilenberg", 3),
    ("heisenberg3_lieder", "lieder", 2),
    ("nilpotent3_assder", "assder", 2),
    ("nilpotent2_cad", "compatible-associative", 3),
    ("nilpotent2_cad", "cad", 2),
    ("compatible_lieder", "cldp", 3),
])
def test_cohomology_kernel_bases_reports_are_frozen_for_every_flavor(
        capsys, corpus, monkeypatch, name, flavor, top):
    # Kernel bases expose the basis order and the coordinate layout of each
    # flavor; these reports were produced before the flavors became one table.
    monkeypatch.chdir(corpus)
    code, out, _ = run_cli(capsys, "cohomology", f"{name}.json", "--complex", flavor,
                           "--max-degree", str(top), "--kernel-bases")
    assert code == 0
    frozen = corpus / "reports" / f"{name}_{flavor}_top{top}_kernel_bases.json"
    assert out == frozen.read_text(encoding="utf-8")


# -- dendrify command --------------------------------------------------------------------

def test_dendrify_roundtrip(capsys, corpus, tmp_path):
    out_path = tmp_path / "dendrified.json"
    code, _, _ = run_cli(capsys, "dendrify", str(corpus / "zinder_alpha1_beta1.json"),
                         "--recipe", "zinbiel-to-dendriform",
                         "--out", str(out_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "check", str(out_path))
    assert code == 0
    produced = files.parse_presentation(out_path.read_text())
    assert produced.kind == "dendrider"
    assert produced.provenance["recipe"] == "zinbiel-to-dendriform"


def test_dendrify_chain_matches_expected_constant(capsys, corpus, tmp_path):
    mid = tmp_path / "mid.json"
    final = tmp_path / "final.json"
    run_cli(capsys, "dendrify", str(corpus / "zinder_alpha1_beta1.json"),
            "--recipe", "zinbiel-to-dendriform", "--out", str(mid))
    code, _, _ = run_cli(capsys, "dendrify", str(mid),
                         "--recipe", "dendriform-to-associative",
                         "--out", str(final))
    assert code == 0
    p = files.parse_presentation(final.read_text())
    assert p.products["mu"].eval((0, 0))[1] == 2
    assert check_structure(p) is None


def test_dendrify_linear_combine_coefficients(capsys, corpus, tmp_path):
    out_path = tmp_path / "combined.json"
    code, _, _ = run_cli(capsys, "dendrify", str(corpus / "compatible_lie.json"),
                         "--recipe", "linear-combine",
                         "--coefficients", "1,1,1,1", "--out", str(out_path))
    assert code == 0
    p = files.parse_presentation(out_path.read_text())
    assert p.kind == "lie"
    code, _, _ = run_cli(capsys, "check", str(out_path))
    assert code == 0
    # the coefficients follow the file grammar: no decimals or exponents
    for bad in ("1.5,1,1,1", "1,1,1,1e3"):
        code, _, err = run_cli(capsys, "dendrify", str(corpus / "compatible_lie.json"),
                               "--recipe", "linear-combine", "--coefficients", bad)
        assert code == 2 and "bad rational literal" in err


def test_dendrify_refuses_coefficients_for_other_recipes(capsys, corpus, tmp_path):
    # only linear-combine reads the coefficients, so elsewhere they are an error
    out_path = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "dendrify", str(corpus / "zinder_alpha1_beta1.json"),
                             "--recipe", "zinbiel-to-associative",
                             "--coefficients", "0,0,0,0", "--out", str(out_path))
    assert code == 2
    assert "linear-combine" in err and out == ""
    assert not out_path.exists()
    code, _, _ = run_cli(capsys, "dendrify", str(corpus / "zinder_alpha1_beta1.json"),
                         "--recipe", "zinbiel-to-associative", "--out", str(out_path))
    assert code == 0


def test_dendrify_invalid_input_is_a_finding(capsys, corpus):
    code, out, _ = run_cli(capsys, "dendrify", str(corpus / "assoc_violation.json"),
                           "--recipe", "associative-to-lie")
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


# -- bracket command ---------------------------------------------------------------------

def _cochain_file(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_bracket_g_of_associative_square(capsys, tmp_path):
    mu_doc = {"dimension": 2, "flavor": "multi", "arity": 2,
              "entries": [[0, 0, 1, "1"]]}
    path = _cochain_file(tmp_path, "mu.json", mu_doc)
    code, out, _ = run_cli(capsys, "bracket", "--kind", "g", path, path)
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == []
    assert doc["arity"] == 3


def test_bracket_nr_and_dc(capsys, tmp_path):
    w_doc = {"dimension": 2, "flavor": "alt", "arity": 2,
             "entries": [[0, 1, 0, "1"], [1, 0, 0, "-1"]]}
    d_doc = {"dimension": 2, "flavor": "alt", "arity": 1,
             "entries": [[1, 1, "1"]]}
    w_path = _cochain_file(tmp_path, "w.json", w_doc)
    d_path = _cochain_file(tmp_path, "d.json", d_doc)
    code, out, _ = run_cli(capsys, "bracket", "--kind", "nr", w_path, d_path)
    assert code == 0
    doc = json.loads(out)
    assert [0, 1, 0, "1"] in doc["entries"]

    pair_doc = {"dimension": 2, "flavor": "alt", "arity": 2,
                "entries": [[0, 1, 0, "1"], [1, 0, 0, "-1"]],
                "shadow": [[1, 1, "1"]]}
    pair_path = _cochain_file(tmp_path, "pair.json", pair_doc)
    code, out, _ = run_cli(capsys, "bracket", "--kind", "dc",
                           pair_path, pair_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["shadow"] is not None


def test_bracket_flavor_mismatch(capsys, tmp_path):
    mu_doc = {"dimension": 2, "flavor": "multi", "arity": 2,
              "entries": [[0, 0, 1, "1"]]}
    path = _cochain_file(tmp_path, "mu.json", mu_doc)
    code, _, err = run_cli(capsys, "bracket", "--kind", "nr", path, path)
    assert code == 2


def test_bracket_rejects_non_alternating_alt_table(capsys, tmp_path):
    # a lone (0,1) entry without its mirror is not an alternating table, nor
    # is one whose mirror has the wrong sign or size, one with a repeated
    # index, or an arity-3 key with one of its six orderings missing
    orderings = [[*key, 0, str(sign)] for key, sign in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1), ((1, 0, 2), -1), ((0, 2, 1), -1))]
    for arity, entries in ((2, [[0, 1, 0, "1"]]),
                           (2, [[0, 1, 0, "1"], [1, 0, 0, "1"]]),
                           (2, [[0, 1, 0, "1"], [1, 0, 0, "-2"]]),
                           (2, [[0, 1, 0, "1"], [1, 0, 0, "-1"], [1, 1, 0, "1"]]),
                           (3, orderings)):
        half_doc = {"dimension": 3, "flavor": "alt", "arity": arity, "entries": entries}
        path = _cochain_file(tmp_path, "half.json", half_doc)
        code, _, err = run_cli(capsys, "bracket", "--kind", "nr", path, path)
        assert code == 2, entries
        assert "alternating" in err
    full = orderings + [[2, 1, 0, 0, "-1"]]
    path = _cochain_file(tmp_path, "full.json", {"dimension": 3, "flavor": "alt",
                                                 "arity": 3, "entries": full})
    assert run_cli(capsys, "bracket", "--kind", "nr", path, path)[0] == 0


def test_bracket_refuses_a_lone_arity_12_alt_entry(capsys, tmp_path):
    # alternation is decided from the entries, so the 12! orderings a complete
    # table would need are never formed
    lone_doc = {"dimension": 12, "flavor": "alt", "arity": 12,
                "entries": [[*range(12), 0, "1"]]}
    path = _cochain_file(tmp_path, "lone.json", lone_doc)
    code, _, err = run_cli(capsys, "bracket", "--kind", "nr", path, path)
    assert code == 2
    assert "alternating" in err


def test_bracket_accepts_an_empty_alt_table_of_large_arity(capsys, tmp_path):
    empty_doc = {"dimension": 2, "flavor": "alt", "arity": 200000, "entries": []}
    path = _cochain_file(tmp_path, "empty.json", empty_doc)
    code, out, _ = run_cli(capsys, "bracket", "--kind", "nr", path, path)
    assert code == 0
    doc = json.loads(out)
    assert doc["arity"] == 399999
    assert doc["entries"] == []


def _alternating_doc(dimension, key):
    # a one-key alt cochain file: every ordering of key, with its sign
    entries = [[*perm, 0, str(_perm_sign(perm))] for perm in itertools.permutations(key)]
    return {"dimension": dimension, "flavor": "alt", "arity": len(key), "entries": entries}


def test_bracket_refuses_a_result_past_the_entry_limit(capsys, tmp_path):
    # the nr bracket of two arity-6 keys is one arity-11 key, which an alt
    # file writes as 11! (about 40 million) entries: refused before any is formed
    left = _cochain_file(tmp_path, "left.json", _alternating_doc(12, range(6)))
    right = _cochain_file(tmp_path, "right.json", _alternating_doc(12, range(6, 12)))
    out_path = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "bracket", "--kind", "nr", left, right,
                             "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == ("derpair: the cochain would be written as more than the limit of "
                   f"{files.MAX_EMITTED_ENTRIES} entries\n")
    assert not out_path.exists()
    # an arity-4 result, 4! entries, is written in full
    left = _cochain_file(tmp_path, "left.json", _alternating_doc(8, range(3)))
    right = _cochain_file(tmp_path, "right.json", _alternating_doc(8, range(3, 5)))
    code, out, _ = run_cli(capsys, "bracket", "--kind", "nr", left, right)
    assert code == 0 and len(json.loads(out)["entries"]) == 24


def test_bracket_writes_a_multilinear_result_past_the_entry_limit(capsys, tmp_path,
                                                                 monkeypatch):
    # a multilinear result is written entry for entry, never expanded, so the
    # limit bounds only alternating results: under a limit of 23 a 32-entry g
    # bracket is written and a 4!-entry nr bracket is refused
    monkeypatch.setattr(files, "MAX_EMITTED_ENTRIES", 23)
    f = [[a, b, c, "1"] for a, b, c in itertools.product(range(3), repeat=3) if a <= b]
    g = [[0, 1, 2, "1"], [1, 2, 0, "1"]]
    left, right = (_cochain_file(tmp_path, name, {"dimension": 3, "flavor": "multi",
                                                  "arity": 2, "entries": entries})
                   for name, entries in (("left.json", f), ("right.json", g)))
    code, out, _ = run_cli(capsys, "bracket", "--kind", "g", left, right)
    assert code == 0 and len(json.loads(out)["entries"]) == 32
    left = _cochain_file(tmp_path, "left.json", _alternating_doc(8, range(3)))
    right = _cochain_file(tmp_path, "right.json", _alternating_doc(8, range(3, 5)))
    code, out, err = run_cli(capsys, "bracket", "--kind", "nr", left, right)
    assert (code, out) == (2, "") and "limit of 23 entries" in err


def test_emitted_entries_are_counted_up_to_the_limit():
    space = Space.of_dim(12)
    keys = list(AltMap._keys(space, 5))
    limit = files.MAX_EMITTED_ENTRIES

    def alt(n):
        return AltMap._of(space, 5, dict.fromkeys(keys[:n], 1))

    assert files._emitted_entries(alt(limit // 120)) == limit // 120 * 120 <= limit
    assert files._emitted_entries(alt(limit // 120 + 1)) > limit
    assert files._emitted_entries(AltMap.zero(space, 10 ** 9)) == 0
    # the shadow counts when it is written: 999,960 + 2 * 4! entries
    top = alt(limit // 120)
    shadow = AltMap._of(space, 4, {((0, 1, 2, 3), 0): 1, ((0, 1, 2, 3), 1): 1})
    with pytest.raises(SchemaError):
        files.cochain_to_dict(DerCochain(top, shadow), with_shadow=True)
    with pytest.raises(SchemaError):
        files.cochain_to_dict(DerCochain(alt(limit // 120 + 1), shadow), with_shadow=False)


def _assert_schema_exit(code, err, message):
    assert code == 2
    assert f"derpair: {message}" in err
    assert "Traceback" not in err


def test_undecodable_files_exit_2_from_every_command(capsys, tmp_path):
    # arrays nested past the decoder's recursion limit, an integer literal past
    # the interpreter's digit limit, and a byte that is not UTF-8 are schema
    # errors: exit 2 with one message, never a traceback and the finding code
    cases = {"deep.json": (b"[" * 200_000 + b"]" * 200_000, "invalid JSON: "),
             "digits.json": (b'{"dimension": ' + b"1" * 4301 + b"}", "invalid JSON: "),
             "latin1.json": (b'{"dimension": 1}\xff', "cannot read ")}
    for name, (content, message) in cases.items():
        path = tmp_path / name
        path.write_bytes(content)
        for argv in (["check", path], ["cohomology", path, "--complex", "hochschild"],
                     ["mc", path], ["dendrify", path, "--recipe", "associative-to-lie"],
                     ["bracket", "--kind", "g", path, path]):
            code, out, err = run_cli(capsys, *map(str, argv))
            _assert_schema_exit(code, err, message)
            assert out == "" and err.count("\n") == 1, (name, argv)


def test_boolean_dimension_is_rejected(capsys, tmp_path):
    doc = {"dimension": True, "kind": "associative",
           "products": {"mu": [[0, 0, 0, "1"]]}, "derivations": {}}
    path = _cochain_file(tmp_path, "bool_dimension.json", doc)
    code, _, err = run_cli(capsys, "check", path)
    _assert_schema_exit(code, err, "dimension must be a positive integer")


def test_oversized_dimension_is_refused_before_any_label(capsys, tmp_path):
    # one label per basis element of 10^9 would take about 100 GB
    message = f"exceeds the limit of {files.MAX_DIMENSION}"
    presentation = {"dimension": 10 ** 9, "kind": "associative",
                    "products": {"mu": []}, "derivations": {}}
    cochain = {"dimension": files.MAX_DIMENSION + 1, "flavor": "multi",
               "arity": 1, "entries": []}
    for argv in (["check", _cochain_file(tmp_path, "huge.json", presentation)],
                 ["bracket", "--kind", "g",
                  *[_cochain_file(tmp_path, "wide.json", cochain)] * 2]):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 5.0
        _assert_schema_exit(code, err, "dimension")
        assert message in err


def test_boolean_entry_indices_are_rejected(capsys, tmp_path):
    doc = {"dimension": 2, "kind": "associative",
           "products": {"mu": [[True, False, 0, "1"]]}, "derivations": {}}
    path = _cochain_file(tmp_path, "bool_indices.json", doc)
    code, _, err = run_cli(capsys, "check", path)
    _assert_schema_exit(code, err, "products.mu: indices must be integers")


def test_an_exponent_coefficient_is_refused_at_once(capsys, tmp_path):
    # Fraction("1e10000000") would build a 33-Mbit integer over about 10 s
    doc = {"dimension": 2, "kind": "associative",
           "products": {"mu": [[0, 0, 1, "1e10000000"]]}, "derivations": {}}
    path = _cochain_file(tmp_path, "exponent.json", doc)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "check", path)
    assert time.perf_counter() - start < 1.0
    _assert_schema_exit(code, err, "bad rational literal '1e10000000'")


def test_each_entry_defect_gives_its_first_error(capsys, tmp_path):
    # the checks run in this order on every entry, and the first failing one
    # names the file's first defect
    cases = (
        ([[0, 0, 1, "1"], [0, 1, "1"], [0, 0, 5, "x"]],
         "products.mu: each entry needs 2 input indices, one output index, "
         "and a coefficient"),
        ([[0, 0, 1, "1"], [0, "1", 0, "1"], [0, 0, 5, "1"]],
         "products.mu: indices must be integers"),
        ([[0, 0, 1, "1"], [0, True, 5, "1"]], "products.mu: indices must be integers"),
        ([[0, 0, 1, "1"], [0, -1, 0, "x"], [0, 0, 1, "1"]],
         "products.mu: index out of range for dimension 2"),
        ([[0, 0, 1, "0"], [1, 1, 1, "1"], [0, 0, 1, 2]],
         "products.mu: duplicate entry for [0, 0, 1]"),
        ([[0, 0, 1, "1"], [0, 1, 1, 1], [0, 1, 1, "x"]],
         "products.mu: coefficients must be rational strings"),
        ([[0, 0, 1, "1"], [0, 1, 1, "1.5"], [1, 1, 1, [1]]],
         "bad rational literal '1.5'"),
    )
    for i, (entries, message) in enumerate(cases):
        doc = {"dimension": 2, "kind": "associative", "products": {"mu": entries},
               "derivations": {}}
        code, _, err = run_cli(capsys, "check", _cochain_file(tmp_path, f"{i}.json", doc))
        _assert_schema_exit(code, err, message)


def test_an_earlier_entry_defect_is_reported_before_a_later_one(capsys, tmp_path):
    # each entry is checked in full before the next, so of two defects in two
    # entries the earlier entry's is the one reported, whatever their kinds;
    # the valid first entry lets a duplicate stand in either place
    shape = "products.mu: each entry needs 2 input indices, one output index, and a coefficient"
    defects = {
        "ragged": ([0, 1, "1"], shape),
        "not a list": ("0 0 1 1", shape),
        "string index": ([0, "1", 0, "1"], "products.mu: indices must be integers"),
        "boolean index": ([0, True, 0, "1"], "products.mu: indices must be integers"),
        "out of range": ([0, 2, 1, "1"], "products.mu: index out of range for dimension 2"),
        "duplicate": ([1, 1, 1, "2"], "products.mu: duplicate entry for [1, 1, 1]"),
        "integer coefficient": ([0, 0, 1, 1],
                                "products.mu: coefficients must be rational strings"),
        "bad literal": ([1, 0, 0, "1.5"], "bad rational literal '1.5'"),
    }
    for i, (first, second) in enumerate(itertools.permutations(defects, 2)):
        (entry, message), (later, _) = defects[first], defects[second]
        doc = {"dimension": 2, "kind": "associative",
               "products": {"mu": [[1, 1, 1, "1"], entry, later]}, "derivations": {}}
        code, out, err = run_cli(capsys, "check",
                                 _cochain_file(tmp_path, f"{i}.json", doc))
        assert (code, out, err) == (2, "", f"derpair: {message}\n"), (first, second)


def test_error_messages_quote_a_bounded_excerpt_of_the_input(capsys, corpus, tmp_path,
                                                              monkeypatch):
    # a refused literal, kind, name or budget is cut short in the message, so
    # stderr stays small however large the input is
    def doc(kind="associative", name="mu", coefficient="1"):
        return {"dimension": 1, "kind": kind, "products": {name: [[0, 0, 0, coefficient]]},
                "derivations": {}}

    cases = ((doc(coefficient="7" * 200_000 + "x"), "bad rational literal '777"),
             (doc(coefficient="7" * 200_000), "bad rational literal '777"),
             (doc(kind="k" * 200_000), "unknown structure kind 'kkk"),
             (doc(name="m" * 200_000), "kind 'associative' needs products ['mu'], got ['mmm"))
    for i, (d, message) in enumerate(cases):
        code, _, err = run_cli(capsys, "check", _cochain_file(tmp_path, f"{i}.json", d))
        _assert_schema_exit(code, err, message)
        assert "characters)" in err and len(err.encode()) < 1024
    monkeypatch.setenv("DERPAIR_DEGREE_BUDGET", "x" * 100_000)
    code, _, err = run_cli(capsys, "cohomology", str(corpus / "zero_cldp.json"),
                           "--complex", "cldp", "--max-degree", "2")
    _assert_schema_exit(code, err, "DERPAIR_DEGREE_BUDGET must be an integer, got 'xxx")
    assert "(100002 characters)" in err and len(err.encode()) < 1024


def test_boolean_cochain_arity_is_rejected(capsys, tmp_path):
    doc = {"dimension": 2, "flavor": "multi", "arity": True,
           "entries": [[0, 1, "1"]]}
    path = _cochain_file(tmp_path, "bool_arity.json", doc)
    code, _, err = run_cli(capsys, "bracket", "--kind", "g", path, path)
    _assert_schema_exit(code, err, "arity must be a positive integer")


# -- console entry point -------------------------------------------------------------------

def test_console_script_runs(corpus):
    result = subprocess.run(
        [sys.executable, "-m", "derpair.cli", "check",
         str(corpus / "compatible_lie.json")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdict"] == "pass"


def test_cli_import_skips_dataclasses_inspect_and_datetime():
    # Each CLI call pays for its import graph.  The modules a fresh interpreter
    # holds before the import are subtracted, so what a site hook loads does
    # not count; --timestamps loads datetime when it runs.
    probe = ("import sys; before = set(sys.modules); import derpair.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=env, check=True)
    added = set(result.stdout.split())
    assert "derpair.cli" in added
    assert added.isdisjoint(
        {"dataclasses", "inspect", "ast", "tokenize", "datetime", "typing"})


def test_one_process_runs_commands_like_fresh_processes(capsys, corpus, monkeypatch):
    # main() reuses one parser; no command's options or defaults may carry
    # over into the next call
    commands = [
        ["check", "assoc_violation.json"],
        ["cohomology", "nilpotent3_assoc.json", "--complex", "hochschild",
         "--max-degree", "1", "--kernel-bases"],
        ["cohomology", "nilpotent3_assoc.json", "--complex", "hochschild"],
        ["dendrify", "zinder_alpha1_beta1.json", "--recipe", "zinbiel-to-dendriform"],
        ["cohomology", "zero_cldp.json", "--complex", "hochschild"],
        ["check", "zin2_zinbiel.json", "--kind", "zinder"],
        ["check", "compatible_lie.json"],
    ]
    monkeypatch.chdir(corpus)
    in_process = [run_cli(capsys, *argv) for argv in commands]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    fresh = []
    for argv in commands:
        result = subprocess.run([sys.executable, "-m", "derpair.cli", *argv],
                                capture_output=True, text=True, cwd=corpus, env=env)
        fresh.append((result.returncode, result.stdout, result.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [1, 0, 0, 0, 2, 2, 0]
    assert cli._parser() is cli._parser()
