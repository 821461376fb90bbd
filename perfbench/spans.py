"""Spans around derpair's public functions, installed from outside the package.

The package binds names with ``from .x import y``, so a function is replaced
in every derpair module that holds it (and methods on their classes), by one
wrapper object: identity tests such as ``bracket is nijenhuis_richardson``
still see the same object on both sides.

A span is (id, name, start, end, parent id, job id), kept in memory and
written out by ``write``.  Each span's self time is its duration minus the
spans directly inside it; counter hooks run inside the span's interval but
are subtracted from every self time and summed as ``trace.hook_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

MODULES = ("linalg", "cochains", "brackets", "structures", "constructions",
           "cohomology", "maurer_cartan", "files", "cli")

# layer -> (module attribute or Class.method, span name) pairs
TARGETS = {
    "linalg": (("rank", "linalg.rank"), ("nullspace", "linalg.nullspace")),
    "cochains": (("circle_g", "cochains.circle_g"),
                 ("circle_nr", "cochains.circle_nr"),
                 ("_SparseMap.apply", "cochains.apply"),
                 ("MultiMap.coords", "cochains.coords"),
                 ("AltMap.coords", "cochains.coords"),
                 ("AltMap.from_multimap", "cochains.from_multimap")),
    "brackets": tuple((name, f"brackets.{name}") for name in (
        "gerstenhaber", "nijenhuis_richardson", "dc_bracket", "assder_bracket")),
    "structures": tuple((name, f"structures.{name}") for name in (
        "check_structure", "validate_presentation", "fingerprint",
        "check_operator", "check_morphism", "derivation_system",
        "cross_derivation_system")),
    "constructions": tuple((name, f"constructions.{name}") for name in (
        "dendrify", "nijenhuis_product", "rb_deform_assder", "endo_brackets",
        "rb_lie_to_prelie")),
    "cohomology": tuple((name, f"cohomology.{name}") for name in (
        "cohomology", "der_D", "hochschild_d", "ce_d", "assder_d", "lieder_d",
        "compat_assoc_d", "cad_d", "cldp_d", "compat_assoc_degree0")),
    "maurer_cartan": tuple((name, f"maurer_cartan.{name}") for name in (
        "mc_lieder", "mc_assder", "mc_pair_lieder", "mc_pair_assder", "lie_pair",
        "ass_pair", "deformation_check", "bidifferential_check")),
    "files": tuple((name, f"files.{name}") for name in (
        "parse_presentation", "presentation_from_dict", "presentation_to_dict",
        "emit_presentation", "parse_cochain", "cochain_from_dict",
        "cochain_to_dict", "emit_cochain", "violation_to_dict", "mc_to_dict",
        "cohomology_to_dict")),
    "cli": (("main", "cli.main"),),
}


def _entry_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Span store and per-name aggregates; one per worker process."""

    def __init__(self):
        self.spans = []
        self.stack = []          # [span id, child ns, hook ns] per open span
        self.next_id = 0
        self.job = 0
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self.hook_ns = 0
        self.cohomology_depth = 0

    # -- hooks: counters taken at layer boundaries ------------------------------

    def _before_rank(self, matrix):
        entries = matrix.entries
        nonzero = [x for x in entries if x]
        c = self.counters
        c["linalg.rank_cells"] += len(entries)
        c["linalg.rank_nnz"] += len(nonzero)
        bits = max(map(_entry_bits, nonzero), default=0)
        c["linalg.rank_max_bits"] = max(c["linalg.rank_max_bits"], bits)
        if self.cohomology_depth:
            c["cohomology.matrix_cells"] += len(entries)

    def _after_coords(self, values):
        self.counters["cochains.coords_len"] += len(values)
        self.counters["cochains.coords_nnz"] += sum(1 for x in values if x)

    def _after_map(self, name):
        def hook(result):
            self.counters[name] += len(result.coeffs)
        return hook

    def _after_cohomology(self, report):
        self.counters["cohomology.basis_cochains"] += sum(
            row.dim_cochains for row in report.degrees)

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self.stack
        calls, self_ns = self.calls, self.self_ns
        clock = time.perf_counter_ns
        tracer = self
        is_cohomology = name == "cohomology.cohomology"

        def wrapper(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            frame = [span_id, 0, 0]
            stack.append(frame)
            start = clock()
            if before is not None:
                before(args[0])
                frame[2] += clock() - start
            if is_cohomology:
                tracer.cohomology_depth += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    mark = clock()
                    after(result)
                    frame[2] += clock() - mark
            finally:
                end = clock()
                if is_cohomology:
                    tracer.cohomology_depth -= 1
                stack.pop()
                duration = end - start
                self_ns[name] += duration - frame[1] - frame[2]
                calls[name] += 1
                tracer.hook_ns += frame[2]
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                spans.append((span_id, name, start, end, parent, tracer.job))
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> list:
        """Replace every target in every derpair module; returns names not found."""
        modules = [importlib.import_module("derpair")]
        modules += [importlib.import_module(f"derpair.{m}") for m in MODULES]
        hooks = {
            "linalg.rank": (self._before_rank, None),
            "cochains.coords": (None, self._after_coords),
            "cochains.circle_g": (None, self._after_map("cochains.circle_g_out_nnz")),
            "cochains.circle_nr": (None, self._after_map("cochains.circle_nr_out_nnz")),
            "cohomology.cohomology": (None, self._after_cohomology),
        }
        missing = []
        for layer, targets in TARGETS.items():
            home = importlib.import_module(f"derpair.{layer}")
            for attr, name in targets:
                before, after = hooks.get(name, (None, None))
                owner_name, _, method = attr.rpartition(".")
                if owner_name:
                    owner = getattr(home, owner_name, None)
                    raw = None if owner is None else owner.__dict__.get(method)
                    if raw is None:
                        missing.append(attr)
                        continue
                    if isinstance(raw, staticmethod):
                        wrapper = staticmethod(self.wrap(name, raw.__func__, before, after))
                    else:
                        wrapper = self.wrap(name, raw, before, after)
                    setattr(owner, method, wrapper)
                    continue
                original = getattr(home, attr, None)
                if original is None:
                    missing.append(attr)
                    continue
                wrapper = self.wrap(name, original, before, after)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
        return missing

    # -- results ----------------------------------------------------------------

    def take_stats(self) -> dict:
        """Aggregates since the last call, then reset them (spans are kept)."""
        stats = {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                 "counters": dict(self.counters), "hook_ns": self.hook_ns}
        self.calls.clear()
        self.self_ns.clear()
        self.counters.clear()
        self.hook_ns = 0
        return stats

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, job in sorted(self.spans):
                handle.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent,
                                         "job": job}) + "\n")
