"""Spans and counters around signelim's public entry points.

The tracer wraps functions from outside the program: every entry point
`module.function` is replaced by a wrapper in each signelim module that holds
it, because modules import functions by name and call them through their own
namespace. Spans (name, start, end, parent span, op id) stay in memory until
the run ends; self time is a span's duration minus that of its direct
children. An entry point a later version no longer has is reported as absent.
`overhead` sums the time each wrapper spends outside the call it wraps, which
is what tracing adds to a traced run apart from the wrapper calls themselves.

Counters are computed from the arguments and return values of the wrapped
calls, never from program internals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from collections.abc import Sized

ENTRY_POINTS = {
    "cli": ("main",),
    "gates": ("load_gate", "expand", "apply_functional", "reduced_partial"),
    "sensitivity": (
        "analyze_gate",
        "sign_over_region",
        "sensitivity_score",
        "reversibility_certificate",
        "verify_certificate",
        "data_upper_bound",
        "parse_experiment_csv",
        "default_family",
    ),
    "signvec": (
        "eliminated_set",
        "eliminated_count",
        "eliminated_mask",
        "canonical_sign_vectors",
        "canonicalize",
    ),
    "backend": ("eliminated_any_mask", "sign_vector_table"),
    "counting": ("count_eliminated_union", "count_eliminated_oracle"),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in ENTRY_POINTS.items() for f in fs)

_UNDETERMINED = 2  # signelim's int code for a "u" total-sign entry

# Entry points whose counters read arguments; only these pay for binding.
_COUNTED_ARGUMENTS = ("backend.eliminated_any_mask", "sensitivity.sensitivity_score")


class Tracer:
    """Collects spans and counters while `on`; wraps on install()."""

    def __init__(self):
        self.on = False
        self.op_id = None
        self.op_command = None
        self.spans = []  # [name, start, end, parent index, op id]
        self.absent = []
        self.broken_counters = set()
        self.overhead = 0.0
        self._stack = []
        self._patches = []  # (module, attribute, original)
        self._tally = defaultdict(int)

    # -- installation -----------------------------------------------------

    def install(self, package_name: str = "signelim") -> None:
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package_name or name.startswith(package_name + "."))
        ]
        for short, functions in ENTRY_POINTS.items():
            home = sys.modules.get(f"{package_name}.{short}")
            for fname in functions:
                span = f"{short}.{fname}"
                original = getattr(home, fname, None) if home is not None else None
                if not callable(original):
                    self.absent.append(span)
                    continue
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, span: str, fn):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        tracer = self
        needs_args = span in _COUNTED_ARGUMENTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            entered = time.perf_counter()
            bound = None
            if needs_args and signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                except TypeError:
                    bound = None
            before = tracer._count_before(span, bound)
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            record = [span, time.perf_counter(), None, parent, tracer.op_id]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            tracer._count_after(span, bound, before, result)
            tracer.overhead += time.perf_counter() - entered - (record[2] - record[1])
            return result

        return wrapper

    # -- counters ---------------------------------------------------------

    def _count_before(self, span, bound):
        """Counters that need arguments before the call may consume them."""
        if span != "sensitivity.sensitivity_score":
            return None
        try:
            n, subset = bound["n_reduced"], bound["sens_subset"]
        except (KeyError, TypeError):
            self.broken_counters.add("sensitivity.score_complement_rows")
            return None
        if not isinstance(subset, Sized):
            self.broken_counters.add("sensitivity.score_complement_rows")
            return None
        return (3**n - 1) // 2 - len(set(map(tuple, subset)))

    def _count_after(self, span, bound, before, result):
        tally = self._tally
        try:
            if span == "backend.eliminated_any_mask":
                table, elim = list(bound.values())[:2]
                tally["backend.mask_cells"] += int(table.shape[0]) * int(elim.shape[0])
            elif span == "sensitivity.sensitivity_score" and before is not None:
                tally["sensitivity.score_complement_rows"] += before
            elif span == "sensitivity.analyze_gate":
                entries = [e for r in result.reports for _, ts in r.witnesses for e in ts]
                tally["u_entries"] += sum(1 for e in entries if e == _UNDETERMINED)
                tally["sign_entries"] += len(entries)
                if self.op_command == "certify" and result.certificate is not None:
                    first = next(i for i, r in enumerate(result.reports) if r.certificate is not None)
                    tally["certify_needed"] += first + 1
                    tally["certify_swept"] += len(result.reports)
            elif span == "sensitivity.data_upper_bound" and result is not None:
                tally["sensitivity.collision_pairs"] += int(result.collisions)
        except (AttributeError, KeyError, TypeError, ValueError, StopIteration):
            name = {
                "backend.eliminated_any_mask": "backend.mask_cells",
                "sensitivity.analyze_gate": "sensitivity.u_share",
                "sensitivity.data_upper_bound": "sensitivity.collision_pairs",
            }.get(span, span)
            self.broken_counters.add(name)

    def add_output_bytes(self, count: int) -> None:
        self._tally["cli.output_bytes"] += count

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """{metric name: (value, unit)} for every present span and counter."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            calls[name] += 1
            self_time[name] += duration - child_time[index]
            if not self._has_ancestor_named(index, name):
                inclusive[name] += duration
        out = {}
        for name in SPAN_NAMES:
            if name in self.absent:
                continue
            out[f"{name}.s"] = (inclusive[name], "s")
            out[f"{name}.self_s"] = (self_time[name], "s")
            out[f"{name}.calls"] = (calls[name], "count")
        tally = self._tally
        # A ratio over no calls (no certify op in the workload) reads 0.
        counters = {
            "backend.mask_cells": (tally["backend.mask_cells"], "count"),
            "sensitivity.score_complement_rows": (tally["sensitivity.score_complement_rows"], "count"),
            "sensitivity.u_share": (
                tally["u_entries"] / tally["sign_entries"] if tally["sign_entries"] else 0.0,
                "ratio",
            ),
            "sensitivity.collision_pairs": (tally["sensitivity.collision_pairs"], "count"),
            "sensitivity.certify_sweep_ratio": (
                tally["certify_needed"] / tally["certify_swept"] if tally["certify_swept"] else 0.0,
                "ratio",
            ),
            "cli.output_bytes": (tally["cli.output_bytes"], "count"),
        }
        for name, (value, unit) in counters.items():
            if name not in self.broken_counters:
                out[name] = (value, unit)
        return out

    def _has_ancestor_named(self, index, name) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
