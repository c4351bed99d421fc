"""Span tracing of nucleatrace's public functions from outside the package.

``Tracer.install`` wraps each traced function and rebinds the wrapper in
every ``nucleatrace`` module that holds the original, since ``experiments``,
``nuclear``, ``spectral`` and ``approximation`` import functions by name.
Methods and the constructor of ``Representation`` are wrapped on their
class.  ``uninstall`` restores every original.

A span records its name, start, end, parent span and op id in flat arrays
kept in memory; ``dump`` writes them out when the run ends.  Self time is
a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from nucleatrace import approximation, cli, experiments, nuclear, sequences, spaces, spectral

STATS = ("calls", "total_s", "self_s")

# spaces._exact_norm enumerates sign vertices up to this many columns
SIGN_ENUM_LIMIT = 16


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # --- spans --------------------------------------------------------------

    def open(self, name: str, reentrant: bool = True) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        if not reentrant and self._stack and self.name[self._stack[-1]] == nid:
            return -1
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        if sid < 0:
            return
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op_span(self, index: int):
        """Root span of op ``index``; every span opened inside carries its id."""
        self._op_id = index
        sid = self.open("op")
        try:
            yield
        finally:
            self.close(sid)
            self._op_id = -1

    def _wrap(self, fn, label, reentrant: bool = True):
        """Span around ``fn``; ``label`` is a name or a function of the call's arguments."""
        label_of = label if callable(label) else (lambda *a, **k: label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(label_of(*args, **kwargs), reentrant)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return wrapper

    # --- call classification and counts ------------------------------------

    def _operator_norm_label(self, A, *args, **kwargs) -> str:
        """Route that spaces.operator_norm takes, computed from its arguments."""
        p_in, p_out, n_in = A.domain.exponent, A.codomain.exponent, A.domain.dim
        if p_in == 1.0 or (p_in == 2.0 and p_out == 2.0) or (math.isinf(p_in) and math.isinf(p_out)):
            return "spaces.operator_norm.exact"
        if n_in <= SIGN_ENUM_LIMIT and not math.isinf(p_out):
            # the sign route, or the (inf, p_out) dimension-factor leg of the ascent route
            self.counters["spaces.operator_norm.sign_vertices"] += 2 ** max(n_in - 1, 0)
        if math.isinf(p_in) and n_in <= SIGN_ENUM_LIMIT:
            return "spaces.operator_norm.sign_enum"
        return "spaces.operator_norm.ascent"

    def _quasi_norm_label(self, z, index, *args, **kwargs) -> str:
        if index.variant in (nuclear.S_VARIANT, nuclear.LORENTZ_VARIANT):
            return "nuclear.quasi_norm.summable"
        self.counters["bracket_evals"] += 1
        return "nuclear.quasi_norm.bracket"

    def _factor_label(self, d, *args, **kwargs) -> str:
        self.counters["sequences.factor_l1_lorentz.entries"] += np.size(getattr(d, "values", d))
        return "sequences.factor_l1_lorentz"

    def _wrap_improver(self, fn):
        inner = self._wrap(fn, "nuclear.improve_representation")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            evals = self.counters["bracket_evals"]
            result = inner(*args, **kwargs)
            self.counters["nuclear.improve_representation.evals"] += self.counters["bracket_evals"] - evals
            _, before, after = result
            if before > 0.0:
                self.counters["nuclear.improve_representation.value_ratio_sum"] += after / before
            return result

        return wrapper

    def _count_vectors(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters["spaces.Vector.build.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installation -------------------------------------------------------

    def _rebind(self, module, attr: str, make) -> None:
        """Replace module.attr by make(original) wherever nucleatrace holds it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if not (name == "nucleatrace" or name.startswith("nucleatrace.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module, attr, label in (
            (cli, "main", "cli.invoke"),
            (experiments, "run", "experiments.run"),
            (sequences, "factor_l1_lorentz", self._factor_label),
            (sequences, "holder_product_bound", "sequences.holder_product_bound"),
            (sequences, "sharpness_witness", "sequences.sharpness_witness"),
            (sequences, "lorentz_quasi_norm", "sequences.lorentz_quasi_norm"),
            (spaces, "vector_norm", "spaces.vector_norm"),
            (spaces, "operator_norm", self._operator_norm_label),
            (spaces, "projection_onto_span", "spaces.projection_onto_span"),
            (nuclear, "induced_matrix", "nuclear.induced_matrix"),
            (nuclear, "nuclear_trace", "nuclear.nuclear_trace"),
            (nuclear, "quasi_norm", self._quasi_norm_label),
            (nuclear, "weak_norm_bracket", "nuclear.weak_norm_bracket"),
            (spectral, "audit_trace_formula", "spectral.audit_trace_formula"),
            (spectral, "eigenvalues", "spectral.eigenvalues"),
            (spectral, "characteristic_roots", "spectral.characteristic_roots"),
            (spectral, "match_spectra", "spectral.match_spectra"),
            (approximation, "build_approximant", "approximation.build_approximant"),
            (approximation, "select_rank", "approximation.select_rank"),
        ):
            self._rebind(module, attr, functools.partial(self._wrap, label=label))
        self._rebind(nuclear, "improve_representation", self._wrap_improver)

        rep = nuclear.Representation
        build = "nuclear.Representation.build"
        self._patch(spaces.Vector, "__post_init__", self._count_vectors(spaces.Vector.__post_init__))
        self._patch(rep, "__init__", self._wrap(rep.__init__, build, reentrant=False))
        self._patch(rep, "from_arrays",
                    classmethod(self._wrap(rep.__dict__["from_arrays"].__func__, build, reentrant=False)))
        self._patch(rep, "magnitudes", self._wrap(rep.magnitudes, "nuclear.magnitudes"))
        report = experiments.RunReport
        self._patch(report, "to_json_text", self._wrap(report.to_json_text, "experiments.report"))
        self._patch(report, "to_csv_text", self._wrap(report.to_csv_text, "experiments.report"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        inner = a["parent"] >= 0
        covered = np.bincount(a["parent"][inner], weights=dur[inner], minlength=dur.size)
        return dur - covered

    def by_name(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s of every span name."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self.self_times(), minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def metrics(self, names: list[str]) -> dict[str, float]:
        """Value of each named per-layer metric; 0 where the layer was not reached."""
        spans = self.by_name()
        improver_calls = spans.get("nuclear.improve_representation", {}).get("calls", 0)
        derived = {
            "nuclear.improve_representation.evals_per_call":
                self.counters["nuclear.improve_representation.evals"] / improver_calls if improver_calls else 0.0,
            "nuclear.improve_representation.value_ratio":
                self.counters["nuclear.improve_representation.value_ratio_sum"] / improver_calls
                if improver_calls else 0.0,
        }
        out = {}
        for metric in names:
            if metric in derived:
                out[metric] = derived[metric]
            elif metric in self.counters:
                out[metric] = float(self.counters[metric])
            else:
                span, _, stat = metric.rpartition(".")
                out[metric] = spans.get(span, {}).get(stat, 0) if stat in STATS else 0.0
        return out

    def dump(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
