"""Spans around sobtrace's public functions, recorded from outside the package.

The tracer replaces each traced function by a wrapper in every sobtrace module
that holds it, so a call made through ``from .splines import lp_norm`` in
another module is traced too and nested calls become child spans (``extend``
-> ``build_gap_lattice`` -> ...).  A span is recorded only while a job is
running, so the benchmark's own checks leave no spans.

A layer's self time is the total duration of its spans minus the time covered
by their direct child spans.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Per-layer metrics, in report order: (name, unit).  ``<span>.s`` is the
#: summed self time of the spans of that name; the rest are counts.
LAYER_METRICS = (
    ("divdiff.rows.calls", "count"),
    ("divdiff.rows.s", "s"),
    ("functionals.sequence.s", "s"),
    ("functionals.variational.s", "s"),
    ("functionals.homogeneous.s", "s"),
    ("splines.lp_norm.frac.s", "s"),
    ("splines.lp_norm.odd.s", "s"),
    ("splines.lp_norm.even.s", "s"),
    ("splines.lp_norm.inf.s", "s"),
    ("splines.lp_norm.pieces", "count"),
    ("extension.lattice.s", "s"),
    ("extension.lattice_points", "count"),
    ("extension.hermite.s", "s"),
    ("extension.natural2.s", "s"),
    ("splines.anchored.s", "s"),
    ("splines.natural_energy.s", "s"),
    ("extension.pieces", "count"),
    ("extension.nonzero_pieces", "count"),
    ("extension.necessity.s", "s"),
    ("piecewise.eval.s", "s"),
    ("piecewise.eval.points", "count"),
    ("piecewise.differentiate.s", "s"),
    ("piecewise.serialize.s", "s"),
    ("sharp.wmf.s", "s"),
    ("sharp.profile_values.s", "s"),
    ("sharp.grid_nodes", "count"),
    ("cli.load.s", "s"),
    ("cli.check.s", "s"),
    ("cli.extend.s", "s"),
    ("cli.maximal.s", "s"),
    ("cli.compare.s", "s"),
    ("cli.bytes_written", "bytes"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _lp_norm_span(args, kwargs):
    p = _arg(args, kwargs, 1, "p")
    if p == math.inf:
        return "splines.lp_norm.inf"
    if p == int(p):
        return "splines.lp_norm.even" if int(p) % 2 == 0 else "splines.lp_norm.odd"
    return "splines.lp_norm.frac"


def _extend_span(args, kwargs):
    return "extension." + _arg(args, kwargs, 1, "cfg").backend


def _count_lp_pieces(result, args, kwargs):
    return {"splines.lp_norm.pieces": _arg(args, kwargs, 0, "F").n_pieces}


def _count_lattice(result, args, kwargs):
    return {"extension.lattice_points": len(result.lattice_points)}


def _count_pieces(result, args, kwargs):
    nonzero = int((result.coefficients != 0.0).any(axis=1).sum())
    return {"extension.pieces": result.n_pieces, "extension.nonzero_pieces": nonzero}


def _count_points(result, args, kwargs):
    return {"piecewise.eval.points": int(np.size(args[1]))}


def _count_grid(result, args, kwargs):
    return {"sharp.grid_nodes": len(result)}


def _count_bytes(result, args, kwargs):
    return {"cli.bytes_written": Path(args[0]).stat().st_size}


#: (module, function, span name or a function of the call's arguments,
#: counter or None).  A span name of None records counts without a span.
TRACED_FUNCTIONS = (
    ("sobtrace.divdiff", "divided_difference_rows", "divdiff.rows", None),
    ("sobtrace.functionals", "sequence_functional", "functionals.sequence", None),
    ("sobtrace.functionals", "variational_functional", "functionals.variational", None),
    ("sobtrace.functionals", "homogeneous_sequence_functional", "functionals.homogeneous", None),
    ("sobtrace.functionals", "homogeneous_variational_functional", "functionals.homogeneous", None),
    ("sobtrace.splines", "lp_norm", _lp_norm_span, _count_lp_pieces),
    ("sobtrace.splines", "anchored_min_energy_spline", "splines.anchored", None),
    ("sobtrace.splines", "natural_spline_min_energy", "splines.natural_energy", None),
    ("sobtrace.extension", "build_gap_lattice", "extension.lattice", _count_lattice),
    ("sobtrace.extension", "extend", _extend_span, _count_pieces),
    ("sobtrace.extension", "verify_necessity", "extension.necessity", None),
    ("sobtrace.sharp", "wmf_functional", "sharp.wmf", None),
    ("sobtrace.sharp", "profile_values", "sharp.profile_values", None),
    ("sobtrace.sharp", "grid_edges", None, _count_grid),
    ("sobtrace.cli", "load_samples", "cli.load", None),
    ("sobtrace.cli", "cmd_check", "cli.check", None),
    ("sobtrace.cli", "cmd_extend", "cli.extend", None),
    ("sobtrace.cli", "cmd_maximal", "cli.maximal", None),
    ("sobtrace.cli", "cmd_compare", "cli.compare", None),
    ("sobtrace.cli", "write_json", None, _count_bytes),
    ("sobtrace.cli", "write_csv", None, _count_bytes),
)

#: Methods of sobtrace.piecewise.PiecewisePolynomial: (method, span, counter).
TRACED_METHODS = (
    ("__call__", "piecewise.eval", _count_points),
    ("differentiate", "piecewise.differentiate", None),
    ("to_dict", "piecewise.serialize", None),
)


class Tracer:
    """Records spans [name, start, end, parent index, job id] in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._job = None
        self._patches: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- recording

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self._job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def run_job(self, job_id: int, name: str, fn):
        """Run ``fn()`` as job ``job_id`` under a root span ``job:<name>``."""
        self._job = job_id
        record = self._open("job:" + name)
        try:
            return fn()
        finally:
            self._close(record)
            self._job = None

    def _wrap(self, fn, span, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            record = None
            if span is not None:
                record = tracer._open(span if isinstance(span, str) else span(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                if record is not None:
                    tracer._close(record)
            if counter is not None:
                for key, value in counter(result, args, kwargs).items():
                    tracer.counts[key] += value
            return result

        return wrapper

    # --------------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every traced function wherever a sobtrace module binds it."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "sobtrace" or name.startswith("sobtrace.")
        ]
        for module_name, attr, span, counter in TRACED_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cls = sys.modules["sobtrace.piecewise"].PiecewisePolynomial
        for attr, span, counter in TRACED_METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, span, counter))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -------------------------------------------------------------- reporting

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of LAYER_METRICS; layers never called read 0."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
            calls[name] += 1
        out = {}
        for metric, unit in LAYER_METRICS:
            if metric.endswith(".s"):
                out[metric] = self_time.get(metric[:-2], 0.0)
            elif metric.endswith(".calls"):
                out[metric] = calls.get(metric[: -len(".calls")], 0)
            else:
                out[metric] = self.counts.get(metric, 0)
        return out

    def write(self, path: Path, extra: dict) -> None:
        payload = dict(extra)
        payload["span_fields"] = ["name", "start_s", "end_s", "parent", "job"]
        payload["spans"] = self.spans
        payload["counts"] = dict(self.counts)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
