"""Span recording around the public functions of seqspace's layers.

The tracer wraps functions from outside: each wrapper records a span (layer,
start, end, parent span, operation id) in memory, or only bumps a counter for
the calls too frequent to time (``Sequence.__call__``, matrix ``entry``).
Only calls made inside a timed operation are recorded, so the benchmark's
own output checks leave no trace.  A layer's self time is the duration of its
spans minus the time their child spans cover.  Nothing in seqspace changes;
the wrappers are installed in every module namespace that imported a function
by name, and on the classes whose methods are traced.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

import numpy as np

#: Timed layers: span name -> functions of the module the name starts with.
#: The methods ``row_floats``, ``col_floats``, ``entry`` and
#: ``truncation_floats`` of every matrix class, ``FiniteVector.as_floats`` and
#: the reports' ``to_dict`` are wrapped in ``Tracer.install``.
TIMED = {
    "conditions.report": ("condition_report",),
    "conditions.oracle": ("oracle_check",),
    "conditions.regularity": ("regularity_report",),
    "sequences.vector": ("finite_vector", "truncate"),
    "sequences.analysis": ("analyze_limit", "analyze_sup", "classify_values"),
    "sequences.parse": ("make_sequence",),
    "matrices.parse": ("matrix_from_spec", "compose", "inverse_of",
                       "invert_triangle"),
    "matrices.apply": ("apply",),
    "matrices.table": ("truncate_matrix",),
    "domains.parse": ("space_from_spec",),
    "domains.membership": ("space_membership",),
    "domains.preimage": ("preimage_sequence", "domain_preimage", "domain_image"),
    "duality.membership": ("dual_membership",),
    "cli.main": ("main",),
    "cli.report": ("_emit",),
}

#: Layers reported as a count only.
COUNTED = ("sequences.evals", "matrices.entry", "duality.transfer")

#: Every per-layer metric the traced run prints, in order.
LAYER_METRICS = (
    ("conditions.report_calls", "count"), ("conditions.report_s", "s"),
    ("conditions.oracle_calls", "count"), ("conditions.oracle_s", "s"),
    ("conditions.pairing_calls", "count"), ("conditions.pairing_s", "s"),
    ("conditions.check_calls", "count"), ("conditions.check_s", "s"),
    ("conditions.regularity_calls", "count"), ("conditions.regularity_s", "s"),
    ("sequences.evals", "count"),
    ("sequences.vector_calls", "count"), ("sequences.vector_s", "s"),
    ("sequences.analysis_calls", "count"), ("sequences.analysis_s", "s"),
    ("sequences.parse_calls", "count"), ("sequences.parse_s", "s"),
    ("matrices.parse_calls", "count"), ("matrices.parse_s", "s"),
    ("matrices.apply_calls", "count"), ("matrices.apply_s", "s"),
    ("matrices.rowcol_calls", "count"), ("matrices.rowcol_s", "s"),
    ("matrices.entry_calls", "count"),
    ("matrices.table_calls", "count"), ("matrices.table_s", "s"),
    ("matrices.table_mb", "MB"),
    ("domains.parse_calls", "count"), ("domains.parse_s", "s"),
    ("domains.membership_calls", "count"), ("domains.membership_s", "s"),
    ("domains.preimage_calls", "count"), ("domains.preimage_s", "s"),
    ("duality.transfer_calls", "count"),
    ("duality.membership_calls", "count"), ("duality.membership_s", "s"),
    ("cli.calls", "count"), ("cli.parse_s", "s"), ("cli.report_s", "s"),
    ("import.numpy_s", "s"), ("import.seqspace_s", "s"),
)

#: Span layers, in index order.  "op" is the benchmark operation itself: the
#: root of every span tree, never reported as a layer.
LAYERS = ("op", "conditions.check", "conditions.pairing", "matrices.rowcol",
          "cli.parse") + tuple(TIMED)


class Tracer:
    """Spans and counts of one worker process, kept in memory."""

    def __init__(self):
        self.layer = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.stack = []
        self.op_id = -1
        self.counts = dict.fromkeys(COUNTED, 0)
        self._tables = weakref.WeakKeyDictionary()
        self.table_bytes = 0
        self._index = {name: i for i, name in enumerate(LAYERS)}

    # -- recording --------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        if not self.stack and name != "op":
            return fn(*args, **kwargs)  # outside an operation: output checks
        idx = len(self.layer)
        self.layer.append(self._index[name])
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def inside(self, name: str) -> bool:
        target = self._index[name]
        return any(self.layer[i] == target for i in self.stack)

    def note_table(self, matrix, size: int, table) -> None:
        """Count a float table once per distinct (matrix object, size)."""
        seen = self._tables.setdefault(matrix, set())
        if size not in seen:
            seen.add(size)
            self.table_bytes += int(getattr(table, "nbytes", 0))

    # -- installing -------------------------------------------------------

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def counted(self, name: str, fn):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap the traced functions of an imported seqspace everywhere they
        are bound: in their own module and in every seqspace module that
        imported them by name."""
        from seqspace import cli, conditions, duality, sequences
        from seqspace.matrices import InfiniteMatrix

        spaces = [module for name, module in sys.modules.items()
                  if name == "seqspace" or name.startswith("seqspace.")]

        def rebind(original, wrapper):
            for space in spaces:
                for attr, value in list(vars(space).items()):
                    if value is original:
                        setattr(space, attr, wrapper)

        for layer, fnames in TIMED.items():
            module = sys.modules["seqspace." + layer.split(".")[0]]
            for fname in fnames:
                original = getattr(module, fname)
                rebind(original, self.timed(layer, original))

        check = conditions.check_class

        @functools.wraps(check)
        def check_class(*args, **kwargs):
            name = ("conditions.pairing" if self.inside("conditions.check")
                    else "conditions.check")
            return self.span(name, check, *args, **kwargs)
        rebind(check, check_class)

        transfer = duality.dual_transfer_matrix
        rebind(transfer, self.counted("duality.transfer", transfer))

        build = cli.build_parser

        @functools.wraps(build)
        def build_parser(*args, **kwargs):
            parser = self.span("cli.parse", build, *args, **kwargs)
            parser.parse_args = self.timed("cli.parse", parser.parse_args)
            return parser
        rebind(build, build_parser)

        seq_cls = sequences.Sequence
        seq_cls.__call__ = self.counted("sequences.evals", seq_cls.__call__)
        fv = sequences.FiniteVector
        fv.as_floats = self.timed("sequences.vector", fv.as_floats)
        for report in (conditions.ClassReport, conditions.RegularityReport,
                       duality.DualReport):
            report.to_dict = self.timed("cli.report", report.to_dict)

        for cls in _subclasses(InfiniteMatrix):
            own = vars(cls)
            for meth in ("row_floats", "col_floats"):
                if meth in own:
                    setattr(cls, meth, self.timed("matrices.rowcol", own[meth]))
            if "entry" in own:
                cls.entry = self.counted("matrices.entry", own["entry"])
            if "truncation_floats" in own:
                original = own["truncation_floats"]

                @functools.wraps(original)
                def truncation_floats(matrix, size, _original=original):
                    table = self.span("matrices.table", _original, matrix, size)
                    if self.stack:
                        self.note_table(matrix, size, table)
                    return table
                cls.truncation_floats = truncation_floats

    # -- summarizing ------------------------------------------------------

    def spans(self) -> dict:
        return {"layer": np.asarray(self.layer, dtype=np.int16),
                "start": np.asarray(self.start, dtype=float),
                "end": np.asarray(self.end, dtype=float),
                "parent": np.asarray(self.parent, dtype=np.int64),
                "op": np.asarray(self.op, dtype=np.int64)}

    def summary(self) -> dict:
        """Per-layer calls and self seconds, plus the counted layers."""
        calls, self_s = layer_totals(self.layer, self.start, self.end,
                                     self.parent)
        out = {}
        for i, name in enumerate(LAYERS):
            out[name + "_calls"] = int(calls[i])
            out[name + "_s"] = float(self_s[i])
        for name, count in self.counts.items():
            out[name] = count
        out["matrices.table_mb"] = self.table_bytes / 2 ** 20
        return out


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def layer_totals(layer, start, end, parent) -> tuple:
    """(calls, self seconds) per layer index.  Self time is a span's
    duration minus the durations of its direct children, which run inside it
    one after another."""
    layer = np.asarray(layer, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    child = np.zeros(len(dur))
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    self_time = dur - child
    size = len(LAYERS)
    calls = np.bincount(layer, minlength=size)
    return calls, np.bincount(layer, weights=self_time, minlength=size)


def import_seconds(stderr_text: str) -> dict:
    """numpy's and seqspace's own import time from ``-X importtime`` output.

    seqspace's figure is its cumulative time minus numpy's, since seqspace is
    what imports numpy in the worker.
    """
    cumulative = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        try:
            cumulative[name] = int(parts[1]) / 1e6
        except ValueError:
            continue
    numpy_s = cumulative.get("numpy", 0.0)
    seqspace_s = max(0.0, cumulative.get("seqspace", 0.0) - numpy_s)
    return {"import.numpy_s": numpy_s, "import.seqspace_s": seqspace_s}


#: Per-layer metrics whose tracer key differs from the metric name.
_ALIASES = {"matrices.entry_calls": "matrices.entry",
            "duality.transfer_calls": "duality.transfer",
            "cli.calls": "cli.main_calls"}


def layer_metrics(summary: dict) -> dict:
    """The named per-layer metrics (all but the import times) from a tracer
    summary."""
    return {name: summary[_ALIASES.get(name, name)]
            for name, _unit in LAYER_METRICS if not name.startswith("import.")}
