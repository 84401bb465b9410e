"""Mapping-class verdicts for infinite matrices between sequence spaces.

Whether a matrix maps one sequence space into another is classically decided
by a small set of row/column conditions (bounded absolute row sums, convergent
columns, vanishing row differences, and so on).  This module evaluates those
conditions honestly on finite truncations — every verdict is three-valued
(satisfied / violated / inconclusive) and records what was actually observed —
and combines them per supported space pair.

Two independent routes are provided and never merged:

* the *conditions* route evaluates the characterizing conditions on the
  matrix (or on a transfer matrix, for domain pairs);
* the *oracle* route transforms a fixed battery of member sequences of the
  source space and probes their images against the target space.

Agreement between the routes is evidence; disagreement of two decisive
verdicts is a bug in one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import cache
from .domains import preimage_sequence, space_from_spec
from .duality import dual_transfer_matrix
from .errors import SpecError, TruncationError, UnsupportedClassError
from .matrices import (
    DENSE_LIMIT,
    ROW_CUTOFF_CAP,
    InfiniteMatrix,
    apply_many,
    compose,
    inverse_of,
    matrix_from_spec,
)
from .sequences import (
    LIMIT_TAGS,
    LimitKind,
    Sequence,
    SpaceId,
    analyze_traces,
    check_tol,
    classify_analyses,
    make_sequence,
    probe_window,
)
from .verdicts import Report, Verdict, _jsonable, conjoin, json_field

# Engine defaults.  The truncation/tolerance/window triple was calibrated
# together: at n = 600 with a 60-point trailing window, a tolerance of 1.5e-3
# keeps exact plateaus and clean divergences decisive while leaving slow decays
# (1/n tails, 1/log n tails) inconclusive rather than wrongly decided.
DEFAULT_CLASS_N = 600
CLASS_TOL = 1.5e-3
#: Rows stacked for the equality conditions' column-limit estimates.
EQ_STACK_ROWS = 120
#: Leading rows of a matrix checked against a source domain's beta dual.
PAIRED_ROWS = 6

# ---------------------------------------------------------------------------
# The conditions and the pair table
# ---------------------------------------------------------------------------

#: The conditions: (description, trace, space).  Each asks that a trace read
#: off the matrix lie in a classical space: the absolute row sums
#: ("row_abs"), the row sums ("row_sum"), each row's l1 distance from the
#: last complete row ("row_dist"), or each sampled column ("columns").
#: abs-rows-match-columns also asks that its trace's limit be the total mass
#: of the column limits.
_CONDITIONS = {
    "bounded-rows": ("the absolute row sums stay bounded", "row_abs", "linf"),
    "null-abs-rows": ("the absolute row sums tend to zero", "row_abs", "c0"),
    "row-sums-converge": ("the row sums have a limit", "row_sum", "c"),
    "null-row-sums": ("the row sums tend to zero", "row_sum", "c0"),
    "rows-converge-in-l1": (
        "the absolute sums of each row's difference from the last complete "
        "row tend to zero", "row_dist", "c0"),
    "columns-converge": ("every column has a limit", "columns", "c"),
    "null-columns": ("every column tends to zero", "columns", "c0"),
    "abs-rows-match-columns": (
        "the absolute row sums converge to the total mass of the column "
        "limits", "row_abs", "c"),
}

#: Characterizing conditions per (source, target) pair of classical spaces.
PAIR_CONDITIONS = {
    ("c0", "linf"): ("bounded-rows",),
    ("c0", "c"): ("bounded-rows", "columns-converge"),
    ("c", "linf"): ("bounded-rows",),
    ("c", "c"): ("bounded-rows", "columns-converge", "row-sums-converge"),
    ("linf", "linf"): ("bounded-rows",),
    ("linf", "c"): ("columns-converge", "abs-rows-match-columns"),
    ("linf", "c0"): ("null-abs-rows",),
    ("c", "c0"): ("bounded-rows", "null-columns", "null-row-sums"),
}

#: bs and cs are the domains linf(sigma) and c(sigma) of the summation
#: triangle sigma.  As a target, (X : bs) is (X : linf) and (X : cs) is
#: (X : c), judged on the target transfer sigma*A; (linf : cs) takes Schur's
#: form of (linf : c) instead: the rows converge in l1.  As a source, (bs : Y)
#: is (linf : Y) and (cs : Y) is (c : Y), judged on the source transfer
#: A*sigma^-1 with A's rows paired against sigma.
SIGMA = {"bs": "linf", "cs": "c"}
PAIR_CONDITIONS.update({(f, t): PAIR_CONDITIONS[(f, base)]
                        for f in ("c0", "c", "linf")
                        for t, base in SIGMA.items()})
PAIR_CONDITIONS.update({(f, t): PAIR_CONDITIONS[(base, t)]
                        for f, base in SIGMA.items()
                        for t in ("c0", "c", "linf")})
PAIR_CONDITIONS[("linf", "cs")] = ("rows-converge-in-l1",)


def _sigma_domain(space: SpaceId) -> SpaceId:
    """bs and cs as linf(sigma) and c(sigma); any other space as itself."""
    return (SpaceId(SIGMA[space.tag], matrix_from_spec("sigma"))
            if space.tag in SIGMA else space)


def supported_pairs() -> list:
    """Human-readable list of the supported classical pairs."""
    return [f"({f} : {t})" for f, t in sorted(PAIR_CONDITIONS)]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport(Report):
    condition: str
    verdict: Verdict
    observed: Optional[float] = json_field(optional=True)
    note: str
    truncation: int
    extras: dict = json_field("detail", optional=True, default_factory=dict)


@dataclass(frozen=True)
class SampleProbe(Report):
    label: str = json_field("sample")
    verdict: Verdict
    note: str


@dataclass(frozen=True)
class OracleReport(Report):
    verdict: Verdict
    samples: tuple
    witnesses: tuple
    decisive: int = json_field("decisive_samples")
    agreement: float
    seed: int


@dataclass(frozen=True)
class ClassReport(Report):
    matrix: dict
    from_space: str = json_field("from")
    to_space: str = json_field("to")
    conditions_required: tuple
    verdict: Verdict
    route: str
    n: int
    tol: float
    window: int
    condition_reports: tuple = json_field("conditions", optional=True,
                                          default=())
    conditions_verdict: Optional[Verdict] = json_field(optional=True,
                                                       default=None)
    transfer: Optional[dict] = json_field("transfer_matrix", optional=True,
                                          default=None)
    row_pairing: Optional[dict] = json_field(optional=True, default=None)
    oracle: Optional[OracleReport] = json_field(optional=True, default=None)
    notes: tuple = json_field(optional=True, default=())

    def routes_agree(self) -> Optional[bool]:
        """True/False when both routes ran and both are decisive, else None."""
        if self.oracle is None or self.conditions_verdict is None:
            return None
        a, b = self.conditions_verdict, self.oracle.verdict
        if Verdict.INCONCLUSIVE in (a, b):
            return None
        return a is b

    def to_dict(self) -> dict:
        out = super().to_dict()
        if self.oracle is not None:
            out["routes_agree"] = self.routes_agree()
        return out


# ---------------------------------------------------------------------------
# Trace plumbing
# ---------------------------------------------------------------------------


def _class_window(n: int) -> int:
    return max(24, n // 10)


def _check_seed(seed) -> None:
    """Refuse a seed that is not a non-negative integer, bools included: the
    oracle's random samples take no other."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
            or seed < 0:
        raise SpecError(f"seed must be a non-negative integer, got {seed!r}")


def _default_window(n: int) -> int:
    """The default window at truncation n.  Every trace, a row, a column or
    an oracle image, needs the window below n, which the default is from
    n = 25 on."""
    window = _class_window(n)
    if n <= window:
        raise TruncationError(
            f"truncation {n} is too small for the default {window}-point "
            f"window: the smallest truncation it accepts is {window + 1}")
    return window


class _TooFewRows(TruncationError):
    """Fewer complete rows than a row trace's trailing window: the row-trace
    conditions are inconclusive, with the message as their note."""


#: Elements per chunk of rows the engine reads: its temporaries stay small.
FEATURE_BLOCK = 1 << 15


@dataclass(frozen=True)
class _Features:
    """A features record: the row sums and absolute row sums (``traces``),
    the limit analyses by trace (``limits``) and the last complete row its
    pass read (``last``, a read-only copy), charged as its traces and that
    row."""
    traces: np.ndarray
    limits: dict
    last: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.traces.nbytes + self.last.nbytes


class _Engine:
    """Trace computations for one (matrix, truncation) pair.

    An engine is made per evaluation and holds nothing but O(n) features in
    the cache: one pass over the truncation's row chunks fills one features
    record per tolerance, of two row traces, the limit analyses of those
    traces and of the sampled columns, and the last complete row.  Every
    other analysis, the sups and the limits of the row distances, is made
    when a condition asks, and only its report is cached; the row
    distances, each row's from the record's last row, are a second read,
    which only (linf : cs) makes.
    """

    def __init__(self, a: InfiniteMatrix, n: int, tol: float, window: int):
        if n < 8:
            raise TruncationError(f"class checks need a truncation >= 8, got {n}")
        probe_window(n, window)
        self.a = a
        self.n = n
        self.tol = tol
        self.window = window
        self.row_limit, self.row_tail_note, self._cap_note = n, "", ""
        if a.row_end(n) is None:
            self.row_limit, capped = cache.lookup(("row-limit", a.key, n),
                                                  self._complete_row_limit)
            if capped is None:
                self.row_tail_note = ("rows have unbounded support with no "
                                      "tail cutoff; row traces use the "
                                      "leading window only")
            elif self.row_limit < n:
                if capped:
                    self._cap_note = (
                        f"; row {n}'s tail cutoff was capped at "
                        f"{ROW_CUTOFF_CAP} columns past the diagonal")
                self.row_tail_note = (
                    f"row traces restricted to rows 1..{self.row_limit}, whose "
                    f"tails are captured inside the {n}-column window"
                    + self._cap_note)

    # -- helpers ---------------------------------------------------------

    def _complete_row_limit(self) -> tuple:
        """(the last row m such that rows 1..m are complete inside the
        window, whether row n's cutoff reached the cap), with None in
        place of the latter when the rows have no cutoff."""
        complete = self.a.row_complete
        if complete(1, self.n) is None:
            return self.n, None
        lo, hi = 0, self.n
        while lo < hi:      # rows stay complete up to some row, then not
            mid = (lo + hi + 1) // 2
            if complete(mid, self.n):
                lo = mid
            else:
                hi = mid - 1
        capped = (lo < self.n
                  and self.a.row_cutoff(self.n) >= self.n + ROW_CUTOFF_CAP)
        return lo, capped

    def _chunks(self, rows: np.ndarray, width: int):
        """``rows`` over 1..width in chunks of at most FEATURE_BLOCK elements,
        with their first rows' positions."""
        return self.a._row_chunks(rows, width, max(1, FEATURE_BLOCK // width))

    def row_indices(self) -> np.ndarray:
        """Every complete row up to DENSE_LIMIT; past it, a geometric sample
        of them and the trailing window."""
        top = self.row_limit
        if top < self.window:
            raise _TooFewRows(
                f"only {top} complete rows inside the "
                f"{self.n}-column window, fewer than the {self.window}-point "
                "trailing window of a row trace" + self._cap_note)
        if self.n <= DENSE_LIMIT:
            return np.arange(1, top + 1)
        head = np.unique(np.geomspace(
            1, max(1, top - self.window), num=96).astype(int))
        tail = np.arange(max(1, top - self.window + 1), top + 1)
        return np.unique(np.concatenate([head, tail]))

    def row_trace(self, kind: str):
        rows, record = self.row_indices(), self.features()
        if kind != "row_dist":
            return rows, record.traces[int(kind == "row_abs"), :len(rows)]
        buf = np.empty((min(len(rows), FEATURE_BLOCK // self.n + 1), self.n))
        return rows, np.concatenate([
            _reduce_rows(t, kind, record.last, buf[:len(t)])
            for _, t in self._chunks(rows, self.n)])

    def features(self) -> _Features:
        """The features record: the sums and absolute sums of
        :meth:`row_indices`, the limit analyses at this engine's tolerance
        of those two traces and of the sampled columns, which the same pass
        reads and then drops, and the last row it read."""
        def build():
            (out, last), limits = self._read(), {}
            if self.row_limit >= self.window:
                rows = self.row_indices()
                sums, absolute = analyze_traces(
                    rows, out[:2, :len(rows)], "c", self.tol, self.window)
                limits.update(row_sum=[sums], row_abs=[absolute])
            if len(out) > 2:
                limits["columns"] = analyze_traces(
                    np.arange(1, self.n + 1), out[2:], "c", self.tol,
                    self.window)
            return _Features(out[:2].copy(), limits, last)
        return cache.lookup(("features", self.a.key, self.n, self.window,
                             self.tol), build)

    def _read(self) -> tuple:
        """(the matrix's ``_features_floats``, or sums and absolute sums of
        :meth:`row_indices` (a chunk with no sign bit is its absolute value)
        then the sampled columns, read at their own width from the rows not
        read at full width; the last of those rows over 1..n, a read-only
        copy, empty when no row is read).  A matrix with
        ``_features_floats`` reads that one row alone."""
        ks = np.array(self.column_sample(), dtype=int)
        rows = (self.row_indices() if self.row_limit >= self.window
                else np.arange(1, 1))
        if hasattr(self.a, "_features_floats"):     # a triangle: rows end at n
            out = self.a._features_floats(rows, ks, self.n)
            t = self.a.block(rows[-1:], self.n)
        else:
            out, t = np.empty((2 + len(ks), self.n)), np.empty((0, self.n))
            for lo, t in self._chunks(rows, self.n):
                at = slice(lo, lo + len(t))
                t.sum(axis=1, out=out[0, at])
                out[1, at] = (_reduce_rows(t, "row_abs")
                              if np.signbit(t).any() else out[0, at])
                out[2:, rows[at] - 1] = t[:, ks - 1].T
            if len(ks):
                rest = np.delete(np.arange(1, self.n + 1), rows - 1)
                for lo, part in self._chunks(rest, int(ks[-1])):
                    out[2:, rest[lo:lo + len(part)] - 1] = part[:, ks - 1].T
        last = t[-1:].flatten()     # a copy of a chunk's or a table's row
        last.setflags(write=False)
        return out, last

    def column_sample(self) -> list:
        # Columns too close to the truncation edge cannot have settled for
        # matrices whose mass travels with the row index, so the sample is
        # capped well inside the window, and a matrix that knows where its
        # columns settle (``column_settles``) keeps only those that do.
        edge = self.n - 2 * self.window
        cap = min(edge, self.n // 3)
        ks = list(range(1, 9)) + [12, 16, 24, 32, 48, 64, 96, 128, 192, 256]
        if hasattr(self.a, "column_settles"):
            ks = [k for k in ks if self.a.column_settles(k) <= edge]
        return sorted({k for k in ks if 1 <= k <= cap})

    def analyses(self, trace: str, space: str, read=None) -> list:
        """What the probes in ``space`` of the trace ``trace`` map from.  The
        limits (c0, c) of the row sums, the absolute row sums and the
        sampled columns are the features record's; any other is analysed
        from ``read``, the trace as (indices, stack)."""
        if space in LIMIT_TAGS and trace != "row_dist":
            return self.features().limits[trace]
        return analyze_traces(*read, space, self.tol, self.window)

    def classify(self, trace: str, space: str, read=None) -> list:
        """The probes in ``space`` of the trace ``trace``: see
        :meth:`analyses`."""
        return classify_analyses(self.analyses(trace, space, read), space,
                                 self.tol)

    def final_rows(self) -> np.ndarray:
        """Stacked trailing complete rows over columns 1..n (for
        column-limit estimates)."""
        lo = self.row_limit - min(EQ_STACK_ROWS, self.window, self.row_limit)
        return np.concatenate([t for _, t in self._chunks(
            np.arange(lo + 1, self.row_limit + 1), self.n)])


def _reduce_rows(t: np.ndarray, kind: str, last=None, out=None) -> np.ndarray:
    """One feature per row of ``t``, reduced over its full width with its
    temporary in ``out``: its absolute sum ("row_abs") or the absolute sum
    of its difference from ``last`` (default the last row)."""
    out = np.empty_like(t) if out is None else out
    if kind == "row_dist":
        t = np.subtract(t[-1:] if last is None else last, t, out=out)
    return np.abs(t, out=out).sum(axis=1)


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


def _report(cond, verdict, observed, note, n, **extras) -> ConditionReport:
    return ConditionReport(cond, verdict, observed, note, n, extras)


def _evaluate(eng: _Engine, condition: str) -> ConditionReport:
    """Judge the condition's trace in its space by the classifier of the
    oracle's images, at the positions the trace was read at."""
    _, trace, space = _CONDITIONS[condition]
    if trace == "columns":
        return _columns_report(eng, condition, space)
    try:
        idx, vals = eng.row_trace(trace)
    except _TooFewRows as short:
        return _report(condition, Verdict.INCONCLUSIVE, None, str(short), eng.n)
    if trace == "row_dist":
        # The last complete row stands in for the limit row; its own
        # distance, zero, is left out.
        idx, vals = idx[:-1], vals[:-1]
    verdict, info = eng.classify(trace, space, (idx, vals[None]))[0]
    if condition == "abs-rows-match-columns":
        got = _match_columns(eng, verdict, info["limit"])
    elif space == "linf":
        got = _report(condition, verdict, info.get("sup_observed"),
                      info.get("note", ""), eng.n,
                      half_span_growth=info.get("half_span_growth"))
    else:
        lv = info["limit"]
        got = _report(condition, verdict, lv.value, _limit_note(lv), eng.n,
                      kind=lv.kind.value)
    if eng.row_tail_note:
        got = replace(got, note=(got.note + "; " + eng.row_tail_note).strip("; "))
    return got


def _columns_report(eng: _Engine, cond: str, space: str) -> ConditionReport:
    """Conjoin the verdicts of the sampled columns."""
    cols = eng.column_sample()
    if not cols:
        return _report(cond, Verdict.INCONCLUSIVE, None,
                       "truncation too small to sample columns", eng.n)
    verdicts = {k: v for k, (v, _) in
                zip(cols, eng.classify("columns", space))}
    note = f"checked columns {cols[0]}..{cols[-1]} ({len(cols)} sampled)"
    extras = {"columns_checked": len(cols)}
    for key, verdict in (("violated_at", Verdict.VIOLATED),
                         ("inconclusive_at", Verdict.INCONCLUSIVE)):
        at = [k for k, v in verdicts.items() if v is verdict]
        if at:
            extras[key] = at[:6]
    return _report(cond, conjoin(verdicts.values()), None, note, eng.n,
                   **extras)


def _match_columns(eng: _Engine, verdict: Verdict, lv) -> ConditionReport:
    """The absolute row sums' limit ``lv``, judged in c by ``verdict``,
    against the column limits' total mass."""
    cond = "abs-rows-match-columns"
    if verdict is Verdict.VIOLATED:
        return _report(cond, verdict, None,
                       f"left side has no limit ({lv.kind.value})", eng.n)
    if verdict is Verdict.INCONCLUSIVE:
        return _report(cond, verdict, None,
                       "left side undecided at this truncation", eng.n)
    left = lv.value
    block = eng.final_rows()
    first_row = eng.row_limit - block.shape[0] + 1
    rhs, uncertainty = _column_mass(block, first_row, eng.n, lv.tail_spread)
    gap = abs(left - rhs)
    extras = {"left_limit": left, "column_mass": rhs,
              "uncertainty": uncertainty}
    if gap <= max(eng.tol, uncertainty) and uncertainty <= 4 * eng.tol:
        return _report(cond, Verdict.SATISFIED, left,
                       "left limit matches the column mass within tolerance",
                       eng.n, **extras)
    if gap > 4 * max(eng.tol, uncertainty):
        return _report(cond, Verdict.VIOLATED, left,
                       "left limit clearly differs from the column mass",
                       eng.n, **extras)
    return _report(cond, Verdict.INCONCLUSIVE, left,
                   "column-limit estimates too uncertain at this truncation",
                   eng.n, **extras)


def _column_mass(block: np.ndarray, first_row: int, n: int,
                 spread: float) -> tuple:
    """Column-limit estimates from the stacked rows ``first_row..`` of
    ``block``: (sum of |mean| of the rows strictly below each column 1..n,
    ``spread`` plus the sum of their ranges).  A column with no row below it
    contributes its last entry's magnitude to both.
    """
    depth = block.shape[0]
    # Columns before first_row have every stacked row below them: one
    # reduction over the contiguous transpose, which sums each column as the
    # mean of that column alone would.  The later columns see fewer rows.
    full = np.ascontiguousarray(block[:, :first_row - 1].T)
    mass = [np.abs(full.mean(axis=1))]
    spreads = [[spread],
               np.ptp(full, axis=1) if depth > 1 else np.zeros(len(full))]
    # The ufunc reductions are the ones ``below.mean()`` and ``np.ptp``
    # make, without their method dispatch.
    add, high, low = np.add.reduce, np.maximum.reduce, np.minimum.reduce
    for k in range(first_row, n + 1):
        col = block[:, k - 1]
        below = col[k - first_row + 1:]
        size = len(below)
        if size == 0:
            mass.append([abs(col[-1])])
            spreads.append([abs(col[-1])])
        else:
            mass.append([abs(add(below) / size)])
            spreads.append([high(below) - low(below) if size > 1 else 0.0])
    # Running totals in column order: the sums of a sequential loop.
    return (float(np.add.accumulate(np.concatenate(mass))[-1]),
            float(np.add.accumulate(np.concatenate(spreads))[-1]))


def _limit_note(lv) -> str:
    if lv.kind is LimitKind.CONVERGES:
        return f"trace settles near {lv.value:.6g}"
    if lv.note:
        return f"{lv.kind.value}: {lv.note}"
    return lv.kind.value


def condition_report(a, condition: str, n: int = DEFAULT_CLASS_N,
                     tol: float = CLASS_TOL,
                     window: Optional[int] = None) -> ConditionReport:
    """Evaluate one named condition on a matrix at a truncation.

    Reports are kept in the evaluation cache under the matrix key and
    (condition, n, tol, window), so repeated class checks share the work
    while the cache holds them.
    """
    check_tol(tol)
    a = matrix_from_spec(a)
    if condition not in _CONDITIONS:
        known = ", ".join(sorted(_CONDITIONS))
        raise SpecError(f"unknown condition {condition!r}; known: {known}")
    if window is None:
        window = _default_window(n)
    return cache.lookup(("condition", a.key, condition, n, tol, window),
                        lambda: _evaluate(_Engine(a, n, tol, window), condition))


def condition_trace(a, feature: str, n: int = DEFAULT_CLASS_N,
                    window: Optional[int] = None):
    """Raw (indices, values) trace of a row feature: "row-abs-sum" or
    "row-sum".  Useful for inspection and tests."""
    kinds = {"row-abs-sum": "row_abs", "row-sum": "row_sum"}
    if feature not in kinds:
        raise SpecError(f"unknown trace feature {feature!r}")
    a = matrix_from_spec(a)
    if window is None:
        window = _default_window(n)
    eng = _Engine(a, n, CLASS_TOL, window)
    idx, vals = eng.row_trace(kinds[feature])
    return np.asarray(idx), np.asarray(vals)


# ---------------------------------------------------------------------------
# Domain transfer matrices
# ---------------------------------------------------------------------------


def source_transfer_matrix(a, domain_matrix) -> InfiniteMatrix:
    """The matrix acting on the transformed coordinates of a source domain:
    the composition ``A  (inverse of the domain triangle)``."""
    return compose(a, inverse_of(domain_matrix))


def target_transfer_matrix(a, domain_matrix) -> InfiniteMatrix:
    """The matrix whose rows are the domain coordinates of the images:
    the composition ``(domain triangle)  A``."""
    return compose(domain_matrix, a)


def _row_pairing_verdict(a: InfiniteMatrix, space: SpaceId, n: int, tol: float,
                         window: int) -> dict:
    """Check that the leading ``PAIRED_ROWS`` rows of ``a`` pair summably
    with the source domain: each row must lie in the domain's beta dual.
    Every beta dual contains phi, the finitely supported sequences, so a row
    with a support bound (``a.row_end``) is satisfied as it stands.  For a
    row without one, its dual triangle (:func:`dual_transfer_matrix`) must
    map the base space into c.

    Each row's dual triangle is keyed ``("row-dual", matrix key, row,
    domain key)``, so its features and condition reports are cached under
    that key, and c0, c and linf over one domain judge each condition they
    share once.  The triangle itself is not cached.
    """
    conds = PAIR_CONDITIONS[(space.tag, "c")]
    verdicts = {}
    for nn in range(1, PAIRED_ROWS + 1):
        if a.row_end(nn) is not None:
            verdicts[nn] = Verdict.SATISFIED
            continue
        transfer = dual_transfer_matrix(
            Sequence(lambda k, nn=nn: a.entry(nn, k), label=f"row[{nn}]"),
            space.matrix)
        transfer.key = ("row-dual", a.key, nn, space.matrix.key)
        verdicts[nn] = conjoin(
            condition_report(transfer, c, n, tol, window).verdict
            for c in conds)
    overall = conjoin(verdicts.values())
    weakest = next((r for r, v in verdicts.items()
                    if v is not Verdict.SATISFIED), None)
    return {"verdict": overall, "rows_checked": PAIRED_ROWS,
            "weakest_row": weakest}


# ---------------------------------------------------------------------------
# The sampling oracle
# ---------------------------------------------------------------------------


def _indices(m: int) -> np.ndarray:
    return np.arange(1, m + 1, dtype=float)


def _sign_blocks() -> Sequence:
    def vector(m):
        _, e = np.frexp(_indices(m))    # k = f * 2**e with f in [1/2, 1)
        return np.where((e - 1) % 2 == 0, 1.0, -1.0)
    return Sequence(lambda k: 1 if int(math.log2(k)) % 2 == 0 else -1,
                    label="sign-blocks", vector=vector)


def _alt_power(p: float, label: str) -> Sequence:
    def vector(m):
        k = _indices(m)
        return np.where(k % 2 == 0, 1.0, -1.0) * k ** p
    return Sequence(lambda k: (-1) ** k * float(k) ** p, label=label,
                    vector=vector)


#: The bs and cs batteries, in their order: members of the linf battery.
_SERIES_SAMPLES = {
    "bs": ("unit:1", "zero-sum", "alternating", "alt-sqrt", "alt-harmonic",
           "geometric:1/2", "power:-2"),
    "cs": ("unit:1", "zero-sum", "geometric:1/2", "alt-harmonic", "alt-sqrt",
           "power:-2"),
}


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _seed_state(seed: int) -> list:
    """The four 64-bit words numpy's ``SeedSequence(seed)`` gives a PCG64:
    the seed's 32-bit words hashed into a pool of four, then drawn out."""
    words, seed = [], int(seed)
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _uniforms(seed: int) -> list:
    """The ``random-finite`` sample's 25 values,
    ``np.random.default_rng(seed).uniform(-2.0, 2.0, 25)`` bit for bit,
    without importing ``numpy.random``: PCG64's XSL-RR output (O'Neill,
    "PCG: A Family of Simple Fast Space-Efficient Statistically Good
    Algorithms for Random Number Generation", 2014) of a 128-bit LCG,
    seeded as numpy seeds it, and each double from the top 53 bits."""
    _check_seed(seed)
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    s = _seed_state(seed)
    inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
    state = (inc + (s[0] << 64 | s[1])) * mult + inc & _M128
    out = []
    for _ in range(25):
        state = state * mult + inc & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        out.append(-2.0 + 4.0 * ((x >> 11) * 2.0 ** -53))
    return out


def _base_samples(tag: str, seed: int) -> list:
    random_vals = _uniforms(seed)
    c0 = [
        ("unit:1", make_sequence("unit:1")),
        ("unit:3", make_sequence("unit:3")),
        ("zero-sum", make_sequence("list:1,-1")),
        ("geometric:1/2", make_sequence("geometric:1/2")),
        ("geometric:-1/2", make_sequence("geometric:-1/2")),
        ("harmonic", make_sequence("harmonic")),
        ("power:-2", make_sequence("power:-2")),
        ("alt-sqrt", _alt_power(-0.5, "alt-sqrt")),
        ("alt-harmonic", _alt_power(-1.0, "alt-harmonic")),
        ("log-slow", Sequence(lambda k: 1.0 / math.log(k + 1), label="log-slow",
                              vector=lambda m: 1.0 / np.log(_indices(m) + 1))),
        # A slowly-chirped null sequence.  Its domain preimages oscillate at
        # the resonant sweep that smoothing kernels pass, so it witnesses
        # unbounded transfers that every smooth sample slips through.  The
        # sweep rate 4 keeps successive image peaks closer together than the
        # detection window while losing only a constant factor to smoothing.
        ("chirp-slow", Sequence(
            lambda k: math.sin(4.0 * math.sqrt(k)) / math.log(k + 1),
            label="chirp-slow",
            vector=lambda m: (np.sin(4.0 * np.sqrt(_indices(m)))
                              / np.log(_indices(m) + 1)))),
        ("random-finite", make_sequence({"kind": "list", "values": random_vals})),
    ]
    c_extra = [
        ("const:1", make_sequence("const:1")),
        ("one-plus-power:-2",
         Sequence(lambda k: 1.0 + 1.0 / k ** 2, label="one-plus-power:-2",
                  vector=lambda m: 1.0 + 1.0 / _indices(m) ** 2)),
        ("one-plus-geometric",
         Sequence(lambda k: 1.0 + 0.5 ** k, label="one-plus-geometric",
                  vector=lambda m: 1.0 + np.ldexp(1.0, -np.arange(1, m + 1)))),
    ]
    linf_extra = [
        ("alternating", make_sequence("alternating")),
        ("sign-blocks", _sign_blocks()),
    ]
    if tag == "c0":
        return c0
    if tag == "c":
        return c0 + c_extra
    linf = c0 + c_extra + linf_extra
    if tag == "linf":
        return linf
    if tag in _SERIES_SAMPLES:
        by_label = dict(linf)
        return [(label, by_label[label]) for label in _SERIES_SAMPLES[tag]]
    raise SpecError(f"no sample battery for space tag {tag!r}")


def oracle_samples(space, seed: int = 0) -> list:
    """Labelled member sequences of a space (domain members are built as
    preimages of the base space's battery under the domain triangle)."""
    space = space_from_spec(space)
    base = _base_samples(space.tag, seed)
    if not space.is_domain:
        return base
    out = []
    for label, x in base:
        out.append((f"{space.matrix.name}-preimage:{label}",
                    preimage_sequence(space.matrix, x)))
    return out


def _probe_samples(a: InfiniteMatrix, from_space: SpaceId, to_space: SpaceId,
                   samples: list, n: int, tol: float, window: int,
                   seed: int) -> dict:
    """The probe of each (label, x) of ``samples`` against ``to_space``,
    by label.  The images, one cache entry each, are made in one stacked
    call when missing; those that stay in the float range are taken through
    a target domain's triangle and analysed in one stacked call, c0 and c
    targets filling one entry of limit analyses per target triangle."""
    domain = from_space.matrix.key if from_space.is_domain else None
    target = to_space.matrix.key if to_space.is_domain else None
    held = (cache.lookup(("image-limits", a.key, domain, n, seed, target, tol,
                          window), dict) if to_space.tag in LIMIT_TAGS else {})
    todo = [(label, x) for label, x in samples if label not in held]
    keys = [("image", a.key, domain, label, n, seed) for label, _ in todo]
    images = cache.lookup_many(keys, lambda missing: apply_many(
        a, [todo[i][1] for i in missing], n))
    inside = [i for i, img in enumerate(images) if not img.overflow]
    if to_space.is_domain and inside:
        for i, img in zip(inside, apply_many(
                to_space.matrix, [images[i] for i in inside], n)):
            images[i] = img
    probes, judged, traces = {}, [], []
    for (label, _), img in zip(todo, images):
        if img.overflow:
            probes[label] = SampleProbe(
                label, Verdict.INCONCLUSIVE,
                f"transform overflowed at index {img.overflow_index}")
        else:
            judged.append(label)
            traces.append(img.entries)
    if traces:
        held.update(zip(judged, analyze_traces(
            np.arange(1, n + 1), np.array(traces), to_space.tag, tol, window)))
    labels = [label for label, _ in samples if label in held]
    for label, (verdict, info) in zip(labels, classify_analyses(
            [held[label] for label in labels], to_space.tag, tol)):
        probes[label] = SampleProbe(label, verdict, _probe_note(info))
    return probes


def _probe_note(info: dict) -> str:
    lv = info.get("limit")
    if lv is not None:
        core = _limit_note(lv)
    else:
        core = info.get("note", "")
    probe = info.get("probe")
    return f"{probe}: {core}" if probe else core


def oracle_check(a, from_space, to_space, n: int = DEFAULT_CLASS_N,
                 tol: float = CLASS_TOL, window: Optional[int] = None,
                 seed: int = 0) -> OracleReport:
    """Transform a battery of source-space members and probe the images.

    Verdict semantics: Violated as soon as any image decisively fails the
    target space (those samples are the witnesses); Satisfied when at least
    one image decisively belongs and none decisively fails; Inconclusive
    otherwise.  This is sampled evidence, not a proof — its role is to
    cross-check the conditions route.  Each sample is probed once per
    (matrix, source domain, target) while the cache holds its probe.
    """
    check_tol(tol)
    _check_seed(seed)
    a = matrix_from_spec(a)
    from_space = space_from_spec(from_space)
    to_space = space_from_spec(to_space)
    if window is None:
        window = _default_window(n)
    probe_window(n, window)
    domain = from_space.matrix.key if from_space.is_domain else None
    battery = cache.lookup(("battery", domain, from_space.tag, seed),
                           lambda: oracle_samples(from_space, seed))
    # One entry per (image, target) holds the probes judged so far, by
    # label: the batteries of c0, c and linf, and of bs and cs, share
    # labels, so a check judges only the samples that entry lacks.
    known = cache.lookup(
        ("probes", a.key, domain, n, seed, to_space.tag,
         to_space.matrix.key if to_space.is_domain else None, tol, window),
        dict)
    missing = [(label, x) for label, x in battery if label not in known]
    if missing:
        known.update(_probe_samples(a, from_space, to_space, missing, n, tol,
                                    window, seed))
    probes = [known[label] for label, _ in battery]
    witnesses = tuple(p.label for p in probes if p.verdict is Verdict.VIOLATED)
    decisive = [p for p in probes if p.verdict is not Verdict.INCONCLUSIVE]
    members = [p for p in decisive if p.verdict is Verdict.SATISFIED]
    if witnesses:
        verdict = Verdict.VIOLATED
    elif members:
        verdict = Verdict.SATISFIED
    else:
        verdict = Verdict.INCONCLUSIVE
    agreement = (len(members) / len(decisive)) if decisive else 1.0
    return OracleReport(verdict=verdict, samples=tuple(probes),
                        witnesses=witnesses, decisive=len(decisive),
                        agreement=agreement, seed=seed)


# ---------------------------------------------------------------------------
# The class checker
# ---------------------------------------------------------------------------


def check_class(a, from_space, to_space, n: int = DEFAULT_CLASS_N,
                tol: float = CLASS_TOL, window: Optional[int] = None,
                route: str = "conditions", seed: int = 0) -> ClassReport:
    """Decide (at a truncation) whether a matrix maps one space into another.

    Supported pairs: the classical pairs listed by :func:`supported_pairs`,
    plus domain pairs with one side a matrix domain — a source domain over the
    omega/gamma triangles (conditions run on the source transfer matrix, and
    the leading rows are checked against the domain's beta dual: a row with
    a support bound lies in phi, inside every beta dual, and only a row
    without one is judged through its dual triangle), or a target domain
    over any triangle (conditions run on the target transfer matrix).
    bs and cs are the domains linf(sigma) and c(sigma) of the summation
    triangle (:data:`SIGMA`), on either side: a bs or cs source runs the
    (linf : Y) or (c : Y) conditions on A*sigma^-1, with A's rows paired
    against sigma, and a bs or cs target runs the (X : linf) or (X : c)
    conditions on sigma*A.

    ``route`` selects the evidence: "conditions" (default), "oracle", or
    "both".  With "both", the headline verdict is the conditions verdict and
    the oracle is attached for cross-checking; its probes are shared by
    every check with the same matrix, source domain and target
    (:func:`oracle_check`).
    """
    check_tol(tol)
    _check_seed(seed)
    a = matrix_from_spec(a)
    f = space_from_spec(from_space)
    t = space_from_spec(to_space)
    if route not in ("conditions", "oracle", "both"):
        raise SpecError(f"unknown route {route!r}")
    if window is None:
        window = _default_window(n)
    if f.is_domain and t.is_domain:
        raise UnsupportedClassError(
            "pairs with a matrix domain on both sides are not supported; "
            "supported: classical pairs "
            + ", ".join(supported_pairs())
            + ", domain sources over omega/gamma, and domain targets")
    base_pair = (f.tag, t.tag)
    conds = PAIR_CONDITIONS.get(base_pair)
    if conds is None:
        raise UnsupportedClassError(
            f"no characterization for ({f} : {t}); supported classical pairs: "
            + ", ".join(supported_pairs()))

    if f.is_domain and f.matrix.name not in ("omega", "gamma"):
        raise UnsupportedClassError(
            "source domains are supported over the omega and gamma "
            f"triangles, not {f.matrix.name!r}")
    source = _sigma_domain(f)

    notes = []
    row_pairing = None
    target = a
    if source.is_domain:
        target = source_transfer_matrix(a, source.matrix)
        notes.append(
            "conditions evaluated on the source transfer matrix "
            f"{target.name}")
    if t.is_domain or t.tag in SIGMA:
        target = target_transfer_matrix(
            target, t.matrix if t.is_domain else "sigma")
        notes.append(
            "conditions evaluated on the target transfer matrix "
            f"{target.name}")
    transfer_desc = None if target is a else target.describe()

    reports = ()
    conditions_verdict = None
    if route in ("conditions", "both"):
        reports = tuple(condition_report(target, c, n, tol, window)
                        for c in conds)
        parts = [r.verdict for r in reports]
        if source.is_domain:
            row_pairing = _row_pairing_verdict(a, source, n, tol, window)
            parts.append(row_pairing["verdict"])
        conditions_verdict = conjoin(parts)

    oracle = None
    if route in ("oracle", "both"):
        oracle = oracle_check(a, f, t, n=n, tol=tol, window=window, seed=seed)

    verdict = oracle.verdict if route == "oracle" else conditions_verdict
    return ClassReport(
        matrix=a.describe(),
        from_space=str(f),
        to_space=str(t),
        conditions_required=conds,
        verdict=verdict,
        route=route,
        n=n,
        tol=tol,
        window=window,
        condition_reports=reports,
        conditions_verdict=conditions_verdict,
        transfer=transfer_desc,
        row_pairing=_jsonable(row_pairing) if row_pairing else None,
        oracle=oracle,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Regularity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport(Report):
    """Limit-preservation probe: bounded rows, vanishing columns, and row sums
    tending to one.  A matrix satisfying all three maps convergent sequences
    to sequences converging to the same limit."""

    verdict: Verdict
    bounded_rows: ConditionReport
    null_columns: ConditionReport
    row_sum_verdict: Verdict = json_field(False)
    row_sum_limit: Optional[float] = json_field(False)
    n: int
    tol: float
    window: int
    row_sum_note: str = json_field(False, default="")

    def to_dict(self) -> dict:
        row_sums = {"verdict": str(self.row_sum_verdict),
                    "limit": self.row_sum_limit, "target": 1.0}
        if self.row_sum_note:
            row_sums["note"] = self.row_sum_note
        return {**super().to_dict(), "row_sums": row_sums}


def regularity_report(a, n: int = 2000, tol: float = CLASS_TOL,
                      window: Optional[int] = None) -> RegularityReport:
    """Evaluate the limit-preservation triple at a truncation.

    Nothing is assumed: all three parts are measured, including for matrices
    whose regularity is textbook knowledge.
    """
    check_tol(tol)
    a = matrix_from_spec(a)
    if window is None:
        window = _default_window(n)
    c1 = condition_report(a, "bounded-rows", n, tol, window)
    c5 = condition_report(a, "null-columns", n, tol, window)
    # The row sums' limit analysis that row-sums-converge reads.
    eng, lv, rows_note = _Engine(a, n, tol, window), None, ""
    try:
        eng.row_indices()       # too few rows raise here
        lv, = eng.analyses("row_sum", "c")
    except _TooFewRows as short:
        rows_note = str(short)
    if lv is not None and lv.kind is LimitKind.CONVERGES:
        limit = float(lv.value)
        gap = abs(limit - 1.0)
        if gap <= max(tol, 4 * (lv.tail_spread + abs(lv.trend_slope))):
            if gap <= tol:
                rows_v = Verdict.SATISFIED
            else:
                rows_v = Verdict.INCONCLUSIVE
        else:
            rows_v = Verdict.VIOLATED
    elif lv is None or lv.kind is LimitKind.INCONCLUSIVE:
        limit, rows_v = None, Verdict.INCONCLUSIVE
    else:
        limit, rows_v = None, Verdict.VIOLATED
    overall = conjoin([c1.verdict, c5.verdict, rows_v])
    return RegularityReport(
        verdict=overall, bounded_rows=c1, null_columns=c5,
        row_sum_verdict=rows_v, row_sum_limit=limit,
        n=n, tol=tol, window=window, row_sum_note=rows_note,
    )
