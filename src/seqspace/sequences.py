"""Lazy real sequences, truncation, and trend-based limit detection.

The module provides:

* ``Sequence`` — an immutable 1-based rule ``k -> value`` with an optional
  finite-support hint,
* ``make_sequence`` — construction from a small JSON-style spec or an inline
  ``name:params`` shorthand,
* ``FiniteVector`` / ``truncate`` — finite prefixes with an overflow flag
  instead of stored NaN/inf,
* ``detect_limit`` — a three-outcome-plus-inconclusive limit heuristic on a
  finite trace,
* ``classify_values`` / ``classify_traces`` — membership probes of raw
  traces in the classical spaces c0, c, linf, bs and cs,
* ``SpaceId`` — a classical space, or a triangle's domain over one.

Indexing is 1-based everywhere.  Scalars are real: exact values are carried as
``int``/``fractions.Fraction`` where the defining rule is rational, and float
otherwise.  Detection is honest about truncation: when a finite trace cannot
decide, the answer is Inconclusive rather than a guess.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

from .errors import SpecError, TruncationError
from .verdicts import Verdict

Scalar = Union[int, float, Fraction]

#: Default tolerance for limit/membership checks (exact-decay sequences settle
#: well below this; probes of slowly decaying data should pass a looser value).
DEFAULT_TOL = 1e-9

# Calibration constants for the trend heuristics.  See the package README for
# the reasoning; in short: divergence requires monotone growth with a sustained
# slope against log n that moves away from zero, and oscillation requires a
# non-decaying amplitude.  Both rules exist so that a decisive verdict at a
# truncation is never decisively wrong.
DIVERGENCE_SLOPE = 1e-2
SLOPE_SUSTAIN = 0.97
OSC_SUSTAIN = 0.7
ALTERNATION_FRACTION = 0.8
CLEAR_MARGIN = 4.0
#: Slow (non-adjacent) swings count as oscillation only when the tail peaks
#: clearly outgrow the mid-trace peaks; a ratio this side of 1 keeps bounded
#: oscillations with slowly decaying envelopes inconclusive instead.
SWING_GROWTH = 1.1

CLASSICAL_TAGS = ("c0", "c", "linf", "bs", "cs")


def default_window(n: int) -> int:
    """Trailing-window size used when the caller does not pass one."""
    return max(16, n // 10)


def probe_window(length: int, window: Optional[int] = None,
                 n: Optional[int] = None) -> int:
    """The trailing window of a probe on one trace of ``length`` points.

    ``window`` defaults to ``min(default_window(n), length - 1)``, with the
    truncation ``n`` equal to ``length`` unless given.  A window outside
    ``0 < window < length`` raises :class:`TruncationError`.
    """
    if window is None:
        window = min(default_window(length if n is None else n), length - 1)
    if not 0 < window < length:
        raise TruncationError(
            f"window must satisfy 0 < window < {length}, got {window}")
    return window


def exact_number(value) -> Scalar:
    """Convert a user-facing parameter to an exact scalar when possible.

    Ints and Fractions pass through.  Strings are parsed as exact rationals
    ("1/2", "0.25").  Floats are converted through their shortest decimal repr,
    so 0.1 means one tenth, deterministically.
    """
    if isinstance(value, bool):
        raise SpecError(f"expected a number, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"cannot parse number {value!r}") from exc
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SpecError(f"non-finite parameter {value!r}")
        return Fraction(repr(value))
    raise SpecError(f"expected a number, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sequence:
    """A lazily evaluated 1-based sequence.

    ``rule`` must be pure and deterministic.  When ``support_hint`` is set the
    sequence is treated as identically zero beyond that index and the rule is
    never consulted there.  ``vector``, when given, is the rule's vectorized
    form: ``vector(m)`` returns the float64 array ``x_1..x_m`` and is only
    asked for ``m`` within the support (see :meth:`floats`).  ``ratio`` is
    set on geometric sequences, ``x_k = ratio**k``, so that exact terms can
    be stepped through by running products instead of fresh powers.
    """

    rule: Callable[[int], Scalar]
    support_hint: Optional[int] = None
    label: str = "sequence"
    vector: Optional[Callable[[int], np.ndarray]] = None
    ratio: Optional[Scalar] = None

    def __call__(self, k: int) -> Scalar:
        if k < 1:
            raise IndexError(f"sequence index must be >= 1, got {k}")
        if self.support_hint is not None and k > self.support_hint:
            return 0
        return self.rule(k)

    def floats(self, n: int) -> np.ndarray:
        """The float64 prefix ``x_1..x_n``.

        Entry k equals ``float(x(k))``; a term too large for a float is
        ``inf`` with its sign.  The vectorized form, if any, is asked for the
        supported part only; without one the rule is evaluated there, and the
        rest is zeros.
        """
        if n < 0:
            raise TruncationError(f"prefix length must be >= 0, got {n}")
        m = n if self.support_hint is None else max(0, min(n, self.support_hint))
        if self.vector is not None:
            head = self.vector(m)
        else:
            head = _rule_floats(self.rule, 1, m)
        if m == n:
            return head
        out = np.zeros(n)
        out[:m] = head
        return out


def _float_or_inf(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return -math.inf if value < 0 else math.inf


def _rule_floats(rule, lo: int, hi: int) -> np.ndarray:
    """``float(rule(k))`` for k = lo..hi, overflow as a signed inf."""
    return np.array([_float_or_inf(rule(k)) for k in range(lo, hi + 1)],
                    dtype=float)


#: Integers below this bound convert to float64 exactly.
_EXACT_INT = 2 ** 53


def _exact_powers(base: int, m: int) -> int:
    """How many of ``|base|**1 .. |base|**m`` are below ``_EXACT_INT``."""
    base = abs(base)
    if base <= 1:
        return m
    count, value = 0, base
    while count < m and value < _EXACT_INT:
        count += 1
        value *= base
    return count


def _with_rule_tail(head: np.ndarray, rule, m: int) -> np.ndarray:
    """``head`` (the first entries) followed by the rule's floats up to m."""
    if len(head) >= m:
        return head
    return np.concatenate([head, _rule_floats(rule, len(head) + 1, m)])


def _inverse_power_floats(q: int, rule):
    """1/k**q: k**q is exact in float64 below 2**53, and the division rounds
    once, as ``float(Fraction(1, k**q))`` does."""
    def vector(m: int) -> np.ndarray:
        top = min(m, int((_EXACT_INT - 1) ** (1.0 / q)) + 1)
        while top > 0 and top ** q >= _EXACT_INT:
            top -= 1
        ks = np.arange(1, top + 1, dtype=np.int64) ** q
        return _with_rule_tail(1.0 / ks.astype(float), rule, m)
    return vector


def _geometric_floats(r, rule):
    """r**k for r = odd * 2**e: the odd part's powers are exact integers while
    below 2**53, and ldexp applies the power of two with one rounding."""
    if r == 0:
        return np.zeros
    num, den = r.numerator, r.denominator
    if den & (den - 1):
        return None
    shift = (num & -num).bit_length() - 1
    odd = num >> shift
    e = shift - (den.bit_length() - 1)

    def vector(m: int) -> np.ndarray:
        top = _exact_powers(odd, m)
        if top == 0:    # |odd| is past 2**53, and may be past int64 too
            return _rule_floats(rule, 1, m)
        ks = np.arange(1, top + 1)
        mags = np.cumprod(np.full(top, abs(odd), dtype=np.int64)).astype(float)
        if odd < 0:
            mags = np.where(ks % 2 == 1, -mags, mags)
        with np.errstate(over="ignore", under="ignore"):
            head = np.ldexp(mags, e * ks)
        return _with_rule_tail(head, rule, m)
    return vector


def _integer_param(name: str, value) -> int:
    """An integer parameter of sequence ``name``: an integral number other
    than a bool, or a string of an int."""
    try:
        number = int(value) if isinstance(value, str) else Fraction(value)
    except (ValueError, TypeError, OverflowError):
        number = None
    if isinstance(value, bool) or number is None or number.denominator != 1:
        raise SpecError(f"{name} expects an integer, got {value!r}")
    return int(number)


def _builtin_sequence(name: str, params: dict) -> Sequence:
    name = name.lower()
    if name in ("unit", "e"):
        k0 = _integer_param(name, params.get("k", 1))
        if k0 < 1:
            raise SpecError("unit sequence needs k >= 1")
        return Sequence(lambda k: 1 if k == k0 else 0, support_hint=k0,
                        label=f"unit:{k0}",
                        vector=lambda m: (np.arange(1, m + 1) == k0) * 1.0)
    if name in ("constant", "const"):
        c = exact_number(params.get("c", 1))
        return Sequence(lambda k: c, label=f"const:{c}",
                        vector=lambda m: np.full(m, _float_or_inf(c)))
    if name == "power":
        p = params.get("p", 1)
        if isinstance(p, float) and not p.is_integer():
            pf = float(p)
            return Sequence(lambda k: float(k) ** pf, label=f"power:{pf}")
        p = _integer_param(name, p)
        if p >= 0:
            return Sequence(lambda k: k**p, label=f"power:{p}")

        def rule(k):
            return Fraction(1, k ** (-p))
        return Sequence(rule, label=f"power:{p}",
                        vector=_inverse_power_floats(-p, rule))
    if name in ("geometric", "geom"):
        r = exact_number(params.get("r", Fraction(1, 2)))

        def rule(k):
            return r**k
        return Sequence(rule, label=f"geometric:{r}",
                        vector=_geometric_floats(r, rule), ratio=r)
    if name in ("alternating", "alt"):
        return Sequence(lambda k: (-1) ** k, label="alternating",
                        vector=lambda m: np.where(np.arange(1, m + 1) % 2,
                                                  -1.0, 1.0))
    if name == "harmonic":
        return Sequence(lambda k: Fraction(1, k), label="harmonic",
                        vector=lambda m: 1.0 / np.arange(1.0, m + 1))
    raise SpecError(f"unknown builtin sequence {name!r}")


def sequence_from_values(values, label: str = "list") -> Sequence:
    """Wrap explicit leading values; the sequence is zero beyond them.

    Ints, Fractions, and parseable strings stay exact; floats stay floats
    (an explicit list is data, not a rule to re-interpret).
    """
    vals = []
    for v in values:
        if isinstance(v, np.generic):
            v = v.item()
        if isinstance(v, float):
            vals.append(v)
        else:
            vals.append(exact_number(v))
    vals = tuple(vals)
    return Sequence(lambda k: vals[k - 1], support_hint=len(vals), label=label)


def _array_sequence(values: np.ndarray, label: str) -> Sequence:
    """Wrap a float64 array as a sequence that is zero beyond it."""
    return Sequence(lambda k: float(values[k - 1]), support_hint=len(values),
                    label=label, vector=lambda m: values[:m])


def _parse_inline_sequence(text: str) -> Sequence:
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head == "list":
        items = [s.strip() for s in rest.split(",")]
        if items == [""]:
            raise SpecError("list shorthand needs at least one value")
        if "" in items:
            raise SpecError("list shorthand has an empty item at position "
                            f"{items.index('') + 1}")
        return sequence_from_values([exact_number(s) for s in items])
    params: dict = {}
    if rest:
        key = {"unit": "k", "e": "k", "constant": "c", "const": "c", "power": "p",
               "geometric": "r", "geom": "r"}.get(head)
        if key is None:
            raise SpecError(f"sequence {head!r} takes no parameter")
        params[key] = rest
    return _builtin_sequence(head, params)


def make_sequence(spec) -> Sequence:
    """Build a ``Sequence`` from a spec.

    Accepted forms:

    * a ``Sequence`` (returned unchanged),
    * an inline string such as ``"harmonic"``, ``"unit:3"``, ``"const:1"``,
      ``"power:-2"``, ``"geometric:0.5"``, ``"alternating"``, ``"list:1,2,3"``,
    * a mapping naming any builtin, such as ``{"kind": "unit", "k": 3}``,
      ``{"kind": "builtin", "name": "harmonic"}``, ``{"kind": "power", "p": -2}``,
      ``{"kind": "geometric", "r": 0.5}``, ``{"kind": "constant", "c": 2}`` or
      ``{"kind": "list", "values": [...]}``.
    """
    if isinstance(spec, Sequence):
        return spec
    if isinstance(spec, str):
        return _parse_inline_sequence(spec)
    if isinstance(spec, FiniteVector):
        label = spec.origin or "vector"
        if isinstance(spec.entries, np.ndarray):
            return _array_sequence(spec.entries, label)
        return sequence_from_values(spec.entries, label=label)
    if isinstance(spec, (list, tuple, np.ndarray)):
        return sequence_from_values(list(spec))
    if isinstance(spec, dict):
        kind = str(spec.get("kind", "")).lower()
        if kind == "list":
            values = spec.get("values")
            if not isinstance(values, (list, tuple)) or not values:
                raise SpecError("list spec needs a non-empty 'values' array")
            return sequence_from_values(values)
        named = ("kind", "name") if kind == "builtin" else ("kind",)
        params = {k: v for k, v in spec.items() if k not in named}
        return _builtin_sequence(
            str(spec.get("name", "")) if kind == "builtin" else kind, params)
    raise SpecError(f"cannot build a sequence from {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Finite vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteVector:
    """A finite prefix of a sequence.

    Entries are always finite numbers.  If evaluation produced a non-finite
    float, the entry is stored as 0.0 and the overflow flag records where;
    consumers treat flagged vectors as Inconclusive evidence.  Exact vectors
    hold a tuple of ints and Fractions; float vectors hold a read-only
    float64 array.
    """

    entries: Union[tuple, np.ndarray]
    origin: str = ""
    overflow: bool = False
    overflow_index: Optional[int] = None

    def __len__(self) -> int:
        return len(self.entries)

    def value(self, k: int) -> Scalar:
        """1-based accessor."""
        if not 1 <= k <= len(self.entries):
            raise IndexError(f"index {k} outside 1..{len(self.entries)}")
        return self.entries[k - 1]

    @property
    def nbytes(self) -> int:
        """Bytes of a float vector's array; 0 for exact vectors."""
        return self.entries.nbytes if isinstance(self.entries, np.ndarray) else 0

    def as_floats(self) -> np.ndarray:
        if isinstance(self.entries, np.ndarray):
            return self.entries
        return np.array([float(v) for v in self.entries], dtype=float)


def finite_vector(values, origin: str = "") -> FiniteVector:
    """Build a FiniteVector from raw values, recording overflow instead of NaN/inf.

    An ndarray gives a float vector (a read-only copy); any other iterable
    gives an exact vector (a tuple).
    """
    if isinstance(values, np.ndarray):
        return finite_vectors([values], [origin])[0]
    out = []
    overflow = False
    first_bad = None
    for i, v in enumerate(values, start=1):
        if isinstance(v, float) and not math.isfinite(v):
            overflow = True
            if first_bad is None:
                first_bad = i
            out.append(0.0)
        else:
            out.append(v)
    return FiniteVector(tuple(out), origin=origin, overflow=overflow,
                        overflow_index=first_bad)


def finite_vectors(stack, origins: list) -> list:
    """``finite_vector(row, origin)`` for each row of a 2-D float stack and
    its origin in ``origins``, checked for non-finite values in one pass.
    The vectors' entries are the rows of one read-only copy of the stack."""
    arr = np.array(stack, dtype=float)
    bad = ~np.isfinite(arr)
    first_bad = [None] * len(arr)
    if bad.any():
        for i in np.flatnonzero(bad.any(axis=1)):
            first_bad[i] = int(np.argmax(bad[i])) + 1
        arr[bad] = 0.0
    arr.setflags(write=False)
    return [FiniteVector(row, origin=origin, overflow=first is not None,
                         overflow_index=first)
            for row, origin, first in zip(arr, origins, first_bad)]


def truncate(x: Sequence, n: int) -> FiniteVector:
    """First ``n`` coordinates of ``x`` as a FiniteVector."""
    if n < 1:
        raise TruncationError(f"truncation length must be >= 1, got {n}")
    return finite_vector((x(k) for k in range(1, n + 1)), origin=x.label)


# ---------------------------------------------------------------------------
# Limit detection
# ---------------------------------------------------------------------------


class LimitKind(enum.Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    OSCILLATES = "oscillates"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LimitVerdict:
    """Outcome of limit detection on a finite trace.

    ``kind`` is CONVERGES only when the trailing window's spread is within
    tolerance, and DIVERGES only when the trailing window is monotone with a
    sustained trend slope.  ``value`` is the trailing-window mean for a
    convergent verdict and None otherwise.
    """

    kind: LimitKind
    value: Optional[float]
    tail_spread: float
    trend_slope: float
    note: str = ""


#: The outcomes of the limit heuristic: (kind, note) by outcome code.
_SETTLED, _UNDECIDED, _DIVERGENT, _ALTERNATING, _DECAYING, _SWINGING = range(6)
_OUTCOMES = (
    (LimitKind.CONVERGES, ""),
    (LimitKind.INCONCLUSIVE, ""),
    (LimitKind.DIVERGES, "monotone growth with sustained slope"),
    (LimitKind.OSCILLATES, "alternating differences, amplitude not decaying"),
    (LimitKind.INCONCLUSIVE,
     "alternating differences with decaying amplitude"),
    (LimitKind.OSCILLATES, "sustained swings with growing peaks"),
)
_NON_FINITE = LimitVerdict(LimitKind.INCONCLUSIVE, None, math.inf, 0.0,
                           note="non-finite values in trace")


def _rows(block: np.ndarray, which: np.ndarray) -> np.ndarray:
    """The rows ``which`` of ``block``: a view when they are all of them."""
    return block if len(which) == len(block) else block[which]


def _row_means(block: np.ndarray) -> np.ndarray:
    """``block.mean(axis=1)``, without its Python-level overhead: the same
    pairwise sum per row, divided by the row length."""
    means = np.add.reduce(block, axis=1) / block.shape[1]
    if not math.isfinite(np.add.reduce(means)):     # a sum may overflow
        np.copyto(means, np.add.reduce(block * 2.0 ** -64, axis=1)
                  / (block.shape[1] * 2.0 ** -64), where=~np.isfinite(means))
    return means


def _slopes(log_idx: np.ndarray, block: np.ndarray, means=None) -> np.ndarray:
    """Least-squares slope of each row of ``block`` against ``log_idx``.

    ``means`` are the row means when the caller has them.  Each slope is
    ``dot(x, row - mean) / dot(x, x)`` with ``x`` the centred log indices;
    the stacked 1 x w @ w x 1 products go to the same BLAS ``ddot`` as
    ``np.dot`` of one row, so a row's slope does not depend on its batch.
    """
    if len(log_idx) < 2 or \
            np.maximum.reduce(log_idx) == np.minimum.reduce(log_idx):
        return np.zeros(len(block))
    x = log_idx - np.add.reduce(log_idx) / len(log_idx)
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return np.zeros(len(block))
    if means is None:
        means = _row_means(block)
    centred = block - means[:, None]
    return (centred[:, None, :] @ x[:, None])[:, 0, 0] / denom


def _turns(diffs: np.ndarray) -> np.ndarray:
    """Per row, how many adjacent pairs of nonzero differences have a
    negative product.  The product is of the differences themselves, so a
    pair whose product underflows to zero is no turn."""
    nonzero = diffs != 0
    flat = diffs[nonzero]                 # each row's nonzero ones, in order
    row = np.nonzero(nonzero)[0]
    turn = (flat[1:] * flat[:-1] < 0) & (row[1:] == row[:-1])
    return np.bincount(row[1:][turn], minlength=len(diffs))


def _diverges(s_head: float, s_tail: float, last: float, tol: float) -> bool:
    """The divergence rule for a monotone trailing window: its slope holds
    up from the first half to the second, is not too flat, and carries the
    last value away from zero."""
    sustained = abs(s_head) > 0 and abs(s_tail) >= SLOPE_SUSTAIN * abs(s_head)
    away = (s_tail > 0 and last > tol) or (s_tail < 0 and last < -tol)
    return sustained and abs(s_tail) >= DIVERGENCE_SLOPE and away


def check_tol(tol: float) -> None:
    """Refuse a tolerance that is not finite and positive: an infinite one
    settles every trace, and NaN compares false with every spread."""
    if not (math.isfinite(tol) and tol > 0):
        raise TruncationError(f"tolerance must be finite and positive, got {tol}")


# A trace near the float max overflows in its spreads, slopes and
# products.  An overflow is +-inf and keeps its sign, and inf - inf is
# NaN, which compares false with every bound, so neither moves a verdict:
# the trace analysis runs without numpy's warnings about them.
@np.errstate(over="ignore", invalid="ignore")
def analyze_limits(indices, traces, tol: float, window: int) -> list:
    """Limit heuristic on a stack of traces observed at the same positions.

    ``indices`` are the 1-based positions, shared by every row of the 2-D
    ``traces``; the trailing ``window`` points of a row are its evidence.
    The decision order is converged (spread within tol), divergent
    (monotone, sustained slope vs log n, moving away from zero), oscillating
    (alternating differences with non-decaying amplitude, or slow swings
    with growing peaks), else inconclusive.  Each stage runs on the rows the
    stages before it left open.  Returns one ``LimitVerdict`` per row, the
    same as the row would get alone.
    """
    idx = np.asarray(indices, dtype=float)
    vals = np.asarray(traces, dtype=float)
    if vals.ndim != 2 or vals.shape[1] != len(idx):
        raise TruncationError("indices and values must have equal length")
    length = vals.shape[1]
    if not (0 < window <= length):
        raise TruncationError(f"window must be in 1..{length}, got {window}")
    check_tol(tol)
    out = [_NON_FINITE] * len(vals)
    rows = range(len(vals))
    finite = np.isfinite(vals)
    if not np.logical_and.reduce(finite, axis=None):
        rows = np.flatnonzero(np.logical_and.reduce(finite, axis=1))
        vals = vals[rows]
        if not len(rows):
            return out
        rows = rows.tolist()

    tail = vals[:, -window:]
    spread = np.maximum.reduce(tail, axis=1) - np.minimum.reduce(tail, axis=1)
    means = _row_means(tail)
    log_tail = np.log(idx[-window:])
    slope = _slopes(log_tail, tail, means)
    code = np.zeros(len(vals), dtype=np.intp)     # _SETTLED
    live = (~(spread <= tol)).nonzero()[0]

    if len(live):
        code[live] = _UNDECIDED
        block = _rows(tail, live)
        diffs = block[:, 1:] - block[:, :-1]
        mono = ((np.minimum.reduce(diffs, axis=1, initial=0.0) >= 0)
                | (np.maximum.reduce(diffs, axis=1, initial=0.0) <= 0)
                ).nonzero()[0]
        if len(mono):
            half = max(2, window // 2)
            up = _rows(block, mono)
            s_head = _slopes(log_tail[:half], up[:, :half])
            s_tail = (_slopes(log_tail[half:], up[:, half:])
                      if window - half >= 2 else slope[live[mono]])
            hit = [m for m, head, tail_slope, last in zip(
                       mono.tolist(), s_head.tolist(), s_tail.tolist(),
                       up[:, -1].tolist())
                   if _diverges(head, tail_slope, last, tol)]
            if hit:
                code[live[hit]] = _DIVERGENT
                rest = np.ones(len(live), dtype=bool)
                rest[hit] = False
                live, diffs = live[rest], diffs[rest]

    if len(live):
        count = np.count_nonzero(diffs, axis=1)
        alt = count >= 3
        if alt.any():
            alt[alt] = _turns(diffs[alt]) >= \
                ALTERNATION_FRACTION * (count[alt] - 1)
        if alt.any():
            hit = live[alt]
            mid = length // 2
            ref = (vals[hit, max(0, mid - window):mid] if mid >= 4
                   else tail[hit])
            amp_ref = (ref.max(axis=1) - ref.min(axis=1) if ref.shape[1] >= 4
                       else spread[hit])
            steady = (amp_ref <= tol) | (spread[hit] >= OSC_SUSTAIN * amp_ref)
            code[hit] = np.where(steady, _ALTERNATING, _DECAYING)
            live = live[~alt]

    # Slow swings: several direction changes across the trailing double
    # window, swing-dominated rather than drifting, with tail peaks clearly
    # above the mid-trace peaks.  A trace with a limit cannot keep doing this.
    mid = length // 2
    lo, hi = max(0, mid - window // 2), mid + window // 2
    if len(live) and hi <= length - 2 * window and hi - lo >= 4:
        live = live[(spread[live] > CLEAR_MARGIN * tol)
                    & (spread[live] >= np.abs(means[live]))]
        if len(live):
            held = _rows(vals, live)
            span = held[:, -min(2 * window, length):]
            peak_tail = np.abs(span).max(axis=1)
            peak_mid = np.abs(held[:, lo:hi]).max(axis=1)
            swings = (_turns(span[:, 1:] - span[:, :-1]) >= 2) \
                & (peak_tail > CLEAR_MARGIN * tol) \
                & (peak_tail >= SWING_GROWTH * np.fmax(peak_mid, tol))
            code[live[swings]] = _SWINGING

    for r, c, s, sl, mean in zip(rows, code.tolist(), spread.tolist(),
                                 slope.tolist(), means.tolist()):
        kind, note = _OUTCOMES[c]
        out[r] = LimitVerdict(kind, mean if c == _SETTLED else None, s, sl,
                              note)
    return out


def analyze_limit(indices, values, tol: float, window: int) -> LimitVerdict:
    """Limit heuristic on one (possibly non-contiguous) trace; see
    :func:`analyze_limits`."""
    return analyze_limits(indices, np.asarray(values, dtype=float)[None], tol,
                          window)[0]


def detect_limit(v: FiniteVector, tol: float = DEFAULT_TOL,
                 window: Optional[int] = None) -> LimitVerdict:
    """Run limit detection on a FiniteVector.

    Args:
        v: the trace; must be longer than the window.
        tol: spread tolerance for a convergent verdict.
        window: trailing points examined; see :func:`probe_window`.
    """
    check_tol(tol)
    n = len(v)
    window = probe_window(n, window)
    if v.overflow:
        return LimitVerdict(LimitKind.INCONCLUSIVE, None, math.inf, 0.0,
                            note=f"overflow at index {v.overflow_index}")
    return analyze_limit(np.arange(1, n + 1), v.as_floats(), tol, window)


# ---------------------------------------------------------------------------
# Bounded-above analysis (running sup) and membership probes
# ---------------------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def analyze_sups(indices, traces, tol: float, window: int) -> list:
    """Decide whether each row of a stack of traces observed at the same
    positions looks bounded: one (verdict, info) per row.

    Satisfied means the running sup has plateaued over the trailing *half* of
    the index range (a multiplicative span, so slow logarithmic growth is not
    mistaken for a plateau), or the running sup itself reads as convergent.
    Violated means the running sup shows a sustained monotone growth trend.
    The bound is observed at truncation, never proven.
    """
    check_tol(tol)
    idx = np.asarray(indices, dtype=float)
    vals = np.asarray(traces, dtype=float)
    out = [None] * len(vals)
    rows = range(len(vals))
    finite = np.isfinite(vals)
    if not np.logical_and.reduce(finite, axis=None):
        finite = np.logical_and.reduce(finite, axis=1)
        for r in (~finite).nonzero()[0].tolist():
            out[r] = (Verdict.INCONCLUSIVE,
                      {"note": "non-finite values in trace"})
        rows = finite.nonzero()[0]
        vals = vals[rows]
        rows = rows.tolist()
        if not rows:
            return out
    if not (0 < window <= vals.shape[1]):
        raise TruncationError(
            f"window must be in 1..{vals.shape[1]}, got {window}")
    running = np.maximum.accumulate(vals, axis=1)
    half = int(idx.searchsorted(idx[-1] / 2.0, side="right")) - 1
    half = max(0, min(half, vals.shape[1] - 1))
    growths = (running[:, -1] - running[:, half]).tolist()
    sups = running[:, -1].tolist()
    moving = [i for i, (s, g) in enumerate(zip(sups, growths))
              if not g <= tol * max(1.0, abs(s))]
    limits = {}
    if moving:
        limits = dict(zip(moving, analyze_limits(
            idx, _rows(running, moving), tol, window)))
    for i, (r, s, g) in enumerate(zip(rows, sups, growths)):
        info = {"sup_observed": s, "half_span_growth": g,
                "truncation_limited": True}
        lv = limits.get(i)
        if lv is None:
            info["note"] = "running sup plateaued over the trailing half-span"
            out[r] = (Verdict.SATISFIED, info)
        else:
            out[r] = _sup_verdict(lv, info)
    return out


def _sup_verdict(lv: LimitVerdict, info: dict) -> tuple:
    """The verdict on a running sup that has not plateaued, read from its
    limit verdict."""
    info["trend_slope"] = lv.trend_slope
    if lv.kind is LimitKind.CONVERGES:
        info["note"] = "running sup reads as convergent"
        return Verdict.SATISFIED, info
    if lv.kind is LimitKind.DIVERGES and lv.trend_slope > 0:
        info["note"] = "running sup grows with sustained trend"
        return Verdict.VIOLATED, info
    info["note"] = "running sup still moving; cannot decide at this truncation"
    return Verdict.INCONCLUSIVE, info


def analyze_sup(indices, values, tol: float, window: int):
    """Boundedness probe of one trace: (verdict, info); see
    :func:`analyze_sups`."""
    return analyze_sups(indices, np.asarray(values, dtype=float)[None], tol,
                        window)[0]


def null_limit_verdict(lv: LimitVerdict, tol: float) -> Verdict:
    """Three-valued test of "the limit is zero" given a LimitVerdict."""
    if lv.kind is LimitKind.DIVERGES or lv.kind is LimitKind.OSCILLATES:
        return Verdict.VIOLATED
    if lv.kind is LimitKind.INCONCLUSIVE:
        return Verdict.INCONCLUSIVE
    v = abs(lv.value or 0.0)
    if v <= tol:
        return Verdict.SATISFIED
    if v > max(CLEAR_MARGIN * tol,
               CLEAR_MARGIN * (lv.tail_spread + abs(lv.trend_slope))):
        return Verdict.VIOLATED
    return Verdict.INCONCLUSIVE


def limit_exists_verdict(lv: LimitVerdict) -> Verdict:
    if lv.kind is LimitKind.CONVERGES:
        return Verdict.SATISFIED
    if lv.kind in (LimitKind.DIVERGES, LimitKind.OSCILLATES):
        return Verdict.VIOLATED
    return Verdict.INCONCLUSIVE


def classify_traces(traces, tag: str, tol: float, window: int) -> list:
    """Membership probes of a stack of equally long traces in a classical
    space (one of :data:`CLASSICAL_TAGS`): one (verdict, info) per row."""
    tag = tag.lower()
    vals = np.asarray(traces, dtype=float)
    return classify_analyses(analyze_traces(
        np.arange(1, vals.shape[1] + 1), vals, tag, tol, window), tag, tol)


#: The spaces whose probes map from one analysis, the limits of the trace.
LIMIT_TAGS = ("c0", "c")


@np.errstate(over="ignore", invalid="ignore")
def analyze_traces(idx, traces, tag: str, tol: float, window: int) -> list:
    """What the probes in ``tag`` map from, per trace observed at the shared
    1-based positions ``idx``: the limits of the trace (c0, c) or of its
    partial sums (cs), or the sups of their absolute values (linf, bs)."""
    if tag not in CLASSICAL_TAGS:
        raise SpecError(f"unknown classical space tag {tag!r}")
    vals = np.asarray(traces, dtype=float)
    if tag in ("cs", "bs"):
        vals = np.cumsum(vals, axis=1)
    if tag in ("linf", "bs"):
        return analyze_sups(idx, np.abs(vals), tol, window)
    return analyze_limits(idx, vals, tol, window)


def classify_analyses(analyses: list, tag: str, tol: float) -> list:
    """The probes in ``tag`` mapped from :func:`analyze_traces`' analyses:
    one (verdict, info) each, in new dicts, so a held analysis is kept."""
    if tag == "c0":
        return [(null_limit_verdict(lv, tol), {"limit": lv}) for lv in analyses]
    if tag in ("c", "cs"):
        extra = {"probe": "limit of partial sums"} if tag == "cs" else {}
        return [(limit_exists_verdict(lv), {"limit": lv, **extra})
                for lv in analyses]
    extra = {"probe": "running sup of partial sums"} if tag == "bs" else {}
    return [(verdict, {**info, **extra}) for verdict, info in analyses]


def classify_values(values: np.ndarray, tag: str, tol: float, window: int,
                    detail: bool = False):
    """Membership probe of a finite trace in a classical space; see
    :func:`classify_traces`."""
    got = classify_traces(np.asarray(values, dtype=float)[None], tag, tol,
                          window)[0]
    return got if detail else got[0]


# ---------------------------------------------------------------------------
# Space identifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceId:
    """A classical space tag, optionally wrapped by a triangle's domain.

    ``matrix`` is None for the classical spaces; a matrix-domain space carries
    the triangle object itself (its name/params identify it in reports).
    This is the one check of what a space is: a classical tag, and for a
    domain a base of c0, c or linf and a lower-triangular matrix.
    """

    tag: str
    matrix: object = None

    def __post_init__(self):
        if self.tag not in CLASSICAL_TAGS:
            raise SpecError(f"unknown space tag {self.tag!r}")
        if self.matrix is None:
            return
        if self.tag not in ("c0", "c", "linf"):
            raise SpecError(f"matrix domains are built over c0/c/linf, not {self.tag!r}")
        if not getattr(self.matrix, "triangle", False):
            raise SpecError("domain spaces need a lower triangle, got "
                            f"{getattr(self.matrix, 'name', 'matrix')!r}")

    @property
    def is_domain(self) -> bool:
        return self.matrix is not None

    def __str__(self) -> str:
        if self.matrix is None:
            return self.tag
        return f"{self.tag}({getattr(self.matrix, 'name', 'matrix')})"
