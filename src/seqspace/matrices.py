"""Infinite matrices acting on sequences, with lazy exact entries.

The package works with infinite real matrices ``A = (a_nk)`` (rows ``n`` and
columns ``k`` both 1-based).  A matrix here is a rule for entries plus support
hints (where a row/column can be nonzero), so transforms, compositions and
inversions only touch entries that matter.

Built-in families:

* ``identity``, ``zero``
* ``omega`` — running sums weighted by the index, ``a_nk = k`` for ``k <= n``
* ``gamma`` — running sums weighted by the reciprocal index, ``a_nk = 1/k``
* ``omega-inv`` / ``gamma-inv`` — their bidiagonal inverses: bands
  (:class:`Band`, as ``identity`` is), closed under products
* ``sigma`` — the summation triangle, ``a_nk = 1`` for ``k <= n``, whose
  domains of linf and c are bs and cs; ``sigma-inv`` — its bidiagonal
  inverse, the backward differences
* ``cesaro`` — arithmetic means, ``a_nk = 1/n`` for ``k <= n``: the
  weighted mean of unit weights
* ``euler:r`` — binomial means of order ``r`` in (0, 1)
* ``riesz:<weights>`` — weighted means ``t_k / (t_1 + ... + t_n)``
* ``taylor:r`` — the row-infinite upper-triangular geometric means

Running sums and weighted means are one class, ``a_nk = w_k / U_n``
(:class:`WeightedMeans`).  Entries are exact (``int``/``Fraction``) whenever
the defining parameters are rational; float fast paths are available for
large truncations.  A product of bands, or of running sums or a weighted
mean and a bidiagonal (:class:`DualTriangle`), is read from O(n) terms, not
from a table.
"""

from __future__ import annotations

import copy
import math
import sys
from fractions import Fraction
from itertools import accumulate
from typing import Optional

import numpy as np

from . import cache
from .errors import (
    FloatRangeError,
    RowSeriesError,
    SpecError,
    TruncationError,
    ZeroDiagonalError,
)
from .sequences import (
    FiniteVector,
    Scalar,
    Sequence,
    exact_number,
    finite_vector,
    finite_vectors,
    make_sequence,
)

#: Largest truncation kept as a dense cached float array.
DENSE_LIMIT = 2400
#: Columns past the diagonal that ``TaylorTransform.row_cutoff`` searches: a
#: guard, reached only by rows whose certified cutoff lies beyond it.
ROW_CUTOFF_CAP = 200000
#: The mass a row may carry past its certified cutoff: below a float's
#: resolution of the row's total, so a row read to its cutoff is known to
#: float accuracy (``row_complete``).
ROW_TAIL_MASS = 1e-16


def _check_index(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise IndexError(f"matrix indices must be >= 1, got ({n}, {k})")


def _term_floats(values, first: int, what: str) -> list:
    """``float(v)`` for each value, the terms numbered from ``first``; a term
    too large for a float raises :class:`FloatRangeError` naming it as
    ``what`` followed by its number."""
    out = []
    for k, v in enumerate(values, first):
        try:
            out.append(float(v))
        except OverflowError:
            raise FloatRangeError(
                f"{what}{k} is too large for a float") from None
    return out


def _lower(rows: np.ndarray, m: int, values, scale=None) -> np.ndarray:
    """``values``, broadcast over rows ``rows`` and columns 1..m, on and
    below the diagonal (divided there by ``scale`` when given), and +0.0
    above it: ``np.tril`` for any rows.  The mask compares indices in the
    smallest integer type, as ``np.tri`` does: an int64 mask takes four
    times as long."""
    small = np.min_scalar_type(max(m, int(rows[-1])))
    below = np.arange(1, m + 1, dtype=small) <= rows.astype(small)[:, None]
    if scale is None:
        return np.where(below, values, 0.0)
    return np.divide(values, scale, out=np.zeros(below.shape), where=below)


def _put_band(out: np.ndarray, rows: np.ndarray, lag: int, values) -> None:
    """Set column n - lag of each row n of ``out`` (numbered by ``rows``) to
    ``values[n - lag - 1]``, where that column lies inside ``out``.
    Consecutive rows, as in a table, take one strided write, as ``np.eye``
    makes its diagonal."""
    m = out.shape[1]
    lo, hi = np.searchsorted(rows, (lag + 1, m + lag + 1)).tolist()
    cols = rows[lo:hi] - (lag + 1)
    if hi > lo and cols[-1] - cols[0] == hi - 1 - lo:
        c = int(cols[0])
        out.ravel()[lo * m + c:hi * m:m + 1] = values[c:c + hi - lo]
    else:
        out.ravel()[np.arange(lo * m, hi * m, m) + cols] = values[cols]


def _carried_sums(terms: np.ndarray, state) -> tuple:
    """The running sums of ``terms`` along the last axis, in place, after
    the last sum before them (``state``, or None); and their last sum."""
    if state is not None:
        terms[..., :1] += state
    np.cumsum(terms, axis=-1, out=terms)
    return terms, terms[..., -1:].copy()


class InfiniteMatrix:
    """Base class: entry rule + support hints + cached float truncations.

    ``key`` names the matrix in the evaluation cache (:mod:`seqspace.cache`):
    a serial number unless the matrix was resolved from a spec or is a
    product or inverse of keyed factors.

    A class has a fast form exactly when it defines the method (readers ask
    ``hasattr``):

    * ``_apply_carried(xf, lo, state)``: ((Ax)_{lo..}, the state after) on
      terms lo.. of each x stacked in ``xf``, given the state before (None:
      none read), one call's bits for a stack or a carried run; with it,
    * ``_apply_exact(xs)``: exact (Ax)_{1..len(xs)} in linear time;
    * ``_rmul_floats(xf)``: xA for each row x stacked in ``xf``;
    * ``_features_floats(rows, ks, n)``: the features record at n (sums and
      absolute sums of ``rows``, columns ``ks``), read from no rows;
    * ``row_series(n)``: row n out to its certified cutoff.

    A class that knows past which row its column k has settled says so in
    ``column_settles(k)``: the conditions route samples only those columns.
    """

    def __init__(self, name: str, params: Optional[dict] = None,
                 triangle: bool = False):
        self.name = name
        self.params = dict(params or {})
        self.triangle = triangle
        self.key = cache.serial_key(self)

    # -- entry rule -------------------------------------------------------

    def entry(self, n: int, k: int) -> Scalar:
        raise NotImplementedError

    # -- support hints ----------------------------------------------------

    def row_start(self, n: int) -> int:
        return 1

    def row_end(self, n: int) -> Optional[int]:
        """Last column that can be nonzero in row n; None means unbounded.
        Row ends do not decrease with n."""
        return n if self.triangle else None

    def col_start(self, k: int) -> int:
        return k if self.triangle else 1

    def col_end(self, k: int) -> Optional[int]:
        return None

    def row_cutoff(self, n: int) -> Optional[int]:
        """A column past which row n carries at most ``ROW_TAIL_MASS`` of
        its mass: its last nonzero column here, None when unbounded."""
        return self.row_end(n)

    def row_complete(self, n: int, width: int) -> Optional[bool]:
        """Whether row n is known to float accuracy from its first
        ``width`` columns; None when its cutoff is unknown."""
        cut = self.row_cutoff(n)
        return None if cut is None else cut <= width

    def exact_rows(self, rows, m: int):
        """Rows ``rows`` (strictly increasing, 1-based) over columns 1..m,
        each a list of exact entries, 0 off the support: the exact twin of
        :meth:`block`, and the one place an exact row is walked.  Rows are
        yielded one at a time, so a reader of many rows need not hold them
        all.  Here each entry on a row's support is read through
        :meth:`entry`."""
        for n in map(int, rows):
            hi = self.row_end(n)
            hi = m if hi is None else min(hi, m)
            row = [0] * m
            for k in range(self.row_start(n), hi + 1):
                row[k - 1] = self.entry(n, k)
            yield row

    # -- float paths ------------------------------------------------------

    def block(self, rows, m: int) -> np.ndarray:
        """Rows ``rows`` (strictly increasing, 1-based) over columns 1..m as
        a float array: the one float kernel every float read derives from.
        Here the exact rows are converted entry by entry; an entry too
        large for a float raises :class:`FloatRangeError` naming it."""
        out = np.empty((len(rows), m))
        for i, (n, row) in enumerate(zip(rows, self.exact_rows(rows, m))):
            out[i] = _term_floats(row, 1, f"{self.name} entry a_{int(n)},")
        return out

    def truncation_floats(self, size: int) -> np.ndarray:
        """The leading size-by-size window, ``block(1..size, size)``, as a
        cached read-only array."""
        if size < 1:
            raise TruncationError(f"truncation size must be >= 1, got {size}")
        if size > DENSE_LIMIT:
            raise TruncationError(
                f"dense float truncation capped at {DENSE_LIMIT}; "
                f"read windows of size {size} through block(rows, m)")
        def build():
            table = self.block(np.arange(1, size + 1), size)
            table.setflags(write=False)
            return table
        return cache.lookup(("table", self.key, size), build,
                            nbytes=8 * size * size)

    def _blocks(self, rows, m: int, step: int):
        """Rows ``rows`` (strictly increasing, 1-based) over columns 1..m in
        consecutive chunks of at most ``step`` rows, each with its position
        in ``rows``, read without a table: here a block per chunk.  As
        ``_row_chunks``, the one reader of many rows, it serves every matrix
        whose row costs one formula, at every n."""
        rows = np.asarray(rows)
        for lo in range(0, len(rows), step):
            yield lo, self.block(rows[lo:lo + step], m)

    def _row_chunks(self, rows, m: int, step: int):
        # The subclass's own _blocks: one that reads many rows at once
        # (Euler's walk) must not be read a block per chunk.
        return self._blocks(rows, m, step)

    def _table_chunks(self, rows, m: int, step: int):
        """``_row_chunks`` of a matrix whose row costs more than its width (a
        walk or exact entries), or whose rows are read out of order: windows
        of the cached table of 1..s, s = max(last row, m), unless it would be
        a large cache entry (then :meth:`_blocks`)."""
        rows = np.asarray(rows)
        if not len(rows):
            return
        first, last = int(rows[0]), int(rows[-1])
        s = max(last, m)
        if cache.is_large(8 * s * s):
            yield from self._blocks(rows, m, step)
            return
        table = self.truncation_floats(s)
        window = (table[first - 1:last, :m] if last - first == len(rows) - 1
                  else table[rows - 1, :m])
        for lo in range(0, len(window), step):
            yield lo, window[lo:lo + step]

    # -- misc ---------------------------------------------------------------

    def describe(self) -> dict:
        out = {"name": self.name}
        if self.params:
            out["params"] = {key: str(val) for key, val in sorted(self.params.items())}
        return out

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"<{type(self).__name__} {self.name}{'(' + inner + ')' if inner else ''}>"


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------


class ZeroMatrix(InfiniteMatrix):
    def __init__(self):
        super().__init__("zero", triangle=False)

    def entry(self, n, k):
        _check_index(n, k)
        return 0

    def row_end(self, n):
        return 0

    def col_end(self, k):
        return 0

    def block(self, rows, m):
        return np.zeros((len(rows), m))

    def _apply_carried(self, xf, lo, state):
        return np.zeros_like(xf), None

    def _apply_exact(self, xs):
        return [0] * len(xs)


class WeightedMeans(InfiniteMatrix):
    """Lower triangle ``a_nk = w_k / U_n`` for ``k <= n``: running weighted
    sums, U_n = 1 (omega, gamma, sigma), or for a ``mean`` weighted means,
    U_n = w_1 + ... + w_n (Riesz, and Cesaro, the Riesz mean of ones).

    A mean's weights must be positive; it keeps them and their partial sums
    exact, and rounds each once.  Running sums read their weights' floats
    whole, and keep no exact memo.
    """

    def __init__(self, weights: Sequence, name: str, mean: bool = False,
                 params: Optional[dict] = None):
        super().__init__(name, params, triangle=True)
        self.weights, self.mean = weights, mean
        self._t: list = []       # a mean's exact weights, 1-based via offset
        self._T: list = [0]      # its exact partial sums, _T[n] = U_n
        self._wf = self._uf = np.empty(0)   # float w_1.., a mean's U_1..
        self._filled = 0                    # their entries filled

    def _ensure(self, n: int) -> None:
        while len(self._t) < n:
            k = len(self._t) + 1
            tk = self.weights(k)
            if not tk > 0:
                raise SpecError(f"riesz weights must be positive, got t_{k} = {tk}")
            self._t.append(tk)
            self._T.append(self._T[-1] + tk)

    def partial_sum(self, n: int) -> Scalar:
        """U_n of a mean, exactly."""
        self._ensure(n)
        return self._T[n]

    def entry(self, n, k):
        _check_index(n, k)
        if k > n:
            return 0
        w = self.weights(k)
        return _exact_div(w, self.partial_sum(n)) if self.mean else w

    def _floats(self, m: int) -> tuple:
        """(w_1..w_m, U_1..U_m) as floats, U None for running sums, in stores
        that row chunks fill once; a mean reads its exact terms only to m."""
        lo = self._filled
        if lo < m and not self.mean:
            self._wf = self.weights.floats(max(m, 2 * lo))
            self._filled = len(self._wf)
        elif lo < m:
            self._ensure(m)
            if len(self._wf) < m:
                self._wf, self._uf = (np.resize(v, max(m, 2 * len(v)))
                                      for v in (self._wf, self._uf))
            self._wf[lo:m] = _term_floats(self._t[lo:m], lo + 1,
                                          "riesz weight t_")
            self._uf[lo:m] = _term_floats(self._T[lo + 1:m + 1], lo + 1,
                                          "riesz partial sum T_")
            self._filled = m
        return self._wf[:m], self._uf[:m] if self.mean else None

    def block(self, rows, m):
        rows = np.asarray(rows)
        w, u = self._floats(max(int(rows[-1]), m) if self.mean else m)
        return _lower(rows, m, w[:m], None if u is None else u[rows - 1, None])

    def _apply_carried(self, xf, lo, state):
        # The sums are taken in place: on a stack as large as a table, a
        # second temporary costs more than the sums.
        w, u = self._floats(lo - 1 + xf.shape[-1])
        out, state = _carried_sums(w[lo - 1:] * xf, state)
        if u is not None:
            out /= u[lo - 1:]
        return out, state

    def _apply_exact(self, xs):
        sums = accumulate(self.weights(k) * x for k, x in enumerate(xs, 1))
        if not self.mean:
            return list(sums)
        self._ensure(len(xs))
        return [_exact_div(s, self._T[n]) for n, s in enumerate(sums, 1)]


class Band(InfiniteMatrix):
    """Lower band triangle of lags 0..b, ``a_{n,n-l} = diagonals[l](n)``:
    the identity, the bidiagonals (diagonal d, subdiagonal s) and products of
    bands, whose lag l is ``sum_i A_i(n) B_{l-i}(n-i)`` over the ``factors``
    (A, B), with floats added as A's carried form on B's rows adds them, lag
    0 first and zero terms included: the bits of the table read that way."""

    def __init__(self, diagonals, name: str, factors: tuple = ()):
        super().__init__(name, triangle=True)
        self.diagonals, self.factors = list(diagonals), factors
        self.lags = len(self.diagonals) - 1
        self._fl = np.zeros((self.lags + 1, 0))   # _fl[l, n-1] = a_{n,n-l}
        self._filled = 0                          # rows of _fl filled
        self._pairs = [[] for _ in self.diagonals]

    def _floats(self, m: int) -> np.ndarray:
        """The float diagonals over rows 1..m, lag l in row l at n - 1 (zero
        at rows n <= l), from the exact diagonals or the factors' floats, in
        a store grown geometrically: a stream of row chunks fills it once."""
        lo = self._filled
        if lo < m:
            if self._fl.shape[1] < m:
                grown = np.zeros((self.lags + 1, max(m, 2 * self._fl.shape[1])))
                grown[:, :lo] = self._fl[:, :lo]
                self._fl = grown
            out = self._fl[:, lo:m]
            if not self.factors:
                for l, rule in enumerate(self.diagonals):
                    first = max(lo, l) + 1
                    out[l, first - 1 - lo:] = _term_floats(
                        map(rule, range(first, m + 1)), first,
                        f"{self.name} {('diagonal d_', 'subdiagonal s_')[l]}")
            else:
                left, right = self.factors
                fa, fb = left._floats(m), right._floats(m)
                for l in range(self.lags + 1):
                    for i in range(left.lags + 1):
                        start = max(lo, i)    # rows n > i draw on row n - i of B
                        term = fa[i, start:m] * (
                            fb[l - i, start - i:m - i]
                            if 0 <= l - i <= right.lags else 0.0)
                        if i:
                            out[l, start - lo:] += term
                        else:
                            out[l] = term
            self._filled = m
        return self._fl[:, :m]

    def _diagonals_floats(self, m: int) -> tuple:
        """The float diagonals: lag l over columns 1..m - l."""
        return tuple(v[l:] for l, v in enumerate(self._floats(m)))

    def pairs(self, m: int) -> list:
        """The diagonals over rows 1..m (or past) as lists of (numerator,
        denominator) pairs in lowest terms, a float as (value, None), each
        computed once; lag l's list holds (0, 1) at rows 1..l."""
        for n in range(len(self._pairs[0]) + 1, m + 1):
            for l, (rule, got) in enumerate(zip(self.diagonals, self._pairs)):
                got.append(_pair(rule(n)) if n > l else (0, 1))
        return self._pairs

    def entry(self, n, k):
        _check_index(n, k)
        return self.diagonals[n - k](n) if 0 <= n - k <= self.lags else 0

    def row_start(self, n):
        return max(1, n - self.lags)

    def col_end(self, k):
        return k + self.lags

    def block(self, rows, m):
        rows = np.asarray(rows)
        out = np.zeros((len(rows), m))
        for l, v in enumerate(self._diagonals_floats(
                min(int(rows[-1]), m + self.lags))):
            _put_band(out, rows, l, v)
        return out

    def _apply_carried(self, xf, lo, state):
        # Row n is the sum over lags l of a_{n,n-l} x_{n-l}, lag 0 first: the
        # state is the last b terms read (fewer near row 1).
        x = xf if state is None else np.concatenate([state, xf], axis=-1)
        m, held = xf.shape[-1], x.shape[-1] - xf.shape[-1]
        diags = self._diagonals_floats(lo - 1 + m)
        out = diags[0][lo - 1:] * xf
        for l, v in enumerate(diags[1:], 1):
            first = max(l - held, 0)    # the first row whose term l was read
            if first < m:
                out[..., first:] += (v[lo - 1 + first - l:]
                                     * x[..., held + first - l:held + m - l])
        return out, x[..., -self.lags:].copy() if self.lags else None

    def _rmul_floats(self, xf: np.ndarray) -> np.ndarray:
        """(xA)_{1..m} over 1..m for each row x stacked in ``xf`` along its
        last axis, of length m: the sum over lags l of x_{k+l} a_{k+l,k}, lag
        0 first, the row-side counterpart of ``_apply_carried``."""
        diags = self._diagonals_floats(xf.shape[-1])
        out = xf * diags[0]
        for l, v in enumerate(diags[1:], 1):
            out[..., :-l] += xf[..., l:] * v
        return out

    def _apply_exact(self, xs):
        out = []
        for n in range(1, len(xs) + 1):
            terms = [rule(n) * xs[n - 1 - l]
                     for l, rule in enumerate(self.diagonals[:n])]
            out.append(sum(terms[1:], terms[0]))
        return out


class Identity(Band):
    """The band of one lag, all ones: the unit of :func:`compose`."""


def _product_diagonal(left: Band, right: Band, lag: int):
    """Lag ``lag`` of the band ``left @ right``, exactly."""
    def diagonal(n):
        terms = [left.diagonals[i](n) * right.diagonals[lag - i](n - i)
                 for i in range(max(0, lag - right.lags),
                                min(left.lags, lag) + 1)]
        return sum(terms[1:], terms[0])
    return diagonal


def _pair(value) -> tuple:
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    return value, None


class EulerMeans(InfiniteMatrix):
    """Binomial means of order r in (0, 1):
    ``a_nk = C(n-1, k-1) (1-r)^(n-k) r^(k-1)`` for ``k <= n`` (rows sum to 1).
    Float rows are one walk of ``a_{n+1,k} = (1-r) a_nk + r a_{n,k-1}`` from
    row 1 = [1]: + and x of positive terms, with the same bits on every CPU.
    """
    _row_chunks = InfiniteMatrix._table_chunks     # a row is a walk

    def __init__(self, r):
        r = exact_number(r)
        if not (0 < r < 1):
            raise SpecError(f"euler parameter must lie in (0, 1), got {r}")
        super().__init__("euler", params={"r": r}, triangle=True)
        self.r = r

    def entry(self, n, k):
        _check_index(n, k)
        if k > n:
            return 0
        r = self.r
        return math.comb(n - 1, k - 1) * (1 - r) ** (n - k) * r ** (k - 1)

    def column_settles(self, k: int) -> float:
        """A row past which column k has settled: column k is binomial in n,
        peaks near row (k - 1)/r and spreads sqrt((k - 1)(1 - r))/r rows, so
        eight spreads past the peak its tail is negligible (a tail bound of
        the binomial; Hardy 1949, ch. 8; Boos 2000)."""
        r = float(self.r)
        return (k - 1) / r + 8 * math.sqrt((k - 1) * (1 - r)) / r

    def block(self, rows, m):
        (_, out), = self._blocks(np.asarray(rows), m, len(rows))
        return out

    def _blocks(self, rows, m, step):
        # One walk over columns 1..m (no column past m feeds one up to m)
        # serves every chunk.  walk[k] = a_nk is 0 at k = 0 and outside
        # lo..hi, so row n + 1 is taken over columns lo..hi + 1 only.
        q, r = float(1 - self.r), float(self.r)
        walk, lagged = np.zeros(m + 1), np.empty(m + 1)
        walk[1], n, lo, hi = 1.0, 1, 1, 1
        for at in range(0, len(rows), step):
            chunk = rows[at:at + step].tolist()
            out = np.zeros((len(chunk), m))
            for i, target in enumerate(chunk):
                while n < target:
                    top = hi + 1 if hi < m else m
                    band, lag = walk[lo:top + 1], lagged[lo:top + 1]
                    np.multiply(walk[lo - 1:top], r, out=lag)
                    np.multiply(band, q, out=band)
                    np.add(band, lag, out=band)
                    n += 1
                    hi = top if walk[top] else hi
                    while lo <= hi and not walk[lo]:
                        lo += 1
                out[i, lo - 1:hi] = walk[lo:hi + 1]
            yield at, out


class TaylorTransform(InfiniteMatrix):
    """Row-infinite upper triangle:
    ``a_nk = C(k-1, n-1) (1-r)^n r^(k-n)`` for ``k >= n``, with r in (0, 1).

    Each row is a probability mass over ``k >= n`` (rows sum to 1), so row
    evaluations use a mass-based cutoff.
    """

    def __init__(self, r):
        r = exact_number(r)
        if not (0 < r < 1):
            raise SpecError(f"taylor parameter must lie in (0, 1), got {r}")
        super().__init__("taylor", params={"r": r}, triangle=False)
        self.r = r

    def entry(self, n, k):
        _check_index(n, k)
        if k < n:
            return 0
        r = self.r
        return math.comb(k - 1, n - 1) * (1 - r) ** n * r ** (k - n)

    def row_start(self, n):
        return n

    def col_end(self, k):
        return k

    def row_lead(self, n: int) -> float:
        """Row n's float at its first column k = n: ``(1 - r)**n``."""
        return (1 - float(self.r)) ** n

    def row_cutoff(self, n: int) -> int:
        """The certified cutoff K of row n: the first column past the
        row's mode where the mass beyond K is at most ``ROW_TAIL_MASS``, or
        ``n + ROW_CUTOFF_CAP`` when no column up to that one is certified.

        Past the mode the term ratio ``rho_j = r j / (j - n + 1)`` is below
        one and falls toward r, so the mass beyond K is at most
        ``a_{n,K} rho_K / (1 - rho_K) = a_{n,K} r K / (K (1 - r) - (n - 1))``.
        The bound is evaluated in log space, so it holds whether or not
        ``(1 - r)**n`` is a representable float.
        """
        cap = n + ROW_CUTOFF_CAP
        # The first column with rho < 1, from the exact parameter.
        k = max(n, math.floor((n - 1) / (1 - self.r)) + 1)
        if k >= cap:
            return cap
        r = float(self.r)
        log_r = math.log(r)
        log_a = (math.lgamma(k) - math.lgamma(n) - math.lgamma(k - n + 1)
                 + n * math.log1p(-r) + (k - n) * log_r)    # log a_{n,k}
        goal = math.log(ROW_TAIL_MASS)
        chunk = 1024
        while k <= cap:
            j = np.arange(k, k + min(chunk, cap - k + 1), dtype=float)
            log_rho = log_r + np.log(j) - np.log(j - (n - 1))
            logs = np.concatenate(([log_a], log_rho[:-1]))
            np.add.accumulate(logs, out=logs)               # log a_{n,j}
            with np.errstate(invalid="ignore", divide="ignore"):
                bound = logs + log_r + np.log(j) - np.log(j * (1 - r) - (n - 1))
            hit = np.flatnonzero(bound <= goal)
            if hit.size:
                return k + int(hit[0])
            log_a = logs[-1] + log_rho[-1]
            k += len(j)
            chunk *= 2
        return cap

    def row_series(self, n: int) -> tuple[int, np.ndarray]:
        """Row n out to its certified cutoff: ``(K, entries)``, with K from
        :meth:`row_cutoff` and ``entries`` the row's floats at columns
        n..K.  When the leading float ``(1 - r)**n`` is normal they are
        ``block([n], K)[0, n - 1:]``.  Otherwise the recurrence from it
        would lose the row (from a lead of 0.0 every entry is 0.0), so the
        entries are taken in log space: ``n log(1 - r)`` plus the running
        sum of ``log(r j / (j - n + 1))``, exponentiated."""
        top = self.row_cutoff(n)
        if self.row_lead(n) >= sys.float_info.min:
            # A copy, so that the cache holds and charges columns n..K only.
            return top, self.block([n], top)[0, n - 1:].copy()
        r = float(self.r)
        j = np.arange(n, top, dtype=float)
        logs = np.concatenate(([n * math.log1p(-r)],
                               math.log(r) + np.log(j) - np.log(j - (n - 1))))
        return top, np.exp(np.add.accumulate(logs))

    def row_complete(self, n: int, width: int) -> bool:
        """Row n is known to float accuracy from its first ``width``
        columns: its certified cutoff fits and its leading float is normal,
        so the recurrence from it loses no precision."""
        return (self.row_cutoff(n) <= width
                and self.row_lead(n) >= sys.float_info.min)

    def block(self, rows, m):
        # Row n from its lead (1 - r)**n by the recurrence
        # a_{n,j+1} = a_{n,j} * (r j / (j - n + 1)), multiplied in place in
        # the recurrence's order past the diagonal.
        r = float(self.r)
        rj = r * np.arange(m, dtype=float)
        steps = np.arange(1, m, dtype=float)
        out = np.zeros((len(rows), m))
        for i, n in enumerate(np.asarray(rows).tolist()):
            if n <= m:
                row = out[i, n - 1:]
                row[0] = (1 - r) ** n    # row_lead(n)
                np.divide(rj[n:], steps[:m - n], out=row[1:])
                np.multiply.accumulate(row, out=row)
        return out


# ---------------------------------------------------------------------------
# Wrappers: composition, inversion
# ---------------------------------------------------------------------------


class ComposedMatrix(InfiniteMatrix):
    """Lazy product (AB)_nk = sum_j a_nj b_jk using support hints, read by
    one ``rule`` named from the factors' forms: ``"carried"`` (the left
    factor's carried form on the right's rows; for a triangle, its exact
    form on the right's exact columns), ``"band-right"`` (a band's row-side
    form on the left's rows, b columns wider) or ``"matmul"``.  The inner
    index runs over 1..s, s = max(last row, m): exact for triangles.  Exact
    rows of any other product read the right factor's rows 1..s and each
    left row once and sum a_nj b_jk in order of j, zero terms skipped; an
    entry is read from its row.  Many rows stream by the rule, chunk by
    chunk, with the bits of a table read whole."""

    def __init__(self, left: InfiniteMatrix, right: InfiniteMatrix):
        super().__init__(f"{left.name}*{right.name}",
                         triangle=left.triangle and right.triangle)
        self.left = left
        self.right = right
        self.key = ("compose", left.key, right.key)
        self.rule = ("carried" if hasattr(left, "_apply_carried") else "band-right"
                     if hasattr(right, "_rmul_floats") else "matmul")

    def entry(self, n, k):
        _check_index(n, k)
        return next(self.exact_rows([n], k))[k - 1]

    @property
    def _row_chunks(self):
        # sigma*A, the target transfer of bs and cs, is read out of order:
        # Schur's form of (linf : cs) reads its last row first, then every
        # row (conditions._Engine.row_trace).  So its first reader builds
        # its table, which serves the rest.
        return self._table_chunks if self.left.key == "sigma" else self._blocks

    def row_end(self, n):
        # Row n of the product reaches as far as the right factor's rows
        # 1..le reach, le the left factor's last column; row ends do not
        # decrease, so the right factor's row le decides.
        if self.triangle:
            return n
        le = self.left.row_end(n)
        if le is None:
            return None
        if le < self.left.row_start(n):
            return 0
        return self.right.row_end(le)

    # Row n of the product draws on the right factor's rows up to the left
    # factor's last column.  Right factors with cutoffs (Taylor's) have
    # cutoffs that do not decrease with the row, so the last one decides.
    # A row-infinite left factor times a band of lags 0..b has column k made
    # of the left row's columns k..k + b: its row is known from b columns
    # more than the left factor's.

    def row_cutoff(self, n):
        last = self.left.row_end(n)
        if last is not None:
            return self.right.row_cutoff(last)
        if self.rule == "band-right":
            cut = self.left.row_cutoff(n)
            return None if cut is None else cut + self.right.lags
        return None

    def row_complete(self, n, width):
        last = self.left.row_end(n)
        if last is not None:
            return self.right.row_complete(last, width)
        if self.rule == "band-right":
            return self.left.row_complete(n, width - self.right.lags)
        return None

    def exact_rows(self, rows, m):
        rows, left, right = [int(n) for n in rows], self.left, self.right
        if self.rule == "carried" and self.triangle and rows:
            w = min(m, rows[-1])
            cols = [left._apply_exact(list(col))
                    for col in zip(*right.exact_rows(range(1, rows[-1] + 1), w))]
            for n in rows:
                yield [col[n - 1] for col in cols[:n]] + [0] * (m - min(n, w))
            return
        ends = [left.row_end(n) for n in rows]      # each row's last j
        if None in ends:    # a row-infinite left row ends as its columns do
            col_ends = [right.col_end(k) for k in range(1, m + 1)]
            if None in col_ends:
                raise RowSeriesError(
                    f"cannot compose {left.name} and {right.name}: the inner "
                    f"sum at ({rows[ends.index(None)]}, "
                    f"{col_ends.index(None) + 1}) has unbounded support")
            ends = [max(col_ends, default=0) if s is None else s for s in ends]
        top = max(ends, default=0)
        below = [[(k, b) for k, b in enumerate(row) if b != 0]
                 for row in right.exact_rows(range(1, top + 1), m)]
        for n, s in zip(rows, ends):
            out = [0] * m
            for a, terms in zip(next(left.exact_rows([n], s)), below):
                if a != 0:
                    for k, b in terms:
                        out[k] += a * b
            yield out

    def block(self, rows, m):
        # A table up to DENSE_LIMIT is one chunk.
        parts = [t for _, t in self._blocks(
            np.asarray(rows), m, max(1, DENSE_LIMIT * DENSE_LIMIT // m))]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _blocks(self, rows, m, step):
        if not len(rows):
            return
        if self.rule == "carried":
            yield from self._carried(rows, m, step)
            return
        s = max(int(rows[-1]), m)
        if self.rule == "band-right":
            # A triangle's columns past s are zero; a table is C-contiguous.
            wide = m + self.right.lags
            for lo, t in self.left._row_chunks(
                    rows, min(wide, s) if self.left.triangle else wide, step):
                yield lo, np.ascontiguousarray(
                    self.right._rmul_floats(t)[:, :m])
            return
        for lo, t in self.left._row_chunks(rows, s, step):
            yield lo, sum(t[:, j:j + len(r)] @ r for j, r in
                          self.right._row_chunks(np.arange(1, s + 1), m, step))

    def _carried(self, rows, m, step):
        """Rows ``rows`` of L*R over 1..m in chunks of ``step`` rows: L's form
        on chunks of R's rows from L's nondecreasing ``row_start`` on, its
        state carried between chunks, and the rows asked for regrouped (a
        whole chunk's worth of R's rows is passed on uncopied)."""
        ns, start = rows.tolist(), self.left.row_start
        gaps = np.flatnonzero(rows[1:] > rows[:-1] + 1) + 1
        cuts = [i for i in gaps.tolist() if start(ns[i]) > ns[i - 1] + 1]
        held, at = np.empty((0, m)), 0      # rows not yet yielded, their place
        for b, e in zip([0] + cuts, cuts + [len(ns)]):
            run, first, state = rows[b:e], start(ns[b]), None
            for lo, part in self.right._row_chunks(
                    np.arange(first, ns[e - 1] + 1), m, step):
                top = first + lo
                got, state = self.left._apply_carried(part.T, top, state)
                i, j = np.searchsorted(run, (top, top + len(part))).tolist()
                got = got.T if j - i == len(part) else got.T[run[i:j] - top]
                held = np.concatenate([held, got]) if len(held) else got
                while len(held) >= step:
                    yield at, np.ascontiguousarray(held[:step])
                    held, at = held[step:], at + step
        if len(held):
            yield at, np.ascontiguousarray(held)


def _times(x, pair):
    """``x`` times a term given as (numerator, denominator), or (value, None)
    for a float, exactly: ``x / k`` for the pair (1, k)."""
    num, den = pair
    return x * num if den is None or den == 1 else _exact_div(x * num, den)


def _float_times(num, den, pair) -> float:
    """``num / den`` times a term given as ``pair``, ``den`` None for a
    float: one correctly rounded division when all four are integers."""
    wn, wd = pair
    if den is not None and wd is not None:
        return (num * wn) / (den * wd)
    x = num if den is None else num / den
    return float(x * wn if wd is None else x * wn / wd)


class DualTriangle(InfiniteMatrix):
    """Running sums weighted by ``a`` times the bidiagonal ``inverse``:
    ``u_nk = a_k d_k + a_{k+1} s_{k+1}`` (k < n), ``u_nn = a_n d_n``, the
    Abel-summation triangle of ``a`` over a domain with that inverse
    (:mod:`seqspace.duality`).  Its floats come from the terms
    ``p_k = a_k d_k`` and ``q_k = a_k s_k``, each rounded once; where
    ``s_k = -d_k`` (omega, gamma, sigma) ``q_k`` is ``-p_k``, exact in floats.
    With a ``mean`` of weights ``a`` it is that weighted mean times the
    bidiagonal: row n is divided by the mean's U_n, and each float entry,
    row sum and absolute row sum is the unscaled one divided by float U_n,
    read before the terms, so that the mean's refusals come first.

    No table of it is read: its features come from the O(n) terms and its
    rows in blocks.  When ``a`` has a support hint w, the terms past w are
    not evaluated: p is +0.0 and q is -0.0 there, so every entry past column
    w is +0.0, as the exact zeros would give.  A triangle has a serial cache
    key, so its features and traces leave the evaluation cache with it,
    unless its maker gives it a stable key, as row pairing and
    :func:`compose` do.
    """

    def __init__(self, a: Sequence, inverse: Band,
                 mean: Optional[WeightedMeans] = None):
        if not (isinstance(inverse, Band) and inverse.lags == 1):
            raise SpecError("dual descriptions need a domain with a "
                            f"bidiagonal inverse; {inverse.name!r} is not")
        domain = inverse.name.removesuffix("-inv")
        super().__init__(f"dual[{domain}]({a.label})", triangle=True)
        self.a = a
        self.inverse = inverse
        self.mean = mean
        self._p = np.empty(0)    # _p[k-1] = a_k d_k
        self._q = np.empty(0)    # _q[k-1] = a_k s_k

    def entry(self, n, k):
        _check_index(n, k)
        if k > n:
            return 0
        d, s = self.inverse.pairs(k + 1)
        term = _times(self.a(k), d[k - 1])
        if k < n:
            term = term + _times(self.a(k + 1), s[k])
        return term if self.mean is None else _exact_div(
            term, self.mean.partial_sum(n))

    def _terms(self, m: int) -> tuple:
        """(p_1..p_m, q_1..q_m) as floats.  Past the support of ``a`` p is
        +0.0 and q is -0.0, so that p_k + q_{k+1} is p_k bit for bit."""
        if len(self._p) < m:
            lo = len(self._p)
            hint = self.a.support_hint
            hi = m if hint is None else max(lo, min(m, hint))
            d, s = self.inverse.pairs(hi)
            p, q, k = [], [], lo
            try:
                for k, (num, den) in enumerate(self._term_parts(lo + 1, hi), lo):
                    pk = _float_times(num, den, d[k])
                    p.append(pk)
                    q.append(-pk if s[k] == (-d[k][0], d[k][1])
                             else _float_times(num, den, s[k]))
            except OverflowError:
                raise FloatRangeError(
                    f"{self.name}: scaled term {k + 1} is too large for a float"
                ) from None
            self._p = np.concatenate([self._p, p, np.zeros(m - hi)])
            self._q = np.concatenate([self._q, q, np.full(m - hi, -0.0)])
        return self._p[:m], self._q[:m]

    def _term_parts(self, lo: int, hi: int):
        """``a_lo .. a_hi``, each as (numerator, denominator) in lowest terms
        when rational and as (value, None) when a float.  The terms of a
        geometric ``a`` are running products of the ratio's numerator and
        denominator, which stay coprime."""
        r = self.a.ratio
        if r is not None:
            p, q = r.numerator, r.denominator
            num, den = p ** (lo - 1), q ** (lo - 1)
            for _ in range(lo, hi + 1):
                num, den = num * p, den * q
                yield num, den
            return
        yield from map(_pair, map(self.a, range(lo, hi + 1)))

    def block(self, rows, m):
        rows, mean = np.asarray(rows), self.mean
        u = None if mean is None else mean._floats(int(rows[-1]))[1]
        p, q = self._terms(m + 1)
        out = _lower(rows, m, p[:m] + q[1:m + 1])
        _put_band(out, rows, 0, p)
        if u is not None:
            out /= u[rows - 1, None]
        return out

    def _features_floats(self, rows, ks, n):
        # Column k is p_k on the diagonal and v_k = p_k + q_{k+1} below it.
        # By Abel summation at y = (1, 1, ...), row m sums to the running sum
        # of p_k + q_k, k <= m (q_1 = 0); its absolute sum is that of |v_k|,
        # k < m, plus |p_m|.  A mean's row m is then divided by U_m.
        u = None if self.mean is None else self.mean._floats(n)[1]
        p, q = self._terms(n + 1)
        v = p[:n] + q[1:]
        out = np.empty((2 + len(ks), n))
        out[0, :len(rows)] = np.cumsum(p[:n] + q[:n])[rows - 1]
        absolute = np.abs(p[:n])
        absolute[1:] += np.cumsum(np.abs(v[:-1]))
        out[1, :len(rows)] = absolute[rows - 1]
        for column, k in zip(out[2:], ks.tolist()):
            column[:k - 1], column[k - 1], column[k:] = 0.0, p[k - 1], v[k - 1]
        if u is not None:
            out[:2, :len(rows)] /= u[rows - 1]
            out[2:] /= u
        return out


def compose(left, right) -> InfiniteMatrix:
    """The matrix product ``left @ right`` as a lazy matrix: one object per
    pair of factor keys and product name while the evaluation cache holds it.
    A product with ``identity`` or ``zero`` on the left, or on the right of a
    factor with a carried form, reads bit for bit as its other factor or zero,
    and a factor times its inverse (a closed-form pair, or an inverse keyed
    by the factor) in either order as the identity: it is that matrix under
    the product's name, without params and with its key, so it shares its
    tables, features and reports.  A product of bands is a :class:`Band`,
    and running sums or a weighted mean times a bidiagonal is the
    :class:`DualTriangle` of their weights, each under the product's name
    and key; any other product is a :class:`ComposedMatrix`."""
    left, right = matrix_from_spec(left), matrix_from_spec(right)
    name, key = f"{left.name}*{right.name}", ("compose", left.key, right.key)

    def build():
        units = (Identity, ZeroMatrix)
        if isinstance(left, units) or isinstance(right, units) and \
                hasattr(left, "_apply_carried"):
            unit, other = ((left, right) if isinstance(left, units)
                           else (right, left))
            made = copy.copy(other if isinstance(unit, Identity) else unit)
        elif right.key in (_INVERSE_KEYS.get(left.key), ("inverse", left.key)) \
                or left.key == ("inverse", right.key):
            made = copy.copy(matrix_from_spec("identity"))
        elif isinstance(left, Band) and isinstance(right, Band):
            made = Band([_product_diagonal(left, right, lag) for lag in
                         range(left.lags + right.lags + 1)], name, (left, right))
            made.key = key
        elif (isinstance(left, WeightedMeans) and isinstance(right, Band)
              and right.lags == 1):
            made = DualTriangle(left.weights, right, left if left.mean else None)
            made.key = key
        else:
            return ComposedMatrix(left, right)
        made.name, made.params = name, {}
        return made
    return cache.lookup(("matrix", key, name), build)


class InverseTriangle(InfiniteMatrix):
    """Inverse of a lower triangle via forward substitution, memoized by column."""
    _row_chunks = InfiniteMatrix._table_chunks     # a row is exact entries

    def __init__(self, base: InfiniteMatrix):
        if not base.triangle:
            raise SpecError(f"matrix {base.name!r} is not a lower triangle; "
                            "only triangles are inverted here")
        super().__init__(f"{base.name}-inverse", triangle=True)
        self.base = base
        self.key = ("inverse", base.key)
        self._cols: dict[int, list] = {}

    def _column(self, k: int, n: int) -> list:
        """Entries b_{k,k} .. b_{n,k} of column k (list index i -> row k+i)."""
        col = self._cols.setdefault(k, [])
        while len(col) < n - k + 1:
            m = k + len(col)            # next row to fill
            diag = self.base.entry(m, m)
            if diag == 0:
                raise ZeroDiagonalError(m)
            total = 0
            for j in range(max(self.base.row_start(m), k), m):
                a = self.base.entry(m, j)
                if a != 0:
                    total += a * col[j - k]
            col.append(_exact_div(-total, diag) if m > k else _exact_div(1, diag))
        return col

    def entry(self, n, k):
        _check_index(n, k)
        if k > n:
            return 0
        return self._column(k, n)[n - k]


def _exact_div(num, den):
    if isinstance(num, (int, Fraction)) and isinstance(den, (int, Fraction)):
        return Fraction(num, den) if isinstance(num, int) and isinstance(den, int) \
            else Fraction(num) / Fraction(den)
    return num / den


def invert_triangle(a) -> InfiniteMatrix:
    """Inverse of a lower triangle (forward substitution, lazily memoized)."""
    return InverseTriangle(matrix_from_spec(a))


# ---------------------------------------------------------------------------
# Builtin registry, known inverse pairs, spec parsing
# ---------------------------------------------------------------------------


def omega_matrix() -> WeightedMeans:
    return WeightedMeans(Sequence(lambda k: k, label="index",
                                  vector=lambda m: np.arange(1.0, m + 1)),
                         "omega")


def gamma_matrix() -> WeightedMeans:
    return WeightedMeans(Sequence(lambda k: Fraction(1, k), label="1/index",
                                  vector=lambda m: 1.0 / np.arange(1.0, m + 1)),
                         "gamma")


def identity_matrix() -> Identity:
    return Identity([lambda n: 1], "identity")


def omega_inverse_matrix() -> Band:
    return Band([lambda n: Fraction(1, n), lambda n: Fraction(-1, n)],
                "omega-inv")


def gamma_inverse_matrix() -> Band:
    return Band([lambda n: n, lambda n: -n], "gamma-inv")


#: The unit weights: sigma's running sums, and the Cesaro means' mean.
_ONES = Sequence(lambda k: 1, label="ones", vector=np.ones)


def sigma_matrix() -> WeightedMeans:
    return WeightedMeans(_ONES, "sigma")


def cesaro_matrix() -> WeightedMeans:
    return WeightedMeans(_ONES, "cesaro", mean=True)


def riesz_matrix(weights: Sequence) -> WeightedMeans:
    return WeightedMeans(weights, "riesz", True, {"weights": weights.label})


def sigma_inverse_matrix() -> Band:
    return Band([lambda n: 1, lambda n: -1], "sigma-inv")


def cesaro_inverse_matrix() -> Band:
    return Band([lambda n: n, lambda n: -(n - 1)], "cesaro-inv")


_PARAMETERLESS = {
    "identity": identity_matrix,
    "zero": ZeroMatrix,
    "omega": omega_matrix,
    "gamma": gamma_matrix,
    "omega-inv": omega_inverse_matrix,
    "gamma-inv": gamma_inverse_matrix,
    "sigma": sigma_matrix,
    "sigma-inv": sigma_inverse_matrix,
    "cesaro": cesaro_matrix,
    "cesaro-inv": cesaro_inverse_matrix,
}

def _spec_matrix(key: str, make) -> InfiniteMatrix:
    """The matrix with canonical spec ``key``, shared through the cache."""
    def build():
        made = make()
        made.key = key
        return made
    return cache.lookup(("matrix", key), build)


def _parametrized(kind: str, value) -> InfiniteMatrix:
    r = exact_number(value)
    family = EulerMeans if kind == "euler" else TaylorTransform
    return _spec_matrix(f"{kind}:{r}", lambda: family(r))


def matrix_from_spec(spec) -> InfiniteMatrix:
    """Resolve a matrix spec: an instance, a name string, or a dict.

    String forms: ``"omega"``, ``"gamma"``, ``"omega-inv"``, ``"gamma-inv"``,
    ``"sigma"``, ``"sigma-inv"``, ``"identity"``, ``"zero"``, ``"cesaro"``,
    ``"euler:0.5"``, ``"taylor:0.5"``, ``"riesz:<sequence shorthand>"`` (e.g.
    ``riesz:const:1``).
    Dict forms use ``{"kind": name, ...params}``.  Every form but a dict
    ``riesz`` with non-string weights gets a canonical key (``"euler:0.5"``,
    ``"euler:1/2"`` and ``{"kind": "euler", "r": "1/2"}`` all give
    ``"euler:1/2"``), and lookups share one matrix per key while the
    evaluation cache holds it.
    """
    if isinstance(spec, InfiniteMatrix):
        return spec
    if isinstance(spec, str):
        head, _, rest = spec.strip().lower().replace("_", "-").partition(":")
        if head in _PARAMETERLESS:
            if rest:
                raise SpecError(f"matrix {head!r} takes no parameter")
            return _spec_matrix(head, _PARAMETERLESS[head])
        if head in ("euler", "taylor"):
            return _parametrized(head, rest or "1/2")
        if head == "riesz":
            weights = rest or "const:1"
            return _spec_matrix(f"riesz:{weights}",
                                lambda: riesz_matrix(make_sequence(weights)))
        raise SpecError(f"unknown matrix {spec!r}")
    if isinstance(spec, dict):
        kind = str(spec.get("kind", "")).strip().lower().replace("_", "-")
        if kind in _PARAMETERLESS:
            return matrix_from_spec(kind)
        if kind in ("euler", "taylor"):
            return _parametrized(kind, spec.get("r", "1/2"))
        if kind == "riesz":
            weights = spec.get("weights", "const:1")
            if isinstance(weights, str):
                return matrix_from_spec(f"riesz:{weights}")
            return riesz_matrix(make_sequence(weights))
        raise SpecError(f"unknown matrix kind {spec.get('kind')!r}")
    raise SpecError(f"cannot build a matrix from {type(spec).__name__}")


#: The closed-form inverse pairs by key, each written once, read both ways.
_INVERSE_PAIRS = (("omega", "omega-inv"), ("gamma", "gamma-inv"),
                  ("sigma", "sigma-inv"), ("cesaro", "cesaro-inv"),
                  ("identity", "identity"))
_INVERSE_KEYS = {**dict(_INVERSE_PAIRS), **{b: a for a, b in _INVERSE_PAIRS}}


def inverse_of(a) -> InfiniteMatrix:
    """Inverse of a triangle, using the closed-form partner when one is known.

    The closed-form pairs (omega/omega-inv, gamma/gamma-inv, sigma/sigma-inv,
    cesaro/cesaro-inv, identity), found by key in either direction, and the
    Riesz means resolve to explicit bidiagonal or weighted-sum matrices;
    anything else falls back to :func:`invert_triangle`.
    """
    a = matrix_from_spec(a)
    partner = _INVERSE_KEYS.get(a.key)
    if partner is not None:
        return matrix_from_spec(partner)
    if isinstance(a, WeightedMeans) and a.mean:
        inv = Band([lambda n: _exact_div(a.partial_sum(n), a.weights(n)),
                    lambda n: _exact_div(-a.partial_sum(n - 1), a.weights(n))],
                   f"{a.name}-inverse")
        inv.key = ("inverse", a.key)
        return inv
    return invert_triangle(a)


# ---------------------------------------------------------------------------
# Transforms and truncations
# ---------------------------------------------------------------------------


def apply(a, x, n: int, mode: str = "exact") -> FiniteVector:
    """First ``n`` coordinates of the transform ``Ax``.

    ``mode="exact"`` keeps rational arithmetic and requires row-finite support
    (any triangle qualifies); without a linear-time form, the rows of
    ``exact_rows`` are read up to x's support hint.  ``mode="float"`` is
    ``apply_many(a, [x], n)[0]``."""
    a = matrix_from_spec(a)
    x = make_sequence(x)
    if n < 1:
        raise TruncationError(f"transform length must be >= 1, got {n}")
    if mode not in ("exact", "float"):
        raise SpecError(f"unknown mode {mode!r}")
    if mode == "float":
        return apply_many(a, [x], n)[0]
    if a.row_end(n) is None:
        raise RowSeriesError(
            f"matrix {a.name!r} has rows with unbounded support; "
            "exact transforms are undefined at a finite cutoff — use float mode")
    xs = [x(k) for k in range(1, n + 1)]
    if hasattr(a, "_apply_exact"):
        out = a._apply_exact(xs)
    else:
        hint = x.support_hint
        m = a.row_end(n) if hint is None else min(a.row_end(n), hint)
        xs += [x(k) for k in range(n + 1, m + 1)]
        out = [row_dot(row, xs) for row in a.exact_rows(range(1, n + 1), m)]
    return finite_vector(out, origin=f"{a.name}({x.label})")


def row_dot(row: list, xs: list) -> Scalar:
    """``sum_k row[k] xs[k]`` over the nonzero entries of an exact row."""
    total = 0
    for coeff, v in zip(row, xs):
        if coeff != 0:
            total += coeff * v
    return total


def apply_many(a, xs: list, n: int) -> list:
    """The float transforms ``(Ax)_{1..n}`` of the sequences ``xs`` (any
    spec :func:`make_sequence` accepts), one FiniteVector each with origin
    ``"a(x)"``, checked for overflow together.  A stacked image has the
    bits it has alone:

    * a vectorized form (``_apply_carried``) takes the whole stack at once;
    * any other row-finite matrix multiplies each x by its rows, read in
      chunks of at most a ``DENSE_LIMIT``-square table
      (``InfiniteMatrix._row_chunks``), each read once per stack: a product
      of the rows with the whole stack could round differently;
    * a row-infinite matrix extends each row to its certified cutoff
      (``row_series``), past which the row's mass is at most
      ``ROW_TAIL_MASS``: each row series is built once per stack, with one
      dot per row and image.

    Overflow is flagged in the vectors, so the arithmetic runs without
    numpy's overflow and invalid-value warnings.
    """
    a = matrix_from_spec(a)
    if n < 1:
        raise TruncationError(f"transform length must be >= 1, got {n}")
    xs = [make_sequence(x) for x in xs]
    if not xs:
        return []
    with np.errstate(over="ignore", invalid="ignore"):
        if a.row_end(n) is None:
            series = getattr(a, "row_series", None)
            if series is None:
                raise RowSeriesError(
                    f"matrix {a.name!r} has rows with unbounded support and "
                    "no row series: only row_series rows (taylor) can be "
                    "extended to their cutoff; cannot transform")
            top = a.row_cutoff(n)
            xfs = [x.floats(top) for x in xs]
            out = np.empty((len(xs), n))
            for row in range(1, n + 1):
                hi, entries = series(row)       # columns row..hi
                coeffs = np.zeros(hi)
                coeffs[row - 1:] = entries
                m = min(hi, top)
                for i, xf in enumerate(xfs):
                    out[i, row - 1] = coeffs[:m] @ xf[:m]
        else:
            stack = np.array([x.floats(n) for x in xs])
            if hasattr(a, "_apply_carried"):
                out = a._apply_carried(stack, 1, None)[0]
            else:
                out = np.empty_like(stack)
                step = max(1, DENSE_LIMIT * DENSE_LIMIT // n)
                for lo, rows in a._row_chunks(np.arange(1, n + 1), n, step):
                    for image, xf in zip(out, stack):
                        image[lo:lo + len(rows)] = rows @ xf
    return finite_vectors(out, [f"{a.name}({x.label})" for x in xs])


def truncate_matrix(a, size: int, mode: str = "exact"):
    """Leading ``size``-by-``size`` window.

    ``mode="exact"`` returns nested lists of exact scalars, ``exact_rows``;
    ``mode="float"`` returns a (read-only, cached) numpy array."""
    a = matrix_from_spec(a)
    if size < 1:
        raise TruncationError(f"truncation size must be >= 1, got {size}")
    if mode == "float":
        return a.truncation_floats(size)
    if mode != "exact":
        raise SpecError(f"unknown mode {mode!r}")
    return list(a.exact_rows(range(1, size + 1), size))
