from fractions import Fraction

import numpy as np

from seqspace.matrices import InfiniteMatrix, _check_index


class RuleMatrix(InfiniteMatrix):
    """Matrix from an explicit entry rule with declared support hints;
    the row ends of ``row_span`` must not decrease."""
    _row_chunks = InfiniteMatrix._table_chunks     # a row is exact entries

    def __init__(self, rule, name: str = "rule", triangle: bool = False,
                 row_span=None, col_span=None):
        super().__init__(name, triangle=triangle)
        self._rule = rule
        self._row_span = row_span
        self._col_span = col_span

    def entry(self, n, k):
        _check_index(n, k)
        if self.triangle and k > n:
            return 0
        return self._rule(n, k)

    def row_start(self, n):
        return self._row_span(n)[0] if self._row_span else 1

    def row_end(self, n):
        if self._row_span:
            return self._row_span(n)[1]
        return n if self.triangle else None

    def col_start(self, k):
        if self._col_span:
            return self._col_span(k)[0]
        return k if self.triangle else 1

    def col_end(self, k):
        return self._col_span(k)[1] if self._col_span else None


def rational_band_triangle(rng: np.random.Generator, size: int, width: int,
                           name: str = "band") -> RuleMatrix:
    """A random lower-banded triangle with small rational entries and a
    nonzero diagonal, defined on the leading ``size`` rows."""
    entries = {}
    for n in range(1, size + 1):
        for k in range(max(1, n - width), n + 1):
            entries[(n, k)] = Fraction(int(rng.integers(-6, 7)),
                                       int(rng.integers(1, 5)))
        if entries[(n, n)] == 0:
            entries[(n, n)] = Fraction(1)

    def rule(n, k, table=entries):
        return table.get((n, k), 0)

    return RuleMatrix(rule, name=name, triangle=True,
                      row_span=lambda n: (max(1, n - width), n),
                      col_span=lambda k: (k, k + width))
