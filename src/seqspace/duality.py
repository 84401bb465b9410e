"""Dual descriptions of matrix domains.

For the running-weighted-sum domains, a scalar sequence ``a`` pairs with the
domain through the series ``sum_k a_k x_k``.  Abel summation turns the partial
sums of that series into a triangle acting on the transformed coordinates
``y = Ax``:

* omega domains (weights ``k``):
  ``u_nk = a_k/k - a_{k+1}/(k+1)`` for ``k < n`` and ``u_nn = a_n/n``,
* gamma domains (weights ``1/k``):
  ``v_nk = k a_k - (k+1) a_{k+1}`` for ``k < n`` and ``v_nn = n a_n``,

so that the n-th partial sum of ``sum a_k x_k`` equals the n-th entry of the
triangle applied to ``y``.  The identity is exact at every truncation and is
what the tests check.  Membership of ``a`` in the generalized duals then
reduces to a mapping-class question for the triangle: rows summable against
the domain (the beta dual) ask the triangle to map the base space into ``c``;
bounded pairings (the gamma dual) ask for ``linf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import FloatRangeError, SpecError
from .matrices import InfiniteMatrix, _exact_div, _lower, _put_band
from .sequences import FiniteVector, Sequence, finite_vector, make_sequence
from .verdicts import Verdict

DUAL_KINDS = ("beta", "gamma")


class DualTriangle(InfiniteMatrix):
    """The Abel-summation triangle attached to a scalar sequence ``a``.

    ``weight_mode`` selects the domain family: "omega" divides by the index,
    "gamma" multiplies by it.

    When ``a`` has a support hint w, every column past w is +0.0
    (:meth:`last_column`), and the conditions engine reads the dense table
    as its leading L = max(8, 8 ceil(w/8)) columns when that width fits in
    the first block of numpy's pairwise sum over a full row.  Then the
    narrow reductions equal the full-width ones bit for bit, up to a -0.0
    the +0.0 tail would have turned into +0.0.  A triangle keeps its serial
    cache key: its tables and traces leave the evaluation cache with it.
    """

    def __init__(self, a: Sequence, weight_mode: str):
        if weight_mode not in ("omega", "gamma"):
            raise SpecError(f"unknown weight mode {weight_mode!r}")
        super().__init__(f"dual[{weight_mode}]({a.label})", triangle=True)
        self.a = a
        self.weight_mode = weight_mode
        self._vals: dict[int, object] = {}
        self._sf = np.empty(0)

    def _scaled(self, k: int):
        """a_k / k for omega mode; k * a_k for gamma mode."""
        got = self._vals.get(k)
        if got is None:
            ak = self.a(k)
            got = _exact_div(ak, k) if self.weight_mode == "omega" else k * ak
            self._vals[k] = got
        return got

    def entry(self, n, k):
        if n < 1 or k < 1:
            raise IndexError(f"matrix indices must be >= 1, got ({n}, {k})")
        if k > n:
            return 0
        if k == n:
            return self._scaled(n)
        return self._scaled(k) - self._scaled(k + 1)

    def _scaled_floats(self, m: int) -> np.ndarray:
        """The scaled terms 1..m as floats; zero past the support of ``a``."""
        if len(self._sf) < m:
            lo = len(self._sf)
            hint = self.last_column()
            hi = m if hint is None else max(lo, min(m, hint))
            fresh = [self._scaled_float(k, *parts)
                     for k, parts in zip(range(lo + 1, hi + 1),
                                         self._term_parts(lo + 1, hi))]
            self._sf = np.concatenate([self._sf, fresh, np.zeros(m - hi)])
        return self._sf[:m]

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
        for k in range(lo, hi + 1):
            ak = self.a(k)
            if isinstance(ak, (int, Fraction)):
                yield ak.numerator, ak.denominator
            else:
                yield ak, None

    def _scaled_float(self, k: int, num, den) -> float:
        """``float(self._scaled(k))`` from the parts of ``a_k``.  A rational
        ``a_k`` takes one correctly rounded int division, which is what
        ``float`` of a ``Fraction`` is."""
        omega = self.weight_mode == "omega"
        try:
            if den is not None:
                return num / (den * k) if omega else (num * k) / den
            return float(num / k if omega else k * num)
        except OverflowError:
            raise FloatRangeError(
                f"{self.name}: scaled term {k} is too large for a float") from None

    def last_column(self) -> Optional[int]:
        """The support of ``a``.  Past it the scaled terms are +0.0, so
        every later column, its diagonal entry included, holds +0.0 (a
        difference 0.0 - 0.0 under the diagonal).  Row n of a triangle A
        is zero past column n, so the triangle paired with it carries all
        its values in its first n columns."""
        hint = self.a.support_hint
        return None if hint is None else max(hint, 0)

    def block(self, rows, m):
        rows = np.asarray(rows)
        sf = self._scaled_floats(m + 1)
        width = self.last_column()
        if width is None or width >= m:
            width = m
            out = _lower(rows, m, sf[:m] - sf[1:m + 1])
        else:
            # Only the first ``width`` columns need writing: the rest
            # hold +0.0 (see last_column).
            out = np.zeros((len(rows), m))
            out[:, :width] = _lower(rows, width, sf[:width] - sf[1:width + 1])
        _put_band(out, rows, 0, sf, width)
        return out


def dual_transfer_matrix(a, domain_matrix="omega") -> DualTriangle:
    """The triangle whose rows are the partial sums of ``sum a_k x_k`` in the
    transformed coordinates of the given domain ("omega" or "gamma")."""
    a = make_sequence(a)
    if isinstance(domain_matrix, InfiniteMatrix):
        mode = domain_matrix.name
    else:
        mode = str(domain_matrix).strip().lower()
    if mode not in ("omega", "gamma"):
        raise SpecError(
            "dual descriptions are available for the omega and gamma domains, "
            f"not {mode!r}")
    return DualTriangle(a, mode)


def weighted_partial_sums(a, x, n: int) -> FiniteVector:
    """Exact partial sums ``sum_{k<=m} a_k x_k`` for m = 1..n."""
    a = make_sequence(a)
    x = make_sequence(x)
    out = []
    total = 0
    for k in range(1, n + 1):
        total += a(k) * x(k)
        out.append(total)
    return finite_vector(out, origin=f"pairing({a.label},{x.label})")


@dataclass(frozen=True)
class DualReport:
    """Outcome of a dual-membership probe."""

    verdict: Verdict
    kind: str                  # "beta" or "gamma"
    space: str                 # the domain the dual belongs to
    target_pair: tuple         # mapping-class pair the triangle was tested on
    class_report: object       # ClassReport for the transfer triangle
    note: str = ""

    def to_dict(self) -> dict:
        out = {
            "verdict": str(self.verdict),
            "kind": self.kind,
            "space": self.space,
            "target_pair": list(self.target_pair),
            "class_report": self.class_report.to_dict(),
        }
        if self.note:
            out["note"] = self.note
        return out


def dual_membership(a, space, kind: str = "beta", n: Optional[int] = None,
                    tol: Optional[float] = None,
                    window: Optional[int] = None) -> DualReport:
    """Probe whether the scalar sequence ``a`` belongs to the generalized
    beta- or gamma-dual of a matrix domain.

    ``space`` must be a domain over the omega or gamma triangle (for example
    ``"c0(omega)"`` or ``"linf(gamma)"``).  The probe builds the dual triangle
    for ``a`` and runs the mapping-class conditions for (base space : c) for
    the beta dual, or (base space : linf) for the gamma dual.
    """
    from .conditions import check_class
    from .domains import space_from_spec

    if kind not in DUAL_KINDS:
        raise SpecError(f"dual kind must be one of {DUAL_KINDS}, got {kind!r}")
    space = space_from_spec(space)
    if not space.is_domain:
        raise SpecError(
            "dual criteria here cover matrix domains (e.g. 'c0(omega)'); "
            f"got the classical space {space}")
    transfer = dual_transfer_matrix(make_sequence(a), space.matrix)
    target = "c" if kind == "beta" else "linf"
    kwargs = {}
    if n is not None:
        kwargs["n"] = n
    if tol is not None:
        kwargs["tol"] = tol
    if window is not None:
        kwargs["window"] = window
    report = check_class(transfer, space.tag, target, **kwargs)
    return DualReport(
        verdict=report.verdict,
        kind=kind,
        space=str(space),
        target_pair=(space.tag, target),
        class_report=report,
        note=f"tested the dual triangle on ({space.tag} : {target})",
    )
