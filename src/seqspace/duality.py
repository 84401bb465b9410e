"""Dual descriptions of matrix domains.

A scalar sequence ``a`` pairs with a matrix domain through the series
``sum_k a_k x_k``.  When the domain's triangle has a bidiagonal inverse, with
diagonal d and subdiagonal s, Abel summation turns the partial sums of that
series into one triangle acting on the transformed coordinates ``y = Ax``:

  ``u_nk = a_k d_k + a_{k+1} s_{k+1}`` for ``k < n`` and ``u_nn = a_n d_n``,

so that the n-th partial sum of ``sum a_k x_k`` equals the n-th entry of the
triangle applied to ``y``: ``a_k/k - a_{k+1}/(k+1)`` below the diagonal for
omega, ``k a_k - (k+1) a_{k+1}`` for gamma, ``a_k - a_{k+1}`` for sigma.  The
identity is exact at every truncation and is what the tests check.
Membership of ``a`` in the generalized duals then reduces to a mapping-class
question for the triangle: rows summable against the domain (the beta dual)
ask the triangle to map the base space into ``c``; bounded pairings (the
gamma dual) ask for ``linf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import FloatRangeError, SpecError
from .matrices import (Bidiagonal, InfiniteMatrix, _check_index, _exact_div,
                       _lower, _put_band, inverse_of)
from .sequences import FiniteVector, Sequence, finite_vector, make_sequence
from .verdicts import Verdict

DUAL_KINDS = ("beta", "gamma")


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
    """The Abel-summation triangle of a scalar sequence ``a`` over a domain
    whose inverse is the bidiagonal ``inverse``.  Its floats come from the
    terms ``p_k = a_k d_k`` and ``q_k = a_k s_k``; where ``s_k = -d_k``
    (omega, gamma, sigma) ``q_k`` is ``-p_k``, exact in floats.

    No table of it is read: its features come from the O(n) terms and its
    rows in blocks.  When ``a`` has a support hint w, the terms past w are
    not evaluated: p is +0.0 and q is -0.0 there, so every entry past column
    w is +0.0, as the exact zeros would give.  A triangle has a serial cache
    key, so its features and traces leave the evaluation cache with it,
    unless its maker gives it a stable key, as row pairing does.
    """

    def __init__(self, a: Sequence, inverse: Bidiagonal):
        if not isinstance(inverse, Bidiagonal):
            raise SpecError("dual descriptions need a domain with a "
                            f"bidiagonal inverse; {inverse.name!r} is not")
        domain = inverse.name.removesuffix("-inv")
        super().__init__(f"dual[{domain}]({a.label})", triangle=True)
        self.a = a
        self.inverse = inverse
        self._p = np.empty(0)    # _p[k-1] = a_k d_k
        self._q = np.empty(0)    # _q[k-1] = a_k s_k

    def entry(self, n, k):
        _check_index(n, k)
        if k > n:
            return 0
        d, s = self.inverse.pairs(k + 1)
        term = _times(self.a(k), d[k - 1])
        return term if k == n else term + _times(self.a(k + 1), s[k])

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
        for k in range(lo, hi + 1):
            ak = self.a(k)
            if isinstance(ak, (int, Fraction)):
                yield ak.numerator, ak.denominator
            else:
                yield ak, None

    def block(self, rows, m):
        rows = np.asarray(rows)
        p, q = self._terms(m + 1)
        out = _lower(rows, m, p[:m] + q[1:m + 1])
        _put_band(out, rows, 0, p)
        return out

    def _features_floats(self, rows, ks, n):
        # Column k is p_k on the diagonal and v_k = p_k + q_{k+1} below it.
        # By Abel summation at y = (1, 1, ...), row m sums to the running sum
        # of p_k + q_k, k <= m (q_1 = 0); its absolute sum is that of |v_k|,
        # k < m, plus |p_m|.
        p, q = self._terms(n + 1)
        v = p[:n] + q[1:]
        out = np.empty((2 + len(ks), n))
        out[0, :len(rows)] = np.cumsum(p[:n] + q[:n])[rows - 1]
        absolute = np.abs(p[:n])
        absolute[1:] += np.cumsum(np.abs(v[:-1]))
        out[1, :len(rows)] = absolute[rows - 1]
        below = np.arange(1, n + 1) > ks[:, None]
        out[2:] = np.where(below, v[ks - 1, None], 0.0)
        out[2 + np.arange(len(ks)), ks - 1] = p[ks - 1]
        return out


def dual_transfer_matrix(a, domain_matrix="omega") -> DualTriangle:
    """The triangle whose rows are the partial sums of ``sum a_k x_k`` in the
    transformed coordinates of a domain whose :func:`inverse_of` is
    bidiagonal (omega, gamma, sigma, cesaro, Riesz)."""
    return DualTriangle(make_sequence(a), inverse_of(domain_matrix))


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

    ``space`` must be a domain over a triangle with a bidiagonal inverse
    (for example ``"c0(omega)"`` or ``"linf(gamma)"``), or bs or cs, the
    domains linf(sigma) and c(sigma).  The probe reads the dual triangle
    of ``a`` through its O(n) terms and runs the mapping-class conditions
    for (base space : c) for the beta dual, or (base space : linf) for the
    gamma dual.
    """
    from .conditions import _sigma_domain, check_class
    from .domains import space_from_spec

    if kind not in DUAL_KINDS:
        raise SpecError(f"dual kind must be one of {DUAL_KINDS}, got {kind!r}")
    named = space_from_spec(space)
    space = _sigma_domain(named)
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
        space=str(named),
        target_pair=(space.tag, target),
        class_report=report,
        note=f"tested the dual triangle on ({space.tag} : {target})",
    )
