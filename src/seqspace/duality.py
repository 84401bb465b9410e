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
gamma dual) ask for ``linf``.  The triangle, running sums weighted by ``a``
times the bidiagonal, is :class:`seqspace.matrices.DualTriangle`; a probe's
triangle has no row scale, which a weighted mean times a bidiagonal has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import SpecError
from .matrices import DualTriangle, inverse_of
from .sequences import FiniteVector, finite_vector, make_sequence
from .verdicts import Verdict

DUAL_KINDS = ("beta", "gamma")


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
    given = {"n": n, "tol": tol, "window": window}
    report = check_class(transfer, space.tag, target, **{
        key: val for key, val in given.items() if val is not None})
    return DualReport(
        verdict=report.verdict,
        kind=kind,
        space=str(named),
        target_pair=(space.tag, target),
        class_report=report,
        note=f"tested the dual triangle on ({space.tag} : {target})",
    )
