"""Matrix domains of classical sequence spaces.

For a lower triangle ``A`` and a classical space ``X`` (one of c0, c, linf),
the domain is the set of sequences ``x`` whose transform ``Ax`` lands in
``X``.  The natural norm is ``sup_n |(Ax)_n|``, the coordinate map is
``x <-> Ax``, and the canonical basis elements are the columns of the inverse
triangle.  Everything here is evaluated honestly at a finite truncation:
norms and membership verdicts carry the truncation they were computed at.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import PreconditionError, SpecError
from .matrices import (
    DENSE_LIMIT,
    InfiniteMatrix,
    apply,
    inverse_of,
    matrix_from_spec,
    row_dot,
)
from .sequences import (
    FiniteVector,
    Scalar,
    Sequence,
    SpaceId,
    check_tol,
    classify_values,
    make_sequence,
    probe_window,
)
from .verdicts import Verdict


def space_from_spec(spec) -> SpaceId:
    """Resolve a space spec; :class:`SpaceId` checks what it names.

    String forms: ``"c0"``, ``"c"``, ``"linf"``, ``"bs"``, ``"cs"`` and
    domain forms like ``"c0(omega)"``, ``"c(gamma)"``, ``"linf(omega)"``.
    Dict form: ``{"tag": "c0", "matrix": <matrix spec>}``.
    """
    if isinstance(spec, SpaceId):
        return spec
    if isinstance(spec, str):
        text = spec.strip().lower()
        if "(" not in text:
            return SpaceId(text)
        if not text.endswith(")"):
            raise SpecError(f"malformed space spec {spec!r}")
        tag, inner = text[:-1].split("(", 1)
        return SpaceId(tag.strip(), matrix_from_spec(inner.strip()))
    if isinstance(spec, dict):
        tag = str(spec.get("tag", "")).strip().lower()
        if spec.get("matrix") is not None:
            return SpaceId(tag, matrix_from_spec(spec["matrix"]))
        return SpaceId(tag)
    raise SpecError(f"cannot build a space from {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Coordinates and norms
# ---------------------------------------------------------------------------


def domain_image(space_or_matrix, x, n: int, mode: str = "exact") -> FiniteVector:
    """Coordinates of ``x`` under the domain's triangle: the first ``n``
    entries of ``Ax``.  Accepts a domain space, a matrix, or their specs."""
    a = _resolve_triangle(space_or_matrix)
    return apply(a, x, n, mode=mode)


def domain_preimage(space_or_matrix, y, n: int, mode: str = "exact") -> FiniteVector:
    """First ``n`` entries of the unique ``x`` with ``Ax = y``."""
    a = _resolve_triangle(space_or_matrix)
    return apply(inverse_of(a), y, n, mode=mode)


def preimage_sequence(space_or_matrix, y) -> Sequence:
    """The preimage as a lazy sequence: ``x_k`` computed on demand.

    Its float prefix is the float transform of ``y`` by the inverse triangle;
    entries from the first overflow on are ``inf``.
    """
    a = _resolve_triangle(space_or_matrix)
    inv = inverse_of(a)
    y = make_sequence(y)

    def vector(n: int) -> np.ndarray:
        fv = apply(inv, y, n, mode="float")
        if not fv.overflow:
            return fv.entries
        out = fv.entries.copy()
        out[fv.overflow_index - 1:] = np.inf
        return out

    def rule(k: int) -> Scalar:
        cols = range(inv.row_start(k), k + 1)
        return row_dot([inv.entry(k, j) for j in cols], [y(j) for j in cols])

    return Sequence(rule, label=f"{a.name}-preimage({y.label})", vector=vector)


def geometric_domain_element(r="1/2") -> Sequence:
    """The element of the omega domain whose image is the geometric sequence
    ``(r^k)``: explicitly ``x_1 = r`` and ``x_k = -r^(k-1)(1-r)/k`` for k >= 2.
    """
    return preimage_sequence("omega", make_sequence(f"geometric:{r}"))


def space_norm(space, x, n: int, mode: str = "exact") -> Scalar:
    """The space's natural sup-norm evaluated on the first ``n`` coordinates.

    c0/c/linf use ``sup |x_k|``; bs/cs use ``sup |x_1 + ... + x_m|``; a domain
    space applies its triangle first.  The value is a lower bound for the true
    norm (the sup runs over the window only).
    """
    space = space_from_spec(space)
    if space.is_domain:
        coords = apply(space.matrix, x, n, mode=mode)
        values = coords.entries
    else:
        if isinstance(x, FiniteVector):
            values = x.entries[:n]
        else:
            values = tuple(make_sequence(x)(k) for k in range(1, n + 1))
        if space.tag in ("bs", "cs"):
            values = (np.cumsum(values) if isinstance(values, np.ndarray)
                      else tuple(accumulate(values)))
    return _sup_abs(values)


def _sup_abs(values) -> Scalar:
    """``max |v|`` over exact values or a float array; 0 when there are none."""
    if isinstance(values, np.ndarray):
        return float(np.abs(values).max()) if len(values) else 0
    return max((abs(v) for v in values), default=0)


def space_membership(x, space, n: int, tol: float = 1e-6,
                     window: Optional[int] = None, detail: bool = False):
    """Three-valued membership probe of ``x`` in ``space`` at truncation ``n``.

    ``x`` is any spec :func:`make_sequence` accepts; a list or a
    FiniteVector is read as a finitely supported sequence.  The window
    follows :func:`probe_window`.  An overflowed input, or a domain
    transform that overflows, is Inconclusive.
    """
    check_tol(tol)
    space = space_from_spec(space)
    window = probe_window(n, window)
    if isinstance(x, FiniteVector) and x.overflow:
        note = f"overflow at index {x.overflow_index}"
    elif space.is_domain:
        coords = apply(space.matrix, x, n, mode="float")
        note = (f"transform overflowed at index {coords.overflow_index}"
                if coords.overflow else None)
        vals = coords.as_floats()
    else:
        note, vals = None, make_sequence(x).floats(n)
    if note is not None:
        return ((Verdict.INCONCLUSIVE, {"note": note}) if detail
                else Verdict.INCONCLUSIVE)
    return classify_values(vals, space.tag, tol, window, detail=detail)


def _resolve_triangle(space_or_matrix) -> InfiniteMatrix:
    if isinstance(space_or_matrix, InfiniteMatrix):
        a = space_or_matrix
    elif isinstance(space_or_matrix, SpaceId):
        if not space_or_matrix.is_domain:
            raise SpecError(f"space {space_or_matrix} carries no matrix")
        a = space_or_matrix.matrix
    elif isinstance(space_or_matrix, str) and "(" in space_or_matrix:
        a = space_from_spec(space_or_matrix).matrix
    else:
        a = matrix_from_spec(space_or_matrix)
    if not a.triangle:
        raise SpecError(f"domain constructions need a lower triangle, "
                        f"got {a.name!r}")
    return a


# ---------------------------------------------------------------------------
# Basis elements and expansions
# ---------------------------------------------------------------------------


def basis_element(space_or_matrix, k: int, upto: Optional[int] = None) -> dict:
    """The k-th canonical basis element of the domain: column k of the
    inverse triangle, as a sparse ``{index: value}`` dict of nonzero entries.

    For builtin triangles the inverse column has finite support and is
    returned whole; otherwise entries are reported for rows up to ``upto``.
    ``upto``, when given, must be at least 1.
    """
    if k < 1:
        raise IndexError(f"basis index must be >= 1, got {k}")
    if upto is not None and upto < 1:
        raise PreconditionError(f"upto must be >= 1, got {upto}")
    a = _resolve_triangle(space_or_matrix)
    inv = inverse_of(a)
    top = inv.col_end(k)
    if top is None:
        if upto is None:
            raise PreconditionError(
                f"inverse of {a.name!r} has unbounded columns; pass upto=")
        top = upto
    elif upto is not None:
        top = min(top, upto)
    column = ((n, inv.entry(n, k)) for n in range(inv.col_start(k), top + 1))
    return {n: v for n, v in column if v != 0}


def expansion_coefficients(space_or_matrix, x, m: int,
                           mode: str = "exact") -> FiniteVector:
    """First ``m`` coefficients of ``x`` against the canonical basis (these
    are exactly the coordinates ``(Ax)_1..m``)."""
    return domain_image(space_or_matrix, x, m, mode=mode)


def expansion_partial_vector(space_or_matrix, x, n_terms: int, n: int) -> list:
    """The literal partial sum ``sum_{k<=n_terms} (Ax)_k b^(k)`` evaluated on
    rows 1..n, built from the basis columns themselves (exact arithmetic).

    This is the slow route; it exists so tests can cross-check the identity
    ``A(partial) = (y_1, ..., y_{n_terms}, 0, ...)`` instead of assuming it.
    """
    a = _resolve_triangle(space_or_matrix)
    coeffs = domain_image(a, x, n_terms, mode="exact").entries
    out = [0] * n
    for k in range(1, n_terms + 1):
        for row, val in basis_element(a, k, upto=n).items():
            if row <= n:
                out[row - 1] += coeffs[k - 1] * val
    return out


def expansion_residual(space_or_matrix, x, n_terms: int, n: int,
                       mode: str = "exact") -> Scalar:
    """Domain-norm distance between ``x`` and its ``n_terms``-term basis
    expansion, evaluated at truncation ``n``.

    Because ``A b^(k)`` is the k-th unit sequence, the difference's coordinates
    are ``(0, ..., 0, y_{n_terms+1}, ..., y_n)`` with ``y = Ax``, so the
    residual is the sup of ``|y_m|`` over ``n_terms < m <= n``.
    """
    if n_terms < 0:
        raise PreconditionError(f"n_terms must be >= 0, got {n_terms}")
    y = domain_image(space_or_matrix, x, n, mode=mode)
    return _sup_abs(y.entries[n_terms:])


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def section_sequence(x, m: int) -> Sequence:
    """The m-th section of ``x``: equal to ``x`` up to index m, zero after."""
    x = make_sequence(x)
    if m < 0:
        raise PreconditionError(f"section index must be >= 0, got {m}")
    return Sequence(lambda k: x(k) if k <= m else 0, support_hint=m,
                    label=f"section[{m}]({x.label})", vector=x.floats)


def section_residual(space_or_matrix, x, m: int, n: int,
                     mode: str = "exact") -> Scalar:
    """Domain-norm distance between ``x`` and its m-th section at truncation n."""
    a = _resolve_triangle(space_or_matrix)
    y = apply(a, x, n, mode=mode)
    ysec = apply(a, section_sequence(x, m), n, mode=mode)
    if mode == "float":
        return _sup_abs(y.entries - ysec.entries)
    return _sup_abs([u - v for u, v in zip(y.entries, ysec.entries)])


def _section_image_table(a: InfiniteMatrix, x, n: int) -> np.ndarray:
    """C[j-1, m-1] = (A x^[m])_j for 1 <= j, m <= n (floats)."""
    x = make_sequence(x)
    xf = x.floats(n)
    if n > DENSE_LIMIT:
        raise PreconditionError(
            f"section tables are capped at truncation {DENSE_LIMIT}")
    t = a.truncation_floats(n)
    c = np.cumsum(t * xf[None, :], axis=1)
    # (A x^[m])_j equals the full row sum once m >= j; cumsum gives exactly that.
    return c


def section_norm_trace(space_or_matrix, x, n: int) -> np.ndarray:
    """Norms of the sections: entry m-1 is ``sup_j |(A x^[m])_j|`` over j <= n."""
    a = _resolve_triangle(space_or_matrix)
    c = np.abs(_section_image_table(a, x, n))
    running_diag_max = np.maximum.accumulate(np.diag(c))
    out = np.empty(n)
    for m in range(n, 0, -1):
        col_tail = c[m:, m - 1]
        tail_max = col_tail.max() if len(col_tail) else 0.0
        out[m - 1] = max(running_diag_max[m - 1], tail_max)
    return out


def sections_bounded_probe(space_or_matrix, x, n: int, tol: float = 1e-6,
                           window: Optional[int] = None):
    """Probe whether the section norms stay bounded (the classical AB
    property, along ``x``).  Returns ``(verdict, info)``."""
    check_tol(tol)
    window = probe_window(n, window)
    trace = section_norm_trace(space_or_matrix, x, n)
    return classify_values(trace, "linf", tol, window, detail=True)


def sections_converge_probe(space_or_matrix, x, n: int, tol: float = 1e-6,
                            window: Optional[int] = None):
    """Probe whether ``x`` is the domain-norm limit of its sections (the
    classical AK property, along ``x``).  Returns ``(verdict, info)``.

    The residual after the m-th section is ``sup_{j>m} |(Ax)_j - (A x^[m])_j|``;
    the probe checks that this trace decays to zero.  The n-th section's
    residual is 0 within the window by construction, a truncation artifact
    rather than data, so the trace stops at n - 1 and the window is below
    that (:func:`probe_window`; the default is still taken from n).
    """
    check_tol(tol)
    window = probe_window(n - 1, window, n)
    a = _resolve_triangle(space_or_matrix)
    c = _section_image_table(a, x, n)
    y = np.diag(c)  # (Ax)_j within the window
    diffs = np.abs(y[:, None] - c)  # rows j, columns m
    res = np.zeros(n - 1)
    for m in range(1, n):
        res[m - 1] = diffs[m:, m - 1].max()
    verdict, info = classify_values(res, "c0", tol, window, detail=True)
    return verdict, {"residual_trace_tail": float(res[-1]),
                     "limit_kind": info["limit"].kind.value}
