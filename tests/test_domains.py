import warnings
from fractions import Fraction

import numpy as np
import pytest

from seqspace.domains import (
    basis_element,
    domain_image,
    domain_preimage,
    expansion_coefficients,
    expansion_partial_vector,
    expansion_residual,
    geometric_domain_element,
    preimage_sequence,
    section_norm_trace,
    section_residual,
    section_sequence,
    sections_bounded_probe,
    sections_converge_probe,
    space_from_spec,
    space_membership,
    space_norm,
)
from seqspace.errors import PreconditionError, SpecError
from seqspace.matrices import apply, matrix_from_spec
from seqspace.sequences import (finite_vector, make_sequence,
                                sequence_from_values)
from seqspace.verdicts import Verdict

from conftest import rational_band_triangle


def test_space_from_spec():
    s = space_from_spec("c0(omega)")
    assert s.is_domain and s.tag == "c0" and s.matrix.name == "omega"
    assert str(s) == "c0(omega)"
    assert not space_from_spec("bs").is_domain
    assert space_from_spec({"tag": "c", "matrix": "gamma"}).matrix.name == "gamma"
    with pytest.raises(SpecError):
        space_from_spec("bs(omega)")      # domains sit over c0/c/linf only
    with pytest.raises(SpecError):
        space_from_spec("c0(taylor:1/2)")  # not a triangle
    with pytest.raises(SpecError):
        space_from_spec("c0(omega")
    with pytest.raises(SpecError):
        space_from_spec("w")


def test_domain_image_and_preimage():
    assert domain_image("c0(omega)", "harmonic", 3).entries == (1, 2, 3)
    assert domain_preimage("omega", "const:1", 3).entries == (1, 0, 0)
    # image and preimage are mutually inverse on a concrete vector
    y = domain_image("gamma", "list:1,2,0,-1", 6)
    back = domain_preimage("gamma", sequence_from_values(y.entries), 6)
    assert back.entries == (1, 2, 0, -1, 0, 0)


def test_preimage_sequence_lazy():
    x = preimage_sequence("omega", "const:1")
    assert x.label == "omega-preimage(const:1)"
    assert [x(k) for k in (1, 2, 3)] == [1, 0, 0]


@pytest.mark.parametrize("space", ["omega", "gamma"])
def test_preimage_sequence_terms_read_only_their_rows_support(space):
    # Each rule term reads the two columns of its bidiagonal inverse's row,
    # not a full-width row: 2000 terms stay linear, and each is exact.
    x = preimage_sequence(space, "geometric:1/2")
    assert tuple(x(k) for k in range(1, 2001)) == \
        domain_preimage(space, "geometric:1/2", 2000).entries


def test_preimage_sequence_floats_are_inf_from_the_first_overflow():
    # The gamma preimage of 2^k is x_k = k 2^(k-1): its float transform
    # overflows at k = 1015, and the lazy sequence's floats are inf from
    # that index on and the transform's floats before it.
    x = preimage_sequence("gamma", "geometric:2").floats(1100)
    fv = domain_preimage("gamma", "geometric:2", 1100, mode="float")
    assert fv.overflow
    first = fv.overflow_index
    assert np.isfinite(x[:first - 1]).all()
    assert np.isinf(x[first - 1:]).all() and len(x) - first + 1 == 86
    assert x[:first - 1].tobytes() == fv.entries[:first - 1].tobytes()


def test_geometric_domain_element_closed_form():
    g = geometric_domain_element()
    assert g(1) == Fraction(1, 2)
    for k in range(2, 8):
        assert g(k) == -Fraction(1, 2) ** k / k
    # its coordinates are exactly the geometric sequence
    img = domain_image("omega", g, 10)
    assert img.entries == tuple(Fraction(1, 2) ** k for k in range(1, 11))


def test_space_norm():
    assert space_norm("c0", "list:1,-3,2", 5) == 3
    assert space_norm("bs", "alternating", 5) == 1
    assert space_norm("cs", "list:1,1,1", 3) == 3
    assert space_norm("c0(omega)", geometric_domain_element(), 6) == Fraction(1, 2)


def test_space_membership():
    assert space_membership("geometric:1/2", "c0", 400) is Verdict.SATISFIED
    g = geometric_domain_element()
    assert space_membership(g, "c0(omega)", 400) is Verdict.SATISFIED
    assert space_membership("const:1", "c0(omega)", 400) is Verdict.VIOLATED
    v, info = space_membership("alternating", "c", 400, detail=True)
    assert v is Verdict.VIOLATED
    assert info["limit"].kind.value == "oscillates"


def test_space_membership_overflow_is_inconclusive():
    assert space_membership("geometric:2", "c0", 2000) is Verdict.INCONCLUSIVE
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # and numpy warns of nothing
        assert space_membership("geometric:-1000000", "c(omega)", 200) \
            is Verdict.INCONCLUSIVE
    assert space_membership("power:400", "linf", 200) is Verdict.INCONCLUSIVE
    # An overflowed vector is not judged on the zeros that stand in for its
    # overflow, in a domain either.
    idx = np.arange(1.0, 101.0)
    overflowed = finite_vector(np.where(idx > 50, np.inf, (-1.0) ** idx))
    for space in ("c0", "c0(omega)"):
        assert space_membership(overflowed, space, 100, detail=True) == (
            Verdict.INCONCLUSIVE, {"note": "overflow at index 51"})


def test_basis_elements():
    assert basis_element("omega", 2) == {2: Fraction(1, 2), 3: Fraction(-1, 3)}
    assert basis_element("gamma", 1) == {1: 1, 2: -2}
    assert basis_element("omega", 1) == {1: 1, 2: Fraction(-1, 2)}
    with pytest.raises(IndexError):
        basis_element("omega", 0)


def test_basis_element_refuses_upto_below_one():
    # Rows count from 1: below that there is no row to report, and an
    # empty dict would read as a basis element with no entries.
    for upto in (0, -5):
        with pytest.raises(PreconditionError, match="upto"):
            basis_element("omega", 2, upto=upto)
    assert basis_element("omega", 2, upto=2) == {2: Fraction(1, 2)}


def test_basis_element_needs_upto_without_closed_form():
    rng = np.random.default_rng(7)
    t = rational_band_triangle(rng, size=10, width=2)
    with pytest.raises(PreconditionError):
        basis_element(t, 1)
    col = basis_element(t, 1, upto=6)
    assert all(1 <= row <= 6 for row in col)
    assert col[1] == Fraction(1) / t.entry(1, 1)


def test_expansion_partial_sum_identity():
    # the slow route: build the partial sum from basis columns, then verify
    # its coordinates are the first coefficients followed by zeros
    g = geometric_domain_element()
    part = expansion_partial_vector("omega", g, 4, 10)
    y = apply("omega", sequence_from_values(part), 10)
    coeffs = expansion_coefficients("omega", g, 4)
    assert y.entries[:4] == coeffs.entries
    assert y.entries[4:] == (0,) * 6


def test_expansion_residual_values():
    g = geometric_domain_element()
    assert expansion_residual("omega", g, 4, 30) == Fraction(1, 32)
    assert expansion_residual("omega", g, 30, 30) == 0
    with pytest.raises(PreconditionError):
        expansion_residual("omega", g, -1, 30)


def test_sections():
    s = section_sequence("harmonic", 3)
    assert [s(k) for k in (1, 3, 4)] == [1, Fraction(1, 3), 0]
    assert s.support_hint == 3
    g = geometric_domain_element()
    assert section_residual("omega", g, 3, 12) == Fraction(511, 4096)
    trace = section_norm_trace("omega", "const:1", 6)
    assert trace.tolist() == [1.0, 3.0, 6.0, 10.0, 15.0, 21.0]


def test_section_probes():
    g = geometric_domain_element()
    v, info = sections_converge_probe("omega", g, 400)
    assert v is Verdict.SATISFIED and info["limit_kind"] == "converges"
    assert sections_bounded_probe("omega", g, 400)[0] is Verdict.SATISFIED

    # an element whose coordinates alternate: sections stay at distance 2
    alt = preimage_sequence("omega", "alternating")
    v2, info2 = sections_converge_probe("omega", alt, 400)
    assert v2 is Verdict.VIOLATED
    assert info2["residual_trace_tail"] == 2.0

    # an element with growing coordinates: section norms are unbounded
    lin = preimage_sequence("omega", "power:1")
    assert sections_bounded_probe("omega", lin, 400)[0] is Verdict.VIOLATED
