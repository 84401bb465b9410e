import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqspace import cache
from seqspace.conditions import EQ_STACK_ROWS
from seqspace.domains import domain_image
from seqspace.duality import (
    DualTriangle,
    dual_membership,
    dual_transfer_matrix,
    weighted_partial_sums,
)
from seqspace.errors import SpecError
from seqspace.matrices import (InfiniteMatrix, apply, compose, inverse_of,
                               matrix_from_spec)
from seqspace.sequences import make_sequence, sequence_from_values
from seqspace.verdicts import Verdict


def test_dual_triangle_entries():
    # a_k = k against the omega domain scales to the constant 1: the
    # telescoping differences vanish and the triangle is the identity
    t = dual_transfer_matrix("power:1", "omega")
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert t.entry(n, k) == (1 if n == k else 0)
    # a_k = 1/k against the gamma domain is the identity for the same reason
    t2 = dual_transfer_matrix("harmonic", "gamma")
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert t2.entry(n, k) == (1 if n == k else 0)
    # a_k = k^2 against omega: diagonal n, constant -1 strictly below
    t3 = dual_transfer_matrix("power:2", "omega")
    assert [t3.entry(4, k) for k in range(1, 5)] == [-1, -1, -1, 4]


def test_dual_triangle_mode_validation():
    # E_r's inverse is not bidiagonal.
    with pytest.raises(SpecError):
        DualTriangle(make_sequence("power:1"), inverse_of("euler:1/2"))
    with pytest.raises(SpecError):
        dual_transfer_matrix("power:1", "euler:1/2")


def test_pairing_identity_exact():
    # the whole point of the triangle: partial sums of sum a_k x_k equal the
    # triangle applied to the transformed coordinates, exactly, row by row
    rng = np.random.default_rng(3)
    for mode in ("omega", "gamma", "sigma", "cesaro", "riesz:power:2"):
        for _ in range(5):
            a = sequence_from_values(
                [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))
                 for _ in range(12)])
            x = sequence_from_values(
                [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))
                 for _ in range(12)])
            direct = weighted_partial_sums(a, x, 12)
            y = domain_image(mode, x, 12)
            via = apply(dual_transfer_matrix(a, mode),
                        sequence_from_values(y.entries), 12)
            assert direct.entries == via.entries


def test_dual_triangle_float_paths():
    t = dual_transfer_matrix("power:2", "omega")
    for n in (1, 3, 9):
        slow = np.array([float(t.entry(n, k)) for k in range(1, 13)])
        assert np.allclose(t.block([n], 12)[0], slow, atol=1e-14)
    rows = np.array([1, 2, 5, 11])
    for k in (1, 4):
        slow = np.array([float(t.entry(int(n), k)) for n in rows])
        assert np.allclose(t.block(rows, k)[:, k - 1], slow, atol=1e-14)


def test_dual_membership_verdicts():
    r = dual_membership("power:1", "c0(omega)")
    assert r.verdict is Verdict.SATISFIED
    assert r.kind == "beta" and r.target_pair == ("c0", "c")
    assert dual_membership("power:2", "c0(omega)").verdict is Verdict.VIOLATED
    assert dual_membership("power:-1", "c0(gamma)").verdict is Verdict.SATISFIED
    assert dual_membership("power:1", "c0(omega)",
                           kind="gamma").verdict is Verdict.SATISFIED
    assert dual_membership("harmonic", "c(gamma)").verdict is Verdict.SATISFIED


def test_dual_membership_validation():
    with pytest.raises(SpecError):
        dual_membership("power:1", "c0")
    with pytest.raises(SpecError):
        dual_membership("power:1", "c0(euler:1/2)")
    with pytest.raises(SpecError):
        dual_membership("power:1", "c0(omega)", kind="alpha")


@pytest.mark.parametrize("a", ("const:1", "alternating", "harmonic",
                               "power:-2"))
@pytest.mark.parametrize("space, domain", (("cs", "c(sigma)"),
                                           ("bs", "linf(sigma)")))
def test_bs_and_cs_duals_are_those_of_the_sigma_domains(space, domain, a):
    got = dual_membership(a, space)
    want = dual_membership(a, domain)
    assert got.space == space
    assert got.verdict is want.verdict
    assert got.target_pair == want.target_pair and got.note == want.note
    assert got.class_report.to_dict() == want.class_report.to_dict()


def test_the_beta_dual_of_cs_is_bv():
    # cs^beta = bv: a constant has bounded variation, (-1)^k has not.
    assert dual_membership("const:1", "cs").verdict is Verdict.SATISFIED
    assert dual_membership("alternating", "cs").verdict is Verdict.VIOLATED


def test_a_huge_finite_trace_is_judged_without_warnings():
    # Against the omega domain, a_k = 3^k gives absolute row sums near
    # 6e283 at n = 600: the products of their differences overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dual_membership("geometric:3", "c(omega)")
    assert got.verdict is Verdict.VIOLATED


def test_dual_report_to_dict():
    d = dual_membership("power:1", "c0(omega)").to_dict()
    assert d["verdict"] == "satisfied"
    assert d["target_pair"] == ["c0", "c"]
    assert d["class_report"]["verdict"] == "satisfied"


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=10))
def test_pairing_identity_property(vals):
    a = sequence_from_values(vals)
    x = make_sequence("harmonic")
    n = len(vals)
    direct = weighted_partial_sums(a, x, n)
    y = domain_image("gamma", x, n)
    via = apply(dual_transfer_matrix(a, "gamma"),
                sequence_from_values(y.entries), n)
    assert direct.entries == via.entries


@pytest.mark.parametrize("n", (600, 2401))
def test_a_dual_probe_builds_no_table(monkeypatch, n):
    # The features record is read off the O(n) terms; the only rows of the
    # triangle read are the trailing rows that abs-rows-match-columns
    # stacks (60 at n = 600), and no table of a dual triangle is built or
    # cached.
    tables, read = [], []
    table, block = InfiniteMatrix.truncation_floats, DualTriangle.block

    def counted_table(self, size):
        if isinstance(self, DualTriangle):
            tables.append(size)
        return table(self, size)

    def counted_block(self, rows, m):
        read.extend(rows)
        return block(self, rows, m)
    monkeypatch.setattr(InfiniteMatrix, "truncation_floats", counted_table)
    monkeypatch.setattr(DualTriangle, "block", counted_block)
    cache.clear()
    for space in ("c0(omega)", "linf(gamma)", "bs", "c0(cesaro)"):
        for kind in ("beta", "gamma"):
            dual_membership("harmonic", space, kind=kind, n=n)
    assert tables == []
    assert read and min(read) > n - EQ_STACK_ROWS, min(read)
    assert not [key for key in cache._entries if key[0] == "table"]


def exact_row_sums(t, n):
    """(row sums, absolute row sums) of rows 1..n from the exact entries."""
    rows = [[t.entry(m, k) for k in range(1, m + 1)] for m in range(1, n + 1)]
    return ([sum(row) for row in rows],
            [sum(abs(x) for x in row) for row in rows])


DUAL_DOMAINS = ("omega", "gamma", "sigma", "cesaro")
ratios = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=40, deadline=None)
@given(st.one_of(
           st.lists(ratios, min_size=1, max_size=12).map(sequence_from_values),
           ratios.map(lambda r: make_sequence(f"geometric:{r}"))),
       st.sampled_from(DUAL_DOMAINS), st.integers(1, 40))
def test_the_features_record_sums_are_the_exact_sums(a, domain, n):
    # Each sum adds m floats, each one rounding of at most two terms p_k,
    # q_k that are themselves rounded once, so it is within 2 m eps of
    # sum_{k <= m+1} |p_k| + |q_k| of the exact row sum.  Where q = -p every
    # term after p_1 is 0, and the row sums are p_1 exactly.
    t = dual_transfer_matrix(a, domain)
    rows = np.arange(1, n + 1)
    got = t._features_floats(rows, np.array([1]), n)
    exact_sum, exact_abs = exact_row_sums(t, n)
    p, q = t._terms(n + 1)
    d, s = t.inverse.pairs(n + 1)
    scale = np.cumsum(np.abs(p) + np.abs(q))[1:]
    bound = 2 * rows * np.finfo(float).eps * scale
    for m in rows:
        assert abs(got[0, m - 1] - float(exact_sum[m - 1])) <= bound[m - 1]
        assert abs(got[1, m - 1] - float(exact_abs[m - 1])) <= bound[m - 1]
    if all(s[k] == (-d[k][0], d[k][1]) for k in range(1, n + 1)):
        assert got[0].tobytes() == np.full(n, p[0]).tobytes()


def test_float_weights_read_their_float_terms_exactly_once_rounded():
    # Riesz weights k^1.5 are floats, so the closed-form inverse's entries
    # are float quotients and its pairs are (value, None): the dual over
    # that domain reads them through its float branches, and its block
    # agrees with its entries to rounding.
    riesz = matrix_from_spec({"kind": "riesz",
                              "weights": {"kind": "power", "p": 1.5}})
    inv = inverse_of(riesz)
    assert isinstance(inv.entry(3, 3), float)
    d, s = inv.pairs(3)
    assert d[2] == (inv.entry(3, 3), None) and s[2] == (inv.entry(3, 2), None)
    t = dual_transfer_matrix("geometric:1/2", riesz)
    rows = np.arange(1, 13)
    exact = np.array([[float(t.entry(n, k)) for k in range(1, 13)]
                      for n in rows])
    assert isinstance(t.entry(3, 2), float)
    assert np.allclose(t.block(rows, 12), exact, rtol=4 * np.finfo(float).eps,
                       atol=0)


def test_the_features_pass_holds_little_beyond_its_record():
    # Each sampled column is written into the record in place, so once the
    # term stores are filled the pass holds the record and a few n-wide
    # vectors, not a mask and a copy as wide as the sampled columns.
    t = compose("cesaro", "omega-inv")
    n = 5000
    ks = np.array(list(range(1, 9)) + [12, 16, 24, 32, 48, 64, 96, 128, 192,
                                       256, 1024])
    rows = np.arange(1, n + 1)
    t._terms(n + 1)
    t.mean._floats(n)
    tracemalloc.start()
    try:
        out = t._features_floats(rows, ks, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * out.nbytes, (peak, out.nbytes)
