import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqspace.domains import (
    sections_bounded_probe,
    sections_converge_probe,
    space_from_spec,
    space_membership,
)
from seqspace.errors import SpecError, TruncationError
from seqspace.matrices import matrix_from_spec
from seqspace.sequences import (
    LimitKind,
    SpaceId,
    analyze_limit,
    analyze_limits,
    analyze_sup,
    analyze_sups,
    classify_traces,
    classify_values,
    detect_limit,
    exact_number,
    finite_vector,
    make_sequence,
    sequence_from_values,
    truncate,
)
from seqspace.verdicts import Verdict


def test_exact_number_forms():
    assert exact_number(3) == 3
    assert exact_number(Fraction(2, 7)) == Fraction(2, 7)
    assert exact_number("1/2") == Fraction(1, 2)
    assert exact_number("0.25") == Fraction(1, 4)
    # floats go through their shortest repr, so 0.1 means one tenth
    assert exact_number(0.1) == Fraction(1, 10)


def test_exact_number_rejects_junk():
    with pytest.raises(SpecError):
        exact_number(True)
    with pytest.raises(SpecError):
        exact_number("pi")
    with pytest.raises(SpecError):
        exact_number(float("inf"))
    with pytest.raises(SpecError):
        exact_number([1])


def test_builtin_sequences():
    assert make_sequence("harmonic")(3) == Fraction(1, 3)
    assert make_sequence("unit:3")(3) == 1
    assert make_sequence("unit:3")(4) == 0
    assert make_sequence("const:2")(100) == 2
    assert make_sequence("power:2")(5) == 25
    assert make_sequence("power:-2")(3) == Fraction(1, 9)
    assert make_sequence("geometric:1/2")(3) == Fraction(1, 8)
    assert make_sequence("alternating")(1) == -1
    assert make_sequence("alternating")(2) == 1


def test_make_sequence_list_and_dicts():
    s = make_sequence("list:1,1/2,-3")
    assert (s(1), s(2), s(3), s(4)) == (1, Fraction(1, 2), -3, 0)
    assert make_sequence({"kind": "unit", "k": 2})(2) == 1
    assert make_sequence({"kind": "power", "p": -1})(4) == Fraction(1, 4)
    assert make_sequence({"kind": "list", "values": [5, 6]})(2) == 6
    assert make_sequence({"kind": "builtin", "name": "harmonic"})(2) == Fraction(1, 2)
    s2 = make_sequence([1, 2, 3])
    assert s2(3) == 3 and s2(9) == 0


@pytest.mark.parametrize("spec, label", [
    ({"kind": "e", "k": 3}, "unit:3"),
    ({"kind": "unit", "k": "3"}, "unit:3"),
    ({"kind": "unit", "k": 3.0}, "unit:3"),
    ({"kind": "builtin", "name": "e", "k": 2}, "unit:2"),
    ({"kind": "power", "p": -2}, "power:-2"),
    ({"kind": "power", "p": 2.0}, "power:2"),
    ({"kind": "power", "p": 1.5}, "power:1.5"),
    ({"kind": "unit", "k": "abc"}, None),
    ({"kind": "power", "p": "x"}, None),
    ({"kind": "unit", "k": 2.7}, None),
    ({"kind": "unit", "k": Fraction(5, 2)}, None),
    ({"kind": "unit", "k": True}, None),
    ({"kind": "power", "p": True}, None),
    ({"kind": "power", "p": "1.5"}, None),
    ({"kind": "power", "p": [2]}, None),
    ({"kind": "nope"}, None),
])
def test_dict_specs_share_the_builtin_integer_rule(spec, label):
    # A dict names any builtin as the inline form does; k and an integer p
    # are ints, integral numbers or strings of ints, and nothing else.
    if label is None:
        with pytest.raises(SpecError):
            make_sequence(spec)
    else:
        assert make_sequence(spec).label == label


def test_make_sequence_passthrough_and_errors():
    s = make_sequence("harmonic")
    assert make_sequence(s) is s
    with pytest.raises(SpecError):
        make_sequence("nope")
    with pytest.raises(SpecError):
        make_sequence("unit:x")
    with pytest.raises(SpecError):
        make_sequence("list:")
    with pytest.raises(SpecError):
        make_sequence({"kind": "list", "values": []})
    with pytest.raises(SpecError):
        make_sequence("alternating:3")
    with pytest.raises(IndexError):
        s(0)


@pytest.mark.parametrize("spec, position", (
    ("list:1,,2", 2), ("list:,1", 1), ("list:1,2,", 3), ("list:1, ,2", 2)))
def test_an_empty_list_item_is_refused_by_position(spec, position):
    # Dropping it would shift every entry after it by one index.
    with pytest.raises(SpecError, match=f"empty item at position {position}$"):
        make_sequence(spec)


def test_sequence_from_values_keeps_floats():
    s = sequence_from_values([1, 0.5, "1/3"])
    assert s(1) == 1 and isinstance(s(1), int)
    assert isinstance(s(2), float)
    assert s(3) == Fraction(1, 3)


def test_truncate_exact():
    v = truncate(make_sequence("harmonic"), 4)
    assert v.entries == (1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    assert v.value(4) == Fraction(1, 4)
    with pytest.raises(IndexError):
        v.value(5)
    with pytest.raises(TruncationError):
        truncate(make_sequence("harmonic"), 0)


def test_finite_vector_overflow_flag():
    fv = finite_vector([1.0, float("inf"), 3.0])
    assert fv.overflow and fv.overflow_index == 2
    assert fv.entries[1] == 0.0
    # an overflowing trace never yields a decisive limit
    padded = finite_vector([1.0, float("nan")] + [0.0] * 58)
    assert detect_limit(padded).kind is LimitKind.INCONCLUSIVE


def test_analyze_limit_constant_converges():
    idx = np.arange(1, 601)
    lv = analyze_limit(idx, np.full(600, 2.5), 1e-9, 60)
    assert lv.kind is LimitKind.CONVERGES
    assert lv.value == 2.5


def test_analyze_limit_harmonic_numbers_diverge():
    idx = np.arange(1, 601)
    lv = analyze_limit(idx, np.cumsum(1.0 / idx), 1e-9, 60)
    assert lv.kind is LimitKind.DIVERGES


def test_analyze_limit_alternating_oscillates():
    idx = np.arange(1, 601)
    lv = analyze_limit(idx, (-1.0) ** idx, 1e-9, 60)
    assert lv.kind is LimitKind.OSCILLATES
    # decaying alternation is not oscillation, but not convergence either
    # at this tolerance: the verdict must stay open
    lv2 = analyze_limit(idx, (-1.0) ** idx / idx, 1e-9, 60)
    assert lv2.kind is LimitKind.INCONCLUSIVE


def test_analyze_limit_growing_swings():
    # slow sweep with growing peaks: no adjacent alternation, not monotone,
    # but the envelope clearly grows -> oscillation
    idx = np.arange(1, 601)
    lv = analyze_limit(idx, np.sin(4 * np.sqrt(idx)) * np.sqrt(idx), 1e-9, 60)
    assert lv.kind is LimitKind.OSCILLATES
    # same sweep with a flat envelope must NOT be called: the trace is
    # indistinguishable from slow settling at this truncation
    lv2 = analyze_limit(idx, np.sin(4 * np.sqrt(idx)), 1e-9, 60)
    assert lv2.kind is LimitKind.INCONCLUSIVE


def test_analyze_sup_plateau_and_growth():
    idx = np.arange(1, 601)
    plateau = np.minimum(idx, 50) / 50.0
    v, info = analyze_sup(idx, plateau, 1e-9, 60)
    assert v is Verdict.SATISFIED
    assert info["sup_observed"] == 1.0
    assert info["half_span_growth"] == 0.0

    v2, info2 = analyze_sup(idx, np.cumsum(1.0 / idx), 1e-9, 60)
    assert v2 is Verdict.VIOLATED
    assert info2["trend_slope"] > 0

    # creeping growth that has neither plateaued nor trended hard enough
    v3, _ = analyze_sup(idx, 1.0 - 1.0 / idx, 1e-9, 60)
    assert v3 is Verdict.INCONCLUSIVE


def test_classify_values_per_tag():
    idx = np.arange(1, 601)
    tol, w = 1.5e-3, 60
    assert classify_values(1.0 / idx**2, "c0", tol, w) is Verdict.SATISFIED
    assert classify_values(np.ones(600), "c0", tol, w) is Verdict.VIOLATED
    # 1/k genuinely straddles this tolerance at n=600: must stay open
    assert classify_values(1.0 / idx, "c0", tol, w) is Verdict.INCONCLUSIVE
    assert classify_values(np.ones(600), "c", tol, w) is Verdict.SATISFIED
    assert classify_values((-1.0) ** idx, "c", tol, w) is Verdict.VIOLATED
    assert classify_values((-1.0) ** idx, "linf", tol, w) is Verdict.SATISFIED
    assert classify_values((-1.0) ** idx, "bs", tol, w) is Verdict.SATISFIED
    assert classify_values((-1.0) ** idx, "cs", tol, w) is Verdict.VIOLATED
    assert classify_values((-0.5) ** idx, "cs", tol, w) is Verdict.SATISFIED
    with pytest.raises(SpecError):
        classify_values(np.ones(10), "lp", tol, 2)


def test_space_membership_reads_specs_lists_and_windows():
    assert space_membership(make_sequence("geometric:1/2"), "c0", 400) \
        is Verdict.SATISFIED
    with pytest.raises(TruncationError):
        space_membership(make_sequence("harmonic"), "c0", 10, window=10)
    # String and dict specs are resolved as sequences; a list is a finitely
    # supported sequence.
    assert space_membership("alternating", "c", 100) is Verdict.VIOLATED
    assert space_membership({"kind": "builtin", "name": "alternating"},
                            "linf", 100) is Verdict.SATISFIED
    assert space_membership([1.0] * 100, "c", 100) is Verdict.SATISFIED
    assert space_membership([1.0] * 10, "c0", 100) is Verdict.SATISFIED


@pytest.mark.parametrize("probe, length", [
    (lambda n, **kw: space_membership("harmonic", "c0", n, **kw), 40),
    (lambda n, **kw: space_membership("harmonic", "c0(omega)", n, **kw), 40),
    (lambda n, **kw: sections_bounded_probe("omega", "harmonic", n, **kw), 40),
    (lambda n, **kw: sections_converge_probe("omega", "harmonic", n, **kw),
     39),
], ids=["membership", "membership domain", "sections bounded",
        "sections converge"])
def test_single_trace_probes_refuse_a_window_as_long_as_the_trace(probe,
                                                                   length):
    # A trailing window as long as the trace leaves nothing before it; the
    # section residuals stop at n - 1, so that trace is one shorter than n.
    with pytest.raises(TruncationError,
                       match=rf"0 < window < {length}, got {length}"):
        probe(40, window=length)
    probe(40)


@pytest.mark.parametrize("tol", (float("inf"), float("nan")))
def test_malformed_tolerances_are_rejected(tol):
    # An infinite tolerance once settled every trace, and NaN gave
    # arbitrary verdicts.
    idx = np.arange(1.0, 101.0)
    swings = (-1.0) ** idx
    overflowed = finite_vector(np.where(idx > 50, np.inf, swings))
    assert overflowed.overflow
    probes = {
        "analyze_limit": lambda: analyze_limit(idx, swings, tol, 10),
        "analyze_limits": lambda: analyze_limits(idx, swings[None], tol, 10),
        "analyze_sup": lambda: analyze_sup(idx, idx, tol, 10),
        "analyze_sups": lambda: analyze_sups(idx, idx[None], tol, 10),
        "detect_limit": lambda: detect_limit(
            truncate(make_sequence("alternating"), 100), tol),
        "classify_values": lambda: classify_values(swings, "c", tol, 10),
        "classify_traces": lambda: classify_traces(swings[None], "bs", tol, 10),
        "space_membership": lambda: space_membership(
            "alternating", "c", 100, tol=tol),
        "space_membership domain": lambda: space_membership(
            "alternating", "c(omega)", 100, tol=tol),
        "sections_bounded_probe": lambda: sections_bounded_probe(
            "omega", "geometric:1/2", 50, tol),
        "sections_converge_probe": lambda: sections_converge_probe(
            "omega", "geometric:1/2", 50, tol),
        # An overflowed input is judged on the tolerance before its
        # overflow makes the answer inconclusive.
        "detect_limit overflowed": lambda: detect_limit(overflowed, tol),
        "space_membership overflowed": lambda: space_membership(
            overflowed, "c", 100, tol=tol),
        "space_membership domain transform overflowed":
            lambda: space_membership("geometric:-1000000", "c(omega)", 200,
                                     tol=tol),
    }
    for name, probe in probes.items():
        with pytest.raises(TruncationError, match="finite and positive"):
            probe()
            pytest.fail(name)


def test_space_id():
    assert str(SpaceId("c0")) == "c0"
    assert not SpaceId("bs").is_domain
    with pytest.raises(SpecError):
        SpaceId("ell2")
    with pytest.raises(SpecError):
        # matrix domains only sit over c0/c/linf
        SpaceId("bs", matrix=object())
    # A domain needs a lower triangle however the space is built.
    with pytest.raises(SpecError) as direct:
        SpaceId("c", matrix_from_spec("taylor:1/4"))
    with pytest.raises(SpecError) as parsed:
        space_from_spec("c(taylor:1/4)")
    assert str(direct.value) == str(parsed.value) == \
        "domain spaces need a lower triangle, got 'taylor'"


def test_detect_limit_window_validation():
    v = truncate(make_sequence("const:1"), 10)
    with pytest.raises(TruncationError):
        detect_limit(v, window=10)


@given(st.integers(min_value=-50, max_value=50))
def test_constant_sequences_converge(c):
    v = truncate(make_sequence({"kind": "constant", "c": c}), 120)
    lv = detect_limit(v)
    assert lv.kind is LimitKind.CONVERGES
    assert lv.value == pytest.approx(float(c))


@given(st.fractions(min_value=Fraction(-3, 4), max_value=Fraction(3, 4)))
def test_geometric_partial_sums_settle(r):
    s = make_sequence({"kind": "geometric", "r": r})
    sums = np.cumsum(truncate(s, 200).as_floats())
    lv = analyze_limit(np.arange(1, 201), sums, 1e-9, 20)
    assert lv.kind is LimitKind.CONVERGES
    limit = float(r) / (1.0 - float(r))
    assert lv.value == pytest.approx(limit, abs=1e-9)


def test_traces_near_the_float_max_are_judged_without_warnings():
    # Spreads, sums, slopes and products of differences of these traces
    # overflow (and inf - inf is NaN); the overflow keeps its sign, so the
    # alternating trace still oscillates, and numpy warns of nothing.
    k = np.arange(1, 201)
    big = 1.5e308
    traces = np.array([big * (-1.0) ** k, np.linspace(-1, 1, 200) * big,
                       np.full(200, big), big * np.sin(k / 7.0),
                       np.where(k > 100, big, -big)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        limits = analyze_limits(k, traces, 1e-3, 20)
        analyze_sups(k, traces, 1e-3, 20)
        for tag in ("c0", "c", "cs", "linf", "bs"):
            classify_traces(traces, tag, 1e-3, 20)
    assert limits[0].kind is LimitKind.OSCILLATES


def test_a_trace_settling_near_the_float_max_converges_to_it():
    # The window's sum overflows though its entries are finite, so its mean
    # is taken as a scaled sum: the limit is the plateau, not inf.
    got = analyze_limit(range(1, 201), [1.5e308] * 200, 1e-3, 20)
    assert got.kind is LimitKind.CONVERGES
    assert got.value == 1.5e308 and math.isfinite(got.trend_slope)
    small = analyze_limit(range(1, 201), [0.1] * 200, 1e-3, 20)
    assert small.value == np.mean([0.1] * 20)
