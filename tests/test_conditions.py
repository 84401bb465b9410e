import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from seqspace import cache, cli, conditions, sequences
from seqspace.conditions import (
    CLASS_TOL,
    DEFAULT_CLASS_N,
    PAIR_CONDITIONS,
    SIGMA,
    _class_window,
    _Engine,
    _probe_note,
    check_class,
    condition_report,
    condition_trace,
    oracle_check,
    oracle_samples,
    regularity_report,
    source_transfer_matrix,
    supported_pairs,
    target_transfer_matrix,
)
from seqspace.errors import SpecError, TruncationError, UnsupportedClassError
from seqspace.domains import space_from_spec
from seqspace.duality import DualTriangle, dual_membership, dual_transfer_matrix
from seqspace.matrices import (
    DENSE_LIMIT,
    apply,
    cesaro_matrix,
    compose,
    matrix_from_spec,
)
from seqspace.sequences import Sequence, classify_traces
from seqspace.verdicts import Verdict

from conftest import RuleMatrix


# ---------------------------------------------------------------------------
# static shape of the characterization table
# ---------------------------------------------------------------------------


def test_pair_table_is_well_formed():
    assert len(PAIR_CONDITIONS) == 20
    tags = {"c0", "c", "linf", "bs", "cs"}
    for (f, t), conds in PAIR_CONDITIONS.items():
        assert f in tags and t in tags
        assert conds, (f, t)
        for c in conds:
            assert c in conditions._CONDITIONS, c
    assert len(supported_pairs()) == 20


def test_pair_table_key_rows():
    assert PAIR_CONDITIONS[("c0", "linf")] == ("bounded-rows",)
    assert PAIR_CONDITIONS[("c", "c")] == \
        ("bounded-rows", "columns-converge", "row-sums-converge")
    assert PAIR_CONDITIONS[("linf", "c")] == \
        ("columns-converge", "abs-rows-match-columns")
    # bs and cs sources are linf(sigma) and c(sigma)
    for f, base in SIGMA.items():
        for t in ("c0", "c", "linf"):
            assert PAIR_CONDITIONS[(f, t)] == PAIR_CONDITIONS[(base, t)]
    assert PAIR_CONDITIONS[("bs", "c0")] == ("null-abs-rows",)


# ---------------------------------------------------------------------------
# single conditions on matrices with known traces
# ---------------------------------------------------------------------------


def test_row_diff_traces():
    # The rows of A*sigma^-1 are A's rows' adjacent differences, closed by
    # the diagonal term.  identity: |1 - 0| + |0 - 1| = 2 per row (row 1 has
    # only one step)
    idx, vals = condition_trace(compose("identity", "sigma-inv"),
                                "row-abs-sum", 200)
    assert vals[0] == 1.0
    assert np.all(vals[1:] == 2.0)
    # running sums: steps of size 1 up to the diagonal, then the drop of n
    idx2, vals2 = condition_trace(compose("omega", "sigma-inv"),
                                  "row-abs-sum", 200)
    assert np.array_equal(vals2, 2.0 * idx2 - 1.0)
    for feature in ("row-product", "row-diff-abs-sum"):
        with pytest.raises(SpecError):
            condition_trace("omega", feature, 200)


def test_gamma_row_diff_conditions():
    # the telescoping diff-sum of the gamma rows is exactly 1 for every n,
    # so the absolute row sums of gamma*sigma^-1 do not tend to 0 while
    # they stay bounded: gamma maps bs into linf but not into c0
    transfer = compose("gamma", "sigma-inv")
    rep = condition_report(transfer, "null-abs-rows")
    assert rep.verdict is Verdict.VIOLATED
    assert rep.observed == pytest.approx(1.0, abs=1e-12)
    rep2 = condition_report(transfer, "bounded-rows")
    assert rep2.verdict is Verdict.SATISFIED
    assert rep2.observed == pytest.approx(1.0, abs=1e-12)


def test_prefix_column_conditions():
    # On sigma*A the column prefix sums of A are rows: (c0 : bs) asks them
    # to stay bounded, and (linf : cs) asks them to converge in l1.
    assert condition_report(target_transfer_matrix("omega-inv", "sigma"),
                            "bounded-rows").verdict is Verdict.SATISFIED
    assert condition_report(target_transfer_matrix("gamma-inv", "sigma"),
                            "rows-converge-in-l1").verdict is Verdict.VIOLATED


def test_condition_report_memoized():
    a = matrix_from_spec("omega")
    r1 = condition_report(a, "bounded-rows")
    assert condition_report(a, "bounded-rows") is r1
    assert condition_report(a, "bounded-rows", n=300) is not r1
    with pytest.raises(SpecError):
        condition_report(a, "rows-are-nice")


def test_condition_report_fields():
    rep = condition_report("gamma", "bounded-rows")
    d = rep.to_dict()
    assert d["condition"] == "bounded-rows"
    assert d["verdict"] == "violated"
    assert d["truncation"] == DEFAULT_CLASS_N
    assert d["observed"] == rep.observed and "detail" in d
    # An unset optional field is left out: no observed value, no extras.
    bare = condition_report("omega", "abs-rows-match-columns")
    assert bare.observed is None and bare.extras == {}
    assert bare.to_dict() == {"condition": "abs-rows-match-columns",
                              "verdict": "violated", "note": bare.note,
                              "truncation": DEFAULT_CLASS_N}


# ---------------------------------------------------------------------------
# classical pairs
# ---------------------------------------------------------------------------


def test_check_class_classical_cells():
    r = check_class("cesaro", "c0", "c")
    assert r.verdict is Verdict.SATISFIED
    assert [c.verdict for c in r.condition_reports] == [Verdict.SATISFIED] * 2
    assert check_class("gamma", "c0", "linf").verdict is Verdict.VIOLATED
    assert check_class("identity", "linf", "linf").verdict is Verdict.SATISFIED
    assert check_class("zero", "bs", "c0").verdict is Verdict.SATISFIED


def test_check_class_honest_inconclusive_resolves_with_depth():
    # the bidiagonal inverse's diff trace decays like 1/n: genuinely open at
    # the default truncation, decided at a deeper one via the sparse path
    assert check_class("omega-inv", "bs", "c0").verdict is Verdict.INCONCLUSIVE
    assert check_class("omega-inv", "bs", "c0",
                       n=4800).verdict is Verdict.SATISFIED


def test_check_class_unsupported():
    for f, t in (("c0", "c0"), ("bs", "bs"), ("bs", "cs"), ("cs", "bs"),
                 ("cs", "cs")):
        with pytest.raises(UnsupportedClassError):
            check_class("identity", f, t)
    with pytest.raises(UnsupportedClassError):
        check_class("identity", "c0(omega)", "c0(omega)")
    with pytest.raises(UnsupportedClassError):
        check_class("identity", "c0(cesaro)", "c")
    with pytest.raises(SpecError):
        check_class("identity", "c0", "c", route="guess")


# ---------------------------------------------------------------------------
# domain pairs and transfer matrices
# ---------------------------------------------------------------------------


def test_source_transfer_structure():
    st = source_transfer_matrix("identity", "omega")
    oi = matrix_from_spec("omega-inv")
    for n in range(1, 8):
        for k in range(1, 8):
            assert st.entry(n, k) == oi.entry(n, k)
    assert source_transfer_matrix("identity", "omega") is st


def test_target_transfer_structure():
    tt = target_transfer_matrix("omega-inv", "omega")
    for n in range(1, 8):
        for k in range(1, 8):
            assert tt.entry(n, k) == (1 if n == k else 0)


def test_check_class_domain_source():
    r = check_class("identity", "c0(omega)", "c")
    assert r.verdict is Verdict.SATISFIED
    assert r.transfer == {"name": "identity*omega-inv"}
    assert r.row_pairing["verdict"] == "satisfied"
    assert r.row_pairing["rows_checked"] >= 1


def test_check_class_domain_target():
    # mapping into the domain asks the composed coordinates to behave; the
    # composition omega * omega-inv is the identity, which keeps constants,
    # so landing in c0(omega) from c fails on the row-sum condition
    r = check_class("omega-inv", "c", "c0(omega)")
    assert r.verdict is Verdict.VIOLATED
    assert r.transfer == {"name": "omega*omega-inv"}
    assert r.conditions_required == ("bounded-rows", "null-columns",
                                     "null-row-sums")


# ---------------------------------------------------------------------------
# oracle route
# ---------------------------------------------------------------------------


def test_oracle_check_witnesses():
    o = oracle_check("gamma", "c0", "linf")
    assert o.verdict is Verdict.VIOLATED
    assert "log-slow" in o.witnesses
    o2 = oracle_check("cesaro", "c0", "c")
    assert o2.verdict is Verdict.SATISFIED
    assert o2.decisive >= 8 and o2.agreement == 1.0


@pytest.mark.parametrize("seed", (-1, 1.5, True, "0", None))
def test_a_malformed_seed_is_refused_before_any_work(seed):
    # The matrix is never read: the seed is refused first, on every route.
    for route in ("conditions", "oracle", "both"):
        with pytest.raises(SpecError, match="seed must be a non-negative"):
            check_class("no-such-matrix", "c0", "c", route=route, seed=seed)
    with pytest.raises(SpecError, match="seed must be a non-negative"):
        oracle_check("no-such-matrix", "c0", "c", seed=seed)


def test_oracle_seed_determinism():
    a = oracle_check("cesaro", "c0", "c", seed=5)
    b = oracle_check("cesaro", "c0", "c", seed=5)
    assert a.witnesses == b.witnesses
    assert [p.verdict for p in a.samples] == [p.verdict for p in b.samples]


#: Seeds of one to five 32-bit words (SeedSequence's pool holds four), the
#: CLI fuzz's 2^32 and 2^128 + 1 among them, and two benchmark seeds.
LARGE_SEEDS = (2 ** 32 - 1, 2 ** 32, 2 ** 40 + 12345, 2 ** 64 + 7,
               2 ** 128 + 1, 2 ** 128 + 99, 29101, 30201, 10 ** 30)


def test_the_random_sample_is_numpys_pcg64_draw():
    # The draw computes numpy's default_rng stream without numpy.random,
    # for seeds of any size and of numpy's integer types.
    seeds = (list(range(3000)) + list(LARGE_SEEDS)
             + [np.int64(5), np.int64(2 ** 62), np.uint64(2 ** 64 - 1)])
    for seed in seeds:
        want = np.random.default_rng(seed).uniform(-2.0, 2.0, 25)
        got = np.array(conditions._uniforms(seed))
        assert got.tobytes() == want.tobytes(), seed
    sample = dict(oracle_samples("c0", 2 ** 64 + 7))["random-finite"]
    assert [float(sample(k)) for k in range(1, 27)] == conditions._uniforms(
        2 ** 64 + 7) + [0.0]


@pytest.mark.parametrize("seed", (-1, 1.5, True, "3"))
def test_the_oracle_samples_refuse_a_malformed_seed(seed):
    # A negative seed never runs out of 32-bit words, and a float would be
    # truncated: the draw refuses both, on every path into it.
    with pytest.raises(SpecError, match="seed must be a non-negative"):
        oracle_samples("c0", seed)
    with pytest.raises(SpecError, match="seed must be a non-negative"):
        conditions._uniforms(seed)


@pytest.mark.parametrize("spec", ("cesaro", "euler:1/2", "sigma*euler:1/2"))
def test_an_engine_at_another_tolerance_runs_its_own_features_pass(spec):
    # The features record holds its analyses at its own tolerance.  An
    # engine at another one, with that record held, gets what a features
    # pass at its tolerance leaves in an empty cache.
    a = matrix_from_spec(spec) if "*" not in spec else compose(
        *spec.split("*"))
    n, window = 600, _class_window(600)
    cache.clear()
    fresh = _Engine(a, n, 1e-2, window).analyses("columns", "c")
    cache.clear()
    _Engine(a, n, CLASS_TOL, window).analyses("columns", "c")
    got = _Engine(a, n, 1e-2, window).analyses("columns", "c")
    cache.clear()
    assert repr(got) == repr(fresh)


@pytest.mark.parametrize("spec, n", (("taylor:1/4", 600),
                                     ("taylor:9/10", 3000)))
def test_a_features_record_holds_the_analyses_of_its_own_traces(spec, n):
    # The conditions leave one features record per (matrix, n, window,
    # tol), with the limit analyses at its tolerance of its two row traces
    # and of each sampled column.  taylor:1/4's row traces stop at its
    # complete-row limit; taylor:9/10 has fewer complete rows than the
    # window, so its record holds the columns' analyses alone, and its row
    # conditions stay inconclusive with the too-few-rows note.
    a, window = matrix_from_spec(spec), _class_window(n)
    cache.clear()
    reports = [condition_report(a, c, n) for c in (
        "bounded-rows", "row-sums-converge", "columns-converge")]
    held = {k: v for k, (v, _) in cache._entries.items() if k[0] == "features"}
    assert list(held) == [("features", a.key, n, window, CLASS_TOL)]
    record, = held.values()
    eng = _Engine(a, n, CLASS_TOL, window)
    want = {"columns": sequences.analyze_traces(
        np.arange(1, n + 1), eng._read()[2:], "c", CLASS_TOL, window)}
    if spec == "taylor:1/4":
        rows = eng.row_indices()
        assert rows[-1] == eng.row_limit == 358
        sums, absolute = sequences.analyze_traces(
            rows, record.traces[:, :len(rows)], "c", CLASS_TOL, window)
        want.update(row_sum=[sums], row_abs=[absolute])
    else:
        assert eng.row_limit == 174
        for got in reports[:2]:
            assert got.verdict is Verdict.INCONCLUSIVE
            assert got.note.startswith(
                f"only 174 complete rows inside the {n}-column window")
    cache.clear()
    assert sorted(record.limits) == sorted(want)
    for trace, analyses in want.items():
        assert repr(record.limits[trace]) == repr(analyses), trace


NO_NUMPY_RANDOM = """
import sys
from seqspace import check_class
check_class("cesaro", "c0(omega)", "c", route="both")
print("numpy.random" in sys.modules)
"""


def test_an_oracle_check_leaves_numpy_random_unimported():
    # The tests import numpy.random, so a fresh interpreter looks.
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", NO_NUMPY_RANDOM],
                         capture_output=True, text=True, check=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.split() == ["False"]


def test_oracle_default_window_names_the_smallest_truncation():
    # The default window is not the caller's: a truncation too small for it
    # is named with the smallest one the default accepts.
    # Its images need the window below n, as every trace of the conditions
    # route does: at n = 24 the trailing window would be the whole image.
    for n in (8, 24):
        with pytest.raises(TruncationError) as err:
            oracle_check("cesaro", "c0", "c", n=n)
        assert str(err.value) == (
            f"truncation {n} is too small for the default 24-point window: "
            "the smallest truncation it accepts is 25")
    assert oracle_check("cesaro", "c0", "c", n=25).verdict is Verdict.SATISFIED
    for n, window in ((8, 24), (40, 40)):
        with pytest.raises(TruncationError,
                           match=rf"window must satisfy 0 < window < {n}"):
            oracle_check("cesaro", "c0", "c", n=n, window=window)


def test_oracle_images_are_cached_per_seed():
    fresh = oracle_check(cesaro_matrix(), "c0", "c", seed=2).to_dict()
    shared = cesaro_matrix()
    oracle_check(shared, "c0", "c", seed=1)
    assert oracle_check(shared, "c0", "c", seed=2).to_dict() == fresh


def test_oracle_battery_is_built_once_per_space_and_seed(monkeypatch):
    from seqspace import cache, conditions

    built = []

    def counting(space, seed=0):
        built.append((str(space), seed))
        return oracle_samples(space, seed)
    monkeypatch.setattr(conditions, "oracle_samples", counting)
    cache.clear()
    want = oracle_check("omega", "c0(gamma)", "linf", n=60, seed=3).to_dict()
    oracle_check("cesaro", "c0(gamma)", "c", n=60, seed=3)
    oracle_check("cesaro", "c0(gamma)", "c", n=60, seed=4)
    oracle_check("cesaro", "c0(omega)", "c", n=60, seed=4)
    assert built == [("c0(gamma)", 3), ("c0(gamma)", 4), ("c0(omega)", 4)]
    cache.clear()
    assert oracle_check("omega", "c0(gamma)", "linf", n=60,
                        seed=3).to_dict() == want


def oracle_probes_reference(a, f, t, seed, n=DEFAULT_CLASS_N, tol=CLASS_TOL):
    """The oracle's probes with every judged image taken through the target
    domain's triangle on its own: (label, verdict, note) per sample."""
    t = space_from_spec(t)
    battery = oracle_samples(f, seed)
    probes, judged, traces = {}, [], []
    for label, x in battery:
        img = apply(a, x, n, mode="float")
        if t.is_domain and not img.overflow:
            img = apply(t.matrix, img, n, mode="float")
        if img.overflow:
            probes[label] = (Verdict.INCONCLUSIVE,
                             f"transform overflowed at index {img.overflow_index}")
        else:
            judged.append(label)
            traces.append(img.entries)
    if traces:
        for label, (verdict, info) in zip(judged, classify_traces(
                np.array(traces), t.tag, tol, _class_window(n))):
            probes[label] = (verdict, _probe_note(info))
    return [(label, *probes[label]) for label, _ in battery]


GRID_MATRICES = ("identity", "omega", "gamma", "omega-inv", "gamma-inv",
                 "cesaro", "euler:1/2", "zero")
DOMAIN_TARGETS = ("c0(omega)", "c(omega)", "linf(omega)",
                  "c0(gamma)", "c(gamma)", "linf(gamma)")


@pytest.mark.parametrize("seed", (0, 7))
def test_batched_target_images_match_per_image_probes(seed):
    for name in GRID_MATRICES:
        for f in ("c0", "c", "linf", "bs", "cs"):
            for t in DOMAIN_TARGETS:
                if (f, t.split("(")[0]) not in PAIR_CONDITIONS:
                    continue
                got = oracle_check(name, f, t, seed=seed).samples
                assert [(p.label, p.verdict, p.note) for p in got] == \
                    oracle_probes_reference(name, f, t, seed), (name, f, t)


def test_a_target_overflow_keeps_its_note():
    # Images of size 1e306 that only the omega triangle's running sums
    # take past the float range.
    huge = RuleMatrix(lambda n, k: 10 ** 306 if n == k else 0, name="huge",
                      triangle=True)
    with np.errstate(all="ignore"):
        want = oracle_probes_reference(huge, "c", "c(omega)", 0)
        got = oracle_check(huge, "c", "c(omega)").samples
    assert ("const:1", Verdict.INCONCLUSIVE,
            "transform overflowed at index 19") in want
    assert [(p.label, p.verdict, p.note) for p in got] == want


@pytest.mark.parametrize("make, n", (
    (lambda: RuleMatrix(lambda n, k: Fraction(1, 2 ** (k - n + 1))
                        if k >= n else 0, name="halving",
                        row_span=lambda n: (n, None)), 120),
    (lambda: compose("taylor:1/4", "cesaro"), 200)))
def test_rows_with_no_certified_cutoff_use_the_leading_window(make, n):
    # Neither matrix can say where its rows' tails fall off: a rule gives
    # no cutoff, and a row-infinite product gives one only through a
    # bidiagonal right factor.  Each maps c0 into c, and the row traces
    # say they read the leading window only.
    a = make()
    assert a.row_end(n) is None and a.row_cutoff(n) is None
    assert a.row_complete(n, n) is None
    rep = check_class(a, "c0", "c", n=n)
    assert rep.verdict is Verdict.SATISFIED
    bounded = {r.condition: r for r in rep.condition_reports}["bounded-rows"]
    assert ("no tail cutoff; row traces use the leading window only"
            in bounded.note)


def test_row_duals_are_judged_once_per_domain(monkeypatch):
    # The rows of T_{1/4} have no support bound, so each is paired through
    # its dual triangle.
    judged = []
    evaluate = conditions._evaluate

    def counted(eng, name):
        if isinstance(eng.a, DualTriangle):
            judged.append(name)
        return evaluate(eng, name)
    monkeypatch.setattr(conditions, "_evaluate", counted)
    cold = {}
    for tag in ("c", "linf"):
        cache.clear()
        cold[tag] = check_class("taylor:1/4", f"{tag}(omega)", "c").to_dict()
    cache.clear()
    judged.clear()
    check_class("taylor:1/4", "c0(omega)", "c")
    assert sorted(judged) == ["bounded-rows"] * 6 + ["columns-converge"] * 6
    for tag, only in (("c", "row-sums-converge"),
                      ("linf", "abs-rows-match-columns")):
        judged.clear()
        warm = check_class("taylor:1/4", f"{tag}(omega)", "c").to_dict()
        assert judged == [only] * 6, tag
        assert warm == cold[tag], tag


def test_rows_with_a_support_bound_build_no_dual_triangle(monkeypatch):
    # A finitely supported row lies in every beta dual.
    built = []
    monkeypatch.setattr(conditions, "dual_transfer_matrix",
                        lambda *args: built.append(args))
    cache.clear()
    for tag in ("c0", "c", "linf"):
        r = check_class("cesaro", f"{tag}(omega)", "c")
        assert r.row_pairing == {"verdict": "satisfied", "rows_checked": 6,
                                 "weakest_row": None}
    assert built == []


def test_finite_duals_are_read_on_their_support():
    # list:1,-2,3 has 3 nonzero terms, so its dual triangle, read at full
    # width, is +0.0 past column 3.
    cache.clear()
    for tag in ("c0", "c", "linf"):
        rep = dual_membership("list:1,-2,3", f"{tag}(omega)")
        assert rep.verdict is Verdict.SATISFIED, tag
    u = dual_transfer_matrix("list:1,-2,3", "omega")
    assert not u.truncation_floats(DEFAULT_CLASS_N)[:, 3:].any()


def test_row_duals_are_built_once_per_row_and_domain(monkeypatch):
    # Each row's dual triangle is keyed by (matrix, row, domain), so c0, c
    # and linf over omega share its features record: six rows, six records
    # and no table.
    built, tables = [], []
    features = DualTriangle._features_floats
    table = DualTriangle.truncation_floats

    def counted(self, rows, ks, n):
        built.append(self.key)
        return features(self, rows, ks, n)

    def counted_table(self, size):
        tables.append(self.key)
        return table(self, size)
    monkeypatch.setattr(DualTriangle, "_features_floats", counted)
    monkeypatch.setattr(DualTriangle, "truncation_floats", counted_table)
    cache.clear()
    for tag in ("c0", "c", "linf"):
        check_class("taylor:1/4", f"{tag}(omega)", "c")
    assert sorted(built) == [("row-dual", "taylor:1/4", nn, "omega")
                             for nn in range(1, 7)]
    assert tables == []


def test_the_support_rule_agrees_with_the_dual_triangles():
    # The rows the pairing passes as finitely supported are satisfied by
    # the numeric dual-triangle check too.
    for name in GRID_MATRICES:
        a = matrix_from_spec(name)
        for nn in range(1, 7):
            row = Sequence(lambda k, nn=nn: a.entry(nn, k),
                           support_hint=a.row_end(nn), label=f"row[{nn}]")
            for domain in ("omega", "gamma", "sigma"):
                for tag in ("c0", "c", "linf"):
                    rep = dual_membership(row, f"{tag}({domain})")
                    assert rep.verdict is Verdict.SATISFIED, \
                        (name, nn, domain, tag)


@pytest.mark.parametrize("t", ("c", "linf"))
def test_probes_do_not_depend_on_the_checks_before_them(t):
    for name in GRID_MATRICES:
        cache.clear()
        want = oracle_probes_reference(name, "c0", t, 0)
        for f in ("linf", "bs", "c0(omega)"):
            oracle_check(name, f, t)
        got = oracle_check(name, "c0", t).samples
        assert [(p.label, p.verdict, p.note) for p in got] == want, name


def test_taylor_oracle_at_the_dense_limit_keeps_its_entries():
    # One stacked transform builds each row series once, beside the
    # DENSE_LIMIT table, and evicts nothing.
    cache.clear()
    r = check_class("taylor:1/4", "c", "c", n=DENSE_LIMIT, route="both")
    assert r.routes_agree() is True
    assert cache.stats()["evictions"] == 0


def test_oracle_samples_cover_domains():
    labels = [label for label, _ in oracle_samples("c0(gamma)")]
    assert all(label.startswith("gamma-preimage:") for label in labels)
    plain = [label for label, _ in oracle_samples("c0")]
    assert "harmonic" in plain and "chirp-slow" in plain


def test_route_both_cross_checks():
    r = check_class("cesaro", "c0", "c", route="both")
    assert r.verdict is Verdict.SATISFIED
    assert r.oracle.verdict is Verdict.SATISFIED
    assert r.routes_agree() is True
    d = r.to_dict()
    assert d["routes_agree"] is True
    assert d["oracle"]["agreement"] == 1.0


def test_route_oracle_only():
    r = check_class("cesaro", "c0", "c", route="oracle")
    assert r.verdict is Verdict.SATISFIED
    assert r.conditions_verdict is None
    assert r.routes_agree() is None
    # The conditions route did not run: its fields are left out, and the
    # routes cannot agree.
    d = r.to_dict()
    assert not {"conditions_verdict", "conditions"} & set(d)
    assert d["routes_agree"] is None
    assert d["oracle"]["verdict"] == "satisfied"
    # A numpy integer seed is accepted, and its report is JSON data.
    numpy_seed = check_class("cesaro", "c0", "c", route="oracle",
                             seed=np.int64(0)).to_dict()
    assert json.dumps(numpy_seed) == json.dumps(d)


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def test_regularity_cesaro():
    r = regularity_report("cesaro")
    assert r.verdict is Verdict.SATISFIED
    assert r.row_sum_limit == pytest.approx(1.0, abs=1e-9)
    assert r.bounded_rows.observed == pytest.approx(1.0, abs=1e-12)


def test_regularity_gamma_and_omega():
    r = regularity_report("gamma")
    assert r.verdict is Verdict.VIOLATED
    assert r.bounded_rows.verdict is Verdict.VIOLATED
    # observed sup is the harmonic number at the truncation
    assert r.bounded_rows.observed == pytest.approx(8.178368103610282, rel=1e-12)
    assert regularity_report("omega").verdict is Verdict.VIOLATED


def test_regularity_identity():
    r = regularity_report("identity")
    assert r.verdict is Verdict.SATISFIED
    assert r.row_sum_limit == 1.0
    assert r.to_dict()["row_sums"]["target"] == 1.0


def test_regularity_reads_the_row_sum_limit_the_checks_left(monkeypatch):
    # row-sums-converge fills the engine's analysis of the row sums in c;
    # after (c : c) and (c : c0) a regularity report at their truncation
    # judges nothing again, and reads as a cold one.
    cache.clear()
    cold = regularity_report("cesaro", n=600).to_dict()
    cache.clear()
    check_class("cesaro", "c", "c", n=600)
    check_class("cesaro", "c", "c0", n=600)
    calls = []
    analyze = sequences.analyze_limits
    monkeypatch.setattr(sequences, "analyze_limits",
                        lambda *args: calls.append(args) or analyze(*args))
    assert regularity_report("cesaro", n=600).to_dict() == cold
    assert calls == []


def test_non_finite_tolerances_are_rejected():
    for tol in (float("inf"), float("nan"), 0.0, -1e-3):
        with pytest.raises(TruncationError, match="finite and positive"):
            check_class("cesaro", "c", "c", tol=tol)
        with pytest.raises(TruncationError, match="finite and positive"):
            condition_report("cesaro", "bounded-rows", tol=tol)
        with pytest.raises(TruncationError, match="finite and positive"):
            oracle_check("cesaro", "c", "c", tol=tol)
        with pytest.raises(TruncationError, match="finite and positive"):
            regularity_report("cesaro", n=600, tol=tol)


# ---------------------------------------------------------------------------
# Taylor transforms: certified row tails (Stieglitz-Tietz 1977: every T_r
# with 0 < r < 1 is regular, so it maps c into c and c0 into c)
# ---------------------------------------------------------------------------


def taylor_params(max_q: int) -> list:
    return sorted({Fraction(p, q) for q in range(2, max_q + 1)
                   for p in range(1, q) if gcd(p, q) == 1})


def test_taylor_known_answers_on_c():
    params = taylor_params(32)
    assert len(params) == 323
    for r in params:
        spec = f"taylor:{r}"
        got = check_class(spec, "c", "c").verdict
        if r < Fraction(1, 2):
            assert got is Verdict.SATISFIED, spec
        assert got is not Verdict.VIOLATED, spec
        assert check_class(spec, "c0", "c").verdict is not Verdict.VIOLATED, spec
    assert sum(r < Fraction(1, 2) for r in params) == 161


def test_taylor_regularity_is_never_violated():
    for r in taylor_params(12):
        assert regularity_report(f"taylor:{r}").verdict is not Verdict.VIOLATED, r


def test_taylor_with_too_few_complete_rows_is_inconclusive():
    rep = check_class("taylor:9/10", "c", "c")
    assert rep.verdict is Verdict.INCONCLUSIVE
    for part in rep.condition_reports:
        if part.condition in ("bounded-rows", "row-sums-converge"):
            assert part.verdict is Verdict.INCONCLUSIVE
            assert part.note.startswith("only 10 complete rows"), part.note
    reg = regularity_report("taylor:9/10")
    assert reg.row_sum_verdict is Verdict.INCONCLUSIVE
    assert reg.row_sum_note.startswith("only 99 complete rows")


def test_capped_taylor_rows_say_so():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["regularity", "--matrix", "taylor:999/1000", "--json"])
    assert code == 2
    doc = json.loads(out.getvalue())
    assert "capped" in doc["bounded_rows"]["note"]
    assert "capped" in doc["row_sums"]["note"]


def test_complete_taylor_rows_start_with_a_normal_float():
    near = [Fraction(3, 5), Fraction(5, 8), Fraction(7, 11), Fraction(12, 19),
            Fraction(17, 27), Fraction(19, 30), Fraction(19, 32)]
    for r in near:                  # about 1 - 1/e
        t = matrix_from_spec(f"taylor:{r}")
        last = _Engine(t, 2400, 1.5e-3, 240).row_limit
        assert t.row_lead(last) >= sys.float_info.min, r
    # Where a cutoff would still fit, a subnormal leading float ends the
    # complete rows: (1/2)**1023 is below the normal range.
    t = matrix_from_spec("taylor:1/2")
    assert t.row_cutoff(1023) <= 4000
    assert _Engine(t, 4000, 1.5e-3, 400).row_limit == 1022


def test_taylor_images_past_the_normal_range_are_judged():
    # Rows 324..600 of taylor:9/10 start from (1/10)**n = 0.0; their images
    # of the constant 1 must still read 1, so (c : c0) has a witness.
    rep = check_class("taylor:9/10", "c", "c0", route="both")
    assert rep.oracle.verdict is Verdict.VIOLATED
    assert "const:1" in rep.oracle.witnesses


def test_composed_taylor_transfer_routes_agree():
    for r in ("1/6", "1/2", "1/10"):
        rep = check_class(f"taylor:{r}", "c", "c(omega)", route="both")
        assert rep.conditions_verdict is Verdict.VIOLATED, r
        assert rep.routes_agree() is True, r


def test_taylor_bs_and_cs_targets_read_complete_rows():
    # Every row of T_r sums to 1, so row n of sigma*T_r sums to n: T_r maps
    # none of c0, c and linf into bs or cs.  Read over complete rows only,
    # the bounded-rows condition on sigma*T_r says so with the oracle.
    for f, t in (("c0", "cs"), ("c0", "bs"), ("c", "bs"), ("linf", "bs")):
        rep = check_class("taylor:1/4", f, t, route="both")
        assert rep.conditions_verdict is Verdict.VIOLATED, (f, t)
        assert rep.routes_agree() is True, (f, t)
    rep = check_class("taylor:1/4", "linf", "cs", route="both")
    assert rep.conditions_verdict is Verdict.INCONCLUSIVE


def test_taylor_source_transfers_read_complete_rows():
    # Column k of T*B, B bidiagonal, is made of T's columns k and k + 1, so
    # the product's rows are complete where T's are, one column later.
    for r in ("1/4", "1/2", "9/10"):
        t = matrix_from_spec(f"taylor:{r}")
        own = _Engine(t, DEFAULT_CLASS_N, CLASS_TOL, 60).row_limit
        for inv in ("sigma-inv", "omega-inv", "gamma-inv"):
            got = _Engine(compose(t, inv), DEFAULT_CLASS_N, CLASS_TOL,
                          60).row_limit
            assert abs(got - own) <= 1, (r, inv, got, own)
    rep = check_class("taylor:1/4", "linf(gamma)", "c0", route="both")
    assert rep.conditions_verdict is Verdict.VIOLATED
    assert rep.routes_agree() is True


def test_bs_and_cs_sources_are_sigma_domains():
    # (bs : Y) is (linf : Y) and (cs : Y) is (c : Y) on A*sigma^-1, plus a
    # pairing of A's rows with sigma.
    targets = ("c0", "c", "linf", "c0(omega)", "c(gamma)", "linf(omega)")
    for name in GRID_MATRICES + ("taylor:1/4",):
        transfer = compose(name, "sigma-inv")
        for f, base in SIGMA.items():
            for t in targets:
                rep = check_class(name, f, t)
                want = check_class(transfer, base, t)
                assert rep.conditions_required == want.conditions_required
                assert rep.condition_reports == want.condition_reports, \
                    (name, f, t)
                assert rep.row_pairing is not None, (name, f, t)


# ---------------------------------------------------------------------------
# the sampled path above DENSE_LIMIT
# ---------------------------------------------------------------------------

SAMPLED_CELLS = (("cesaro", "c0(omega)", "c"), ("euler:1/2", "c", "c(omega)"),
                 ("taylor:1/4", "c", "c"))


def verdicts_of(rep) -> tuple:
    return (rep.verdict, rep.oracle.verdict,
            tuple(c.verdict for c in rep.condition_reports))


def test_sampled_path_gives_the_dense_verdicts():
    # One row past DENSE_LIMIT the engine reads sampled rows and columns
    # through block(); its verdicts are those of the dense tables.
    cache.clear()
    start = time.perf_counter()
    sampled = [check_class(*cell, n=DENSE_LIMIT + 1, route="both")
               for cell in SAMPLED_CELLS]
    took = time.perf_counter() - start
    for cell, rep in zip(SAMPLED_CELLS, sampled):
        dense = check_class(*cell, n=DENSE_LIMIT, route="both")
        assert verdicts_of(rep) == verdicts_of(dense), cell
        assert rep.routes_agree() is True, cell
    assert took < 10.0, took


def test_sigma_targets_run_at_the_truncation_asked_for():
    # Above DENSE_LIMIT the conditions on sigma*A read sampled rows too.
    n = DENSE_LIMIT + 600
    rep = check_class("euler:1/2", "c0(omega)", "bs", n=n)
    assert rep.verdict is Verdict.SATISFIED
    for part in rep.condition_reports:
        assert part.truncation == n
        assert "reduced" not in part.note
