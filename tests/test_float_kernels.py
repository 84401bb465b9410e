"""The vectorized float kernels against the one-element-at-a-time code they
replaced, kept here as the reference.  The arithmetic is the same operations
in the same order, so every comparison is bit for bit."""

import math
from fractions import Fraction

import numpy as np
import pytest

from seqspace.conditions import _column_mass, _Engine, _reduce_rows
from seqspace.duality import dual_transfer_matrix
from seqspace.matrices import ROW_CUTOFF_CAP, apply, matrix_from_spec
from seqspace.sequences import Sequence, make_sequence


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Sequence.floats
# ---------------------------------------------------------------------------


def float_terms(x, n) -> list:
    """[float(x(k))], with a term too large for a float as a signed inf."""
    out = []
    for k in range(1, n + 1):
        v = x(k)
        try:
            out.append(float(v))
        except OverflowError:
            out.append(math.inf if v > 0 else -math.inf)
    return out


BUILTINS = (
    "unit:1", "unit:7", "const:1", "const:-3/7", "harmonic", "alternating",
    "power:-1", "power:-2", "power:-3", "power:-7", "power:0", "power:3",
    "power:400", "geometric:0", "geometric:1", "geometric:-1",
    "geometric:1/2", "geometric:-1/2", "geometric:3/4", "geometric:-3/8",
    "geometric:1/1024", "geometric:-7/1024", "geometric:3/2097152",
    "geometric:2", "geometric:-2", "geometric:5/2", "geometric:-12345/4096",
    "geometric:1/3", "geometric:-2/3", "list:1,-1/3,5",
    {"kind": "power", "p": -0.5},
)


@pytest.mark.parametrize("spec", BUILTINS, ids=str)
def test_sequence_floats_match_the_rule(spec):
    x = make_sequence(spec)
    for n in (1, 2, 6, 600, 2400):
        assert same_bits(x.floats(n), float_terms(x, n)), (spec, n)


def test_triangle_weights_floats_match_the_rule():
    for name in ("omega", "gamma"):
        w = matrix_from_spec(name).weights
        assert same_bits(w.floats(2400), float_terms(w, 2400)), name


def test_sequence_floats_pad_past_the_support():
    calls = []

    def rule(k):
        calls.append(k)
        return Fraction(k, 3)

    x = Sequence(rule, support_hint=4)
    assert same_bits(x.floats(9), [1 / 3, 2 / 3, 1.0, 4 / 3, 0, 0, 0, 0, 0])
    assert max(calls) == 4
    assert same_bits(x.floats(3), [1 / 3, 2 / 3, 1.0])
    unit = make_sequence("unit:5")
    assert same_bits(unit.floats(3), [0, 0, 0])
    assert same_bits(unit.floats(8), float_terms(unit, 8))
    assert same_bits(Sequence(rule, support_hint=0).floats(4), [0, 0, 0, 0])


# ---------------------------------------------------------------------------
# TaylorTransform rows and cutoffs
# ---------------------------------------------------------------------------


def taylor_row_reference(t, n, m):
    out = np.zeros(m)
    if m >= n:
        r = float(t.r)
        c = (1 - r) ** n
        vals = [c]
        for k in range(n, m):
            c *= r * k / (k - n + 1)
            vals.append(c)
        out[n - 1:] = vals
    return out


def taylor_cutoff_reference(t, n, tail_mass=1e-16):
    r = float(t.r)
    c = (1 - r) ** n
    cum = c
    k = n
    while 1.0 - cum > tail_mass and k < n + 200000:
        c *= r * k / (k - n + 1)
        k += 1
        cum += c
    return k


TAYLOR_PARAMS = ("1/10", "1/4", "3/8", "1/2", "1/3", "2/3", "9/10")


def test_taylor_cutoffs_match_the_scalar_recurrence():
    capped = 0
    for r in TAYLOR_PARAMS:
        t = matrix_from_spec(f"taylor:{r}")
        for n in (1, 2, 9, 300):
            want = taylor_cutoff_reference(t, n)
            assert t.row_cutoff(n) == want, (r, n)
            capped += want == n + ROW_CUTOFF_CAP
        assert t.row_cutoff(40, 1e-6) == taylor_cutoff_reference(t, 40, 1e-6)
    assert capped > 0  # some rows run to the cap


def test_taylor_rows_match_the_scalar_recurrence():
    for r in TAYLOR_PARAMS:
        t = matrix_from_spec(f"taylor:{r}")
        for n in (1, 2, 9, 300):
            for m in (1, n, n + 1, 700, 5000):
                assert same_bits(t.row_floats(n, m),
                                 taylor_row_reference(t, n, m)), (r, n, m)
    t = matrix_from_spec("taylor:1/3")
    top = t.row_cutoff(2)
    assert top == 2 + ROW_CUTOFF_CAP
    assert same_bits(t.row_floats(2, top), taylor_row_reference(t, 2, top))


def taylor_apply_reference(t, x, n, tail_mass=1e-16):
    """Float ``apply`` as two passes per row: the cutoff, then the row."""
    top = t.row_cutoff(n, tail_mass)
    xf = x.floats(top)
    out = np.empty(n)
    for row in range(1, n + 1):
        hi = t.row_cutoff(row, tail_mass)
        coeffs = t.row_floats(row, hi)
        out[row - 1] = coeffs[:min(hi, top)] @ xf[:min(hi, top)]
    return out


def test_taylor_apply_evaluates_each_row_once():
    for r in ("1/10", "1/4", "1/2"):
        t = matrix_from_spec(f"taylor:{r}")
        for n in (1, 2, 9, 20):
            top, entries = t.row_series(n)
            assert same_bits(entries, t.row_floats(n, top)[n - 1:]), (r, n)
        for spec in ("harmonic", "geometric:1/2", "alternating"):
            x = make_sequence(spec)
            for n in (1, 7, 20):
                got = apply(t, x, n, mode="float").entries
                assert same_bits(got, taylor_apply_reference(t, x, n)), (r, spec, n)
        x = make_sequence("const:1")
        got = apply(t, x, 5, mode="float", tail_mass=1e-6).entries
        assert same_bits(got, taylor_apply_reference(t, x, 5, 1e-6)), r


# ---------------------------------------------------------------------------
# Euler, Taylor and Riesz tables
# ---------------------------------------------------------------------------


def euler_table_reference(e, size):
    """The log-binomial formula on the whole square, masked to the triangle."""
    lf = e._logfact(size)
    n = np.arange(1, size + 1)[:, None].astype(int)
    k = np.arange(1, size + 1)[None, :].astype(int)
    mask = k <= n
    kk = np.where(mask, k, 1)
    logs = (lf[n - 1] - lf[kk - 1] - lf[np.where(mask, n - kk, 0)]
            + (n - kk) * math.log(1 - float(e.r))
            + (kk - 1) * math.log(float(e.r)))
    return np.exp(np.where(mask, logs, -np.inf))


def riesz_table_reference(a, size):
    t = np.array([float(a.weight(k)) for k in range(1, size + 1)])
    big_t = np.array([float(a.partial_sum(n)) for n in range(1, size + 1)])
    return np.tril(t[None, :] / big_t[:, None])


TABLE_PARAMS = ("1/2", "1/10", "1/3", "3/8", "5/12", "7/10", "9/10", "11/16",
                "15/16")
TABLE_SIZES = (1, 2, 8, 600, 2000)


@pytest.mark.parametrize("r", TABLE_PARAMS)
def test_euler_and_taylor_tables_match_the_reference(r):
    # Dict specs are not cached, so each table is dropped after its check.
    for size in TABLE_SIZES:
        e = matrix_from_spec({"kind": "euler", "r": r})
        assert same_bits(e.truncation_floats(size),
                         euler_table_reference(e, size)), (r, size)
        t = matrix_from_spec({"kind": "taylor", "r": r})
        rows = np.vstack([t.row_floats(n, size) for n in range(1, size + 1)])
        assert same_bits(t.truncation_floats(size), rows), (r, size)


def test_riesz_tables_match_the_reference():
    for weights in ("power:1", "power:8", "harmonic"):
        for size in TABLE_SIZES:
            a = matrix_from_spec({"kind": "riesz", "weights": weights})
            assert same_bits(a.truncation_floats(size),
                             riesz_table_reference(a, size)), (weights, size)
            rows = np.vstack([a.row_floats(n, size) for n in range(1, size + 1)])
            assert same_bits(a.truncation_floats(size), rows), (weights, size)


# ---------------------------------------------------------------------------
# DualTriangle scaled terms and tables
# ---------------------------------------------------------------------------


def dual_table_reference(u, size):
    """The table as a stack of rows, each from the scaled terms' floats."""
    sf = np.array([float(u._scaled(k)) for k in range(1, size + 2)])
    rows = []
    for n in range(1, size + 1):
        out = np.zeros(size)
        out[:n] = sf[:n] - sf[1:n + 1]
        out[n - 1] = sf[n - 1]
        rows.append(out)
    return np.vstack(rows)


def scaled_floats_reference(u, m):
    """Each scaled term made exact, then converted; zeros past the support."""
    hint = u.a.support_hint
    hi = m if hint is None else min(m, hint)
    return [float(u._scaled(k)) for k in range(1, hi + 1)] + [0.0] * (m - hi)


DUAL_TERMS = sorted({f"geometric:{sign}{Fraction(p, q)}" for q in range(1, 10)
                     for p in range(1, 2 * q + 1) for sign in ("", "-")})
DUAL_TERMS += ["harmonic", "power:-3", "list:3,-1/2,7/5,0,9"]


@pytest.mark.parametrize("mode", ("omega", "gamma"))
def test_dual_scaled_floats_match_the_exact_terms(mode):
    for spec in DUAL_TERMS:
        u = dual_transfer_matrix(spec, mode)
        assert same_bits(u._scaled_floats(4), scaled_floats_reference(u, 4)), spec
        assert same_bits(u._scaled_floats(601),
                         scaled_floats_reference(u, 601)), spec


@pytest.mark.parametrize("mode", ("omega", "gamma"))
def test_dual_table_is_the_stack_of_its_rows(mode):
    row = matrix_from_spec("euler:1/2")
    seqs = [make_sequence(s) for s in ("power:1", "harmonic", "geometric:-2/3",
                                       "alternating", "list:3,-1/2,7/5")]
    seqs.append(Sequence(lambda k: row.entry(5, k), support_hint=5,
                         label="row[5]"))
    for a in seqs:
        for size in (1, 2, 37, 600):
            u = dual_transfer_matrix(a, mode)
            table = u.truncation_floats(size)
            assert same_bits(table, dual_table_reference(u, size)), (a.label, size)
            rows = np.vstack([u.row_floats(n, size) for n in range(1, size + 1)])
            assert same_bits(table, rows), (a.label, size)


# ---------------------------------------------------------------------------
# Column mass of the equality conditions
# ---------------------------------------------------------------------------


def column_mass_reference(block, first_row, n, spread):
    rhs = 0.0
    uncertainty = spread
    for k in range(1, n + 1):
        col = block[:, k - 1]
        below = col[max(0, k - first_row + 1):]
        if len(below) == 0:
            rhs += abs(float(col[-1]))
            uncertainty += abs(float(col[-1]))
        else:
            rhs += abs(float(below.mean()))
            uncertainty += float(np.ptp(below)) if len(below) > 1 else 0.0
    return rhs, uncertainty


def test_column_mass_matches_the_column_loop():
    rng = np.random.default_rng(5)
    for depth, n, first_row in ((60, 600, 541), (1, 40, 40), (2, 30, 29),
                                (120, 1200, 1081), (60, 600, 480), (5, 9, 1)):
        block = rng.standard_normal((depth, n)) * rng.uniform(0.1, 1e3)
        got = _column_mass(block, first_row, n, 0.125)
        want = column_mass_reference(block, first_row, n, 0.125)
        assert same_bits(got, want), (depth, n, first_row)
    for name in ("cesaro", "euler:1/2", "omega-inv", "gamma", "taylor:1/4"):
        eng = _Engine(matrix_from_spec(name), 600, 1.5e-3, 60)
        for diff in (False, True):
            block = eng.final_rows(diff)
            first_row = eng.row_limit - block.shape[0] + 1
            got = _column_mass(block, first_row, eng.n, 1e-7)
            want = column_mass_reference(block, first_row, eng.n, 1e-7)
            assert same_bits(got, want), (name, diff)


# ---------------------------------------------------------------------------
# Row features and prefix traces
# ---------------------------------------------------------------------------


def row_feature_reference(t, kind):
    """The whole-table reductions the blocked features replaced."""
    if kind == "row_abs":
        return np.abs(t).sum(axis=1)
    if kind == "row_sum":
        return t.sum(axis=1)
    padded = np.hstack([t, np.zeros((t.shape[0], 1))])
    return np.abs(np.diff(padded, axis=1)).sum(axis=1)


def prefix_traces_reference(t):
    s = np.cumsum(t, axis=0)
    total = s[-1][None, :]
    shifted = np.vstack([np.zeros((1, s.shape[1])), s[:-1]])
    return np.abs(s).sum(axis=1), np.abs(total - shifted).sum(axis=1)


FEATURE_FAMILIES = ("identity", "omega", "gamma", "omega-inv", "gamma-inv",
                    "cesaro", "euler:1/2", "taylor:1/4", "riesz:power:3")


@pytest.mark.parametrize("name", FEATURE_FAMILIES)
def test_row_features_match_whole_table_reductions(name):
    a = matrix_from_spec(name)
    sizes = (1, 2, 57, 600) + ((2000,) if name in ("euler:1/2", "gamma") else ())
    for size in sizes:
        t = a.truncation_floats(size)
        for rows in (size, size // 2):
            for kind in ("row_abs", "row_sum", "row_diff_abs"):
                got = _reduce_rows(t[:rows], kind)
                assert same_bits(got, row_feature_reference(t[:rows], kind)), \
                    (name, size, rows, kind)


@pytest.mark.parametrize("name", FEATURE_FAMILIES)
def test_prefix_traces_match_the_prefix_table(name):
    a = matrix_from_spec(name)
    for size in (8, 57, 600):
        eng = _Engine(a, size, 1.5e-3, max(1, size // 10))
        heads, tails = prefix_traces_reference(a.truncation_floats(size))
        assert same_bits(eng.prefix_trace(tail=False), heads), (name, size)
        assert same_bits(eng.prefix_trace(tail=True), tails), (name, size)
