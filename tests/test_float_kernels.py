"""The vectorized float kernels against the one-element-at-a-time code they
replaced, kept here as the reference.  The arithmetic is the same operations
in the same order, so every comparison is bit for bit."""

import math
import sys
import warnings
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqspace import cache
from seqspace import matrices as mat
from seqspace import sequences as seq
from seqspace.conditions import (_column_mass, _Engine, _reduce_rows,
                                 oracle_check)
from seqspace.duality import DualTriangle, dual_transfer_matrix
from seqspace.errors import FloatRangeError, TruncationError
from seqspace.matrices import (
    DENSE_LIMIT,
    ROW_CUTOFF_CAP,
    ROW_TAIL_MASS,
    RuleMatrix,
    TaylorTransform,
    apply,
    apply_many,
    inverse_of,
    invert_triangle,
    matrix_from_spec,
)
from seqspace.sequences import (
    FiniteVector,
    LimitKind,
    LimitVerdict,
    Sequence,
    analyze_limit,
    analyze_limits,
    analyze_sup,
    analyze_sups,
    classify_traces,
    classify_values,
    finite_vector,
    finite_vectors,
    limit_exists_verdict,
    make_sequence,
    null_limit_verdict,
)
from seqspace.verdicts import Verdict


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


@pytest.mark.parametrize("spec", ("geometric:1e400", "geometric:-3e30"))
def test_geometric_floats_past_int64_match_the_rule(spec):
    # The odd parts, 5**400 and -3 * 5**30, have no power below 2**53, and
    # neither fits an int64.  1e400 overflows at once, -3e30 past k = 10.
    x = make_sequence(spec)
    for n in (0, 1, 5, 12):
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


def taylor_cutoff_reference(t, n):
    """The certified cutoff one column at a time: the first column K past
    the row's mode with a_{n,K} r K / (K (1 - r) - (n - 1)) <= ROW_TAIL_MASS,
    each log a_{n,K} from lgamma."""
    r = float(t.r)
    k = max(n, math.floor((n - 1) / (1 - t.r)) + 1)
    while k < n + ROW_CUTOFF_CAP:
        log_a = (math.lgamma(k) - math.lgamma(n) - math.lgamma(k - n + 1)
                 + n * math.log1p(-r) + (k - n) * math.log(r))
        if (log_a + math.log(r * k) - math.log(k * (1 - r) - (n - 1))
                <= math.log(ROW_TAIL_MASS)):
            return k
        k += 1
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
    assert capped == 0  # every row is certified well before the cap


def test_taylor_rows_match_the_scalar_recurrence():
    for r in TAYLOR_PARAMS:
        t = matrix_from_spec(f"taylor:{r}")
        for n in (1, 2, 9, 300):
            for m in (1, n, n + 1, 700, 5000):
                assert same_bits(t.block([n], m)[0],
                                 taylor_row_reference(t, n, m)), (r, n, m)
    t = matrix_from_spec("taylor:1/3")
    top = t.row_cutoff(2)
    assert top == taylor_cutoff_reference(t, 2) < 2 + ROW_CUTOFF_CAP
    assert same_bits(t.block([2], top)[0], taylor_row_reference(t, 2, top))


def taylor_log_row(r, n, stop):
    """log a_{n,k} for k = n, n+1, ..., from lgamma, out to the first column
    past the mode where it is below ``stop``."""
    out, k = [], n
    while True:
        log_a = (math.lgamma(k) - math.lgamma(n) - math.lgamma(k - n + 1)
                 + n * math.log1p(-r) + (k - n) * math.log(r))
        out.append(log_a)
        if k * (1 - r) > n - 1 and log_a < stop:
            return out
        k += 1


def test_taylor_cutoffs_are_certified():
    # The mass beyond K summed directly (in log space, never as 1 - sum)
    # is within the tail mass, and K is at most 10 % past the first column
    # where that holds.
    for r in ("1/10", "1/3", "1/2", "2/3", "9/10"):
        t = matrix_from_spec(f"taylor:{r}")
        for n in (1, 2, 9, 300, 2000):
            logs = taylor_log_row(float(t.r), n, math.log(ROW_TAIL_MASS) - 60)

            def tail(k):          # the mass at columns k+1, k+2, ...
                return math.fsum(math.exp(v) for v in logs[k - n + 1:])

            top = t.row_cutoff(n)
            assert tail(top) <= ROW_TAIL_MASS, (r, n, top)
            lo, hi = n, top       # the first column with a small tail
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = ((lo, mid) if tail(mid) <= ROW_TAIL_MASS
                          else (mid + 1, hi))
            assert top <= 1.1 * lo, (r, n, top, lo)
            assert top - n <= 1.1 * (lo - n) + 1, (r, n, top, lo)

def taylor_apply_reference(t, x, n):
    """Float ``apply`` as two passes per row: the cutoff, then the row."""
    top = t.row_cutoff(n)
    xf = x.floats(top)
    out = np.empty(n)
    for row in range(1, n + 1):
        hi = t.row_cutoff(row)
        coeffs = t.block([row], hi)[0]
        out[row - 1] = coeffs[:min(hi, top)] @ xf[:min(hi, top)]
    return out


def test_taylor_apply_evaluates_each_row_once():
    for r in ("1/10", "1/4", "1/2"):
        t = matrix_from_spec(f"taylor:{r}")
        for n in (1, 2, 9, 20):
            top, entries = t.row_series(n)
            assert same_bits(entries, t.block([n], top)[0, n - 1:]), (r, n)
        for spec in ("harmonic", "geometric:1/2", "alternating"):
            x = make_sequence(spec)
            for n in (1, 7, 20):
                got = apply(t, x, n, mode="float").entries
                assert same_bits(got, taylor_apply_reference(t, x, n)), (r, spec, n)


def test_taylor_apply_builds_each_row_series_once(monkeypatch):
    # Once per stack of images: no row series outlives its transform.
    t = TaylorTransform(Fraction(1, 3))
    real, calls = t.row_series, []

    def counted(n):
        calls.append(n)
        return real(n)
    monkeypatch.setattr(t, "row_series", counted)
    apply_many(t, ["harmonic", "alternating", "const:1"], 40)
    assert sorted(calls) == list(range(1, 41))


def test_stacked_taylor_images_keep_their_bits():
    specs = ("harmonic", "alternating", "const:1", "geometric:1/2",
             "power:-2")
    for r in ("1/10", "1/4", "9/10"):
        t = matrix_from_spec(f"taylor:{r}")
        xs = [make_sequence(spec) for spec in specs]
        for n in (1, 7, 40, 400):
            got = apply_many(t, xs, n)
            for x, image in zip(xs, got):
                alone = apply(t, x, n, mode="float")
                assert same_bits(image.entries, alone.entries), (r, n, x.label)
                assert image.origin == alone.origin
                if n <= 40:
                    want = taylor_apply_reference(t, x, n)
                    assert same_bits(image.entries, want), (r, n, x.label)
    # A row-finite matrix applies each sequence as alone.
    xs = [make_sequence(spec) for spec in specs]
    for image, x in zip(apply_many("cesaro", xs, 50), xs):
        assert same_bits(image.entries,
                         apply("cesaro", x, 50, mode="float").entries)


def test_stacked_table_images_past_the_dense_limit_keep_their_bits():
    # E_{1/2} has no vectorized form: past DENSE_LIMIT each image is taken
    # block of rows by block of rows, the blocks built once per stack.
    n = DENSE_LIMIT + 1
    xs = [make_sequence(spec) for spec in ("harmonic", "alternating", "const:1")]
    got = apply_many("euler:1/2", xs, n)
    for image, x in zip(got, xs, strict=True):
        alone = apply("euler:1/2", x, n, mode="float")
        assert same_bits(image.entries, alone.entries), x.label
        assert image.origin == alone.origin == f"euler({x.label})"
    assert np.abs(got[2].entries - 1.0).max() < 1e-9   # rows sum to 1


def test_taylor_rows_past_the_normal_range_keep_their_mass():
    # (1/10)**n is subnormal from n = 308 and 0.0 from n = 324, yet every
    # row of T_{9/10} is a probability mass: T maps 1 to 1.
    t = matrix_from_spec("taylor:9/10")
    ones = apply(t, "const:1", 600, mode="float").entries
    assert np.abs(ones - 1.0).max() < 1e-9
    for n in (307, 308, 323, 324, 600):
        top, entries = t.row_series(n)
        logs = np.array([math.lgamma(k) - math.lgamma(n)
                         - math.lgamma(k - n + 1) + n * math.log1p(-0.9)
                         + (k - n) * math.log(0.9)
                         for k in range(n, top + 1)])
        normal = logs > math.log(sys.float_info.min)
        assert np.abs(np.log(entries[normal]) - logs[normal]).max() < 1e-9, n
        assert abs(math.fsum(entries) - 1.0) < 1e-9, n
    # A row whose leading float is normal keeps the recurrence's bits.
    top, entries = t.row_series(307)
    assert same_bits(entries, t.block([307], top)[0, 306:])


# ---------------------------------------------------------------------------
# Euler, Taylor and Riesz tables
# ---------------------------------------------------------------------------


def euler_table_reference(e, size):
    """Pascal's rule row by row over the whole width from row 1 = [1]:
    a_{n+1,k} = (1-r) a_nk + r a_{n,k-1}."""
    q, r = float(1 - e.r), float(e.r)
    out = np.zeros((size, size))
    out[0, 0] = 1.0
    for n in range(1, size):
        np.multiply(out[n - 1], q, out=out[n])
        out[n, 1:] += r * out[n - 1, :-1]
    return out


def riesz_table_reference(a, size):
    t = np.array([float(a.weights(k)) for k in range(1, size + 1)])
    big_t = np.array([float(a.partial_sum(n)) for n in range(1, size + 1)])
    return np.tril(t[None, :] / big_t[:, None])


TABLE_PARAMS = ("1/2", "1/10", "1/3", "3/8", "5/12", "7/10", "9/10", "11/16",
                "15/16")
TABLE_SIZES = (1, 2, 8, 600, 2000)


def test_euler_tables_do_not_depend_on_the_tables_built_before():
    # Two new matrices; one builds its 600 x 600 table before its 2000 x
    # 2000 one.
    grown = mat.EulerMeans(Fraction(1, 2))
    grown.truncation_floats(600)
    fresh = mat.EulerMeans(Fraction(1, 2))
    assert same_bits(grown.truncation_floats(2000), fresh.truncation_floats(2000))


@pytest.mark.parametrize("r", TABLE_PARAMS)
def test_euler_and_taylor_tables_match_the_reference(r):
    # Dict specs resolve to the shared spec matrices, whose tables stay in
    # the evaluation cache until they are evicted.
    for size in TABLE_SIZES:
        e = matrix_from_spec({"kind": "euler", "r": r})
        assert same_bits(e.truncation_floats(size),
                         euler_table_reference(e, size)), (r, size)
        t = matrix_from_spec({"kind": "taylor", "r": r})
        rows = np.vstack([t.block([n], size)[0] for n in range(1, size + 1)])
        assert same_bits(t.truncation_floats(size), rows), (r, size)


@pytest.mark.parametrize("r", TABLE_PARAMS)
def test_euler_rows_are_within_linear_rounding_of_the_exact_rows(r):
    # Each step of Pascal's rule rounds two products and their sum, and
    # float(r) and float(1 - r) each differ from r and 1 - r by at most
    # half an ulp.  Every term is positive, so the relative error of row n
    # is at most about 2 (n - 1) eps (Higham 2002, ch. 3-4); the bound
    # below is 2 n eps.
    eps = sys.float_info.epsilon
    e = matrix_from_spec({"kind": "euler", "r": r})
    rows = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 199, 200)
    table = e.block(rows, 200)
    for got, n in zip(table.tolist(), rows):
        for k in range(1, n + 1):
            exact = e.entry(n, k)
            assert abs(Fraction(got[k - 1]) - exact) <= 2 * n * eps * exact, \
                (r, n, k)
        assert not any(got[n:]), (r, n)


@pytest.mark.parametrize("n", (600, 887, 2000, 2401))
def test_euler_rows_have_the_table_bits_however_they_are_read(n):
    # One walk serves a whole read, so a row's bits depend neither on the
    # chunk size, nor on the rows and width read with it, nor on whether a
    # table is cached (below n = 912 at the default cap) or the rows stream.
    e = mat.EulerMeans(Fraction(5, 7))
    table = euler_table_reference(e, n)
    rows = np.arange(1, n + 1)
    for step in (1, 7, 16, 54):
        got = np.concatenate([t for _, t in e._row_chunks(rows, n, step)])
        assert same_bits(got, table), (n, step)
    for row in (1, 2, n // 2, n - 1, n):
        for m in (9, n):
            assert same_bits(e.block([row], m), table[row - 1:row, :m]), \
                (n, row, m)
    eng = _Engine(e, n, 1.5e-3, n // 10)
    sampled = eng.row_indices()
    got = np.concatenate([t for _, t in eng._chunks(sampled, n)])
    assert same_bits(got, table[sampled - 1]), n


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
def test_riesz_tables_match_the_reference():
    # The partial sums of const:1e-400 are 0.0 as floats: 0/0 on and below
    # the diagonal, zeros above it.
    for weights in ("power:1", "power:8", "harmonic", "const:1e-400"):
        for size in TABLE_SIZES:
            a = matrix_from_spec({"kind": "riesz", "weights": weights})
            assert same_bits(a.truncation_floats(size),
                             riesz_table_reference(a, size)), (weights, size)
            rows = np.vstack([a.block([n], size)[0] for n in range(1, size + 1)])
            assert same_bits(a.truncation_floats(size), rows), (weights, size)


# ---------------------------------------------------------------------------
# DualTriangle scaled terms and tables
# ---------------------------------------------------------------------------


def scaled_floats_reference(a, mode, m):
    """The omega and gamma scaled terms, a_k / k and k a_k, each made exact
    and then converted; zeros past the support of ``a``."""
    hint = a.support_hint
    hi = m if hint is None else min(m, hint)
    exact = [mat._exact_div(a(k), k) if mode == "omega" else k * a(k)
             for k in range(1, hi + 1)]
    return [float(v) for v in exact] + [0.0] * (m - hi)


def dual_table_reference(u, mode, size):
    """The omega or gamma table as a stack of rows, each from the scaled
    terms' floats: their differences below the diagonal, the term on it."""
    sf = np.array(scaled_floats_reference(u.a, mode, size + 1))
    rows = []
    for n in range(1, size + 1):
        out = np.zeros(size)
        out[:n] = sf[:n] - sf[1:n + 1]
        out[n - 1] = sf[n - 1]
        rows.append(out)
    return np.vstack(rows)


def dual_terms_reference(u, m):
    """Exact a_k d_k and a_k s_k for k = 1..m, each rounded once; +0.0 and
    -0.0 past the support of ``a``.  s_1 lies outside the inverse: 0."""
    hint = u.a.support_hint
    hi = m if hint is None else min(m, hint)
    inv = u.inverse
    ks = range(1, hi + 1)
    diag, sub = inv.diagonals
    p = [float(Fraction(u.a(k)) * Fraction(diag(k))) for k in ks]
    q = [float(Fraction(u.a(k)) * Fraction(sub(k) if k > 1 else 0))
         for k in ks]
    return p + [0.0] * (m - hi), q + [-0.0] * (m - hi)


DUAL_TERMS = sorted({f"geometric:{sign}{Fraction(p, q)}" for q in range(1, 10)
                     for p in range(1, 2 * q + 1) for sign in ("", "-")})
DUAL_TERMS += ["harmonic", "power:-3", "list:3,-1/2,7/5,0,9"]
#: Domains whose inverses are bidiagonal: s = -d for the first three.
DUAL_DOMAINS = ("omega", "gamma", "sigma", "cesaro", "riesz:power:2")


@pytest.mark.parametrize("domain", DUAL_DOMAINS)
def test_dual_scaled_floats_match_the_exact_terms(domain):
    # An exact zero term may round to either sign: q_k = -p_k is -0.0.
    for spec in DUAL_TERMS:
        u = dual_transfer_matrix(spec, domain)
        for m in (4, 601):
            p, q = u._terms(m)
            want_p, want_q = dual_terms_reference(u, m)
            assert same_bits(p, want_p), (spec, m)
            assert np.array_equal(q, want_q), (spec, m)
            hint = u.a.support_hint
            if hint is not None:
                assert np.signbit(q[hint:]).all(), (spec, m)
        if domain in ("omega", "gamma"):
            assert same_bits(u._terms(601)[0],
                             scaled_floats_reference(u.a, domain, 601)), spec


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
            assert same_bits(table, dual_table_reference(u, mode, size)), \
                (a.label, size)
            rows = np.vstack([u.block([n], size)[0] for n in range(1, size + 1)])
            assert same_bits(table, rows), (a.label, size)


def dual_tril_reference(u, size):
    """The full-width builder: p_k + q_{k+1} under the diagonal of a
    size-by-size ``np.tril``, p_k on it."""
    p, q = u._terms(size + 1)
    out = np.tril(np.broadcast_to(p[:size] + q[1:size + 1], (size, size)))
    np.fill_diagonal(out, p[:size])
    return out


@pytest.mark.parametrize("mode", ("omega", "gamma", "cesaro", "riesz:power:2"))
def test_dual_table_on_its_support_matches_the_full_builder(mode):
    # Terms of both signs, zeros (one of them -0.0) and a float inside the
    # support.
    terms = (Fraction(3), Fraction(-1, 2), 0, Fraction(7, 5), -0.0, 2.5,
             Fraction(-9, 4))

    def rule(k):
        return terms[(k - 1) % len(terms)]
    for size in (1, 2, 8, 600):
        for hint in (None, 0, 1, 2, 6, size - 1, size, size + 1, size + 7):
            if hint is not None and hint < 0:
                continue
            u = dual_transfer_matrix(Sequence(rule, support_hint=hint), mode)
            got = u.truncation_floats(size)
            assert same_bits(got, dual_tril_reference(u, size)), (size, hint)


# ---------------------------------------------------------------------------
# One float kernel: block(rows, m)
# ---------------------------------------------------------------------------
# Each class once built its table with its own kernel.  Those builders are
# kept here as references: ``truncation_floats`` is now the cached
# ``block(1..size, size)`` and must equal them bit for bit.


def identity_table_reference(a, size):
    return np.eye(size)


def zero_table_reference(a, size):
    return np.zeros((size, size))


def weighted_sums_table_reference(a, size):
    return np.tril(np.broadcast_to(a._floats(size)[0], (size, size)))


def band_table_reference(a, size):
    out = np.zeros((size, size))
    for lag, v in enumerate(a._diagonals_floats(size)):
        out[np.arange(lag, size), np.arange(size - lag)] = v
    return out


def cesaro_table_reference(a, size):
    inv_n = 1.0 / np.arange(1, size + 1)
    return np.tril(np.broadcast_to(inv_n[:, None], (size, size)))


def riesz_rows_table_reference(a, size):
    t, big_t = a._floats(size)
    out = np.zeros((size, size))
    for n in range(1, size + 1):
        np.divide(t[:n], big_t[n - 1], out=out[n - 1, :n])
    return out


def weighted_means_table_reference(a, size):
    """Running sums, the Cesaro means or the Riesz means, each by the
    builder of its family."""
    if not a.mean:
        return weighted_sums_table_reference(a, size)
    if a.name == "cesaro":
        return cesaro_table_reference(a, size)
    return riesz_rows_table_reference(a, size)


def taylor_table_reference(t, size):
    r = float(t.r)
    rj = r * np.arange(size, dtype=float)
    steps = np.arange(1, size, dtype=float)
    out = np.zeros((size, size))
    for n in range(1, size + 1):
        row = out[n - 1, n - 1:]
        row[0] = (1 - r) ** n
        np.divide(rj[n:], steps[:size - n], out=row[1:])
        np.multiply.accumulate(row, out=row)
    return out


def dual_support_table_reference(u, size):
    p, q = u._terms(size + 1)
    hint = u.a.support_hint
    if hint is None or hint >= size:
        return dual_tril_reference(u, size)
    width = max(hint, 0)
    out = np.zeros((size, size))
    out[:, :width] = np.tril(np.broadcast_to(
        p[:width] + q[1:width + 1], (size, width)))
    out[range(width), range(width)] = p[:width]
    return out


def composed_table_reference(a, size):
    # A left factor with a vectorized form is applied to one column of the
    # right table at a time; a band right factor gives a term per lag l,
    # a_n,k+l b_k+l,k, lag 0 first, inside the window (two for a bidiagonal,
    # a_nk d_k + a_n,k+1 s_k+1); any other pair is the matmul of the two
    # tables.
    right = a.right.truncation_floats(size)
    if a.left._apply_carried(right[:, 0].copy(), 1, None) is not None:
        out = np.zeros((size, size))
        for k in range(size):
            out[:, k] = a.left._apply_carried(right[:, k].copy(), 1, None)[0]
        return out
    left = a.left.truncation_floats(size)
    if isinstance(a.right, mat.Band):
        diags = [v.tolist() for v in a.right._diagonals_floats(size)]
        out = np.zeros((size, size))
        for n, row in enumerate(left.tolist()):
            for k in range(size):
                term = row[k] * diags[0][k]
                for lag in range(1, len(diags)):
                    if k + lag < size:
                        term = term + row[k + lag] * diags[lag][k]
                out[n, k] = term
        return out
    return left @ right


def entry_table_reference(a, size):
    out = np.zeros((size, size))
    for n in range(1, size + 1):
        hi = a.row_end(n)
        hi = size if hi is None else min(hi, size)
        for k in range(a.row_start(n), hi + 1):
            out[n - 1, k - 1] = float(a.entry(n, k))
    return out


TABLE_REFERENCES = {
    mat.Identity: identity_table_reference,
    mat.ZeroMatrix: zero_table_reference,
    mat.WeightedMeans: weighted_means_table_reference,
    mat.Band: band_table_reference,
    mat.EulerMeans: euler_table_reference,
    mat.TaylorTransform: taylor_table_reference,
    DualTriangle: dual_support_table_reference,
    mat.ComposedMatrix: composed_table_reference,
    mat.RuleMatrix: entry_table_reference,
    mat.InverseTriangle: entry_table_reference,
}

KERNEL_SPECS = ("identity", "zero", "omega", "gamma", "omega-inv", "gamma-inv",
                "sigma", "sigma-inv", "cesaro", "cesaro-inv", "euler:1/2",
                "euler:1/10", "euler:9/10", "taylor:1/2", "taylor:1/10",
                "taylor:9/10", "riesz:power:2", "riesz:harmonic")


def fresh_riesz(weights):
    """A Riesz mean of its own, with a serial key: the dict spec of weights
    given as a sequence."""
    return matrix_from_spec({"kind": "riesz", "weights": make_sequence(weights)})


def kernel_matrices():
    """(label, fresh matrix) for every class with a float kernel."""
    def spec(name):
        kind, _, param = name.partition(":")
        if kind == "riesz":
            return fresh_riesz(param)
        if kind in ("euler", "taylor"):
            family = mat.EulerMeans if kind == "euler" else mat.TaylorTransform
            return family(Fraction(param))
        return matrix_from_spec(name)
    for name in KERNEL_SPECS:
        yield name, lambda name=name: spec(name)
    yield "riesz-inverse", lambda: mat.inverse_of(fresh_riesz("harmonic"))
    row = matrix_from_spec("euler:1/2")
    for mode in ("omega", "gamma"):
        yield f"dual[{mode}](harmonic)", \
            lambda mode=mode: dual_transfer_matrix("harmonic", mode)
        yield f"dual[{mode}](geometric)", \
            lambda mode=mode: dual_transfer_matrix("geometric:-2/3", mode)
        yield f"dual[{mode}](row[5])", lambda mode=mode: dual_transfer_matrix(
            Sequence(lambda k: row.entry(5, k), support_hint=5,
                     label="row[5]"), mode)
    yield "omega*euler", lambda: mat.ComposedMatrix(
        matrix_from_spec("omega"), matrix_from_spec("euler:1/2"))
    yield "euler*omega-inv", lambda: mat.ComposedMatrix(
        matrix_from_spec("euler:1/2"), matrix_from_spec("omega-inv"))
    yield "sigma*taylor", lambda: mat.ComposedMatrix(
        matrix_from_spec("sigma"), matrix_from_spec("taylor:1/4"))
    # Both rules apply; the left factor's vectorized form decides.
    yield "riesz*gamma-inv", lambda: mat.ComposedMatrix(
        fresh_riesz("power:2"), matrix_from_spec("gamma-inv"))
    # The identity's copy of the right table's columns is Fortran-ordered.
    yield "identity*omega-inv", lambda: mat.ComposedMatrix(
        matrix_from_spec("identity"), matrix_from_spec("omega-inv"))
    yield "euler*euler", lambda: mat.ComposedMatrix(
        matrix_from_spec("euler:1/2"), matrix_from_spec("euler:1/10"))
    yield "band rule", lambda: mat.RuleMatrix(
        lambda n, k: Fraction(n + k, 7 * n), name="band", triangle=True,
        row_span=lambda n: (max(1, n - 2), n))
    yield "band inverse", lambda: mat.invert_triangle(mat.RuleMatrix(
        lambda n, k: Fraction(n, k + 1), name="rule", triangle=True))


KERNELS = dict(kernel_matrices())


def test_every_matrix_class_has_a_table_reference():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)
    package = {cls for cls in subclasses(mat.InfiniteMatrix)
               if cls.__module__.startswith("seqspace.")}
    assert package == set(TABLE_REFERENCES)
    assert {type(make()) for make in KERNELS.values()} == package


@pytest.mark.parametrize("label", sorted(KERNELS))
def test_tables_match_the_per_class_builders(label):
    for size in (1, 2, 8, 600):
        a = KERNELS[label]()
        if isinstance(a, mat.InverseTriangle) and size > 64:
            continue     # generic inverses are exact Fractions: cubic time
        got = a.truncation_floats(size)
        want = TABLE_REFERENCES[type(a)](a, size)
        assert same_bits(got, want), (label, size)
        # Row reductions of a Fortran-ordered table can round differently.
        assert got.flags.c_contiguous, (label, size)


@st.composite
def block_reads(draw):
    """A class, a strictly increasing set of rows in 1..64, a width and a
    chunk size."""
    label = draw(st.sampled_from(sorted(KERNELS)))
    rows = sorted(draw(st.sets(st.integers(1, 64), min_size=1, max_size=64)))
    return (label, np.array(rows), draw(st.integers(1, 64)),
            draw(st.integers(1, 64)))


_block_tables = {}

#: Products read by the matmul of their factors' chunks: a read rounds as
#: its own BLAS call does, which for one row or a narrow width is not the
#: call that made the table.
MATMUL_PRODUCTS = ("euler*euler",)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(block_reads())
def test_block_reads_rows_and_columns_of_the_table(case):
    # The rows read in chunks (_row_chunks) are windows of the table it
    # holds, consecutive or not, each chunk at its place.
    label, rows, m, step = case
    if label not in _block_tables:
        a = KERNELS[label]()
        _block_tables[label] = a, np.array(a.truncation_floats(64))
    a, table = _block_tables[label]
    want = table[rows - 1, :m]
    chunks = list(a._row_chunks(rows, m, step))
    assert [lo for lo, _ in chunks] == list(range(0, len(rows), step))
    assert all(0 < len(t) <= step for _, t in chunks), (label, step)
    for got in (a.block(rows, m), np.concatenate([t for _, t in chunks])):
        if label in MATMUL_PRODUCTS:
            assert np.allclose(got, want, rtol=1e-13, atol=0), (label, m)
        else:
            assert same_bits(got, want), (label, rows, m, step)
            assert same_bits(got[:, m - 1], table[rows - 1, m - 1])


def test_composed_blocks_read_their_window_table():
    # A product's block is its stream, with the bits of its table: the
    # leading window is one chunk, and a partial read takes the same rules
    # on the rows it draws on.
    for label in ("omega*euler", "euler*omega-inv", "sigma*taylor",
                  "identity*omega-inv"):
        a = KERNELS[label]()
        table = np.array(a.truncation_floats(40))
        assert same_bits(a.block(np.arange(1, 41), 40), table)
        for rows, m in (([3], 40), ([1, 7, 40], 12), ([2, 5], 40)):
            rows = np.array(rows)
            want = a.truncation_floats(max(rows[-1], m))[rows - 1, :m]
            assert same_bits(a.block(rows, m), want), (label, rows, m)


def test_composed_blocks_past_the_dense_limit_are_the_product():
    # Above DENSE_LIMIT a product takes the rules of its table: these left
    # factors apply their running sums and means to the right factor's
    # rows, chunk by chunk.  They agree with one product of the factor
    # blocks to rounding, absolute below the smallest normal float, where
    # a float carries fewer significant bits.
    n = mat.DENSE_LIMIT + 37
    rows = np.array([1, 2, 500, n - 1, n])
    inner = np.arange(1, n + 1)
    tiny = sys.float_info.min
    for left, right in (("omega", "euler:1/2"), ("cesaro", "euler:1/2")):
        a = mat.compose(left, right)
        got = a.block(rows, n)
        want = a.left.block(rows, n) @ a.right.block(inner, n)
        assert np.allclose(got, want, rtol=1e-12, atol=tiny), (left, right)
        cols = a.block(inner, 9)
        assert np.allclose(cols[rows - 1], want[:, :9], rtol=1e-12,
                           atol=tiny), (left, right)


def test_bidiagonal_products_past_the_dense_limit_are_two_terms():
    # Above DENSE_LIMIT, A*B with B bidiagonal (diagonal d, subdiagonal s)
    # and A without a vectorized form takes a_nk d_k + a_n,k+1 s_k+1 on A's
    # rows read one column wider.
    a = mat.compose("euler:1/2", "omega-inv")
    rows = np.array([1, 2, 3, 700, 2399, 2400, 2401, 2499, 2500])
    for m in (9, 700, 2401, 2500):
        left = a.left.block(rows, m + 1)
        k = np.arange(1, m + 2, dtype=float)
        d, s = 1.0 / k, -1.0 / k          # omega-inv: d_k = 1/k, s_k = -1/k
        want = left[:, :m] * d[:m] + left[:, 1:] * s[1:]
        assert same_bits(a.block(rows, m), want), m


def test_sigma_products_past_the_dense_limit_are_running_sums(monkeypatch):
    # Above DENSE_LIMIT the rows of W*B, W running sums with weights w
    # (sigma, omega, gamma), are the running sums of B's rows scaled by w,
    # taken over chunks of B's rows: bit for bit np.cumsum(w * B), the
    # table at or below the limit.  W times a bidiagonal is the dual
    # triangle of w, whose rows come from its terms, each rounded once:
    # bit for bit its full-width builder.  W times its own inverse
    # (gamma*gamma-inv) is the identity: bit for bit np.eye.
    def reference(left, right, top, m):
        a = mat.compose(left, right)
        if isinstance(a, mat.Identity):
            return np.eye(top, m)
        if isinstance(a, DualTriangle):
            return dual_tril_reference(a, max(top, m))[:top, :m]
        w = matrix_from_spec(left)._floats(top)[0][:, None]
        b = matrix_from_spec(right).block(np.arange(1, top + 1), m)
        return np.cumsum(w * b, axis=0)

    rows = np.array([1, 2, 3, 500, 1199, 1200, 1201, 2399, 2400, 2401, 2500])
    for left in ("sigma", "omega", "gamma"):
        a = mat.compose(left, "cesaro")
        assert same_bits(a.block(rows, 300),
                         reference(left, "cesaro", 2500, 300)[rows - 1])
    # A small limit makes chunks of 12 rows, so most sums carry one over;
    # with every table a large cache entry, the right factor is read in
    # chunks too.
    monkeypatch.setattr(mat, "DENSE_LIMIT", 60)
    monkeypatch.setattr(cache, "CAP_BYTES", 0)
    for left in ("sigma", "omega", "gamma"):
        for name in ("cesaro", "euler:1/2", "gamma-inv"):
            a = mat.compose(left, name)
            want = reference(left, name, 200, 300)
            for rows in (np.arange(1, 201), np.array([1, 12, 13, 24, 25, 199])):
                assert same_bits(a.block(rows, 300), want[rows - 1]), \
                    (left, name)


#: A left factor of each class with a vectorized form: running sums, the
#: means (cesaro, riesz), a bidiagonal, and the identity and zero.
CARRIED_LEFTS = ("sigma", "omega", "gamma", "cesaro", "riesz:power:2",
                 "omega-inv", "identity", "zero")


@pytest.mark.parametrize("left", CARRIED_LEFTS)
def test_carried_forms_have_the_table_bits_in_any_chunks(left, monkeypatch):
    # The left factor's form runs over chunks of the right factor's rows,
    # carrying its state (the last undivided running sum, the previous
    # right row, or nothing) into the next chunk, and skipping the right
    # rows no requested row draws on.  Any chunks give the bits of the
    # table built one right column at a time.  The product is built as it
    # stands: compose gives identity and zero products as their factor.
    monkeypatch.setattr(cache, "CAP_BYTES", 0)   # every read streams
    size = 200
    sparse = np.array([1, 12, 13, 24, 25, 120, 199, 200])
    for right in ("cesaro", "euler:1/2", "gamma-inv"):
        a = mat.ComposedMatrix(matrix_from_spec(left), matrix_from_spec(right))
        want = composed_table_reference(a, size)
        for step in (1, 12, 54, size):
            for rows in (np.arange(1, size + 1), sparse):
                got = np.concatenate(
                    [t for _, t in a._row_chunks(rows, size, step)])
                assert same_bits(got, want[rows - 1]), (left, right, step)


#: Every builtin family, one parameter each.
BUILTIN_FACTORS = ("identity", "zero", "omega", "gamma", "omega-inv",
                   "gamma-inv", "sigma", "sigma-inv", "cesaro", "cesaro-inv",
                   "euler:1/2", "taylor:1/4", "riesz:power:2")


@pytest.mark.parametrize("factor", BUILTIN_FACTORS)
def test_identity_and_zero_products_read_as_their_factor(factor):
    # A product with identity or zero on the left, or on the right of a
    # factor with a carried form, is the factor it reads as (zero for a
    # zero product) under the product's name and with that factor's key.
    # Every read has the bits of the product built as it stands, at the
    # table sizes and past the large-entry line.  Any other product with
    # identity or zero on the right stays a product.
    rng = np.random.default_rng(7)
    carried = matrix_from_spec(factor)._apply_carried(
        np.empty((0, 1)), 1, None) is not None
    pairs = [(unit, factor) for unit in ("identity", "zero")]
    if carried:
        pairs += [(factor, unit) for unit in ("identity", "zero")]
    else:
        for unit in ("identity", "zero"):
            assert isinstance(mat.compose(factor, unit), mat.ComposedMatrix)
    for left, right in pairs:
        a = mat.compose(left, right)
        plain = mat.ComposedMatrix(matrix_from_spec(left),
                                   matrix_from_spec(right))
        same = ("zero" if "zero" in (left, right)
                else right if left == "identity" else left)
        assert a.key == matrix_from_spec(same).key, (left, right)
        assert (a.name, a.describe()) == (plain.name, plain.describe())
        assert list(a.exact_rows(range(1, 41), 40)) == \
            list(plain.exact_rows(range(1, 41), 40)), (left, right)
        for n in (200, FIRST_STREAMED, 1449):
            for m in rng.integers(1, n + 1, size=3).tolist():
                rows = np.sort(rng.choice(n, size=20, replace=False)) + 1
                assert same_bits(a.block(rows, m), plain.block(rows, m)), \
                    (left, right, n, m)
            every = np.arange(1, n + 1)
            for step in (1, 54, n):
                got, want = (np.concatenate([t for _, t in x._row_chunks(
                    every, n, step)]) for x in (a, plain))
                assert same_bits(got, want), (left, right, n, step)
            if n <= 600:
                assert same_bits(a.truncation_floats(n),
                                 plain.truncation_floats(n)), (left, right)


#: Every builtin band, and the inverse of a Riesz mean.
BANDS = ("identity", "omega-inv", "gamma-inv", "sigma-inv", "cesaro-inv",
         "riesz:power:2")


def band_factor(name):
    return mat.inverse_of(name) if name.startswith("riesz") \
        else matrix_from_spec(name)


@pytest.mark.parametrize("left", BANDS)
def test_band_products_have_the_bits_of_the_product(left):
    # A product of bands is a band whose floats add the factors' terms as
    # the left factor's carried form does on the right factor's rows: its
    # table and its streamed rows past DENSE_LIMIT have the bits of the
    # product built as it stands, and its exact window is the product's.
    # The product's table would share the band's cache key, so the
    # reference is the product's block of the same rows.
    rows = np.array([5, 77, 2500, 2501, 4000])
    for right in BANDS:
        a, b = band_factor(left), band_factor(right)
        got, plain = mat.compose(a, b), mat.ComposedMatrix(a, b)
        if mat.Identity not in (type(a), type(b)):
            assert isinstance(got, mat.Band), (left, right)
            assert got.lags == a.lags + b.lags, (left, right)
        assert same_bits(got.truncation_floats(600),
                         plain.block(np.arange(1, 601), 600)), (left, right)
        assert same_bits(got.block(rows, 3000), plain.block(rows, 3000)), \
            (left, right)
        assert list(got.exact_rows(range(1, 13), 12)) == \
            list(plain.exact_rows(range(1, 13), 12)), (left, right)


#: A weighted mean of each kind on the left of a bidiagonal: Cesaro and
#: two Riesz means.
MEANS = ("cesaro", "riesz:power:2", "riesz:harmonic")


def scale_reference(left, size):
    """Float U_1..U_size of a weighted mean: its weights' exact partial
    sums, each rounded once."""
    w = make_sequence("const:1" if left == "cesaro"
                      else left.removeprefix("riesz:"))
    return np.array([float(u) for u in
                     accumulate(w(k) for k in range(1, size + 1))])


def scaled_dual_rows_reference(u, rows, m, scale):
    """Rows ``rows`` over columns 1..m of the full-width builder
    (``dual_tril_reference``), each divided by its float U_n."""
    p, q = u._terms(m + 1)
    below = p[:m] + q[1:m + 1]
    out = np.zeros((len(rows), m))
    for i, n in enumerate(rows.tolist()):
        out[i, :min(n - 1, m)] = below[:min(n - 1, m)]
        if n <= m:
            out[i, n - 1] = p[n - 1]
    return out / scale[rows - 1, None]


@pytest.mark.parametrize("left", MEANS)
def test_a_mean_times_a_bidiagonal_is_a_scaled_dual_triangle(left):
    # Row n of a weighted mean W (a_nk = w_k / U_n) times a bidiagonal D is
    # row n of the dual triangle of w over D divided by U_n: each float
    # entry, row sum, absolute row sum and sampled column is the unscaled
    # one divided by float U_n, at the table size and past DENSE_LIMIT.
    # Its exact window is the product's.  compose builds it for each pair
    # but a mean and its own inverse, whose product is the identity.
    rows = np.array([5, 77, 2500, 2501, 4000])
    scale = scale_reference(left, 4000)
    for right in ("omega-inv", "gamma-inv", "sigma-inv", "cesaro-inv",
                  "riesz:power:2"):
        a, b = matrix_from_spec(left), band_factor(right)
        u = DualTriangle(a.weights, b, a)
        if b.key != inverse_of(a).key:
            made = mat.compose(a, b)
            assert isinstance(made, DualTriangle) and made.mean is a, \
                (left, right)
        p, q = dual_terms_reference(u, 601)
        assert same_bits(u._terms(601)[0], p), (left, right)
        assert np.array_equal(u._terms(601)[1], q), (left, right)
        want = dual_tril_reference(u, 600) / scale[:600, None]
        assert same_bits(u.truncation_floats(600), want), (left, right)
        assert same_bits(u.block(rows, 3000),
                         scaled_dual_rows_reference(u, rows, 3000, scale)), \
            (left, right)
        ks = np.array([1, 2, 7, 64, 192])
        got = u._features_floats(np.arange(1, 601), ks, 600)
        sums = dual_sums_reference(u, 600)
        assert same_bits(got[0], sums["row_sum"] / scale[:600]), (left, right)
        assert same_bits(got[1], sums["row_abs"] / scale[:600]), (left, right)
        assert same_bits(got[2:], want.T[ks - 1]), (left, right)
        assert list(u.exact_rows(range(1, 13), 12)) == list(
            mat.ComposedMatrix(a, b).exact_rows(range(1, 13), 12)), \
            (left, right)


INVERTIBLE = ("omega", "gamma", "sigma", "cesaro", "riesz:power:2")


@pytest.mark.parametrize("name", INVERTIBLE)
def test_a_factor_times_its_inverse_is_the_identity(name):
    # In either order, a factor times its closed-form or keyed inverse is
    # the identity under the product's name and with identity's key: its
    # exact window and its table are the identity's.
    a = matrix_from_spec(name)
    inv = inverse_of(a)
    for left, right in ((a, inv), (inv, a)):
        got = mat.compose(left, right)
        assert got.key == "identity", (name, left.name)
        assert got.name == f"{left.name}*{right.name}"
        assert list(got.exact_rows(range(1, 13), 12)) == [
            [int(n == k) for k in range(1, 13)] for n in range(1, 13)]
        assert same_bits(got.truncation_floats(600), np.eye(600)), name


def test_running_sums_times_an_inverse_pair_read_as_running_sums(
        monkeypatch):
    # sigma*(omega*omega-inv) and sigma*(gamma*gamma-inv), two transfers of
    # the grid, are sigma times the identity: sigma under the product's
    # name, read in blocks with sigma's bits, and no table is built.
    keys = []
    lookup = cache.lookup

    def counted_lookup(key, build, nbytes=0):
        keys.append(key)
        return lookup(key, build, nbytes)

    monkeypatch.setattr(cache, "lookup", counted_lookup)
    sigma = matrix_from_spec("sigma")
    rows = np.array([1, 2, 77, 600, 2500, 2501])
    for inner in ("omega", "gamma"):
        a = mat.compose("sigma", mat.compose(inner, f"{inner}-inv"))
        assert a.key == "sigma" and a.name == f"sigma*{inner}*{inner}-inv"
        for m in (9, 600, 2501):
            assert same_bits(a.block(rows, m), sigma.block(rows, m)), m
        _Engine(a, 600, 1.5e-3, 60).column_analyses()
        assert same_bits(
            np.concatenate([t for _, t in a._row_chunks(np.arange(1, 601),
                                                        600, 54)]),
            sigma.block(np.arange(1, 601), 600))
    assert not [k for k in keys if k[0] == "table"]


def test_band_products_keep_their_zero_terms():
    # The diagonal of L*R at an odd row n > 1 is 1 * -0.0 + 1 * 0.0, the
    # second term from the zero above R's diagonal: -0.0 + +0.0 is +0.0,
    # where the first term alone would be -0.0.  The band keeps every term
    # of the carried product, zero ones too, so it has the product's bits.
    # (The product's table shares the band's cache key, so the reference is
    # its block.)
    left = mat.Band([lambda n: 1, lambda n: 1], "ones")
    right = mat.Band([lambda n: -0.0 if n % 2 else 1, lambda n: n], "zeros")
    rows = np.arange(1, 61)
    want = mat.ComposedMatrix(left, right).block(rows, 60)
    got = mat.compose(left, right)
    assert isinstance(got, mat.Band) and got.lags == 2
    assert same_bits(got.truncation_floats(60), want)
    assert np.signbit(want.diagonal()).tolist() == [True] + [False] * 59


def test_a_three_diagonal_band_reads_its_block_in_every_form(monkeypatch):
    # The carried form on the unit vectors, carried across chunks of any
    # size, gives the band's columns, and the row-side form its rows: each
    # with the bits of its block.  As a product's left factor it carries its
    # last two right rows across chunks, skipping right rows no requested
    # row draws on.
    monkeypatch.setattr(cache, "CAP_BYTES", 0)   # every read streams
    band = mat.compose("omega-inv", "cesaro-inv")
    assert band.lags == 2
    n = 40
    table = band.block(np.arange(1, n + 1), n)
    units = np.eye(n)
    for step in (1, 2, 3, 7, n):
        parts, state = [], None
        for lo in range(0, n, step):
            got, state = band._apply_carried(units[:, lo:lo + step], lo + 1,
                                             state)
            parts.append(got)
        assert same_bits(np.concatenate(parts, axis=1).T, table), step
    assert same_bits(band._rmul_floats(units), table)
    a = mat.ComposedMatrix(band, matrix_from_spec("cesaro"))
    want = composed_table_reference(a, n)
    for step in (1, 3, n):
        for rows in (np.arange(1, n + 1), np.array([1, 2, 5, 13, 24, 40])):
            got = np.concatenate([t for _, t in a._row_chunks(rows, n, step)])
            assert same_bits(got, want[rows - 1]), step


def test_float_apply_past_the_dense_limit_reads_blocks():
    n = mat.DENSE_LIMIT + 5
    x = make_sequence("harmonic")
    for a in (matrix_from_spec("euler:1/2"), mat.compose("omega", "cesaro")):
        got = apply(a, x, n, mode="float").entries
        rows = np.vstack([a.block([k], n)[0] for k in (1, 2, n)])
        want = rows @ x.floats(n)
        assert np.allclose(got[[0, 1, n - 1]], want, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Float transforms of a stack of vectors
# ---------------------------------------------------------------------------


STACK_MATRICES = ("identity", "zero", "omega", "gamma", "omega-inv",
                  "gamma-inv", "cesaro", "riesz:power:2", "euler:1/2",
                  "taylor:1/4")


@pytest.mark.parametrize("name", STACK_MATRICES)
def test_apply_many_matches_one_vector_at_a_time(name):
    # Rows like the oracle's images, and rows that overflow only once
    # transformed (running sums of 1e306, or 1e308 times the index).
    rng = np.random.default_rng(11)
    a = matrix_from_spec(name)
    for n in (1, 2, 37, 600):
        rows = [rng.standard_normal(n) * scale
                for scale in (1.0, 1e-3, 1e200, 1e-300)]
        rows += [np.full(n, 1e306), np.full(n, 1e308), 1.0 / np.arange(1, n + 1)]
        with np.errstate(over="ignore", invalid="ignore"):
            got = apply_many(a, [FiniteVector(x) for x in rows], n)
            wants = [apply(a, FiniteVector(x), n, mode="float") for x in rows]
        assert len(got) == len(rows)
        for g, want in zip(got, wants):
            assert same_bits(g.entries, want.entries), (name, n)
            assert (g.overflow, g.overflow_index, g.origin) == (
                want.overflow, want.overflow_index, want.origin), (name, n)
    assert apply_many(a, [], 5) == []


@pytest.mark.parametrize("name", ("omega", "cesaro", "riesz:power:2",
                                  "euler:1/2", "taylor:1/4"))
def test_overflowing_float_transforms_print_no_warnings(name):
    # Running sums (omega, cesaro, riesz), products with the table (euler)
    # and rows extended to their cutoff (taylor) overflow into inf and nan;
    # the overflow is flagged in the vector, and numpy warns of nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = apply_many(name, ["geometric:-1000000"], 200)[0]
    assert got.overflow and got.overflow_index is not None


def test_overflowing_bidiagonal_diagonals_raise_float_range_errors():
    # The inverse of the Riesz means with weights 1000^-k has diagonal
    # T_n / t_n, past float range from n = 104 on.
    inv = inverse_of("riesz:geometric:1/1000")
    with pytest.raises(FloatRangeError, match=r"diagonal d_104 is too large"):
        apply(inv, "const:1", 200, mode="float")
    with pytest.raises(FloatRangeError, match="too large for a float"):
        oracle_check("identity", "c0(riesz:geometric:1/1000)", "linf", n=200)
    d, s = inv._diagonals_floats(103)
    diag, sub = inv.diagonals
    assert same_bits(d, [float(diag(n)) for n in range(1, 104)])
    assert same_bits(s, [float(sub(n)) for n in range(2, 104)])


def test_overflowing_fallback_entries_raise_float_range_errors():
    # B has diagonal 1/1000 and subdiagonal 1, so its inverse has entries
    # (-1)^(n-k) 1000^(n-k+1): past float range from a_{103,1} on.
    b = RuleMatrix(lambda n, k: Fraction(1, 1000) if n == k else int(k == n - 1),
                   name="b", triangle=True)
    inv = invert_triangle(b)
    message = r"b-inverse entry a_103,1 is too large for a float"
    with pytest.raises(FloatRangeError, match=message):
        apply(inv, "const:1", 120, mode="float")
    with pytest.raises(FloatRangeError, match=message):
        inv.truncation_floats(120)
    assert same_bits(inv.truncation_floats(102)[:, 0],
                     [float(inv.entry(n, 1)) for n in range(1, 103)])


def finite_vector_reference(values):
    """One float vector checked on its own, as before stacks."""
    arr = np.array(values, dtype=float)
    bad = ~np.isfinite(arr)
    first_bad = int(np.argmax(bad)) + 1 if bad.any() else None
    arr[bad] = 0.0
    return arr, first_bad


def test_finite_vectors_match_one_vector_at_a_time():
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((7, 40))
    stack[1, 0] = np.inf
    stack[2, [5, 9]] = [np.nan, -np.inf]
    stack[3, 39] = -np.inf
    stack[4] = np.nan
    for got, row in zip(finite_vectors(stack, ["s"] * len(stack)), stack,
                        strict=True):
        want, first = finite_vector_reference(row)
        assert same_bits(got.entries, want)
        assert (got.overflow, got.overflow_index) == (first is not None, first)
        assert not got.entries.flags.writeable and got.origin == "s"
        one = finite_vector(row)
        assert same_bits(one.entries, want) and one.overflow_index == first
    assert np.isnan(stack[4]).all()     # the input is not written


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
        block = eng.final_rows()
        first_row = eng.row_limit - block.shape[0] + 1
        got = _column_mass(block, first_row, eng.n, 1e-7)
        want = column_mass_reference(block, first_row, eng.n, 1e-7)
        assert same_bits(got, want), name


@st.composite
def column_blocks(draw):
    """(block, first_row, n, spread) as the equality conditions pass them:
    ``depth`` stacked rows ending at row ``first_row + depth - 1 <= n``."""
    depth = draw(st.integers(1, 12))
    n = draw(st.integers(depth, 40))
    first_row = draw(st.sampled_from((1, n - depth + 1))
                     | st.integers(1, n - depth + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("normal", "zeros", "sparse", "ties")))
    block = rng.standard_normal((depth, n))
    if kind == "zeros":         # +0.0 and -0.0
        block = np.where(block < 0, -0.0, 0.0)
    elif kind == "sparse":
        block[rng.random(block.shape) < 0.7] = 0.0
    elif kind == "ties":        # repeated values in a column
        block = np.round(block)
    scale = draw(st.sampled_from((1.0, 1e200, 1e-200, 3e-300)))
    spread = draw(st.sampled_from((0.0, 1e-7, 0.125)))
    return block * scale, first_row, n, spread


@settings(max_examples=300, deadline=None)
@given(column_blocks())
def test_column_mass_equals_the_column_loop(case):
    block, first_row, n, spread = case
    got = _column_mass(block, first_row, n, spread)
    want = column_mass_reference(block, first_row, n, spread)
    assert same_bits(got, want)


# ---------------------------------------------------------------------------
# Row features and prefix traces
# ---------------------------------------------------------------------------


def row_feature_reference(t, kind):
    """The whole-table reductions the blocked features replaced."""
    if kind == "row_abs":
        return np.abs(t).sum(axis=1)
    if kind == "row_sum":
        return t.sum(axis=1)
    return np.abs(t[-1:] - t).sum(axis=1)


def prefix_traces_reference(t):
    s = np.cumsum(t, axis=0)
    total = s[-1][None, :]
    shifted = np.vstack([np.zeros((1, s.shape[1])), s[:-1]])
    return np.abs(s).sum(axis=1), np.abs(total - shifted).sum(axis=1)


def running_abs_sums_reference(s):
    """The absolute row sums of a dual triangle's table ``s``, as its terms
    give them: |u_mm| plus the running sum of |u_mk|, k < m, in column
    order."""
    heads = []
    for m, row in enumerate(np.abs(s).tolist(), 1):
        total = 0.0
        for x in row[:m - 1]:
            total += x
        heads.append(row[m - 1] + total)
    return np.array(heads)


FEATURE_FAMILIES = ("identity", "omega", "gamma", "omega-inv", "gamma-inv",
                    "cesaro", "euler:1/2", "taylor:1/4", "riesz:power:3")


@pytest.mark.parametrize("name", FEATURE_FAMILIES)
def test_row_features_match_whole_table_reductions(name):
    a = matrix_from_spec(name)
    sizes = (1, 2, 57, 600) + ((2000,) if name in ("euler:1/2", "gamma") else ())
    for size in sizes:
        t = a.truncation_floats(size)
        for rows in (size, size // 2):
            for kind in ("row_abs", "row_dist"):
                got = _reduce_rows(t[:rows], kind)
                assert same_bits(got, row_feature_reference(t[:rows], kind)), \
                    (name, size, rows, kind)


@pytest.mark.parametrize("name", FEATURE_FAMILIES)
def test_prefix_traces_match_the_prefix_table(name):
    # sigma*T's table is T's column prefix sums.  Over its complete rows,
    # its absolute row sums are the prefix trace, and the distances of the
    # rows from the last one are the tail trace after each row but the first.
    # sigma times a bidiagonal is a dual triangle, whose absolute row sums
    # are one running sum of its terms, not the table's pairwise sums.
    a = matrix_from_spec(name)
    sa = mat.compose("sigma", a)
    for size in (8, 57, 600):
        t = a.truncation_floats(size)
        assert same_bits(sa.truncation_floats(size), np.cumsum(t, axis=0)), \
            (name, size)
        eng = _Engine(sa, size, 1.5e-3, max(1, size // 10))
        if eng.row_limit < eng.window:      # taylor:1/4 at size 8
            with pytest.raises(TruncationError):
                eng.row_trace("row_abs")
            continue
        heads, tails = prefix_traces_reference(t[:eng.row_limit])
        if isinstance(sa, DualTriangle):
            heads = running_abs_sums_reference(
                sa.truncation_floats(size)[:eng.row_limit])
        assert same_bits(eng.row_trace("row_abs")[1], heads), (name, size)
        assert same_bits(eng.row_trace("row_dist")[1][:-1], tails[1:]), \
            (name, size)


def signed_band(n, k):
    """Entries with both signs, and -0.0 where n + k is a multiple of 3."""
    return -0.0 if (n + k) % 3 == 0 else (-1) ** (n * k) / (n + 2 * k)


def streamed_matrices():
    yield from map(matrix_from_spec, FEATURE_FAMILIES)
    yield dual_transfer_matrix("alternating", "omega")
    yield RuleMatrix(signed_band, name="signed-band", triangle=True,
                     row_span=lambda n: (max(1, n - 2), n))
    yield mat.compose("sigma", mat.compose("euler:1/2", "omega-inv"))
    yield mat.compose("omega", "euler:1/2")
    yield mat.compose("taylor:1/4", "gamma-inv")


#: The first truncation whose table would be a large entry at the default
#: cache cap, so the first whose rows are streamed in blocks without it.
FIRST_STREAMED = next(n for n in range(1, DENSE_LIMIT + 1)
                      if cache.is_large(8 * n * n))


def dual_sums_reference(a, n) -> dict:
    """The row sums and absolute row sums of rows 1..n of a dual triangle,
    as running sums in a loop: of p_k + q_k, and of |v_k| = |p_k + q_{k+1}|
    over k < m, then |p_m|."""
    p, q = a._terms(n + 1)
    sums, absolute, run, run_abs = [], [], 0.0, 0.0
    for m in range(1, n + 1):
        run += p[m - 1] + q[m - 1]
        sums.append(run)
        absolute.append(run_abs + abs(p[m - 1]))
        run_abs += abs(p[m - 1] + q[m])
    return {"row_sum": np.array(sums), "row_abs": np.array(absolute)}


@pytest.mark.parametrize(
    "n", (200, 600, FIRST_STREAMED, 887, 1449, 2000, DENSE_LIMIT + 1))
def test_the_features_record_has_the_bits_of_its_table(n):
    # The engine reads windows of the held table below the streaming line
    # and blocks from it on.  The reference is the table, or past
    # DENSE_LIMIT a block of the row sample and one of every row.  A dual
    # triangle's row sums and absolute row sums are running sums of O(n)
    # terms instead: each has the bits of its closed form, and differs from
    # the table's sum of row m by at most m eps R_m, R_m the absolute row
    # sum: twice the bound (m - 1) u R_m on a sum of m terms whose absolute
    # values sum to at most R_m (over omega, p_k + q_k = 0 for k > 1).
    for a in streamed_matrices():
        eng = _Engine(a, n, 1.5e-3, n // 10)
        rows = eng.row_indices()
        ks = np.array(eng.column_sample())
        if n <= DENSE_LIMIT:
            table = a.truncation_floats(n)
            full, cols = table[:len(rows)], table.T[ks - 1]
        else:
            full = a.block(rows, n)
            cols = a.block(np.arange(1, n + 1), int(ks[-1])).T[ks - 1]
        for kind in ("row_sum", "row_abs", "row_dist"):
            got, want = eng.row_trace(kind)[1], row_feature_reference(full, kind)
            if isinstance(a, DualTriangle) and kind != "row_dist":
                bound = rows * np.finfo(float).eps * np.abs(full).sum(axis=1)
                assert np.all(np.abs(got - want) <= bound), (n, kind)
                want = dual_sums_reference(a, n)[kind][rows - 1]
            assert same_bits(got, want), (a.name, n, kind)
        assert same_bits(eng.columns(), cols), (a.name, n)
        want = seq.analyze_traces(np.arange(1, n + 1), cols, "c", eng.tol,
                                  eng.window)
        assert repr(eng.column_analyses()) == repr(want), (a.name, n)
        stack = eng.final_rows()
        assert same_bits(stack, full[-len(stack):]), (a.name, n)


# ---------------------------------------------------------------------------
# Batched trace analysis
# ---------------------------------------------------------------------------
#
# The per-trace heuristics the batch kernel replaced, kept verbatim as the
# reference: each row of a batch must get exactly what it got alone.


def fit_slope_reference(log_idx, vals):
    if len(vals) < 2 or np.ptp(log_idx) == 0:
        return 0.0
    x = log_idx - log_idx.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return 0.0
    return float(np.dot(x, vals - vals.mean()) / denom)


def analyze_limit_reference(indices, values, tol, window):
    idx = np.asarray(indices, dtype=float)
    vals = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(vals)):
        return LimitVerdict(LimitKind.INCONCLUSIVE, None, math.inf, 0.0,
                            note="non-finite values in trace")
    tail_i = idx[-window:]
    tail_v = vals[-window:]
    spread = float(tail_v.max() - tail_v.min())
    log_tail = np.log(tail_i)
    slope = fit_slope_reference(log_tail, tail_v)
    if spread <= tol:
        return LimitVerdict(LimitKind.CONVERGES, float(tail_v.mean()), spread,
                            slope)
    diffs = np.diff(tail_v)
    half = max(2, window // 2)
    s_head = fit_slope_reference(log_tail[:half], tail_v[:half])
    s_tail = (fit_slope_reference(log_tail[half:], tail_v[half:])
              if window - half >= 2 else slope)
    if bool(np.all(diffs >= 0)) or bool(np.all(diffs <= 0)):
        sustained = abs(s_head) > 0 and \
            abs(s_tail) >= seq.SLOPE_SUSTAIN * abs(s_head)
        away = (s_tail > 0 and tail_v[-1] > tol) or \
            (s_tail < 0 and tail_v[-1] < -tol)
        if sustained and abs(s_tail) >= seq.DIVERGENCE_SLOPE and away:
            return LimitVerdict(LimitKind.DIVERGES, None, spread, slope,
                                note="monotone growth with sustained slope")
    nz = diffs[diffs != 0]
    if len(nz) >= 3:
        flips = np.sum(nz[1:] * nz[:-1] < 0)
        if flips >= seq.ALTERNATION_FRACTION * (len(nz) - 1):
            mid = len(vals) // 2
            ref = vals[max(0, mid - window):mid] if mid >= 4 else tail_v
            amp_ref = float(ref.max() - ref.min()) if len(ref) >= 4 else spread
            if amp_ref <= tol or spread >= seq.OSC_SUSTAIN * amp_ref:
                return LimitVerdict(
                    LimitKind.OSCILLATES, None, spread, slope,
                    note="alternating differences, amplitude not decaying")
            return LimitVerdict(
                LimitKind.INCONCLUSIVE, None, spread, slope,
                note="alternating differences with decaying amplitude")
    span = vals[-min(2 * window, len(vals)):]
    span_d = np.diff(span)
    span_nz = span_d[span_d != 0]
    turns = int(np.sum(span_nz[1:] * span_nz[:-1] < 0)) \
        if len(span_nz) >= 2 else 0
    mid = len(vals) // 2
    lo, hi = max(0, mid - window // 2), mid + window // 2
    if (turns >= 2 and hi <= len(vals) - 2 * window and hi - lo >= 4
            and spread > seq.CLEAR_MARGIN * tol
            and spread >= abs(float(tail_v.mean()))):
        peak_tail = float(np.abs(span).max())
        peak_mid = float(np.abs(vals[lo:hi]).max())
        if peak_tail > seq.CLEAR_MARGIN * tol and \
                peak_tail >= seq.SWING_GROWTH * max(peak_mid, tol):
            return LimitVerdict(LimitKind.OSCILLATES, None, spread, slope,
                                note="sustained swings with growing peaks")
    return LimitVerdict(LimitKind.INCONCLUSIVE, None, spread, slope)


def analyze_sup_reference(indices, values, tol, window):
    idx = np.asarray(indices, dtype=float)
    vals = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(vals)):
        return Verdict.INCONCLUSIVE, {"note": "non-finite values in trace"}
    running = np.maximum.accumulate(vals)
    sup = float(running[-1])
    half = np.searchsorted(idx, idx[-1] / 2.0, side="right") - 1
    half = max(0, min(half, len(vals) - 1))
    growth = float(running[-1] - running[half])
    info = {"sup_observed": sup, "half_span_growth": growth,
            "truncation_limited": True}
    if growth <= tol * max(1.0, abs(sup)):
        info["note"] = "running sup plateaued over the trailing half-span"
        return Verdict.SATISFIED, info
    lv = analyze_limit_reference(idx, running, tol, window)
    info["trend_slope"] = lv.trend_slope
    if lv.kind is LimitKind.CONVERGES:
        info["note"] = "running sup reads as convergent"
        return Verdict.SATISFIED, info
    if lv.kind is LimitKind.DIVERGES and lv.trend_slope > 0:
        info["note"] = "running sup grows with sustained trend"
        return Verdict.VIOLATED, info
    info["note"] = "running sup still moving; cannot decide at this truncation"
    return Verdict.INCONCLUSIVE, info


def classify_values_reference(vals, tag, tol, window):
    idx = np.arange(1, len(vals) + 1)
    if tag == "c0":
        lv = analyze_limit_reference(idx, vals, tol, window)
        return null_limit_verdict(lv, tol), {"limit": lv}
    if tag == "c":
        lv = analyze_limit_reference(idx, vals, tol, window)
        return limit_exists_verdict(lv), {"limit": lv}
    if tag == "linf":
        return analyze_sup_reference(idx, np.abs(vals), tol, window)
    if tag == "bs":
        verdict, info = analyze_sup_reference(idx, np.abs(np.cumsum(vals)),
                                              tol, window)
        info["probe"] = "running sup of partial sums"
        return verdict, info
    lv = analyze_limit_reference(idx, np.cumsum(vals), tol, window)
    return limit_exists_verdict(lv), {"limit": lv,
                                      "probe": "limit of partial sums"}


def float_bits(v):
    return None if v is None else (type(v), np.float64(v).tobytes())


def limit_bits(lv):
    return (lv.kind, lv.note, float_bits(lv.value), float_bits(lv.tail_spread),
            float_bits(lv.trend_slope))


def probe_bits(got):
    """A (verdict, info) pair with every float compared by its bits, and the
    info keys in order."""
    verdict, info = got
    return verdict, [(k, limit_bits(v) if isinstance(v, LimitVerdict)
                      else float_bits(v) if isinstance(v, float) else v)
                     for k, v in info.items()]


def _row(draw, length):
    """One trace, built to reach every stage of the heuristic."""
    k = np.arange(1.0, length + 1)
    kind = draw(st.sampled_from(
        ("floats", "runs", "tiny", "alternating", "alternating", "swings",
         "swings", "monotone", "plateau", "non-finite")))
    if kind == "floats":
        return np.array(draw(st.lists(
            st.floats(-1e6, 1e6) | st.sampled_from((0.0, -0.0, 1e-300)),
            min_size=length, max_size=length)))
    if kind == "runs":      # piecewise constant: runs of zero differences
        steps = draw(st.lists(
            st.sampled_from((0.0, 0.0, 0.0, 1.0, -1.0, 1e-3)),
            min_size=length, max_size=length))
        return np.cumsum(steps) * draw(st.sampled_from((1.0, 1e-4, 7.5)))
    if kind == "tiny":      # differences whose products underflow
        steps = draw(st.lists(st.sampled_from((0.0, 1.0, -1.0, 3.0, -2.0)),
                              min_size=length, max_size=length))
        scale = draw(st.sampled_from((1e-180, 3e-170, 1e-160, 2.0 ** -600)))
        return draw(st.sampled_from((0.0, 0.5))) + np.cumsum(steps) * scale
    p = draw(st.sampled_from((-1.0, -0.5, 0.0, 0.25, 0.5, 1.0)))
    c = draw(st.sampled_from((1.0, -2.0, 1e-3, 1e-5)))
    if kind == "alternating":
        return c * np.where(k % 2 == 0, 1.0, -1.0) * k ** p
    if kind == "swings":
        f = draw(st.sampled_from((1.0, 4.0, 12.0, 30.0)))
        return c * np.sin(f * np.sqrt(k)) * k ** p
    if kind == "monotone":
        return c * (np.log(k) if p == 0.0 else k ** p)
    if kind == "plateau":
        return c + np.where(k > draw(st.integers(1, length)), 0.0, 1.0 / k)
    row = np.array(draw(st.lists(st.floats(-10, 10), min_size=length,
                                 max_size=length)))
    row[draw(st.integers(0, length - 1))] = draw(
        st.sampled_from((math.inf, -math.inf, math.nan)))
    return row


@st.composite
def trace_stacks(draw):
    """(indices, traces, tol, window) with shared indices: short traces
    (swing test off), windows below 4 and with ``window - half < 2``."""
    length = draw(st.integers(1, 120))
    window = draw(st.integers(1, min(length, 12)) | st.integers(1, length))
    if draw(st.booleans()):
        idx = np.arange(1, length + 1)
    else:   # increasing positions with gaps, or repeated positions
        steps = draw(st.lists(st.integers(0, 40), min_size=length,
                              max_size=length))
        idx = 1 + np.cumsum(steps)
    rows = draw(st.integers(1, 6))
    traces = np.array([_row(draw, length) for _ in range(rows)])
    tol = draw(st.sampled_from((1e-12, 1e-9, 1e-3, 1.5e-3, 0.1, 1.0,
                                math.inf, math.nan))
               | st.floats(1e-15, 10.0))
    return idx, traces, tol, window


KERNEL_SETTINGS = settings(max_examples=200, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


@KERNEL_SETTINGS
@given(trace_stacks())
def test_analyze_limits_equals_the_per_trace_heuristic(case):
    idx, traces, tol, window = case
    if not math.isfinite(tol):
        # The reference took any tolerance; the kernel refuses these.
        with pytest.raises(TruncationError, match="finite and positive"):
            analyze_limits(idx, traces, tol, window)
        return
    batch = analyze_limits(idx, traces, tol, window)
    assert len(batch) == len(traces)
    for row, got in zip(traces, batch):
        want = analyze_limit_reference(idx, row, tol, window)
        assert limit_bits(got) == limit_bits(want)
        assert limit_bits(analyze_limit(idx, row, tol, window)) == \
            limit_bits(want)


@KERNEL_SETTINGS
@given(trace_stacks())
def test_analyze_sups_equals_the_per_trace_probe(case):
    idx, traces, tol, window = case
    if not math.isfinite(tol):
        with pytest.raises(TruncationError, match="finite and positive"):
            analyze_sups(idx, traces, tol, window)
        return
    batch = analyze_sups(idx, traces, tol, window)
    for row, got in zip(traces, batch):
        want = analyze_sup_reference(idx, row, tol, window)
        assert probe_bits(got) == probe_bits(want)
        assert probe_bits(analyze_sup(idx, row, tol, window)) == \
            probe_bits(want)


@KERNEL_SETTINGS
@given(trace_stacks(), st.sampled_from(seq.CLASSICAL_TAGS))
def test_classify_traces_equals_classify_values(case, tag):
    _, traces, tol, window = case
    if not math.isfinite(tol):
        with pytest.raises(TruncationError, match="finite and positive"):
            classify_traces(traces, tag, tol, window)
        return
    batch = classify_traces(traces, tag, tol, window)
    for row, got in zip(traces, batch):
        want = classify_values_reference(row, tag, tol, window)
        assert probe_bits(got) == probe_bits(want)
        assert probe_bits(classify_values(row, tag, tol, window,
                                          detail=True)) == probe_bits(want)
        assert classify_values(row, tag, tol, window) is want[0]
