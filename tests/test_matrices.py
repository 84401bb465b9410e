import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqspace import cache
from seqspace.errors import (
    FloatRangeError,
    RowSeriesError,
    SpecError,
    TruncationError,
    ZeroDiagonalError,
)
from seqspace.matrices import (
    DENSE_LIMIT,
    EulerMeans,
    InfiniteMatrix,
    apply,
    compose,
    inverse_of,
    invert_triangle,
    matrix_from_spec,
    truncate_matrix,
)
from seqspace.sequences import make_sequence, sequence_from_values

from conftest import RuleMatrix, rational_band_triangle
from test_cli_fuzz import MATRICES


def test_builtin_entries():
    omega = matrix_from_spec("omega")
    assert omega.entry(3, 2) == 2
    assert omega.entry(5, 5) == 5
    assert omega.entry(2, 3) == 0
    gamma = matrix_from_spec("gamma")
    assert gamma.entry(3, 2) == Fraction(1, 2)
    assert matrix_from_spec("cesaro").entry(4, 2) == Fraction(1, 4)
    sigma = matrix_from_spec("sigma")
    assert [sigma.entry(4, k) for k in (1, 4, 5)] == [1, 1, 0]


#: Running sums, means, bands and their inverses: their products cross the
#: band*band, running sums*bidiagonal and generic paths of compose.
ASSOCIATIVE = ("identity", "omega", "gamma", "sigma", "cesaro", "omega-inv",
               "gamma-inv", "sigma-inv", "cesaro-inv")


@pytest.mark.parametrize("a", ASSOCIATIVE)
def test_compose_is_associative_on_exact_windows(a):
    for b in ASSOCIATIVE:
        for c in ASSOCIATIVE:
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert truncate_matrix(left, 12) == truncate_matrix(right, 12), \
                (a, b, c)


def test_bidiagonal_inverse_entries():
    oi = matrix_from_spec("omega-inv")
    assert oi.entry(2, 1) == Fraction(-1, 2)
    assert oi.entry(3, 3) == Fraction(1, 3)
    assert oi.entry(3, 1) == 0
    gi = matrix_from_spec("gamma-inv")
    assert gi.entry(3, 2) == -3
    assert gi.entry(4, 3) == -4
    assert gi.entry(4, 4) == 4
    ci = matrix_from_spec("cesaro-inv")
    assert ci.entry(4, 4) == 4
    assert ci.entry(4, 3) == -3
    si = matrix_from_spec("sigma-inv")
    assert [si.entry(4, k) for k in (2, 3, 4)] == [0, -1, 1]


def test_euler_rows_exact():
    e = matrix_from_spec("euler:1/2")
    assert [e.entry(3, k) for k in (1, 2, 3)] == \
        [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
    for n in (1, 2, 7, 25, 50):
        assert sum(e.entry(n, k) for k in range(1, n + 1)) == 1


def test_riesz_unit_weights_match_cesaro():
    r = matrix_from_spec("riesz:const:1")
    c = matrix_from_spec("cesaro")
    assert truncate_matrix(r, 12) == truncate_matrix(c, 12)
    assert truncate_matrix(c, 12) == [
        [Fraction(1, n) if k <= n else 0 for k in range(1, 13)]
        for n in range(1, 13)]


def test_riesz_weights_and_inverse():
    r = matrix_from_spec("riesz:harmonic")
    assert r.entry(2, 1) == Fraction(1, Fraction(3, 2))  # t_1 / (t_1 + t_2)
    ri = inverse_of(r)
    assert ri.entry(2, 2) == 3
    assert ri.entry(2, 1) == -2
    # the closed-form bidiagonal inverse agrees with forward substitution
    sub = invert_triangle(r)
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert ri.entry(n, k) == sub.entry(n, k)
    with pytest.raises(SpecError):
        matrix_from_spec({"kind": "riesz", "weights": "alternating"}).entry(2, 1)


def test_taylor_rows():
    t = matrix_from_spec("taylor:1/2")
    assert t.entry(2, 1) == 0
    assert t.entry(1, 3) == Fraction(1, 8)
    cut = t.row_cutoff(1)
    assert 50 <= cut <= 60
    row = t.block([1], cut)[0]
    assert row.sum() == pytest.approx(1.0, abs=1e-15)
    # rows are probability masses, so constant input is fixed
    out = apply(t, "const:1", 8, mode="float")
    assert np.allclose(out.as_floats(), 1.0, atol=1e-12)
    with pytest.raises(RowSeriesError):
        apply(t, "const:1", 4, mode="exact")


def test_row_infinite_products_are_refused_for_their_missing_row_series():
    # The product has a tail cutoff; what it lacks is a row series.
    a = compose("taylor:1/4", "gamma-inv")
    assert a.row_cutoff(5) == 39
    with pytest.raises(RowSeriesError, match="no row series"):
        apply(a, "harmonic", 10, mode="float")


def test_apply_exact_frozen():
    assert apply("omega", "const:1", 4).entries == (1, 3, 6, 10)
    assert apply("gamma", "const:1", 4).entries == \
        (1, Fraction(3, 2), Fraction(11, 6), Fraction(25, 12))
    with pytest.raises(TruncationError):
        apply("omega", "const:1", 0)
    with pytest.raises(SpecError):
        apply("omega", "const:1", 4, mode="symbolic")


def test_apply_float_matches_exact():
    for name in ("omega", "gamma", "cesaro", "euler:1/2", "riesz:harmonic",
                 "omega-inv", "gamma-inv", "sigma", "sigma-inv", "cesaro-inv",
                 "riesz:power:2", "identity", "zero",
                 compose("cesaro", "euler:1/2")):
        a = matrix_from_spec(name)
        exact = apply(a, "geometric:-1/2", 40).as_floats()
        fl = apply(a, "geometric:-1/2", 40, mode="float").as_floats()
        assert np.allclose(exact, fl, atol=1e-12), name


#: Every family with a linear-time exact transform (``_apply_exact``).
LINEAR_TIME_FAMILIES = ("identity", "zero", "omega", "gamma", "sigma",
                        "omega-inv", "gamma-inv", "sigma-inv", "cesaro-inv",
                        "cesaro", "riesz:power:2")


@pytest.mark.parametrize("name", LINEAR_TIME_FAMILIES)
def test_linear_time_transforms_match_the_entry_rows(name):
    # The structured product rows run the left factor's linear-time form,
    # so that form is checked here against rows read entry by entry.
    n = 30
    rows = truncate_matrix(name, n)
    for spec in ("geometric:-1/2", "harmonic", "list:3,-1/2,0,7", "power:2"):
        x = make_sequence(spec)
        expected = tuple(sum(row[k - 1] * x(k) for k in range(1, n + 1))
                         for row in rows)
        assert apply(name, x, n).entries == expected, (name, spec)


def _inner_sums(left, right, rows, m):
    """Rows ``rows`` of left @ right over columns 1..m, each entry the sum of
    a_nj b_jk over the inner support, in order of j, from the factors' own
    entries, zero terms skipped: a reference read independently of the
    product's rows."""
    left, right = matrix_from_spec(left), matrix_from_spec(right)

    def entry(n, k):
        ends = [e for e in (left.row_end(n), right.col_end(k)) if e is not None]
        if not ends:
            raise RowSeriesError(
                f"cannot compose {left.name} and {right.name}: the inner "
                f"sum at ({n}, {k}) has unbounded support")
        total = 0
        for j in range(max(left.row_start(n), right.col_start(k)),
                       min(ends) + 1):
            a = left.entry(n, j)
            if a != 0:
                b = right.entry(j, k)
                if b != 0:
                    total += a * b
        return total
    return [[entry(n, k) for k in range(1, m + 1)] for n in rows]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from(LINEAR_TIME_FAMILIES + ("euler:1/3",)),
       st.integers(min_value=1, max_value=30))
def test_structured_product_rows_match_the_entry_sums(seed, left, n):
    rng = np.random.default_rng(seed)
    band = rational_band_triangle(rng, size=n, width=int(rng.integers(0, 4)))
    prod = compose(left, band)
    assert truncate_matrix(prod, n) == _inner_sums(left, band, range(1, n + 1), n)
    # Any strictly increasing rows, over a window narrower or wider.
    rows = sorted(set(rng.integers(1, n + 1, size=4).tolist()))
    m = int(rng.integers(1, n + 3))
    assert list(prod.exact_rows(np.array(rows), m)) == \
        _inner_sums(left, band, rows, m)
    assert [prod.entry(n, k) for n in rows for k in range(1, m + 1)] == \
        [v for row in _inner_sums(left, band, rows, m) for v in row]


def _typed(rows):
    return [[(type(v), v) for v in row] for row in rows]


@pytest.mark.parametrize("left,right", [
    ("euler:1/2", "euler:1/3"), ("euler:1/3", "taylor:1/4"),
    ("euler:1/2", "riesz:power:-400"), ("euler:1/2", "riesz:geometric:1e300"),
    ("taylor:1/2", "omega-inv"), ("taylor:1/4", "taylor:1/2"),
    ("euler:1/2", "cesaro-inv"), ("euler:1/3", "gamma-inv")])
def test_product_rows_are_the_inner_sums_in_value_and_type(left, right):
    # Rows of a product that is not a carried triangle sum a_nj b_jk in
    # order of j from each factor's rows, read once: the inner sums of the
    # factors' entries, to the type of every entry.
    prod = compose(left, right)
    rows = [1, 2, 5, 9]
    assert _typed(prod.exact_rows(rows, 10)) == \
        _typed(_inner_sums(left, right, rows, 10))
    assert _typed([[prod.entry(n, k) for k in range(1, 11)] for n in rows]) \
        == _typed(_inner_sums(left, right, rows, 10))


def test_a_product_window_reads_each_factor_row_once(monkeypatch):
    # The 40 x 40 window of E_{1/2} E_{1/2} reads the right factor's rows
    # 1..40 and each left row once: 820 + 820 Euler entries.  By the group
    # law E_r E_s = E_{rs} it is E_{1/4}'s window.
    calls = []
    entry = EulerMeans.entry

    def counted(self, n, k):
        calls.append((n, k))
        return entry(self, n, k)
    monkeypatch.setattr(EulerMeans, "entry", counted)
    window = truncate_matrix(compose("euler:1/2", "euler:1/2"), 40)
    assert len(calls) <= 1640
    assert window == truncate_matrix("euler:1/4", 40)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.lists(st.sampled_from(("omega", "gamma-inv", "cesaro", "euler:1/2",
                                 "riesz:power:2", "band")),
                min_size=3, max_size=3))
def test_exact_compose_is_associative_on_truncations(seed, names):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    a, b, c = (rational_band_triangle(rng, size=n, width=2) if name == "band"
               else name for name in names)
    assert (truncate_matrix(compose(compose(a, b), c), n)
            == truncate_matrix(compose(a, compose(b, c)), n))


def test_truncate_matrix():
    assert truncate_matrix("omega", 2) == [[1, 0], [1, 2]]
    arr = truncate_matrix("omega", 3, mode="float")
    assert arr.tolist() == [[1.0, 0.0, 0.0], [1.0, 2.0, 0.0], [1.0, 2.0, 3.0]]
    with pytest.raises(SpecError):
        truncate_matrix("omega", 3, mode="nope")


def test_truncation_floats_cache_and_cap():
    omega = matrix_from_spec("omega")
    a = omega.truncation_floats(16)
    assert omega.truncation_floats(16) is a
    with pytest.raises(ValueError):
        a[0, 0] = 99.0
    with pytest.raises(TruncationError):
        omega.truncation_floats(DENSE_LIMIT + 1)


def test_compose_is_identity_for_inverse_pairs():
    for name in ("omega", "gamma", "sigma", "cesaro"):
        prod = compose(name, inverse_of(name))
        for n in range(1, 7):
            for k in range(1, 7):
                assert prod.entry(n, k) == (1 if n == k else 0), (name, n, k)
    window = compose("gamma", "gamma-inv").truncation_floats(64)
    assert np.abs(window - np.eye(64)).max() <= 1e-12


def test_invert_triangle_matches_closed_forms():
    for name in ("omega", "gamma", "sigma", "cesaro"):
        closed = matrix_from_spec(f"{name}-inv")
        sub = invert_triangle(name)
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert sub.entry(n, k) == closed.entry(n, k)


def test_inverse_of_uses_closed_forms():
    assert inverse_of("omega").name == "omega-inv"
    assert inverse_of("omega-inv").name == "omega"
    assert inverse_of("identity").name == "identity"
    assert inverse_of("sigma").name == "sigma-inv"
    assert inverse_of("sigma-inv").name == "sigma"
    # Each pair is read both ways, and by key: identity*omega is omega
    # under a product's name.
    assert inverse_of("cesaro").name == "cesaro-inv"
    assert inverse_of("cesaro-inv") is matrix_from_spec("cesaro")
    assert inverse_of(compose("identity", "omega")) is matrix_from_spec(
        "omega-inv")


def test_zero_diagonal_rejected():
    bad = RuleMatrix(lambda n, k: 0 if n == k == 2 else 1,
                     name="bad", triangle=True)
    inv = invert_triangle(bad)
    assert inv.entry(1, 1) == Fraction(1)
    with pytest.raises(ZeroDiagonalError):
        inv.entry(2, 2)


def test_compose_unbounded_inner_sum_rejected():
    ones = RuleMatrix(lambda n, k: 1, name="ones")
    with pytest.raises(RowSeriesError, match=r"inner sum at \(1, 1\) has "
                       "unbounded support"):
        compose(ones, ones).entry(1, 1)
    # The row reader names the first row and column whose sum is unbounded.
    with pytest.raises(RowSeriesError, match=r"^cannot compose taylor and "
                       r"euler: the inner sum at \(3, 1\) has unbounded"):
        list(compose("taylor:1/2", "euler:1/2").exact_rows([3, 4], 5))
    # a row-infinite left factor composes fine when the right factor has
    # finite columns: taylor * omega-inv has inner support bounded by k + 1
    t = matrix_from_spec("taylor:1/2")
    prod = compose(t, "omega-inv")
    assert prod.entry(1, 1) == Fraction(1, 2) * 1 + Fraction(1, 4) * Fraction(-1, 2)


def test_product_windows_are_their_exact_products_to_rounding():
    # Every ordered pair of the CLI's valid matrices whose exact 10 x 10
    # window exists: each float entry lies within 16 eps of the exact one,
    # relative to the exact sum of |l_nj| |r_jk| over j = 1..12 (a
    # bidiagonal's inner index reaches k + 1).  A row-infinite left factor
    # times a bidiagonal is read a column wider, so its last column keeps
    # its term at j = k + 1.  Only riesz:geometric:1e300 has no floats.
    names = MATRICES[0]
    # |a_nk| over 1..12, by rows and by columns.
    rows = {name: [[abs(matrix_from_spec(name).entry(n, k))
                    for k in range(1, 13)] for n in range(1, 13)]
            for name in names}
    cols = {name: list(zip(*rows[name])) for name in names}
    bound, checked = 16 * Fraction(np.finfo(float).eps), 0
    for left, right in itertools.product(names, repeat=2):
        a = compose(left, right)
        try:
            exact = truncate_matrix(a, 10)
        except RowSeriesError:
            continue
        try:
            floats = truncate_matrix(a, 10, "float").tolist()
        except FloatRangeError:
            assert "riesz:geometric:1e300" in (left, right)
            continue
        for n in range(10):
            for k in range(10):
                size = sum(x * y for x, y in zip(rows[left][n], cols[right][k])
                           if x and y)
                err = abs(Fraction(floats[n][k]) - exact[n][k])
                assert err <= bound * size + Fraction(1e-300), \
                    (left, right, n + 1, k + 1)
        checked += 1
    assert checked == 273


def test_fast_float_paths_match_entries():
    rows = np.array([1, 2, 3, 5, 9, 17, 30])
    for name in ("omega", "gamma", "omega-inv", "gamma-inv", "cesaro",
                 "euler:1/2", "riesz:harmonic", "taylor:1/2"):
        a = matrix_from_spec(name)
        for n in (1, 2, 7, 19):
            slow = np.array([float(a.entry(n, k)) for k in range(1, 31)])
            assert np.allclose(a.block([n], 30)[0], slow, atol=1e-13), (name, n)
        for k in (1, 3, 11):
            slow = np.array([float(a.entry(int(n), k)) for n in rows])
            assert np.allclose(a.block(rows, k)[:, k - 1], slow, atol=1e-13), (name, k)
        if a.row_end(1) is not None:
            dense = a.truncation_floats(30)
            slow = np.array([[float(a.entry(n, k)) for k in range(1, 31)]
                             for n in range(1, 31)])
            assert np.allclose(dense, slow, atol=1e-13), name


def test_every_class_with_its_own_blocks_reads_rows_through_them(
        monkeypatch):
    """``_row_chunks``, the reader of many rows, goes through the class's own
    ``_blocks`` or through ``_table_chunks``, never a ``block`` per chunk:
    for an Euler mean that would be a walk from row 1 per chunk."""
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)
    own = {cls for cls in subclasses(InfiniteMatrix) if "_blocks" in vars(cls)}
    examples = [matrix_from_spec("euler:1/2"), compose("omega", "euler:1/2"),
                compose("sigma", "euler:1/2"), compose("euler:1/2", "omega-inv")]
    assert own == {type(a) for a in examples}
    rows = np.arange(1, 9)
    for a in examples:
        blocks, block = [], type(a).block
        monkeypatch.setattr(type(a), "block", lambda self, rows, m: (
            blocks.append(len(rows)), block(self, rows, m))[1])
        cache.clear()
        got = np.concatenate([t for _, t in a._row_chunks(rows, 8, 2)])
        monkeypatch.undo()
        assert len(blocks) <= 1, (a.name, blocks)
        assert np.array_equal(got, a.block(rows, 8)), a.name


def test_row_sums():
    omega = matrix_from_spec("omega")
    assert omega.block([4], 4)[0].sum() == 10.0
    assert np.abs(matrix_from_spec("gamma-inv").block([4], 4)[0]).sum() == 8.0
    taylor = matrix_from_spec("taylor:1/2")
    assert taylor.block([3], taylor.row_cutoff(3))[0].sum() == \
        pytest.approx(1.0, abs=1e-12)


def test_matrix_from_spec_caching_and_errors():
    assert matrix_from_spec("omega") is matrix_from_spec("omega")
    assert matrix_from_spec("euler:1/2") is matrix_from_spec("euler:1/2")
    assert matrix_from_spec({"kind": "euler", "r": "1/2"}).entry(2, 1) == Fraction(1, 2)
    with pytest.raises(SpecError):
        matrix_from_spec("hilbert")
    with pytest.raises(SpecError):
        matrix_from_spec("cesaro:3")
    with pytest.raises(SpecError):
        matrix_from_spec("euler:2")
    with pytest.raises(SpecError):
        matrix_from_spec({"kind": "banded"})


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_triangle_roundtrip_is_exact(seed):
    rng = np.random.default_rng(seed)
    t = rational_band_triangle(rng, size=12, width=3)
    x = sequence_from_values([Fraction(int(rng.integers(-5, 6)),
                                       int(rng.integers(1, 4)))
                              for _ in range(12)])
    y = apply(t, x, 12)
    back = apply(invert_triangle(t), sequence_from_values(y.entries), 12)
    assert back.entries == tuple(x(k) for k in range(1, 13))
