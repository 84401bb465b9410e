"""The evaluation cache: counters, canonical and serial keys, eviction that
frees at once, and memory that stays bounded over a stream of new matrices."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from seqspace import cache, cli, sequences
from seqspace.conditions import (_Engine, check_class, regularity_report,
                                 source_transfer_matrix,
                                 target_transfer_matrix)
from seqspace.duality import DualTriangle
from seqspace.matrices import (ComposedMatrix, TaylorTransform, compose,
                               matrix_from_spec, truncate_matrix)
from seqspace.sequences import Sequence
from test_golden import grid_records

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def empty_cache():
    cache.clear()
    yield
    cache.clear()


def test_stats_count_hits_misses_and_evictions(monkeypatch):
    monkeypatch.setattr(cache, "CAP_BYTES", 3 * (cache.ENTRY_OVERHEAD + 800))
    built = []

    def make(tag):
        built.append(tag)
        return np.zeros(100)

    for tag in ("a", "b", "a", "c", "a", "d"):
        cache.lookup((tag,), lambda: make(tag))
    # a, b, c fill the cap; a is reused twice; d evicts b, the least recent.
    assert built == ["a", "b", "c", "d"]
    assert cache.stats() == {"hits": 2, "misses": 4, "evictions": 1,
                             "bytes": 3 * (cache.ENTRY_OVERHEAD + 800),
                             "entries": 3}
    cache.lookup(("b",), lambda: make("b"))
    assert built[-1] == "b" and cache.stats()["evictions"] == 2
    cache.clear()
    assert cache.stats() == {"hits": 0, "misses": 0, "evictions": 0,
                             "bytes": 0, "entries": 0}


def test_eviction_takes_the_least_recent_entry_table_or_not(monkeypatch):
    """One least-recently-used order: past the cap the least recent held
    entry goes, a table as well as any other.  A table, once held, evicts
    every other table, the ones its own build read too, so a new table
    leaves exactly one table held."""
    mib = 2 ** 20
    monkeypatch.setattr(cache, "CAP_BYTES", 4 * (cache.ENTRY_OVERHEAD + mib))

    def put(key, build=lambda: np.zeros(mib // 8)):
        cache.lookup(key, build)

    def tables():
        return [k for k in cache._entries if k[0] == "table"]

    for key in (("table", "a", 1), ("small", 1), ("small", 2),
                ("table", "b", 1)):
        put(key)
    assert list(cache._entries) == [("small", 1), ("small", 2),
                                    ("table", "b", 1)]
    put(("small", 3))
    put(("small", 1))   # a hit: now the most recent
    put(("small", 4))   # evicts small 2, the least recent
    assert list(cache._entries) == [("table", "b", 1), ("small", 3),
                                    ("small", 1), ("small", 4)]
    put(("small", 5))   # evicts the table, now the least recent
    assert tables() == [] and ("small", 3) in cache._entries
    put(("table", "c", 1))   # no table to replace: evicts small 3
    assert ("small", 3) not in cache._entries
    assert cache.stats()["evictions"] == 4

    def reads_c_and_d():
        put(("table", "c", 1))
        put(("table", "d", 1))
        return np.zeros(mib // 8)

    # c and d are read while the product's table builds, d replacing c, and
    # the product's table replaces d once it is held.
    put(("table", ("compose", "c", "d"), 1), reads_c_and_d)
    assert tables() == [("table", ("compose", "c", "d"), 1)]
    assert cache.stats() == {"hits": 2, "misses": 10, "evictions": 6,
                             "bytes": cache.CAP_BYTES, "entries": 4}


def test_a_new_table_replaces_every_other_table(monkeypatch):
    """Tables are working memory: the sweep's queries of E_{3/4} and then
    E_{5/7} leave only E_{5/7}'s table held, though both fit the cap, and
    sigma*(E_{1/2}*omega-inv), whose table reads E_{1/2}*omega-inv from
    E_{1/2}'s table while it builds, leaves only its own.  Each table
    replaced is an eviction."""
    monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
    from workloads import _query

    def tables():
        return {k[1] for k in cache._entries if k[0] == "table"}

    for spec in ("euler:3/4", "euler:5/7"):
        for argv, _, _ in _query("euler", spec):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + ["--json"]) in (0, 1, 2), argv
    assert tables() == {"euler:5/7"}
    assert cache.stats()["evictions"] == 1
    transfer = compose("sigma", compose("euler:1/2", "omega-inv"))
    transfer.truncation_floats(600)
    assert tables() == {transfer.key}
    assert cache.stats()["evictions"] == 3


def test_the_sweep_under_a_smaller_cap_evicts_only_replaced_tables(
        monkeypatch):
    """The sweep's commands for seeds 1-3, run in one process, give the
    same outputs at a 9 MiB cap as at the default one.  Their small entries
    and one table fit it, so they evict only the 10 tables that newer
    tables replace and miss no more often than at the default cap."""
    monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
    from workloads import _run_cli, sweep_prepare
    commands = [c["argv"] for seed in (1, 2, 3)
                for c in sweep_prepare(seed)["commands"]]
    want = [_run_cli(list(argv)) for argv in commands]
    assert cache.stats()["misses"] == 924
    cache.clear()
    evicted = []
    evict = cache._evict

    def recorded(key):
        evicted.append(key)
        evict(key)

    monkeypatch.setattr(cache, "CAP_BYTES", 9 * 2 ** 20)
    monkeypatch.setattr(cache, "_evict", recorded)
    assert [_run_cli(list(argv)) for argv in commands] == want
    assert len(evicted) == 10 and all(k[0] == "table" for k in evicted)
    got = cache.stats()
    assert (got["misses"], got["evictions"]) == (924, 10)


def test_a_value_over_the_cap_is_returned_but_not_held():
    # A 2000 x 2000 table (30.5 MiB) is over the 14 MiB cap: it is built
    # and returned, but it empties nothing and is not held.  Neither is a
    # value whose size shows only after its build.
    check_class("cesaro", "c0", "c")
    check_class("omega", "c", "c")
    gamma = matrix_from_spec("gamma")
    held = cache.stats()
    table = truncate_matrix(gamma, 2000, "float")
    assert table.shape == (2000, 2000)
    assert cache.ENTRY_OVERHEAD + table.nbytes > cache.CAP_BYTES
    big = cache.lookup(("big",), lambda: np.zeros(cache.CAP_BYTES // 8))
    assert len(big) == cache.CAP_BYTES // 8
    after = cache.stats()
    assert (after["entries"], after["bytes"], after["evictions"]) == (
        held["entries"], held["bytes"], held["evictions"])
    assert truncate_matrix(gamma, 2000, "float") is not table


def test_evicted_table_is_freed_at_once(monkeypatch):
    """No reference cycle keeps an evicted table alive until the cyclic
    garbage collector runs, transfer matrices included: E's table goes
    when omega*E's replaces it, and omega*E's when a filler evicts it."""
    gc.collect()
    gc.disable()
    try:
        check_class("euler:1/3", "c", "c(omega)")
        check_class("euler:1/3", "c0(omega)", "c")
        a = matrix_from_spec("euler:1/3")
        own = weakref.ref(a.truncation_floats(600))
        assert own() is not None
        transfer = weakref.ref(target_transfer_matrix(a, "omega")
                               .truncation_floats(600))
        del a
        assert own() is None and transfer() is not None
        monkeypatch.setattr(cache, "CAP_BYTES", 2 * cache.ENTRY_OVERHEAD)
        cache.lookup(("filler",), lambda: None)
        assert cache.stats()["evictions"] > 0
        assert transfer() is None
    finally:
        gc.enable()


def test_a_riesz_domain_transfer_is_built_once():
    # The closed-form inverse of a Riesz triangle is keyed by the triangle,
    # so the transfer through it is one matrix and its table one entry.
    first = source_transfer_matrix("euler:1/2", "riesz:power:2")
    table = first.truncation_floats(600)
    second = source_transfer_matrix("euler:1/2", "riesz:power:2")
    assert second.key == first.key == (
        "compose", "euler:1/2", ("inverse", "riesz:power:2"))
    before = cache.stats()
    assert second.truncation_floats(600) is table
    after = cache.stats()
    assert (after["hits"], after["misses"]) == (before["hits"] + 1,
                                                before["misses"])


def test_same_label_over_different_rows_never_shares_an_entry():
    rows = [Sequence(lambda k, s=s: Fraction(s, k * k), label="row[1]")
            for s in (1, 2)]
    first, second = (DualTriangle(x, matrix_from_spec("omega-inv"))
                     for x in rows)
    assert first.name == second.name and first.key != second.key
    assert np.array_equal(2 * first.truncation_floats(50),
                          second.truncation_floats(50))
    one, two = (check_class(t, "c0", "c").condition_reports[0]
                for t in (first, second))
    assert two.observed == 2 * one.observed


def test_entries_of_a_gone_matrix_are_dropped():
    t = DualTriangle(Sequence(lambda k: Fraction(1, k), label="row[1]"),
                     matrix_from_spec("omega-inv"))
    check_class(t, "c0", "c")
    held = cache.stats()["entries"]
    del t
    gc.collect()
    cache.lookup(("probe",), lambda: None)
    assert cache.stats()["entries"] < held


def test_three_spellings_of_one_matrix_hit_one_entry():
    spellings = ("euler:1/2", "euler:0.5", {"kind": "euler", "r": "1/2"})
    got = [matrix_from_spec(s) for s in spellings]
    assert got[0] is got[1] is got[2]
    assert got[0].key == "euler:1/2"
    assert cache.stats() == {"hits": 2, "misses": 1, "evictions": 0,
                             "bytes": cache.ENTRY_OVERHEAD, "entries": 1}
    first = matrix_from_spec("euler:1/2").truncation_floats(40)
    assert matrix_from_spec("euler:0.5").truncation_floats(40) is first


STREAM = """
import json, resource
from fractions import Fraction
from seqspace import cache, check_class


def peak_mb():
    # A child's ru_maxrss starts at its parent's peak on Linux, so the
    # child's own high-water mark is read where the system gives it.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


ratios = sorted({Fraction(p, q) for q in range(2, 40) for p in range(1, q)})
ratios = [r for r in ratios if r >= Fraction(5, 12)][:200]
assert len(ratios) == 200
most = 0
for r in ratios:
    check_class(f"euler:{r}", "c", "c")
    most = max(most, cache.stats()["bytes"])
print(json.dumps({"most": most, "cap": cache.CAP_BYTES, "peak_mb": peak_mb()}))
"""


def test_a_stream_of_new_matrices_stays_bounded():
    """200 distinct Euler means, each checked on (c : c) in a fresh process:
    the cache stays within its cap and the process under 80 MB (each
    check used to keep its 600 x 600 table for good, 585 MB in all)."""
    out = subprocess.run([sys.executable, "-c", STREAM], capture_output=True,
                         text=True, check=True, timeout=600,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["most"] <= got["cap"]
    assert got["peak_mb"] < 80


def test_a_warm_grid_pass_misses_nothing():
    """The default cap, 14 MiB, holds the working set of the acceptance
    grid, its one table and the O(n) entries of all 608 cells, so a second
    pass over the grid in the same process makes no cache miss and evicts
    nothing."""
    assert cache.CAP_BYTES == 14 * 2 ** 20
    grid_records()
    first = cache.stats()
    grid_records()
    second = cache.stats()
    assert second["misses"] == first["misses"]
    assert second["evictions"] == first["evictions"]


@pytest.mark.parametrize("cap_mib, counters", (
    (6, {"hits": 7560, "misses": 1159, "evictions": 187, "bytes": 6275712,
         "entries": 972}),
    (9, {"hits": 7585, "misses": 1160, "evictions": 140, "bytes": 9419520,
         "entries": 1020})), ids=("6MiB", "9MiB"))
def test_a_grid_pass_under_a_smaller_cap_keeps_its_counters(
        monkeypatch, cap_mib, counters):
    """Past the cap the least recently used entry goes, table or not.  At
    6 MiB E_{1/2}'s table is past the streaming line, so it is never built
    and the pass misses once less; at 9 MiB it is built, and the 140
    entries evicted are all small ones less recently used than it.  A cold
    pass's counters at both caps are locked."""
    monkeypatch.setattr(cache, "CAP_BYTES", cap_mib * 2 ** 20)
    grid_records()
    assert cache.stats() == counters


def test_a_grid_pass_builds_each_distinct_thing_once(monkeypatch):
    """Identity and zero products are their factor, and a factor times its
    inverse the identity, so a grid pass builds no table for them, and the
    c0 and c judgements of one trace map from one limit analysis: one pass
    at seed 0 and the default cap calls analyze_limits at most 456 times
    (833 when each judgement made its own, 501 when each trace's analysis
    was its own entry).  A product of bands is a band, and running sums or
    a mean times a bidiagonal a dual triangle, each read in blocks: neither
    builds a table (58 product tables when they did, 42 when Cesaro and
    Riesz means times a bidiagonal and the inverse pairs did).
    One pass of row chunks fills one features record per (matrix key, n,
    window, tol) at every n: 62 of them, and no row-feature entry (152 when
    the engine read tables one feature at a time, 20 row distances when
    they were cached apart).  Only rows that cost a walk are read from
    tables: the pass builds one, E_{1/2}'s, and every product streams its
    rows, the target transfers sigma*A too, since the features record keeps
    the last row that Schur's form of (linf : cs) measures from (15 tables,
    14 of them sigma*A, when those were read from tables; 39, 37 of them
    products and E_{1/2} built twice, when every product kept one; 86 when
    every family did, 60 when band and dual products did, 44 when scaled
    dual products and inverse pairs did).
    Each features record keeps two row traces, the sums and absolute sums,
    the limit analyses of those traces and of the sampled columns, and its
    last row, so the small entries of the pass charge at most 8 MiB (13.0
    MiB when each record kept its 17 columns), and no trace-limits entry is
    stored.
    The pass's cache counters are locked: 1,160 builds, no eviction, and
    1,160 entries charging 10,482,560 bytes held at its end (1,174, 13,
    1,161 and 13,069,056 when the sigma*A transfers kept tables; 1,361, 13,
    1,348 and 13,835,008 when each trace's analysis was its own entry)."""
    stored, calls = [], []
    lookup, analyze = cache.lookup, sequences.analyze_limits

    def counted_lookup(key, build):
        def counted():
            stored.append(key)
            return build()
        return lookup(key, counted)

    def counted_analyze(*args, **kwargs):
        calls.append(1)
        return analyze(*args, **kwargs)

    monkeypatch.setattr(cache, "lookup", counted_lookup)
    monkeypatch.setattr(sequences, "analyze_limits", counted_analyze)
    grid_records()
    assert {key: cache.stats()[key] for key in
            ("misses", "evictions", "entries", "bytes")} == {
        "misses": 1160, "evictions": 0, "entries": 1160,
        "bytes": 10482560}
    tables = [k for k in stored if k[0] == "table"]
    products = [k for k in tables if isinstance(k[1], tuple)
                and k[1][0] == "compose"]
    assert products == []
    assert len(tables) == 1
    assert all(k[1][1] == "sigma" for k in products)
    bidiagonals = {"omega-inv", "gamma-inv", "sigma-inv", "cesaro-inv"}
    sums_and_means = {"omega", "gamma", "sigma", "cesaro"}
    assert not [k for k in products if k[1][2] in bidiagonals and k[1][1] in
                bidiagonals | sums_and_means]

    def factor_pairs(key):
        if isinstance(key, tuple) and key[0] == "compose":
            yield key[1:]
            for factor in key[1:]:
                yield from factor_pairs(factor)
    inverses = {("omega", "omega-inv"), ("gamma", "gamma-inv"),
                ("sigma", "sigma-inv"), ("cesaro", "cesaro-inv")}
    assert not [k for k in products for pair in factor_pairs(k[1])
                if pair in inverses or pair[::-1] in inverses]
    assert [k[1] for k in tables if k not in products] == ["euler:1/2"]
    assert len(calls) <= 456
    assert not [k for k in stored if k[0] == "row-feature"]
    features = [k for k in stored if k[0] == "features"]
    assert len(features) == len(set(features)) == 62
    assert all(cache._entries[k][0].traces.shape == (2, 600)
               for k in features)
    assert all("columns" in cache._entries[k][0].limits for k in features)
    assert not [k for k in stored if k[0] == "trace-limits"]
    small = sum(charge for key, (_, charge) in cache._entries.items()
                if key[0] != "table")
    assert small <= 8 * 2 ** 20


def test_a_grid_pass_names_the_rule_each_product_reads_by(monkeypatch):
    """A cold pass at seed 0 makes 37 products: 34 read by the left
    factor's carried form, and 3 (E_{1/2} times omega-inv, gamma-inv and
    sigma-inv) by the band's row-side form.  None reads by the matmul of
    its factors' chunks."""
    made = []
    init = ComposedMatrix.__init__

    def recorded(self, left, right):
        init(self, left, right)
        made.append(self)

    monkeypatch.setattr(ComposedMatrix, "__init__", recorded)
    grid_records()
    rules = {}
    for a in made:
        rules.setdefault(a.rule, set()).add(a.name)
    assert {rule: len(names) for rule, names in rules.items()} == \
        {"carried": 34, "band-right": 3}
    assert rules["band-right"] == {
        f"euler*{inverse}" for inverse in ("omega-inv", "gamma-inv",
                                           "sigma-inv")}
    assert len(made) == 37


def test_the_sweep_queries_build_no_product_table(monkeypatch):
    """The benchmark sweep's queries of an Euler and a Riesz mean, run in
    one process, read their transfers omega*A and A*omega-inv as streams:
    the only tables they build are E_{3/4}'s own."""
    monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
    from workloads import _query
    keys = []
    lookup = cache.lookup

    def counted_lookup(key, build):
        keys.append(key)
        return lookup(key, build)

    monkeypatch.setattr(cache, "lookup", counted_lookup)
    for family, spec in (("euler", "euler:3/4"), ("riesz", "riesz:power:2")):
        for argv, _, _ in _query(family, spec):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + ["--json"]) in (0, 1, 2), argv
    assert {k[1] for k in keys if k[0] == "table"} == {"euler:3/4"}


def test_closed_form_families_build_no_table(monkeypatch):
    """A row of a Riesz mean, a Taylor transform or a bidiagonal costs one
    formula, so it is read in blocks at every n: their checks build no
    table keyed by those matrices, not even as factors of a transfer."""
    keys = []
    lookup = cache.lookup

    def counted_lookup(key, build):
        keys.append(key)
        return lookup(key, build)

    monkeypatch.setattr(cache, "lookup", counted_lookup)
    for spec, source, target in (("riesz:power:2", "c0(omega)", "c"),
                                 ("taylor:1/4", "c0", "c"),
                                 ("taylor:1/4", "c", "c"),
                                 ("omega-inv", "c", "c"),
                                 ("omega-inv", "linf", "linf")):
        check_class(spec, source, target, route="both")
    assert not [k for k in keys if k[0] == "table" and k[1] in
                ("riesz:power:2", "taylor:1/4", "omega-inv")]


def test_products_with_one_key_keep_their_names():
    """gamma*(identity*sigma-inv) reads as gamma*sigma-inv and shares its
    key, yet each keeps its own name in reports."""
    nested = compose("gamma", compose("identity", "sigma-inv"))
    plain = compose("gamma", "sigma-inv")
    assert nested.key == plain.key
    assert (nested.name, plain.name) == ("gamma*identity*sigma-inv",
                                         "gamma*sigma-inv")
    assert compose("gamma", compose("identity", "sigma-inv")) is nested


def test_a_check_past_the_limit_keeps_the_tables_it_shares():
    """Past DENSE_LIMIT the engine keeps only O(n) row features: a check at
    n = 9000 evicts nothing that an earlier check left in the cache.  Its
    row sample, 996 x 9000 floats, is larger than the whole cap."""
    check_class("cesaro", "c0", "c")
    check_class("omega", "c", "c", n=9000)
    assert cache.stats()["evictions"] == 0


def test_large_truncations_are_read_without_their_tables():
    """Regularity reports at n = 2000 stream their truncations: a 32 MB
    table is past the streaming line, over the whole cap, so it is never
    built and nothing an earlier check left is evicted."""
    check_class("cesaro", "c0", "c")
    for spec in ("euler:3/4", "taylor:1/4"):
        regularity_report(spec)
        assert cache.stats()["evictions"] == 0
        assert ("table", spec, 2000) not in cache._entries


def test_a_product_past_the_line_is_read_without_tables():
    """Between the streaming line and DENSE_LIMIT a product is read in row
    chunks from its factors: a check of E_{1/2} into c(omega) at n = 2000
    builds neither the 32 MB table of omega*E_{1/2} nor E_{1/2}'s own, and
    evicts nothing that earlier checks left."""
    for spec in ("cesaro", "omega", "gamma"):
        check_class(spec, "c0", "c")
    check_class("euler:1/2", "c", "c(omega)", n=2000)
    assert cache.stats()["evictions"] == 0
    assert not [k for k in cache._entries if k[0] == "table" and k[-1] == 2000]


def test_taylor_rows_past_the_complete_rows_are_read_narrow(monkeypatch):
    """Rows past the complete-row limit feed only the sampled columns, so
    the stream reads them at the columns' width, never at full width."""
    asked = []
    block = TaylorTransform.block

    def spy(self, rows, m):
        asked.append((int(np.max(rows)), m))
        return block(self, rows, m)

    monkeypatch.setattr(TaylorTransform, "block", spy)
    regularity_report("taylor:1/4")
    limit = _Engine(matrix_from_spec("taylor:1/4"), 2000, 1.5e-3,
                    200).row_limit
    assert limit < 2000
    assert max(top for top, m in asked if m == 2000) == limit
    assert all(m < 2000 for top, m in asked if top > limit)
