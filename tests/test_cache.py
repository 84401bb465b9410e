"""The evaluation cache: counters, canonical and serial keys, eviction that
frees at once, and memory that stays bounded over a stream of new matrices."""

import gc
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from seqspace import cache, sequences
from seqspace.conditions import (_Engine, check_class, regularity_report,
                                 source_transfer_matrix,
                                 target_transfer_matrix)
from seqspace.duality import DualTriangle
from seqspace.matrices import TaylorTransform, compose, matrix_from_spec
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


def test_large_entries_go_first_but_the_newest_stays(monkeypatch):
    monkeypatch.setattr(cache, "CAP_BYTES", 10 * 2 ** 20)
    big = 4 * 2 ** 20   # above a third of the cap
    mib = 2 ** 20       # below it
    cache.lookup(("small",), lambda: np.zeros(2 ** 17))
    cache.lookup(("big", 1), lambda: np.zeros(big // 8), nbytes=big)
    cache.lookup(("big", 2), lambda: np.zeros(big // 8), nbytes=big)
    # A third large entry evicts the oldest large one, not the older small one.
    cache.lookup(("big", 3), lambda: np.zeros(big // 8), nbytes=big)
    held = set(cache._entries)
    assert ("small",) in held and ("big", 1) not in held
    assert {("big", 2), ("big", 3)} <= held
    # Tables go first at any size: twelve 1 MiB tables made after the small
    # entry evict both large entries and the oldest tables, not it.
    for i in range(12):
        cache.lookup(("table", "m", i), lambda: np.zeros(mib // 8), nbytes=mib)
    held = set(cache._entries)
    assert ("small",) in held and ("table", "m", 11) in held
    assert not {("big", 2), ("big", 3), ("table", "m", 0)} & held
    # Once only the newest table is left, small entries go before it.
    for i in range(12):
        cache.lookup(("other", i), lambda: np.zeros(mib // 8))
    tables = [k for k in cache._entries if k[0] in ("table", "big")]
    assert tables == [("table", "m", 11)]
    assert ("small",) not in cache._entries


def test_evicted_table_is_freed_at_once(monkeypatch):
    """No reference cycle keeps an evicted table alive until the cyclic
    garbage collector runs, transfer matrices included."""
    gc.collect()
    gc.disable()
    try:
        check_class("euler:1/3", "c", "c(omega)")
        check_class("euler:1/3", "c0(omega)", "c")
        a = matrix_from_spec("euler:1/3")
        refs = [weakref.ref(a.truncation_floats(600)),
                weakref.ref(target_transfer_matrix(a, "omega")
                            .truncation_floats(600))]
        del a
        assert all(r() is not None for r in refs)
        monkeypatch.setattr(cache, "CAP_BYTES", 2 * cache.ENTRY_OVERHEAD)
        cache.lookup(("filler",), lambda: None)
        assert cache.stats()["evictions"] > 0
        assert all(r() is None for r in refs)
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
    """The default cap, 19 MiB, holds the working set of the acceptance
    grid: tables go first, so the O(n) entries of all 608 cells outlive
    them, and a second pass over the grid in the same process makes no
    cache miss and evicts nothing."""
    assert cache.CAP_BYTES == 19 * 2 ** 20
    grid_records()
    first = cache.stats()
    grid_records()
    second = cache.stats()
    assert second["misses"] == first["misses"]
    assert second["evictions"] == first["evictions"]


def test_a_grid_pass_builds_each_distinct_thing_once(monkeypatch):
    """Identity and zero products are their factor, and a factor times its
    inverse the identity, so a grid pass builds no table for them, and the
    c0 and c judgements of one trace map from one limit analysis: one pass
    at seed 0 and the default cap builds at most 37 product tables and
    calls analyze_limits at most 501 times (76 and 833 when each product
    and judgement made its own).  A product of bands is a band, and running
    sums or a mean times a bidiagonal a dual triangle, each read in blocks:
    neither builds a table (58 product tables when they did, 42 when
    Cesaro and Riesz means times a bidiagonal and the inverse pairs did).
    One pass
    of row chunks fills one features record per (matrix key, n, window) at
    every n: 62 of them, and no row-feature entry (152 when the engine read
    tables one feature at a time, 20 row distances when they were cached
    apart).  Only rows that cost a walk are read from tables: at most 39
    in all, each a product or E_{1/2} (86 when every family kept one, 60
    when band and dual products did, 44 when scaled dual products and
    inverse pairs did).
    Each features record keeps two row traces, the sums and absolute sums:
    its pass leaves only the limit analysis of the sampled columns, so the
    small entries of the pass charge at most 8 MiB (13.0 MiB when each
    record kept its 17 columns)."""
    stored, calls = [], []
    lookup, analyze = cache.lookup, sequences.analyze_limits

    def counted_lookup(key, build, nbytes=0):
        def counted():
            stored.append(key)
            return build()
        return lookup(key, counted, nbytes)

    def counted_analyze(*args, **kwargs):
        calls.append(1)
        return analyze(*args, **kwargs)

    monkeypatch.setattr(cache, "lookup", counted_lookup)
    monkeypatch.setattr(sequences, "analyze_limits", counted_analyze)
    grid_records()
    tables = [k for k in stored if k[0] == "table"]
    products = [k for k in tables if isinstance(k[1], tuple)
                and k[1][0] == "compose"]
    assert len(products) <= 37
    assert len(tables) <= 39
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
    assert {k[1] for k in tables if k not in products} <= {"euler:1/2"}
    assert len(calls) <= 501
    assert not [k for k in stored if k[0] == "row-feature"]
    features = [k for k in stored if k[0] == "features"]
    assert len(features) == len(set(features)) == 62
    assert all(cache._entries[k][0].shape == (2, 600) for k in features)
    assert len([k for k in stored
                if k[0] == "trace-limits" and k[-1] == "columns"]) == 62
    small = sum(charge for key, (_, charge) in cache._entries.items()
                if key not in cache._first)
    assert small <= 8 * 2 ** 20


def test_closed_form_families_build_no_table(monkeypatch):
    """A row of a Riesz mean, a Taylor transform or a bidiagonal costs one
    formula, so it is read in blocks at every n: their checks build no
    table keyed by those matrices, not even as factors of a transfer."""
    keys = []
    lookup = cache.lookup

    def counted_lookup(key, build, nbytes=0):
        keys.append(key)
        return lookup(key, build, nbytes)

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
    table would be a large entry, and two of them overflow the cap, so
    they are never built and nothing an earlier check left is evicted."""
    check_class("cesaro", "c0", "c")
    for spec in ("euler:3/4", "taylor:1/4"):
        regularity_report(spec)
        assert cache.stats()["evictions"] == 0
        assert ("table", spec, 2000) not in cache._entries


def test_a_product_past_the_line_is_read_without_tables():
    """Between the large-entry line and DENSE_LIMIT a product is read in row
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
