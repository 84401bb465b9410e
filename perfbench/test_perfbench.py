"""Tests of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import run
import spans
import stats
import workloads


# -- the tail rule --------------------------------------------------------


def test_no_tail_under_forty_samples():
    assert stats.tail(list(range(39))) is None
    assert stats.tail([]) is None


@pytest.mark.parametrize("count", (40, 41, 57, 1000))
def test_tail_leaves_ten_samples_beyond(count):
    samples = list(np.random.default_rng(count).permutation(count) + 1.0)
    value, percentile, n = stats.tail(samples)
    assert n == count
    assert sum(s > value for s in samples) == stats.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (count - 10) / count)


def test_tail_is_the_highest_such_percentile():
    samples = [float(i) for i in range(1, 41)]
    value, percentile, _ = stats.tail(samples)
    assert (value, percentile) == (30.0, 75.0)
    assert sum(s > 31.0 for s in samples) < stats.TAIL_BEYOND


# -- attempted and failed counting -----------------------------------------


def test_pass_counts_raised_and_marked_failures():
    record = stats.Pass()
    assert record.timed("ok", lambda: 7) == 7
    assert record.timed("boom", lambda: 1 / 0) is None
    record.timed("exit3", lambda: 3)
    record.fail_last()
    assert [(kind, failed) for kind, _s, failed in record.ops] == [
        ("ok", False), ("boom", True), ("exit3", True)]
    assert len(record.errors) == 1 and "ZeroDivisionError" in record.errors[0]


def test_end_to_end_counts_every_pass():
    ok = [["a", 0.01 * (i + 1), False] for i in range(40)]
    passes = [{"ops": ok + [["b", 0.5, True]], "peak_rss_mb": 100.0},
              {"ops": ok + [["b", 0.5, True]], "peak_rss_mb": 300.0}]
    figures = stats.end_to_end(passes, [0.2, 0.4, 0.3])
    assert (figures["attempted"], figures["failed"]) == (82, 2)
    busy = 2 * (sum(op[1] for op in ok) + 0.5)
    assert figures["ops_per_s"] == pytest.approx(80 / busy)
    assert figures["op_p50_ms"] == pytest.approx(205.0)
    assert figures["op_tail_ms"] == pytest.approx(350.0)
    assert figures["setup_s"] == 0.3
    assert figures["peak_rss_mb"] == 200.0


def _command(**kw):
    command = {"argv": ["check-class"], "kind": "check-class", "pair": ("c", "c"),
               "may_fail": False, "regular": True}
    command.update(kw)
    return command


@pytest.mark.parametrize("command, code, doc, expected", [
    (_command(may_fail=True), 3, None, (True, False)),
    (_command(), 3, None, (True, True)),
    (_command(), 0, {"verdict": "satisfied"}, (False, False)),
    (_command(), 0, None, (False, True)),
    (_command(), 1, {"verdict": "satisfied"}, (False, True)),
    (_command(), 1, {"verdict": "violated"}, (False, True)),
    (_command(kind="regularity", pair=None), 1, {"verdict": "violated"},
     (False, True)),
    (_command(pair=("c0(omega)", "c")), 1, {"verdict": "violated"},
     (False, False)),
    (_command(pair=("c", "c(omega)")), 0, {"verdict": "satisfied"},
     (False, True)),
    (_command(pair=("c0(omega)", "c")), 0,
     {"verdict": "satisfied", "conditions_verdict": "satisfied",
      "oracle": {"verdict": "violated"}}, (False, True)),
    (_command(kind="dual", pair=None, regular=False), 1,
     {"verdict": "violated"}, (False, False)),
])
def test_sweep_command_checks(command, code, doc, expected):
    stdout = json.dumps(doc) if doc is not None else ""
    failed, error = workloads.check_command(command, code, stdout, "error: x")
    assert (failed, error is not None) == expected


def test_sweep_stream_is_seeded_and_its_failures_are_not():
    first, again = workloads.sweep_prepare(5), workloads.sweep_prepare(5)
    other = workloads.sweep_prepare(6)
    assert first == again
    assert first != other

    def failing(stream):
        return sorted(c["argv"] for c in stream["commands"] if c["may_fail"])

    assert failing(first) == failing(other)
    assert len(first["commands"]) == len(other["commands"])
    specs = [c["argv"][c["argv"].index("--matrix") + 1]
             for c in first["commands"] if "--matrix" in c["argv"]]
    assert len(set(specs)) == sum(workloads.SWEEP_SIZES.values()) + len(
        workloads.TAYLOR_COMPLETING) + len(workloads.TAYLOR_FAILING)


# -- support rules, layers and the benchmark file ---------------------------


def test_grid_follows_the_documented_support_rules():
    cells = ref.grid_cells()
    assert len(cells) == 608
    classical = {(f, t) for f in ref.CLASSICAL for t in ref.CLASSICAL}
    assert len(classical - ref.UNCHARACTERIZED) == 20
    assert not any("(" in f and "(" in t for _m, f, t in cells)
    assert set(ref.TEXTBOOK_CELLS) <= set(cells)
    assert len(cells) + len(ref.grid_unsupported()) == 8 * 11 * 11


def test_self_time_subtracts_direct_children():
    # op [0, 10] > a [1, 3], b [4, 8] > c [5, 6]
    layer = [0, 1, 1, 2]
    calls, self_s = spans.layer_totals(layer, [0, 1, 4, 5], [10, 3, 8, 6],
                                       [-1, 0, 0, 2])
    assert list(calls[:3]) == [1, 2, 1]
    assert list(self_s[:3]) == [4.0, 5.0, 1.0]


def test_import_seconds_from_importtime_output():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      2000 |     150000 |   numpy\n"
            "import time:       800 |     230000 | seqspace\n")
    assert spans.import_seconds(text) == pytest.approx(
        {"import.numpy_s": 0.15, "import.seqspace_s": 0.08})


def test_benchmark_file_names_what_the_runner_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(
        spans.LAYER_METRICS, **run.TRACE_METRICS)


def test_every_workload_has_a_tail_in_its_shortest_run():
    per_pass = {"grid": len(ref.grid_cells()),
                "sweep": sum(not c["may_fail"] for c in
                             workloads.sweep_prepare(0)["commands"])}
    for workload, count in per_pass.items():
        assert run.MIN_PASSES * count >= stats.MIN_TAIL_SAMPLES, workload
