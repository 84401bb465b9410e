"""Behaviour lock: the acceptance grid and a fixed CLI command set.

``golden/grid_seed0.json`` holds, for each of the 608 supported cells of the
acceptance grid at seed 0, the headline, conditions, row-pairing and oracle
verdicts, each condition's verdict and observed value, each oracle sample's
verdict and ``routes_agree``; and the exact stdout bytes of a few CLI calls.
Observed values are compared with a relative tolerance of 1e-12, everything
else exactly.  The grid is also built with the evaluation cache capped small
enough to evict between matrices, and must give the same records.
Regenerate (only for a deliberate behaviour change, listed in CHANGES.md)
with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from seqspace import cache
from seqspace.cli import main
from seqspace.conditions import check_class
from seqspace.errors import UnsupportedClassError

GOLDEN = Path(__file__).resolve().parent / "golden" / "grid_seed0.json"
OBSERVED_REL_TOL = 1e-12

GRID_MATRICES = ("identity", "omega", "gamma", "omega-inv", "gamma-inv",
                 "cesaro", "euler:1/2", "zero")
GRID_SPACES = ("c0", "c", "linf", "bs", "cs",
               "c0(omega)", "c(omega)", "linf(omega)",
               "c0(gamma)", "c(gamma)", "linf(gamma)")

CLI_COMMANDS = (
    ("transform", "--matrix", "cesaro", "--seq", "harmonic", "--n", "5",
     "--mode", "float"),
    ("transform", "--matrix", "cesaro", "--seq", "harmonic", "--n", "5",
     "--mode", "float", "--json"),
    ("check-class", "--matrix", "cesaro", "--from", "c0", "--to", "c",
     "--route", "both"),
    ("check-class", "--matrix", "cesaro", "--from", "c0", "--to", "c",
     "--route", "both", "--json"),
)


def cell_record(report) -> dict:
    oracle = report.oracle
    return {
        "verdict": str(report.verdict),
        "conditions_verdict": str(report.conditions_verdict),
        "conditions": [[c.condition, str(c.verdict), c.observed]
                       for c in report.condition_reports],
        "row_pairing": (None if report.row_pairing is None
                        else report.row_pairing["verdict"]),
        "oracle": str(oracle.verdict),
        "samples": [[p.label, str(p.verdict)] for p in oracle.samples],
        "routes_agree": report.routes_agree(),
    }


def grid_records() -> dict:
    out = {}
    for name in GRID_MATRICES:
        for f in GRID_SPACES:
            for t in GRID_SPACES:
                try:
                    rep = check_class(name, f, t, route="both", seed=0)
                except UnsupportedClassError:
                    continue
                out[f"{name} | {f} | {t}"] = cell_record(rep)
    return out


def cli_stdout(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def cli_records() -> list:
    return [{"argv": list(argv), "exit": code, "stdout": out}
            for argv, (code, out) in
            ((argv, cli_stdout(argv)) for argv in CLI_COMMANDS)]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def assert_grid_matches(got, want):
    assert len(want) == 608
    assert sorted(got) == sorted(want)
    for cell, rec in want.items():
        have = got[cell]
        for key in ("verdict", "conditions_verdict", "row_pairing", "oracle",
                    "samples", "routes_agree"):
            assert have[key] == rec[key], (cell, key)
        assert [c[:2] for c in have["conditions"]] == \
            [c[:2] for c in rec["conditions"]], cell
        for (cond, _, obs), (_, _, ref) in zip(have["conditions"],
                                               rec["conditions"]):
            if ref is None:
                assert obs is None, (cell, cond)
            else:
                assert obs == pytest.approx(ref, rel=OBSERVED_REL_TOL,
                                            abs=0.0), (cell, cond)


def test_grid_matches_golden(golden):
    assert_grid_matches(grid_records(), golden["grid"])


def test_grid_matches_golden_under_eviction(golden, monkeypatch):
    """Every cached value is rebuilt the same way: with room for about two
    600 x 600 tables, tables, reports and images are evicted within and
    between matrices, and the records do not change."""
    monkeypatch.setattr(cache, "CAP_BYTES", 8 * 2 ** 20)
    cache.clear()
    try:
        got = grid_records()
        assert cache.stats()["evictions"] > 0
    finally:
        cache.clear()
    assert_grid_matches(got, golden["grid"])


def test_cli_bytes_match_golden(golden):
    for rec in golden["cli"]:
        code, out = cli_stdout(rec["argv"])
        assert code == rec["exit"], rec["argv"]
        assert out == rec["stdout"], rec["argv"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    grid = grid_records()
    lines = ",\n".join(f"  {json.dumps(cell)}: {json.dumps(grid[cell], sort_keys=True)}"
                       for cell in sorted(grid))
    cli = json.dumps(cli_records(), indent=1)
    GOLDEN.write_text('{"cli": ' + cli + ',\n "grid": {\n' + lines + "\n}}\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
