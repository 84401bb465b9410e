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

``golden/cli_lock.json`` pins what the grid golden does not: the ``--json``
stdout bytes and exit code of :data:`LOCK_COMMANDS`, with every condition's
note and detail, truncations past ``DENSE_LIMIT``, dual probes and
regularity reports.  Each was recorded in a fresh process; regenerate it
(under the same rule) with

    PYTHONPATH=src python tests/test_golden.py lock

``golden/dual_verdicts.json`` holds the exit code, the headline and each
condition's verdict of :data:`DUAL_PROBES`, read through ``seqspace dual
--json``; a record whose verdicts moved on purpose says why in its
``"moved"`` note.  Regenerate it (under the same rule) with

    PYTHONPATH=src python tests/test_golden.py duals
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from seqspace import cache
from seqspace.cli import main
from seqspace.conditions import check_class
from seqspace.errors import UnsupportedClassError

GOLDEN = Path(__file__).resolve().parent / "golden" / "grid_seed0.json"
LOCK = GOLDEN.with_name("cli_lock.json")
DUALS = GOLDEN.with_name("dual_verdicts.json")
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

#: Between them the check-class commands judge all eight conditions, the
#: too-few-rows note (taylor:9/10 at n = 3000) and Taylor row pairing; the
#: rest read past DENSE_LIMIT (n = 2401 and 4800), probe duals and report
#: regularity at n = 2000, of taylor:1/4 also at n = 600.  Past the limit,
#: the two cesaro checks at n = 2401 read the row distances and the null
#: columns, which the others there do not.  Row pairing
#: runs without the oracle: the notes of T_{1/4}'s images of the omega
#: preimages print rounding noise near zero, which differs between OpenBLAS
#: kernels.
LOCK_COMMANDS = tuple(tuple(cmd.split()) + ("--json",) for cmd in (
    "check-class --matrix cesaro --from c --to c --route both",
    "check-class --matrix cesaro --from linf --to c --route both",
    "check-class --matrix cesaro --from c --to c0 --route both",
    "check-class --matrix omega-inv --from linf --to c0 --route both",
    "check-class --matrix taylor:1/4 --from linf --to cs --route both",
    "check-class --matrix taylor:9/10 --from c --to c --n 3000",
    "check-class --matrix taylor:1/4 --from c0(omega) --to c",
    "dual --space linf(gamma) --a list:1,-2,3",
    "dual --space linf(gamma) --a list:1,-2,3 --n 2401",
    "dual --space c0(cesaro) --a list:1,-2,3",
    "check-class --matrix euler:1/2 --from c --to c(omega) --n 2401 "
    "--route both",
    "check-class --matrix omega-inv --from bs --to c0 --n 4800",
    "check-class --matrix cesaro --from linf --to cs --n 2401 --route both",
    "check-class --matrix cesaro --from c --to c0 --n 2401 --route both",
    "regularity --matrix euler:3/4",
    "regularity --matrix taylor:1/4",
    "check-class --matrix identity --from c0(omega) --to c --route both",
    "check-class --matrix zero --from c --to c(gamma) --route both",
    "check-class --matrix identity --from bs --to c0(gamma) --route both",
))


#: The sweep's dual probes: a_k = r^k for every ratio ±p/q, q < 10, over
#: c0(omega) and linf(gamma); then named sequences over the c0, c and linf
#: domains of omega and gamma, cs, bs and c0(cesaro).  Both kinds each.
DUAL_RATIOS = sorted({sign * Fraction(p, q) for q in range(2, 10)
                      for p in range(1, q) for sign in (1, -1)})
DUAL_NAMED = ("harmonic", "alternating", "const:1", "unit:3", "power:-2",
              "power:1", "geometric:3", "geometric:2", "geometric:1/2",
              "geometric:-3/2", "list:1,-2,3")
DUAL_SPACES = tuple(f"{tag}({m})" for m in ("omega", "gamma")
                    for tag in ("c0", "c", "linf")) + ("cs", "bs", "c0(cesaro)")
DUAL_PROBES = tuple(dict.fromkeys(
    [(f"geometric:{r}", space) for r in DUAL_RATIOS
     for space in ("c0(omega)", "linf(gamma)")]
    + [(a, space) for a in DUAL_NAMED for space in DUAL_SPACES]))


def dual_record(a, space, kind) -> dict:
    code, out = cli_stdout(("dual", "--space", space, "--a", a, "--kind",
                            kind, "--json"))
    doc = json.loads(out) if out else {}
    conds = doc.get("class_report", {}).get("conditions", [])
    return {"exit": code, "verdict": doc.get("verdict"),
            "conditions": [[c["condition"], c["verdict"]] for c in conds]}


def dual_records() -> dict:
    return {f"{a} | {space} | {kind}": dual_record(a, space, kind)
            for a, space in DUAL_PROBES for kind in ("beta", "gamma")}


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


def grid_cells() -> list:
    return [(name, f, t) for name in GRID_MATRICES for f in GRID_SPACES
            for t in GRID_SPACES]


def grid_records(cells=None) -> dict:
    out = {}
    for name, f, t in grid_cells() if cells is None else cells:
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


def fresh_process_record(argv) -> dict:
    """The exit code and stdout of ``argv`` run by a new interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "seqspace", *argv],
                          env=env, capture_output=True, text=True)
    return {"argv": list(argv), "exit": done.returncode,
            "stdout": done.stdout}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def lock() -> list:
    return json.loads(LOCK.read_text())


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
    """Every cached value is rebuilt the same way: at 6 MiB a 600 x 600
    table is a large entry, so rows are read in chunks without one, and the
    small entries of a pass (7.9 MiB) overflow the cap, so features
    records, limit analyses, reports and images are evicted within and
    between matrices, and the records do not change."""
    monkeypatch.setattr(cache, "CAP_BYTES", 6 * 2 ** 20)
    cache.clear()
    try:
        got = grid_records()
        assert cache.stats()["evictions"] > 0
    finally:
        cache.clear()
    assert_grid_matches(got, golden["grid"])


def assert_cli_replays(records):
    for rec in records:
        code, out = cli_stdout(rec["argv"])
        assert code == rec["exit"], rec["argv"]
        assert out == rec["stdout"], rec["argv"]


def test_cli_bytes_match_golden(golden):
    assert_cli_replays(golden["cli"])


def test_dual_verdicts_match():
    want = json.loads(DUALS.read_text())
    got = dual_records()
    assert sorted(got) == sorted(want)
    for probe, rec in want.items():
        rec = {key: val for key, val in rec.items() if key != "moved"}
        assert got[probe] == rec, probe


def test_cli_lock_matches(lock):
    assert [tuple(rec["argv"]) for rec in lock] == list(LOCK_COMMANDS)
    assert_cli_replays(lock)


@pytest.mark.parametrize("cap_mib", (8, 64))
def test_same_answers_in_any_order(golden, lock, monkeypatch, cap_mib):
    """No answer depends on what was computed before it: a seeded shuffle of
    the grid, then the lock's commands forwards and backwards (n = 600 and
    n = 2000 on the same matrices), give the golden answers with the cache
    capped at 8 MiB and at 64 MiB."""
    cells = grid_cells()
    random.Random(0).shuffle(cells)
    monkeypatch.setattr(cache, "CAP_BYTES", cap_mib * 2 ** 20)
    cache.clear()
    try:
        assert_grid_matches(grid_records(cells), golden["grid"])
        assert_cli_replays(lock)
        assert_cli_replays(lock[::-1])
    finally:
        cache.clear()


if __name__ == "__main__" and sys.argv[1:] == ["duals"]:
    notes = json.loads(DUALS.read_text()) if DUALS.exists() else {}
    records = dual_records()
    for probe, rec in records.items():      # a record's note stays with it
        if "moved" in notes.get(probe, {}):
            rec["moved"] = notes[probe]["moved"]
    DUALS.write_text("{\n" + ",\n".join(
        f"  {json.dumps(probe)}: {json.dumps(rec)}"
        for probe, rec in sorted(records.items())) + "\n}\n")
    sys.stdout.write(f"wrote {DUALS}\n")
elif __name__ == "__main__" and sys.argv[1:] == ["lock"]:
    LOCK.write_text(json.dumps([fresh_process_record(argv)
                                for argv in LOCK_COMMANDS], indent=1) + "\n")
    sys.stdout.write(f"wrote {LOCK}\n")
elif __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    grid = grid_records()
    lines = ",\n".join(f"  {json.dumps(cell)}: {json.dumps(grid[cell], sort_keys=True)}"
                       for cell in sorted(grid))
    cli = json.dumps(cli_records(), indent=1)
    GOLDEN.write_text('{"cli": ' + cli + ',\n "grid": {\n' + lines + "\n}}\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
