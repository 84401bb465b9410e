"""The benchmark's workloads: inputs made from the seed, the timed operations,
and the checks of their outputs against references computed apart from
seqspace or against properties the method must have.

Every workload is a pair of functions.  ``prepare(seed)`` makes the inputs;
it runs before a worker reports itself ready, so it is part of set-up time.
``run(inputs, record)`` times each operation through a ``stats.Pass`` and
checks the outputs after each timed call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd

import seqspace
from seqspace import cli

import reference as ref

# ---------------------------------------------------------------------------
# grid: the 608 supported cells of the acceptance grid, both routes
# ---------------------------------------------------------------------------


def grid_prepare(seed: int) -> dict:
    return {"seed": seed, "cells": ref.grid_cells(),
            "unsupported": ref.grid_unsupported()}


def grid_run(inputs: dict, record) -> None:
    seed = inputs["seed"]
    verdicts = {}
    for cell in inputs["cells"]:
        rep = record.timed("cell", seqspace.check_class, *cell, route="both",
                           seed=seed)
        if rep is not None:
            verdicts[cell] = (str(rep.verdict), str(rep.oracle.verdict))

    decisive = 0
    for cell, (headline, oracle) in verdicts.items():
        if headline != "inconclusive":
            decisive += 1
            if oracle != "inconclusive" and oracle != headline:
                record.errors.append(f"{cell}: conditions say {headline}, "
                                     f"the oracle says {oracle}")
    # The headline verdict of a textbook cell.  The oracle's "satisfied" only
    # means that no sample failed, so it is not held to the textbook answer.
    for cell, known in ref.TEXTBOOK_CELLS.items():
        if cell in verdicts and verdicts[cell][0] == ref.OPPOSITE[known]:
            record.errors.append(f"{cell}: textbook answer is {known}, got "
                                 f"{verdicts[cell][0]}")
    for cell in inputs["unsupported"]:
        try:
            seqspace.check_class(*cell)
        except seqspace.UnsupportedClassError:
            continue
        record.errors.append(f"{cell}: outside the documented support rules "
                             "but answered")
    record.info = {"cells": len(inputs["cells"]), "decisive": decisive}


# ---------------------------------------------------------------------------
# sweep: a stream of CLI queries, each on a matrix the worker has not seen
# ---------------------------------------------------------------------------

#: Euler means E_r with r >= 5/12.  Below about 2/5 the (c0 : c) and (c : c)
#: checks at the default truncation call these regular matrices violated,
#: a fault recorded in CHANGES.md, so they are left out of the stream.
EULER_POOL = tuple(Fraction(p, q) for q in range(2, 17) for p in range(1, q)
                   if gcd(p, q) == 1 and Fraction(p, q) >= Fraction(5, 12))
RIESZ_POWERS = tuple(range(1, 9))
#: Taylor transforms whose checks complete today, with short and long rows.
TAYLOR_COMPLETING = ("1/10", "1/5", "1/4", "3/8")
#: Taylor transforms whose class checks (and, but for 1/2, regularity) fail
#: with exit code 3 today: ``TaylorTransform.row_cutoff`` runs every row to its
#: silent cap, so too few complete rows remain for the trailing window.  They
#: do not depend on the seed, and each of their failures is counted.
TAYLOR_FAILING = ("1/2", "1/3", "2/3", "9/10")
#: Dual probes pair a seeded geometric sequence r^k, |r| < 1, with each
#: domain: one family, so the seed moves the probes' values but not their cost.
DUAL_RATIOS = tuple(sorted({sign * Fraction(p, q) for q in range(2, 10)
                            for p in range(1, q) for sign in (1, -1)}))
DUAL_SPACES = ("c0(omega)", "linf(gamma)")
CLASSICAL_PAIRS = (("c0", "c"), ("c", "c"), ("linf", "linf"))
SWEEP_SIZES = {"euler": 4, "riesz": 3}


def _query(family: str, spec: str) -> list:
    """The commands asked of one matrix: (argv, kind, pair) triples."""
    out = [(["check-class", "--matrix", spec, "--from", f, "--to", t],
            "check-class", (f, t)) for f, t in CLASSICAL_PAIRS]
    if family in ("euler", "riesz"):
        out.append((["check-class", "--matrix", spec, "--from", "c",
                     "--to", "c(omega)"], "check-class", ("c", "c(omega)")))
        out.append((["check-class", "--matrix", spec, "--from", "c0(omega)",
                     "--to", "c", "--route", "both"], "check-class-both",
                    ("c0(omega)", "c")))
    out.append((["regularity", "--matrix", spec], "regularity", None))
    return out


def sweep_prepare(seed: int) -> dict:
    """The query stream.  The families take turns in a fixed order, so that
    the seed moves parameters but not the stream's memory profile."""
    rng = random.Random(seed)
    lanes = [[("euler", f"euler:{r}")
              for r in rng.sample(EULER_POOL, SWEEP_SIZES["euler"])],
             [("riesz", f"riesz:power:{p}")
              for p in rng.sample(RIESZ_POWERS, SWEEP_SIZES["riesz"])],
             [("taylor", f"taylor:{r}") for r in TAYLOR_COMPLETING],
             [("taylor-failing", f"taylor:{r}") for r in TAYLOR_FAILING]]
    matrices = [lane[i] for i in range(max(map(len, lanes)))
                for lane in lanes if i < len(lane)]
    commands = []
    for family, spec in matrices:
        for argv, kind, pair in _query(family, spec):
            commands.append({"argv": argv + ["--json"], "kind": kind,
                             "pair": pair, "may_fail": family == "taylor-failing",
                             "regular": True})
        for space in DUAL_SPACES:
            ratio = rng.choice(DUAL_RATIOS)
            commands.append({"argv": ["dual", "--space", space, "--a",
                                      f"geometric:{ratio}", "--json"],
                             "kind": "dual", "pair": None, "may_fail": False,
                             "regular": False})
    return {"commands": commands}


def _run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_command(command: dict, code: int, stdout: str, stderr: str) -> tuple:
    """(failed, error or None) for one completed CLI call."""
    name = " ".join(command["argv"])
    if code == 3:
        if command["may_fail"]:
            return True, None
        return True, f"{name}: exit 3: {stderr.strip()[-200:]}"
    if code not in ref.EXIT_FOR_VERDICT.values():
        return True, f"{name}: unexpected exit code {code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False, f"{name}: exit {code} without a JSON report"
    verdict = doc.get("verdict")
    if ref.EXIT_FOR_VERDICT.get(verdict) != code:
        return False, f"{name}: exit {code} but JSON verdict {verdict}"
    if command["regular"]:
        if command["pair"] == ("c", "c(omega)") and verdict == "satisfied":
            return False, f"{name}: a regular matrix cannot map c into c(omega)"
        if (command["pair"] in CLASSICAL_PAIRS or command["kind"] == "regularity") \
                and verdict == "violated":
            return False, f"{name}: a regular matrix was judged violated"
    oracle = doc.get("oracle")
    if oracle is not None:
        pair = {doc.get("conditions_verdict"), oracle["verdict"]}
        if pair == {"satisfied", "violated"}:
            return False, f"{name}: the two routes disagree"
    return False, None


def sweep_run(inputs: dict, record) -> None:
    for command in inputs["commands"]:
        got = record.timed(command["kind"], _run_cli, list(command["argv"]))
        if got is None:
            continue
        failed, error = check_command(command, *got)
        if failed:
            record.fail_last()
        if error:
            record.errors.append(error)
    record.info = {"commands": len(inputs["commands"])}


WORKLOADS = {
    "grid": (grid_prepare, grid_run),
    "sweep": (sweep_prepare, sweep_run),
}
