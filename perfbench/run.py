"""seqspace benchmark runner.

    python3 perfbench/run.py --workload {grid,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a seqspace checkout.  A run is a number of passes; each
pass is a fresh worker interpreter (``perfbench/worker.py``) that imports
seqspace from ``src/``, makes the workload's inputs from the seed, runs the
workload's operations once and reports.  Passes run one after another; their
number is ``--seconds`` over the workload's nominal pass time.  Before each
pass the run also starts set-up-only workers, so that set-up time is a median
over many cold starts.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it holds the per-layer metrics of the traced passes and the tracing
overhead.  The full result, with the machine and the code it measured, is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("grid", "sweep")
END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_METRICS = {"trace.ops_per_s": "1/s", "trace.untraced_ops_per_s": "1/s",
                 "trace.overhead_pct": "%"}
#: Cold starts measured before each pass, for the set-up median.  Spreading
#: them over the run samples the machine's state as often as the passes do.
SETUP_PROBES = 2
#: Seconds one pass takes on the reference machine (see README.md).  A run of
#: S seconds makes round(S / NOMINAL_PASS_S) passes, at least two, so every
#: run of a given length does the same work and its tail percentile sits at
#: the same rank whatever the machine's speed at the time.
NOMINAL_PASS_S = {"grid": 10.0, "sweep": 10.0}
MIN_PASSES = 2
#: Every worker of a run must finish inside this many seconds of its start.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    info["memory_gb"] = round(int(line.split()[1]) / 2 ** 20, 2)
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def git_commit(root: Path):
    """The checked-out commit, or None where git or a repository is missing.
    The search for a repository stops at ``root``, so a checkout that is not
    one never reports the commit of a repository around it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(root),
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: Path) -> str:
    """SHA-256 over the seqspace sources, which names the code measured
    also where there is no git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Runner:
    """Starts the workers of one run, one at a time, under one time limit."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")
        self.numpy = None

    def worker(self, setup_only: bool = False, spans_file: str = "") -> dict:
        cmd = [sys.executable]
        if spans_file:
            cmd += ["-X", "importtime"]
        cmd += [str(HERE / "worker.py"), self.workload, str(self.seed)]
        spawned_at = time.monotonic()
        cmd.append(repr(spawned_at))
        if setup_only:
            cmd.append("--setup-only")
        if spans_file:
            cmd += ["--trace", spans_file]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env,
                                cwd=str(ROOT), text=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"a {self.workload} worker ran past the "
                             f"{RUN_LIMIT_S:.0f} s limit of a run")
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited with {proc.returncode}:\n"
                             + err[-2000:])
        report = json.loads(lines[-1])
        self.numpy = report.get("numpy", self.numpy)
        if spans_file:
            report["imports"] = spans.import_seconds(err)
        return report

    def setups(self) -> list:
        """Set-up seconds of SETUP_PROBES cold starts."""
        return [self.worker(setup_only=True)["setup_s"]
                for _ in range(SETUP_PROBES)]


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def run_plain(runner: Runner, seconds: float) -> tuple:
    runner.worker(setup_only=True)  # compiles the bytecode of a fresh checkout
    setups, passes = [], []
    for _ in range(pass_count(runner.workload, seconds)):
        setups += runner.setups()
        passes.append(runner.worker())
    setups += [p["setup_s"] for p in passes]
    return passes, dict(stats.end_to_end(passes, setups), setup_samples_s=setups)


def run_traced(runner: Runner, seconds: float) -> tuple:
    runner.worker(setup_only=True)  # compiles the bytecode of a fresh checkout
    plain, traced = [], []
    for _ in range(max(1, pass_count(runner.workload, seconds) // 2)):
        plain.append(runner.worker())
        spans_file = runner.out_dir / (f"spans-{runner.workload}-seed"
                                       f"{runner.seed}-pass{len(traced)}.npz")
        traced.append(runner.worker(spans_file=str(spans_file)))
    per_pass = [dict(spans.layer_metrics(p["layers"]), **p["imports"])
                for p in traced]
    layers = {name: statistics.fmean(p[name] for p in per_pass)
              for name, _unit in spans.LAYER_METRICS}
    untraced_rate = stats.end_to_end(plain, [])["ops_per_s"]
    traced_rate = stats.end_to_end(traced, [])["ops_per_s"]
    layers["trace.ops_per_s"] = traced_rate
    layers["trace.untraced_ops_per_s"] = untraced_rate
    layers["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    counts = stats.end_to_end(plain + traced, [])
    return plain + traced, dict(layers, attempted=counts["attempted"],
                                failed=counts["failed"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seqspace" / "__init__.py").is_file():
        print(f"error: no seqspace sources under {ROOT / 'src'}; run the "
              "benchmark from a seqspace checkout", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, out_dir)
    try:
        if args.trace:
            passes, figures = run_traced(runner, args.seconds)
            units = dict(spans.LAYER_METRICS, **TRACE_METRICS)
        else:
            passes, figures = run_plain(runner, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    errors = [e for p in passes for e in p["errors"]]
    metrics = {name: {"value": figures[name], "unit": unit}
               for name, unit in units.items()}
    correct = not errors and all(m["value"] is not None for m in metrics.values())
    result = {"correct": correct, "attempted": figures["attempted"],
              "failed": figures["failed"], "metrics": metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "tail_percentile": figures.get("tail_percentile"),
        "tail_samples": figures.get("tail_samples"),
        "info": [p["info"] for p in passes],
        "ops": [p["ops"] for p in passes],
        "setup_samples_s": figures.get("setup_samples_s"),
        "errors": errors[:50],
        "machine": dict(machine(), numpy=runner.numpy),
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, detail=detail), indent=1))

    print(f"seqspace benchmark: {args.workload}, seed {args.seed}, "
          f"{len(passes)} passes, {detail['machine']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    if figures.get("tail_percentile") is not None:
        print(f"  op_tail_ms is the p{figures['tail_percentile']:.2f} latency "
              f"of {figures['tail_samples']} completed operations "
              f"({stats.TAIL_BEYOND} beyond it)")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {correct}")
    for error in errors[:10]:
        print(f"  check failed: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
