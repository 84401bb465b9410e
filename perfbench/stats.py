"""Operation records and the end-to-end figures made from them."""

from __future__ import annotations

import statistics
import time

#: A tail needs this many samples beyond it; below MIN_TAIL_SAMPLES there is
#: no percentile with ten samples beyond it that is worth calling a tail.
TAIL_BEYOND = 10
MIN_TAIL_SAMPLES = 40


class Pass:
    """The operations of one worker pass: kind, seconds and failure of each,
    plus the errors the output checks found."""

    def __init__(self, tracer=None):
        self.ops = []
        self.errors = []
        self.info = {}
        self._tracer = tracer

    def timed(self, kind: str, fn, *args, **kwargs):
        """Run and time one operation.  An exception fails the operation and
        is recorded as an error; the result is then None."""
        call, lead = fn, ()
        if self._tracer is not None:
            self._tracer.op_id = len(self.ops)
            call, lead = self._tracer.span, ("op", fn)
        start = time.perf_counter()
        try:
            result = call(*lead, *args, **kwargs)
        except Exception as exc:  # a raw exception is a finding, not a crash
            self.ops.append([kind, time.perf_counter() - start, True])
            self.errors.append(f"{kind}: raised {type(exc).__name__}: {exc}")
            return None
        self.ops.append([kind, time.perf_counter() - start, False])
        return result

    def fail_last(self) -> None:
        """Count the operation just timed as failed."""
        self.ops[-1][2] = True


def tail(samples) -> tuple:
    """(value, percentile, count) at the highest percentile that leaves at
    least TAIL_BEYOND samples beyond it, or None below MIN_TAIL_SAMPLES."""
    count = len(samples)
    if count < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    at = count - TAIL_BEYOND - 1
    return ordered[at], 100.0 * (at + 1) / count, count


def end_to_end(passes: list, setups: list) -> dict:
    """End-to-end figures of a run from its pass results (dicts with "ops"
    and "peak_rss_mb") and its setup samples in seconds."""
    ops = [op for p in passes for op in p["ops"]]
    done = [seconds for _kind, seconds, failed in ops if not failed]
    busy = sum(seconds for _kind, seconds, _failed in ops)
    tail_at = tail(done)
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "ops_per_s": len(done) / busy if busy > 0 else 0.0,
        "op_p50_ms": 1e3 * statistics.median(done) if done else None,
        "op_tail_ms": 1e3 * tail_at[0] if tail_at else None,
        "tail_percentile": tail_at[1] if tail_at else None,
        "tail_samples": tail_at[2] if tail_at else len(done),
        "setup_s": statistics.median(setups) if setups else None,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)
        if passes else None,
    }
