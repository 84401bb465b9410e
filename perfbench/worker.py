"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED_AT [--setup-only]
                                [--trace SPANS_FILE]

SPAWNED_AT is the runner's ``time.monotonic()`` just before it started this
process; the worker is ready once seqspace is imported and its inputs are
made, and it reports the time in between as its set-up time.  With
``--setup-only`` it stops there.  With ``--trace`` it wraps seqspace's layers
before running, writes the spans to SPANS_FILE when the pass ends and adds
per-layer totals to its report.  The report is one JSON object, printed as
the last line of standard output.
"""

import json
import resource
import sys
import time


def main(argv: list) -> int:
    workload, seed, spawned_at = argv[0], int(argv[1]), float(argv[2])
    setup_only = "--setup-only" in argv
    spans_file = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    import seqspace  # noqa: F401  (first, so -X importtime nests numpy in it)
    import numpy as np

    import spans
    import workloads
    from stats import Pass

    prepare, run = workloads.WORKLOADS[workload]
    inputs = prepare(seed)
    setup_s = time.monotonic() - spawned_at
    report = {"setup_s": setup_s}
    if not setup_only:
        tracer = None
        if spans_file:
            tracer = spans.Tracer()
            tracer.install()
        record = Pass(tracer)
        run(inputs, record)
        report.update(
            ops=record.ops, errors=record.errors, info=record.info,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            numpy=np.__version__)
        if tracer is not None:
            report["layers"] = tracer.summary()
            np.savez_compressed(spans_file, names=np.array(spans.LAYERS),
                                **tracer.spans())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
