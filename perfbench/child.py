"""One verdict in a fresh process: import braidrook from the checkout's
src/, build the inputs, call the entry point once, check the verdict and
print one JSON line.

setup_s runs from --t0, a CLOCK_MONOTONIC reading the parent takes just
before starting this process, to the end of set-up; it includes interpreter
start-up and the lazy numpy import of braidrook._modlinalg.

Usage: child.py --workload NAME --q P/Q --t0 SECONDS [--trace 0|1]
[--setup-only] [--spans-out FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--q", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import braidrook
    import braidrook._modlinalg  # noqa: F401  (numpy, imported lazily by linalg)
    import braidrook.cellular  # noqa: F401
    import braidrook.lieclosure  # noqa: F401
    import braidrook.tensor  # noqa: F401

    if Path(braidrook.__file__).resolve().parent != SRC / "braidrook":
        print(f"braidrook imported from {braidrook.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracer import PATH_PROBES, PROBES, ROOT_SPAN, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    q = Fraction(args.q)
    inputs = workload.build(q)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer(PROBES if args.trace else PATH_PROBES).install()
    start = time.perf_counter()
    with tracer.span(ROOT_SPAN):
        verdict = workload.run(inputs)
    verdict_s = time.perf_counter() - start
    tracer.uninstall()

    facts, problem = workload.check(verdict, q)
    record = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "facts": facts,
        "problem": problem,
        "nullspace": tracer.nullspace,
        "absent": tracer.absent,
    }
    if args.trace:
        record["layers"] = tracer.metrics()
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.dump_spans()))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
