"""braidrook benchmark: time how long each certified verdict takes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root (or a checkout of it). Each sample is a fresh
child process that imports braidrook from src/, builds the seeded inputs,
calls one public entry point and checks the verdict against pinned
expectations. Children run one at a time, single-threaded, until --seconds
have passed; at least MIN_SETUPS processes are started so that setup_s is a
median. Times are scaled to a reference machine speed (see KERNEL_REF_S).

--trace 0 reports the end-to-end metrics with tracing off. --trace 1 wraps
the package's functions from outside (perfbench/tracer.py) and reports
per-layer metrics, plus trace.verdict_s for the tracing overhead.
--workload all runs every workload untraced and traced and prints one table.

The second-to-last stdout line is the run record (seed, q, samples, verdict
percentiles, failed_ratio, nullspace path against the baseline, versions);
the last line is {"correct", "attempted", "failed", "metrics"}. The exit code
is 1 if any verdict was wrong and 2 if the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import EXPECTED, WORKLOADS, q_order  # noqa: E402

MIN_SETUPS = 5
RUN_DEADLINE_S = 165  # a run must end within 180 s
OUT_DIR = ROOT / ".perfbench"

TAIL_PERCENTILES = (99, 95, 90, 75, 50)

# A shared 2-vCPU host can change speed by up to 1.8x within seconds and
# between minutes, which no amount of sampling inside one run removes. So
# between children the parent times a fixed Fraction kernel for as long as
# the last child ran (the child is not running then), and divides each
# child's times by the mean slowdown of the kernel before and after it,
# against KERNEL_REF_S: reported times are seconds at that reference speed.
# Raw wall times stay in the run record.
KERNEL_REF_S = 0.050
CALIBRATE_S = 0.2  # shortest calibration
CALIBRATE_MAX_S = 3.0  # otherwise calibrate as long as the child ran, up to this


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(name: str, q, trace: int, timeout: float, setup_only: bool = False) -> dict:
    """Run one child; returns its record, or {"problem": ...} if it died."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--q", str(q), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(OUT_DIR / f"spans-{name}.json")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(timeout, 1.0),
            env=child_env(),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"problem": f"child timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"problem": f"child exited with code {proc.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"problem": f"child printed no record: {lines[-1][:200]!r}"}


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return {"percentile": pct, "value": cuts[pct - 1]}
    return None


def path_signature(nullspace: list[dict]) -> list[list]:
    return [[entry["path"], entry["primes"]] for entry in nullspace]


def git_sha() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = top.stdout.split()
    if top.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return "unknown"
    return out[1]


def run_metadata() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }


_KERNEL_INPUT = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(400)]


def kernel() -> Fraction:
    """Fixed small-Fraction multiply-adds, the arithmetic the verdicts do."""
    total = Fraction(0)
    for x in _KERNEL_INPUT:
        for y in _KERNEL_INPUT[:40]:
            total += x * y
    return total


def slowdown(seconds: float) -> float:
    """Mean kernel time over the given seconds, relative to KERNEL_REF_S."""
    start, n = time.perf_counter(), 0
    while True:
        kernel()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / n / KERNEL_REF_S


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Returns (run record, result line) for one workload."""
    order = q_order(seed)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    attempts = []
    before = slowdown(CALIBRATE_S)

    def sample(q, trace, setup_only=False):
        nonlocal before
        t0 = time.monotonic()
        rec = run_child(name, q, trace, deadline - time.monotonic(), setup_only)
        after = slowdown(min(max(CALIBRATE_S, time.monotonic() - t0), CALIBRATE_MAX_S))
        rec.update(q=str(q), slowdown=(before + after) / 2)
        before = after
        return rec

    while True:
        rec = sample(order[len(attempts) % len(order)], trace)
        attempts.append(rec)
        # a wrong verdict repeats on every sample, so one is enough
        if rec.get("problem"):
            break
        if len(attempts) >= len(order) and time.monotonic() - started >= seconds:
            break
    samples = [r for r in attempts if "verdict_s" in r]
    setups = [s["setup_s"] / s["slowdown"] for s in samples]
    while len(setups) < MIN_SETUPS and not attempts[-1].get("problem") and time.monotonic() < deadline:
        rec = sample(order[0], 0, setup_only=True)
        if "setup_s" not in rec:
            attempts.append(rec)
            break
        setups.append(rec["setup_s"] / rec["slowdown"])

    problems = [r["problem"] for r in attempts if r.get("problem")]
    attempted = len(attempts)
    failed = len(problems)
    paths = {s["q"]: path_signature(s["nullspace"]) for s in samples}
    changed = {q: p for q, p in paths.items() if p != EXPECTED["paths"][name].get(q)}
    record = {
        "workload": name,
        "seed": seed,
        "q_order": [str(q) for q in order],
        "trace": trace,
        "samples": len(samples),
        "failed_ratio": failed / attempted,
        "problems": problems,
        "nullspace_path": paths,
        "path_changed": {q: {"now": p, "baseline": EXPECTED["paths"][name].get(q)} for q, p in changed.items()},
        "absent": samples[0]["absent"] if samples else [],
        "facts": samples[0]["facts"] if samples else None,
        **run_metadata(),
    }
    metrics: dict[str, dict] = {}
    if samples and not problems:
        verdicts = [s["verdict_s"] / s["slowdown"] for s in samples]
        record["verdict_s"] = {
            "median": statistics.median(verdicts),
            "tail": tail(verdicts),
            "n": len(verdicts),
            "wall_median": statistics.median(s["verdict_s"] for s in samples),
            "samples": [[s["q"], s["verdict_s"], s["slowdown"]] for s in samples],
        }
        record["setup_s"] = {"median": statistics.median(setups), "n": len(setups)}
        if trace:
            for key, unit in LAYER_METRICS.items():
                values = [
                    s["layers"][key] / s["slowdown"] if unit == "s" else s["layers"][key]
                    for s in samples
                    if key in s["layers"]
                ]
                if values:
                    # counts and ratios stay values some child observed
                    middle = statistics.median if unit == "s" else statistics.median_low
                    metrics[key] = {"value": middle(values), "unit": unit}
        else:
            metrics = {
                "verdict_s": {"value": statistics.median(verdicts), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mib": {
                    "value": statistics.median(s["rss_mib"] for s in samples),
                    "unit": "MiB",
                },
            }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def path_text(paths: dict) -> str:
    """Distinct nullspace paths over the pool, e.g. 'exact:0,modular:2'."""
    return " ".join(sorted({",".join(f"{p}:{n}" for p, n in sig) or "-" for sig in paths.values()}))


def warn_on_path_change(record: dict) -> None:
    for q, change in record["path_changed"].items():
        print(
            f"WARNING {record['workload']} q={q}: nullspace path {change['now']} "
            f"differs from baseline {change['baseline']}",
            file=sys.stderr,
        )


def run_all(seed: int, seconds: float) -> int:
    rows, wrong = {}, False
    for name in WORKLOADS:
        plain, plain_result = run_workload(name, seed, seconds, 0)
        traced, traced_result = run_workload(name, seed, seconds, 1)
        for rec in (plain, traced):
            warn_on_path_change(rec)
            print(json.dumps(rec))
        wrong |= not (plain_result["correct"] and traced_result["correct"])
        m = plain_result["metrics"]
        layers = traced_result["metrics"]
        overhead = None
        if "trace.verdict_s" in layers and "verdict_s" in m:
            overhead = layers["trace.verdict_s"]["value"] / m["verdict_s"]["value"]
        rows[name] = {
            "seed": seed,
            "q_order": plain["q_order"],
            "verdict_s": plain.get("verdict_s"),
            "setup_s": plain.get("setup_s"),
            "peak_rss_mib": m.get("peak_rss_mib", {}).get("value"),
            "failed_ratio": max(plain["failed_ratio"], traced["failed_ratio"]),
            "nullspace_path": plain["nullspace_path"],
            "path_changed": {**plain["path_changed"], **traced["path_changed"]},
            "trace_overhead": overhead,
            "layers": {k: v["value"] for k, v in layers.items()},
        }
    print()
    print(f"{'workload':<16} {'verdict_s':>10} {'tail':>14} {'setup_s':>8} {'peak_rss_mib':>13} "
          f"{'failed_ratio':>12} {'trace_x':>8}  nullspace path")
    for name, row in rows.items():
        v = row["verdict_s"] or {}
        t = v.get("tail")
        tail_text = f"p{t['percentile']} {t['value']:.4f}" if t else f"n={v.get('n', 0)}<20"
        print(
            f"{name:<16} {v.get('median', float('nan')):>9.4f}s {tail_text:>14} "
            f"{(row['setup_s'] or {}).get('median', float('nan')):>7.4f}s "
            f"{row['peak_rss_mib'] or float('nan'):>9.1f} MiB {row['failed_ratio']:>12.3f} "
            f"{row['trace_overhead'] or float('nan'):>7.3f}x  {path_text(row['nullspace_path'])}"
        )
    print(json.dumps({"meta": run_metadata(), "seconds": seconds, "workloads": rows}))
    return 1 if wrong else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "braidrook" / "__init__.py").is_file():
        print(f"no braidrook package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    record, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    warn_on_path_change(record)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
