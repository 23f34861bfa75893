"""Benchmark entry point: run one balchain workload and print its metrics.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout; it uses the checkout's ``src``.
Set-up is timed in several fresh interpreters, then one more interpreter
runs the workload's op list in passes until the time is up.  Every op's
output is checked against an independent exact reference.  The output is
one line per metric with its unit, the run's metadata and any failed
checks, and last one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# set-up is timed this many times per run, the last one in the worker that
# then measures; the median is reported
SETUP_RUNS = 9
SETUP_TIMEOUT = 60
# the worker may overrun --seconds by one pass
RUN_TIMEOUT_MARGIN = 100

LAYER_TIMES = tuple(f"{layer}.{name}" for layer, names in spans.TRACED.items() for name in names)
LAYER_CALLS = ("steady.solve_exact", "chains.build", "sequences.term")
LAYER_EXTRA = (
    "steady.simulate.steps_per_s", "steady.power_iteration.iterations", "cli.stdout_bytes",
    "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_ratio", "ops.error_rate",
)
END_TO_END = ("wall_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mib")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it: (value, percentile)."""
    n = len(samples)
    if n < 11:
        raise ValueError(f"need at least 11 samples for a tail, got {n}")
    return sorted(samples)[n - 11], 100 * (n - 10) / n


def per_op(passes: list[dict], scaled: bool = True) -> list[float]:
    """Each op's median time over the given passes; ops that crashed are left out.

    With ``scaled`` each time is first divided by the slowdown measured
    around it (see speed.py), which puts passes run while the machine was
    busy on the same scale as the others.
    """
    slots = zip(*(zip(p["times"], p["slowdown"]) for p in passes))
    out = []
    for slot in slots:
        times = [t / f if scaled else t for t, f in slot if t is not None]
        if times:
            out.append(statistics.median(times))
    return out


def spawn(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its set-up to finish; returns it and the set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--setup-only"] if setup_only else ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker did not finish set-up (exit {proc.returncode})")
    return proc, elapsed


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker's output; a worker that is late is stopped."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past {timeout:.0f} s") from None
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def stop(proc: subprocess.Popen) -> None:
    """End a worker that is still running and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    untraced = [p for p in result["passes"] if not p["traced"]]
    latencies = per_op(untraced)
    tail_value, percentile = tail(latencies)
    raw = per_op(untraced, scaled=False)
    slowdown = statistics.median(f for p in untraced for f in p["slowdown"])
    metrics = {
        "wall_s": metric(sum(latencies), "s"),
        "op_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": metric(1000 * tail_value, "ms"),
        "setup_s": metric(statistics.median(t / f for t, f in setups), "s"),
        "peak_rss_mib": metric(result["peak_rss_mib"], "MiB"),
    }
    notes = {
        "wall_s": f"{sum(raw):.4g} s unscaled; median slowdown {slowdown:.3f}",
        "op_p50_ms": f"{1000 * statistics.median(raw):.4g} ms unscaled",
        "op_tail_ms": f"p{percentile:.1f} of {len(latencies)} ops, each the median of {len(untraced)} passes",
        "setup_s": f"median of {len(setups)} fresh interpreters; {statistics.median(t for t, _ in setups):.4g} s unscaled",
    }
    return metrics, notes


def span_table(traced: list[dict]) -> dict[str, tuple[float, float]]:
    """Every traced function: self ms and calls per traced pass, medians over those passes.

    Self times are divided by the pass's median slowdown.
    """
    names = sorted({name for p in traced for name in p["spans"]})
    table = {}
    for name in names:
        ms = [1000 * p["spans"].get(name, [0.0, 0])[0] / statistics.median(p["slowdown"]) for p in traced]
        calls = [p["spans"].get(name, [0.0, 0])[1] for p in traced]
        table[name] = (statistics.median(ms), statistics.median(calls))
    return table


def per_layer(result: dict) -> dict:
    passes = result["passes"]
    traced = [p for p in passes if p["traced"]]
    table = span_table(traced)
    untraced_wall = sum(per_op([p for p in passes if not p["traced"]]))
    traced_wall = sum(per_op(traced))
    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}.ms"] = metric(table.get(name, (0.0, 0))[0], "ms")
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = metric(table.get(name, (0.0, 0))[1], "count")
    steps = statistics.median(p["counts"].get("steady.simulate.steps", 0) for p in traced)
    busy_ms = table.get("steady.simulate", (0.0, 0))[0]
    metrics["steady.simulate.steps_per_s"] = metric(1000 * steps / busy_ms if busy_ms else 0.0, "1/s")
    iterations = statistics.median(p["counts"].get("steady.power_iteration.iterations", 0) for p in traced)
    metrics["steady.power_iteration.iterations"] = metric(iterations, "count")
    metrics["cli.stdout_bytes"] = metric(statistics.median(p["stdout_bytes"] for p in traced), "bytes")
    metrics["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    metrics["trace.traced_wall_s"] = metric(traced_wall, "s")
    metrics["trace.overhead_ratio"] = metric(traced_wall / untraced_wall, "ratio")
    metrics["ops.error_rate"] = metric(result["failed"] / result["attempted"], "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "balchain" / "__init__.py").is_file():
        print(f"perfbench: no balchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated benchmark still stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = None
    try:
        setups = []
        for i in range(SETUP_RUNS):
            slowdown = speed.factor_now()
            proc, elapsed = spawn(args, setup_only=i < SETUP_RUNS - 1)
            setups.append((elapsed, slowdown))
            if i < SETUP_RUNS - 1:
                finish(proc, SETUP_TIMEOUT)
        out = finish(proc, args.seconds + RUN_TIMEOUT_MARGIN)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None:
            stop(proc)
    lines = [line for line in out.splitlines() if line.startswith("result ")]
    if not lines:
        print("perfbench: worker printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1][len("result "):])

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "commit": commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "int_max_str_digits": result["int_max_str_digits"],
        "ops_per_pass": len(result["ops"]),
        "passes": len(result["passes"]),
        "stdout_sha256": result["stdout_sha256"],
    }
    print("meta " + json.dumps(meta))
    if args.trace:
        metrics, notes = per_layer(result), {}
        for name, (ms, calls) in span_table([p for p in result["passes"] if p["traced"]]).items():
            print(f"span {name:40s} {ms:12.3f} ms self {calls:8.0f} calls")
        print("trace sites " + " ".join(result["trace_sites"]))
    else:
        metrics, notes = end_to_end(result, setups)
    error_rate = result["failed"] / result["attempted"]
    print(f"error_rate {error_rate:.6f} ({result['failed']} of {result['attempted']} ops)")
    for failure in result["failures"]:
        tag = "known defect" if failure["known_defect"] else "FAILED"
        print(f"{tag} x{failure['count']}: {failure['op']}: {failure['reason']}")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
