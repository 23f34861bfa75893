"""One workload in one fresh interpreter; started by run.py.

Protocol on stdout: the line ``ready`` once set-up (import, op list,
references) is done, then, unless ``--setup-only``, one line
``result <json>`` with the raw per-op timings, span totals and failures.
Operations run in a closed loop: one thread, each op issued after the
previous one returned, the same op list once per pass.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import signal
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import reference as ref
import spans
import speed
import workloads
from workloads import Family, SequenceName, Stored

ROOT = Path(__file__).resolve().parent.parent

# the only failure the benchmark expects: `seq` past Python's default limit
# on int-to-str conversion, which balchain does not handle yet
KNOWN_DEFECT = "Exceeds the limit"

# enough passes for a per-op median, and in a traced run two untraced
# passes around one traced pass
MIN_PASSES = 3
# seconds between two readings of the machine's speed within a pass
SPEED_GAP = 0.1


class Setup:
    """Everything prepared before the first timed op."""

    def __init__(self, bc, ops: list[workloads.Op]):
        self.bc = bc
        self.ops = ops
        self.refs: dict[tuple, list[Fraction]] = {}
        self.gaps: dict[tuple, tuple] = {}
        self.args = [tuple(self._resolve(a) for a in op.args) for op in ops]
        for op in ops:
            for value in op.expect:
                if isinstance(value, Family):
                    self.stationary(value)
            if op.check == "limit_sizes":
                for n in op.expect[0]:
                    self.gaps["sizes", n] = ref.truncation_gap(n)
            if op.check == "limit_ratio":
                max_n, digits = op.expect
                for n in range(2, max_n + 1):
                    self.gaps["ratio", n, digits] = ref.ratio_gap(n, digits)

    def _resolve(self, value):
        if isinstance(value, Family):
            return self.bc.ChainFamily(value.kind, value.n, value.a, value.q)
        if isinstance(value, SequenceName):
            return getattr(self.bc, value.name.upper().replace("-", "_"))
        return value

    def stationary(self, fam: Family) -> list[Fraction]:
        key = (fam.kind, fam.n, fam.a)
        if key not in self.refs:
            pi = ref.stationary(fam.kind, fam.n, fam.a)
            # the references must agree with balchain's own closed form
            ref.check_vector(self.bc.closed_form(self._resolve(fam)), pi)
            self.refs[key] = pi
        return self.refs[key]


def run_op(setup: Setup, index: int, ctx: dict, tmp: str):
    """Time one op; returns (seconds, result, arguments), a CLI result being (code, out, err)."""
    op = setup.ops[index]
    bc = setup.bc
    if op.call == "cli":
        argv = [a.replace("{tmp}", tmp) for a in op.args]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            code = bc.cli.main(argv)
            elapsed = perf_counter() - start
        return elapsed, (code, out.getvalue(), err.getvalue()), argv
    fn = getattr(bc, op.call)
    args = [ctx[a.key] if isinstance(a, Stored) else a for a in setup.args[index]]
    start = perf_counter()
    result = fn(*args)
    elapsed = perf_counter() - start
    if op.store:
        ctx[op.store] = result
    return elapsed, result, args


def check_op(setup: Setup, op: workloads.Op, result, args, tmp: str) -> None:
    """Raise ref.CheckFailed unless the op's output matches its reference."""
    name, expect = op.check, op.expect
    fam = expect[0] if expect and isinstance(expect[0], Family) else None
    pi = setup.stationary(fam) if fam else None
    if op.call == "cli":
        code, out, err = result
        ref.require(code == 0, f"exit {code}: {err.strip()[:200]}")
        text = out
    if name == "matrix":
        ref.check_matrix(result, fam.n)
    elif name == "vector":
        ref.check_vector(result, pi)
    elif name == "validation":
        ref.require(result.n == fam.n and result.ok, "validate did not report a valid ergodic chain")
    elif name == "power":
        ref.check_power(result, args[0], args[1], pi)
    elif name == "term":
        ref.check_term(expect[0], expect[1], result)
    elif name == "matrix_power":
        ref.check_matrix_power(expect[0], result)
    elif name == "verify_one":
        (row,) = ref.verify_rows(text)
        ref.require(row[:3] == [fam.kind, str(fam.n), fam.params()], f"verify row {row[:3]} is for another family")
    elif name == "verify_all":
        rows = ref.verify_rows(text)
        ref.require(len(rows) == expect[0], f"verify --all gave {len(rows)} rows, expected {expect[0]}")
    elif name == "verify_beta":
        (row,) = ref.verify_rows(text)
        ref.require(row[:2] == ["beta-power-identity", str(expect[0])], "unexpected beta-power row")
    elif name == "chain_file":
        rows = ref.matrix_file_rows(Path(expect[1].replace("{tmp}", tmp)).read_text())
        ref.require(len(rows) == fam.n, "matrix file has the wrong size")
        ref.check_rows_stochastic(rows, range(fam.n))
    elif name == "solve_matrix_file":
        rows = ref.matrix_file_rows(Path(expect[1].replace("{tmp}", tmp)).read_text())
        solved = [Fraction(x) for x in json.loads(text)["pi"]]
        ref.check_stationary(rows, solved)
        ref.check_vector(solved, pi)
    elif name == "power_json":
        payload = json.loads(text)
        ref.require(payload["iterations"] >= 1, "no iterations reported")
        ref.check_close(payload["pi"], pi, ref.POWER_TOL)
    elif name == "simulate_json":
        payload = json.loads(text)
        ref.require(sum(payload["visits"]) == expect[1] == payload["steps"], "visits do not add up to the steps")
        ref.require(payload["seed"] == expect[2], "simulation seed not echoed")
        ref.check_close(payload["pi"], pi, ref.SIMULATE_TOL)
    elif name == "limit_sizes":
        sizes, digits = expect
        lines = text.strip().split("\n")
        ref.require(len(lines) == len(sizes), "limit: wrong number of rows")
        for n, line in zip(sizes, lines):
            got_n, gap = line.split(",")
            ref.require(int(got_n) == n, f"limit: row for n={got_n}, expected {n}")
            lo, hi, biggest = setup.gaps["sizes", n]
            ref.check_bound(float(gap), lo, hi, Fraction(2 * biggest + 2, 10**digits), f"limit n={n}")
    elif name == "limit_ratio":
        max_n, digits = expect
        lines = text.strip().split("\n")
        ref.require(len(lines) == max_n - 1, "limit --ratio: wrong number of rows")
        for n, line in zip(range(2, max_n + 1), lines):
            got_n, gap = line.split(",")
            ref.require(int(got_n) == n, f"limit --ratio: row for n={got_n}, expected {n}")
            lo, hi = setup.gaps["ratio", n, digits]
            ref.check_bound(float(gap), lo, hi, Fraction(3, 10**digits), f"ratio n={n}")
    elif name == "seq":
        ref.check_sequence_text(expect[0], expect[1], text)
    else:
        raise KeyError(f"no check named {name!r}")


class Tally:
    """Ops attempted and failed over a run, and whether every failure is the known defect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: dict[tuple, dict] = {}
        self.verified: dict[int, str] = {}

    def record(self, setup: Setup, index: int, result, args, tmp: str) -> None:
        op = setup.ops[index]
        self.attempted += 1
        # a CLI result identical to one already checked passes; the matrix
        # file written by `chain` is not part of the result, so it is re-read
        key = None
        if op.call == "cli" and op.check != "chain_file" and not isinstance(result, Exception):
            key = hashlib.sha256(repr(result).encode()).hexdigest()
        if key is not None and self.verified.get(index) == key:
            return
        try:
            if isinstance(result, Exception):
                raise ref.CheckFailed(f"{type(result).__name__}: {result}")
            check_op(setup, op, result, args, tmp)
        except (ref.CheckFailed, ValueError, KeyError, TypeError, AttributeError) as exc:
            self.failed += 1
            known = isinstance(result, tuple) and result[0] == 2 and KNOWN_DEFECT in result[2]
            self.correct = self.correct and known
            entry = {"op": op.label, "reason": str(exc)[:300], "known_defect": known, "count": 0}
            self.failures.setdefault((index, str(exc)), entry)["count"] += 1
            return
        if key is not None:
            self.verified[index] = key


def run_pass(setup: Setup, tally: Tally, tmp: str, stdout_hash) -> dict:
    """Every op once, in order; check each output after its timer stops.

    Between ops the machine's speed is read at least every SPEED_GAP
    seconds; each op gets the slowdown factor measured around it.
    """
    clock = speed.Clock(SPEED_GAP)
    ctx: dict = {}
    times = []
    windows = []
    stdout_bytes = 0
    start = perf_counter()
    for i, op in enumerate(setup.ops):
        clock.sample_if_due()
        began = perf_counter()
        try:
            elapsed, result, args = run_op(setup, i, ctx, tmp)
        except Exception as exc:  # a crash in the program is a failed op
            elapsed, result, args = None, exc, None
        windows.append((began, perf_counter()))
        times.append(elapsed)
        if op.call == "cli" and elapsed is not None:
            stdout_bytes += len(result[1].encode())
            if stdout_hash is not None:
                stdout_hash.update(f"{op.label}\n".encode() + result[1].encode())
        tally.record(setup, i, result, args, tmp)
    clock.sample()
    return {
        "wall": perf_counter() - start,
        "times": times,
        "slowdown": [clock.factor(a, b) for a, b in windows],
        "stdout_bytes": stdout_bytes,
    }


def run(args) -> dict:
    out = sys.stdout
    sys.path.insert(0, str(ROOT / "src"))
    import balchain as bc
    import balchain.cli  # noqa: F401 - ops call bc.cli.main

    if Path(bc.__file__).resolve().parent != ROOT / "src" / "balchain":
        raise SystemExit(f"balchain imported from {bc.__file__}, not from this checkout")
    setup = Setup(bc, workloads.ops_for(args.workload, args.seed))
    out.write("ready\n")
    out.flush()
    if args.setup_only:
        return {}

    recorder = spans.Recorder()
    tally = Tally()
    sites: list[str] = []
    passes: list[dict] = []
    stdout_hash = hashlib.sha256()
    started = perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        while True:
            # in a traced run every second pass is traced
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                restore, sites = spans.install(recorder, "balchain", spans.TRACED)
                try:
                    record = run_pass(setup, tally, tmp, None)
                finally:
                    restore()
                record["spans"], record["counts"] = recorder.drain()
            else:
                record = run_pass(setup, tally, tmp, None if passes else stdout_hash)
            record["traced"] = traced
            passes.append(record)
            longest = max(p["wall"] for p in passes)
            if len(passes) >= MIN_PASSES and perf_counter() - started + longest > args.seconds:
                break

    return {
        "ops": [op.label for op in setup.ops],
        "passes": passes,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.correct,
        "failures": list(tally.failures.values()),
        "trace_sites": sites,
        "stdout_sha256": stdout_hash.hexdigest(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    # on SIGTERM, unwind so the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args)
    if not args.setup_only:
        sys.stdout.write("result " + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
