"""Command-line front end: seq, chain, solve, verify, limit.

Results go to stdout (or --out); diagnostics go to stderr as a JSON error
object.  Exit codes: 0 success, 2 parameter error, 3 verification failure,
4 solver failure or non-convergence.  Every command is deterministic given
its full flag set, including --seed.

A command line is parsed once by argparse.  When its first word names a
command, that command's subparser parses the rest; any other first word
(none, a flag such as --help, an unknown name) goes through the whole tree,
which prints the top-level help or reports the error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .chains import (
    KINDS,
    ChainFamily,
    ParameterError,
    StochasticMatrix,
    build,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    validate,
)
from .quadratic import _ratio_gaps, float_upper
from .sequences import NAMED_KINDS, _decimal_terms, balancing_like
from .steady import ConvergenceError, SolverError, power_iteration, simulate, solve_exact
from .verify import (
    beta_power_row,
    q_invariance,
    q_invariance_row,
    report_row,
    rows_to_csv,
    truncation_convergence,
    verify_family,
)

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_VERIFY_FAILED = 3
EXIT_SOLVER = 4

_SEQ_KINDS = (*NAMED_KINDS, "balancing-like")


class UsageError(Exception):
    """Bad command line; reported as a JSON error object with exit code 2."""


class _Parser(argparse.ArgumentParser):
    # the top-level parser's subparsers by command name
    commands: dict[str, _Parser]

    def error(self, message: str):  # noqa: A002 - argparse API
        raise UsageError(message)


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="write results to this path")


@cache
def _build_parser() -> _Parser:
    """The argparse tree, built once per process; parse_args keeps no state."""
    parser = _Parser(prog="balchain", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_seq = subs.add_parser("seq", help="emit sequence terms")
    p_seq.set_defaults(handler=_cmd_seq)
    p_seq.add_argument("kind", choices=_SEQ_KINDS)
    p_seq.add_argument("--count", type=int, required=True)
    p_seq.add_argument("--a", type=int, default=None, help="multiplier for balancing-like")
    _add_io_flags(p_seq)

    p_chain = subs.add_parser("chain", help="emit a transition matrix")
    p_chain.set_defaults(handler=_cmd_chain)
    p_chain.add_argument("family", choices=tuple(KINDS))
    p_chain.add_argument("--n", type=int, required=True)
    p_chain.add_argument("--a", type=int, default=None)
    p_chain.add_argument("--q", default=None, help='fraction like "1/7"')
    _add_io_flags(p_chain)

    p_solve = subs.add_parser("solve", help="stationary distribution of a chain")
    p_solve.set_defaults(handler=_cmd_solve)
    p_solve.add_argument("family", nargs="?", choices=tuple(KINDS))
    p_solve.add_argument("--n", type=int, default=None)
    p_solve.add_argument("--a", type=int, default=None)
    p_solve.add_argument("--q", default=None)
    p_solve.add_argument("--matrix-file", default=None, help="JSON matrix from `chain --format json`")
    p_solve.add_argument("--method", choices=("exact", "power", "simulate"), default="exact")
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--max-iter", type=int, default=None)
    p_solve.add_argument("--steps", type=int, default=None)
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--start", type=int, default=None)
    _add_io_flags(p_solve)

    p_verify = subs.add_parser("verify", help="check closed forms against the solver")
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument("family", nargs="?", choices=tuple(KINDS))
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument(
        "--beta-powers",
        action="store_true",
        help="check BETA**(n+1) == BETA*B[n+1] - B[n] for n up to --max-n",
    )
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--min-n", type=int, default=None)
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--a", type=int, default=None)
    p_verify.add_argument("--q", default=None)
    _add_io_flags(p_verify)

    p_limit = subs.add_parser("limit", help="convergence tables toward the infinite chain")
    p_limit.set_defaults(handler=_cmd_limit)
    p_limit.add_argument("--sizes", default=None, help='comma list like "5,10,20"')
    p_limit.add_argument("--ratio", action="store_true", help="B(n-1)/B(n) gaps to the limit ratio")
    p_limit.add_argument("--max-n", type=int, default=None)
    p_limit.add_argument("--digits", type=int, default=50)
    _add_io_flags(p_limit)

    parser.commands = subs.choices
    return parser


def _parse(argv: object) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, with argparse's first pass
    skipped when argv's first word is a command: that pass would only hand
    the rest to the command's subparser and set ``command``.  argv is a
    list or tuple of str, or None for ``sys.argv[1:]``."""
    if argv is None:
        argv = sys.argv[1:]
    if not isinstance(argv, (list, tuple)) or not all(isinstance(a, str) for a in argv):
        raise UsageError(f"argv must be a list or tuple of str, got {argv!r}")
    parser = _build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args = sub.parse_args(argv[1:])
    args.command = argv[0]
    return args


# Each scope: the usage error when none of its selectors is given, and the
# optional flags each selector's mode accepts.  A selector is a flag's dest,
# or "dest=value" for a positional's value.  Exactly one selector must be
# given, and no flag that only other modes accept.  A single family's sizes
# are a second scope inside verify's.
_SCOPES: dict[str, tuple[str, dict[str, tuple[str, ...]]]] = {
    "seq": ("", {f"kind={k}": ("a",) if k == "balancing-like" else () for k in _SEQ_KINDS}),
    "solve": (
        "solve needs a family or --matrix-file",
        {"family": ("n", "a", "q"), "matrix_file": ()},
    ),
    "solve method": (
        "",
        {
            "method=exact": (),
            "method=power": ("tol", "max_iter"),
            "method=simulate": ("steps", "seed", "start"),
        },
    ),
    "verify": (
        "verify needs a family, --all, or --beta-powers",
        {"family": ("n", "min_n", "max_n", "a", "q"), "all": ("max_n",), "beta_powers": ("max_n",)},
    ),
    "verify family": (
        "verify needs --n or --max-n for a single family",
        {"n": (), "max_n": ("min_n",)},
    ),
    "limit": ("limit needs --sizes or --ratio", {"sizes": (), "ratio": ("max_n",)}),
}
# --max-n default and least value in the modes where it is optional
_MAX_N = {"all": (25, 3), "beta_powers": (100, 1), "ratio": (10, 2)}
# --digits' accepted range; limit certifies its bounds to
# min(--digits, _FLOAT_DIGITS) significant digits: a printed float holds 17,
# so past _FLOAT_DIGITS --digits changes neither the output nor the cost
_MAX_DIGITS = 50000
_FLOAT_DIGITS = 40
# solve's method flags, filled in after the scope check has seen what was given
_SOLVE_DEFAULTS = {"tol": 1e-12, "max_iter": 10**6, "steps": 10**6, "seed": 0, "start": 0}


def _given(args: argparse.Namespace, selector: str) -> bool:
    dest, _, value = selector.partition("=")
    got = getattr(args, dest)
    # an explicit 0 is given; "" is not, as it never selected a mode
    return got == value if value else got not in (None, "") and got is not False


def _flag(args: argparse.Namespace, selector: str) -> str:
    """How a message names a selector: a positional by its value, and an
    option's value after the option."""
    dest, _, value = selector.partition("=")
    if dest in ("kind", "family"):
        return value or getattr(args, dest)
    option = "--" + dest.replace("_", "-")
    return f"{option} {value}" if value else option


def _scope(args: argparse.Namespace, name: str) -> tuple[str, int | None]:
    """The selector of the mode args choose in scope ``name``, and --max-n
    (the mode's default when absent).  Two selectors, or a flag of the
    scope set outside the chosen mode, is a UsageError naming both flags."""
    missing, modes = _SCOPES[name]
    given = [selector for selector in modes if _given(args, selector)]
    if not given:
        raise UsageError(missing)
    if len(given) > 1:
        raise UsageError(f"{_flag(args, given[1])} cannot be combined with {_flag(args, given[0])}")
    selector, chosen = given[0], _flag(args, given[0])
    for dest in [dest for takes in modes.values() for dest in takes]:
        if dest not in modes[selector] and _given(args, dest):
            raise UsageError(f"{_flag(args, dest)} cannot be combined with {chosen}")
    max_n = getattr(args, "max_n", None)
    if selector in _MAX_N:
        default, least = _MAX_N[selector]
        if max_n is None:
            max_n = default
        elif max_n < least:
            raise UsageError(f"--max-n must be >= {least} for {chosen}")
    return selector, max_n


def _make_family(kind: str, n: int | None, a: int | None, q: str | None) -> ChainFamily:
    if n is None:
        raise UsageError(f"family {kind} requires --n")
    spec = KINDS[kind]
    if spec.takes_a and a is None:
        raise UsageError(f"family {kind} requires --a")
    if spec.takes_q and q is None:
        raise UsageError(f"family {kind} requires --q")
    return ChainFamily(kind, n, a, q)


def _cmd_seq(args: argparse.Namespace) -> tuple[str, int]:
    _scope(args, "seq")
    if args.count < 0:
        raise UsageError(f"--count must be >= 0, got {args.count}")
    if args.kind == "balancing-like" and args.a is None:
        raise UsageError("seq balancing-like requires --a")
    # the scope check allows --a only with balancing-like
    kind = NAMED_KINDS[args.kind] if args.a is None else balancing_like(args.a)
    terms = _decimal_terms(kind, args.count)
    if args.format == "json":
        return json.dumps(terms), EXIT_OK
    return "\n".join(terms), EXIT_OK


def _cmd_chain(args: argparse.Namespace) -> tuple[str, int]:
    matrix = build(_make_family(args.family, args.n, args.a, args.q))
    if args.format == "json":
        return matrix_to_json(matrix), EXIT_OK
    return matrix_to_csv(matrix), EXIT_OK


def _require_chain(matrix: StochasticMatrix, method: str) -> None:
    """Reject a matrix file's chain that is reducible, and a periodic one
    for power iteration, whose iterates oscillate on it unless the uniform
    start is already stationary; ``matrix_from_json`` has refused one that
    is not stochastic."""
    report = validate(matrix)
    if not report.irreducible:
        state = (report.unreachable or report.non_returning)[0]
        raise SolverError(f"the chain is reducible: states 0 and {state} do not communicate")
    if method == "power" and report.period > 1:
        raise SolverError(
            f"the chain is periodic with period {report.period}: power iteration "
            "needs an aperiodic chain; use --method exact or simulate"
        )


def _cmd_solve(args: argparse.Namespace) -> tuple[str, int]:
    source, _ = _scope(args, "solve")
    _scope(args, "solve method")
    for dest, default in _SOLVE_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    if source == "matrix_file":
        matrix = matrix_from_json(Path(args.matrix_file).read_text())
        _require_chain(matrix, args.method)
    else:
        matrix = build(_make_family(args.family, args.n, args.a, args.q))
    if args.method == "exact":
        pi = solve_exact(matrix)
        payload = {"pi": [str(x) for x in pi]}
    elif args.method == "power":
        pi, iterations = power_iteration(matrix, tol=args.tol, max_iter=args.max_iter)
        payload = {"pi": pi, "tol": args.tol, "iterations": iterations}
    else:
        result = simulate(matrix, steps=args.steps, seed=args.seed, start=args.start)
        pi = list(result.empirical)
        payload = {
            "pi": pi,
            "steps": result.steps,
            "seed": result.seed,
            "start": args.start,
            "visits": list(result.visits),
            "rng": result.rng,
        }
    if args.format == "json":
        return json.dumps(payload), EXIT_OK
    # str of a float is its shortest round-trip repr
    return "\n".join(map(str, pi)), EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    mode, max_n = _scope(args, "verify")
    if mode == "beta_powers":
        rows = [beta_power_row(max_n)]
    elif mode == "all":
        # every q-free kind from its minimum size, the order-a kinds last at a = 2, 3, 4, 6, 10
        base_kinds = sorted(
            (spec for spec in KINDS.values() if not spec.takes_q),
            key=lambda spec: (spec.takes_a, spec.min_n),
        )
        rows = [
            report_row(verify_family(ChainFamily(spec.name, n, a)))
            for spec in base_kinds
            for a in ((2, 3, 4, 6, 10) if spec.takes_a else (None,))
            for n in range(spec.min_n, max_n + 1)
        ]
        # each q-family at n = 10 and q = 1/coeff, 1/(coeff + 1), 1/100
        for spec in base_kinds:
            if spec.name + "-q" in KINDS:
                a = 4 if spec.takes_a else None
                coeff = a or 6
                q_values = [Fraction(1, coeff), Fraction(1, coeff + 1), Fraction(1, 100)]
                rows.append(q_invariance_row(q_invariance(10, q_values, spec.name, a=a)))
        rows.append(beta_power_row(100))
    else:
        sizes, max_n = _scope(args, "verify family")
        low = KINDS[args.family].min_n if args.min_n is None else args.min_n
        if sizes == "n":
            low = max_n = args.n
        elif max_n < low:
            raise UsageError(f"--max-n {max_n} is below the first size {low}")
        rows = [
            report_row(verify_family(_make_family(args.family, n, args.a, args.q)))
            for n in range(low, max_n + 1)
        ]

    all_ok = all(r["exact_match"] for r in rows)
    code = EXIT_OK if all_ok else EXIT_VERIFY_FAILED
    if args.format == "json":
        return json.dumps({"all_ok": all_ok, "reports": rows}), code
    return rows_to_csv(rows), code


def _cmd_limit(args: argparse.Namespace) -> tuple[str, int]:
    mode, max_n = _scope(args, "limit")
    if args.digits < 1:
        raise ParameterError(f"--digits must be >= 1, got {args.digits}")
    if args.digits > _MAX_DIGITS:
        raise ParameterError(f"--digits must be <= {_MAX_DIGITS}, got {args.digits}")
    digits = min(args.digits, _FLOAT_DIGITS)
    if mode == "ratio":
        table = [(n, float_upper(gap)) for n, gap in _ratio_gaps(max_n, digits)]
    else:
        try:
            sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --sizes list: {exc}") from None
        if not sizes or min(sizes) < 3:
            raise UsageError("--sizes must list integers >= 3")
        table = truncation_convergence(sizes, digits=digits)
    if args.format == "json":
        return json.dumps([{"n": n, "gap": gap} for n, gap in table]), EXIT_OK
    return "\n".join(f"{n},{gap!r}" for n, gap in table), EXIT_OK


def _fail(code: int, message: str) -> int:
    print(json.dumps({"error": {"code": code, "message": message}}), file=sys.stderr)
    return code


def main(argv: list[str] | tuple[str, ...] | None = None) -> int:
    try:
        try:
            args = _parse(argv)
        except SystemExit as exc:  # --help has printed its text and exits 0
            return exc.code
        text, code = args.handler(args)
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)
    except (UsageError, ValueError, OSError) as exc:
        return _fail(EXIT_PARAMETER, str(exc))
    except (ConvergenceError, SolverError) as exc:
        return _fail(EXIT_SOLVER, str(exc))
    if code == EXIT_VERIFY_FAILED:
        return _fail(code, "a closed form disagrees with the exact solver; see the reports")
    return code


def entry() -> None:
    sys.exit(main())
