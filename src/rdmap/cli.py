"""Command-line surface: deterministic, machine-readable pipeline runs.

Subcommands: check-cn, check-pd, norm, rd-sample, map-converge.
Exit codes: 0 success/pass, 1 usage error (including non-finite or
overflowing input), 2 mathematical failure (report includes the certificate,
or an unsound bound was detected), 3 resource cap exceeded.

Flag values are range-checked once, by the argparse ``type=`` callables;
each ``cmd_*`` handler reads its own parsed namespace.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Optional

from .groups import DEFAULT_BALL_CAP, BallCapError
from .harness import (
    DEFAULT_R_VALUES,
    GridSchedule,
    rd_sample_report,
    row_fields,
    rows_to_csv,
    run_grid,
    select_epsilon,
)
from .kernels import DEFAULT_TOL, cn_check, cn_check_matrix, psd_check, schoenberg_kernel
from .operators import (
    DEFAULT_MAX_ITERS,
    DEFAULT_POWER_TOL,
    DIRECT_SOLVE_MAX,
    RdParams,
    UnsoundBoundError,
    builtin_rd_params,
    opnorm_bracket,
)
from .serialize import (
    bracket_to_json,
    canonical_json,
    cn_verdict_to_json,
    group_to_json,
    kernel_from_json,
    parse_group_text,
    psd_verdict_to_json,
    ring_from_json,
    ring_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH_FAIL = 2
EXIT_RESOURCE = 3


class UsageError(ValueError):
    """Bad flags, malformed files, or inconsistent parameters."""


class _Parser(argparse.ArgumentParser):
    """Parser for rdmap and, as their parser class, each subcommand.

    Prefix matching is off: an abbreviation such as --s must not silently
    stand for another flag (--seed) of the same subcommand.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


# the ASCII numerals a flag may spell; int() and float() would also read
# "1_0", " 2" and non-ASCII digits
_NUMERALS = {int: r"[+-]?[0-9]+", float: r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"}


def _number(kind, sign: str):
    """argparse type: a finite ``kind`` value that is "positive" or "nonnegative".

    Raising ArgumentTypeError keeps the message; argparse prefixes it with
    the flag's name.
    """

    def convert(text: str):
        if re.fullmatch(_NUMERALS[kind], text) is None:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}")
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
        if value < 0 or (sign == "positive" and value == 0):
            raise argparse.ArgumentTypeError(f"must be {sign}, got {text!r}")
        return value

    return convert


def _group(text: str):
    try:
        return parse_group_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


POSITIVE_INT = _number(int, "positive")
NONNEGATIVE_INT = _number(int, "nonnegative")
POSITIVE_FLOAT = _number(float, "positive")
NONNEGATIVE_FLOAT = _number(float, "nonnegative")


def _normal_float(text: str) -> float:
    """argparse type: a finite float no smaller than the least normal float."""
    value = POSITIVE_FLOAT(text)
    if value < sys.float_info.min:
        raise argparse.ArgumentTypeError(f"must be at least {sys.float_info.min!r}, got {text!r}")
    return value


def _load_json_source(path: Optional[str], inline: Optional[str], what: str):
    if (path is None) == (inline is None):
        raise UsageError(f"provide exactly one of --{what} or --{what}-json")
    try:
        if inline is not None:
            return json.loads(inline)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except RecursionError:
        flag = f"--{what}" if inline is None else f"--{what}-json"
        raise UsageError(f"{flag}: JSON nested too deeply to parse") from None


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_check_cn(args: argparse.Namespace):
    if args.kernel is not None or args.kernel_json is not None:
        kernel = kernel_from_json(_load_json_source(args.kernel, args.kernel_json, "kernel"))
        context = {"source": "imported", "size": kernel.size}
        verdict = cn_check_matrix(kernel, args.tol)
    else:
        if args.group is None or args.radius is None:
            raise UsageError("check-cn needs --group and --radius, or a kernel")
        points = args.group.ball(args.radius, cap=args.ball_cap)
        context = {
            "source": "length",
            "group": group_to_json(args.group),
            "radius": args.radius,
            "size": len(points),
        }
        verdict = cn_check(args.group, points, args.tol)
    payload = dict(context)
    payload["tol"] = args.tol
    payload["verdict"] = cn_verdict_to_json(verdict)
    code = EXIT_OK if verdict.passed else EXIT_MATH_FAIL
    return code, canonical_json(payload)


def cmd_check_pd(args: argparse.Namespace):
    points = args.group.ball(args.radius, cap=args.ball_cap)
    results = []
    all_passed = True
    for r in args.r or (0.05, 0.5, 2.0):
        kernel = schoenberg_kernel(args.group, points, r)
        verdict = psd_check(kernel, tol=args.tol)
        all_passed = all_passed and verdict.passed
        entry = {"r": r}
        entry.update(psd_verdict_to_json(verdict))
        results.append(entry)
    payload = {
        "group": group_to_json(args.group),
        "radius": args.radius,
        "tol": args.tol,
        "passed": all_passed,
        "results": results,
    }
    return (EXIT_OK if all_passed else EXIT_MATH_FAIL), canonical_json(payload)


def _element(args: argparse.Namespace):
    return ring_from_json(_load_json_source(args.element, args.element_json, "element"))


def cmd_norm(args: argparse.Namespace):
    f = _element(args)
    g = f.group
    rd = builtin_rd_params(g)
    bracket = opnorm_bracket(
        g,
        f,
        rd,
        args.radius,
        max_iters=args.max_iters,
        tol=args.tol,
        cap=args.ball_cap,
        seed=args.seed,
    )
    payload = {
        "group": group_to_json(g),
        "rd": {"C": rd.C, "s": rd.s},
        "seed": args.seed,
        "bracket": bracket_to_json(bracket),
    }
    return EXIT_OK, canonical_json(payload)


def cmd_rd_sample(args: argparse.Namespace):
    builtin = builtin_rd_params(args.group)
    rd = RdParams(
        C=builtin.C if args.C is None else args.C,
        s=builtin.s if args.s is None else args.s,
    )
    report = rd_sample_report(
        args.group,
        rd,
        count=args.count,
        seed=args.seed,
        radius=args.radius,
        cap=args.ball_cap,
    )
    payload = {
        "group": group_to_json(args.group),
        "rd": {"C": rd.C, "s": rd.s},
        "count": report.count,
        "seed": args.seed,
        "passed": report.passed,
        "worst_ratio": report.worst_ratio,
    }
    if not report.passed and report.worst_element is not None:
        payload["worst_element"] = ring_to_json(report.worst_element)
    return (EXIT_OK if report.passed else EXIT_MATH_FAIL), canonical_json(payload)


def cmd_map_converge(args: argparse.Namespace):
    f = _element(args)
    g = f.group
    rd = builtin_rd_params(g)
    schedule = GridSchedule(r_values=tuple(args.r or DEFAULT_R_VALUES), rd=rd)
    rows = run_grid(g, f, schedule, radius=args.radius, cap=args.ball_cap, seed=args.seed)
    selected = select_epsilon(rows, args.epsilon)
    code = EXIT_OK if selected is not None else EXIT_MATH_FAIL
    if args.format == "csv":
        return code, rows_to_csv(rows)
    payload = {
        "group": group_to_json(g),
        "rd": {"C": rd.C, "s": rd.s},
        "epsilon": args.epsilon,
        "seed": args.seed,
        "rows": [row_fields(row) for row in rows],
        "selected": None
        if selected is None
        else {
            "r": selected.r,
            "n": selected.n,
            "U": selected.U,
            "defect_upper": selected.defect_upper,
        },
    }
    return code, canonical_json(payload)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="rdmap",
        description="Certified multiplier and norm computations on group rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cn = sub.add_parser("check-cn", help="conditional negativity of a kernel")
    cn.add_argument("--group", type=_group, default=None)
    cn.add_argument("--radius", type=NONNEGATIVE_INT, default=None)
    cn.add_argument("--kernel", type=str, default=None)
    cn.add_argument("--kernel-json", type=str, default=None)
    cn.add_argument("--tol", type=POSITIVE_FLOAT, default=DEFAULT_TOL)

    pd = sub.add_parser("check-pd", help="positive definiteness of heat kernels")
    pd.add_argument("--group", type=_group, required=True)
    pd.add_argument("--radius", type=NONNEGATIVE_INT, required=True)
    pd.add_argument("--r", type=POSITIVE_FLOAT, action="append", default=None)
    pd.add_argument("--tol", type=POSITIVE_FLOAT, default=DEFAULT_TOL)

    norm = sub.add_parser("norm", help="certified operator-norm bracket")
    norm.add_argument("--element", type=str, default=None)
    norm.add_argument("--element-json", type=str, default=None)
    norm.add_argument("--radius", type=NONNEGATIVE_INT, default=6)
    norm.add_argument("--max-iters", type=POSITIVE_INT, default=DEFAULT_MAX_ITERS)
    norm.add_argument("--tol", type=POSITIVE_FLOAT, default=DEFAULT_POWER_TOL)
    norm.add_argument(
        "--seed", type=NONNEGATIVE_INT, default=0,
        help="seed of the power iteration's random start; unused where no "
        f"iteration runs (a ball of at most {DIRECT_SOLVE_MAX} elements or one "
        "that covers a cyclic group) and where the compression is entrywise nonnegative "
        "(real coefficients of one sign, or complex ones that a character "
        "makes positive), which starts from the positive unit vector",
    )

    rs = sub.add_parser("rd-sample", help="random soundness sweep of the decay bound")
    rs.add_argument("--group", type=_group, required=True)
    rs.add_argument("--count", type=POSITIVE_INT, default=200)
    rs.add_argument("--radius", type=NONNEGATIVE_INT, default=4)
    rs.add_argument("--C", type=_normal_float, default=None)
    rs.add_argument("--s", type=POSITIVE_FLOAT, default=None)
    rs.add_argument("--seed", type=NONNEGATIVE_INT, required=True)

    mc = sub.add_parser("map-converge", help="sweep the identity-approximation grid")
    mc.add_argument("--element", type=str, default=None)
    mc.add_argument("--element-json", type=str, default=None)
    mc.add_argument("--epsilon", type=NONNEGATIVE_FLOAT, required=True)
    mc.add_argument("--r", type=POSITIVE_FLOAT, action="append", default=None)
    mc.add_argument("--radius", type=NONNEGATIVE_INT, default=None)
    mc.add_argument("--format", type=str, choices=("json", "csv"), default="json")
    mc.add_argument("--seed", type=NONNEGATIVE_INT, default=0)

    handlers = (
        (cn, cmd_check_cn),
        (pd, cmd_check_pd),
        (norm, cmd_norm),
        (rs, cmd_rd_sample),
        (mc, cmd_map_converge),
    )
    for p, handler in handlers:
        p.set_defaults(handler=handler)
        p.add_argument("--ball-cap", type=POSITIVE_INT, default=DEFAULT_BALL_CAP)
        p.add_argument("--out", type=str, default=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, text = args.handler(args)
        _emit(text, args.out)
        return code
    except BallCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except UnsoundBoundError as exc:
        print(f"unsound bound: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL
    except OverflowError as exc:
        print(f"overflow: {exc}; rescale the input", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
