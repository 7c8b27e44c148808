"""Command-line surface: deterministic, machine-readable pipeline runs.

Subcommands: check-cn, check-pd, norm, rd-sample, map-converge.
Exit codes: 0 success/pass, 1 usage error (including non-finite or
overflowing input), 2 mathematical failure (report includes the certificate,
or an unsound bound was detected), 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .groups import DEFAULT_BALL_CAP, BallCapError, Group
from .harness import (
    DEFAULT_R_VALUES,
    GridSchedule,
    rd_sample_report,
    rows_to_csv,
    rows_to_json,
    run_grid,
    select_epsilon,
)
from .kernels import KernelMatrix, cn_check_matrix, length_kernel, psd_check, schoenberg_kernel
from .operators import (
    GroupRingElement,
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
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Everything a subcommand needs, resolved from flags and input files."""

    command: str
    group: Optional[Group] = None
    radius: Optional[int] = None
    r_values: tuple = ()
    element: Optional[GroupRingElement] = None
    kernel: Optional[KernelMatrix] = None
    epsilon: Optional[float] = None
    count: int = 0
    seed: int = 0
    tol: float = 1e-8
    power_tol: float = 1e-10
    max_iters: int = 10_000
    rd_override: Optional[RdParams] = None
    fmt: str = "json"
    out: Optional[str] = None
    ball_cap: int = DEFAULT_BALL_CAP


def _load_json_source(path: Optional[str], inline: Optional[str], what: str):
    if (path is None) == (inline is None):
        raise UsageError(f"provide exactly one of --{what} or --{what}-json")
    if inline is not None:
        return json.loads(inline)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_check_cn(config: RunConfig):
    if config.kernel is not None:
        kernel = config.kernel
        context = {"source": "imported", "size": kernel.size}
    else:
        if config.group is None or config.radius is None:
            raise UsageError("check-cn needs --group and --radius, or a kernel")
        points = config.group.ball(config.radius, cap=config.ball_cap)
        kernel = length_kernel(config.group, points)
        context = {
            "source": "length",
            "group": group_to_json(config.group),
            "radius": config.radius,
            "size": kernel.size,
        }
    verdict = cn_check_matrix(kernel.entries, tol=config.tol)
    payload = dict(context)
    payload["tol"] = config.tol
    payload["verdict"] = cn_verdict_to_json(verdict)
    code = EXIT_OK if verdict.passed else EXIT_MATH_FAIL
    return code, canonical_json(payload)


def cmd_check_pd(config: RunConfig):
    if config.group is None or config.radius is None:
        raise UsageError("check-pd needs --group and --radius")
    if not config.r_values:
        raise UsageError("check-pd needs at least one --r value")
    if any(r <= 0 for r in config.r_values):
        raise UsageError("heat parameters r must be positive")
    points = config.group.ball(config.radius, cap=config.ball_cap)
    results = []
    all_passed = True
    for r in config.r_values:
        kernel = schoenberg_kernel(config.group, points, r)
        verdict = psd_check(kernel, tol=config.tol)
        all_passed = all_passed and verdict.passed
        entry = {"r": r}
        entry.update(psd_verdict_to_json(verdict))
        results.append(entry)
    payload = {
        "group": group_to_json(config.group),
        "radius": config.radius,
        "tol": config.tol,
        "passed": all_passed,
        "results": results,
    }
    return (EXIT_OK if all_passed else EXIT_MATH_FAIL), canonical_json(payload)


def cmd_norm(config: RunConfig):
    if config.element is None:
        raise UsageError("norm needs an element")
    f = config.element
    g = f.group
    rd = config.rd_override or builtin_rd_params(g)
    radius = 6 if config.radius is None else config.radius
    bracket = opnorm_bracket(
        g,
        f,
        rd,
        radius,
        max_iters=config.max_iters,
        tol=config.power_tol,
        cap=config.ball_cap,
        seed=config.seed,
    )
    payload = {
        "group": group_to_json(g),
        "rd": {"C": rd.C, "s": rd.s},
        "seed": config.seed,
        "bracket": bracket_to_json(bracket),
    }
    return EXIT_OK, canonical_json(payload)


def cmd_rd_sample(config: RunConfig):
    if config.group is None:
        raise UsageError("rd-sample needs --group")
    if config.count <= 0:
        raise UsageError("sample count must be positive")
    rd = config.rd_override or builtin_rd_params(config.group)
    radius = 4 if config.radius is None else config.radius
    report = rd_sample_report(
        config.group,
        rd,
        count=config.count,
        seed=config.seed,
        radius=radius,
        cap=config.ball_cap,
    )
    payload = {
        "group": group_to_json(config.group),
        "rd": {"C": rd.C, "s": rd.s},
        "count": report.count,
        "seed": config.seed,
        "passed": report.passed,
        "worst_ratio": report.worst_ratio,
    }
    if not report.passed and report.worst_element is not None:
        payload["worst_element"] = ring_to_json(report.worst_element)
    return (EXIT_OK if report.passed else EXIT_MATH_FAIL), canonical_json(payload)


def cmd_map_converge(config: RunConfig):
    if config.element is None:
        raise UsageError("map-converge needs an element")
    if config.epsilon is None or config.epsilon < 0:
        raise UsageError("map-converge needs a nonnegative --epsilon")
    f = config.element
    g = f.group
    rd = config.rd_override or builtin_rd_params(g)
    schedule = GridSchedule(r_values=config.r_values or DEFAULT_R_VALUES, rd=rd)
    rows = run_grid(
        g, f, schedule, radius=config.radius, cap=config.ball_cap, seed=config.seed
    )
    selected = select_epsilon(rows, config.epsilon)
    code = EXIT_OK if selected is not None else EXIT_MATH_FAIL
    if config.fmt == "csv":
        return code, rows_to_csv(rows)
    payload = {
        "group": group_to_json(g),
        "rd": {"C": rd.C, "s": rd.s},
        "epsilon": config.epsilon,
        "seed": config.seed,
        "rows": json.loads(rows_to_json(rows)),
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


HANDLERS = {
    "check-cn": cmd_check_cn,
    "check-pd": cmd_check_pd,
    "norm": cmd_norm,
    "rd-sample": cmd_rd_sample,
    "map-converge": cmd_map_converge,
}


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="rdmap",
        description="Certified multiplier and norm computations on group rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_required=False):
        p.add_argument("--seed", type=int, required=seed_required, default=0)
        p.add_argument("--ball-cap", type=int, default=DEFAULT_BALL_CAP)
        p.add_argument("--out", type=str, default=None)

    cn = sub.add_parser("check-cn", help="conditional negativity of a kernel")
    cn.add_argument("--group", type=str, default=None)
    cn.add_argument("--radius", type=int, default=None)
    cn.add_argument("--kernel", type=str, default=None)
    cn.add_argument("--kernel-json", type=str, default=None)
    cn.add_argument("--tol", type=float, default=1e-8)
    common(cn)

    pd = sub.add_parser("check-pd", help="positive definiteness of heat kernels")
    pd.add_argument("--group", type=str, required=True)
    pd.add_argument("--radius", type=int, required=True)
    pd.add_argument("--r", type=float, action="append", default=None)
    pd.add_argument("--tol", type=float, default=1e-8)
    common(pd)

    norm = sub.add_parser("norm", help="certified operator-norm bracket")
    norm.add_argument("--element", type=str, default=None)
    norm.add_argument("--element-json", type=str, default=None)
    norm.add_argument("--radius", type=int, default=None)
    norm.add_argument("--max-iters", type=int, default=10_000)
    norm.add_argument("--tol", type=float, default=1e-10)
    common(norm)

    rs = sub.add_parser("rd-sample", help="random soundness sweep of the decay bound")
    rs.add_argument("--group", type=str, required=True)
    rs.add_argument("--count", type=int, default=200)
    rs.add_argument("--radius", type=int, default=None)
    rs.add_argument("--C", type=float, default=None)
    rs.add_argument("--s", type=float, default=None)
    common(rs, seed_required=True)

    mc = sub.add_parser("map-converge", help="sweep the identity-approximation grid")
    mc.add_argument("--element", type=str, default=None)
    mc.add_argument("--element-json", type=str, default=None)
    mc.add_argument("--epsilon", type=float, required=True)
    mc.add_argument("--r", type=float, action="append", default=None)
    mc.add_argument("--radius", type=int, default=None)
    mc.add_argument("--format", type=str, choices=("json", "csv"), default="json")
    common(mc)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    config.seed = getattr(args, "seed", 0)
    config.ball_cap = args.ball_cap
    config.out = args.out
    if config.ball_cap <= 0:
        raise UsageError("--ball-cap must be positive")

    if getattr(args, "group", None) is not None:
        config.group = parse_group_text(args.group)
    config.radius = getattr(args, "radius", None)
    if config.radius is not None and config.radius < 0:
        raise UsageError("--radius must be nonnegative")

    if args.command in ("norm", "map-converge"):
        payload = _load_json_source(args.element, args.element_json, "element")
        config.element = ring_from_json(payload)
    if args.command == "check-cn" and (
        args.kernel is not None or args.kernel_json is not None
    ):
        payload = _load_json_source(args.kernel, args.kernel_json, "kernel")
        config.kernel = kernel_from_json(payload)

    if hasattr(args, "tol"):
        if args.tol <= 0:
            raise UsageError("--tol must be positive")
        if args.command == "norm":
            config.power_tol = args.tol
        else:
            config.tol = args.tol
    if hasattr(args, "max_iters"):
        if args.max_iters <= 0:
            raise UsageError("--max-iters must be positive")
        config.max_iters = args.max_iters
    if hasattr(args, "r"):
        if args.r is not None:
            config.r_values = tuple(args.r)
        elif args.command == "check-pd":
            config.r_values = (0.05, 0.5, 2.0)
    if hasattr(args, "epsilon"):
        config.epsilon = args.epsilon
    if hasattr(args, "count"):
        config.count = args.count
    if hasattr(args, "format"):
        config.fmt = args.format

    C_override = getattr(args, "C", None)
    s_override = getattr(args, "s", None)
    if (C_override is None) != (s_override is None):
        base = builtin_rd_params(config.group) if config.group else None
        C_override = C_override if C_override is not None else (base.C if base else None)
        s_override = s_override if s_override is not None else (base.s if base else None)
    if C_override is not None and s_override is not None:
        try:
            config.rd_override = RdParams(C=C_override, s=s_override)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        code, text = HANDLERS[config.command](config)
        _emit(text, config.out)
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
