"""The four workloads: seeded inputs, the program calls, and their oracles.

An op is one call into rdmap that yields one or more certified results (a
bracket, a verdict, a block of samples, the rows of a grid, one CLI run).
Every random input is generated here with ``random.Random`` from the
workload seed (the seeds of the sweep's sample blocks excepted, see
``sweep``); rdmap receives only the generated inputs.  Each op carries an oracle that
does not trust the program: exact norms, ``l2 <= lower <= upper <= l1`` from
the generated coefficients, the expected verdicts and witness.  A violated
oracle fails the op; it is never skipped and its data is never re-chosen.

A workload is one round of ops, repeated for the whole timed phase, so every
op after the first round is also a determinism check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# Relative slack for comparing a certified bound with an oracle value that is
# itself computed in floating point (a few ulps of error).
ORACLE_SLACK = 1e-12

# Random bracket items get a fixed power-iteration budget.  With the default
# tolerance their iteration counts range over 500..5000 depending on the
# draw, which would make the run's cost depend on the seed rather than on the
# program.  Every iterate is a certified lower bound, so a capped bracket is
# still sound, only wider.
RANDOM_BRACKET_ITERS = 100

@dataclass
class Op:
    key: str
    call: Callable[[], Any]
    check: Callable[[Any], list]  # oracle violations, one entry per failed result
    canon: Callable[[Any], bytes]  # canonical bytes of the output
    results: int = 1
    widths: Callable[[Any], list] = field(default=lambda out: [])
    malformed: bool = False
    argv: Optional[list] = None  # CLI ops only


@dataclass
class Workload:
    name: str
    ops: list  # one round; the first op is also the warm-up op


# ---------------------------------------------------------------------------
# helpers shared by the oracles


def free_words(rank: int, radius: int) -> list:
    """Reduced words of length <= radius, generated independently of rdmap."""
    letters = "".join(c + c.upper() for c in "abcdefghijklmnopqrstuvwxyz"[:rank])
    out, level = [""], [""]
    for _ in range(radius):
        level = [w + c for w in level for c in letters if not (w and w[-1] == c.swapcase())]
        out.extend(level)
    return out


def lattice_ball(d: int, radius: int) -> list:
    if d == 1:
        return [(v,) for v in range(-radius, radius + 1)]
    return [(v,) + rest for v in range(-radius, radius + 1) for rest in lattice_ball(d - 1, radius - abs(v))]


def haagerup_norm(rank: int, terms: dict) -> float:
    """Exact norm of a positive radial element of the free group.

    ``sum f(x) phi(|x|)`` with Haagerup's spherical function
    ``phi(n) = (1 + (k-1) n / k) (2k-1)^(-n/2)``.
    """
    k = rank
    return math.fsum(
        c * (1.0 + (k - 1) * len(w) / k) * (2 * k - 1) ** (-len(w) / 2) for w, c in terms.items()
    )


def cyclic_norm(order: int, terms: dict) -> float:
    """Exact norm on Z/m: the largest modulus of the Fourier transform."""
    import numpy as np

    vec = np.zeros(order, dtype=complex)
    for x, c in terms.items():
        vec[x % order] += c
    return float(np.max(np.abs(np.fft.fft(vec))))


def l1(coeffs) -> float:
    return math.fsum(abs(c) for c in coeffs)


def l2(coeffs) -> float:
    return math.sqrt(math.fsum(abs(c) ** 2 for c in coeffs))


def _le(a: float, b: float) -> bool:
    """a <= b up to the oracle slack."""
    return a <= b + ORACLE_SLACK * max(abs(a), abs(b))


def _random_terms(rng: random.Random, support: list, k: int) -> dict:
    return {w: complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for w in rng.sample(support, k)}


def _random_spherical(rng: random.Random, rank: int, radius: int) -> dict:
    """One random word on each sphere 1..radius, complex Gaussian coefficients.

    The support stays random, but its word lengths, which set the cost of the
    compression, are the same for every seed.
    """
    words = free_words(rank, radius)
    return {
        rng.choice([w for w in words if len(w) == n]): complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        for n in range(1, radius + 1)
    }


def _canon(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def _width(lower: float, upper: float) -> float:
    return (upper - lower) / upper if upper > 0 else 0.0


# ---------------------------------------------------------------------------
# brackets


def _bracket_op(R, key, group, terms, radius, exact=None, **kwargs) -> Op:
    f = R.GroupRingElement(group, terms)
    rd = R.builtin_rd_params(group)
    lo, hi = l2(terms.values()), l1(terms.values())

    def check(b):
        bad = []
        if not (_le(lo, b.lower) and b.lower <= b.upper and _le(b.upper, hi)):
            bad.append(f"{key}: l2 <= lower <= upper <= l1 violated: {lo} {b.lower} {b.upper} {hi}")
        if exact is not None and not (_le(b.lower, exact) and _le(exact, b.upper)):
            bad.append(f"{key}: exact norm {exact} outside [{b.lower}, {b.upper}]")
        return bad[:1]

    return Op(
        key=key,
        call=lambda: R.opnorm_bracket(group, f, rd, radius, **kwargs),
        check=check,
        canon=lambda b: _canon([b.lower, b.upper, b.lower_ball_radius, b.iterations, b.achieved_tol]),
        widths=lambda b: [_width(b.lower, b.upper)],
    )


def brackets(seed: int) -> Workload:
    import rdmap as R

    rng = random.Random(f"brackets:{seed}")
    F2, Z2, C = R.FreeGroup(2), R.FreeAbelianGroup(2), R.CyclicGroup(4001)
    kesten = {w: 1.0 for w in "aAbB"}
    sphere2 = {w: 1.0 for w in free_words(2, 2) if len(w) == 2}
    gen_sum = {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0}
    cyc = {1: 1.0, 4000: 1.0, 7: 0.5j}
    rand = [_random_spherical(rng, 2, 3) for _ in range(3)]
    ops = [
        _bracket_op(R, "kesten_r8", F2, kesten, 8, exact=haagerup_norm(2, kesten)),
        _bracket_op(R, "z2_gensum_r40", Z2, gen_sum, 40, exact=4.0),
        _bracket_op(R, "free2_random0_r8", F2, rand[0], 8, max_iters=RANDOM_BRACKET_ITERS),
        _bracket_op(R, "sphere2_r8", F2, sphere2, 8, exact=haagerup_norm(2, sphere2)),
        _bracket_op(R, "free2_random1_r8", F2, rand[1], 8, max_iters=RANDOM_BRACKET_ITERS),
        _bracket_op(R, "cyclic4001_r2000", C, cyc, 2000, exact=cyclic_norm(4001, cyc)),
        _bracket_op(R, "free2_random2_r8", F2, rand[2], 8, max_iters=RANDOM_BRACKET_ITERS),
    ]
    return Workload("brackets", ops)


# ---------------------------------------------------------------------------
# sweep

RD_BLOCK = 20


def _rd_block_op(R, key, group, seed) -> Op:
    rd = R.builtin_rd_params(group)

    def check(rep):
        if rep.count == RD_BLOCK and rep.passed and 0.0 < rep.worst_ratio <= 1.0:
            return []
        return [f"{key}: rd sample block failed (passed={rep.passed}, worst_ratio={rep.worst_ratio})"] * RD_BLOCK

    return Op(
        key=key,
        call=lambda: R.rd_sample_report(group, rd, RD_BLOCK, seed),
        check=check,
        canon=lambda rep: _canon([rep.count, rep.passed, rep.worst_ratio]),
        results=RD_BLOCK,
    )


def _csv_rows(text: str) -> list:
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _grid_op(R, key, group, terms, schedule) -> Op:
    f = R.GroupRingElement(group, terms)
    s = schedule.rd.s

    def call():
        rows = R.run_grid(group, f, schedule)
        return rows, R.rows_to_csv(rows), R.rows_to_json(rows)

    def check(out):
        rows, text_csv, text_json = out
        bad = []
        if len(rows) != len(schedule.r_values):
            return [f"{key}: {len(rows)} rows for {len(schedule.r_values)} rates"] * len(schedule.r_values)
        exported = list(zip(_csv_rows(text_csv), json.loads(text_json)))
        for row, (from_csv, from_json) in zip(rows, exported):
            # phi * f - f on the support of f, with phi = exp(-r |x|) / U inside the ball of radius n
            d = [
                c * ((math.exp(-row.r * len(w)) / row.U if len(w) <= row.n else 0.0) - 1.0)
                for w, c in terms.items()
            ]
            fields = {
                "r": row.r, "n": row.n, "U": row.U, "K_n": row.K_n,
                "defect_lower": row.defect_lower, "defect_upper": row.defect_upper, "runtime_ms": 0.0,
            }
            if row.n != math.ceil(40.0 * s / row.r) or row.U < 1.0:
                bad.append(f"{key}: row r={row.r} has n={row.n}, U={row.U}")
            elif not (_le(l2(d), row.defect_lower) and row.defect_lower <= row.defect_upper
                      and _le(row.defect_upper, l1(d))):
                bad.append(f"{key}: row r={row.r} defect bracket outside [l2, l1] of phi*f - f")
            elif from_csv != fields or from_json != fields:
                bad.append(f"{key}: row r={row.r} export does not round-trip")
        return bad

    return Op(
        key=key,
        call=call,
        check=check,
        canon=lambda out: (out[1] + out[2]).encode(),
        results=len(schedule.r_values),
        widths=lambda out: [_width(r.defect_lower, r.defect_upper) for r in out[0]],
    )


def sweep(seed: int) -> Workload:
    import rdmap as R

    F2, Z1 = R.FreeGroup(2), R.FreeAbelianGroup(1)
    schedule = R.default_schedule(R.builtin_rd_params(F2))
    rng = random.Random(f"sweep:{seed}")
    ops = [_grid_op(R, f"grid_free2_{j}", F2, _random_terms(rng, free_words(2, 1), 3), schedule)
           for j in range(4)]
    # The block seeds come from a fixed list, not from the workload seed: a
    # block's cost is set by how many power iterations its random elements
    # need, which varies threefold from block to block, so the ~10 blocks a
    # round can hold would make the figures follow the seed, not the program.
    pool = random.Random("sweep-blocks")
    ops += [_rd_block_op(R, f"rd_z1_{j}", Z1, pool.randrange(2**32)) for j in range(2)]
    ops += [_rd_block_op(R, f"rd_free2_{j}", F2, pool.randrange(2**32)) for j in range(8)]
    return Workload("sweep", ops)


# ---------------------------------------------------------------------------
# kernels

KERNEL_TOL = 1e-8
PSD_RATES = (0.05, 0.5, 2.0)
COUNTEREXAMPLE = [[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]]


def kernels(seed: int) -> Workload:
    import rdmap as R

    rng = random.Random(f"kernels:{seed}")
    balls = [
        ("free2_r4", R.FreeGroup(2), free_words(2, 4)),
        ("z2_r10", R.FreeAbelianGroup(2), lattice_ball(2, 10)),
        ("free2_r5", R.FreeGroup(2), free_words(2, 5)),
    ]
    # The radius-5 ball gets one heat rate, not three: its kernels take ~0.7 s
    # each, and four of them made a round so long that a run held only two or
    # three rounds, too few for a steady median.  The other rates run the
    # same code on the smaller balls.
    rates = {"free2_r4": PSD_RATES, "z2_r10": PSD_RATES, "free2_r5": (0.5,)}
    ops = []
    for name, group, points in balls:
        # The verdicts do not depend on the point order; the seed shuffles it.
        pts = list(points)
        rng.shuffle(pts)

        def cn_ok(v, name=name):
            if v.passed and v.max_mean_zero_eigenvalue <= KERNEL_TOL and v.witness is None:
                return []
            return [f"cn_{name}: length kernel not certified CN (max eig {v.max_mean_zero_eigenvalue})"]

        ops.append(Op(
            key=f"cn_{name}",
            call=lambda g=group, p=pts: R.cn_check(g, p, tol=KERNEL_TOL),
            check=cn_ok,
            canon=lambda v: _canon([v.passed, v.max_mean_zero_eigenvalue]),
        ))
        for r in rates[name]:
            def psd_ok(v, name=name, r=r):
                if v.passed and v.min_eigenvalue >= -KERNEL_TOL:
                    return []
                return [f"psd_{name}_r{r}: heat kernel not PSD (min eig {v.min_eigenvalue})"]

            ops.append(Op(
                key=f"psd_{name}_r{r}",
                call=lambda g=group, p=pts, r=r: R.psd_check(R.schoenberg_kernel(g, p, r), tol=KERNEL_TOL),
                check=psd_ok,
                canon=lambda v: _canon([v.passed, v.min_eigenvalue]),
            ))

    def cex_check(v):
        w = None if v.witness is None else [float(c) for c in v.witness]
        if not v.passed and w == [1.0, 1.0, -2.0]:
            return []
        return [f"cn_counterexample: expected failure with witness [1, 1, -2], got passed={v.passed} witness={w}"]

    ops.append(Op(
        key="cn_counterexample",
        call=lambda: R.cn_check_matrix(COUNTEREXAMPLE, tol=KERNEL_TOL),
        check=cex_check,
        canon=lambda v: _canon([v.passed, v.max_mean_zero_eigenvalue, [float(c) for c in v.witness]]),
    ))
    return Workload("kernels", ops)


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliRun:
    code: int
    stdout: bytes
    stderr: bytes
    out_file: bytes


def _element_json(terms: dict) -> str:
    return json.dumps({
        "group": {"kind": "free", "rank": 2},
        "terms": [{"elem": w, "re": c, "im": 0.0} for w, c in terms.items()],
    })


def _cli_op(key, argv, env, root, check, out_path=None, widths=None, malformed=False) -> Op:
    def call():
        if out_path and os.path.exists(out_path):
            os.remove(out_path)
        proc = subprocess.run(
            [sys.executable, "-m", "rdmap.cli", *argv],
            cwd=root, env=env, capture_output=True, timeout=120,
        )
        out = b""
        if out_path and os.path.exists(out_path):
            with open(out_path, "rb") as handle:
                out = handle.read()
        return CliRun(proc.returncode, proc.stdout, proc.stderr, out)

    return Op(
        key=key,
        call=call,
        check=check,
        canon=lambda run: b"%d\n" % run.code + run.stdout + run.out_file,
        widths=widths or (lambda run: []),
        malformed=malformed,
        argv=list(argv),
    )


def _json_out(run: CliRun):
    try:
        return json.loads(run.stdout)
    except ValueError:
        return None


def _expect_ok(key, run, payload_ok) -> list:
    if run.code != 0:
        return [f"{key}: exit {run.code}: {run.stderr.decode(errors='replace').strip()[-200:]}"]
    return [] if payload_ok() else [f"{key}: output fails its oracle"]


def _expect_usage_error(key, run) -> list:
    """Malformed input must exit 1 with a message and no traceback."""
    err = run.stderr.decode(errors="replace")
    if run.code == 1 and err.strip() and "Traceback" not in err:
        return []
    last = err.strip().splitlines()[-1] if err.strip() else ""
    reason = "traceback: " + last if "Traceback" in err else f"exit {run.code}"
    if b"NaN" in run.stdout:
        reason += ", NaN in the output"
    return [f"{key}: expected exit 1 with a message, got {reason}"]


def cli(seed: int, root: str, env: dict, workdir: str) -> Workload:
    rng = random.Random(f"cli:{seed}")
    kesten = {w: 1.0 for w in "aAbB"}
    kesten_path = os.path.join(workdir, "kesten.json")
    with open(kesten_path, "w", encoding="utf-8") as handle:
        handle.write(_element_json(kesten))
    rows_path = os.path.join(workdir, "rows.csv")
    norm_seed, rd_seed = rng.randrange(2**31), rng.randrange(2**31)
    exact = haagerup_norm(2, kesten)
    ops_list = []

    def cn_ok(key, run):
        p = _json_out(run)
        return _expect_ok(key, run, lambda: p is not None and p["verdict"]["passed"] and p["size"] == 17
                          and p["verdict"]["max_mean_zero_eigenvalue"] <= p["tol"])

    def pd_ok(key, run):
        p = _json_out(run)
        return _expect_ok(key, run, lambda: p is not None and p["passed"]
                          and [e["r"] for e in p["results"]] == list(PSD_RATES)
                          and all(e["passed"] and e["min_eigenvalue"] >= -p["tol"] for e in p["results"]))

    def norm_ok(key, run):
        p = _json_out(run)

        def ok():
            b = p["bracket"]
            return _le(2.0, b["lower"]) and _le(b["lower"], exact) and _le(exact, b["upper"]) and _le(b["upper"], 4.0)

        return _expect_ok(key, run, lambda: p is not None and ok())

    def converge_ok(key, run):
        def ok():
            rows = _csv_rows(run.out_file.decode())
            good = len(rows) == 3
            for row in rows:
                # phi * f - f = (exp(-r) / U - 1) f for f supported on the generators
                true = abs(math.exp(-row["r"]) / row["U"] - 1.0) * exact
                good = good and row["n"] == math.ceil(80.0 / row["r"]) and row["U"] >= 1.0
                good = good and _le(row["defect_lower"], true) and _le(true, row["defect_upper"])
            return good

        return _expect_ok(key, run, ok)

    def rd_ok(key, run):
        p = _json_out(run)
        return _expect_ok(key, run, lambda: p is not None and p["passed"] and p["count"] == 50
                          and 0.0 < p["worst_ratio"] <= 1.0)

    def bracket_width(run):
        p = _json_out(run)
        return [_width(p["bracket"]["lower"], p["bracket"]["upper"])] if p and run.code == 0 else []

    def rows_width(run):
        if run.code != 0 or not run.out_file:
            return []
        return [_width(r["defect_lower"], r["defect_upper"]) for r in _csv_rows(run.out_file.decode())]

    nan_terms = dict(kesten, a=float("nan"))
    huge_terms = {w: 1e308 for w in kesten}
    specs = [
        ("check_cn", ["check-cn", "--group", "free:2", "--radius", "2"], cn_ok, None, None, False),
        ("check_pd", ["check-pd", "--group", "free-abelian:2", "--radius", "4"], pd_ok, None, None, False),
        ("norm_kesten_r6", ["norm", "--element", kesten_path, "--radius", "6", "--seed", str(norm_seed)],
         norm_ok, None, bracket_width, False),
        ("map_converge_csv", ["map-converge", "--element", kesten_path, "--epsilon", "0.3",
                              "--format", "csv", "--out", rows_path], converge_ok, rows_path, rows_width, False),
        ("rd_sample_z1", ["rd-sample", "--group", "free-abelian:1", "--count", "50", "--seed", str(rd_seed)],
         rd_ok, None, None, False),
        # radius 2 keeps the malformed requests short; the defect does not depend on it
        ("norm_nan", ["norm", "--element-json", _element_json(nan_terms), "--radius", "2"],
         _expect_usage_error, None, None, True),
        ("norm_1e308", ["norm", "--element-json", _element_json(huge_terms), "--radius", "2"],
         _expect_usage_error, None, None, True),
    ]
    for key, argv, check, out_path, widths, malformed in specs:
        ops_list.append(_cli_op(
            key, argv, env, root, lambda run, key=key, check=check: check(key, run),
            out_path=out_path, widths=widths, malformed=malformed,
        ))
    return Workload("cli", ops_list)


def build(name: str, seed: int, root: str, env: dict, workdir: str) -> Workload:
    if name == "cli":
        return cli(seed, root, env, workdir)
    return {"brackets": brackets, "sweep": sweep, "kernels": kernels}[name](seed)


NAMES = ("brackets", "sweep", "kernels", "cli")
