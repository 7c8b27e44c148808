"""One fresh interpreter: set a workload up, then drive it in a closed loop.

Started by ``run.py``; not meant to be run by hand.  Prints ``READY`` once
the workload is ready for its first timed op (rdmap imported, inputs built,
one untimed warm-up op done), then, unless ``--mode setup``, one ``RESULT``
line with the raw figures of the timed phase.

A single caller sends the next op only after the previous one returned.
Whole rounds run until one more round would pass ``--seconds``.  Untraced
runs report each op's time at the reference speed of ``calibrate.py``; the
traced run keeps each op's best time, which is enough for its ratios.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

import workloads

# Tail percentile over the results of one round.  A round holds 7 to 212
# results, too few for a percentile with ten samples beyond it in most
# workloads, so the tail is a fixed percentile instead.
TAIL_PCT = 90.0


def percentile(sorted_values: list, pct: float) -> float:
    """Linear interpolation between closest ranks (the inclusive method)."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Tally:
    """Outcomes of every op: latencies, oracle failures, digest, widths."""

    def __init__(self, warm_key: str, warm_canon: bytes):
        self.latencies: list = []
        self.attempted = self.failed = 0
        self.malformed_attempted = self.malformed_failed = 0
        self.reasons: dict = {}
        self.malformed_reasons: dict = {}
        self.widths: list = []
        self.seen = {warm_key: warm_canon}
        self.digest = hashlib.sha256()

    def run(self, op, first_round: bool) -> float:
        start = time.perf_counter()
        try:
            out, error = op.call(), None
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            out, error = None, f"{op.key}: raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.latencies.extend([elapsed / op.results] * op.results)
        self.record(op, out, error, first_round)
        return elapsed

    def record(self, op, out, error, first_round: bool) -> None:
        if error is None:
            try:
                reasons = list(op.check(out))
                canon = op.canon(out)
                widths = op.widths(out)
            except Exception as exc:  # output too malformed for its oracle
                reasons, canon, widths = [f"{op.key}: oracle could not read the output: {exc!r}"], b"", []
            if self.seen.setdefault(op.key, canon) != canon:
                reasons.append(f"{op.key}: output differs from an earlier run of the same op")
            if first_round:
                self.digest.update(op.key.encode() + b"\n" + canon + b"\n")
                self.widths.extend(widths)
        else:
            reasons = [error] * op.results
        failed = min(len(reasons), op.results)
        book = self.malformed_reasons if op.malformed else self.reasons
        for reason in reasons:
            book[reason] = book.get(reason, 0) + 1
        if op.malformed:
            self.malformed_attempted += op.results
            self.malformed_failed += failed
        else:
            self.attempted += op.results
            self.failed += failed

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "reasons": self.reasons,
            "malformed_attempted": self.malformed_attempted,
            "malformed_failed": self.malformed_failed,
            "malformed_reasons": self.malformed_reasons,
            "digest": self.digest.hexdigest(),
            "bracket_rel_width": statistics.fmean(self.widths) if self.widths else None,
            "brackets": len(self.widths),
        }


def timed_rounds(wl, seconds: float, run_round) -> int:
    """Run whole rounds until one more would pass ``seconds`` (at least one)."""
    start = time.perf_counter()
    rounds, longest = 0, 0.0
    while rounds == 0 or (time.perf_counter() - start) + longest <= seconds:
        round_start = time.perf_counter()
        run_round(rounds)
        longest = max(longest, time.perf_counter() - round_start)
        rounds += 1
    return rounds


def keep_best(best: dict, key, seconds: float) -> None:
    best[key] = min(best.get(key, seconds), seconds)


def run_untraced(wl, tally: Tally, seconds: float) -> dict:
    """Per op, the median over rounds of its time at the reference speed.

    The calibration load runs between ops.  An op's time is scaled by
    ``REFERENCE_S`` over the median of the two calibrations before it and
    the two after it, which follow the host's speed over a few seconds
    without taking the noise of a single short calibration.
    """
    from calibrate import REFERENCE_S, calibration_s

    scaled, raw, speed = defaultdict(list), defaultdict(list), []

    def run_round(index):
        cal = [calibration_s()]
        times = []
        for op in wl.ops:
            times.append(tally.run(op, index == 0))
            cal.append(calibration_s())
        for i, (op, t) in enumerate(zip(wl.ops, times)):
            factor = REFERENCE_S / statistics.median(cal[max(0, i - 1):i + 3])
            scaled[op.key].append(t * factor)
            raw[op.key].append(t)
        speed.append(REFERENCE_S / statistics.median(cal))

    rounds = timed_rounds(wl, seconds, run_round)

    # Malformed requests stay in the mix but out of the figures, as they are
    # out of attempted/failed: they measure how fast a request is refused.
    timed_ops = [op for op in wl.ops if not op.malformed]

    def per_result(times: dict) -> list:
        per_op = {key: statistics.median(ts) for key, ts in times.items()}
        return sorted(x for op in timed_ops for x in [per_op[op.key] / op.results] * op.results)

    lat, lat_raw = per_result(scaled), per_result(raw)
    tail = percentile(lat, TAIL_PCT)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return {
        "rounds": rounds,
        "results_per_round": len(lat),
        "op_ms_p50": 1000.0 * statistics.median(lat),
        "op_ms_tail": 1000.0 * tail,
        "tail_pct": TAIL_PCT,
        "tail_beyond": sum(1 for x in lat if x > tail),
        "ops_per_s": len(lat) / math.fsum(lat),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "wall_op_ms_p50": 1000.0 * statistics.median(lat_raw),
        "wall_ops_per_s": len(lat_raw) / math.fsum(lat_raw),
        "speed_factors": speed,
    }


def _main_in_process(argv) -> float:
    import rdmap.cli

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rdmap.cli.main(argv)
        except Exception:  # the malformed requests may still raise; timing is all we need here
            pass
    return time.perf_counter() - start


def run_traced(wl, tally: Tally, seconds: float):
    """Each op runs untraced, then traced; CLI ops also run as a process.

    Per-layer times are the best pass over the round, counts come from the
    first pass, so they repeat exactly from run to run.
    """
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, process = {}, {}, {}

    def run_round(index):
        for op in wl.ops:
            if op.argv is not None:
                keep_best(process, op.key, tally.run(op, index == 0))
                keep_best(plain, op.key, _main_in_process(op.argv))
                timed = lambda: _main_in_process(op.argv)  # noqa: E731
            else:
                keep_best(plain, op.key, tally.run(op, index == 0))
                timed = lambda: tally.run(op, False)  # noqa: E731
            tracer.install((index, op.key))
            try:
                keep_best(traced, op.key, timed())
            finally:
                tracer.uninstall()
        if index == 0:
            tracer.snapshot_first_pass_counts()

    passes = timed_rounds(wl, seconds, run_round)
    metrics = tracer.layer_metrics()
    if process:
        metrics["cli.main_s"] = statistics.median(plain.values())
        metrics["cli.process_s"] = statistics.median(process[k] - plain[k] for k in process)
    else:
        metrics["cli.main_s"] = metrics["cli.process_s"] = 0.0
    metrics["trace.overhead_ratio"] = statistics.median(traced.values()) / statistics.median(plain.values())
    return {"passes": passes, "layers": metrics}, tracer.dump()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", help="where the traced run writes its spans")
    args = parser.parse_args()

    import_s = None
    if args.workload != "cli" or args.trace:
        start = time.perf_counter()
        import rdmap  # noqa: F401  (timed: the import is part of set-up)

        import_s = time.perf_counter() - start
    wl = workloads.build(args.workload, args.seed, args.root, dict(os.environ), args.workdir)
    warm = wl.ops[0]
    warm_out = warm.call()
    tally = Tally(warm.key, warm.canon(warm_out))
    print("READY " + json.dumps({"import_s": import_s}), flush=True)
    if args.mode == "setup":
        return 0

    if args.trace:
        figures, spans = run_traced(wl, tally, args.seconds)
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
    else:
        figures = run_untraced(wl, tally, args.seconds)
    figures.update(tally.summary())
    print("RESULT " + json.dumps(figures), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
