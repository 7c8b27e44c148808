"""rdmap benchmark: four workloads, end-to-end metrics, and a traced run.

Run from the root of a source checkout:

    python3 bench/run.py --workload brackets --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1009 --seconds 20

``--trace 0`` reports the end-to-end metrics (set-up time, op latency median
and tail, throughput, peak memory), ``--trace 1`` the per-layer metrics of a
separate traced run.  Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a table of every metric with its unit and sample count, the failures with
their reasons, a sha256 digest of the canonical outputs, and the environment.

Each workload runs in fresh interpreters (``worker.py``): one discarded
set-up so the OS page cache holds rdmap, numpy and scipy, four more timed
set-ups, then the worker that runs the timed phase, whose own set-up is the
fifth sample of ``setup_s``.  Times are scaled to the reference speed of
``calibrate.py`` (see README.md).  rdmap is imported from ``src/`` of the
checkout; the benchmark exits with code 2 and prints no result without it.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import NAMES  # noqa: E402

HELD_OUT_SEED = 1009  # never used while tuning; confirm claimed gains on it too
SETUP_SAMPLES = 5  # timed set-ups per run, the worker's own included
NUMPY_PROBES = 3
PROCESS_TIMEOUT_S = 150
BLAS_THREADS = 1

# Metric names and units, and why each workload exists, come from the spec.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    from calibrate import REFERENCE_S

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        llc = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_THREADS,
        "llc_bytes": llc,
        "times": f"scaled to the reference speed of calibrate.py (REFERENCE_S = {REFERENCE_S} s)",
        "page_cache": "warmed by one discarded set-up process before timing; cold-cache figures "
        "are not measured (that needs dropping the OS caches)",
        "loop": "closed, one caller, one op in flight",
    }


def start_worker(workload, args, env, workdir, mode, spans_out=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--root", str(ROOT), "--workdir", str(workdir)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = _expect(proc, "READY")
        setup_s = time.perf_counter() - start
        result = _expect(proc, "RESULT") if mode == "run" else None
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return setup_s, ready, result


def _expect(proc, tag):
    line = proc.stdout.readline()
    if not line.startswith(tag + " "):
        raise BenchError(f"worker ended before {tag}: {line.strip()!r}")
    return json.loads(line[len(tag) + 1:])


def numpy_import_s(env) -> float:
    code = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=PROCESS_TIMEOUT_S, check=True)
    return float(out.stdout)


def reference_speed_factor() -> float:
    from calibrate import REFERENCE_S, calibration_s

    return REFERENCE_S / statistics.median(calibration_s() for _ in range(5))


def run_workload(workload, args, env, workdir) -> dict:
    start_worker(workload, args, env, workdir, "setup")  # discarded: warms the page cache
    spans_out = None
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_out = out_dir / f"spans-{workload}-seed{args.seed}.json"
    samples, imports = [], []
    for mode in ["setup"] * (SETUP_SAMPLES - 1) + ["run"]:
        before = reference_speed_factor()
        setup_s, ready, result = start_worker(workload, args, env, workdir, mode, spans_out)
        # the run's own timed phase lies between; the set-up is scaled by the speed before it
        factor = before if mode == "run" else (before + reference_speed_factor()) / 2
        samples.append(setup_s * factor)
        imports.append(ready["import_s"])
    result["setup_samples"] = samples
    result["setup_s"] = statistics.median(samples)
    result["spans_file"] = str(spans_out.relative_to(ROOT)) if spans_out else None
    if args.trace:
        layers = result["layers"]
        layers["import.rdmap_s"] = statistics.median(imports)
        layers["import.numpy_s"] = statistics.median(numpy_import_s(env) for _ in range(NUMPY_PROBES))
        layers["bracket_rel_width"] = result["bracket_rel_width"] or 0.0
        layers["cli.malformed_fail_ratio"] = (
            result["malformed_failed"] / result["malformed_attempted"] if result["malformed_attempted"] else 0.0
        )
    return result


def metrics_of(result, trace) -> dict:
    if trace:
        return {name: {"value": result["layers"][name], "unit": unit} for name, unit in PER_LAYER}
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}


def print_table(workload, args, result) -> None:
    print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}): {WHY[workload]}")
    rows = []
    if args.trace:
        for name, unit in PER_LAYER:
            rows.append((name, f"{result['layers'][name]:.6g}", unit, f"best of {result['passes']} traced passes"))
        rows.append(("spans", result["spans_file"], "", "span file"))
    else:
        n, rounds = result["results_per_round"], result["rounds"]
        rows += [
            ("setup_s", f"{result['setup_s']:.4f}", "s", f"median of {len(result['setup_samples'])} set-ups"),
            ("op_ms_p50", f"{result['op_ms_p50']:.4f}", "ms",
             f"{n} results, median of {rounds} rounds; wall clock {result['wall_op_ms_p50']:.4f}"),
            ("op_ms_tail", f"{result['op_ms_tail']:.4f}", "ms",
             f"p{result['tail_pct']:g} of {n} results, {result['tail_beyond']} beyond"),
            ("ops_per_s", f"{result['ops_per_s']:.4f}", "1/s",
             f"{n} results / sum of op times; wall clock {result['wall_ops_per_s']:.4f}"),
            ("peak_rss_mb", f"{result['peak_rss_mb']:.1f}", "MB",
             "largest CLI process" if workload == "cli" else "worker process"),
            ("fail_ratio", f"{result['failed'] / max(result['attempted'], 1):.4f}", "ratio",
             f"{result['failed']} failed of {result['attempted']} attempted"),
        ]
        width = result["bracket_rel_width"]
        rows.append(("bracket_rel_width", "n/a" if width is None else f"{width:.6f}", "ratio",
                     f"mean over {result['brackets']} brackets of the first round"))
    for name, value, unit, samples in rows:
        print(f"  {name:34} {value:>14} {unit:6} {samples}")
    if result["malformed_attempted"]:
        print(f"  malformed requests: {result['malformed_failed']} of {result['malformed_attempted']} "
              "not rejected cleanly (known defect, reported apart from failed ops)")
    for title, book in (("failed", result["reasons"]), ("malformed", result["malformed_reasons"])):
        for reason, count in sorted(book.items()):
            print(f"  {title} x{count}: {reason}")
    if not args.trace:
        speed = ", ".join(f"{f:.3f}" for f in result["speed_factors"])
        print(f"  reference-speed factor per round: {speed}")
    print(f"  output digest sha256 {result['digest']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True,
                        help=f"workload seed; {HELD_OUT_SEED} is held out for confirming claims")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="add the metrics to a trajectory file")
    parser.add_argument("--label", default="unlabelled", help="trajectory row label")
    args = parser.parse_args()

    if not (ROOT / "src" / "rdmap" / "__init__.py").is_file():
        print(f"error: no rdmap sources at {ROOT / 'src' / 'rdmap'}", file=sys.stderr)
        return 2

    env = child_env()
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, env, workdir)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, result in results.items():
        print_table(name, args, result)
    print("environment " + json.dumps(environment(), sort_keys=True))
    if args.record:
        record(Path(args.record), args, results)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = metrics_of(results[args.workload], args.trace)
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in metrics_of(r, args.trace).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def record(path: Path, args, results) -> None:
    """Merge this run's metrics into the trajectory row named by --label."""
    rows = json.loads(path.read_text()) if path.exists() else []
    row = next((r for r in rows if r["label"] == args.label), None)
    if row is None:
        row = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
               "environment": environment(), "workloads": {}}
        rows.append(row)
    for name, result in results.items():
        entry = row["workloads"].setdefault(name, {"digest": result["digest"]})
        figures = {k: v["value"] for k, v in metrics_of(result, args.trace).items()}
        figures.update(failed=result["failed"], attempted=result["attempted"])
        if not args.trace:
            figures.update(fail_ratio=result["failed"] / max(result["attempted"], 1),
                           bracket_rel_width=result["bracket_rel_width"], tail_pct=result["tail_pct"])
        entry["per_layer" if args.trace else "end_to_end"] = figures
    path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
