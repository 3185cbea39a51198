"""Benchmark of the svkit back-end: four seeded workloads, output checks,
and a traced mode that reports self time per layer.

    python3 perfbench/run.py --workload vox-cohort --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One run is one process. It sets up the workload's inputs from --seed
(three times, timing each), then repeats the workload's pipeline while
another pass still fits in --seconds (always at least once), checks the
last pass's outputs, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are end-to-end: `wall_s`, the median pass time;
`setup_s`, import time plus the median set-up time; and `peak_rss_mb`, the
process's peak resident set. Times are rescaled to a reference CPU speed
measured while they run (see speed.py), because this host's speed drifts by
up to 20% within seconds; the raw times are printed and kept as well.
With --trace 1, an untraced warm-up pass is followed by alternating traced
and untraced passes, at least one of each even past --seconds; the metrics
are per-layer self times and counts from the traced passes, plus the
tracing overhead (median traced minus median untraced pass time, warm-up
excluded).

Every run writes its raw timings, environment and spans to
.perfbench_out/ in the checkout, and works in .perfbench_work/, which it
removes. `--workload all` runs each workload in its own process and prints
a summary table. Run from a checkout that has src/svkit and tests/oracles.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
NAMES = ["vox-cohort", "vox-trials", "pseudo-label", "loss-check"]
SETUP_REPEATS = 3
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def cap_blas_threads():
    """Cap BLAS threads at the cores this process may use. Must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in _BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


def environment(threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def run_workload(args):
    if not (ROOT / "src" / "svkit" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} has no src/svkit or tests/oracles.py",
              file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    with speed.SpeedProbe() as probe:
        run = measure(args)
    import spans
    import workloads

    def rescaled(intervals):
        return [probe.rescaled(t0, t1) for t0, t1 in intervals]

    measured = run["passes"][1:] if args.trace else run["passes"]
    walls = {traced: rescaled(iv for iv, t in measured if t == traced)
             for traced in (False, True)}
    if args.trace:
        scale = {f"{kind}-{i}": probe.scale(*iv)
                 for kind in ("setup", "pass")
                 for i, iv in enumerate(run[kind + "_intervals"])}
        overhead = (statistics.median(walls[True]) - statistics.median(walls[False])
                    if walls[True] and walls[False] else 0.0)
        values = workloads.per_layer_values(
            spans.summarize(run["tracer"].unit_totals(), scale),
            run["quality"], overhead)
        units = {n: u for n, u, _ in workloads.per_layer_defs()}
    else:
        values = {
            "wall_s": _median(walls[False]),
            "setup_s": probe.rescaled(*run["import"])
                       + _median(rescaled(run["setup_intervals"])),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    attempted = max(run["attempted"], 1)
    result = {
        "correct": run["correct"],
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }

    raw = {k: [t1 - t0 for t0, t1 in run[k + "_intervals"]]
           for k in ("setup", "pass")}
    env = environment(threads)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env, "probe": probe.summary(),
        "raw_import_s": run["import"][1] - run["import"][0],
        "raw_setup_s": raw["setup"], "raw_pass_s": raw["pass"],
        "traced_passes": [t for _, t in run["passes"]],
        "pass_s": walls[False], "traced_pass_s": walls[True],
        "quality": run["quality"], "failed_checks": run["failures"],
        "result": result, "probe_samples": probe.samples(),
        "pass_intervals": run["pass_intervals"],
        "spans": run["tracer"].spans if run["tracer"] else [],
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(detail))

    print("env " + json.dumps({**env, **probe.summary()}))
    print(f"{args.workload}: {len(raw['pass'])} passes, raw pass times "
          f"{', '.join(f'{w:.3f}' for w in raw['pass'])} s; fail_frac "
          f"{run['failed'] / attempted:.4g} ({run['failed']}/{run['attempted']})")
    for n, q in run["quality"].items():
        print(f"  quality {n:<20} {q:.6g}")
    if not args.trace:
        for n, v in values.items():
            print(f"  {n:<20} {v:.6g} {units[n]}")
    print(json.dumps(result))
    return 0


def measure(args):
    """Imports, set-ups, passes and checks of one run, with the raw
    perf_counter interval of each timed part."""
    t0 = time.perf_counter()
    import numpy as np

    import checks
    import spans
    import workloads
    imported = (t0, time.perf_counter())

    wl = workloads.WORKLOADS[args.workload]
    seeds = np.random.SeedSequence(args.seed).generate_state(8)
    tracer = spans.Tracer() if args.trace else None
    points = workloads.trace_points()
    ops = workloads.Ops()

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work")
    setups, passes = [], []
    failed_pass = False
    try:
        try:
            for i in range(SETUP_REPEATS):
                with _traced(tracer, points, "setup", i):
                    t = time.perf_counter()
                    inp = wl.setup(work, seeds, ops)
                    setups.append((t, time.perf_counter()))

            # with a tracer, pass 0 is an untraced warm-up and the rest
            # alternate traced / untraced; at least one of each is run
            start = time.perf_counter()
            while True:
                traced = tracer is not None and len(passes) % 2 == 1
                out = None  # let the previous pass's outputs go first
                t = time.perf_counter()
                with _traced(tracer if traced else None, points, "pass",
                             len(passes)):
                    out = wl.run(inp, ops, tracer if traced else None)
                passes.append(((t, time.perf_counter()), traced))
                typical = statistics.median(t1 - t0 for (t0, t1), _ in passes)
                if (time.perf_counter() - start + typical > args.seconds
                        and (tracer is None or len(passes) >= 3)):
                    break
        except Exception:
            traceback.print_exc()
            failed_pass = True
        # before the checks, which hold outputs of their own
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = []
        if not failed_pass:
            try:
                failures = checks.run_all(
                    wl.checks(inp, out, np.random.default_rng(seeds[7])))
            except Exception:  # outputs too broken to load for checking
                failures = [("load outputs", traceback.format_exc())]
        for name, message in failures:
            print(f"check failed: {name}: {message}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = max(ops.failed, int(failed_pass)) + len(failures)
    correct = failed == 0
    return {
        "import": imported, "setup_intervals": setups,
        "pass_intervals": [iv for iv, _ in passes], "passes": passes,
        "tracer": tracer, "peak_rss_mb": peak_rss_mb,
        "correct": correct, "attempted": ops.attempted,
        "failed": failed, "failures": failures,
        "quality": wl.quality(out) if correct else {},
    }


def _median(values):
    """Median, or 0 when a failure left nothing measured."""
    return statistics.median(values) if values else 0.0


@contextlib.contextmanager
def _traced(tracer, points, kind, index):
    """A tracer unit with svkit's calls wrapped; nothing without a tracer."""
    if tracer is None:
        yield
        return
    tracer.install(points)
    try:
        with tracer.unit(kind, index):
            yield
    finally:
        tracer.uninstall()


def run_all(args):
    """Every workload in its own process; a summary table of end-to-end (or
    per-layer layer/overhead) metrics, then one JSON line per workload."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print()
    print(f"{'workload':<14} {'correct':<8} {'fail_frac':<10} metrics")
    for name, r in results.items():
        shown = {k: m for k, m in r["metrics"].items()
                 if not args.trace or k.startswith(("layer.", "trace."))}
        text = "  ".join(f"{k} {m['value']:.4g} {m['unit']}"
                         for k, m in shown.items())
        print(f"{name:<14} {str(r['correct']):<8} "
              f"{r['failed'] / r['attempted']:<10.3g} {text}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
