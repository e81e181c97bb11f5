"""Benchmark entry point: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The package is imported from its
``src/`` directory; without it the run stops with exit status 2.

``--trace 0`` measures set-up three times in fresh interpreters, then runs
whole rounds of the workload, untraced, until S seconds have passed, and
prints the end-to-end metrics, medians over the set-ups and the rounds.

``--trace 1`` alternates untraced and traced rounds of the named workload
until S seconds have passed, runs one traced round of every other workload,
times the package import with ``python -X importtime``, writes every span to
``benchmarks/results/`` and prints every per-layer metric.  Its attempted and
failed counts cover the named workload only, as in an untraced run.

The last line of standard output is the JSON result.
"""
from __future__ import annotations

import os

# fixed before numpy loads: one process, at most nproc BLAS threads
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from harness import Checker, Tracer, median  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
MODULES = {"condensate": "condensate", "charge-sweep": "charge_sweep",
           "raster": "raster", "cli-quick": "cli_quick"}
SETUP_REPEATS = 3

# a fresh interpreter: import the workload (and with it the package), make
# the seeded inputs, print the monotonic clock, which is system-wide
_PROBE = """
import importlib, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
importlib.import_module(sys.argv[3]).setup(int(sys.argv[4]))
print(time.monotonic())
"""


def fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def setup_seconds(module: str, seed: int) -> float:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, BENCH_DIR, SRC, module, str(seed)],
        env=fresh_env(), capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.split()[-1]) - start


def import_times() -> dict:
    """Cumulative import time of the package and each of its modules."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import coulomblab.cli"],
        env=fresh_env(), capture_output=True, text=True, timeout=170, check=True)
    out = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = (part.strip() for part in line[12:].split("|"))
        if name == "coulomblab":
            out["import.package_s"] = (int(cumulative) * 1e-6, "s")
        elif name.startswith("coulomblab."):
            out[f"import.{name.split('.', 1)[1]}_ms"] = (int(cumulative) * 1e-3, "ms")
    return out


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_round(mod, inputs, tracer):
    ck = Checker()
    in_process = getattr(mod, "IN_PROCESS", True)
    cpu0 = time.process_time() if in_process else children_cpu()
    t0 = time.perf_counter()
    mod.run_round(inputs, tracer, ck)
    wall = time.perf_counter() - t0
    cpu = (time.process_time() if in_process else children_cpu()) - cpu0
    return ck, wall, cpu


def report_problems(name: str, ck) -> None:
    for msg in ck.failures[:5] + ck.wrong[:20]:
        sys.stderr.write(f"[{name}] {msg}\n")


def untraced(args, mod, module) -> tuple:
    setups = [setup_seconds(module, args.seed) for _ in range(SETUP_REPEATS)]
    inputs = mod.setup(args.seed)
    attempted = failed = 0
    correct = True
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        ck, wall, cpu = run_round(mod, inputs, Tracer(False))
        attempted += ck.attempted
        failed += ck.failed
        correct = correct and not ck.wrong
        report_problems(args.workload, ck)
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() - start >= args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not getattr(mod, "IN_PROCESS", True):
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(walls), "s"),
        "cpu_s": (median(cpus), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    sys.stderr.write(f"[{args.workload}] rounds={len(walls)} walls={walls} "
                     f"setups={setups}\n")
    return correct, attempted, failed, metrics


def traced(args, mod, module) -> tuple:
    attempted = failed = 0
    correct = True
    walls = {False: [], True: []}
    tracers = {name: [] for name in MODULES}
    layer = {}
    inputs = mod.setup(args.seed)
    start = time.perf_counter()
    while True:
        for on in (False, True):
            tracer = Tracer(on)
            ck, wall, _ = run_round(mod, inputs, tracer)
            attempted += ck.attempted
            failed += ck.failed
            correct = correct and not ck.wrong
            report_problems(args.workload, ck)
            walls[on].append(wall)
            if on:
                tracers[args.workload].append((tracer, inputs))
        if time.perf_counter() - start >= args.seconds:
            break
    for name, other_module in MODULES.items():
        if name == args.workload:
            continue
        other = importlib.import_module(other_module)
        other_inputs = other.setup(args.seed)
        tracer = Tracer(True)
        ck, _, _ = run_round(other, other_inputs, tracer)
        correct = correct and not ck.wrong
        report_problems(name, ck)
        tracers[name].append((tracer, other_inputs))

    for name, runs in tracers.items():
        other = importlib.import_module(MODULES[name])
        per_round = [other.layer_metrics(tr, inp) for tr, inp in runs]
        for key, (_, unit) in per_round[0].items():
            value = median([m[key][0] for m in per_round])
            layer[key] = (int(value) if unit == "count" else value, unit)
    layer.update(import_times())
    layer["trace.wall_s.untraced"] = (median(walls[False]), "s")
    layer["trace.wall_s.traced"] = (median(walls[True]), "s")

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "overhead_s": layer["trace.wall_s.traced"][0] - layer["trace.wall_s.untraced"][0],
            "spans": {name: [[s.to_dict() for s in tr.spans] for tr, _ in runs]
                      for name, runs in tracers.items()},
        }, fh, indent=1)
        fh.write("\n")
    return correct, attempted, failed, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coulomblab", "__init__.py")):
        sys.stderr.write(f"no package source under {SRC}\n")
        return 2
    sys.path[:0] = [BENCH_DIR, SRC]
    module = MODULES[args.workload]
    mod = importlib.import_module(module)
    import coulomblab

    if os.path.dirname(os.path.abspath(coulomblab.__file__)) != os.path.join(SRC, "coulomblab"):
        sys.stderr.write(f"coulomblab imported from {coulomblab.__file__}, not {SRC}\n")
        return 2

    run = traced if args.trace else untraced
    correct, attempted, failed, metrics = run(args, mod, module)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
