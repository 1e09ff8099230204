#!/usr/bin/env python3
"""carpetgas benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the package is imported from
``src/``.  One process runs one workload as a closed loop with a single
client: passes run back to back for about ``--seconds``, each pass checks
its outputs, and the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb); with
``--trace 1`` one pass runs under the span tracer and the metrics are the
per-layer ones.  Lines before it report every figure by name and unit, and
the full result (with the environment) is written under
``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
IMPORT_REPEATS = 3
WORKLOAD_NAMES = ("cold-chain", "sliced-scale", "warm-observables")

# name -> unit, in the order printed; matches BENCHMARK.json
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "geometry.busy_s": "s", "geometry.calls": "count",
    "graph.build_s": "s", "graph.laplacian_s": "s", "graph.vertices": "count",
    "graph.edges": "count",
    "eigensolve.solve_s": "s", "eigensolve.self_s": "s", "eigensolve.modes": "count",
    "eigensolve.complete_ratio": "ratio", "eigensolve.max_dev": "ratio",
    "eigensolve.load_s": "s", "eigensolve.save_s": "s",
    "ldlt.factor_s": "s", "ldlt.inertia_s": "s", "ldlt.inertia_calls": "count",
    "trace.analyze_s": "s", "trace.analyze_calls": "count", "trace.windows_s": "s",
    "trace.heat_trace_s": "s",
    "zeta.build_s": "s", "zeta.eval_s": "s", "zeta.evals": "count", "zeta.eval_ms_p50": "ms",
    "specfun.busy_s": "s", "specfun.calls": "count",
    "thermo.busy_s": "s", "thermo.calls": "count",
    "oracle.busy_s": "s", "oracle.calls": "count",
    "cli.stages": "count", "cli.self_s": "s", "cli.cache_hits": "count",
    "cli.cache_misses": "count", "cli.artifact_bytes": "bytes",
    "import.cli_s": "s", "import.oracle_s": "s",
    "tracing.overhead_ratio": "ratio", "tracing.spans": "count",
    "error_rate": "ratio", "probes.known_failures": "count",
}
# printed on the report lines of untraced runs: stage times of the workloads
# they apply to (not every workload has every stage, so they are not gated)
STAGES = {"spectrum_s": "s", "observables_s": "s", "zeta_evals_per_s": "1/s",
          "error_rate": "ratio"}


def blas_threads() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(2, cpus))


def package_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def fresh_import(importtime: bool = False) -> tuple[float, str]:
    """Wall time of ``import carpetgas.cli`` in a new interpreter."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + ["-c", "import carpetgas.cli"]
    t0 = perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=package_env(), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120, check=True)
    return perf_counter() - t0, done.stderr


def import_breakdown() -> dict[str, float]:
    """Cumulative import times of carpetgas.cli and carpetgas.oracle (-X importtime)."""
    _, log = fresh_import(importtime=True)
    found = {}
    for line in log.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in ("carpetgas.cli", "carpetgas.oracle"):
            found[parts[2]] = int(parts[1]) * 1e-6
    return {"import.cli_s": found.get("carpetgas.cli", 0.0),
            "import.oracle_s": found.get("carpetgas.oracle", 0.0)}


def openblas_info() -> tuple[str, int | None]:
    """OpenBLAS version string and live thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), int(get_threads())
    return "unknown", None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas, threads = openblas_info()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas, "blas_threads": threads,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


def slowest_pass(recs) -> dict[str, float]:
    """Wall and phase times of a pass with every timed call at its slowest.

    The seeded inputs are drawn once per run, so every pass makes the same
    calls in the same order and call k of one pass is call k of the next.
    Each call is taken at the slowest of its timings in the run; the time
    between calls (checks, reading artifacts) at the slowest pass's.  On a
    virtual machine whose cores are shared with other tenants, pure-Python
    code switches between a fast speed and one 1.6x slower every few
    seconds.  The slow speed shows in nearly every 30 s window and the fast
    one does not, so the slowest timings repeat from run to run where
    medians and minima do not (measurements in README).
    """
    slowest = [max(times) for times in zip(*([t for _, t in r.ops] for r in recs))]
    out = {"wall": sum(slowest) + max(r.wall - sum(t for _, t in r.ops) for r in recs)}
    for (phase, _), t in zip(recs[0].ops, slowest):
        out[phase] = out.get(phase, 0.0) + t
    return out


def run(args) -> dict:
    import numpy as np

    import spans
    import workloads

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.WORKLOADS[args.workload]()

    setup = []

    def set_up() -> float:
        """One set-up (fresh import plus input load); returns the time it took."""
        t0 = perf_counter()
        seconds, _ = fresh_import()
        t1 = perf_counter()
        workload.load_inputs()
        t2 = perf_counter()
        setup.append(seconds + t2 - t1)
        return t2 - t0

    set_up()
    workload.prepare(np.random.default_rng(args.seed))
    workload.warm_up(workloads.PassRecord(workloads.fresh_dir(work / "warm-up")))

    tracer = spans.Tracer()
    records = []

    def one_pass(traced: bool):
        rec = workloads.PassRecord(workloads.fresh_dir(work / f"pass{len(records)}"))
        if traced:
            tracer.install()
        try:
            if traced:
                # the traced pass also reloads the inputs, so load time shows per layer
                rec.call("load", "load_inputs", workload.load_inputs)
            t0 = perf_counter()
            try:
                workload.run_pass(rec)
            except Exception as exc:  # e.g. a changed output format; counted, run goes on
                rec.attempted += 1
                rec.failed += 1
                rec.messages.append(f"pass aborted: {type(exc).__name__}: {exc}")
            rec.wall = perf_counter() - t0
        finally:
            tracer.uninstall()
        rec.artifact_bytes = workloads.artifact_bytes(rec.out_dir)
        workload.probes(rec)
        shutil.rmtree(rec.out_dir, ignore_errors=True)
        records.append((traced, rec))
        return rec

    # untraced passes until the next one would end past --seconds; at least
    # two (one when a traced pass follows).  The other set-ups run between
    # the first passes and at the end, so the set-up median spans the run
    # like the passes do; the time they take does not count against --seconds.
    deadline = perf_counter() + args.seconds
    walls = []
    while True:
        walls.append(one_pass(False).wall)
        if len(setup) < IMPORT_REPEATS - 1:
            deadline += set_up()
        if len(walls) >= 2 - args.trace and perf_counter() + statistics.median(walls) > deadline:
            break
    while len(setup) < IMPORT_REPEATS:
        set_up()
    if args.trace:
        one_pass(True)

    plain = [rec for traced, rec in records if not traced]
    all_recs = [rec for _, rec in records]
    attempted = sum(r.attempted for r in all_recs)
    failed = sum(r.failed for r in all_recs)
    known = sum(r.known_failures for r in all_recs)

    slow = slowest_pass(plain)
    figures = {
        "setup_s": statistics.median(setup),
        "wall_s": slow["wall"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spectrum_s": slow.get("spectrum", 0.0),
        "observables_s": slow.get("observables", 0.0),
        "zeta_evals_per_s": (sum(r.zeta_evals for r in plain)
                             / max(sum(r.zeta_eval_s for r in plain), 1e-12)),
        "error_rate": (failed + known) / max(attempted, 1),
    }
    if args.trace:
        traced_rec = next(rec for traced, rec in records if traced)
        layer = spans.layer_metrics(tracer.spans)
        layer.update(import_breakdown())
        layer.update({
            "eigensolve.max_dev": traced_rec.max_dev,
            "cli.artifact_bytes": traced_rec.artifact_bytes,
            "tracing.overhead_ratio": traced_rec.wall / statistics.median(walls) - 1.0,
            "error_rate": figures["error_rate"],
            "probes.known_failures": known,
        })
        figures.update(layer)
        work.mkdir(parents=True, exist_ok=True)
        with open(work / "spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    chosen = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(figures[name]), "unit": unit}
                    for name, unit in chosen.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(records), "pass_wall_s": [r.wall for r in all_recs],
        "known_failures": known, "failures": [m for r in all_recs for m in r.messages],
        "environment": environment(args.seed),
        "figures": {name: figures[name] for name in {**END_TO_END, **STAGES, **chosen}},
        "result": result,
    }
    work.mkdir(parents=True, exist_ok=True)
    with open(work / "result.json", "w") as fh:
        json.dump(report, fh, indent=1)

    env = report["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} passes {len(records)}"
          f" pass_wall_s {' '.join(f'{w:.3f}' for w in report['pass_wall_s'])}")
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    units = {**END_TO_END, **STAGES, **chosen}
    for name in units:
        print(f"metric {name} {figures[name]:.6g} {units[name]}")
    for message in report["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "carpetgas" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'carpetgas'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ.pop("CARPETGAS_CACHE", None)
    sys.path.insert(0, str(SRC))

    import warnings
    warnings.simplefilter("ignore")  # regime and accuracy notes from the model paths

    start = time.time()
    result = run(args)
    print(f"elapsed_s {time.time() - start:.1f}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
