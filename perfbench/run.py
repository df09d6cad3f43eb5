"""Benchmark of graphrenorm: one workload per process, one JSON line out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The run measures set-up time
(several fresh processes, median), then runs rounds of the workload (see
``workloads.py``) until the next round would pass ``--seconds``, then
checks every output.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json when ``--trace 0`` and its
per-layer metrics when ``--trace 1``.  ``attempted`` and ``failed`` count
output checks; ``correct`` is false when an exact check fails or a
statistical one misses by more than 5 sigma.  A traced run alternates
untraced and traced rounds, so that the tracing overhead is measured in the
same process, and writes its spans to ``.bench_out/``.

Times are reported in normalized seconds: measured seconds scaled by a
reference probe timed alongside the work (see ``reference.py``), so that
the drift of a shared host's speed does not read as a change of the
program.  The measured seconds, probe times and per-round errors go to
stderr.  ``--workload all`` runs every workload, each in a fresh process.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _cap_blas_threads() -> None:
    """At most one BLAS thread per core; must run before numpy loads."""
    cores = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, cores))
        except ValueError:
            current = cores
        os.environ[var] = str(max(1, min(current, cores)))


def _import_package():
    src = ROOT / "src"
    if not (src / "graphrenorm" / "__init__.py").is_file():
        sys.exit(f"error: no graphrenorm sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import graphrenorm
    if Path(graphrenorm.__file__).resolve().parent != src / "graphrenorm":
        sys.exit(f"error: graphrenorm imported from {graphrenorm.__file__}, "
                 f"not from {src}")


def machine() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "loadavg_1m": os.getloadavg()[0]}


def measure_setup(args) -> tuple[float, float]:
    """Median wall time of fresh processes that import the package and
    build the workload's inputs, and the speed scale around them."""
    import reference
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    times, probes = [], [reference.probe()]
    for _ in range(SETUP_PROCESSES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        probes.append(reference.probe())
    return statistics.median(times), reference.scale([probes])


def run_rounds(workload, seconds: float, tracer):
    """Rounds until the next would end after ``seconds``.  With a tracer,
    odd rounds are traced; returns the closed Timers of the untraced and
    of the traced rounds."""
    from workloads import Timer
    plain, traced, elapsed = [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        use_tracer = tracer is not None and r % 2 == 1
        t0 = time.perf_counter()
        timer = Timer()
        if use_tracer:
            tracer.install()
        try:
            workload.round(r, timer)
        finally:
            if use_tracer:
                tracer.uninstall()
        timer.close()
        (traced if use_tracer else plain).append(timer)
        elapsed.append(time.perf_counter() - t0)
        r += 1
        if tracer is not None and not traced:
            continue
        if time.perf_counter() - start + statistics.median(elapsed) \
                > seconds:
            return plain, traced


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def normalized_median(timers) -> float:
    """Median measured round time, scaled by the speed probes of those
    rounds to nominal machine speed (see reference.py)."""
    import reference
    return statistics.median(t.wall for t in timers) \
        * reference.scale([t.probes for t in timers])


def end_to_end(workload, plain, setup_s, rss, checks) -> dict:
    wall = normalized_median(plain)
    if workload.errors:
        # Median over rounds, so that one unlucky batch does not set it.
        keys = workload.errors[0]
        rel_var = sum(statistics.median(e[k] ** 2 for e in workload.errors)
                      for k in keys)
    else:
        # No finite-variance estimate (exact results, or heavy tails):
        # an error term of 1 leaves the time.
        rel_var = 1.0
    return {"wall_s": wall, "setup_s": setup_s,
            "samples_per_s": workload.samples / wall,
            "stderr2_s": wall * rel_var, "peak_rss_mb": rss,
            "passed_frac": 1.0 - checks.failed / checks.attempted}


def per_layer(tracer, plain, traced, names) -> dict:
    """Per-layer numbers per traced round; times are scaled to nominal
    machine speed like the end-to-end ones, so they still add up."""
    import reference
    from tracer import MODULES
    n = len(traced)
    speed = reference.scale([t.probes for t in traced])
    self_times = {k: v * speed for k, v in tracer.self_times().items()}
    c = tracer.counters
    wall = statistics.fmean(t.wall for t in traced) * speed
    listed = {m[:-len(".self_s")] for m in names
              if m.endswith(".self_s") and ".other." not in m}
    out = {f"{span}.self_s": self_times.get(span, 0.0) / n
           for span in listed}
    for span, t in self_times.items():
        if span not in listed:
            key = f"{span.split('.')[0]}.other.self_s"
            out[key] = out.get(key, 0.0) + t / n
    for module in MODULES:
        out.setdefault(f"{module}.other.self_s", 0.0)
    for key in ("mc.sample_coordinates.points",
                "charts.ChartKernel.f.points",
                "charts.ChartKernel.v_edges.points",
                "bump.nu_values.calls", "renorm.pair_renormalized.calls",
                "homology.reduced_betti_numbers.calls",
                "charts.enumerate_charts.charts", "reports.bytes"):
        out[key] = c[key] / n

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0
    out["mc.integrand.nonfinite_frac"] = ratio("mc.integrand.nonfinite",
                                               "mc.integrand.values")
    out["mc.integrand.zero_frac"] = ratio("mc.integrand.zero",
                                          "mc.integrand.values")
    out["renorm.f_evals_per_sample"] = ratio("charts.ChartKernel.f.points",
                                             "mc.sample_coordinates.points")
    out["lattice.divergent_lattice.hit_frac"] = ratio(
        "lattice.divergent_lattice.elements",
        "lattice.divergent_lattice.scanned")
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(self_times.values()) / n
    out["trace.overhead_frac"] = \
        normalized_median(traced) / normalized_median(plain) - 1.0
    return out


def run_all(args, names) -> int:
    """Each workload in a fresh process; one line per workload, then every
    metric under "<workload>.<metric>" in the final line."""
    import json
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **result}))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in
                                 result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    _cap_blas_threads()
    _import_package()
    import json
    import workloads
    from tracer import Tracer

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"all, {', '.join(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        make(ROOT, args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({"machine": machine()}), file=sys.stderr)
    setup_s = None
    if not args.trace:
        measured, speed = measure_setup(args)
        setup_s = measured * speed
        print(json.dumps({"setup_measured_s": measured,
                          "setup_speed_scale": speed}), file=sys.stderr)
    workload = make(ROOT, args.seed)
    tracer = Tracer() if args.trace else None
    plain, traced = run_rounds(workload, args.seconds, tracer)
    rss = peak_rss_mb()
    print(json.dumps({"round_measured_s": [t.wall for t in plain],
                      "traced_round_measured_s": [t.wall for t in traced],
                      "probe_s": [p for t in plain + traced
                                  for _, p in t.probes],
                      "errors": workload.errors}), file=sys.stderr)

    checks = workloads.Checks()
    workload.check(checks)
    for miss in checks.misses:
        print(f"check missed: {miss}", file=sys.stderr)

    if args.trace:
        group = spec["per_layer"]
        values = per_layer(tracer, plain, traced, [m["name"] for m in group])
        tracer.write(ROOT / ".bench_out" /
                     f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        group = spec["end_to_end"]
        values = end_to_end(workload, plain, setup_s, rss, checks)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in group}
    print(json.dumps({"correct": checks.gross == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
