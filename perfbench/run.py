"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,census,census_cached_jobs2,analyze}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; the program is imported from ``src/``.
Every repeat runs in a fresh interpreter (perfbench/repeat.py) and checks its
outputs.  Repeats start while less than ``--seconds`` of measuring time has
passed, so a run measures at least that long and at least one whole repeat.
A few set-up-only repeats come first; they warm the file cache and add
samples of ``setup_s``.

With ``--trace 0`` the run reports the end-to-end metrics, as medians over
the repeats; time metrics are rescaled by a host speed sampler that runs
inside every repeat (hostspeed.py), and the raw values are printed too.  With
``--trace 1`` it makes untraced repeats, then traced ones for the same time,
and reports the per-layer metrics (medians over the traced repeats) and the
tracing overhead.  Each metric is printed as
``name value unit``; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(every sample, the checks, the environment and the workload properties) is
written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import layers  # noqa: E402

WORKLOADS = ("sweep", "census", "census_cached_jobs2", "analyze")
# (name, unit); BENCHMARK.json lists the same metrics with their bounds.  The
# time metrics are adjusted to the reference host speed (see hostspeed.py).
END_TO_END = [("wall_adj_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("latency_p50_adj_ms", "ms"), ("latency_p90_adj_ms", "ms")]
SETUP_ONLY_REPEATS = 2
TIME_LIMIT_S = 170.0
STATE_DIR = os.path.join(ROOT, ".perfbench")


class RepeatFailed(RuntimeError):
    pass


def read_loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy older than 1.25 has no mode argument
        deps = {}
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "processes": "one repeat process at a time, plus its pool workers "
                     "(2 in census_cached_jobs2)",
    }


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile (no interpolation)."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)]


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def repeat(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        tag = f"{self.workload}-{self.count}"
        workdir = os.path.join(STATE_DIR, "work", tag)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        out = os.path.join(workdir, "record.json")
        spans = os.path.join(STATE_DIR, "results", f"spans-{self.workload}-seed{self.seed}.json")
        cmd = [sys.executable, "-m", "perfbench.repeat", "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(int(trace)), "--workdir", workdir,
               "--out", out]
        if trace:
            cmd += ["--spans", spans]
        if setup_only:
            cmd.append("--setup-only")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RepeatFailed("time limit reached before the repeat started")
        t_spawn = time.monotonic()
        # a session of its own, so a timeout also ends the repeat's pool workers
        with subprocess.Popen(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT, env=self.env,
                              stdout=sys.stderr, start_new_session=True) as proc:
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise RepeatFailed(f"repeat {tag} exceeded the time limit") from None
        if code != 0:
            raise RepeatFailed(f"repeat {tag} exited with code {code}")
        with open(out) as fh:
            record = json.load(fh)
        shutil.rmtree(workdir, ignore_errors=True)
        return record

    def timed(self, seconds: float, trace: bool = False) -> list:
        records = []
        start = time.monotonic()
        while not records or time.monotonic() - start < seconds:
            records.append(self.repeat(trace=trace))
        return records


def end_to_end(records: list, setup_records: list) -> tuple:
    """(adjusted metrics, raw values, latency sample count).

    A latency sample is one report in analyze and one whole timed region
    (the sweep pair or one census) in the other workloads.
    """
    lat = [v for r in records for v in r["latencies_s"]]
    lat_adj = [v for r in records for v in r["latencies_adj_s"]]
    raw = {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in setup_records),
        "latency_p50_ms": 1e3 * percentile(lat, 50),
        "latency_p90_ms": 1e3 * percentile(lat, 90),
        "host_speed_factor": statistics.median(r["wall_adj_s"] / r["wall_s"] for r in records),
    }
    values = {
        "wall_adj_s": statistics.median(r["wall_adj_s"] for r in records),
        "setup_s": statistics.median(r["setup_adj_s"] for r in setup_records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "latency_p50_adj_ms": 1e3 * percentile(lat_adj, 50),
        "latency_p90_adj_ms": 1e3 * percentile(lat_adj, 90),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, raw, len(lat)


def per_layer(traced: list, untraced: list) -> dict:
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name, _, _ in layers.PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (statistics.median(r["wall_adj_s"] for r in traced)
                                  - statistics.median(r["wall_adj_s"] for r in untraced))
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rothlab", "__init__.py")):
        print(f"error: no rothlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(STATE_DIR, "results"), exist_ok=True)
    started = time.monotonic()
    load_start = read_loadavg()
    runner = Runner(args.workload, args.seed, started + TIME_LIMIT_S)
    try:
        setup_records = [runner.repeat(setup_only=True)
                         for _ in range(SETUP_ONLY_REPEATS if not args.trace else 1)]
        untraced = runner.timed(args.seconds)
        traced = runner.timed(args.seconds, trace=True) if args.trace else []
    except RepeatFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_records += untraced

    checked = untraced + traced
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    e2e, raw, lat_samples = end_to_end(untraced, setup_records)
    metrics = per_layer(traced, untraced) if args.trace else e2e
    record = {
        "workload": args.workload, "seed": args.seed, "seed_used": checked[0]["seeded"],
        "seconds": args.seconds, "trace": args.trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "end_to_end": e2e, "raw": raw, "latency_samples": lat_samples,
        "per_layer": metrics if args.trace else None,
        "samples": {"wall_s": [r["wall_s"] for r in untraced],
                    "wall_adj_s": [r["wall_adj_s"] for r in untraced],
                    "traced_wall_adj_s": [r["wall_adj_s"] for r in traced],
                    "setup_s": [r["setup_s"] for r in setup_records],
                    "setup_adj_s": [r["setup_adj_s"] for r in setup_records],
                    "probes": [r["probes"] for r in untraced + traced],
                    "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]},
        "checks": {"details": [d for r in checked for d in r["check_details"]][:20],
                   "facts": checked[-1]["facts"]},
        "properties": (traced or untraced)[-1]["properties"],
        "accounting": traced[-1]["accounting"] if traced else None,
        "environment": dict(environment(), loadavg_start=load_start, loadavg_end=read_loadavg()),
        "run_s": time.monotonic() - started,
    }
    out = os.path.join(STATE_DIR, "results",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}"
          f"{'' if record['seed_used'] else ' (exhaustive: seed not used)'}"
          f"  repeats {len(untraced)} untraced, {len(traced)} traced")
    for name, m in e2e.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"  {'raw ' + name:34s} {value:.6g}")
    print(f"  {'error_rate':34s} {record['error_rate']:.6g} ({failed} failed of {attempted})")
    print(f"  latency samples {lat_samples}; setup samples {len(setup_records)}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for line in record["checks"]["details"]:
        print(f"  check failed: {line}")
    print(f"  full record: {os.path.relpath(out, ROOT)}")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
