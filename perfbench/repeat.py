"""One repeat of one workload, in a fresh interpreter.

    python3 -m perfbench.repeat --workload NAME --seed N --trace 0|1 \
        --t-spawn T --workdir DIR --out FILE [--setup-only] [--spans FILE]

run.py starts this module; it is not meant to be run by hand.  ``--t-spawn``
is the parent's ``time.monotonic()`` just before it started this process
(CLOCK_MONOTONIC is shared by all processes on the machine), so ``setup_s``
runs from interpreter start to the end of set-up: interpreter start-up, the
import of rothlab with numpy and scipy, and the workload's set-up.  A host
speed sampler (hostspeed.py) runs from before the import of rothlab until
the timed region ends; every time is recorded net of its probes and also
adjusted to the reference host speed.  The repeat writes one JSON record to
``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback


def execute(workload, seed: int, workdir: str, trace: bool, setup_only: bool = False,
            t_spawn: float | None = None, sampler=None) -> tuple:
    """Set up, run and check one repeat in this process; returns (record, spans).

    ``sampler`` is a started hostspeed.Sampler; without one, execute starts
    its own.  Either way it is stopped when the timed region ends.
    """
    from . import hostspeed, layers, tracing, workloads

    if trace and setup_only:
        raise ValueError("a set-up-only repeat is never traced")
    if sampler is None:
        sampler = hostspeed.Sampler()
        sampler.start()
    try:
        state = workload.setup(seed, workdir)
        record = {"workload": workload.name, "seed": seed, "seeded": workload.seeded,
                  "trace": trace, "properties": workloads.input_properties(workload.name, state)}
        setup_end = time.perf_counter()
        setup_wall = time.monotonic() - t_spawn if t_spawn is not None else None
        sampler.sample()
        if setup_wall is not None:
            # the interval from spawn to the start of the sampler has no probes
            net, adj = sampler.adjust(setup_end - setup_wall, setup_end)
            record["setup_s"], record["setup_adj_s"] = net, adj
        if setup_only:
            return record, []
        forked = None
        if not workload.probe_inside:  # the pool workers take the probes
            sampler.stop()
            forked = os.path.join(workdir, "probes")
            os.makedirs(forked)
        tracer = tracing.Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        outputs, error = None, None
        try:
            with hostspeed.forked_sampling(forked) if forked else contextlib.nullcontext():
                outputs = workload.run(state)
        except Exception:  # a workload that raises fails every operation it had to do
            error = traceback.format_exc()
        finally:
            end = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
    finally:
        sampler.stop()
    sampler.sample()
    processes = hostspeed.read_forked(forked) if forked else []

    def measure(a, b):  # the workers' probes if any ran, else this process's
        return hostspeed.adjust_forked(a, b, processes) or sampler.adjust(a, b)

    record["wall_s"], record["wall_adj_s"] = measure(start, end)
    record["probes"] = len(sampler.samples) + sum(len(p) for p in processes)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # pool workers count once each at the size of the largest one reaped
    record["peak_rss_mb"] = (self_kb + state.get("jobs", 1) * child_kb) / 1024.0
    if error is None:
        attempted, failed, details, facts = workload.check(state, outputs)
    else:
        attempted, failed, details, facts = workload.expected_ops, workload.expected_ops, [error], {}
    # one request is one report (analyze) or the whole timed region
    stamps = facts.pop("request_stamps", None) or [(start, end)]
    timed = [measure(a, b) for a, b in stamps]
    record["latencies_s"] = [net for net, _ in timed]
    record["latencies_adj_s"] = [adj for _, adj in timed]
    record.update(attempted=attempted, failed=failed, check_details=details, facts=facts)
    spans = []
    if tracer is not None:
        spans = tracer.spans
        agg = tracing.aggregate(spans)
        wall = end - start  # spans include the probes, so the layers use the raw wall
        record["layers"] = layers.layer_metrics(spans, agg, wall, facts)
        record["accounting"] = layers.accounting(agg, wall)
        record["properties"].update(layers.property_report(spans))
    return record, spans


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    from .hostspeed import Sampler

    sampler = Sampler()
    sampler.start()
    import rothlab
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(rothlab.__file__).startswith(src + os.sep):
        print(f"rothlab imported from {rothlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    from .workloads import WORKLOADS

    record, spans = execute(WORKLOADS[args.workload], args.seed, args.workdir, bool(args.trace),
                            setup_only=args.setup_only, t_spawn=args.t_spawn, sampler=sampler)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    if args.spans and spans:
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns", "attrs"],
                       "spans": spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
