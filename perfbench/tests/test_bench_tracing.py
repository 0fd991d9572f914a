"""Tracing wrappers, span aggregation, the analyze inputs and BENCHMARK.json."""

import json
import os
import sys

import rothlab
from rothlab import compose, path_graph

from perfbench import inputs, layers, repeat, tracing
from perfbench.workloads import Workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _bindings():
    return {(name, attr): obj for name, mod in sys.modules.items()
            if mod is not None and (name == "rothlab" or name.startswith("rothlab."))
            for attr, obj in vars(mod).items()}


def test_wrappers_record_spans_and_restore_originals():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = tracing.installed_wrappers()
        for name in ("rothlab.spectra.full_spectrum", "rothlab.analysis.full_spectrum",
                     "rothlab.full_spectrum", "rothlab.census.s_roth_oracle", "rothlab.cli.main"):
            assert name in wrapped
        assert "rothlab.cli.cmd_analyze" not in wrapped
        rothlab.analysis.s_roth_oracle(compose(6, path_graph(10)))
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[0]: s[2] for s in tracer.spans}
    oracle = next(s for s in tracer.spans if s[2] == "analysis.s_roth_oracle")
    assert oracle[1] == -1 and oracle[5]["reason"] == "SignedEigenvector"
    eig = next(s for s in tracer.spans if s[2] == "spectra.full_spectrum")
    assert names[eig[1]] == "spectra.smallest_eigenpair" and eig[5] == {"n": 16}


def _probe_workload():
    # reports every tracing wrapper visible while the timed region runs
    return Workload("probe", False, lambda seed, workdir: {},
                    lambda state: tracing.installed_wrappers(),
                    lambda state, seen: (1, int(bool(seen)), seen, {}), 1)


def test_untraced_repeat_installs_no_wrappers(tmp_path):
    record, spans = repeat.execute(_probe_workload(), 0, str(tmp_path), trace=False)
    assert record["failed"] == 0 and spans == [] and "layers" not in record


def test_traced_repeat_wraps_only_while_timed(tmp_path):
    record, _ = repeat.execute(_probe_workload(), 0, str(tmp_path), trace=True)
    assert record["failed"] == 1 and "rothlab.spectra.full_spectrum" in record["check_details"]
    assert tracing.installed_wrappers() == []
    assert set(record["layers"]) == {n for n, _, _ in layers.PER_LAYER} - {"trace.overhead_s"}


def test_aggregate_self_and_inclusive_time():
    ms = 1_000_000
    spans = [(0, -1, "a", 0, 10 * ms, None),
             (1, 0, "b", 1 * ms, 4 * ms, None),
             (2, 1, "a", 2 * ms, 3 * ms, None),  # recursion through b
             (3, -1, "c", 12 * ms, 13 * ms, None)]
    agg = tracing.aggregate(spans)
    assert agg["a"]["calls"] == 2
    assert abs(agg["a"]["s"] - 0.010) < 1e-12  # the nested call is inside the outer one
    assert abs(agg["a"]["self_s"] - (0.007 + 0.001)) < 1e-12
    assert abs(agg["b"]["self_s"] - 0.002) < 1e-12
    metrics = layers.layer_metrics(spans, agg, 0.015, {})
    assert abs(metrics["trace.unattributed_s"] - 0.004) < 1e-12


def test_analyze_batch_is_seeded(tmp_path):
    a = inputs.make_batch(5, str(tmp_path / "a"))
    b = inputs.make_batch(5, str(tmp_path / "b"))
    c = inputs.make_batch(6, str(tmp_path / "c"))
    assert [x["argv"][2:] for x in a] == [x["argv"][2:] for x in b]
    assert [x["argv"][2:] for x in a] != [x["argv"][2:] for x in c]
    assert len(a) == 128 and sum(x["exact"] for x in a) == 16
    for x in a:
        with open(tmp_path / "a" / x["file"]) as fa, open(tmp_path / "b" / x["file"]) as fb:
            assert fa.read() == fb.read()


def test_graph6_encoder_matches_rothlab():
    for n, edges in ((5, [(0, 1), (3, 4)]), (70, [(i, (i * 7 + 3) % 70) for i in range(69)])):
        edges = [(u, v) for u, v in edges if u != v]
        g = rothlab.parse_graph6(inputs.graph6(n, edges))
        assert g == rothlab.graphs.Graph.from_edges(n, edges)


def test_benchmark_json_matches_definitions():
    from perfbench import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.PER_LAYER


def test_sampler_takes_probes_out_and_scales_to_reference_speed():
    from perfbench import hostspeed

    ref = hostspeed.REFERENCE_S
    sampler = hostspeed.Sampler()
    # probes at 0 and 10 s (outside) and at 2 s (inside, 0.5 s on the wall)
    sampler.samples = [(0.0, 0.1, ref), (2.0, 0.5, 2 * ref), (10.0, 0.1, 2 * ref)]
    net, adj = sampler.adjust(1.0, 5.0)
    assert net == 3.5 and abs(adj - 3.5 * (1 + 0.5 + 0.5) / 3) < 1e-12
    assert sampler.adjust(11.0, 12.0) == (1.0, 0.5)  # only the probe before


def test_forked_processes_sample_into_files(tmp_path):
    import time

    from perfbench import hostspeed

    with hostspeed.forked_sampling(str(tmp_path)):
        pid = os.fork()
        if pid == 0:  # the child sleeps through a few timer periods
            time.sleep(4 * hostspeed.INTERVAL_S)
            os._exit(0)
    os.waitpid(pid, 0)
    processes = hostspeed.read_forked(str(tmp_path))
    assert len(processes) == 1 and len(processes[0]) >= 2
    ref = hostspeed.REFERENCE_S
    workers = [[(1.0, 0.2, ref), (9.0, 0.1, ref)], [(2.0, 0.4, 2 * ref)], [(8.0, 0.1, ref)]]
    net, adj = hostspeed.adjust_forked(0.5, 5.0, workers)
    assert abs(net - 4.2) < 1e-12 and abs(adj - 4.2 * 0.75) < 1e-12
    assert hostspeed.adjust_forked(10.0, 11.0, workers) is None


def test_untraced_repeat_records_net_and_adjusted_times(tmp_path):
    record, _ = repeat.execute(_probe_workload(), 0, str(tmp_path), trace=False, t_spawn=0.0)
    assert record["probes"] >= 2 and 0 < record["wall_adj_s"]
    assert record["latencies_s"] == [record["wall_s"]]
    assert record["latencies_adj_s"] == [record["wall_adj_s"]]


def test_end_to_end_uses_adjusted_times():
    from perfbench import run

    slow = {"wall_s": 4.0, "wall_adj_s": 2.0, "setup_s": 1.0, "setup_adj_s": 0.5,
            "peak_rss_mb": 50.0, "latencies_s": [4.0], "latencies_adj_s": [2.0]}
    fast = dict(slow, wall_s=2.0, wall_adj_s=2.1, setup_s=0.5, setup_adj_s=0.6,
                latencies_s=[2.0], latencies_adj_s=[2.1])
    metrics, raw, samples = run.end_to_end([slow, fast, slow], [slow, fast, fast])
    assert metrics["wall_adj_s"]["value"] == 2.0 and raw["wall_s"] == 4.0
    assert metrics["setup_s"]["value"] == 0.6 and raw["setup_s"] == 0.5 and samples == 3
    assert metrics["latency_p90_adj_ms"]["value"] == 2100.0 and raw["latency_p90_ms"] == 4000.0
