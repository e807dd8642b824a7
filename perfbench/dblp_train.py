"""dblp_train: the batch analytics user of the paper's section 5.1.

DBLP four-area ACP (4000 authors, 4000 training papers, titles on
papers only), all in this process with the library's default config
apart from K=4 and a fixed seed.  Each cycle builds the network from
the generated corpus (its set-up, timed apart), runs one cold
``GenClus.fit``, builds an ``InferenceEngine`` from the result,
``extend``s 50 held-out papers and calls ``promote()``.  The fit is
deterministic, so every cycle starts from the same fitted result and a
promote that commits or rolls back cannot change the next cycle's work.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import inputs
from harness import gate, median, peak_rss_mb, percentile, timed
from layers import (
    PROBE_ROUNDS,
    artifact_layers,
    find_span,
    report_fit,
    same_rows,
    stack_probes,
)
from repro import GenClus, GenClusConfig
from repro.datagen.dblp import TITLE_ATTR
from repro.eval.nmi import nmi
from repro.exceptions import ServingError
from repro.obs import Observability
from repro.serving import InferenceEngine

CONFIG = GenClusConfig(n_clusters=4, seed=0)
EXPECTED_NMI = 0.4458541649243316
HELD_OUT = 50
# cycles per second of --seconds on a 2-CPU host; a fixed count
CYCLES_PER_SECOND = 1 / 1.6
# 200-paper layer-ladder batches (one request each, and 20 x 10 queries)
LADDER_BATCHES = 6
SPLIT_BATCHES = 4


def _cycle(data, held, obs=None):
    """build (set-up) -> fit -> engine -> extend -> promote; returns the
    timings and the objects the checks need."""
    # the last cycle's promote left garbage; collect it outside the timed
    # build so a collector pass does not land in one build but not another
    gc.collect()
    build_cpu = time.process_time()
    build_s, network = timed(inputs.build_dblp_network, data)
    build_cpu = time.process_time() - build_cpu
    start, cpu_start = time.perf_counter(), time.process_time()
    fit_s, result = timed(GenClus(CONFIG).fit, network, [TITLE_ATTR], obs=obs)
    engine = InferenceEngine.from_result(result, obs=obs)
    extend_s, _ = timed(engine.extend, held)
    promote_start = time.perf_counter()
    try:
        engine.promote(CONFIG)
        committed = True
    except ServingError:
        committed = False
    now = time.perf_counter()
    times = dict(build=build_s, build_cpu=build_cpu, cycle=now - start,
                 cpu=time.process_time() - cpu_start, fit=fit_s, extend=extend_s,
                 promote=now - promote_start)
    return times, result, committed


def _cycles(report, data, held, reference, committed_ref, count, obs=None):
    rows = []
    for _ in range(count):
        times, result, committed = _cycle(data, held, obs)
        gate(np.array_equal(result.theta, reference.theta),
             "a cold fit differs from the reference fit")
        gate(committed == committed_ref, "promote outcome changed between cycles")
        report.ops.record("fit")
        report.ops.record("extend")
        report.ops.record("promote", ok=committed)
        rows.append(times)
    return rows


def run(report, seed: int, seconds: float, work) -> None:
    data = inputs.dblp_dataset()
    network = inputs.build_dblp_network(data)
    held = inputs.held_out_nodes(data, seed, HELD_OUT)

    # correctness gate: the reference fit's NMI, and a promote that rolls
    # back must leave the served model answering exactly as before
    reference = GenClus(CONFIG).fit(network, [TITLE_ATTR])
    score = nmi(inputs.dblp_truth(data, network), reference.hard_labels())
    gate(abs(score - EXPECTED_NMI) <= 1e-9,
         f"DBLP fit NMI {score!r} != recorded {EXPECTED_NMI!r}")
    engine = InferenceEngine.from_result(reference)
    engine.extend(held)
    probe = [inputs.paper_query(paper) for paper in data.pool[:20]]
    before = engine.score_many(probe)
    try:
        engine.promote(CONFIG)
        committed_ref = True
    except ServingError as exc:
        committed_ref = False
        report.notes.append(f"promote rolled back: {str(exc)[:120]}")
        gate(same_rows(engine.score_many(probe), before),
             "a rolled-back promote changed the served answers")

    count = max(2, int(round(CYCLES_PER_SECOND * seconds)))
    if report.trace:
        count = max(2, count // 2)
    start = time.perf_counter()
    rows = _cycles(report, data, held, reference, committed_ref, count)
    wall = time.perf_counter() - start
    cycle = [row["cycle"] for row in rows]
    nodes = len(network.node_ids) + HELD_OUT

    report.metric("setup_s", median([row["build_cpu"] for row in rows]), count)
    report.metric("cpu_ms_per_op", median([row["cpu"] for row in rows]) * 1e3, count)
    report.metric("fit_nmi", score)
    report.metric("ok_ratio", report.ops.ok_ratio(), report.ops.attempted)
    report.metric("peak_rss_mb", peak_rss_mb([]))
    report.detail("setup_wall_s", median([row["build"] for row in rows]), "s", count)
    report.detail("op_p50_ms", percentile(cycle, 50) * 1e3, "ms", count)
    report.detail("op_p90_ms", percentile(cycle, 90) * 1e3, "ms", count)
    report.detail("items_per_s", nodes * count / wall, "items/s", 1)
    report.detail("fit_s", median([row["fit"] for row in rows]), "s", count)
    report.detail("refit_s", median([row["promote"] for row in rows]), "s", count)
    report.latencies("write", [row["extend"] for row in rows])
    report.detail("promote_commit_ratio", float(committed_ref), "ratio", count)
    report.detail("timed_phase_s", wall, "s", 1)
    report.layout = {
        "processes": 1,
        "threads": 1,
        "connections": 0,
        "loop": "closed",
        "cycles": count,
        "held_out_papers": HELD_OUT,
        "nodes": len(network.node_ids),
    }
    if report.trace:
        _traced(report, seed, data, held, reference, committed_ref, count, work)


def _traced(report, seed, data, held, reference, committed_ref, count, work):
    """The layer probes on this workload's model, then cycles with
    tracing off and on in turn: the ratio of their medians is the
    tracing overhead, free of drift across the run."""
    bundle = work / "dblp"
    save_s, _ = timed(reference.save, bundle)
    stack_probes(
        report, result=reference, bundle=bundle, work=work,
        **inputs.dblp_ladder_batches(data, LADDER_BATCHES, SPLIT_BATCHES),
        to_engine=lambda query: query,
        write_rounds=inputs.dblp_rounds(data, seed, PROBE_ROUNDS, tag="w"),
        similar_nodes=[data.authors[i:i + 10] for i in range(0, 200, 10)],
        config=CONFIG,
    )
    artifact_layers(report, bundle, [save_s])

    obs = Observability(trace=True, max_traces=1000)
    plain, rows = [], []
    for _ in range(count):
        plain += _cycles(report, data, held, reference, committed_ref, 1)
        rows += _cycles(report, data, held, reference, committed_ref, 1, obs)
    cycle = [row["cycle"] for row in rows]
    report.layer("trace.overhead_share",
                 percentile(cycle, 50) / median([row["cycle"] for row in plain]) - 1.0, count)
    report.layer("tail.op_p90_ms", percentile(cycle, 90) * 1e3, count)
    report.layer("tail.op_p99_ms", percentile(cycle, 99) * 1e3, count)
    report.layer("tail.samples", count, count)
    roots = obs.tracer.traces()
    report_fit(report, "fit", [t for t in roots if t.name == "fit"])
    promotes = [t for t in roots if t.name == "promote"]
    report_fit(report, "refit", [find_span(t, "fit") for t in promotes])
    report.layer("promote.commit_ratio", float(committed_ref), len(promotes))
    report.layer("engine.extend_ms", median([row["extend"] for row in rows]) * 1e3, count)
    report.layer("hin.build_s", median([row["build"] for row in rows]), count)
