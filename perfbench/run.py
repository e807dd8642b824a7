"""Whole-stack benchmark of the GenClus reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload weather_http --seed 0 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

* ``weather_http`` -- read-only HTTP traffic: ``python -m repro.serving
  serve`` in its own process, a closed loop over two keep-alive
  connections from this one.
* ``dblp_train`` -- batch analytics on DBLP four-area ACP: cold
  ``GenClus.fit``, ``InferenceEngine.extend`` of 50 held-out papers,
  ``promote()``, in process.

The traced run of each also probes the serving write path (``extend``,
``add_links``, ``evict`` on the single engine and over the process
transport) on its own model.

Each run checks its answers before timing (HTTP and process-transport
rows bit-identical to the in-process single engine, fit NMI equal to
the recorded value) and exits nonzero, printing no numbers, when a
check fails.  The amount of work is fixed by ``--seconds`` (sized so a
2-CPU host spends about that long timing); it is never a deadline.

The gated timings are CPU times.  ``cpu_ms_per_op`` is the CPU
milliseconds the program spends per op -- per HTTP request, summed
over the gateway and its shard worker; per train cycle, this process.
``setup_s`` is the median CPU time of a set-up, summed over every
process taking part.  The kernel counts both on the scheduler's task
clock, which leaves out time stolen by the hypervisor or spent waiting
for a CPU.  On a 2-vCPU VM whose steal share moved between 0.3% and
18% from run to run, the quartile spread of ten runs' HTTP p50 latency
reached 0.56 of its median and that of CPU per request 0.19, so
wall-clock latency and throughput are printed for reading but not
gated.

``--seed`` draws the traffic and held-out inputs (see inputs.py); the
default is 0.  Seed 20261017 was not used while the benchmark was tuned
and passes every correctness gate on both workloads.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` prints the per-layer metrics, the layer ladder and the
tracing overhead.  ``dblp_train`` alternates cycles with and without
``Observability(trace=True)``; the serve command has no tracing
switch, so ``weather_http`` takes the overhead from the single engine
with tracing on and off.  Every layer is probed on the workload's own
model; the layers the workload's traffic exercises report that
traffic.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("weather_http", "dblp_train")


def _pin_threads() -> None:
    # before numpy loads, in this process and (through the environment)
    # in every process it starts
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[name] = "1"


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_report(report, spec, env) -> dict:
    trace = bool(report.trace)
    declared = spec["per_layer" if trace else "end_to_end"]
    values = report.layers if trace else report.e2e
    unknown = sorted(set(values) - {m["name"] for m in declared})
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    print(f"# perfbench {report.workload} seed={report.seed} trace={int(trace)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("layout: " + " ".join(f"{k}={v}" for k, v in report.layout.items()))
    print("ops (ok_ratio counts every failed op; errors are ops that did not complete):")
    for line in report.ops.lines():
        print(line)
    for note in report.notes:
        print(f"note: {note}")
    metrics = {}
    print("per-layer metrics:" if trace else "end-to-end metrics:")
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name not in values:
            raise RuntimeError(f"{report.workload} did not measure {name}")
        value, samples = values[name]
        print(f"  {name:<34} {value:>14.6g} {unit:<8} n={samples}")
        metrics[name] = {"value": value, "unit": unit}
    if report.extra:
        print("details:")
        for name, (value, unit, samples) in report.extra.items():
            print(f"  {name:<34} {value:>14.6g} {unit:<8} n={samples}")
    return metrics


def main(argv=None) -> int:
    args = _arguments(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print("error: run from a checkout holding src/repro and BENCHMARK.json",
              file=sys.stderr)
        return 2
    _pin_threads()
    # a terminated run still stops the processes it started (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())

    import harness

    module = __import__(args.workload)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    report = harness.Report(args.workload, args.seed, bool(args.trace))
    try:
        module.run(report, args.seed, args.seconds, work)
        env = harness.environment(args.seed)
        metrics = _print_report(report, spec, env)
    except harness.GateFailure as exc:
        print(f"error: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": True,
        "attempted": report.ops.attempted,
        "failed": report.ops.errors,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
