"""Cold-start benchmark: artifact-load -> first-query-answered.

The schema-v3 + mmap work trades eager whole-model deserialization for
lazily paged read-only maps, so the number that matters is end-to-end
*time to first answer* from a cold process -- not load time alone.
This harness measures exactly that, in a fresh subprocess per sample
(clean page cache state for the process, and an honest per-run
``ru_maxrss`` peak), for one schema-v3 bundle directory loaded two
ways:

* **eager v3** -- ``mmap=False``: every array read and checksummed up
  front (the "before" column);
* **mmap v3** -- served straight off ``np.load(..., mmap_mode="r")``
  maps (the "after" column);

each at singleton, 2-shard, and 4-shard cluster shapes (sharding under
mmap shares the mapped base pages across every shard instead of
copying them per shard).

Usage::

    PYTHONPATH=src python benchmarks/bench_cold_start.py \
        --scale weather_xl --json cold_start.json \
        [--update-trajectory BENCH_serving.json] [--quick] [--xxl]

``--update-trajectory`` merges a ``cold_start`` ``{before, after,
speedup}`` record into the named trajectory file (see
``BENCH_serving.json`` at the repo root and the ROADMAP "Performance"
section).  Older cold-start records in that file were measured
against a single-file ``.npz`` layout that no longer exists; they are
left as recorded.
"""

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCALES = {
    "weather_mid": dict(
        n_temperature=400,
        n_precipitation=200,
        k_neighbors=5,
        n_observations=5,
        seed=0,
    ),
    "weather_xl": dict(
        n_temperature=6400,
        n_precipitation=3200,
        k_neighbors=10,
        n_observations=10,
        seed=0,
    ),
    # opt-in (--xxl): ~100k nodes, generation alone takes tens of
    # seconds and the fit minutes
    "weather_xxl": dict(
        n_temperature=65536,
        n_precipitation=32768,
        k_neighbors=10,
        n_observations=10,
        seed=0,
    ),
}

SHARD_COUNTS = (1, 2, 4)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# ----------------------------------------------------------------------
# child mode: one cold start, measured honestly
# ----------------------------------------------------------------------
def _reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS watermark for this process.

    On Linux ``ru_maxrss``/``VmHWM`` survive ``fork``+``exec``, so a
    child spawned by a heavyweight parent inherits the parent's peak.
    Writing ``5`` to ``/proc/self/clear_refs`` resets the watermark;
    best-effort elsewhere."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    import resource

    return round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
    )


def measure_one(path: str, mmap: bool, shards: int) -> dict:
    """Load the artifact, build the engine, answer one query.

    Runs in a fresh interpreter so import cost is excluded (imports
    happen before the clock starts) but *all* deserialization,
    checksum, and hydration cost is included -- and the reported peak
    RSS is this cold start's own (watermark reset after imports), not
    a warm parent's.
    """
    import numpy as np  # noqa: F401  (pre-warm the import)

    from repro.datagen.weather import (
        RELATION_TT,
        TEMPERATURE_ATTR,
        TEMPERATURE_TYPE,
    )
    from repro.serving import InferenceEngine
    from repro.serving.router import ShardedEngine

    links = ((RELATION_TT, "T0", 1.0), (RELATION_TT, "T1", 1.0))
    numeric = {TEMPERATURE_ATTR: [1.0, 1.1, 0.9]}

    _reset_peak_rss()
    started = time.perf_counter()
    if shards == 1:
        engine = InferenceEngine.load(path, mmap=mmap, cache_size=0)
    else:
        engine = ShardedEngine.load(
            path, n_shards=shards, mmap=mmap, cache_size=0
        )
    loaded = time.perf_counter()
    membership = engine.query(
        TEMPERATURE_TYPE, links=links, numeric=numeric
    )
    answered = time.perf_counter()
    assert membership.shape[0] >= 2
    return {
        "load_seconds": loaded - started,
        "first_query_seconds": answered - loaded,
        "total_seconds": answered - started,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _run_child(path: Path, mmap: bool, shards: int, repeats: int) -> dict:
    """Best-of-N cold starts, each in its own interpreter."""
    best = None
    for _ in range(repeats):
        proc = subprocess.run(
            [
                sys.executable,
                __file__,
                "--measure",
                str(path),
                "--shards",
                str(shards),
            ]
            + (["--mmap"] if mmap else []),
            capture_output=True,
            text=True,
            check=True,
        )
        sample = json.loads(proc.stdout)
        if best is None or sample["total_seconds"] < best["total_seconds"]:
            best = sample
    return best


# ----------------------------------------------------------------------
# parent mode: fit once, save one bundle, sweep the grid
# ----------------------------------------------------------------------
def fit_and_save(scale: str, workdir: Path) -> dict:
    from repro.core.config import GenClusConfig
    from repro.core.genclus import GenClus
    from repro.datagen.weather import WeatherConfig, generate_weather_network
    from repro.experiments.weather_common import WEATHER_ATTRIBUTES
    from repro.serving import ModelArtifact

    generated = generate_weather_network(WeatherConfig(**SCALES[scale]))
    config = GenClusConfig(
        n_clusters=4, outer_iterations=2, seed=0, n_init=1
    )
    result = GenClus(config).fit(
        generated.network, attributes=WEATHER_ATTRIBUTES
    )
    artifact = ModelArtifact.from_result(result)
    path = artifact.save(workdir / "model_v3")
    return {
        "num_nodes": artifact.num_nodes,
        "path": path,
        "artifact_bytes": _dir_bytes(path),
    }


def run_harness(scale: str, repeats: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        print(f"fitting {scale} ...", file=sys.stderr)
        fitted = fit_and_save(scale, workdir)
        report: dict = {
            "scale": scale,
            "num_nodes": fitted["num_nodes"],
            "artifact_bytes": fitted["artifact_bytes"],
            "variants": {},
        }
        for variant, mmap in (("eager_v3", False), ("mmap_v3", True)):
            path = fitted["path"]
            entry = {}
            for shards in SHARD_COUNTS:
                print(
                    f"  {variant} shards={shards} ...", file=sys.stderr
                )
                entry[f"shards_{shards}"] = _run_child(
                    path, mmap, shards, repeats
                )
            report["variants"][variant] = entry
        report["speedup"] = {
            key: round(
                report["variants"]["eager_v3"][key]["total_seconds"]
                / report["variants"]["mmap_v3"][key]["total_seconds"],
                2,
            )
            for key in report["variants"]["eager_v3"]
        }
        return report


def update_trajectory(trajectory_path: Path, report: dict) -> None:
    """Merge the cold-start {before, after, speedup} record: eager
    against mapped loads of the same bundle."""
    payload = {}
    if trajectory_path.exists():
        payload = json.loads(trajectory_path.read_text())
    payload["cold_start"] = {
        "scale": report["scale"],
        "num_nodes": report["num_nodes"],
        "artifact_bytes": report["artifact_bytes"],
        "before": report["variants"]["eager_v3"],
        "after": report["variants"]["mmap_v3"],
        "speedup": report["speedup"],
    }
    trajectory_path.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold-start (load -> first query) benchmark."
    )
    parser.add_argument(
        "--measure",
        metavar="ARTIFACT",
        help="internal: measure ONE cold start and print JSON",
    )
    parser.add_argument("--mmap", action="store_true")
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument(
        "--scale",
        default="weather_xl",
        choices=sorted(SCALES),
        help="problem size to fit and serve (default: weather_xl)",
    )
    parser.add_argument(
        "--xxl",
        action="store_true",
        help="shorthand for --scale weather_xxl (slow; opt-in)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="cold starts per grid cell (best-of; default 3)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="single repeat per cell"
    )
    parser.add_argument("--json", help="write the report here")
    parser.add_argument(
        "--update-trajectory",
        metavar="PATH",
        help="merge {before, after, speedup} into this trajectory file "
        "(e.g. BENCH_serving.json)",
    )
    args = parser.parse_args(argv)

    if args.measure:
        print(
            json.dumps(
                measure_one(args.measure, args.mmap, args.shards)
            )
        )
        return 0

    scale = "weather_xxl" if args.xxl else args.scale
    repeats = 1 if args.quick else args.repeats
    report = run_harness(scale, repeats)
    print(json.dumps(report, indent=2))
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    if args.update_trajectory:
        update_trajectory(Path(args.update_trajectory), report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
