"""Shared plumbing: the run report, statistics, process control, CPU time, RSS,
metric scraping and the environment stamp.

Nothing here imports the library under test at module load; the
workload modules do, after ``run.py`` has pinned BLAS threads and put
``src/`` on the import path.
"""

from __future__ import annotations

import hashlib
import os
import platform
import re
import resource
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class GateFailure(Exception):
    """An answer differed from its reference; the run reports nothing."""


def gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def sliced_rate(ends, items, start: float, stop: float, slices: int = 10) -> float:
    """Median over equal time slices of the timed phase of the items
    completed per second.  ``ends`` are completion times; an op counts
    in the slice it completed in.  The median keeps a burst of host
    contention in one slice out of the run's figure."""
    edges = np.linspace(start, stop, slices + 1)
    which = np.clip(np.searchsorted(edges, ends, side="right") - 1, 0, slices - 1)
    done = np.bincount(which, weights=np.asarray(items, dtype=np.float64), minlength=slices)
    return median(done / ((stop - start) / slices))


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
class OpCounts:
    """Attempted / succeeded / failed per op kind.  An op fails when it
    did not do what was asked: it raised, answered non-200 or with
    degraded rows, or it is a promote that rolled back.  ``errors`` are
    the failed ops that did not complete at all -- every failure except
    a rollback, which completes its transaction and leaves the served
    model verifiably unchanged."""

    def __init__(self) -> None:
        self.kinds: dict[str, list[int]] = {}

    def record(self, kind: str, ok: bool = True, error: bool = False):
        row = self.kinds.setdefault(kind, [0, 0, 0, 0])
        row[0] += 1
        row[1] += bool(ok)
        row[2] += bool(not ok)
        row[3] += bool(error)

    @property
    def attempted(self) -> int:
        return sum(row[0] for row in self.kinds.values())

    @property
    def succeeded(self) -> int:
        return sum(row[1] for row in self.kinds.values())

    @property
    def errors(self) -> int:
        return sum(row[3] for row in self.kinds.values())

    def ok_ratio(self) -> float:
        return self.succeeded / self.attempted

    def lines(self) -> list[str]:
        out = [f"  {'kind':<10} {'attempted':>9} {'succeeded':>9} "
               f"{'failed':>6} {'errors':>6}"]
        for kind, (att, ok, failed, err) in sorted(self.kinds.items()):
            out.append(f"  {kind:<10} {att:>9} {ok:>9} {failed:>6} {err:>6}")
        return out


class Report:
    """Everything one run prints.  ``e2e`` and ``layers`` map a metric
    name to ``(value, sample_count)``; units come from BENCHMARK.json."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.e2e: dict[str, tuple[float, int]] = {}
        self.layers: dict[str, tuple[float, int]] = {}
        self.extra: dict[str, tuple[float, str, int]] = {}
        self.ops = OpCounts()
        self.layout: dict[str, object] = {}
        self.notes: list[str] = []

    def metric(self, name: str, value: float, samples: int = 1) -> None:
        self.e2e[name] = (float(value), int(samples))

    def layer(self, name: str, value: float, samples: int = 1) -> None:
        self.layers[name] = (float(value), int(samples))

    def detail(self, name: str, value: float, unit: str, samples: int):
        """A number printed for reading only (not in the JSON line)."""
        self.extra[name] = (float(value), unit, int(samples))

    def latencies(self, prefix: str, seconds: list[float]) -> None:
        """p50/p90/p99 of one op kind, printed with the sample count."""
        if not seconds:
            return
        ms = np.asarray(seconds) * 1e3
        for q in (50, 90, 99) if self.trace else (50, 90):
            self.detail(f"{prefix}_p{q}_ms", percentile(ms, q), "ms", len(ms))


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------
def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def environment(seed: int) -> dict[str, object]:
    import scipy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_digest": _src_digest(),
        "seed": seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ----------------------------------------------------------------------
# processes and memory
# ----------------------------------------------------------------------
def child_env(work: Path) -> dict[str, str]:
    # run.py has already pinned BLAS threads in os.environ
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    return env


def _status_field(pid: int, field: str) -> int | None:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    match = re.search(rf"^{field}:\s+(\d+)", text, re.MULTILINE)
    return int(match.group(1)) if match else None


def children_of(pid: int) -> list[int]:
    found: list[int] = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            found += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            pass
    return found


def peak_rss_mb(pids) -> float:
    """Peak resident memory summed over this process and ``pids``
    (each process's own high-water mark, VmHWM)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        total_kb += _status_field(pid, "VmHWM") or 0
    return total_kb / 1024.0


def cpu_seconds(pids) -> float:
    """CPU time (user + system, all threads) of the live processes
    ``pids``.  The kernel derives it from the scheduler's task clock,
    which leaves out time a process waits for a CPU -- including time
    the hypervisor steals from the VM -- so it follows the work done,
    not how busy the host is."""
    total = 0.0
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # utime and stime are fields 14 and 15 of proc(5); fields[0] is field 3
        total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def thread_count(pid: int) -> int:
    return _status_field(pid, "Threads") or 0


def read_line(process: subprocess.Popen, timeout: float) -> str:
    """The next stdout line of ``process``, or an error at the deadline."""
    selector = selectors.DefaultSelector()
    selector.register(process.stdout, selectors.EVENT_READ)
    try:
        if not selector.select(timeout):
            raise RuntimeError(f"no output within {timeout}s")
        return process.stdout.readline()
    finally:
        selector.close()


def serve(bundle: Path, work: Path):
    """``python -m repro.serving serve`` on ``bundle`` (one shard worker
    process, memory-mapped); returns ``(process, host, port)`` once READY."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serving", "serve", str(bundle),
         "--shards", "1", "--mmap", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=open(work / "serve.log", "ab"),
        env=child_env(work),
        text=True,
    )
    try:
        line = read_line(process, 120.0)
        gate(line.startswith("READY http://"), f"serve did not get ready: {line!r}")
    except BaseException:
        stop(process)
        raise
    host, port = line.split("//", 1)[1].strip().rsplit(":", 1)
    return process, host, int(port)


def stop(process: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM (the serve command drains), then SIGKILL, then reap."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


# ----------------------------------------------------------------------
# metric scraping
# ----------------------------------------------------------------------
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_prometheus(text: str) -> dict[str, float]:
    """``{"name{labels}": value}`` for every sample line."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if match:
            samples[match.group(1) + (match.group(2) or "")] = float(
                match.group(3)
            )
    return samples


def flatten_snapshot(snapshot: dict) -> dict[str, float]:
    """A ``metrics_snapshot()`` in the same flat form (label-free totals
    plus ``_sum`` / ``_count`` for histograms)."""
    flat: dict[str, float] = {}
    for name, family in snapshot.get("metrics", {}).items():
        for series in family["series"]:
            labels = ",".join(
                f'{key}="{value}"' for key, value in sorted(series["labels"].items())
            )
            key = name + (f"{{{labels}}}" if labels else "")
            if family["kind"] == "histogram":
                flat[f"{name}_sum" + key[len(name):]] = series["sum"]
                flat[f"{name}_count" + key[len(name):]] = series["count"]
            else:
                flat[key] = series["value"]
    return flat


def total(flat: dict[str, float], name: str) -> float:
    """Sum of one family over all its label sets."""
    return sum(
        value for key, value in flat.items()
        if key == name or key.startswith(name + "{")
    )


def delta(after: dict[str, float], before: dict[str, float], name: str):
    return total(after, name) - total(before, name)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
