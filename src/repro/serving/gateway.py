"""The asyncio HTTP gateway: concurrency in, micro-batches out.

Serving a HIN model to many concurrent callers is a traffic-shaping
problem: the engine's cheapest unit of work is a *batch* (one blocked
``score_many`` fold-in, one blocked ``similar_many`` scan), so the
gateway's whole job is turning request concurrency into batch size.
One rule makes the batches: an item admitted while the engine is idle
flushes at once, and items admitted while a flush runs accumulate in
the :class:`MicroBatcher` until that flush finishes, which sends
everything pending as the next batch.  So a lone request pays no wait,
and under load the batch grows with the time one batch takes to
run -- no timer and no size knob.  A flush groups its batch -- all
score items into one cluster ``score_many``, similarity items by
``(k, metric, type)`` into ``similar_many`` calls -- and resolves each
request's futures.

Determinism: every engine call the gateway makes runs on a
**single-thread executor**, so concurrent HTTP load can never
interleave two engine operations (parallelism lives *inside* a batch,
in the router's per-shard scatter and the workers' kernels).  Batched
answers are bit-identical to unbatched ones by the engine's per-row
convergence contract, and JSON round-trips Python floats exactly
(shortest-repr), so a response body carries the same 64 bits the
in-process reference returns -- pinned in ``tests/test_gateway.py``.

Admission control: a bounded queue (``max_queue`` items pending or in
flight).  A request that would overflow it is rejected with **429**
before any work is queued; during a drain new work gets **503** while
everything already admitted completes (``drain()`` awaits the flush
in flight, which carries everything pending with it).  Shard failures
under a process transport degrade, not fail: ``score_many`` runs in
partial mode, so queries owned by a dead worker come back as typed
degraded markers (HTTP 200 with per-item ``{"degraded": ...}``
objects) while every healthy shard's rows are returned bit-identical.

Endpoints::

    POST /score    {"queries": [{"object_type": ..., ...}, ...]}
    POST /similar  {"nodes": [...], "k": 10, "metric": "cosine",
                    "object_type": null}
    GET  /healthz  process liveness (always 200 while serving)
    GET  /readyz   200 only when every shard answers info()
    GET  /metrics  Prometheus text: cluster aggregate + gateway

The server is stdlib-only (``asyncio.start_server`` + hand-rolled
HTTP/1.1 with keep-alive): no new dependencies ride in with it.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.exceptions import ServingError
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry, aggregate_snapshots
from repro.serving.foldin import QueryBatch, compile_queries
from repro.serving.supervision import ShardFailure
from repro.serving.telemetry import GatewayMetrics
from repro.serving.transport import decode_node, encode_node

__all__ = ["Gateway", "GatewayBusy", "GatewayServer", "MicroBatcher"]

# The largest request body the gateway buffers.  A /score query is a
# few hundred bytes of JSON, so even a full default admission queue
# (1024 items) fits in well under 1 MiB; 8 MiB leaves ample headroom
# while a client can no longer make the server buffer whatever size it
# declares.  A larger Content-Length gets 413 before any body is read.
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Content Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class GatewayBusy(ServingError):
    """The admission queue is full; the caller saw a 429."""


class _Item:
    """One unit of admitted work: a score query or a similarity node."""

    __slots__ = ("kind", "payload", "future", "admitted")

    def __init__(self, kind: str, payload, future, admitted: float):
        self.kind = kind
        self.payload = payload
        self.future = future
        self.admitted = admitted


class MicroBatcher:
    """Accumulates admitted items and flushes them as engine batches.

    At most one flush is in flight.  :meth:`admit` flushes at once
    when none is; otherwise the items wait in the pending list, and
    the flush in flight, when it finishes, sends everything pending as
    the next batch.  Nothing is ever pending without a flush in
    flight, so a drain only has to refuse new work and
    :meth:`quiesce`.  ``max_queue`` bounds items pending plus in
    flight, and so every batch.

    Execution always happens on the gateway's single-thread executor;
    one flush issues at most one ``score_many`` plus one
    ``similar_many`` per distinct ``(k, metric, type)`` group.
    Score items are ``(request batch, row)`` pairs; a flush hands
    ``score_many`` their request batches concatenated in admission
    order.
    """

    def __init__(
        self,
        engine,
        loop: asyncio.AbstractEventLoop,
        executor: ThreadPoolExecutor,
        max_queue: int,
        metrics: GatewayMetrics,
    ) -> None:
        if max_queue < 1:
            raise ServingError(
                f"max_queue must be >= 1, got {max_queue}"
            )
        self._engine = engine
        self._loop = loop
        self._executor = executor
        self._max_queue = max_queue
        self._metrics = metrics
        self._pending: list[_Item] = []
        self._inflight = 0
        self._flight: asyncio.Task | None = None

    # ------------------------------------------------------------------
    @property
    def load(self) -> int:
        """Items pending or in flight (the admission-control count)."""
        return len(self._pending) + self._inflight

    def admit(self, kind: str, payloads: list) -> list[asyncio.Future]:
        """Admit a request's items, all-or-nothing.

        Raises :class:`GatewayBusy` when the batch would push the
        queue past ``max_queue`` -- *before* anything is enqueued, so
        a rejected request leaves no partial work behind.
        """
        if self.load + len(payloads) > self._max_queue:
            raise GatewayBusy(
                f"admission queue is full "
                f"({self.load}/{self._max_queue} items in flight)"
            )
        now = time.monotonic()
        futures = []
        for payload in payloads:
            future = self._loop.create_future()
            self._pending.append(_Item(kind, payload, future, now))
            futures.append(future)
        if self._flight is None:
            self._flush()
        self._metrics.queue_depth.set(self.load)
        return futures

    async def quiesce(self) -> None:
        """Await the flush in flight and every flush it chains to."""
        while self._flight is not None:
            await asyncio.wait([self._flight])

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """Send everything pending as one batch (none in flight)."""
        if not self._pending:
            return
        batch = self._pending
        self._pending = []
        self._metrics.batch_flushes.inc()
        self._metrics.batch_size.observe(len(batch))
        self._metrics.batch_wait_seconds.observe(
            time.monotonic() - batch[0].admitted
        )
        self._inflight += len(batch)
        self._flight = self._loop.create_task(self._run(batch))

    async def _run(self, batch: list[_Item]) -> None:
        try:
            results = await self._loop.run_in_executor(
                self._executor, self._execute, batch
            )
        except BaseException as exc:  # noqa: BLE001 - fan the error out
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(
                        exc
                        if isinstance(exc, Exception)
                        else ServingError(str(exc))
                    )
        else:
            for item, result in zip(batch, results):
                if not item.future.done():
                    if isinstance(result, Exception):
                        item.future.set_exception(result)
                    else:
                        item.future.set_result(result)
        finally:
            self._inflight -= len(batch)
            self._flight = None
            # what accumulated behind this flush leaves as the next one
            self._flush()
            self._metrics.queue_depth.set(self.load)

    def _execute(self, batch: list[_Item]) -> list:
        """Group and run one flushed batch (single-thread executor).

        Per-item results; an :class:`Exception` entry fails only its
        own item (e.g. one similarity group raising does not poison
        the score queries that shared the flush).
        """
        results: list[Any] = [None] * len(batch)
        scores = [
            (position, item)
            for position, item in enumerate(batch)
            if item.kind == "score"
        ]
        if scores:
            try:
                rows = self._engine.score_many(
                    _merge_rows([item.payload for _, item in scores]),
                    partial=True,
                )
            except Exception as exc:  # noqa: BLE001
                for position, _ in scores:
                    results[position] = exc
            else:
                for (position, _), row in zip(scores, rows):
                    results[position] = row
        groups: dict[tuple, list[tuple[int, _Item]]] = {}
        for position, item in enumerate(batch):
            if item.kind != "similar":
                continue
            node, k, metric, object_type = item.payload
            groups.setdefault((k, metric, object_type), []).append(
                (position, item)
            )
        for (k, metric, object_type), members in groups.items():
            try:
                ranked = self._engine.similar_many(
                    [item.payload[0] for _, item in members],
                    k=k,
                    metric=metric,
                    object_type=object_type,
                )
            except Exception as exc:  # noqa: BLE001
                for position, _ in members:
                    results[position] = exc
            else:
                for (position, _), entry in zip(members, ranked):
                    results[position] = entry
        return results


class Gateway:
    """The HTTP server wrapping one (sharded) engine.

    Parameters
    ----------
    engine:
        A :class:`~repro.serving.router.ShardedEngine` (any transport
        backend).  The gateway serializes every call to it on one
        executor thread.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    max_queue:
        Admission bound on items pending + in flight; overflow is
        rejected with 429.
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 1024,
    ) -> None:
        self._engine = engine
        self._host = host
        self._port = port
        self._max_queue = max_queue
        self.registry = MetricsRegistry()
        self._metrics = GatewayMetrics(self.registry)
        self._server: asyncio.AbstractServer | None = None
        self._bound_port: int | None = None
        self._clients: set[asyncio.Task] = set()
        self._batcher: MicroBatcher | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._draining = False

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._bound_port is None:
            raise ServingError("gateway is not started")
        return self._bound_port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    async def start(self) -> "Gateway":
        self._loop = asyncio.get_running_loop()
        # ONE engine thread: concurrent HTTP load becomes batching,
        # never interleaved engine calls (the determinism seam)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-gateway-engine"
        )
        self._batcher = MicroBatcher(
            self._engine,
            self._loop,
            self._executor,
            self._max_queue,
            self._metrics,
        )
        self._server = await asyncio.start_server(
            self._client, self._host, self._port
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]
        return self

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work (503), close the listener,
        await the flush in flight (and what it chains to), then close
        the connections.  Idempotent."""
        if self._draining:
            return
        self._draining = True
        self._metrics.draining.set(1)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._batcher is not None:
            await self._batcher.quiesce()
        # give in-flight handlers a few loop cycles to write their
        # (now-resolved) responses, then cancel idle keep-alives
        for _ in range(3):
            await asyncio.sleep(0)
        for task in list(self._clients):
            task.cancel()
        if self._clients:
            await asyncio.gather(
                *list(self._clients), return_exceptions=True
            )
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Serve until ``stop`` is set, then drain (the CLI's loop)."""
        await stop.wait()
        await self.drain()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._clients.add(task)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                request = line.decode("latin-1").strip()
                if not request:
                    continue
                parts = request.split()
                if len(parts) < 2:
                    break
                method, target = parts[0], parts[1]
                headers: dict[str, str] = {}
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.decode(
                        "latin-1"
                    ).partition(":")
                    headers[name.strip().lower()] = value.strip()
                declared = headers.get("content-length", "0")
                length = _body_length(declared)
                if length is None or length > MAX_BODY_BYTES:
                    # no body is read, so where this request ends is
                    # unknown: answer, then close the connection
                    error = (
                        f"invalid Content-Length {declared[:32]!r}"
                        if length is None
                        else f"request body exceeds the "
                        f"{MAX_BODY_BYTES}-byte limit"
                    )
                    await _respond(
                        writer,
                        _json_response(
                            400 if length is None else 413,
                            {"error": error},
                        ),
                        keep=False,
                    )
                    break
                body = (
                    await reader.readexactly(length) if length else b""
                )
                keep = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                await _respond(
                    writer,
                    await self._dispatch(method, target, body),
                    keep,
                )
                if not keep:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            ValueError,
        ):
            pass
        finally:
            self._clients.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, str, bytes]:
        tick = time.perf_counter()
        self._metrics.requests.inc()
        try:
            response = await self._route(method, target, body)
        except GatewayBusy as exc:
            self._metrics.rejected.inc()
            response = _json_response(429, {"error": str(exc)})
        except ServingError as exc:
            response = _json_response(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - report, don't die
            response = _json_response(
                500,
                {"error": f"{type(exc).__name__}: {exc}"},
            )
        self._metrics.request_seconds.observe(
            time.perf_counter() - tick
        )
        return response

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, str, bytes]:
        target = target.split("?", 1)[0]
        if target == "/healthz":
            return _json_response(
                200,
                {"status": "ok", "draining": self._draining},
            )
        if target == "/readyz":
            return await self._readyz()
        if target == "/metrics":
            return await self._metrics_page()
        handler = {"/score": self._score, "/similar": self._similar}.get(
            target
        )
        if handler is not None:
            if method != "POST":
                return _json_response(
                    405, {"error": "POST required"}
                )
            return await handler(body)
        return _json_response(
            404, {"error": f"unknown path {target!r}"}
        )

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    async def _readyz(self) -> tuple[int, str, bytes]:
        """Ready only when every shard answers ``info()`` -- over a
        process transport this is one RPC per worker, so a dead worker
        flips readiness off (503).  A wedged one does not: the probe
        runs on the engine executor behind any stuck flush and its RPC
        has no deadline, so ``/readyz`` waits with the data plane and
        the client times out instead of reading a 503."""

        def probe() -> int:
            count = 0
            for handle in self._engine.shards:
                handle.info()
                count += 1
            return count

        if self._draining:
            return _json_response(
                503, {"ready": False, "reason": "draining"}
            )
        try:
            shards = await self._loop.run_in_executor(
                self._executor, probe
            )
        except Exception as exc:  # noqa: BLE001
            return _json_response(
                503, {"ready": False, "reason": str(exc)}
            )
        return _json_response(200, {"ready": True, "shards": shards})

    async def _metrics_page(self) -> tuple[int, str, bytes]:
        def render() -> str:
            merged = aggregate_snapshots(
                [
                    self._engine.metrics_snapshot(),
                    self.registry.snapshot(),
                ]
            )
            return render_prometheus(merged)

        text = await self._loop.run_in_executor(
            self._executor, render
        )
        return (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            text.encode("utf-8"),
        )

    async def _score(self, body: bytes) -> tuple[int, str, bytes]:
        request = _parse_json(body)
        queries = request.get("queries")
        if not isinstance(queries, list):
            raise ServingError(
                'the /score body must carry {"queries": [...]}'
            )
        # JSON has no tuples: link entries arrive as [relation,
        # target(, weight)] arrays whose targets are in the encode_node
        # codec (so tuple-keyed models survive the JSON hop); the
        # compiler decodes them and names a malformed query (query #i)
        batch = compile_queries(queries, decode_target=decode_node)
        # validate up front so one malformed request 400s alone
        # instead of poisoning the micro-batch it would share
        # (model-aware when the engine offers it)
        validate = getattr(self._engine, "validate_queries", None)
        if validate is not None:
            await self._loop.run_in_executor(
                self._executor, validate, batch
            )
        if self._draining:
            return _json_response(
                503, {"error": "gateway is draining"}
            )
        futures = self._batcher.admit(
            "score", [(batch, row) for row in range(len(batch))]
        )
        rows = await asyncio.gather(*futures)
        results: list[Any] = []
        degraded = 0
        for row in rows:
            if isinstance(row, ShardFailure):
                degraded += 1
                results.append(
                    {
                        "degraded": True,
                        "shard": row.shard,
                        "error": row.error,
                    }
                )
            else:
                results.append(row.tolist())
        return _json_response(
            200, {"results": results, "degraded": degraded}
        )

    async def _similar(self, body: bytes) -> tuple[int, str, bytes]:
        request = _parse_json(body)
        nodes = request.get("nodes")
        if not isinstance(nodes, list) or not nodes:
            raise ServingError(
                'the /similar body must carry {"nodes": [...]}'
            )
        k = request.get("k", 10)
        if isinstance(k, bool) or not isinstance(k, int):
            raise ServingError(f"k must be a positive integer, got {k!r}")
        if k < 1:
            raise ServingError(f"k must be >= 1, got {k}")
        metric = str(request.get("metric", "cosine"))
        object_type = request.get("object_type")
        if object_type is not None and not isinstance(object_type, str):
            raise ServingError(
                f"object_type must be a string, got {object_type!r}"
            )
        nodes = [decode_node(node) for node in nodes]
        # check the nodes up front so an unknown one 400s alone instead
        # of failing the similar_many group it would share
        for node in nodes:
            try:
                served = self._engine.has_node(node)
            except TypeError:  # unhashable: served by no engine
                served = False
            if not served:
                raise ServingError(
                    f"node {node!r} is not served by this engine"
                )
        if self._draining:
            return _json_response(
                503, {"error": "gateway is draining"}
            )
        futures = self._batcher.admit(
            "similar", [(node, k, metric, object_type) for node in nodes]
        )
        ranked = await asyncio.gather(*futures)
        results = [
            [
                [encode_node(found), float(score)]
                for found, score in entry
            ]
            for entry in ranked
        ]
        return _json_response(200, {"results": results})


def _merge_rows(items: list[tuple[QueryBatch, int]]) -> QueryBatch:
    """One batch from flushed ``(request batch, row)`` items.  A flush
    always holds whole requests (admission is all-or-nothing and a
    flush takes everything pending), so the request batches simply
    concatenate in admission order."""
    parts = [batch for batch, row in items if row == 0]
    if sum(len(batch) for batch in parts) != len(items):
        raise ServingError("a micro-batch split a request's queries")
    return QueryBatch.concat(parts)


def _parse_json(body: bytes) -> dict:
    try:
        parsed = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ServingError(f"invalid JSON body: {exc}") from None
    if not isinstance(parsed, dict):
        raise ServingError("the request body must be a JSON object")
    return parsed


def _body_length(declared: str) -> int | None:
    """A ``Content-Length`` value as an int, ``None`` when it is not a
    plain digit string.  Values too long to lie within
    :data:`MAX_BODY_BYTES` read as one past it (no big-int parse)."""
    if not (declared.isascii() and declared.isdigit()):
        return None
    digits = declared.lstrip("0") or "0"
    if len(digits) > len(str(MAX_BODY_BYTES)):
        return MAX_BODY_BYTES + 1
    return int(digits)


async def _respond(
    writer, response: tuple[int, str, bytes], keep: bool
) -> None:
    """Write one HTTP/1.1 response (``keep`` selects keep-alive)."""
    status, ctype, payload = response
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep else 'close'}\r\n"
        f"\r\n"
    )
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()


def _json_response(
    status: int, payload: dict
) -> tuple[int, str, bytes]:
    return (
        status,
        "application/json",
        json.dumps(payload).encode("utf-8"),
    )


# ----------------------------------------------------------------------
# the synchronous harness (CLI + tests + benchmarks)
# ----------------------------------------------------------------------
class GatewayServer:
    """A gateway running on a background event-loop thread.

    The synchronous face of :class:`Gateway` for callers that are not
    themselves async: the CLI's ``serve`` command, the test suite, and
    the benchmark harness.  ``launch`` returns once the listener is
    bound; :meth:`drain` performs the graceful shutdown from any
    thread.
    """

    def __init__(self, gateway: Gateway) -> None:
        self.gateway = gateway
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop: asyncio.Event | None = None
        self._done = threading.Event()

    @classmethod
    def launch(cls, engine, **kwargs: Any) -> "GatewayServer":
        server = cls(Gateway(engine, **kwargs))
        ready = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            server._loop = loop
            try:
                loop.run_until_complete(server._main(ready))
            except BaseException as exc:  # noqa: BLE001
                failure.append(exc)
                ready.set()
            finally:
                loop.close()
                server._done.set()

        thread = threading.Thread(
            target=run, name="repro-gateway", daemon=True
        )
        server._thread = thread
        thread.start()
        ready.wait()
        if failure:
            raise ServingError(
                f"gateway failed to start: {failure[0]}"
            )
        return server

    async def _main(self, ready: threading.Event) -> None:
        self._stop = asyncio.Event()
        await self.gateway.start()
        ready.set()
        await self.gateway.serve_until(self._stop)

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return self.gateway.url

    @property
    def port(self) -> int:
        return self.gateway.port

    def request_stop(self) -> None:
        """Signal the drain without blocking (signal-handler safe)."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed: the server is down

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain in-flight work, stop the loop."""
        self.request_stop()
        self._done.wait(timeout)
        if self._thread is not None:
            self._thread.join(timeout)

    close = drain

    def __enter__(self) -> "GatewayServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()
