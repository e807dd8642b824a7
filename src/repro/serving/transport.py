"""Shard transports: the seam between cluster routing and execution.

:class:`~repro.serving.router.ShardedEngine` owns routing, ownership,
and rebalance; *where a shard runs* is this module's job.  A transport
turns ``(base state, shard plan, engine knobs)`` into a tuple of
**shard handles** -- objects answering the engine's shard surface,
the :class:`~repro.serving.engine.InferenceEngine` methods named in
:data:`SHARD_OPS` -- and knows how to rebuild one handle (a broken
shard) or replace them all (a promote).

Two backends:

* :class:`InprocessTransport` (the default): handles are
  :class:`~repro.serving.engine.InferenceEngine` objects over the
  partitioned states of one process -- PR 5's cluster verbatim, and
  the reference implementation every other backend is pinned against.
* :class:`ProcessTransport`: one **worker process per shard**,
  forked from the calling process while no other Python thread is
  alive (the child already holds every imported module, so it skips
  the interpreter start and the numpy/scipy/``repro`` imports) and
  exec'd as ``python -m repro.serving.worker`` otherwise -- forking a
  threaded process could clone a lock some other thread holds.  The
  thread state alone picks the path: ``serve`` builds its fleet
  before any router or gateway thread exists, so it forks, while a
  respawn under a live gateway execs.  Either way the worker is a
  direct child of the caller.  Workers cold-start from the
  schema-v3 artifact bundle on disk (``mmap=True`` shares the frozen
  base read-only through the page cache -- the PR 8 zero-copy path,
  now across *processes*), and a length-prefixed, pickle-free message
  protocol over a localhost socket carries every shard call: the op
  is the method name, and its :data:`SHARD_OPS` entry holds the codecs
  of its arguments and reply, from which both the client stubs of
  :class:`ProcessShardHandle` and the worker's dispatch are built.  A
  promote writes the refit result as a fresh bundle and hot-swaps it
  under the live workers in two phases (``prepare`` builds the new
  engine while the old one keeps answering, ``commit`` is an atomic
  pointer swap); a dead worker is respawned from the current bundle
  and the router replays its durable-delta log -- bit-identical
  recovery, exactly like an in-process rebuild.

**The wire format is deliberately not pickle**: a frame is an 8-byte
big-endian payload length, a 4-byte header length, a JSON header, and
the raw C-order bytes of any numpy arrays the header declares (dtype +
shape ride in the header, checked against an allowlist of the dtypes
the protocol sends and against the frame's byte count).  Score calls
carry a compiled :class:`~repro.serving.foldin.QueryBatch` as raw
array planes plus its five name tables (:func:`encode_batch`), so a
worker decodes no per-query JSON.  JSON round-trips Python floats
exactly (``repr`` shortest-form), node ids are restricted to JSON
scalars and integers (tuples are tagged and re-tupled), and membership
rows travel as raw float64 -- so every answer is bit-identical to the
in-process reference, and a worker never executes attacker-controlled
bytecode.

Determinism contract: with the same artifact and plan,
``ProcessTransport`` answers are **bit-identical** to
``InprocessTransport`` answers at every worker count -- pinned in
``tests/test_transport.py`` at {1, 2, 3} workers for queries,
``score_many``, ``similar_many``, and post-promote g1/theta/gamma.

Fault sites: each RPC traverses ``worker.call`` (labels ``shard``,
``op``) on the router's injector, and
:meth:`ProcessShardHandle.kill` SIGKILLs the worker -- the scripted
process-death drills behind the PR 7 supervision machinery.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Callable, Mapping, Sequence
from pathlib import Path
from types import SimpleNamespace
from typing import Any, NamedTuple

import numpy as np

from repro.exceptions import ServingError
from repro.serving.cluster import ShardPlan
from repro.serving.engine import InferenceEngine
from repro.serving.foldin import FoldInOutcome, NewNode, QueryBatch, RowGroups

__all__ = [
    "SHARD_OPS",
    "InprocessTransport",
    "ProcessShardHandle",
    "ProcessTransport",
    "RemoteShardError",
    "TransportError",
    "resolve_transport",
]

_HEADER_STRUCT = struct.Struct("!Q")
_HLEN_STRUCT = struct.Struct("!I")
# one frame carries at most one batch of membership rows; anything
# beyond this is a protocol bug, not a workload
_MAX_FRAME = 1 << 31
# the array dtypes the protocol sends (little-endian on every platform
# this runs on); a header naming anything else is malformed
_WIRE_DTYPES = frozenset({"<f8", "<i8", "<i4"})


class TransportError(ServingError):
    """A transport-level failure: the worker process died, the socket
    broke, or a frame failed to parse.  Retryable by supervision; the
    breaker's ``on_open`` respawns the worker."""


class RemoteShardError(ServingError):
    """An error raised *inside* a shard worker, re-raised router-side
    with the worker's message (the remote type name is prefixed when
    it was not a ServingError)."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(
    header: Mapping[str, Any], arrays: Sequence[np.ndarray] = ()
) -> bytes:
    """One wire frame: lengths + JSON header + raw array bytes."""
    meta = dict(header)
    meta["arrays"] = [
        {"dtype": array.dtype.str, "shape": list(array.shape)}
        for array in arrays
    ]
    head = json.dumps(meta, ensure_ascii=True).encode("ascii")
    blobs = b"".join(
        np.ascontiguousarray(array).tobytes() for array in arrays
    )
    payload_len = _HLEN_STRUCT.size + len(head) + len(blobs)
    return (
        _HEADER_STRUCT.pack(payload_len)
        + _HLEN_STRUCT.pack(len(head))
        + head
        + blobs
    )


def decode_payload(
    payload: bytes,
) -> tuple[dict[str, Any], list[np.ndarray]]:
    """Parse one frame payload back into ``(header, arrays)``.

    Every malformed payload -- truncated, a bad header, a dtype outside
    the protocol's allowlist, a shape that is negative or does not
    match the bytes that follow -- raises :class:`TransportError`.
    """
    try:
        (head_len,) = _HLEN_STRUCT.unpack_from(payload, 0)
        offset = _HLEN_STRUCT.size
        header = json.loads(
            payload[offset : offset + head_len].decode("ascii")
        )
        specs = header.pop("arrays", [])
        shapes = []
        for spec in specs:
            if spec["dtype"] not in _WIRE_DTYPES:
                raise TransportError(
                    f"array dtype {spec['dtype']!r} is not part of the "
                    f"protocol"
                )
            shape = spec["shape"]
            if type(shape) is not list or not all(
                type(n) is int and n >= 0 for n in shape
            ):
                raise TransportError(f"bad array shape {shape!r}")
            shape = tuple(shape)
            shapes.append((np.dtype(spec["dtype"]), shape))
    except TransportError:
        raise
    except Exception as exc:  # any parse failure is a malformed frame
        raise TransportError(
            f"malformed frame header: {type(exc).__name__}: {exc}"
        ) from None
    offset += head_len
    if offset > len(payload):
        raise TransportError("truncated frame header")
    expected = sum(
        dtype.itemsize * math.prod(shape) for dtype, shape in shapes
    )
    if expected != len(payload) - offset:
        raise TransportError(
            f"frame carries {len(payload) - offset} array bytes, its "
            f"header declares {expected}"
        )
    arrays: list[np.ndarray] = []
    for dtype, shape in shapes:
        nbytes = dtype.itemsize * math.prod(shape)
        count = math.prod(shape)
        arrays.append(
            np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
            .reshape(shape)
            .copy()
            if count
            else np.empty(shape, dtype=dtype)
        )
        offset += nbytes
    return header, arrays


def send_message(
    sock: socket.socket,
    header: Mapping[str, Any],
    arrays: Sequence[np.ndarray] = (),
) -> None:
    try:
        sock.sendall(encode_frame(header, arrays))
    except OSError as exc:
        raise TransportError(
            f"shard connection broke while sending "
            f"{header.get('op', '?')!r}: {exc}"
        ) from None


def recv_payload(sock: socket.socket) -> bytes:
    """Read one whole frame payload off the socket."""
    length_bytes = _recv_exact(sock, _HEADER_STRUCT.size)
    (payload_len,) = _HEADER_STRUCT.unpack(length_bytes)
    if payload_len > _MAX_FRAME:
        raise TransportError(
            f"frame length {payload_len} exceeds the {_MAX_FRAME} "
            f"byte protocol limit"
        )
    return _recv_exact(sock, payload_len)


def recv_message(
    sock: socket.socket,
) -> tuple[dict[str, Any], list[np.ndarray]]:
    return decode_payload(recv_payload(sock))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except OSError as exc:
            raise TransportError(
                f"shard connection broke mid-frame: {exc}"
            ) from None
        if not chunk:
            raise TransportError(
                "shard connection closed mid-frame (worker process "
                "died?)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# value codecs (JSON-safe, float-exact, pickle-free)
# ----------------------------------------------------------------------
def encode_node(node: object) -> object:
    """Node ids on the wire: JSON scalars pass through, any other
    integer (numpy's included) travels as ``int``, and tuples are
    tagged (so tuple-keyed models survive the hop)."""
    if isinstance(node, bool) or node is None or isinstance(node, (str, float)):
        return node
    if isinstance(node, numbers.Integral):
        return int(node)
    if isinstance(node, tuple):
        return {"__tuple__": [encode_node(item) for item in node]}
    raise TransportError(
        f"node id {node!r} ({type(node).__name__}) is not "
        f"transportable; the process transport carries JSON scalar "
        f"ids (str/int/float/bool) and tuples of them"
    )


def decode_node(wire: object) -> object:
    if isinstance(wire, dict) and "__tuple__" in wire:
        return tuple(decode_node(item) for item in wire["__tuple__"])
    return wire


def encode_spec(spec: NewNode) -> dict[str, Any]:
    text: dict[str, Any] = {}
    for attribute, bag in spec.text.items():
        if isinstance(bag, Mapping):
            text[attribute] = {"counts": dict(bag)}
        else:
            text[attribute] = {"tokens": list(bag)}
    return {
        "node": encode_node(spec.node),
        "object_type": spec.object_type,
        "links": [
            [relation, encode_node(target), weight]
            for relation, target, weight in spec.links
        ],
        "text": text,
        "numeric": {
            attribute: list(values)
            for attribute, values in spec.numeric.items()
        },
    }


def decode_spec(wire: Mapping[str, Any]) -> NewNode:
    text: dict[str, Any] = {}
    for attribute, bag in wire.get("text", {}).items():
        if "counts" in bag:
            text[attribute] = dict(bag["counts"])
        else:
            text[attribute] = list(bag["tokens"])
    return NewNode(
        node=decode_node(wire["node"]),
        object_type=wire["object_type"],
        links=tuple(
            (relation, decode_node(target), weight)
            for relation, target, weight in wire.get("links", ())
        ),
        text=text,
        numeric={
            attribute: list(values)
            for attribute, values in wire.get("numeric", {}).items()
        },
    )


def encode_batch(
    batch: QueryBatch,
) -> tuple[dict[str, Any], list[np.ndarray]]:
    """A transient batch as ``(header fields, array planes)``: the five
    name tables ride in the JSON header, every column as a raw plane."""
    meta = {
        name: list(getattr(batch, name))
        for name in QueryBatch.TABLES
    }
    meta["targets"] = [encode_node(target) for target in batch.targets]
    meta["single"] = batch.positions is None
    planes = [batch.type_codes]
    if batch.positions is not None:
        planes.append(batch.positions)
    for groups in (batch.links, batch.numeric, batch.text):
        planes.append(groups.indptr)
        planes.extend(groups.columns)
    return meta, planes


def decode_batch(
    meta: Mapping[str, Any], planes: Sequence[np.ndarray]
) -> QueryBatch:
    """Inverse of :func:`encode_batch`.  The row structure, the plane
    dtypes and every code's range are re-checked (a code outside its
    name table would silently index another name), so a malformed
    batch raises :class:`TransportError`."""
    try:
        tables = {name: tuple(meta[name]) for name in QueryBatch.TABLES}
        if not all(type(meta[name]) is list for name in tables):
            raise TypeError("name tables must be arrays")
        tables["targets"] = tuple(decode_node(t) for t in meta["targets"])
        single = meta["single"]
    except Exception as exc:  # noqa: BLE001 - any gap is malformed
        raise TransportError(
            f"malformed query batch header: {type(exc).__name__}: {exc}"
        ) from None
    planes = list(planes)
    if len(planes) != (12 if single else 13):
        raise TransportError("malformed query batch planes")
    type_codes = _codes(planes.pop(0), 0, len(tables["types"]))
    m = type_codes.size
    positions = None
    if not single:
        positions = _codes(planes.pop(0), 0, 1 << 62)
        if positions.shape != (m,):
            raise TransportError("malformed query batch planes")
    attributes = len(tables["attributes"])
    groups = []
    for bounds in (
        ((0, len(tables["relations"])), (0, len(tables["targets"])), None),
        ((-attributes, attributes), None),
        ((-attributes, attributes), (-1, len(tables["terms"])), None),
    ):
        indptr, columns = planes[0], planes[1 : 1 + len(bounds)]
        del planes[: 1 + len(bounds)]
        if (
            indptr.dtype.kind != "i"
            or indptr.shape != (m + 1,)
            or indptr[0] != 0
            or (np.diff(indptr) < 0).any()
            or any(c.shape != (indptr[-1],) for c in columns)
        ):
            raise TransportError("malformed query batch planes")
        groups.append(
            RowGroups(
                indptr,
                tuple(
                    _values(column) if bound is None else _codes(column, *bound)
                    for column, bound in zip(columns, bounds)
                ),
            )
        )
    attribute, term, _ = groups[2].columns
    if not np.array_equal(attribute >= 0, term >= 0):
        # a term belongs to every text entry but an attribute mention
        raise TransportError("malformed query batch planes")
    return QueryBatch(
        type_codes=type_codes,
        links=groups[0],
        numeric=groups[1],
        text=groups[2],
        positions=positions,
        **tables,
    )


def _codes(plane: np.ndarray, low: int, high: int) -> np.ndarray:
    """``plane`` if it is a 1-D integer plane of codes in [low, high)."""
    if (
        plane.ndim != 1
        or plane.dtype.kind != "i"
        or plane.size
        and (int(plane.min()) < low or int(plane.max()) >= high)
    ):
        raise TransportError("malformed query batch planes")
    return plane


def _values(plane: np.ndarray) -> np.ndarray:
    if plane.ndim != 1 or plane.dtype != np.float64:
        raise TransportError("malformed query batch planes")
    return plane


def encode_link(link: tuple) -> list:
    entry = [encode_node(link[0]), link[1], encode_node(link[2])]
    if len(link) == 4:
        entry.append(float(link[3]))
    return entry


def decode_link(wire: Sequence) -> tuple:
    if len(wire) == 4:
        return (
            decode_node(wire[0]),
            wire[1],
            decode_node(wire[2]),
            float(wire[3]),
        )
    return (decode_node(wire[0]), wire[1], decode_node(wire[2]))


# ----------------------------------------------------------------------
# the shard surface, declared once
# ----------------------------------------------------------------------
class Codec(NamedTuple):
    """One value's wire form: ``encode(value, arrays)`` returns its
    JSON part and appends any raw arrays to the frame's ``arrays`` (the
    JSON refers to them by position); ``decode(wire, arrays)`` inverts
    it."""

    encode: Callable[[Any, list[np.ndarray]], Any]
    decode: Callable[[Any, Sequence[np.ndarray]], Any]


class ShardOp(NamedTuple):
    """An :class:`InferenceEngine` method over the wire: the codec of
    its arguments (a namespace of its parameters) and of its reply."""

    args: Codec
    reply: Codec


def _plain(
    encode: Callable[[Any], Any], decode: Callable[[Any], Any] | None = None
) -> Codec:
    """A value carried in the JSON header alone (``decode`` defaults
    to ``encode``)."""
    decode = decode or encode
    return Codec(
        lambda value, arrays: encode(value),
        lambda wire, arrays: decode(wire),
    )


def _append(value: np.ndarray, arrays: list[np.ndarray]) -> int:
    arrays.append(value)
    return len(arrays) - 1


def _array_at(wire: object, arrays: Sequence[np.ndarray]) -> np.ndarray:
    if type(wire) is not int or not 0 <= wire < len(arrays):
        raise TransportError(f"frame has no array #{wire!r}")
    return arrays[wire]


def _matrix(value: object, arrays: list[np.ndarray]) -> int:
    if not isinstance(value, np.ndarray) or value.ndim != 2:
        raise TransportError(
            "the process transport scatters similarity queries as "
            "an (m, K) vector matrix (the router's form)"
        )
    return _append(
        np.ascontiguousarray(value, dtype=np.float64), arrays
    )


def _rows(value: Sequence[np.ndarray], arrays: list[np.ndarray]) -> int:
    # one (m, K) plane; an empty list needs no K
    stacked = np.stack(value) if len(value) else np.empty((0, 0))
    return _append(stacked, arrays)


def _batch(value: QueryBatch, arrays: list[np.ndarray]) -> dict[str, Any]:
    meta, planes = encode_batch(value)
    meta["planes"] = [len(arrays), len(arrays) + len(planes)]
    arrays.extend(planes)
    return meta


def _unbatch(
    wire: Mapping[str, Any], arrays: Sequence[np.ndarray]
) -> QueryBatch:
    first, stop = wire["planes"]
    return decode_batch(wire, arrays[first:stop])


def _optional(codec: Codec) -> Codec:
    return Codec(
        lambda value, arrays: (
            None if value is None else codec.encode(value, arrays)
        ),
        lambda wire, arrays: (
            None if wire is None else codec.decode(wire, arrays)
        ),
    )


def _many(item: Codec, container: Callable) -> Codec:
    """A homogeneous collection, rebuilt as ``container``."""
    return Codec(
        lambda value, arrays: [
            item.encode(entry, arrays) for entry in value
        ],
        lambda wire, arrays: container(
            item.decode(entry, arrays) for entry in wire
        ),
    )


def _tuple(*items: Codec) -> Codec:
    """A fixed-arity tuple of differently-coded fields."""
    return Codec(
        lambda value, arrays: [
            codec.encode(entry, arrays)
            for codec, entry in zip(items, value, strict=True)
        ],
        lambda wire, arrays: tuple(
            codec.decode(entry, arrays)
            for codec, entry in zip(items, wire, strict=True)
        ),
    )


def _record(cls: Callable, **fields: Codec) -> Codec:
    """An object's named attributes as a JSON object, rebuilt as
    ``cls(**fields)``."""
    return Codec(
        lambda value, arrays: {
            name: codec.encode(getattr(value, name), arrays)
            for name, codec in fields.items()
        },
        lambda wire, arrays: cls(
            **{
                name: codec.decode(wire[name], arrays)
                for name, codec in fields.items()
            }
        ),
    )


def _args(**parameters: Codec) -> Codec:
    return _record(SimpleNamespace, **parameters)


_JSON = _plain(lambda value: value)
_INT = _plain(int)
_NODE = _plain(encode_node, decode_node)
_SPEC = _plain(encode_spec, decode_spec)
_LINK = _plain(encode_link, decode_link)
_ARRAY = Codec(_append, _array_at)
_ROWS = Codec(_rows, lambda wire, arrays: list(_array_at(wire, arrays)))
_BATCH = _args(batch=Codec(_batch, _unbatch))
_OUTCOME = _record(
    FoldInOutcome,
    nodes=_many(_NODE, tuple),
    theta=_ARRAY,
    iterations=_INT,
    converged=_plain(bool),
    oov_terms=_INT,
)
_PLAN = _record(ShardPlan, n_shards=_INT, num_rows=_INT)


def plan_to_wire(plan: ShardPlan) -> dict[str, Any]:
    return _PLAN.encode(plan, [])


def plan_from_wire(wire: Mapping[str, Any]) -> ShardPlan:
    return _PLAN.decode(wire, ())


SHARD_OPS: dict[str, ShardOp] = {
    "query_batch": ShardOp(_BATCH, _ARRAY),
    "score_batch": ShardOp(_BATCH, _ROWS),
    "extend": ShardOp(_args(nodes=_many(_SPEC, list)), _OUTCOME),
    "add_links": ShardOp(_args(links=_many(_LINK, list)), _OUTCOME),
    "evict_nodes": ShardOp(
        _args(nodes=_many(_NODE, list)), _many(_NODE, tuple)
    ),
    "membership_of": ShardOp(_args(node=_NODE), _ARRAY),
    "similar_rows_partial": ShardOp(
        _args(
            queries=Codec(_matrix, _array_at),
            k=_INT,
            metric=_JSON,
            candidate_types=_optional(_many(_JSON, list)),
            exclude_nodes=_optional(
                _many(_optional(_many(_NODE, set)), list)
            ),
            base_range=_optional(_tuple(_INT, _INT)),
        ),
        _many(_tuple(_ARRAY, _ARRAY), list),
    ),
    "served_vectors": ShardOp(
        _args(nodes=_many(_NODE, list)), _tuple(_ARRAY, _many(_JSON, list))
    ),
    "suggest_context": ShardOp(
        _args(node=_NODE, relation=_JSON),
        _tuple(_ARRAY, _JSON, _optional(_many(_NODE, frozenset))),
    ),
    "extension_nodes": ShardOp(_args(), _many(_NODE, tuple)),
    "extension_export": ShardOp(
        _args(),
        _tuple(_many(_NODE, tuple), _many(_SPEC, tuple), _ARRAY),
    ),
    "extension_dependants": ShardOp(
        _args(node=_NODE), _many(_NODE, frozenset)
    ),
    "info": ShardOp(_args(), _JSON),
    "metrics_snapshot": ShardOp(_args(), _JSON),
}
"""The shard surface: every :class:`InferenceEngine` method a router
calls on a shard, by name, with the codecs that carry its arguments to
a worker and its reply back.  :class:`ProcessShardHandle`'s methods and
the worker's dispatch are both generated from this table, and the op
name on the wire is the method name."""


# ----------------------------------------------------------------------
# the in-process reference backend
# ----------------------------------------------------------------------
class InprocessTransport:
    """Shard handles are engines over partitioned states -- PR 5's
    thread-scattered cluster, unchanged.  The reference backend every
    other transport is pinned bit-identical against."""

    name = "inproc"

    def start(
        self,
        state,
        plan: ShardPlan,
        engine_kwargs: Mapping[str, Any],
        faults=None,
    ) -> tuple[InferenceEngine, ...]:
        states = state.partition(plan)
        return tuple(
            InferenceEngine.from_state(
                shard_state,
                shard_id=shard_id,
                shard_count=plan.n_shards,
                **engine_kwargs,
            )
            for shard_id, shard_state in enumerate(states)
        )

    def rebuild(
        self,
        shard: int,
        state,
        plan: ShardPlan,
        engine_kwargs: Mapping[str, Any],
        faults=None,
    ) -> InferenceEngine:
        fresh_state = state.partition_shard(plan, shard)
        return InferenceEngine.from_state(
            fresh_state,
            shard_id=shard,
            shard_count=plan.n_shards,
            **engine_kwargs,
        )

    def replace(
        self,
        state,
        result,
        plan: ShardPlan,
        engine_kwargs: Mapping[str, Any],
        faults=None,
    ) -> tuple[InferenceEngine, ...]:
        return self.start(state, plan, engine_kwargs, faults)

    def shutdown(self) -> None:
        pass

    def describe(self) -> dict[str, Any]:
        return {"backend": self.name}


# ----------------------------------------------------------------------
# the multiprocess backend
# ----------------------------------------------------------------------
class WorkerProcess:
    """A shard worker's OS process, however it was started.

    ``spawn`` is ``"fork"`` (a child forked from this process) or
    ``"exec"`` (a fresh interpreter, driven through its
    :class:`subprocess.Popen`); both answer ``pid``, ``poll``, ``wait``
    and ``kill`` with :class:`subprocess.Popen`'s semantics.
    """

    def __init__(
        self, pid: int, spawn: str, popen: subprocess.Popen | None = None
    ) -> None:
        self.pid = pid
        self.spawn = spawn
        self._popen = popen
        self._returncode: int | None = None
        self._reap_lock = threading.Lock()

    def poll(self) -> int | None:
        if self._popen is not None:
            return self._popen.poll()
        with self._reap_lock:
            if self._returncode is None:
                try:
                    pid, status = os.waitpid(self.pid, os.WNOHANG)
                except ChildProcessError:
                    # reaped elsewhere: gone, as Popen reports it
                    self._returncode = 0
                else:
                    if pid:
                        self._returncode = os.waitstatus_to_exitcode(
                            status
                        )
            return self._returncode

    def wait(self, timeout: float | None = None) -> int:
        if self._popen is not None:
            return self._popen.wait(timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = 0.0005
        while (code := self.poll()) is None:
            if deadline is not None and time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(
                    f"shard worker pid {self.pid}", timeout
                )
            time.sleep(delay)
            delay = min(2 * delay, 0.05)
        return code

    def kill(self) -> None:
        if self._popen is not None:
            self._popen.kill()
            return
        with self._reap_lock:
            # unreaped, the pid is still this child's: no reuse race
            if self._returncode is None:
                os.kill(self.pid, signal.SIGKILL)


def _start_worker(connect: str, shard: int) -> WorkerProcess:
    """Start the worker for ``shard``, dialing back to ``connect``.

    Forks while this is the only Python thread: the child inherits
    every imported module, and :func:`repro.serving.worker.run_forked`
    makes it behave like an exec'd worker and never lets it return
    here.  With other threads alive a fork could clone a lock one of
    them holds, so the worker is exec'd instead.  (BLAS pool threads
    are not Python threads; OpenBLAS parks its pool across a fork.)
    """
    if hasattr(os, "fork") and threading.active_count() == 1:
        from repro.serving import worker

        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        pid = os.fork()
        if pid == 0:
            worker.run_forked(connect, shard)
        return WorkerProcess(pid, "fork")
    env = os.environ.copy()
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root + os.pathsep + existing if existing else src_root
    )
    popen = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serving.worker",
            "--connect",
            connect,
            "--shard",
            str(shard),
        ],
        env=env,
    )
    return WorkerProcess(popen.pid, "exec", popen)


class ProcessShardHandle:
    """One worker process's client half: the shard surface over RPC.

    One method per :data:`SHARD_OPS` entry, each with the signature of
    the :class:`InferenceEngine` method it names, is generated below
    the class; only the lifecycle calls are written out here.  Calls
    are serialized per handle (one socket, one lock) -- the
    router's scatter already gives cross-shard concurrency, and a
    worker executes requests in arrival order anyway.  Every call
    traverses the ``worker.call`` fault site first, so chaos plans can
    script transport failures per shard and per op.
    """

    def __init__(
        self,
        shard: int,
        process: WorkerProcess,
        sock: socket.socket,
        faults=None,
    ) -> None:
        self.shard = shard
        self._process = process
        self._sock = sock
        self._faults = faults
        self._lock = threading.Lock()
        self._closed = False

    # -- plumbing ------------------------------------------------------
    @property
    def pid(self) -> int:
        return self._process.pid

    def is_alive(self) -> bool:
        return not self._closed and self._process.poll() is None

    def _call(
        self,
        op: str,
        meta: Mapping[str, Any] | None = None,
        arrays: Sequence[np.ndarray] = (),
    ) -> tuple[dict[str, Any], list[np.ndarray]]:
        if self._faults is not None:
            self._faults.traverse(
                "worker.call", shard=self.shard, op=op
            )
        header = {"op": op}
        if meta:
            header.update(meta)
        with self._lock:
            if self._closed:
                raise TransportError(
                    f"shard {self.shard} worker connection is closed"
                )
            try:
                send_message(self._sock, header, arrays)
                reply, reply_arrays = recv_message(self._sock)
            except TransportError as exc:
                raise TransportError(
                    f"shard {self.shard} worker (pid {self.pid}) "
                    f"failed during {op!r}: {exc}"
                ) from None
        if reply.get("error") is not None:
            error = reply["error"]
            message = error.get("message", "remote failure")
            if error.get("type") == "TransportError":
                raise TransportError(
                    f"shard {self.shard} worker rejected the "
                    f"{op!r} frame: {message}"
                )
            if error.get("serving"):
                raise RemoteShardError(message)
            raise RemoteShardError(
                f"{error.get('type', 'Exception')}: {message}"
            )
        return reply, reply_arrays

    def kill(self) -> None:
        """SIGKILL the worker (the scripted process-death drill)."""
        self._process.kill()
        self._process.wait()

    def close(self, timeout: float = 5.0) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.sendall(encode_frame({"op": "shutdown"}))
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        try:
            self._process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()

    # -- lifecycle RPCs the transport itself drives --------------------
    def prepare(
        self,
        bundle: str,
        plan: ShardPlan,
        engine_kwargs: Mapping[str, Any],
        mmap: bool,
    ) -> None:
        self._call(
            "prepare",
            {
                "bundle": bundle,
                "plan": plan_to_wire(plan),
                "engine": dict(engine_kwargs),
                "mmap": mmap,
            },
        )

    def commit(self) -> None:
        self._call("commit")

    def ping(self) -> dict[str, Any]:
        header, _ = self._call("ping")
        return header


def _rpc_method(name: str, op: ShardOp) -> Callable:
    """The client stub of ``InferenceEngine.<name>``: same signature,
    arguments encoded by ``op.args``, reply decoded by ``op.reply``."""
    signature = inspect.signature(getattr(InferenceEngine, name))

    def method(self: ProcessShardHandle, *args: Any, **kwargs: Any) -> Any:
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        del bound.arguments["self"]
        arrays: list[np.ndarray] = []
        wire = op.args.encode(SimpleNamespace(**bound.arguments), arrays)
        reply, reply_arrays = self._call(name, {"args": wire}, arrays)
        return op.reply.decode(reply["value"], reply_arrays)

    method.__name__ = name
    method.__qualname__ = f"ProcessShardHandle.{name}"
    method.__signature__ = signature
    method.__doc__ = f"RPC twin of :meth:`InferenceEngine.{name}`."
    return method


for _name, _op in SHARD_OPS.items():
    setattr(ProcessShardHandle, _name, _rpc_method(_name, _op))
del _name, _op


class ProcessTransport:
    """One worker process per shard, fed from an artifact bundle.

    Parameters
    ----------
    artifact_path:
        The saved model bundle every worker cold-starts from.  With a
        schema-v3 bundle directory and ``mmap=True`` the frozen base
        is paged lazily and shared read-only across all workers
        through the OS page cache -- per-worker cold start is
        O(pages-touched), not O(model).
    mmap:
        Map the bundle instead of loading it eagerly (workers only).
    startup_timeout:
        Seconds to wait for each worker to connect and finish loading.
    run_dir:
        Where promote bundles land (default: a private temp dir,
        removed on shutdown).
    """

    name = "process"

    def __init__(
        self,
        artifact_path: str | Path,
        mmap: bool = True,
        startup_timeout: float = 120.0,
        run_dir: str | Path | None = None,
    ) -> None:
        self._bundle = str(artifact_path)
        self._mmap = bool(mmap)
        self._startup_timeout = float(startup_timeout)
        self._run_dir = Path(run_dir) if run_dir is not None else None
        self._owns_run_dir = run_dir is None
        self._listener: socket.socket | None = None
        self._handles: dict[int, ProcessShardHandle] = {}
        self._promotes = 0

    # ------------------------------------------------------------------
    def start(
        self,
        state,
        plan: ShardPlan,
        engine_kwargs: Mapping[str, Any],
        faults=None,
    ) -> tuple[ProcessShardHandle, ...]:
        self._ensure_listener()
        handles = []
        try:
            for shard in range(plan.n_shards):
                handles.append(
                    self._spawn(shard, plan, engine_kwargs, faults)
                )
        except Exception:
            for handle in handles:
                handle.close(timeout=1.0)
            raise
        self._handles = {
            handle.shard: handle for handle in handles
        }
        return tuple(handles)

    def rebuild(
        self,
        shard: int,
        state,
        plan: ShardPlan,
        engine_kwargs: Mapping[str, Any],
        faults=None,
    ) -> ProcessShardHandle:
        """Respawn one worker from the current bundle (a fresh, empty
        extension space; the router replays the durable deltas)."""
        old = self._handles.get(shard)
        if old is not None:
            try:
                old._process.kill()
            except OSError:  # pragma: no cover - already gone
                pass
            old.close(timeout=1.0)
        handle = self._spawn(shard, plan, engine_kwargs, faults)
        self._handles[shard] = handle
        return handle

    def replace(
        self,
        state,
        result,
        plan: ShardPlan,
        engine_kwargs: Mapping[str, Any],
        faults=None,
    ) -> tuple[ProcessShardHandle, ...]:
        """Hot shard replacement on promote.

        The refit result is frozen into a fresh schema-v3 bundle, then
        swapped under the live workers in two phases: every worker
        ``prepare``s (loads the new bundle and builds the new engine
        while its old engine keeps answering anything already queued),
        then every worker ``commit``s (an atomic pointer swap).  A
        worker that fails to prepare is respawned straight onto the
        new bundle instead.
        """
        from repro.serving.artifact import ModelArtifact

        self._promotes += 1
        bundle = (
            self._ensure_run_dir() / f"promote-{self._promotes:04d}"
        )
        ModelArtifact.from_result(result).save(bundle)
        self._bundle = str(bundle)
        handles: list[ProcessShardHandle] = []
        for shard in range(plan.n_shards):
            handle = self._handles.get(shard)
            prepared = False
            if handle is not None and handle.is_alive():
                try:
                    handle.prepare(
                        self._bundle, plan, engine_kwargs, self._mmap
                    )
                    prepared = True
                except ServingError:
                    pass
            if not prepared:
                handle = self.rebuild(
                    shard, state, plan, engine_kwargs, faults
                )
            else:
                handle.commit()
            handles.append(handle)
        self._handles = {
            handle.shard: handle for handle in handles
        }
        return tuple(handles)

    def shutdown(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles = {}
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._listener = None
        if (
            self._owns_run_dir
            and self._run_dir is not None
            and self._run_dir.exists()
        ):
            shutil.rmtree(self._run_dir, ignore_errors=True)
            self._run_dir = None

    def describe(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "bundle": self._bundle,
            "mmap": self._mmap,
            "workers": {
                str(shard): {
                    "pid": handle.pid,
                    "alive": handle.is_alive(),
                    "spawn": handle._process.spawn,
                }
                for shard, handle in sorted(self._handles.items())
            },
        }

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.shutdown()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def _ensure_listener(self) -> socket.socket:
        if self._listener is None:
            listener = socket.create_server(
                ("127.0.0.1", 0), backlog=16
            )
            listener.settimeout(self._startup_timeout)
            self._listener = listener
        return self._listener

    def _ensure_run_dir(self) -> Path:
        if self._run_dir is None:
            self._run_dir = Path(
                tempfile.mkdtemp(prefix="repro-serving-run-")
            )
        else:
            self._run_dir.mkdir(parents=True, exist_ok=True)
        return self._run_dir

    def _spawn(
        self,
        shard: int,
        plan: ShardPlan,
        engine_kwargs: Mapping[str, Any],
        faults=None,
    ) -> ProcessShardHandle:
        host, port = self._ensure_listener().getsockname()
        process = _start_worker(f"{host}:{port}", shard)
        deadline = time.monotonic() + self._startup_timeout
        try:
            sock = self._accept_worker(shard, process, deadline)
            sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            send_message(
                sock,
                {
                    "op": "init",
                    "bundle": self._bundle,
                    "mmap": self._mmap,
                    "shard": shard,
                    "plan": plan_to_wire(plan),
                    "engine": dict(engine_kwargs),
                },
            )
            header, _ = recv_message(sock)
        except TransportError:
            process.kill()
            process.wait()
            raise
        if header.get("error") is not None:
            message = header["error"].get("message", "init failed")
            process.kill()
            process.wait()
            raise TransportError(
                f"shard {shard} worker failed to initialize: {message}"
            )
        return ProcessShardHandle(shard, process, sock, faults)

    def _accept_worker(
        self,
        shard: int,
        process: WorkerProcess,
        deadline: float,
    ) -> socket.socket:
        """Accept until the connection announcing ``shard`` arrives.

        Accept order is scheduler-dependent, so each worker opens with
        a ``hello`` naming its shard; a connection for another shard
        mid-respawn would be a protocol bug and is rejected loudly.
        """
        listener = self._listener
        assert listener is not None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or process.poll() is not None:
                raise TransportError(
                    f"shard {shard} worker did not come up within "
                    f"{self._startup_timeout}s "
                    f"(exit code {process.poll()})"
                )
            listener.settimeout(min(remaining, 1.0))
            try:
                sock, _ = listener.accept()
            except socket.timeout:
                continue
            hello, _ = recv_message(sock)
            if hello.get("op") != "hello":
                sock.close()
                raise TransportError(
                    f"worker handshake did not open with hello: "
                    f"{hello.get('op')!r}"
                )
            if int(hello.get("shard", -1)) != shard:
                sock.close()
                raise TransportError(
                    f"worker for shard {hello.get('shard')} connected "
                    f"while spawning shard {shard}"
                )
            return sock


def resolve_transport(transport) -> InprocessTransport | ProcessTransport:
    """Accept ``None`` / ``"inproc"`` / a transport instance."""
    if transport is None or transport == "inproc":
        return InprocessTransport()
    if transport == "process":
        raise ServingError(
            "the process transport needs the artifact bundle path: "
            "construct ProcessTransport(path) and pass the instance, "
            "or use ShardedEngine.load(path, ..., "
            "transport='process')"
        )
    if hasattr(transport, "start") and hasattr(transport, "rebuild"):
        return transport
    raise ServingError(
        f"transport must be None, 'inproc', or a transport instance, "
        f"got {transport!r}"
    )
