"""The shard worker process: one engine behind a socket.

:class:`~repro.serving.transport.ProcessTransport` starts one worker
per shard.  While the serving process has no other Python thread it
forks the worker, which enters :func:`run_forked` with every module
already imported; otherwise it execs ``python -m repro.serving.worker
--connect HOST:PORT --shard N``, which enters :func:`main`.  Both
paths then run the same :func:`serve` loop, so they build the same
engine.  The worker dials back to the transport's listener, opens
with a ``hello`` naming its shard, and waits for ``init``: the
artifact bundle path, the serialized
:class:`~repro.serving.cluster.ShardPlan`, and the engine knobs.  It
loads the bundle (``mmap=True`` pages the frozen base lazily and
shares it read-only with every sibling worker through the OS page
cache), partitions out its own shard state, and builds the same
:class:`~repro.serving.engine.InferenceEngine` the in-process
transport would -- so every answer is bit-identical by construction.

After init the worker is a plain dispatch loop: one request frame in,
one reply frame out, in order (the router's scatter provides
cross-shard concurrency; a single shard's calls are serialized on
both sides).  Besides the lifecycle ops (``init``, ``prepare``,
``commit``, ``ping``, ``crash``, ``shutdown``) every op names an
engine method in :data:`~repro.serving.transport.SHARD_OPS`, whose
entry decodes the call's arguments and encodes its reply.  Score
calls arrive as compiled query batches in raw array planes
(:func:`~repro.serving.transport.decode_batch`), so the worker parses
no per-query JSON and builds no
:class:`~repro.serving.foldin.NewNode`.  Replies either carry the op's
payload or an ``error`` header re-raised router-side as
:class:`~repro.serving.transport.RemoteShardError` (or
:class:`~repro.serving.transport.TransportError` for a frame the
worker read but could not parse) -- a worker never dies on a bad
request or a malformed frame, only on ``shutdown``, a broken socket
(its router is gone), or the test-only ``crash`` op (``os._exit``, the
scripted process-death drill).

Hot promote: ``prepare`` loads the *next* bundle and builds the new
engine off to the side while the current one keeps answering;
``commit`` swaps the pointer.  A worker that dies instead is respawned
by the transport and the router replays its durable-delta log.
"""

from __future__ import annotations

import argparse
import gc
import os
import signal
import socket
import stat
import sys
import traceback
from typing import NoReturn

import numpy as np

from repro.exceptions import ServingError
from repro.serving.engine import InferenceEngine
from repro.serving.transport import (
    SHARD_OPS,
    decode_payload,
    plan_from_wire,
    recv_payload,
    send_message,
)


class _Worker:
    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.engine: InferenceEngine | None = None
        self.pending: InferenceEngine | None = None

    def _build_engine(self, header: dict) -> InferenceEngine:
        """The engine an ``init`` or ``prepare`` header describes."""
        from repro.serving.artifact import ModelArtifact

        plan = plan_from_wire(header["plan"])
        state = ModelArtifact.load(
            header["bundle"], mmap=bool(header.get("mmap", True))
        ).to_state()
        return InferenceEngine.from_state(
            state.partition_shard(plan, self.shard),
            shard_id=self.shard,
            shard_count=plan.n_shards,
            **header.get("engine", {}),
        )

    def dispatch(
        self, header: dict, arrays: list[np.ndarray]
    ) -> tuple[dict, list[np.ndarray]]:
        op = header["op"]
        if op == "ping":
            return {"pong": True, "shard": self.shard}, []
        if op == "crash":
            # the scripted process-death drill: die without cleanup,
            # exactly like a SIGKILL'd worker
            os._exit(17)
        if op == "init":
            self.engine = self._build_engine(header)
            return {"ready": True}, []
        if op == "prepare":
            self.pending = self._build_engine(header)
            return {"prepared": True}, []
        if op == "commit":
            if self.pending is None:
                raise ServingError(
                    "commit without a prepared engine"
                )
            self.engine = self.pending
            self.pending = None
            return {"committed": True}, []
        if self.engine is None:
            raise ServingError(
                f"shard {self.shard} worker received {op!r} before "
                f"init"
            )
        shard_op = SHARD_OPS.get(op)
        if shard_op is None:
            raise ServingError(f"unknown worker op {op!r}")
        call = shard_op.args.decode(header["args"], arrays)
        value = getattr(self.engine, op)(**vars(call))
        reply_arrays: list[np.ndarray] = []
        return {
            "value": shard_op.reply.encode(value, reply_arrays)
        }, reply_arrays


def serve(connect: str, shard: int) -> int:
    host, _, port = connect.rpartition(":")
    sock = socket.create_connection((host, int(port)))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_message(sock, {"op": "hello", "shard": shard})
    worker = _Worker(shard)
    while True:
        try:
            payload = recv_payload(sock)
        except ServingError:
            # the router is gone; nothing left to serve
            return 0
        try:
            header, arrays = decode_payload(payload)
            if header.get("op") == "shutdown":
                return 0
            reply, reply_arrays = worker.dispatch(header, arrays)
            reply["error"] = None
        except ServingError as exc:
            reply, reply_arrays = (
                {
                    "error": {
                        "message": str(exc),
                        "type": type(exc).__name__,
                        "serving": True,
                    }
                },
                [],
            )
        except Exception as exc:  # noqa: BLE001 - report, don't die
            reply, reply_arrays = (
                {
                    "error": {
                        "message": str(exc),
                        "type": type(exc).__name__,
                        "serving": False,
                    }
                },
                [],
            )
        send_message(sock, reply, reply_arrays)


def run_forked(connect: str, shard: int) -> NoReturn:
    """Serve as a worker forked from the serving process; never returns.

    The child is made to look like an exec'd worker first: it drops
    the sockets and pipes it inherited (the transport's listener and
    the parent's ends of earlier workers' connections, which would
    otherwise keep a sibling from seeing its router hang up) and
    restores the default SIGTERM and SIGINT dispositions.  It ends in
    ``os._exit``, so it never unwinds into the caller's stack (a test
    runner, ``atexit`` hooks, ``finally`` blocks).
    """
    code = 1
    try:
        # the parent's objects are never collected here, so no stale
        # finalizer (a transport's __del__, a socket's close) can run
        gc.freeze()
        _drop_inherited_channels()
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, signal.SIG_DFL)
        code = serve(connect, shard)
    except Exception:  # noqa: BLE001 - report, then exit
        traceback.print_exc()
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except Exception:  # noqa: BLE001 - exiting anyway
                pass
        os._exit(code)


def _drop_inherited_channels() -> None:
    """Point every inherited socket or pipe above stdio at /dev/null.

    Overwriting the descriptor (rather than closing it) releases the
    channel while keeping its number taken, so a Python object of the
    parent that still names that number can never close a descriptor
    this worker opens later, such as its own connection.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir(fd_dir):
            fd = int(name)
            if fd <= 2 or fd == null:
                continue
            try:
                mode = os.fstat(fd).st_mode
            except OSError:  # the directory listing's own descriptor
                continue
            if stat.S_ISSOCK(mode) or stat.S_ISFIFO(mode):
                os.dup2(null, fd, inheritable=False)
    finally:
        os.close(null)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.worker",
        description="shard worker process (exec'd by ProcessTransport)",
    )
    parser.add_argument(
        "--connect",
        required=True,
        help="transport listener to dial back to, HOST:PORT",
    )
    parser.add_argument(
        "--shard",
        type=int,
        required=True,
        help="this worker's shard id",
    )
    args = parser.parse_args(argv)
    return serve(args.connect, args.shard)


if __name__ == "__main__":
    sys.exit(main())
