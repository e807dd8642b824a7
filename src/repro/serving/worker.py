"""The shard worker process: one engine behind a socket.

``python -m repro.serving.worker --connect HOST:PORT --shard N`` is
what :class:`~repro.serving.transport.ProcessTransport` spawns, one
per shard.  The worker dials back to the transport's listener, opens
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
both sides).  Score calls arrive as compiled query batches in raw
array planes (:func:`~repro.serving.transport.decode_batch`), so the
worker parses no per-query JSON and builds no
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
import os
import socket
import sys

import numpy as np

from repro.exceptions import ServingError
from repro.serving.engine import InferenceEngine
from repro.serving.transport import (
    decode_batch,
    decode_link,
    decode_node,
    decode_payload,
    decode_spec,
    encode_node,
    encode_spec,
    plan_from_wire,
    recv_payload,
    send_message,
)


def _build_engine(
    bundle: str, mmap: bool, shard: int, plan_wire, engine_kwargs
) -> InferenceEngine:
    from repro.serving.artifact import ModelArtifact

    plan = plan_from_wire(plan_wire)
    state = ModelArtifact.load(bundle, mmap=mmap).to_state()
    shard_state = state.partition_shard(plan, shard)
    return InferenceEngine.from_state(
        shard_state,
        shard_id=shard,
        shard_count=plan.n_shards,
        **engine_kwargs,
    )


class _Worker:
    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.engine: InferenceEngine | None = None
        self.pending: InferenceEngine | None = None

    # ------------------------------------------------------------------
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
            self.engine = _build_engine(
                header["bundle"],
                bool(header.get("mmap", True)),
                self.shard,
                header["plan"],
                header.get("engine", {}),
            )
            return {"ready": True}, []
        if op == "prepare":
            self.pending = _build_engine(
                header["bundle"],
                bool(header.get("mmap", True)),
                self.shard,
                header["plan"],
                header.get("engine", {}),
            )
            return {"prepared": True}, []
        if op == "commit":
            if self.pending is None:
                raise ServingError(
                    "commit without a prepared engine"
                )
            self.engine = self.pending
            self.pending = None
            return {"committed": True}, []
        engine = self.engine
        if engine is None:
            raise ServingError(
                f"shard {self.shard} worker received {op!r} before "
                f"init"
            )
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ServingError(f"unknown worker op {op!r}")
        return handler(engine, header, arrays)

    # -- scoring -------------------------------------------------------
    def _op_query(self, engine, header, arrays):
        return {}, [engine.query_batch(decode_batch(header, arrays))]

    def _op_score_batch(self, engine, header, arrays):
        rows = engine.score_batch(decode_batch(header, arrays))
        if not rows:
            return {}, [
                np.empty((0, engine.n_clusters), dtype=np.float64)
            ]
        return {}, [np.stack(rows)]

    def _op_similar_rows_partial(self, engine, header, arrays):
        exclude_nodes = None
        if "exclude_nodes" in header:
            exclude_nodes = [
                None
                if excluded is None
                else {decode_node(node) for node in excluded}
                for excluded in header["exclude_nodes"]
            ]
        base_range = header.get("base_range")
        partials = engine.similar_rows_partial(
            arrays[0],
            header["k"],
            header["metric"],
            candidate_types=header.get("candidate_types"),
            exclude_nodes=exclude_nodes,
            base_range=(
                tuple(base_range) if base_range is not None else None
            ),
        )
        flat: list[np.ndarray] = []
        for scores, rows in partials:
            flat.append(scores)
            flat.append(rows)
        return {}, flat

    def _op_membership_of(self, engine, header, arrays):
        return {}, [engine.membership_of(decode_node(header["node"]))]

    # -- durable deltas ------------------------------------------------
    def _op_extend(self, engine, header, arrays):
        outcome = engine.extend(
            [decode_spec(wire) for wire in header["specs"]]
        )
        return self._outcome_reply(outcome)

    def _op_add_links(self, engine, header, arrays):
        outcome = engine.add_links(
            [decode_link(wire) for wire in header["links"]]
        )
        return self._outcome_reply(outcome)

    def _op_evict_nodes(self, engine, header, arrays):
        evicted = engine.evict_nodes(
            [decode_node(node) for node in header["nodes"]]
        )
        return {
            "evicted": [encode_node(node) for node in evicted]
        }, []

    @staticmethod
    def _outcome_reply(outcome):
        return (
            {
                "nodes": [
                    encode_node(node) for node in outcome.nodes
                ],
                "iterations": outcome.iterations,
                "converged": outcome.converged,
                "oov_terms": outcome.oov_terms,
            },
            [outcome.theta],
        )

    # -- router context reads ------------------------------------------
    def _op_served_vector(self, engine, header, arrays):
        vector, node_type = engine.served_vector(
            decode_node(header["node"])
        )
        return {"node_type": node_type}, [vector]

    def _op_suggest_context(self, engine, header, arrays):
        vector, target_type, linked = engine.suggest_context(
            decode_node(header["node"]), header["relation"]
        )
        return {
            "target_type": target_type,
            "linked": (
                None
                if linked is None
                else [encode_node(target) for target in linked]
            ),
        }, [vector]

    def _op_extension_nodes(self, engine, header, arrays):
        return {
            "nodes": [
                encode_node(node)
                for node in engine.extension_nodes()
            ]
        }, []

    def _op_extension_export(self, engine, header, arrays):
        nodes, specs, rows = engine.extension_export()
        return {
            "nodes": [encode_node(node) for node in nodes],
            "specs": [encode_spec(spec) for spec in specs],
        }, [rows]

    def _op_extension_dependants(self, engine, header, arrays):
        dependants = engine.extension_dependants(
            decode_node(header["node"])
        )
        return {
            "dependants": [
                encode_node(source) for source in dependants
            ]
        }, []

    # -- telemetry -----------------------------------------------------
    def _op_info(self, engine, header, arrays):
        return {"info": engine.info()}, []

    def _op_metrics_snapshot(self, engine, header, arrays):
        return {"snapshot": engine.metrics_snapshot()}, []


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.worker",
        description="shard worker process (spawned by ProcessTransport)",
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
