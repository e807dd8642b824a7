"""Versioned persistence of a fitted GenClus model.

A fitted model is frozen into a :class:`ModelArtifact` -- everything the
serving layer needs to answer membership queries without refitting:

* the ``(n, K)`` membership matrix Theta and the strength vector gamma,
* the relation list (fixing gamma's order) and the relation type
  declarations (for validating fold-in links),
* the node id / object-type map (fixing Theta's row order),
* the learned attribute component parameters (beta / mu, sigma^2) with
  their vocabularies,
* the per-outer-iteration diagnostics history (scalar fields only; the
  variable-length inner-EM objective traces are not persisted).

On disk an artifact is a schema-v3 **bundle directory**: one raw
``.npy`` file per array under ``arrays/`` plus a JSON ``manifest.json``
that names each array's file and records its CRC32.  ``np.load`` never
needs ``allow_pickle`` -- the format is plain arrays plus JSON, so
loading untrusted artifacts cannot execute code.

Raw ``.npy`` files open with ``np.load(..., mmap_mode="r")``, so
``load_artifact(path, mmap=True)`` returns lazily-paged read-only
views instead of eager copies -- cold start touches only the pages the
first queries actually read (``O(pages touched)``, not
``O(model size)``), and every shard partitioned from the state maps
the same frozen base instead of copying it.  Integrity is reconciled
**lazily**: under ``mmap=True`` the large arrays (theta, the edge
lists, the observation tables) carry their manifest CRC32s in an
:class:`ArtifactIntegrity` guard and are verified on **first
materialization** (the first private writable copy: theta growth in
``extend``, the refit path's hydration) rather than at load; the small
arrays (gamma, attribute parameters, history) verify eagerly, and
``mmap=False`` verifies everything at load.  Mutating paths never
write through the map -- ``np.load``'s ``"r"`` mode hands out
genuinely read-only pages, and every growth/refit path copies first
(copy-on-write by construction).

The bundle also embeds the *training data* -- the link lists of every
fitted relation and the raw attribute observation tables -- whenever
the saved result still carries them (any fresh fit does).  That makes
a reloaded model **refit-capable**: the network rebuilt by
:meth:`ModelArtifact.to_result` has its edges and observations back,
and :meth:`ModelArtifact.to_state` yields a
:class:`~repro.core.state.ModelState` that can warm-start a full new
``GenClus`` fit (the lifecycle loop: fit -> save -> load -> extend ->
promote).  ``ModelArtifact.from_result(result,
include_training_data=False)`` freezes a **serve-only** model instead
(nodes and schema, no links).

Versioning: :func:`load_artifact` reads only bundle directories of
schema :data:`SCHEMA_VERSION` and rejects anything else -- a file, a
foreign format marker, another version, a manifest without its
checksums -- with a :class:`~repro.exceptions.SerializationError`
naming the path.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.diagnostics import IterationRecord, RunHistory
from repro.core.result import GenClusResult
from repro.core.state import training_data_available
from repro.exceptions import SerializationError
from repro.faults import resolve_faults
from repro.hin.attributes import (
    NumericAttribute,
    TextAttribute,
)
from repro.hin.network import HeterogeneousNetwork
from repro.hin.schema import NetworkSchema

FORMAT = "repro.serving/artifact"
SCHEMA_VERSION = 3
MANIFEST_NAME = "manifest.json"

_SCALARS = (str, int, float, bool)


def _lazy_array_names(names) -> set[str]:
    """The arrays big enough to stay memory-mapped under ``mmap=True``
    (their CRC32 verification is deferred to first materialization):
    theta plus the embedded training payload.  Everything else --
    gamma, attribute parameters, the history -- is ``O(K)``-ish and
    verifies eagerly at load."""
    return {
        name
        for name in names
        if name == "theta" or name.startswith(("edges/", "obs/"))
    }


def _deferred_open_names(names) -> set[str]:
    """Arrays whose *files* are not even opened at load time under
    ``mmap=True``: the embedded training payload, which nothing reads
    before refit hydration.  (theta is also checksum-deferred but opens
    eagerly -- the first query pages it in.)  A serve-only cold start
    therefore opens a handful of small files, not one per relation and
    attribute."""
    return {
        name for name in names if name.startswith(("edges/", "obs/"))
    }


class _LazyPayload(dict):
    """Array payload of a mapped bundle.

    Deferred members (:func:`_deferred_open_names`) open on first
    ``[]`` access instead of at load time; ``in`` reports them as
    present so the manifest's missing-array accounting still works.
    A deferred file that is corrupt or has vanished fails on first
    access with the same path-and-array-naming
    :class:`~repro.exceptions.SerializationError` the eager load
    raises."""

    def __init__(self, bundle: Path) -> None:
        super().__init__()
        self.deferred: dict[str, Path] = {}
        self._bundle = bundle

    def __missing__(self, name: str) -> np.ndarray:
        member = self.deferred[name]  # KeyError: genuinely absent
        value = _open_member(self._bundle, name, member, mmap=True)
        self[name] = value
        return value

    def __contains__(self, name: object) -> bool:
        return super().__contains__(name) or name in self.deferred


class _LazyTable(Mapping):
    """Read-only mapping whose values build on first access (the
    per-relation edge triples / per-attribute observation tables of a
    mapped artifact -- building them eagerly would open every deferred
    payload file at load time)."""

    def __init__(self, keys, build) -> None:
        self._keys = tuple(keys)
        self._build = build
        self._cache: dict[str, Any] = {}

    def __getitem__(self, key):
        if key not in self._cache:
            if key not in self._keys:
                raise KeyError(key)
            self._cache[key] = self._build(key)
        return self._cache[key]

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class ArtifactIntegrity:
    """Deferred per-array CRC32 verification for memory-mapped bundles.

    Under ``mmap=True`` the big arrays stay lazily paged, so checking
    their checksums at load would read every page and defeat the
    ``O(pages touched)`` cold start.  This guard carries the
    manifest's recorded CRC32s instead and verifies each array the
    first time something **materializes** it -- makes a private
    writable copy or reads it end to end anyway (theta growth on the
    first ``extend``, the refit path's training-payload hydration,
    ``to_result``).  Verification is idempotent and thread-safe: the
    first verifier pays the CRC pass, later calls are a set lookup.
    A mismatch raises :class:`~repro.exceptions.SerializationError`
    naming the bundle path and the failing array, exactly like the
    eager check -- and keeps the array unverified, so every further
    materialization attempt fails too.
    """

    def __init__(
        self,
        path: Path,
        checksums: dict[str, int],
        arrays: dict[str, np.ndarray],
        lazy: set[str],
    ) -> None:
        self._path = Path(path)
        self._checksums = dict(checksums)
        # hold the payload mapping, not materialized arrays: deferred
        # members must not open their files until something verifies
        # (= materializes) them
        self._payload = arrays
        self._pending = {name for name in lazy if name in arrays}
        self._deferred_total = len(self._pending)
        self._verified: set[str] = set()
        self._lock = threading.Lock()

    def verify(self, *names: str) -> None:
        """Verify the named arrays now (no-op for already-verified or
        unknown names)."""
        for name in names:
            with self._lock:
                if name not in self._pending:
                    continue
                array = self._payload[name]
                actual = zlib.crc32(
                    np.ascontiguousarray(array).tobytes()
                )
                expected = int(self._checksums[name])
                if actual != expected:
                    raise SerializationError(
                        f"{self._path}: checksum mismatch for array "
                        f"{name!r} on first materialization (manifest "
                        f"records crc32={expected}, got {actual}); "
                        f"the bundle is corrupt or was modified after "
                        f"save. Pass verify_checksums=False to load "
                        f"anyway."
                    )
                self._pending.discard(name)
                self._verified.add(name)

    def verify_prefix(self, *prefixes: str) -> None:
        """Verify every pending array under the given key prefixes."""
        with self._lock:
            matching = [
                name
                for name in self._pending
                if name.startswith(prefixes)
            ]
        self.verify(*matching)

    def verify_pending(self) -> None:
        """Verify everything still unverified (full materialization)."""
        with self._lock:
            matching = list(self._pending)
        self.verify(*matching)

    def stats(self) -> dict[str, int]:
        """Telemetry: deferred-array counts for ``engine.info()``."""
        with self._lock:
            return {
                "arrays_deferred": self._deferred_total,
                "arrays_verified": len(self._verified),
                "arrays_pending": len(self._pending),
            }


@dataclass(frozen=True)
class ModelArtifact:
    """A fitted model frozen for persistence and serving.

    Attributes
    ----------
    theta:
        ``(n, K)`` membership matrix, rows ordered like ``node_ids``.
    gamma:
        ``(R,)`` strengths aligned with ``relation_names``.
    relation_names:
        Relations that carried links in the fit (gamma order).
    relation_types:
        ``{relation: (source_type, target_type)}`` for *every* relation
        declared in the training schema -- fold-in validates new links
        against these.
    node_ids:
        All fitted node ids in index order (JSON scalars).
    node_types:
        Object type of each node, aligned with ``node_ids``.
    object_types:
        All object type names declared in the training schema.
    attribute_params:
        Learned per-attribute component parameters, in the shape
        :class:`~repro.core.result.GenClusResult` uses.
    history:
        The fit's :class:`~repro.core.diagnostics.RunHistory`.
    edges:
        Refit payload: ``{relation: (sources, targets, weights)}``
        index arrays of the training links, or ``None`` for serve-only
        artifacts.
    observations:
        Refit payload: per fitted attribute, the raw
        observation table in compiled form (text: ``node_indices`` +
        counts CSR pieces; numeric: ``node_indices``/``values``/
        ``owners``), or ``None`` for serve-only artifacts.
    """

    theta: np.ndarray
    gamma: np.ndarray
    relation_names: tuple[str, ...]
    relation_types: dict[str, tuple[str, str]]
    node_ids: tuple[object, ...]
    node_types: tuple[str, ...]
    object_types: tuple[str, ...]
    attribute_params: dict[str, dict]
    history: RunHistory
    edges: (
        Mapping[str, tuple[np.ndarray, np.ndarray, np.ndarray]] | None
    ) = None
    observations: Mapping[str, dict[str, Any]] | None = None
    mapped: bool = False
    """Whether the arrays are lazily-paged read-only memory maps
    (``load_artifact(..., mmap=True)``)."""
    integrity: ArtifactIntegrity | None = field(
        default=None, repr=False, compare=False
    )
    """Lazy checksum guard for mapped bundles (``None`` for eager
    loads, ``verify_checksums=False``, and in-memory artifacts)."""

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.theta.shape[0])

    @property
    def refit_capable(self) -> bool:
        """Whether the artifact embeds the training data needed to
        warm-start a full refit."""
        return self.edges is not None and self.observations is not None

    @property
    def n_clusters(self) -> int:
        return int(self.theta.shape[1])

    def node_index(self) -> dict[object, int]:
        """``{node id: theta row}`` (a fresh dict)."""
        return {node: i for i, node in enumerate(self.node_ids)}

    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        result: GenClusResult,
        include_training_data: bool = True,
    ) -> ModelArtifact:
        """Freeze a fit into an artifact (arrays are copied).

        When ``include_training_data`` is true (the default) and the
        result's network still carries its links and the fitted
        attribute tables, they are embedded as the refit payload;
        otherwise the artifact is serve-only.  Results reloaded from
        serve-only bundles lack that data and freeze serve-only again.
        """
        network = result.network
        for node in network.node_ids:
            if not isinstance(node, _SCALARS):
                raise SerializationError(
                    f"node id {node!r} is not a JSON scalar; only "
                    f"str/int/float/bool ids can be persisted"
                )
        relation_types = {
            rel.name: (rel.source, rel.target)
            for rel in network.schema.relations
        }
        edges: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] | None
        observations: dict[str, dict[str, Any]] | None
        edges = observations = None
        has_training_data = training_data_available(
            network, tuple(result.attribute_params), result.relation_names
        )
        if include_training_data and has_training_data:
            edges = {
                name: tuple(
                    column.copy() for column in network.edge_arrays(name)
                )
                for name in result.relation_names
            }
            node_index = network.node_index
            observations = {}
            for name in result.attribute_params:
                attribute = network.attribute(name)
                compiled = attribute.compile(node_index)
                if isinstance(attribute, TextAttribute):
                    counts = compiled.counts.tocsr()
                    observations[name] = {
                        "kind": "categorical",
                        "node_indices": compiled.node_indices.copy(),
                        "data": counts.data.copy(),
                        "indices": counts.indices.copy(),
                        "indptr": counts.indptr.copy(),
                    }
                else:
                    observations[name] = {
                        "kind": "gaussian",
                        "node_indices": compiled.node_indices.copy(),
                        "values": compiled.values.copy(),
                        "owners": compiled.owners.copy(),
                    }
        return cls(
            theta=np.asarray(result.theta, dtype=np.float64).copy(),
            gamma=np.asarray(result.gamma, dtype=np.float64).copy(),
            relation_names=tuple(result.relation_names),
            relation_types=relation_types,
            node_ids=tuple(network.node_ids),
            node_types=tuple(network.node_types_view),
            object_types=tuple(
                t.name for t in network.schema.object_types
            ),
            attribute_params=_copy_params(result.attribute_params),
            history=result.history,
            edges=edges,
            observations=observations,
        )

    def to_result(self) -> GenClusResult:
        """Rebuild a :class:`GenClusResult`.

        Refit-capable artifacts reconstruct the **full** training
        network -- nodes, links, and attribute tables -- so the result
        can seed a new :class:`~repro.core.state.ModelState`; serve-only
        artifacts reconstruct nodes and schema without links.
        """
        # rebuilding a result materializes every array; settle any
        # deferred checksums first (mapped bundles)
        if self.integrity is not None:
            self.integrity.verify_pending()
        return GenClusResult(
            theta=self.theta.copy(),
            gamma=self.gamma.copy(),
            relation_names=self.relation_names,
            attribute_params=_copy_params(self.attribute_params),
            history=self.history,
            network=self._build_network(include_training_data=True),
        )

    def to_state(self):
        """Rebuild lifecycle state: refit-capable when the artifact
        embeds its training data, serve-only otherwise.

        The training payload is decoded **lazily**: serving starts on
        the ``O(nK)`` arrays alone, and the per-edge/per-observation
        reconstruction runs only when the state's refit path
        (``to_problem`` / ``promote``) first needs it.

        Mapped artifacts (``load_artifact(..., mmap=True)``) go one
        step further: the state's base theta **is the read-only map**
        (no copy at all -- the OS pages rows in as queries touch
        them), and the first mutating path that must copy the base
        rows (theta growth on ``extend``, eviction compaction, the
        promote refit) verifies theta's deferred checksum and
        materializes a private writable buffer.  The map itself is
        never written through.
        """
        from repro.core.state import ModelState

        integrity = self.integrity
        return ModelState(
            network=self._build_network(include_training_data=False),
            theta=self.theta if self.mapped else self.theta.copy(),
            gamma=self.gamma.copy(),
            relation_names=self.relation_names,
            attribute_names=tuple(self.attribute_params),
            attribute_params=_copy_params(self.attribute_params),
            refit_capable=self.refit_capable,
            hydrator=(
                self._hydrated_network if self.refit_capable else None
            ),
            copy_theta=not self.mapped,
            on_materialize=(
                (lambda: integrity.verify("theta"))
                if integrity is not None
                else None
            ),
        )

    def _build_network(
        self, include_training_data: bool
    ) -> HeterogeneousNetwork:
        schema = NetworkSchema()
        for name in self.object_types:
            schema.add_object_type(name)
        for name, (source, target) in self.relation_types.items():
            schema.add_relation(name, source, target)
        network = HeterogeneousNetwork(schema)
        network.add_node_columns(self.node_ids, self.node_types)
        if include_training_data and self.refit_capable:
            self._restore_training_data(network)
        return network

    def _hydrated_network(self) -> HeterogeneousNetwork:
        """The deferred refit payload: the full training network (the
        refit builds its link views from the materialized network)."""
        # hydration reads the whole training payload: settle the
        # deferred edge/observation checksums of a mapped bundle first
        if self.integrity is not None:
            self.integrity.verify_prefix("edges/", "obs/")
        return self._build_network(include_training_data=True)

    def _restore_training_data(
        self, network: HeterogeneousNetwork
    ) -> None:
        """Re-add embedded edges and observation tables to a rebuilt
        node-only network (indices are positions in ``node_ids``, which
        is the rebuilt network's own index order)."""
        for name, (sources, targets, weights) in self.edges.items():
            network.add_edge_arrays(name, sources, targets, weights)
        from scipy import sparse

        ids = self.node_ids
        for name, payload in self.observations.items():
            nodes = [ids[i] for i in payload["node_indices"].tolist()]
            if payload["kind"] == "categorical":
                vocabulary = self.attribute_params[name]["vocabulary"]
                attribute = TextAttribute(name, frozen_vocabulary=vocabulary)
                attribute.add_count_rows(nodes, sparse.csr_matrix(
                    (payload["data"], payload["indices"], payload["indptr"]),
                    shape=(len(nodes), len(vocabulary)),
                ))
            else:
                attribute = NumericAttribute(name)
                attribute.add_value_rows(
                    nodes, payload["values"], payload["owners"]
                )
            network.add_attribute(attribute)

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the artifact as a bundle directory at ``path``;
        returns ``path`` (see :func:`save_artifact`)."""
        return save_artifact(self, path)

    @classmethod
    def load(
        cls, path: str | Path, verify_checksums: bool = True, **kwargs
    ) -> ModelArtifact:
        """Read an artifact written by :meth:`save` (checksums
        verified by default; see :func:`load_artifact`)."""
        return load_artifact(
            path, verify_checksums=verify_checksums, **kwargs
        )

    def summary(self) -> str:
        """Readable overview of the persisted model."""
        capability = (
            "refit-capable (training data embedded)"
            if self.refit_capable
            else "serve-only"
        )
        lines = [
            f"GenClus artifact (schema v{SCHEMA_VERSION}): "
            f"{self.num_nodes} nodes, K={self.n_clusters}, {capability}",
            "object types: " + ", ".join(self.object_types),
            "link-type strengths:",
        ]
        for name, gamma in sorted(
            zip(self.relation_names, self.gamma), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {name:<24} {float(gamma):>10.4f}")
        for name, params in self.attribute_params.items():
            if params["kind"] == "categorical":
                detail = f"vocabulary of {len(params['vocabulary'])}"
            else:
                detail = f"{params['means'].shape[0]} components"
            lines.append(f"attribute {name!r}: {params['kind']}, {detail}")
        lines.append(
            f"outer iterations recorded: {len(self.history)}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# on-disk format
# ----------------------------------------------------------------------
def save_artifact(artifact: ModelArtifact, path: str | Path) -> Path:
    """Serialize the artifact as a bundle directory at ``path``.

    One raw ``.npy`` file per array under ``arrays/`` plus the JSON
    manifest as ``manifest.json`` -- the layout :func:`load_artifact`
    can memory-map.  The manifest records each array's CRC32 and a
    ``save_stats`` entry (array bytes written, wall seconds).

    Crash-safe: array files are named by index, not by array key --
    keys like ``attr/my text/beta`` carry separators and arbitrary
    characters, so the manifest's ``array_files`` mapping is the only
    source of truth for which file holds which array.  The manifest is
    written **last** (a bundle without it is detectably torn), and the
    whole directory is assembled under a same-directory temp name and
    swapped into place, so a crash mid-save leaves the old bundle (or
    nothing) at ``path``, never a partial one.
    """
    path = Path(path)
    started = time.perf_counter()
    # re-saving a mapped artifact reads every array end to end anyway:
    # settle any deferred checksums first so corruption cannot be
    # laundered into a freshly-checksummed bundle
    if artifact.integrity is not None:
        artifact.integrity.verify_pending()
    arrays: dict[str, np.ndarray] = {
        "theta": np.asarray(artifact.theta, dtype=np.float64),
        "gamma": np.asarray(artifact.gamma, dtype=np.float64),
    }
    attributes: list[dict[str, Any]] = []
    for name, params in artifact.attribute_params.items():
        entry: dict[str, Any] = {"name": name, "kind": params["kind"]}
        if params["kind"] == "categorical":
            arrays[f"attr/{name}/beta"] = np.asarray(
                params["beta"], dtype=np.float64
            )
            entry["vocabulary"] = list(params["vocabulary"])
        elif params["kind"] == "gaussian":
            arrays[f"attr/{name}/means"] = np.asarray(
                params["means"], dtype=np.float64
            )
            arrays[f"attr/{name}/variances"] = np.asarray(
                params["variances"], dtype=np.float64
            )
        else:  # pragma: no cover - defensive
            raise SerializationError(
                f"attribute {name!r} has unknown kind {params['kind']!r}"
            )
        attributes.append(entry)

    records = artifact.history.records
    arrays["history/gamma"] = (
        np.stack([r.gamma for r in records])
        if records
        else np.zeros((0, len(artifact.relation_names)))
    )
    arrays["history/scalars"] = np.asarray(
        [
            [
                float(r.outer_iteration),
                r.g1_value,
                r.g2_value,
                float(r.em_iterations),
                float(r.newton_iterations),
                r.em_seconds,
                r.newton_seconds,
            ]
            for r in records
        ],
        dtype=np.float64,
    ).reshape(len(records), 7)

    if artifact.refit_capable:
        for name, (sources, targets, weights) in artifact.edges.items():
            arrays[f"edges/{name}/sources"] = np.asarray(
                sources, dtype=np.int64
            )
            arrays[f"edges/{name}/targets"] = np.asarray(
                targets, dtype=np.int64
            )
            arrays[f"edges/{name}/weights"] = np.asarray(
                weights, dtype=np.float64
            )
        for name, payload in artifact.observations.items():
            if payload["kind"] == "categorical":
                keys = ("node_indices", "data", "indices", "indptr")
            else:
                keys = ("node_indices", "values", "owners")
            for key in keys:
                arrays[f"obs/{name}/{key}"] = np.asarray(payload[key])

    # the node table stays out of the JSON manifest: at ~100k nodes
    # a [{"id": ..., "type": ...}] list dominates the manifest parse on
    # every cold start, while two flat arrays (unicode ids + type codes
    # into a small table) decode in microseconds.  Non-string ids (JSON
    # scalars are allowed) fall back to the manifest list.
    node_columns = all(isinstance(node, str) for node in artifact.node_ids)
    if node_columns:
        type_table = sorted(set(artifact.node_types))
        code_of = {name: code for code, name in enumerate(type_table)}
        arrays["nodes/ids"] = np.asarray(artifact.node_ids)
        arrays["nodes/type_codes"] = np.asarray(
            [code_of[name] for name in artifact.node_types],
            dtype=np.uint16,
        )

    manifest = {
        "format": FORMAT,
        "schema_version": SCHEMA_VERSION,
        "n_clusters": artifact.n_clusters,
        "relation_names": list(artifact.relation_names),
        "relation_types": {
            name: list(pair)
            for name, pair in artifact.relation_types.items()
        },
        "object_types": list(artifact.object_types),
        "attributes": attributes,
        "arrays": sorted(arrays),
        # per-array CRC32s over the raw buffer bytes; verified by
        # load_artifact (the manifest cannot checksum itself)
        "checksums": {
            name: zlib.crc32(np.ascontiguousarray(value).tobytes())
            for name, value in arrays.items()
        },
    }
    if node_columns:
        manifest["node_type_table"] = type_table
    else:
        manifest["nodes"] = [
            {"id": node, "type": typ}
            for node, typ in zip(artifact.node_ids, artifact.node_types)
        ]
    manifest["refit_capable"] = artifact.refit_capable
    array_files = {
        name: f"arrays/{index:04d}.npy"
        for index, name in enumerate(sorted(arrays))
    }
    manifest["array_files"] = array_files
    scratch = path.with_name(path.name + f".tmp-{os.getpid()}")
    if scratch.exists():  # pragma: no cover - stale crash debris
        shutil.rmtree(scratch)
    try:
        # no parents=True: a missing target directory is the caller's
        # error
        scratch.mkdir()
        (scratch / "arrays").mkdir()
        for name, relpath in array_files.items():
            np.save(scratch / relpath, arrays[name], allow_pickle=False)
        manifest["save_stats"] = {
            "array_bytes": int(
                sum(value.nbytes for value in arrays.values())
            ),
            "seconds": round(time.perf_counter() - started, 6),
            "compressed": False,
        }
        (scratch / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )
        _replace_bundle(scratch, path)
    except BaseException:
        shutil.rmtree(scratch, ignore_errors=True)
        raise
    return path


def _replace_bundle(scratch: Path, path: Path) -> None:
    """Swap the ``scratch`` directory into place at ``path``.

    ``os.replace`` cannot rename a directory over a non-empty directory
    or a file, so whatever is at ``path`` is first renamed aside to
    ``<name>.old`` and removed only after the swap succeeds; on failure
    it is restored.
    """
    backup: Path | None = None
    if path.exists():
        backup = path.with_name(path.name + ".old")
        if backup.is_dir():
            shutil.rmtree(backup)
        else:
            backup.unlink(missing_ok=True)
        os.replace(path, backup)
    try:
        os.replace(scratch, path)
    except BaseException:
        if backup is not None:
            os.replace(backup, path)
        raise
    if backup is not None:
        if backup.is_dir():
            shutil.rmtree(backup)
        else:
            backup.unlink()


def load_artifact(
    path: str | Path,
    verify_checksums: bool = True,
    mmap: bool = False,
    faults=None,
) -> ModelArtifact:
    """Deserialize an artifact bundle directory, checking its format,
    version and integrity.

    ``mmap=True`` opens every array with ``np.load(..., mmap_mode="r")``:
    the returned artifact holds lazily-paged read-only views, cold
    start touches only the pages the first queries read, and the big
    arrays' checksums are deferred to an :class:`ArtifactIntegrity`
    guard verified on first materialization.

    Array files are resolved strictly through the manifest's
    ``array_files`` mapping, and every resolved path must stay inside
    the bundle directory -- a tampered manifest cannot read files
    elsewhere on disk.  Each array decodes individually, so a
    truncated or corrupt bundle fails with a
    :class:`~repro.exceptions.SerializationError` naming the path and
    the failing array (never a raw ``numpy`` traceback); with
    ``verify_checksums`` (the default) every array is then verified
    against the per-array CRC32s the manifest records -- catching even
    single-bit corruption that still decodes (deferred for the mapped
    big arrays, :func:`_lazy_array_names`).  ``faults`` optionally
    traverses the ``artifact.load`` site.
    """
    path = Path(path)
    injector = resolve_faults(faults)
    if injector is not None:
        injector.traverse("artifact.load", path=str(path))
    if not path.is_dir():
        raise SerializationError(
            f"{path} is not an artifact bundle: expected a schema "
            f"v{SCHEMA_VERSION} bundle directory"
        )
    try:
        manifest = json.loads(
            (path / MANIFEST_NAME).read_text(encoding="utf-8")
        )
    except OSError as exc:
        raise SerializationError(
            f"{path} has no readable {MANIFEST_NAME}; "
            f"not a serving artifact bundle: {exc}"
        ) from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"{path} carries a malformed manifest: {exc}"
        ) from exc
    _check_manifest(path, manifest)
    array_files = manifest["array_files"]
    names = manifest.get("arrays", ())
    defer = _deferred_open_names(names) if mmap else set()
    payload: dict[str, np.ndarray] = (
        _LazyPayload(path) if mmap else {}
    )
    for name in names:
        relpath = array_files.get(name)
        if relpath is None:
            continue  # absence is _decode's "missing arrays" error
        member = _guarded_member(path, name, relpath)
        if name in defer:
            payload.deferred[name] = member
            continue
        payload[name] = _open_member(path, name, member, mmap)
    lazy = _lazy_array_names(names) if mmap else set()
    try:
        artifact = _decode(manifest, payload)
    except (KeyError, TypeError, IndexError) as exc:
        raise SerializationError(
            f"malformed artifact payload in {path}: {exc}"
        ) from exc
    integrity: ArtifactIntegrity | None = None
    if verify_checksums:
        checksums = manifest["checksums"]
        _verify_checksums(path, checksums, payload, skip=lazy)
        deferred = {name for name in lazy if name in checksums}
        if deferred:
            integrity = ArtifactIntegrity(
                path, checksums, payload, deferred
            )
    return replace(artifact, mapped=mmap, integrity=integrity)


def _guarded_member(path: Path, name: str, relpath: object) -> Path:
    """Resolve an ``array_files`` entry, rejecting traversal by string
    validation alone -- no filesystem access (``Path.resolve`` per
    member is measurable cold-start latency), no absolute paths, no
    ``..``/empty segments, no Windows drive or separator tricks."""
    parts = relpath.split("/") if isinstance(relpath, str) else None
    if (
        not parts
        or relpath[:1] in ("/", "\\")
        or any(part in ("", ".", "..") for part in parts)
        or any("\\" in part or ":" in part for part in parts)
    ):
        raise SerializationError(
            f"{path} manifest maps array {name!r} to {relpath!r}, "
            f"which escapes the bundle directory; refusing to load"
        )
    return path / relpath


def _open_member(
    bundle: Path, name: str, member: Path, mmap: bool
) -> np.ndarray:
    """Open one ``.npy`` member, naming the bundle and array on error."""
    try:
        return np.load(
            member,
            mmap_mode="r" if mmap else None,
            allow_pickle=False,
        )
    except (OSError, EOFError, ValueError) as exc:
        raise SerializationError(
            f"{bundle} is corrupt: array {name!r} failed to decode "
            f"({exc})"
        ) from exc


def _check_manifest(path: Path, manifest: dict[str, Any]) -> None:
    """Reject wrong-format, unsupported-version and malformed
    manifests."""
    if manifest.get("format") != FORMAT:
        raise SerializationError(
            f"{path}: unsupported format marker "
            f"{manifest.get('format')!r}; expected {FORMAT!r}"
        )
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SerializationError(
            f"{path}: artifact schema version {version!r} is not "
            f"supported by this library (supported: {SCHEMA_VERSION}); "
            f"re-export the model or upgrade the library"
        )
    for key in ("array_files", "checksums"):
        if not isinstance(manifest.get(key), dict):
            raise SerializationError(
                f"{path} manifest declares no {key} mapping; the "
                f"bundle directory is malformed"
            )


def _verify_checksums(
    path: Path,
    recorded: dict[str, int],
    payload: dict[str, np.ndarray],
    skip: set[str] = frozenset(),
) -> None:
    """Compare each array against the manifest's recorded CRC32.

    Structural validation (:func:`_decode`) has already passed, so a
    mismatch here means value corruption that still decodes -- flipped
    bits, a swapped array, tampering.  ``skip`` holds the
    lazily-verified arrays of a mapped load (they belong to an
    :class:`ArtifactIntegrity` guard instead).
    """
    for name, expected in recorded.items():
        if name in skip:
            continue
        array = payload.get(name)
        if array is None:
            continue  # absence is _decode's "missing arrays" error
        actual = zlib.crc32(np.ascontiguousarray(array).tobytes())
        if actual != int(expected):
            raise SerializationError(
                f"{path}: checksum mismatch for array {name!r} "
                f"(manifest records crc32={expected}, got {actual}); "
                f"the bundle is corrupt or was modified after save. "
                f"Pass verify_checksums=False to load anyway."
            )


def _decode(
    manifest: dict[str, Any], payload: dict[str, np.ndarray]
) -> ModelArtifact:
    missing = [key for key in manifest["arrays"] if key not in payload]
    if missing:
        raise SerializationError(
            f"artifact is missing declared arrays: {missing}"
        )
    theta = np.asarray(payload["theta"], dtype=np.float64)
    gamma = np.asarray(payload["gamma"], dtype=np.float64)
    relation_names = tuple(manifest["relation_names"])
    if theta.ndim != 2:
        raise SerializationError(
            f"theta must be 2-D, got shape {theta.shape}"
        )
    if theta.shape[1] != int(manifest["n_clusters"]):
        raise SerializationError(
            f"theta has {theta.shape[1]} columns but the manifest "
            f"declares n_clusters={manifest['n_clusters']}"
        )
    nodes = manifest.get("nodes")
    if nodes is not None:
        node_ids = tuple(entry["id"] for entry in nodes)
        node_types = tuple(entry["type"] for entry in nodes)
    else:
        # node columns: unicode id array + type codes into the
        # manifest's small type table
        type_table = manifest["node_type_table"]
        node_ids = tuple(np.asarray(payload["nodes/ids"]).tolist())
        node_types = tuple(
            type_table[code]
            for code in payload["nodes/type_codes"].tolist()
        )
    if theta.shape[0] != len(node_ids):
        raise SerializationError(
            f"theta has {theta.shape[0]} rows but the manifest lists "
            f"{len(node_ids)} nodes"
        )
    if gamma.shape != (len(relation_names),):
        raise SerializationError(
            f"gamma has shape {gamma.shape} but the manifest lists "
            f"{len(relation_names)} relations"
        )

    attribute_params: dict[str, dict] = {}
    for entry in manifest["attributes"]:
        name = entry["name"]
        if entry["kind"] == "categorical":
            attribute_params[name] = {
                "kind": "categorical",
                "beta": np.asarray(
                    payload[f"attr/{name}/beta"], dtype=np.float64
                ),
                "vocabulary": tuple(entry["vocabulary"]),
            }
        elif entry["kind"] == "gaussian":
            attribute_params[name] = {
                "kind": "gaussian",
                "means": np.asarray(
                    payload[f"attr/{name}/means"], dtype=np.float64
                ),
                "variances": np.asarray(
                    payload[f"attr/{name}/variances"], dtype=np.float64
                ),
            }
        else:
            raise SerializationError(
                f"unknown attribute kind {entry['kind']!r}"
            )

    history = RunHistory(relation_names=relation_names)
    gammas = payload["history/gamma"]
    scalars = payload["history/scalars"]
    for row, gamma_row in zip(scalars, gammas):
        history.append(
            IterationRecord(
                outer_iteration=int(row[0]),
                gamma=np.asarray(gamma_row, dtype=np.float64),
                g1_value=float(row[1]),
                g2_value=float(row[2]),
                em_iterations=int(row[3]),
                newton_iterations=int(row[4]),
                em_seconds=float(row[5]),
                newton_seconds=float(row[6]),
            )
        )

    edges = observations = None
    if manifest.get("refit_capable"):
        attribute_kinds = {
            entry["name"]: entry["kind"]
            for entry in manifest["attributes"]
        }

        def _edge_triple(name):
            return (
                np.asarray(
                    payload[f"edges/{name}/sources"], dtype=np.int64
                ),
                np.asarray(
                    payload[f"edges/{name}/targets"], dtype=np.int64
                ),
                np.asarray(
                    payload[f"edges/{name}/weights"], dtype=np.float64
                ),
            )

        def _observation_table(name):
            if attribute_kinds[name] == "categorical":
                return {
                    "kind": "categorical",
                    "node_indices": np.asarray(
                        payload[f"obs/{name}/node_indices"],
                        dtype=np.int64,
                    ),
                    "data": np.asarray(
                        payload[f"obs/{name}/data"], dtype=np.float64
                    ),
                    "indices": np.asarray(
                        payload[f"obs/{name}/indices"], dtype=np.int64
                    ),
                    "indptr": np.asarray(
                        payload[f"obs/{name}/indptr"], dtype=np.int64
                    ),
                }
            return {
                "kind": "gaussian",
                "node_indices": np.asarray(
                    payload[f"obs/{name}/node_indices"],
                    dtype=np.int64,
                ),
                "values": np.asarray(
                    payload[f"obs/{name}/values"], dtype=np.float64
                ),
                "owners": np.asarray(
                    payload[f"obs/{name}/owners"], dtype=np.int64
                ),
            }

        if isinstance(payload, _LazyPayload) and payload.deferred:
            # mapped bundle: keep the training payload's files closed
            # until refit hydration first reads them
            edges = _LazyTable(relation_names, _edge_triple)
            observations = _LazyTable(
                tuple(attribute_kinds), _observation_table
            )
        else:
            edges = {
                name: _edge_triple(name) for name in relation_names
            }
            observations = {
                name: _observation_table(name)
                for name in attribute_kinds
            }

    return ModelArtifact(
        theta=theta,
        gamma=gamma,
        relation_names=relation_names,
        relation_types={
            name: (pair[0], pair[1])
            for name, pair in manifest["relation_types"].items()
        },
        node_ids=node_ids,
        node_types=node_types,
        object_types=tuple(manifest["object_types"]),
        attribute_params=attribute_params,
        history=history,
        edges=edges,
        observations=observations,
    )


def _copy_params(params: dict[str, dict]) -> dict[str, dict]:
    """Deep-enough copy of the attribute parameter dict (arrays copied)."""
    copied: dict[str, dict] = {}
    for name, entry in params.items():
        fresh = dict(entry)
        for key in ("beta", "means", "variances"):
            if key in fresh:
                fresh[key] = np.asarray(
                    fresh[key], dtype=np.float64
                ).copy()
        copied[name] = fresh
    return copied
