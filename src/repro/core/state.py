"""The shared, versioned model state of the whole lifecycle.

A fitted GenClus model used to die in three disconnected shapes: the
trainer's private ``(theta, gamma, params)`` locals, the serving
artifact's frozen arrays, and the inference engine's growable extension
buffers.  :class:`ModelState` is the one mutable container they all
read and write instead:

* **Training** -- ``GenClus.fit_problem(..., warm_start=state)`` starts
  Algorithm 1 from the state's theta/gamma/attribute parameters instead
  of re-initializing, and :meth:`ModelState.from_result` captures a
  finished fit (including its network).
* **Serving** -- the engine's durable deltas
  (:meth:`append_extensions`, link deltas, eviction) mutate the state's
  extension space: a doubling-capacity theta buffer plus live node
  index/type maps, so streaming extends stay amortized ``O(delta)``.
* **Refit** -- :meth:`to_problem` materializes base + extensions into
  one network and compiles it into a solver-ready
  :class:`~repro.core.problem.ClusteringProblem` exactly as a fresh fit
  would (link views from
  :func:`~repro.hin.views.build_relation_matrices`, one ``O(|E|)``
  pass, cheaper than a single EM sweep), closing the loop:
  fit -> save -> load -> extend -> promote -> fit.

Nothing derived is carried across growth: the compiled views depend
only on the materialized network, and every block plan only on the
row count and ``K`` (:meth:`ModelState.block_plan`), so a model that
was extended, promoted, saved and reloaded fits, scores and reports
exactly like one that reached the same network any other way.

Every mutation bumps :attr:`version`; derived structures (the
materialized problem, the serving view's vocabulary index) are cached
against it and invalidated only when the state actually changed.

A state is either **refit-capable** (its network carries the training
links and attribute observations -- fresh fits, artifacts saved with
their training data) or **serve-only** (artifacts frozen with
``include_training_data=False``: parameters and memberships but no
training data); serve-only states answer queries and absorb deltas but
refuse :meth:`to_problem`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.attribute_models import (
    AttributeModel,
    CategoricalModel,
    GaussianModel,
)
from repro.core.problem import ClusteringProblem
from repro.exceptions import StateError
from repro.hin.attributes import TextAttribute
from repro.hin.network import HeterogeneousNetwork
from repro.hin.views import build_relation_matrices

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serving)
    from repro.core.result import GenClusResult
    from repro.serving.foldin import FrozenModel, NewNode

_INITIAL_EXTENSION_CAPACITY = 64


def training_data_available(
    network: HeterogeneousNetwork,
    attribute_names: Sequence[str],
    relation_names: Sequence[str],
) -> bool:
    """Whether a network still carries the training data a fit used.

    The single source of truth for refit capability, shared by
    :meth:`ModelState.from_result` and
    :meth:`repro.serving.artifact.ModelArtifact.from_result`: every
    fitted attribute table must be attached, and the links must be
    present too -- unless the fit had no relations at all
    (attributes-only networks refit fine).
    """
    return all(
        network.has_attribute(name) for name in attribute_names
    ) and (network.num_edges() > 0 or not relation_names)


class ModelState:
    """One mutable, versioned container for a model's whole lifecycle.

    Parameters
    ----------
    network:
        The base network.  Refit-capable states carry its training
        links and attribute tables; serve-only states have nodes and
        schema only.
    theta:
        ``(n, K)`` base memberships (copied into the growable buffer).
    gamma:
        ``(R,)`` strengths aligned with ``relation_names``.
    relation_names:
        Relations that carried links in the fit (gamma order).
    attribute_names:
        The fitted attribute subset, in fit order.
    attribute_params:
        Learned component parameters per attribute (the
        :class:`~repro.core.result.GenClusResult` shape).
    refit_capable:
        Whether the state holds enough training data to re-run
        Algorithm 1 (links + observations).
    hydrator:
        Optional zero-argument callable returning the base network
        with its full training data, invoked on first refit-path use.
        Lets a refit-capable state defer decoding its training payload
        (per-edge / per-observation loops) until :meth:`to_problem`
        actually needs it -- a serving engine that never promotes pays
        only the ``O(nK)`` array load.
    copy_theta:
        With the default ``True`` the state owns a private copy of
        ``theta``.  ``False`` adopts the passed buffer **as is** --
        how shard states share one frozen base view, and how a
        memory-mapped artifact's read-only theta becomes the base
        buffer without touching a single page.  Every growth path
        (``append_extensions``, eviction compaction) migrates onto a
        fresh private buffer before writing, so an adopted read-only
        map is never written through.
    on_materialize:
        Optional zero-argument callable invoked exactly once, right
        before the first end-to-end read of the base rows (buffer
        growth, eviction compaction, ``clone_base``, the refit path).
        Mapped artifacts hang their deferred theta checksum
        verification here; the hook is cleared only on success, so a
        failed verification fails every later materialization too.
    """

    def __init__(
        self,
        network: HeterogeneousNetwork,
        theta: np.ndarray,
        gamma: np.ndarray,
        relation_names: tuple[str, ...],
        attribute_names: tuple[str, ...],
        attribute_params: dict[str, dict],
        refit_capable: bool,
        hydrator=None,
        copy_theta: bool = True,
        on_materialize=None,
    ) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim != 2 or theta.shape[0] != network.num_nodes:
            raise StateError(
                f"theta must be (num_nodes, K) = ({network.num_nodes}, "
                f"K), got shape {theta.shape}"
            )
        gamma = np.asarray(gamma, dtype=np.float64)
        if gamma.shape != (len(relation_names),):
            raise StateError(
                f"gamma has shape {gamma.shape} but there are "
                f"{len(relation_names)} relations"
            )
        self._hydrator = hydrator
        self.network = network
        self.gamma = gamma.copy()
        self.relation_names = tuple(relation_names)
        self.attribute_names = tuple(attribute_names)
        self.attribute_params = attribute_params
        self.refit_capable = bool(refit_capable)
        self.version = 0
        self._num_base = network.num_nodes
        if copy_theta:
            if on_materialize is not None:
                # the defensive copy is itself a full read of a
                # possibly-mapped theta: settle verification first
                on_materialize()
                on_materialize = None
            self._theta_buf = theta.copy()
        else:
            self._theta_buf = theta
        self._on_materialize = on_materialize
        self._size = theta.shape[0]
        # extension containers, materialized lazily on the first delta
        self._live_index: dict[object, int] | None = None
        self._live_types: list[str] | None = None
        self._extensions: dict[object, "NewNode"] = {}
        # reverse extension->extension link map: _ext_rev[v] = sources
        # among extension nodes holding an out-link to v (the dependency
        # edges that decide which rows a link delta can move)
        self._ext_rev: dict[object, set[object]] = {}
        self._vocab_index: dict[str, dict[str, int]] | None = None
        self._problem_cache: tuple[int, ClusteringProblem] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, result: "GenClusResult") -> "ModelState":
        """Capture a finished fit as lifecycle state.

        Refit-capable when the result's network still carries its links
        and the fitted attribute tables (always true straight out of
        ``GenClus.fit``; a result reloaded from a serve-only artifact
        has neither and becomes serve-only).
        """
        network = result.network
        attribute_names = tuple(result.attribute_params)
        refit_capable = training_data_available(
            network, attribute_names, result.relation_names
        )
        if refit_capable:
            linked = tuple(
                name
                for name in network.schema.relation_names
                if network.num_edges(name)
            )
            if linked != tuple(result.relation_names):
                raise StateError(
                    f"network links yield relations {linked} but the "
                    f"fit recorded {tuple(result.relation_names)}"
                )
        return cls(
            network=network,
            theta=result.theta,
            gamma=result.gamma,
            relation_names=tuple(result.relation_names),
            attribute_names=attribute_names,
            attribute_params=result.attribute_params,
            refit_capable=refit_capable,
        )

    def clone_base(self) -> "ModelState":
        """A fresh state over this state's base model, extensions
        dropped.

        The clone *shares* the immutable base containers -- network,
        attribute parameters, and the deferred hydrator -- and owns a
        private copy of the base theta rows, so growing the clone
        (``append_extensions``, ``to_problem``) never disturbs this
        state.  This is how a
        serving cluster assembles the single-engine reference state for
        a cluster-wide refit without mutating the base it keeps
        serving from.
        """
        self._materialize_base()
        clone = ModelState(
            network=self.network,
            theta=self._theta_buf[: self._num_base],
            gamma=self.gamma,
            relation_names=self.relation_names,
            attribute_names=self.attribute_names,
            attribute_params=self.attribute_params,
            refit_capable=self.refit_capable,
            hydrator=self._hydrator,
        )
        clone._vocab_index = self._vocab_index
        return clone

    def partition(self, plan) -> tuple["ModelState", ...]:
        """Materialize per-shard serving states for a
        :class:`~repro.serving.cluster.ShardPlan`.

        Each shard state **owns** its plan rows (responsibility for
        membership reads, eviction, and promotion accounting lives with
        the owner) plus a private, independently growable extension
        space, while **sharing** the frozen base read-only: the network,
        gamma, the attribute component parameters, and -- crucially -- the base theta rows,
        which every shard's fold-in reads as one zero-copy buffer view
        (a transient query may link to *any* base node, so the frozen
        membership rows must stay visible cluster-wide).  The first
        extension appended to a shard migrates it onto its own buffer;
        until then a shard costs ``O(1)`` extra memory.

        Shard states are serve-only on purpose: promotion is a
        cluster-scope operation (all shards' extensions refit together,
        see :meth:`repro.serving.router.ShardedEngine.promote`), so a
        single shard refitting alone would silently fork the base model
        out from under its peers.

        The state must carry no extensions yet (partition the base,
        then route deltas), and ``plan`` must cover exactly this
        state's rows.
        """
        self._check_partitionable(plan)
        return tuple(
            self._shard_state() for _ in range(plan.n_shards)
        )

    def partition_shard(self, plan, shard_id: int) -> "ModelState":
        """Materialize a single shard's serving state.

        The same construction :meth:`partition` performs for every
        shard, for exactly one -- the primitive a supervised serving
        cluster uses to rebuild one broken shard from the shared frozen
        base (and then replay its durable deltas) without touching its
        healthy peers.  The rebuilt state shares the frozen base buffer
        with every state previously partitioned from this one, so a
        recovered shard serves bit-identical answers.
        """
        self._check_partitionable(plan)
        if not 0 <= shard_id < plan.n_shards:
            raise StateError(
                f"shard_id must lie in 0..{plan.n_shards - 1}, "
                f"got {shard_id}"
            )
        return self._shard_state()

    def _check_partitionable(self, plan) -> None:
        if self.num_extension_nodes:
            raise StateError(
                f"partition requires a pristine base state; this one "
                f"carries {self.num_extension_nodes} extension node(s) "
                f"(promote or evict them first)"
            )
        if plan.num_rows != self.num_nodes:
            raise StateError(
                f"shard plan covers {plan.num_rows} rows but the state "
                f"has {self.num_nodes}"
            )

    def _shard_state(self) -> "ModelState":
        # the frozen base rows are shared as one buffer view across
        # all shards -- a memory-mapped base stays mapped, and each
        # shard inherits the deferred-verification hook (idempotent
        # and thread-safe, so whichever shard materializes first pays
        # the CRC pass); the first append_extensions call grows onto
        # a private buffer
        shard = ModelState(
            network=self.network,
            theta=self._theta_buf[: self._num_base],
            gamma=self.gamma,
            relation_names=self.relation_names,
            attribute_names=self.attribute_names,
            attribute_params=self.attribute_params,
            refit_capable=False,
            hydrator=None,
            copy_theta=False,
            on_materialize=self._on_materialize,
        )
        shard._vocab_index = self._vocab_index
        return shard

    # ------------------------------------------------------------------
    # shape + views
    # ------------------------------------------------------------------
    @property
    def n_clusters(self) -> int:
        return int(self._theta_buf.shape[1])

    @property
    def num_base_nodes(self) -> int:
        return self._num_base

    @property
    def num_extension_nodes(self) -> int:
        return self._size - self._num_base

    @property
    def num_nodes(self) -> int:
        return self._size

    @property
    def theta(self) -> np.ndarray:
        """Live ``(num_nodes, K)`` membership view (base + extensions)."""
        return self._theta_buf[: self._size]

    @property
    def node_index(self) -> Mapping[object, int]:
        """Live ``{node id: theta row}`` over base + extensions."""
        if self._live_index is not None:
            return self._live_index
        return self.network.node_index_view

    @property
    def node_types(self) -> Sequence[str]:
        """Live per-row object types over base + extensions."""
        if self._live_types is not None:
            return self._live_types
        return self.network.node_types_view

    def is_extension(self, node: object) -> bool:
        return node in self._extensions

    def extension_nodes(self) -> tuple[object, ...]:
        """Extension node ids in served row order."""
        return tuple(self._extensions)

    def extension_spec(self, node: object) -> "NewNode":
        return self._extensions[node]

    def extension_link_count(self) -> int:
        return sum(
            len(spec.links) for spec in self._extensions.values()
        )

    def extension_dependants(self, node: object) -> frozenset:
        """Extension nodes holding an out-link to ``node`` (the nodes
        whose re-folds would need its membership row)."""
        return frozenset(self._ext_rev.get(node, ()))

    def block_plan(self) -> "BlockPlan":
        """The canonical block decomposition of the served row space.

        ``BlockPlan.for_shape(num_nodes, K)``, the plan every kernel
        derives for this shape, shared by the ``execution_shape``
        telemetry and the similarity top-k scan.  A pure function of
        the current shape: extends, evictions and promotes that reach
        the same row count report the same blocks.
        """
        # local import: repro.core.kernels does not import state
        from repro.core.kernels import BlockPlan

        return BlockPlan.for_shape(self.num_nodes, self.n_clusters)

    def execution_shape(self) -> dict[str, int]:
        """The blocked-execution decomposition of the served index space.

        Telemetry for serving operators (surfaced through
        ``InferenceEngine.info()``): how many row blocks the current
        base + extension space splits into and how many rows each block
        carries.
        """
        plan = self.block_plan()
        return {
            "block_rows": plan.block_rows,
            "block_count": plan.num_blocks,
            "num_rows": plan.num_rows,
        }

    @property
    def theta_capacity(self) -> int:
        """Allocated rows of the growable membership buffer."""
        return int(self._theta_buf.shape[0])

    @property
    def theta_bytes(self) -> int:
        """Bytes held by the membership buffer (including slack)."""
        return int(self._theta_buf.nbytes)

    @property
    def theta_mapped(self) -> bool:
        """Whether the membership buffer is still a lazily-paged
        read-only memory map (no growth path has migrated it onto a
        private allocation yet)."""
        return _is_mapped(self._theta_buf)

    def memory_info(self) -> dict[str, object]:
        """Membership-buffer memory accounting for telemetry.

        Splits :attr:`theta_bytes` into **mapped** bytes (backed by
        the artifact file through the OS page cache; resident only
        where queries have touched pages) and **resident** bytes
        (private allocations this process owns outright).  Surfaced
        through ``engine.info()``'s ``memory`` section.
        """
        mapped = self.theta_mapped
        nbytes = int(self._theta_buf.nbytes)
        return {
            "theta_mapped": mapped,
            "theta_mapped_bytes": nbytes if mapped else 0,
            "theta_resident_bytes": 0 if mapped else nbytes,
            "theta_capacity_rows": int(self._theta_buf.shape[0]),
        }

    def _materialize_base(self) -> None:
        """Settle any deferred base-theta verification before the
        first end-to-end read of the base rows.

        The hook (a mapped artifact's lazy CRC32 check) is cleared
        only on success: a corrupt mapped theta keeps failing every
        later materialization attempt instead of being read once and
        trusted forever.
        """
        if self._on_materialize is not None:
            hook = self._on_materialize
            hook()
            self._on_materialize = None

    def _touch(self) -> None:
        self.version += 1

    def frozen_view(self) -> "FrozenModel":
        """The read-only serving view fold-in scores against.

        A cheap façade over live state: theta is the buffer window and
        the index/type maps are the live containers, so a fresh view
        per delta costs O(1).  The per-model vocabulary index is cached
        on the state and shared across views.
        """
        # local import: repro.serving depends on repro.core, not back
        from repro.serving.foldin import FrozenModel

        view = FrozenModel(
            theta=self.theta,
            gamma=self.gamma,
            relation_names=self.relation_names,
            relation_types={
                rel.name: (rel.source, rel.target)
                for rel in self.network.schema.relations
            },
            object_types=tuple(
                t.name for t in self.network.schema.object_types
            ),
            node_index=self.node_index,
            node_types=self.node_types,
            attribute_params=self.attribute_params,
        )
        if self._vocab_index is None:
            self._vocab_index = view.vocabulary_index
        else:
            view.__dict__["vocabulary_index"] = self._vocab_index
        return view

    # ------------------------------------------------------------------
    # extension-space mutation (the serving delta path)
    # ------------------------------------------------------------------
    def _materialize_live(self) -> None:
        if self._live_index is None:
            self._live_index = self.network.node_index
            self._live_types = list(self.network.node_types_view)

    def append_extensions(
        self, specs: Sequence["NewNode"], theta_rows: np.ndarray
    ) -> None:
        """Append folded-in nodes to the served index space.

        Amortized ``O(len(specs))``: the theta buffer doubles its
        capacity geometrically and the index/type containers are
        mutated in place.  ``theta_rows`` are the nodes' posterior
        memberships, aligned with ``specs``.
        """
        if not specs:
            return
        self._materialize_live()
        k = self.n_clusters
        needed = self._size + len(specs)
        if needed > self._theta_buf.shape[0]:
            if self._theta_buf.shape[0] == self._num_base:
                # first delta: reserve a small extension region instead
                # of doubling the whole base allocation
                capacity = max(
                    needed,
                    self._num_base + _INITIAL_EXTENSION_CAPACITY,
                )
            else:
                capacity = max(needed, 2 * self._theta_buf.shape[0])
            # growth copies the base rows end to end: a mapped base
            # verifies its deferred checksum first, then migrates to
            # a private buffer (the map itself is never written)
            self._materialize_base()
            grown = np.empty((capacity, k))
            grown[: self._size] = self._theta_buf[: self._size]
            self._theta_buf = grown
        self._theta_buf[self._size : needed] = theta_rows
        for offset, spec in enumerate(specs):
            self._live_index[spec.node] = self._size + offset
            self._live_types.append(spec.object_type)
            self._extensions[spec.node] = spec
        self._size = needed
        for spec in specs:
            self._index_reverse_links(spec)
        self._touch()

    def _index_reverse_links(self, spec: "NewNode") -> None:
        for _, target, _ in spec.links:
            if target in self._extensions:
                self._ext_rev.setdefault(target, set()).add(spec.node)

    def touched_component(
        self, sources: Iterable[object]
    ) -> list[object]:
        """Extension nodes whose fixed point a delta on ``sources`` can
        move: the reverse-reachable closure over extension->extension
        links, in served row order.

        A node's fold-in row depends only on its own observations and
        the memberships of its out-link targets, so new links on
        ``sources`` can shift exactly the nodes that reach a source via
        out-links -- everything else keeps its row verbatim.
        """
        touched = set(sources)
        frontier = list(touched)
        while frontier:
            node = frontier.pop()
            for dependant in self._ext_rev.get(node, ()):
                if dependant not in touched:
                    touched.add(dependant)
                    frontier.append(dependant)
        # order by served row -- O(|touched| log |touched|), never a
        # scan of the whole extension space
        index = self.node_index
        return sorted(touched, key=index.__getitem__)

    def commit_link_delta(
        self, updated: Mapping[object, "NewNode"]
    ) -> None:
        """Replace extension specs after a validated link delta."""
        for node, spec in updated.items():
            if node not in self._extensions:
                raise StateError(
                    f"node {node!r} is not an extension of this state"
                )
            self._extensions[node] = spec
            self._index_reverse_links(spec)
        self._touch()

    def replace_extension_rows(
        self, nodes: Sequence[object], theta_rows: np.ndarray
    ) -> None:
        """Overwrite the served rows of the given extension nodes."""
        assert self._live_index is not None
        for node, row in zip(nodes, theta_rows):
            self._theta_buf[self._live_index[node]] = row
        self._touch()

    def evict_extensions(self, nodes: Iterable[object]) -> None:
        """Drop extension nodes and compact the served index space.

        O(num_nodes): the theta buffer, index, and type containers are
        rebuilt without the evicted rows.  Eviction of a node that
        another (surviving) extension node links to is refused -- its
        membership would be needed by later re-folds of the survivor.
        """
        evicted = set(nodes)
        if not evicted:
            return
        unknown = [n for n in evicted if n not in self._extensions]
        if unknown:
            raise StateError(
                f"cannot evict non-extension nodes: {unknown!r}"
            )
        for node in evicted:
            blocked = self._ext_rev.get(node, set()) - evicted
            if blocked:
                raise StateError(
                    f"cannot evict {node!r}: surviving extension nodes "
                    f"{sorted(map(repr, blocked))} link to it"
                )
        assert self._live_index is not None
        k = self.n_clusters
        survivors = [
            node for node in self._extensions if node not in evicted
        ]
        self._materialize_base()
        compact = np.empty(
            (self._num_base + len(survivors), k)
        )
        compact[: self._num_base] = self._theta_buf[: self._num_base]
        index = self.network.node_index
        types = list(self.network.node_types_view)
        kept: dict[object, "NewNode"] = {}
        for row, node in enumerate(survivors, start=self._num_base):
            compact[row] = self._theta_buf[self._live_index[node]]
            index[node] = row
            types.append(self._extensions[node].object_type)
            kept[node] = self._extensions[node]
        self._theta_buf = compact
        self._size = compact.shape[0]
        self._live_index = index
        self._live_types = types
        self._extensions = kept
        self._ext_rev = {}
        for spec in kept.values():
            self._index_reverse_links(spec)
        self._touch()

    # ------------------------------------------------------------------
    # materialization (the refit path)
    # ------------------------------------------------------------------
    def _require_refit_capable(self) -> None:
        if not self.refit_capable:
            raise StateError(
                "this state is serve-only (no training links or "
                "attribute observations -- e.g. loaded from a "
                "serve-only artifact); it can serve queries but not refit"
            )
        # the refit warm-starts from theta end to end: a mapped base
        # settles its deferred verification before the solver reads it
        self._materialize_base()
        self._ensure_hydrated()

    def _ensure_hydrated(self) -> None:
        """Decode the deferred training payload on first refit use.

        Swaps in the hydrator's full network.  The node set and order
        are identical to the serve-time network, so the live extension
        containers (index/type maps, theta buffer) stay valid
        untouched.
        """
        if self._hydrator is None:
            return
        network = self._hydrator()
        self._hydrator = None
        if network.num_nodes != self._num_base:
            raise StateError(  # pragma: no cover - defensive
                "hydrated network node count disagrees with the state"
            )
        self.network = network

    def hydrate(self) -> None:
        """Decode any deferred training payload now (idempotent).

        Artifact-backed states defer rebuilding their training network
        until the refit path needs it; callers that want its links
        earlier -- e.g. the ``shard-plan`` CLI reporting per-shard link
        load -- can force the decode here.  Serve-only states are
        untouched.
        """
        if self.refit_capable:
            self._ensure_hydrated()

    @property
    def hydrated(self) -> bool:
        """Whether :attr:`network` carries the training links and
        observations: a refit-capable state whose deferred payload (if
        any) has been decoded."""
        return self.refit_capable and self._hydrator is None

    def to_problem(self) -> ClusteringProblem:
        """Compile base + extensions into a solver-ready problem.

        Its ``network`` is base + extensions as one standalone network.
        The base network is left untouched: a fresh container re-adds
        its nodes, links, and attribute tables, then the extension
        nodes with their accumulated links and observations.  Extension
        text observations are filtered to the *training* vocabulary
        (warm-started component parameters fix the columns), matching
        what fold-in scored.

        The problem is compiled from that network like any fresh
        fit's: its link views come from
        :func:`~repro.hin.views.build_relation_matrices`, one
        ``O(|E|)`` pass, and must yield exactly the state's relations
        (the gamma slots the warm start resumes).  The result is
        cached against :attr:`version` -- repeated calls between
        mutations are free.
        """
        self._require_refit_capable()
        cache = self._problem_cache
        if cache is not None and cache[0] == self.version:
            return cache[1]
        network = self._copy_network_with_extensions()
        matrices = build_relation_matrices(network)
        if matrices.relation_names != self.relation_names:
            raise StateError(  # pragma: no cover - defensive
                f"materialized link views yield relations "
                f"{matrices.relation_names} but the state's gamma "
                f"covers {self.relation_names}"
            )
        node_index = network.node_index
        models: list[AttributeModel] = []
        for name in self.attribute_names:
            attribute = network.attribute(name)
            if isinstance(attribute, TextAttribute):
                models.append(
                    CategoricalModel(
                        attribute.compile(node_index),
                        n_clusters=self.n_clusters,
                        num_nodes=network.num_nodes,
                    )
                )
            else:
                models.append(
                    GaussianModel(
                        attribute.compile(node_index),
                        n_clusters=self.n_clusters,
                        num_nodes=network.num_nodes,
                    )
                )
        problem = ClusteringProblem(
            network=network,
            matrices=matrices,
            attribute_models=tuple(models),
            attribute_names=self.attribute_names,
            n_clusters=self.n_clusters,
        )
        self._problem_cache = (self.version, problem)
        return problem

    def _copy_network_with_extensions(self) -> HeterogeneousNetwork:
        base = self.network
        # O(n + |E|) structural copy -- no per-edge re-validation of
        # links the base network already guaranteed
        network = base.copy()
        for spec in self._extensions.values():
            network.add_node(spec.node, spec.object_type)
        for spec in self._extensions.values():
            for relation, target, weight in spec.links:
                if weight > 0.0:
                    network.add_edge(
                        spec.node, target, relation, weight
                    )
        for name in base.attribute_names:
            network.add_attribute(self._copy_attribute(name))
        return network

    def _copy_attribute(self, name: str):
        copy = self.network.attribute(name).copy()
        text = isinstance(copy, TextAttribute)
        if text:  # materialized tables keep the training vocabulary
            copy.freeze()
        if name not in self.attribute_names:
            return copy
        vocabulary = set(copy.vocabulary) if text else ()
        for spec in self._extensions.values():
            if text:
                in_vocab = {
                    term: count
                    for term, count in _spec_bag(spec, name).items()
                    if term in vocabulary and count > 0
                }
                if in_vocab:
                    copy.add_counts(spec.node, in_vocab)
            elif spec.numeric.get(name):
                copy.add_values(spec.node, spec.numeric[name])
        return copy


def _is_mapped(array: np.ndarray) -> bool:
    """Whether ``array`` is (a view into) a ``np.memmap``.

    ``np.asarray``/slicing of a memmap yield plain ``ndarray`` views
    whose ``.base`` chain bottoms out at the map, so the chain is
    walked rather than the outermost type checked.
    """
    current = array
    while current is not None:
        if isinstance(current, np.memmap):
            return True
        current = getattr(current, "base", None)
    return False


def _spec_bag(spec: "NewNode", attribute: str) -> dict[str, float]:
    """A NewNode text payload as ``{term: count}`` (specs store either
    a counts mapping or a materialized token tuple)."""
    bag = spec.text.get(attribute)
    if bag is None:
        return {}
    if isinstance(bag, Mapping):
        return dict(bag)
    counts: dict[str, float] = {}
    for token in bag:
        term = str(token)
        counts[term] = counts.get(term, 0.0) + 1.0
    return counts
