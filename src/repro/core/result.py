"""The result object returned by a GenClus fit."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.diagnostics import RunHistory
from repro.hin.network import HeterogeneousNetwork


@dataclass(frozen=True)
class GenClusResult:
    """Everything learned by one GenClus fit.

    Attributes
    ----------
    theta:
        ``(n, K)`` soft membership matrix; row order is the network's
        node-index order.
    gamma:
        ``(R,)`` learned strengths aligned with ``relation_names``.
    relation_names:
        The relations that carried links, fixing gamma's order.
    attribute_params:
        Per-attribute learned component parameters:
        ``{"kind": "categorical", "beta": ..., "vocabulary": ...}`` or
        ``{"kind": "gaussian", "means": ..., "variances": ...}``.
    history:
        Per-outer-iteration diagnostics (for Fig. 10-style plots).
    network:
        The clustered network (for id/type lookups).
    """

    theta: np.ndarray
    gamma: np.ndarray
    relation_names: tuple[str, ...]
    attribute_params: dict[str, dict]
    history: RunHistory
    network: HeterogeneousNetwork

    # ------------------------------------------------------------------
    @property
    def n_clusters(self) -> int:
        return int(self.theta.shape[1])

    def membership_of(self, node: object) -> np.ndarray:
        """Soft membership vector of one node (a copy)."""
        return self.theta[self.network.index_of(node)].copy()

    def strength_of(self, relation: str) -> float:
        """Learned strength of one relation type."""
        try:
            r = self.relation_names.index(relation)
        except ValueError:
            raise KeyError(
                f"relation {relation!r} carried no links in the fit"
            ) from None
        return float(self.gamma[r])

    def strengths(self) -> dict[str, float]:
        """All learned strengths as ``{relation: gamma}``."""
        return {
            name: float(g)
            for name, g in zip(self.relation_names, self.gamma)
        }

    # ------------------------------------------------------------------
    def hard_labels(self) -> np.ndarray:
        """Arg-max cluster label per node (``(n,)`` int array)."""
        return np.argmax(self.theta, axis=1)

    def hard_labels_for(
        self, object_type: str
    ) -> tuple[list[object], np.ndarray]:
        """Node ids of one type plus their hard labels, aligned."""
        indices = self.network.indices_of_type(object_type)
        ids = [self.network.node_at(i) for i in indices]
        return ids, np.argmax(self.theta[indices], axis=1)

    def theta_for(self, object_type: str) -> tuple[list[object], np.ndarray]:
        """Node ids of one type plus their soft memberships, aligned."""
        indices = self.network.indices_of_type(object_type)
        ids = [self.network.node_at(i) for i in indices]
        return ids, self.theta[indices].copy()

    def top_members(
        self,
        cluster: int,
        object_type: str | None = None,
        limit: int = 10,
    ) -> list[tuple[object, float]]:
        """Nodes with the highest membership in one cluster.

        Parameters
        ----------
        cluster:
            Cluster index in ``0..K-1``.
        object_type:
            Restrict to one object type (all types when ``None``).
        limit:
            Maximum number of ``(node, probability)`` pairs returned.
        """
        if not 0 <= cluster < self.n_clusters:
            raise IndexError(
                f"cluster {cluster} out of range 0..{self.n_clusters - 1}"
            )
        if object_type is None:
            indices = range(self.network.num_nodes)
        else:
            indices = self.network.indices_of_type(object_type)
        scored = sorted(
            ((self.network.node_at(i), float(self.theta[i, cluster]))
             for i in indices),
            key=lambda pair: pair[1],
            reverse=True,
        )
        return scored[:limit]

    def top_terms(
        self, attribute: str, cluster: int, limit: int = 10
    ) -> list[tuple[str, float]]:
        """Highest-probability vocabulary terms of one text attribute's
        cluster component (useful for naming clusters, Table 1 style)."""
        params = self.attribute_params.get(attribute)
        if params is None:
            raise KeyError(f"attribute {attribute!r} was not fit")
        if params["kind"] != "categorical":
            raise KeyError(f"attribute {attribute!r} is not text")
        beta = params["beta"]
        vocabulary = params["vocabulary"]
        order = np.argsort(beta[cluster])[::-1][:limit]
        return [(vocabulary[i], float(beta[cluster, i])) for i in order]

    # ------------------------------------------------------------------
    def to_state(self):
        """Capture this fit as a mutable lifecycle
        :class:`~repro.core.state.ModelState` (refit-capable when the
        network still carries its links and attribute tables)."""
        from repro.core.state import ModelState

        return ModelState.from_result(self)

    def save(self, path: str | Path) -> Path:
        """Persist the fit as a serving artifact bundle.

        A schema-v3 **bundle directory** of raw ``.npy`` files
        (memory-mappable).  The bundle carries theta, gamma, attribute
        parameters, the node id/type map, and the run history --
        everything :class:`~repro.serving.engine.InferenceEngine`
        needs.  When the network still holds its training links and
        attribute tables (any fresh fit), they are embedded too, so
        :meth:`load` reconstructs a **refit-capable** model: the
        reloaded network carries edges and observations and can
        warm-start a full new fit (see
        :class:`~repro.core.state.ModelState`).
        """
        # local import: repro.serving depends on this module
        from repro.serving.artifact import ModelArtifact

        return ModelArtifact.from_result(self).save(path)

    @classmethod
    def load(cls, path: str | Path, **kwargs) -> GenClusResult:
        """Reload a fit persisted by :meth:`save` (``mmap=True`` maps
        a v3 bundle lazily; the result still materializes -- and
        thereby fully verifies -- every array it exposes)."""
        from repro.serving.artifact import ModelArtifact

        return ModelArtifact.load(path, **kwargs).to_result()

    def summary(self) -> str:
        """Readable overview: sizes, strengths, history length."""
        sizes = np.bincount(self.hard_labels(), minlength=self.n_clusters)
        lines = [
            f"GenClus result: {self.theta.shape[0]} objects, "
            f"K={self.n_clusters}",
            "cluster sizes (hard): "
            + ", ".join(str(int(s)) for s in sizes),
            "link-type strengths:",
        ]
        for name, gamma in sorted(
            self.strengths().items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {name:<24} {gamma:>10.4f}")
        lines.append(f"outer iterations recorded: {len(self.history)}")
        return "\n".join(lines)
