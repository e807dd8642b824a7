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

    # ------------------------------------------------------------------
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
