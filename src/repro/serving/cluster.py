"""Shard planning: pinning the served index space onto a cluster.

A serving cluster splits one fitted model across several
:class:`~repro.serving.engine.InferenceEngine` shards.  A shard owns a
balanced contiguous range of rows -- shard ``i`` of ``S`` over ``n``
rows owns ``i*n//S .. (i+1)*n//S`` -- and :class:`ShardPlan` records
that split.  Row grouping never changes an answer (fold-in converges
per row and every shard shares the frozen base), so the plan is about
ownership alone.

Ownership is about responsibility, not visibility.  Every shard keeps
the whole frozen base readable (a transient query may link to any
fitted node; see :meth:`repro.core.state.ModelState.partition`), but
exactly one shard *owns* each base row -- it answers membership reads
for those nodes in cluster telemetry -- and exactly one shard owns each
extension node the router folds in.  Because the split is a pure
function of ``(num_rows, n_shards)``, re-deriving a plan for the same
model always yields the same ranges: the plan is stable enough to
print (``python -m repro.serving shard-plan``), ship to operators, and
re-balance deterministically after a promotion grows the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.exceptions import ServingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.state import ModelState


@dataclass(frozen=True)
class ShardPlan:
    """Balanced contiguous row ranges assigning a row space to shards.

    Attributes
    ----------
    n_shards:
        Number of shards in the cluster.
    num_rows:
        Rows of the planned (base) index space.  Every shard owns at
        least one row, so ``1 <= n_shards <= num_rows``.
    """

    n_shards: int
    num_rows: int

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ServingError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )
        if self.n_shards > self.num_rows:
            raise ServingError(
                f"cannot split {self.num_rows} rows across "
                f"{self.n_shards} shards"
            )

    @classmethod
    def from_state(cls, state: "ModelState", n_shards: int) -> "ShardPlan":
        """The balanced plan for a model's served index space."""
        return cls(n_shards, state.num_nodes)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_shards

    def rows_of(self, shard: int) -> tuple[int, int]:
        """The half-open row range shard ``shard`` owns."""
        n, s = self.num_rows, self.n_shards
        return shard * n // s, (shard + 1) * n // s

    def shard_of_row(self, row: int) -> int:
        """The shard owning global base row ``row``."""
        if not 0 <= row < self.num_rows:
            raise ServingError(
                f"row {row} lies outside the planned space "
                f"0..{self.num_rows - 1}"
            )
        # the largest shard i with i*n//S <= row, i.e. i*n < (row+1)*S
        return ((row + 1) * self.n_shards - 1) // self.num_rows

    def describe(
        self, state: "ModelState | None" = None
    ) -> dict[str, Any]:
        """A JSON-ready summary of the plan.

        With a ``state`` whose network carries its training links
        (:attr:`~repro.core.state.ModelState.hydrated`), each shard's
        entry also reports the out-link load its rows carry: per
        relation, the distinct links whose source row the shard owns,
        counted from the network's edge columns -- the imbalance signal
        an operator reads before committing to a shard count.
        """
        sources = None
        if state is not None and state.hydrated:
            network = state.network
            sources = {
                name: network.edge_arrays(name)[0]
                for name in state.relation_names
            }
        shards = []
        for shard in range(self.n_shards):
            start, end = self.rows_of(shard)
            entry: dict[str, Any] = {
                "shard": shard,
                "rows": [start, end],
                "num_rows": end - start,
            }
            if sources is not None:
                links = {
                    name: int(
                        np.count_nonzero((rows >= start) & (rows < end))
                    )
                    for name, rows in sources.items()
                }
                entry["links"] = links
                entry["total_links"] = int(sum(links.values()))
            shards.append(entry)
        return {
            "n_shards": self.n_shards,
            "num_rows": self.num_rows,
            "shards": shards,
        }
