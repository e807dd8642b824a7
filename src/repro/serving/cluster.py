"""Shard planning: pinning the served index space onto a cluster.

A serving cluster splits one fitted model across several
:class:`~repro.serving.engine.InferenceEngine` shards.  The unit of
that split is **not** a node but a :class:`~repro.core.kernels.BlockPlan`
block: the blocked kernels already execute the index space in
contiguous, cache-sized row blocks shared by training, objectives, and
serving, so a shard is simply a *pinned contiguous range of those
blocks* -- :class:`ShardPlan` records which blocks (and therefore which
rows) each shard owns.

Ownership is about responsibility, not visibility.  Every shard keeps
the whole frozen base readable (a transient query may link to any
fitted node; see :meth:`repro.core.state.ModelState.partition`), but
exactly one shard *owns* each base row -- it answers membership reads
for those nodes in cluster telemetry -- and exactly one shard owns each
extension node the router folds in.  Because the underlying block plan
is a pure function of the problem shape, re-deriving a plan for the
same model always yields the same ranges: the plan is stable enough to
print (``python -m repro.serving shard-plan``), ship to operators, and
re-balance deterministically after a promotion grows the base.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.kernels import BlockPlan
from repro.exceptions import ServingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.state import ModelState


def check_block_size(block_size: int | None) -> None:
    """Reject a row-block override below one row.

    The one check behind every serving entry point that takes a
    ``block_size`` (both engines and the ``shard-plan`` CLI), so a bad
    value surfaces as a :class:`~repro.exceptions.ServingError`
    instead of a raw ``ValueError`` from :class:`BlockPlan`.
    """
    if block_size is not None and block_size < 1:
        raise ServingError(
            f"block_size must be >= 1 when set, got {block_size}"
        )


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous block ranges assigning a row space to shards.

    Attributes
    ----------
    n_shards:
        Number of shards in the cluster.
    num_rows:
        Rows of the planned (base) index space.
    block_rows:
        Rows per block of the underlying :class:`BlockPlan`.
    block_bounds:
        Per shard, the half-open ``(first_block, stop_block)`` range of
        owned blocks, in shard order.
    row_bounds:
        Per shard, the half-open ``(start_row, stop_row)`` range those
        blocks cover.  Ranges tile ``0..num_rows`` contiguously.
    """

    n_shards: int
    num_rows: int
    block_rows: int
    block_bounds: tuple[tuple[int, int], ...]
    row_bounds: tuple[tuple[int, int], ...]

    # ------------------------------------------------------------------
    @classmethod
    def from_state(
        cls,
        state: "ModelState",
        n_shards: int,
        block_size: int | None = None,
    ) -> "ShardPlan":
        """Propose a balanced plan for a model's served index space.

        Splits the state's shared :class:`BlockPlan` (the same
        decomposition every blocked kernel runs, derived from the
        cached operator when link views exist) into ``n_shards``
        contiguous ranges balanced to within one block.  ``block_size``
        overrides the cache-sized block rows; without an override,
        a model too small for the cache default to yield one block per
        shard is automatically decomposed finer (about four blocks per
        shard), so any model with at least ``n_shards`` rows shards.
        """
        if n_shards < 1:
            raise ServingError(
                f"n_shards must be >= 1, got {n_shards}"
            )
        check_block_size(block_size)
        plan = state.block_plan(block_size)
        if block_size is None and plan.num_blocks < n_shards:
            refined = max(1, state.num_nodes // (4 * n_shards))
            plan = state.block_plan(refined)
        return cls.from_block_plan(plan, n_shards)

    @classmethod
    def from_block_plan(
        cls, plan: BlockPlan, n_shards: int
    ) -> "ShardPlan":
        """Pin an existing block plan's blocks onto ``n_shards``."""
        try:
            block_bounds = plan.partition(n_shards)
        except ValueError as exc:
            raise ServingError(str(exc)) from None
        row_bounds = tuple(
            plan.block_rows_of(first, stop)
            for first, stop in block_bounds
        )
        return cls(
            n_shards=n_shards,
            num_rows=plan.num_rows,
            block_rows=plan.block_rows,
            block_bounds=block_bounds,
            row_bounds=row_bounds,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_shards

    def rows_of(self, shard: int) -> tuple[int, int]:
        """The half-open row range shard ``shard`` owns."""
        return self.row_bounds[shard]

    def num_rows_of(self, shard: int) -> int:
        start, stop = self.row_bounds[shard]
        return stop - start

    def shard_of_row(self, row: int) -> int:
        """The shard owning global base row ``row``."""
        if not 0 <= row < self.num_rows:
            raise ServingError(
                f"row {row} lies outside the planned space "
                f"0..{self.num_rows - 1}"
            )
        starts = [start for start, _ in self.row_bounds]
        return bisect_right(starts, row) - 1

    def describe(
        self, state: "ModelState | None" = None
    ) -> dict[str, Any]:
        """A JSON-ready summary of the plan.

        With a ``state`` whose link views are materialized, each
        shard's entry also reports the out-link load its rows carry
        (via :meth:`~repro.hin.views.RelationMatrices.row_link_counts`,
        pure index-pointer arithmetic) -- the imbalance signal an
        operator reads before committing to a shard count.
        """
        matrices = state.matrices if state is not None else None
        shards = []
        for shard in range(self.n_shards):
            first, stop = self.block_bounds[shard]
            start, end = self.row_bounds[shard]
            entry: dict[str, Any] = {
                "shard": shard,
                "blocks": [first, stop],
                "rows": [start, end],
                "num_rows": end - start,
            }
            if matrices is not None:
                links = matrices.row_link_counts(start, end)
                entry["links"] = links
                entry["total_links"] = int(sum(links.values()))
            shards.append(entry)
        return {
            "n_shards": self.n_shards,
            "num_rows": self.num_rows,
            "block_rows": self.block_rows,
            "num_blocks": self.block_bounds[-1][1],
            "shards": shards,
        }
