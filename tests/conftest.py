"""Fixtures shared across test modules, and the hypothesis profile.

Under ``CI`` (set by GitHub Actions) every property test runs
derandomized and without the example database, so a red CI run
reproduces locally with ``CI=1 python -m pytest ...``.  Example counts
and deadlines stay whatever each test sets.
"""

import os

import pytest
from hypothesis import settings

from repro import GenClus, GenClusConfig
from repro.core import kernels
from repro.core.state import ModelState
from repro.datagen.toy import political_forum_network

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def small_blocks(monkeypatch, request):
    """Shrink the shape-derived block plans so toy problems run many
    blocks, and return a fit helper for the 32-node forum network.

    Every node-space plan then blocks ``request.param`` rows at a time
    (4 unless a test parametrizes the fixture indirectly; at 4 the
    forum network fits as 8 blocks and fold-in batches run 4 queries
    per block), and the attribute models block their observed rows
    finer too.
    ``small_blocks(**config)`` fits the forum network's ``text``
    attribute with ``GenClusConfig(n_clusters=2, **config)`` and
    asserts the fit really ran more than one node block.  The patch
    lasts for the test, so promotes and fold-ins block small as well.
    """
    rows = getattr(request, "param", 4)
    monkeypatch.setattr(kernels, "_BLOCK_TARGET_BYTES", 0)
    monkeypatch.setattr(kernels, "_MIN_BLOCK_ROWS", rows)

    def fit(obs=None, **config):
        result = GenClus(GenClusConfig(n_clusters=2, **config)).fit(
            political_forum_network(), attributes=["text"], obs=obs
        )
        assert ModelState.from_result(result).block_plan().num_blocks > 1
        return result

    return fit
