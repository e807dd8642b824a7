"""Micro-benchmarks of the two GenClus kernels + the perf-trajectory harness.

Unlike the whole-experiment benches, these time the hot loops properly
(multiple rounds): one EM update (the Fig. 11 bottleneck) and one full
strength-learning call, on the same problem shapes at several network
scales: Gaussian weather networks, and the DBLP four-area ACP network
whose titles make the categorical model the larger part of every EM
update.  At the ``dblp_acp`` scale the harness also times the network
layer around a fit: building the ACP network from its corpus, and
promote's ``to_problem`` (hydrating a fitted model's training payload
and compiling it with 50 folded-in papers).  ``dblp_acp_bound`` is the
DBLP problem at a point where the strength solve stalls on the
non-negativity bound: theta and gamma of a two-outer-iteration fit,
whose last strength is 0 and whose Newton step pushes it negative, so
every line search there backtracks to nothing.
Two entry points share the measurement code:

* **pytest-benchmark tests** (``pytest benchmarks/bench_core_kernels.py``)
  -- the per-PR regression smoke run; CI executes these in quick mode
  and uploads the pytest-benchmark JSON as an artifact.
* **standalone harness** (``python benchmarks/bench_core_kernels.py
  --json out.json [--baseline before.json]``) -- times both kernels at
  both scales and writes a JSON report; with ``--baseline`` it merges a
  previously recorded run and computes speedups.  ``BENCH_core.json``
  at the repo root records the before/after trajectory of the fused
  propagation-operator / zero-allocation kernel rewrite this way (see
  the ROADMAP "Performance" section for how to read and refresh it).
"""

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

try:
    import pytest
except ImportError:  # standalone harness mode does not need pytest
    pytest = None

from repro.core.config import GenClusConfig
from repro.core.em import em_update
from repro.core.genclus import GenClus
from repro.core.initialization import random_theta
from repro.core.problem import compile_problem
from repro.core.strength import learn_strengths
from repro.datagen.dblp import (
    TITLE_ATTR,
    FourAreaConfig,
    build_acp_network,
    generate_corpus,
)
from repro.datagen.weather import WeatherConfig, generate_weather_network
from repro.experiments.weather_common import WEATHER_ATTRIBUTES
from repro.serving import InferenceEngine, NewNode

SCALES = {
    "weather_mid": dict(
        n_temperature=400,
        n_precipitation=200,
        k_neighbors=5,
        n_observations=5,
        seed=0,
    ),
    "weather_large": dict(
        n_temperature=1600,
        n_precipitation=800,
        k_neighbors=8,
        n_observations=8,
        seed=0,
    ),
    "weather_xl": dict(
        n_temperature=6400,
        n_precipitation=3200,
        k_neighbors=10,
        n_observations=10,
        seed=0,
    ),
}

# DBLP four-area ACP at the perfbench corpus size: 4000 authors and the
# first 4000 of 6000 generated papers (8,020 nodes, titles on papers
# only, 23,040 title-count nonzeros); a text-only problem
TEXT_SCALES = {
    "dblp_acp": dict(n_authors=4000, n_papers=6000, train_papers=4000, seed=0),
}

# the DBLP problem where strength learning sits on the bound (see the
# module docstring): theta and gamma of a fit this many outer iterations
# long
BOUND_SCALES = {"dblp_acp_bound": dict(base="dblp_acp", outer_iterations=2)}

# opt-in ~100k-node scale (the KD-tree datagen path): generation alone
# takes tens of seconds, so it joins the harness only with ``--xxl``
# (standalone) or ``REPRO_BENCH_XXL=1`` (pytest entry points)
XXL_SCALES = {
    "weather_xxl": dict(
        n_temperature=65536,
        n_precipitation=32768,
        k_neighbors=10,
        n_observations=10,
        seed=0,
    ),
}


def _xxl_opted_in() -> bool:
    return bool(os.environ.get("REPRO_BENCH_XXL"))


def build_problem(scale: str):
    """Compile the problem at a named scale, theta settled a bit."""
    if scale in BOUND_SCALES:
        return build_bound_problem(scale)
    if scale in TEXT_SCALES:
        params = dict(TEXT_SCALES[scale])
        train_papers = params.pop("train_papers")
        corpus = generate_corpus(FourAreaConfig(**params))
        corpus = dataclasses.replace(
            corpus, papers=corpus.papers[:train_papers]
        )
        problem = compile_problem(build_acp_network(corpus), [TITLE_ATTR], 4)
    else:
        params = {**SCALES, **XXL_SCALES}[scale]
        generated = generate_weather_network(WeatherConfig(**params))
        problem = compile_problem(generated.network, WEATHER_ATTRIBUTES, 4)
    rng = np.random.default_rng(0)
    for model in problem.attribute_models:
        model.init_params(rng)
    theta = random_theta(rng, problem.num_nodes, problem.n_clusters)
    # settle theta a little so both kernels see realistic inputs
    gamma = np.ones(problem.num_relations)
    for _ in range(3):
        theta = em_update(
            theta, gamma, problem.matrices, problem.attribute_models
        )
    return problem, theta, gamma


def build_bound_problem(scale: str):
    """A problem with theta and gamma from a short fit, gamma's last
    component on the bound (asserted: the case is only worth timing
    there)."""
    params = BOUND_SCALES[scale]
    problem, _, _ = build_problem(params["base"])
    config = GenClusConfig(
        n_clusters=problem.n_clusters,
        outer_iterations=params["outer_iterations"],
        seed=0,
    )
    result = GenClus(config).fit_problem(problem)
    assert result.gamma[-1] == 0.0, result.gamma
    return problem, result.theta, result.gamma


def make_em_call(problem, theta, gamma, block_size=None, obs=None):
    """The EM kernel exactly as ``run_em`` drives it.

    The operator/workspace/blocked-execution fast paths are optional
    API; older checkouts of this harness fall back to the plain
    signature so the same file can time a pre-fused or pre-blocked
    baseline.  ``obs`` threads an :class:`repro.obs.Observability`
    handle through to time the instrumented path; the default ``None``
    is the disabled telemetry null path the <2% overhead gate guards.
    """
    try:
        from repro.core.kernels import EMWorkspace, PropagationOperator

        operator = PropagationOperator.wrap(problem.matrices)
        workspace = EMWorkspace(problem.num_nodes, problem.n_clusters)
        out = np.empty_like(theta)
        kwargs = {}
        try:  # blocked path; absent on pre-blocked checkouts
            plan = _node_plan(problem, block_size)
            for model in problem.attribute_models:
                model.set_block_rows(block_size)
            kwargs = dict(plan=plan)
        except (ImportError, AttributeError, TypeError):
            pass
        if obs is not None:
            kwargs["obs"] = obs

        def call():
            return em_update(
                theta,
                gamma,
                operator,
                problem.attribute_models,
                out=out,
                workspace=workspace,
                **kwargs,
            )

    except ImportError:

        def call():
            return em_update(
                theta, gamma, problem.matrices, problem.attribute_models
            )

    return call


def _node_plan(problem, block_size):
    """The node-space plan the kernels run: the shape-derived one, or
    ``block_size`` rows per block when forced (kernels take any plan)."""
    from repro.core.kernels import BlockPlan

    if block_size is None:
        return BlockPlan.for_shape(problem.num_nodes, problem.n_clusters)
    return BlockPlan(problem.num_nodes, block_size)


def make_strength_call(problem, theta, gamma, block_size=None):
    kwargs = {}
    try:  # blocked path; absent on pre-blocked checkouts
        kwargs = dict(plan=_node_plan(problem, block_size))
    except (ImportError, AttributeError, TypeError):
        pass

    def call():
        return learn_strengths(
            theta, problem.matrices, gamma, 0.1, 30, **kwargs
        )

    return call


def dblp_corpus(scale: str = "dblp_acp", held_out: int = 50):
    """The training corpus of a text scale, and ``held_out`` of the
    remaining papers as fold-in nodes."""
    params = dict(TEXT_SCALES[scale])
    train_papers = params.pop("train_papers")
    corpus = generate_corpus(FourAreaConfig(**params))
    held = [
        NewNode(
            paper.paper_id,
            "paper",
            links=[("written_by", author, 1.0) for author in paper.authors]
            + [("published_by", paper.venue, 1.0)],
            text={TITLE_ATTR: list(paper.title_tokens)},
        )
        for paper in corpus.papers[train_papers:train_papers + held_out]
    ]
    train = dataclasses.replace(corpus, papers=corpus.papers[:train_papers])
    return train, held


def make_promote_state(train, held):
    """A zero-argument factory of fresh promote inputs: an engine over
    a short fit of the corpus with ``held`` folded in; its state's
    ``to_problem`` is what promote compiles (the training payload
    hydrates on that first call)."""
    network = build_acp_network(train)
    result = GenClus(
        GenClusConfig(n_clusters=4, outer_iterations=2, seed=0)
    ).fit(network, [TITLE_ATTR])

    def fresh_state():
        engine = InferenceEngine.from_result(result)
        engine.extend(held)
        return engine.state

    return fresh_state


def _time_best_fresh(setup, fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn(setup())``, setup untimed."""
    best = float("inf")
    for _ in range(repeats):
        argument = setup()
        start = time.perf_counter()
        fn(argument)
        best = min(best, time.perf_counter() - start)
    return best


def _time_best(fn, repeats: int, warmup: int = 2) -> float:
    """Best-of-N wall time: robust against scheduler noise."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_harness(
    repeats_em: int = 30,
    repeats_strength: int = 10,
    block_size: int | None = None,
    include_xxl: bool = False,
) -> dict:
    """Time both kernels at every scale; returns the report dict.

    ``block_size`` forces the kernels' execution blocks (fits always
    use the shape-derived ones; forcing one block measures what the
    blocking buys);
    ``include_xxl`` adds the opt-in ~100k-node ``weather_xxl`` scale.
    """
    report: dict = {}
    scales = {**SCALES, **TEXT_SCALES, **BOUND_SCALES}
    if include_xxl:
        scales.update(XXL_SCALES)
    for scale in scales:
        problem, theta, gamma = build_problem(scale)
        em_call = make_em_call(problem, theta, gamma, block_size)
        strength_call = make_strength_call(
            problem, theta, gamma, block_size
        )
        # g2' evaluations per solve, where the outcome reports them
        evaluations = getattr(strength_call(), "evaluations", None)
        entry = {
            "num_nodes": problem.num_nodes,
            "num_relations": problem.num_relations,
            "nnz_links": int(
                sum(m.nnz for m in problem.matrices.matrices)
            ),
            "em_update_seconds": _time_best(em_call, repeats_em),
            "learn_strengths_seconds": _time_best(
                strength_call, repeats_strength
            ),
        }
        if evaluations is not None:
            entry["learn_strengths_evaluations"] = evaluations
        if scale in TEXT_SCALES:
            train, held = dblp_corpus(scale)
            entry["network_build_seconds"] = _time_best(
                lambda: build_acp_network(train), repeats_strength
            )
            entry["to_problem_seconds"] = _time_best_fresh(
                make_promote_state(train, held),
                lambda state: state.to_problem(),
                repeats_strength,
            )
        if block_size is not None:
            entry["block_size"] = block_size
        report[scale] = entry
    return report


def merge_with_baseline(baseline: dict, current: dict) -> dict:
    """``{before, after, speedup}`` report from two harness runs.

    Speedups compare the per-kernel headline numbers of each scale.
    """
    speedups: dict = {}
    for scale, after in current.items():
        before = baseline.get(scale)
        if not before:
            continue
        speedups[scale] = {
            kernel: round(
                before[f"{kernel}_seconds"] / after[f"{kernel}_seconds"],
                2,
            )
            for kernel in (
                "em_update", "learn_strengths", "network_build", "to_problem"
            )
            if f"{kernel}_seconds" in before and f"{kernel}_seconds" in after
        }
    return {"before": baseline, "after": current, "speedup": speedups}


def measure_obs_overhead(
    scale: str = "weather_large", repeats: int = 30
) -> dict:
    """Time ``em_update`` with telemetry disabled (the ``obs=None``
    null path) and enabled (a live :class:`~repro.obs.Observability`
    registry) on the same compiled problem.

    Returns the pair plus the enabled-over-null overhead percentage.
    The PR-6 contract is on the *null* path (<2% vs the pre-obs
    kernel); the enabled path is reported alongside because it bounds
    the null path from above -- if even recording stays under the
    gate, the disabled guard certainly does.
    """
    from repro.obs import Observability

    problem, theta, gamma = build_problem(scale)
    null_seconds = _time_best(
        make_em_call(problem, theta, gamma), repeats
    )
    obs = Observability()
    observed_seconds = _time_best(
        make_em_call(problem, theta, gamma, obs=obs), repeats
    )
    return {
        "scale": scale,
        "em_update_null_seconds": null_seconds,
        "em_update_observed_seconds": observed_seconds,
        "overhead_pct": round(
            100.0 * (observed_seconds / null_seconds - 1.0), 2
        ),
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
if pytest is not None:

    @pytest.fixture(scope="module")
    def compiled_problem():
        return build_problem("weather_mid")

    def test_em_update_kernel(benchmark, compiled_problem):
        problem, theta, gamma = compiled_problem
        call = make_em_call(problem, theta, gamma)
        result = benchmark(call)
        assert result.shape == theta.shape
        np.testing.assert_allclose(result.sum(axis=1), 1.0, atol=1e-9)

    def test_em_update_kernel_text(benchmark):
        """One EM sweep on the text-only DBLP ACP problem."""
        problem, theta, gamma = build_problem("dblp_acp")
        result = benchmark(make_em_call(problem, theta, gamma))
        assert result.shape == theta.shape
        np.testing.assert_allclose(result.sum(axis=1), 1.0, atol=1e-9)

    def test_strength_learning_kernel(benchmark, compiled_problem):
        problem, theta, gamma = compiled_problem
        outcome = benchmark(make_strength_call(problem, theta, gamma))
        assert np.all(outcome.gamma >= 0.0)

    def test_strength_learning_kernel_bound(benchmark):
        """One strength solve on DBLP where it stalls on the bound."""
        problem, theta, gamma = build_problem("dblp_acp_bound")
        outcome = benchmark(make_strength_call(problem, theta, gamma))
        assert outcome.gamma[-1] == 0.0
        assert outcome.stalled

    @pytest.fixture(scope="module")
    def dblp_inputs():
        return dblp_corpus("dblp_acp")

    def test_dblp_network_build(benchmark, dblp_inputs):
        """Build the DBLP ACP network from its corpus."""
        train, _ = dblp_inputs
        network = benchmark(build_acp_network, train)
        assert network.num_edges() == 28106

    def test_promote_to_problem(benchmark, dblp_inputs):
        """promote's ``to_problem`` on a fresh fitted engine with 50
        folded-in papers (hydration included)."""
        fresh_state = make_promote_state(*dblp_inputs)
        problem = benchmark.pedantic(
            lambda state: state.to_problem(),
            setup=lambda: ((fresh_state(),), {}),
            rounds=10,
        )
        assert problem.num_nodes == 8020 + 50

    def _snapshot_params(problem):
        params = []
        for model in problem.attribute_models:
            if hasattr(model, "beta"):
                params.append((model.beta.copy(),))
            else:
                params.append(
                    (model.means.copy(), model.variances.copy())
                )
        return params

    def _restore_params(problem, params):
        for model, saved in zip(problem.attribute_models, params):
            if len(saved) == 1:
                model.beta = saved[0].copy()
            else:
                model.means = saved[0].copy()
                model.variances = saved[1].copy()

    def test_em_update_kernel_observed(benchmark, compiled_problem):
        """The overhead pair's second half: same kernel, telemetry on.

        Compare this median against ``test_em_update_kernel`` (the
        ``obs=None`` null path) in the pytest-benchmark report; the
        enabled path bounds the disabled guard's cost from above, and
        the PR-6 gate wants the null path within 2% of the pre-obs
        kernel.  Results must stay bit-identical with recording on.
        """
        from repro.obs import Observability, series_value

        problem, theta, gamma = compiled_problem
        saved = _snapshot_params(problem)
        reference = make_em_call(problem, theta, gamma)().copy()
        _restore_params(problem, saved)
        obs = Observability()
        call = make_em_call(problem, theta, gamma, obs=obs)
        np.testing.assert_array_equal(call(), reference)
        _restore_params(problem, saved)
        result = benchmark(call)
        assert result.shape == theta.shape
        snapshot = obs.metrics.snapshot()
        assert series_value(snapshot, "repro_em_sweep_seconds") > 0

    @pytest.mark.skipif(
        "not __import__('os').environ.get('REPRO_BENCH_XXL')",
        reason="opt-in ~100k-node scale: set REPRO_BENCH_XXL=1",
    )
    def test_em_update_kernel_xxl(benchmark):
        """One EM sweep at the opt-in ~100k-node weather_xxl scale."""
        problem, theta, gamma = build_problem("weather_xxl")
        call = make_em_call(problem, theta, gamma)
        result = benchmark.pedantic(call, rounds=3, iterations=1)
        assert result.shape == theta.shape
        np.testing.assert_allclose(result.sum(axis=1), 1.0, atol=1e-9)


# ----------------------------------------------------------------------
# standalone harness
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the GenClus kernels and emit a JSON report."
    )
    parser.add_argument(
        "--json", required=True, help="output path for the report"
    )
    parser.add_argument(
        "--baseline",
        help="harness JSON from a previous run; merged as 'before' "
        "with speedups computed",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer repeats (CI smoke mode)",
    )
    parser.add_argument(
        "--block-size",
        type=int,
        default=None,
        help="force rows per execution block (default: the "
        "shape-derived plan fits use)",
    )
    parser.add_argument(
        "--xxl",
        action="store_true",
        help="also time the opt-in ~100k-node weather_xxl scale "
        "(generation alone takes tens of seconds)",
    )
    parser.add_argument(
        "--obs-overhead",
        metavar="SCALE",
        help="time em_update with telemetry off vs on at the named "
        "scale (e.g. weather_large), print the pair, and skip the "
        "full harness",
    )
    args = parser.parse_args(argv)
    if args.obs_overhead:
        repeats = 10 if args.quick else 30
        overhead = measure_obs_overhead(args.obs_overhead, repeats)
        with open(args.json, "w") as handle:
            json.dump(overhead, handle, indent=2)
            handle.write("\n")
        print(json.dumps(overhead, indent=2))
        return 0
    repeats_em, repeats_strength = (10, 3) if args.quick else (30, 10)
    current = run_harness(
        repeats_em,
        repeats_strength,
        block_size=args.block_size,
        include_xxl=args.xxl or _xxl_opted_in(),
    )
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        # accept either a raw harness report or a merged trajectory
        baseline = baseline.get("after", baseline)
        report = merge_with_baseline(baseline, current)
    else:
        report = current
    with open(args.json, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report.get("speedup", report), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
