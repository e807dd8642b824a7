"""Tests for the robustness layer: repro.faults deterministic fault
injection, supervised scatter-gather (retry / backoff / circuit
breakers / partial-mode degradation / heal), transactional promote
with rollback, checksummed crash-safe artifacts, and the chaos CLI.

The load-bearing contract extends PR 5/6: supervision switched on with
a fault-free plan is **bit-identical** to the unsupervised cluster at
every shard count -- and after a failed promote the served model
answers bit-identically to before the attempt.
"""

import json
import shutil
import threading
import zlib

import numpy as np
import pytest

from repro import GenClus, GenClusConfig
from repro.datagen.toy import political_forum_network
from repro.exceptions import SerializationError, ServingError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    resolve_faults,
)
from repro.obs import series_value
from repro.serving import (
    InferenceEngine,
    NewNode,
    RetrainDriver,
    RetrainPolicy,
    ShardFailedError,
    ShardFailure,
    ShardedEngine,
    SupervisionPolicy,
    load_artifact,
)
from repro.serving.__main__ import main
from repro.serving.supervision import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ShardSupervisor,
)
from repro.serving.telemetry import RouterMetrics

SHARD_COUNTS = (1, 2, 3)

QUERIES = [
    {"object_type": "user", "links": [("writes", "blog0_1")]},
    {"object_type": "user", "links": [("writes", "blog1_1")]},
    {"object_type": "user"},
    {"object_type": "user", "links": [("writes", "blog0_2", 2.0)]},
    {"object_type": "user", "links": [("writes", "blog1_2")]},
]


@pytest.fixture(scope="module")
def forum_result():
    network = political_forum_network()
    config = GenClusConfig(
        n_clusters=2, outer_iterations=5, seed=0, n_init=3
    )
    return GenClus(config).fit(network, attributes=["text"])


@pytest.fixture(scope="module")
def artifact_path(forum_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("faults") / "forum.bundle"
    forum_result.save(path)
    return path


@pytest.fixture(scope="module")
def reference_rows(forum_result):
    engine = InferenceEngine.from_result(forum_result)
    return engine.score_many([dict(q) for q in QUERIES])


def singleton(forum_result, **kwargs):
    return InferenceEngine.from_result(forum_result, **kwargs)


def cluster(forum_result, n_shards, **kwargs):
    return ShardedEngine.from_result(
        forum_result, n_shards=n_shards, **kwargs
    )


def fast_policy(**kwargs):
    kwargs.setdefault("max_retries", 1)
    kwargs.setdefault("backoff_base", 0.0)
    kwargs.setdefault("breaker_threshold", 2)
    return SupervisionPolicy(**kwargs)


# ----------------------------------------------------------------------
# fault injection primitives
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_fires_at_nth_traversal_only(self):
        injector = FaultInjector(
            FaultPlan().fail("site", at=3, times=1)
        )
        injector.traverse("site")
        injector.traverse("site")
        with pytest.raises(InjectedFault):
            injector.traverse("site")
        injector.traverse("site")  # window exhausted
        assert injector.traversals("site") == 4

    def test_times_none_fires_forever(self):
        injector = FaultInjector(FaultPlan().fail("site", times=None))
        for _ in range(5):
            with pytest.raises(InjectedFault):
                injector.traverse("site")

    def test_labels_select_the_target(self):
        injector = FaultInjector(
            FaultPlan().fail("site", times=None, shard=1)
        )
        injector.traverse("site", shard=0)
        with pytest.raises(InjectedFault):
            injector.traverse("site", shard=1)
        # per-spec counters: only matching traversals advance them
        assert injector.traversals("site") == 2

    def test_latency_uses_injected_sleep(self):
        naps = []
        injector = FaultInjector(
            FaultPlan().delay("site", seconds=0.25),
            sleep=naps.append,
        )
        injector.traverse("site")
        assert naps == [0.25]

    def test_corrupt_is_seed_deterministic(self):
        rows = np.arange(12, dtype=float).reshape(3, 4)
        outs = []
        for _ in range(2):
            injector = FaultInjector(
                FaultPlan(seed=9).corrupt("site")
            )
            outs.append(injector.traverse("site", payload=rows.copy()))
        assert np.isnan(outs[0]).sum() == 1
        np.testing.assert_array_equal(
            np.isnan(outs[0]), np.isnan(outs[1])
        )
        # the original payload is never mutated in place
        assert not np.isnan(rows).any()

    def test_event_log_records_firings(self):
        injector = FaultInjector(
            FaultPlan().fail("site", times=2, shard=1)
        )
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.traverse("site", shard=1)
        events = injector.events()
        assert [event["traversal"] for event in events] == [1, 2]
        assert events[0]["labels"] == {"shard": "1"}

    def test_resolve_faults(self):
        assert resolve_faults(None) is None
        injector = FaultInjector(FaultPlan())
        assert resolve_faults(injector) is injector
        wrapped = resolve_faults(FaultPlan(seed=3))
        assert isinstance(wrapped, FaultInjector)
        assert wrapped.seed == 3

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="s", kind="nope")
        with pytest.raises(ValueError):
            FaultSpec(site="s", at=0)


# ----------------------------------------------------------------------
# circuit breaker state machine (fake clock)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, **kwargs):
        kwargs.setdefault("breaker_threshold", 2)
        kwargs.setdefault("breaker_reset_after", 10.0)
        policy = fast_policy(**kwargs)
        now = [0.0]
        breaker = CircuitBreaker(policy, clock=lambda: now[0])
        return breaker, now

    def test_closed_to_open_at_threshold(self):
        breaker, _ = self.make()
        assert breaker.state == BREAKER_CLOSED
        assert not breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.record_failure()  # threshold=2 trips
        assert breaker.state == BREAKER_OPEN

    def test_open_blocks_until_reset_window(self):
        breaker, now = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.allow()
        now[0] = 9.9
        assert not breaker.allow()
        now[0] = 10.1
        assert breaker.allow()  # probe
        assert breaker.state == BREAKER_HALF_OPEN

    def test_half_open_probe_failure_reopens(self):
        breaker, now = self.make()
        breaker.record_failure()
        breaker.record_failure()
        now[0] = 11.0
        assert breaker.allow()
        assert breaker.record_failure()  # probe failed: trip again
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()

    def test_half_open_probe_success_closes(self):
        breaker, now = self.make()
        breaker.record_failure()
        breaker.record_failure()
        now[0] = 11.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.consecutive_failures == 0

    def test_reset(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.reset()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()


# ----------------------------------------------------------------------
# supervisor: retries, deterministic backoff, timeouts
# ----------------------------------------------------------------------
class TestShardSupervisor:
    def make(self, policy, naps=None):
        from repro.obs import Observability

        metrics = RouterMetrics(Observability().metrics)
        supervisor = ShardSupervisor(
            1,
            policy,
            metrics,
            sleep=(naps.append if naps is not None else lambda _s: None),
        )
        return supervisor, metrics

    def test_backoff_schedule_is_jitter_free(self):
        policy = SupervisionPolicy(
            max_retries=4,
            backoff_base=0.05,
            backoff_factor=2.0,
            backoff_max=0.3,
        )
        assert policy.backoff_schedule() == (0.05, 0.1, 0.2, 0.3)
        assert policy.backoff_schedule() == policy.backoff_schedule()

    def test_retry_sleeps_follow_the_schedule(self):
        schedules = []
        for _ in range(2):  # identical across runs: no jitter
            naps = []
            supervisor, _ = self.make(
                SupervisionPolicy(
                    max_retries=2, backoff_base=0.05, breaker_threshold=9
                ),
                naps=naps,
            )
            attempts = [0]

            def flaky():
                attempts[0] += 1
                if attempts[0] < 3:
                    raise RuntimeError("transient")
                return "ok"

            assert supervisor.call(0, "site", flaky) == "ok"
            schedules.append(tuple(naps))
            supervisor.shutdown()
        assert schedules[0] == schedules[1] == (0.05, 0.1)

    def test_retry_counter_and_exhaustion(self):
        supervisor, metrics = self.make(
            fast_policy(max_retries=2, breaker_threshold=9)
        )

        def always_broken():
            raise RuntimeError("down")

        with pytest.raises(ShardFailedError) as excinfo:
            supervisor.call(0, "shard.score", always_broken)
        assert excinfo.value.attempts == 3
        assert excinfo.value.shard == 0
        snapshot = metrics.registry.snapshot()
        assert series_value(snapshot, "repro_shard_retries_total") == 2

    def test_validate_hook_counts_as_failure(self):
        supervisor, _ = self.make(fast_policy(breaker_threshold=9))

        def fine():
            return np.array([1.0, np.nan])

        def check(result):
            if not np.isfinite(result).all():
                raise ServingError("non-finite")

        with pytest.raises(ShardFailedError, match="non-finite"):
            supervisor.call(0, "site", fine, validate=check)

    def test_call_timeout_fails_slow_calls(self):
        supervisor, _ = self.make(
            fast_policy(max_retries=0, call_timeout=0.05)
        )
        release = threading.Event()

        def stuck():
            release.wait(5.0)
            return "late"

        with pytest.raises(ShardFailedError, match="call_timeout"):
            supervisor.call(0, "site", stuck)
        release.set()
        supervisor.shutdown()

    def test_cluster_close_stops_the_timeout_pool(
        self, forum_result, reference_rows
    ):
        def supervisor_threads():
            return [
                thread
                for thread in threading.enumerate()
                if thread.name.startswith("repro-shard-supervisor")
            ]

        before = set(supervisor_threads())
        engine = cluster(
            forum_result, 2, supervision=fast_policy(call_timeout=5.0)
        )
        rows = engine.score_many([dict(q) for q in QUERIES])
        for got, want in zip(rows, reference_rows):
            np.testing.assert_array_equal(got, want)
        started = [t for t in supervisor_threads() if t not in before]
        assert started  # call_timeout runs shard calls on the pool
        engine.close()
        for thread in started:
            thread.join(timeout=5.0)
        assert not [t for t in supervisor_threads() if t in started]

    def test_breaker_open_fails_fast_and_recovers_on_reset(self):
        supervisor, metrics = self.make(
            fast_policy(max_retries=0, breaker_threshold=1)
        )
        with pytest.raises(ShardFailedError):
            supervisor.call(0, "site", self._boom)
        # breaker is open: the callable must not run again
        with pytest.raises(ShardFailedError, match="breaker is open"):
            supervisor.call(0, "site", self._untouchable)
        snapshot = metrics.registry.snapshot()
        assert series_value(snapshot, "repro_breaker_opens_total") == 1
        supervisor.reset(0)
        assert supervisor.call(0, "site", lambda: "up") == "up"
        assert supervisor.states() == ["closed"]

    @staticmethod
    def _boom():
        raise RuntimeError("down")

    @staticmethod
    def _untouchable():  # pragma: no cover - must never run
        raise AssertionError("called through an open breaker")

    def test_policy_validation(self):
        with pytest.raises(ServingError):
            SupervisionPolicy(max_retries=-1)
        with pytest.raises(ServingError):
            SupervisionPolicy(backoff_factor=0.5)
        with pytest.raises(ServingError):
            SupervisionPolicy(breaker_threshold=0)
        with pytest.raises(ServingError):
            SupervisionPolicy(call_timeout=0.0)


# ----------------------------------------------------------------------
# the determinism clause: supervision on, fault-free == unsupervised
# ----------------------------------------------------------------------
class TestSupervisedBitIdentity:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_score_many_and_query(
        self, forum_result, reference_rows, n_shards
    ):
        supervised = cluster(
            forum_result, n_shards, supervision=SupervisionPolicy()
        )
        rows = supervised.score_many([dict(q) for q in QUERIES])
        for got, want in zip(rows, reference_rows):
            np.testing.assert_array_equal(got, want)
        plain = singleton(forum_result)
        np.testing.assert_array_equal(
            supervised.query("user", links=[("writes", "blog0_1")]),
            plain.query("user", links=[("writes", "blog0_1")]),
        )

    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_promote_bit_identity(self, forum_result, n_shards):
        new = [
            NewNode(
                "u_new",
                "user",
                links=[("writes", "blog0_1", 1.0)],
            )
        ]
        supervised = cluster(
            forum_result, n_shards, supervision=SupervisionPolicy()
        )
        plain = cluster(forum_result, n_shards)
        supervised.extend(list(new))
        plain.extend(list(new))
        got = supervised.promote()
        want = plain.promote()
        np.testing.assert_array_equal(got.theta, want.theta)
        np.testing.assert_array_equal(got.gamma, want.gamma)
        np.testing.assert_array_equal(
            got.history.g1_series(), want.history.g1_series()
        )


# ----------------------------------------------------------------------
# partial-mode degradation
# ----------------------------------------------------------------------
class TestPartialMode:
    def test_marks_exactly_the_broken_shard(
        self, forum_result, reference_rows
    ):
        degraded = cluster(
            forum_result,
            3,
            supervision=fast_policy(),
            faults=FaultPlan().fail(
                "shard.foldin", times=None, shard=1
            ),
        )
        rows = degraded.score_many(
            [dict(q) for q in QUERIES], partial=True
        )
        markers = [r for r in rows if isinstance(r, ShardFailure)]
        assert markers and all(m.shard == 1 for m in markers)
        assert all(m.site == "shard.foldin" for m in markers)
        healthy = 0
        for got, want in zip(rows, reference_rows):
            if isinstance(got, ShardFailure):
                continue
            np.testing.assert_array_equal(got, want)
            healthy += 1
        assert healthy == len(QUERIES) - len(markers)
        snapshot = degraded.metrics_snapshot()
        assert series_value(
            snapshot, "repro_degraded_queries_total"
        ) == len(markers)

    def test_strict_mode_still_raises(self, forum_result):
        broken = cluster(
            forum_result,
            2,
            supervision=fast_policy(),
            faults=FaultPlan().fail(
                "shard.foldin", times=None, shard=0
            ),
        )
        with pytest.raises(ShardFailedError):
            broken.score_many([dict(q) for q in QUERIES])

    def test_partial_without_faults_returns_arrays(
        self, forum_result, reference_rows
    ):
        healthy = cluster(
            forum_result, 2, supervision=SupervisionPolicy()
        )
        rows = healthy.score_many(
            [dict(q) for q in QUERIES], partial=True
        )
        assert not any(isinstance(r, ShardFailure) for r in rows)
        for got, want in zip(rows, reference_rows):
            np.testing.assert_array_equal(got, want)

    def test_unsupervised_rejects_partial_failures_too(
        self, forum_result
    ):
        # partial mode without a supervisor: faults still surface as
        # markers (degradation does not require supervision)
        degraded = cluster(
            forum_result,
            2,
            faults=FaultPlan().fail(
                "shard.foldin", times=None, shard=1
            ),
        )
        rows = degraded.score_many(
            [dict(q) for q in QUERIES], partial=True
        )
        assert any(isinstance(r, ShardFailure) for r in rows)


# ----------------------------------------------------------------------
# kill -> degrade -> heal -> bit-identical recovery
# ----------------------------------------------------------------------
class TestHealRecovery:
    def test_breaker_opens_rebuild_heal_restores_identity(
        self, forum_result, reference_rows
    ):
        # times=2 is exactly one scatter's attempts (1 + 1 retry) at
        # threshold 2: the first batch trips the breaker, then the
        # plan is exhausted and healing must restore bit-identity
        victim = cluster(
            forum_result,
            3,
            supervision=fast_policy(),
            faults=FaultPlan().fail("shard.foldin", times=2, shard=1),
        )
        rows = victim.score_many(
            [dict(q) for q in QUERIES], partial=True
        )
        assert any(isinstance(r, ShardFailure) for r in rows)
        assert victim.supervisor.states()[1] == "open"
        assert victim.heal() == (1,)
        assert victim.supervisor.states() == [
            "closed",
            "closed",
            "closed",
        ]
        recovered = victim.score_many([dict(q) for q in QUERIES])
        for got, want in zip(recovered, reference_rows):
            np.testing.assert_array_equal(got, want)
        snapshot = victim.metrics_snapshot()
        assert series_value(
            snapshot, "repro_breaker_opens_total"
        ) == 1
        assert series_value(
            snapshot, "repro_shard_rebuilds_total"
        ) >= 1

    def test_rebuild_replays_durable_deltas(self, forum_result):
        new = NewNode(
            "u_new", "user", links=[("writes", "blog0_1", 1.0)]
        )
        victim = cluster(
            forum_result,
            2,
            supervision=fast_policy(),
            faults=FaultPlan().fail("shard.foldin", times=2, shard=0),
        )
        mirror = cluster(forum_result, 2)
        victim.extend([new])
        mirror.extend([new])
        with pytest.raises(ShardFailedError):
            victim.score_many([dict(q) for q in QUERIES])
        victim.heal()
        assert victim.num_extension_nodes == mirror.num_extension_nodes
        got = victim.score_many([dict(q) for q in QUERIES])
        want = mirror.score_many([dict(q) for q in QUERIES])
        for left, right in zip(got, want):
            np.testing.assert_array_equal(left, right)

    def test_heal_validates_shard_id(self, forum_result):
        healthy = cluster(
            forum_result, 2, supervision=SupervisionPolicy()
        )
        with pytest.raises(ServingError):
            healthy.heal(shard=7)

    def test_info_reports_supervision(self, forum_result):
        supervised = cluster(
            forum_result, 2, supervision=fast_policy()
        )
        section = supervised.info()["supervision"]
        assert section["enabled"]
        assert section["breakers"] == ["closed", "closed"]
        assert section["policy"]["breaker_threshold"] == 2
        assert cluster(forum_result, 2).info()["supervision"] == {
            "enabled": False
        }


# ----------------------------------------------------------------------
# transactional promote
# ----------------------------------------------------------------------
class TestPromoteRollback:
    def probe(self, engine):
        return engine.query("user", links=[("writes", "blog0_1")])

    def test_singleton_rollback_is_bit_identical(self, forum_result):
        engine = singleton(
            forum_result,
            faults=FaultPlan().fail("promote.refit"),
        )
        engine.extend(
            [NewNode("u_new", "user", links=[("writes", "blog0_1", 1.0)])]
        )
        before = self.probe(engine)
        with pytest.raises(InjectedFault):
            engine.promote()
        np.testing.assert_array_equal(before, self.probe(engine))
        assert engine.num_extension_nodes == 1  # still an extension
        snapshot = engine.metrics_snapshot()
        assert series_value(
            snapshot, "repro_promote_rollbacks_total"
        ) == 1
        engine.promote()  # the plan is exhausted: next attempt lands
        assert engine.num_extension_nodes == 0

    def test_divergent_candidate_is_rejected(self, forum_result):
        engine = singleton(
            forum_result,
            faults=FaultPlan().corrupt("promote.refit"),
        )
        engine.extend(
            [NewNode("u_new", "user", links=[("writes", "blog0_1", 1.0)])]
        )
        before = self.probe(engine)
        with pytest.raises(ServingError, match="non-finite"):
            engine.promote()
        np.testing.assert_array_equal(before, self.probe(engine))

    def test_router_rollback_is_bit_identical(self, forum_result):
        failing = cluster(
            forum_result,
            2,
            faults=FaultPlan().fail("promote.refit"),
        )
        failing.extend(
            [NewNode("u_new", "user", links=[("writes", "blog0_1", 1.0)])]
        )
        before = self.probe(failing)
        plan_before = failing.plan
        with pytest.raises(InjectedFault):
            failing.promote()
        np.testing.assert_array_equal(before, self.probe(failing))
        assert failing.plan == plan_before
        snapshot = failing.metrics_snapshot()
        assert series_value(
            snapshot, "repro_promote_rollbacks_total"
        ) == 1


# ----------------------------------------------------------------------
# retrain driver retry budget
# ----------------------------------------------------------------------
class TestDriverRetry:
    def test_failures_swallowed_within_budget_then_raise(
        self, forum_result
    ):
        engine = singleton(
            forum_result,
            faults=FaultPlan().fail("promote.refit", times=2),
        )
        driver = RetrainDriver(
            engine,
            RetrainPolicy(
                max_staleness_queries=1, max_consecutive_failures=2
            ),
        )
        self_probe = engine.query("user")
        round_ = driver.tick()  # failure 1: recorded, swallowed
        assert round_ is not None and round_.error is not None
        with pytest.raises(InjectedFault):
            driver.tick()  # failure 2: budget hit, surfaces
        round_ = driver.tick()  # plan exhausted: refit lands
        assert round_ is not None and round_.error is None
        assert [r.error is None for r in driver.rounds] == [
            False,
            False,
            True,
        ]
        del self_probe

    def test_default_budget_keeps_historical_raise(self, forum_result):
        engine = singleton(
            forum_result,
            faults=FaultPlan().fail("promote.refit"),
        )
        driver = RetrainDriver(
            engine, RetrainPolicy(max_staleness_queries=1)
        )
        engine.query("user")
        with pytest.raises(InjectedFault):
            driver.tick()
        assert driver.rounds[-1].error is not None

    def test_policy_validates_budget(self):
        with pytest.raises(ServingError):
            RetrainPolicy(
                max_staleness_queries=1, max_consecutive_failures=0
            )


# ----------------------------------------------------------------------
# artifact integrity
# ----------------------------------------------------------------------
class TestArtifactIntegrity:
    @staticmethod
    def copy_bundle(artifact_path, target):
        shutil.copytree(artifact_path, target)
        manifest = json.loads((target / "manifest.json").read_text())
        return manifest, target / manifest["array_files"]["theta"]

    def test_manifest_records_checksums(self, artifact_path):
        manifest = json.loads((artifact_path / "manifest.json").read_text())
        checksums = manifest["checksums"]
        assert "theta" in checksums
        theta = np.ascontiguousarray(
            np.load(artifact_path / manifest["array_files"]["theta"])
        )
        assert checksums["theta"] == zlib.crc32(theta.tobytes())
        assert "manifest" not in checksums

    def test_checksum_catches_tampered_array(
        self, artifact_path, tmp_path
    ):
        tampered = tmp_path / "tampered"
        _, theta = self.copy_bundle(artifact_path, tampered)
        np.save(theta, np.load(theta) + 1.0)
        with pytest.raises(
            SerializationError, match="checksum mismatch.*'theta'"
        ):
            load_artifact(tampered)
        # the opt-out loads the tampered bundle anyway
        load_artifact(tampered, verify_checksums=False)

    def test_flipped_byte_names_the_failing_array(
        self, artifact_path, tmp_path
    ):
        corrupt = tmp_path / "corrupt"
        _, theta = self.copy_bundle(artifact_path, corrupt)
        raw = bytearray(theta.read_bytes())
        # the last byte lies inside theta's data, past the npy header
        raw[-1] ^= 0xFF
        theta.write_bytes(bytes(raw))
        with pytest.raises(SerializationError) as excinfo:
            load_artifact(corrupt)
        message = str(excinfo.value)
        assert str(corrupt) in message
        assert "checksum" in message and "'theta'" in message

    def test_manifest_without_checksums_is_malformed(
        self, artifact_path, tmp_path
    ):
        unchecked = tmp_path / "unchecked"
        manifest, _ = self.copy_bundle(artifact_path, unchecked)
        del manifest["checksums"]
        (unchecked / "manifest.json").write_text(json.dumps(manifest))
        for verify in (True, False):
            with pytest.raises(SerializationError, match="checksums"):
                load_artifact(unchecked, verify_checksums=verify)

    def test_save_is_crash_safe(self, forum_result, tmp_path):
        path = tmp_path / "model.bundle"
        forum_result.save(path)
        assert [entry.name for entry in tmp_path.iterdir()] == [path.name]
        # overwrite goes through the same temp-dir + rename dance
        forum_result.save(path)
        assert [entry.name for entry in tmp_path.iterdir()] == [path.name]
        load_artifact(path)

    def test_failed_save_leaves_no_scratch(self, forum_result, tmp_path):
        target = tmp_path / "missing-dir" / "model.bundle"
        with pytest.raises(Exception):
            forum_result.save(target)
        assert list(tmp_path.iterdir()) == []

    def test_artifact_load_fault_site(self, artifact_path):
        injector = resolve_faults(FaultPlan().fail("artifact.load"))
        with pytest.raises(InjectedFault):
            load_artifact(artifact_path, faults=injector)
        load_artifact(artifact_path, faults=injector)  # exhausted


# ----------------------------------------------------------------------
# chaos CLI drill
# ----------------------------------------------------------------------
class TestChaosCLI:
    def write_batch(self, tmp_path):
        batch = tmp_path / "batch.json"
        batch.write_text(
            json.dumps(
                [
                    {
                        "object_type": q["object_type"],
                        **(
                            {
                                "links": [
                                    list(link) for link in q["links"]
                                ]
                            }
                            if "links" in q
                            else {}
                        ),
                    }
                    for q in QUERIES
                ]
            )
        )
        return batch

    def test_drill_passes_and_writes_trail(
        self, artifact_path, tmp_path, capsys
    ):
        batch = self.write_batch(tmp_path)
        trail = tmp_path / "drill.jsonl"
        code = main(
            [
                "chaos",
                str(artifact_path),
                "--batch",
                str(batch),
                "--shards",
                "3",
                "--fail-shard",
                "1",
                "--jsonl",
                str(trail),
            ]
        )
        assert code == 0
        events = [
            json.loads(line)
            for line in trail.read_text().splitlines()
        ]
        phases = [event["phase"] for event in events]
        assert phases == [
            "inject",
            "degrade",
            "heal",
            "verify",
            "result",
        ]
        by_phase = {event["phase"]: event for event in events}
        assert by_phase["degrade"]["degraded"] > 0
        assert by_phase["verify"]["bit_identical"] is True
        assert by_phase["result"]["ok"] is True

    def test_drill_rejects_bad_shard(self, artifact_path, tmp_path):
        batch = self.write_batch(tmp_path)
        assert (
            main(
                [
                    "chaos",
                    str(artifact_path),
                    "--batch",
                    str(batch),
                    "--shards",
                    "3",
                    "--fail-shard",
                    "5",
                ]
            )
            == 1
        )
