"""Tests for repro.serving.artifact (persist/load of fitted models)."""

import json

import numpy as np
import pytest

from repro import GenClus, GenClusConfig, GenClusResult
from repro.datagen.toy import political_forum_network
from repro.datagen.weather import WeatherConfig, generate_weather_network
from repro.exceptions import SerializationError
from repro.experiments.weather_common import WEATHER_ATTRIBUTES
from repro.serving.artifact import (
    SCHEMA_VERSION,
    ModelArtifact,
    load_artifact,
    save_artifact,
)


@pytest.fixture(scope="module")
def forum_result():
    network = political_forum_network()
    config = GenClusConfig(
        n_clusters=2, outer_iterations=5, seed=0, n_init=3
    )
    return GenClus(config).fit(network, attributes=["text"])


@pytest.fixture(scope="module")
def weather_result():
    generated = generate_weather_network(
        WeatherConfig(
            n_temperature=30,
            n_precipitation=15,
            k_neighbors=3,
            n_observations=3,
            seed=0,
        )
    )
    config = GenClusConfig(
        n_clusters=4, outer_iterations=2, seed=0, n_init=2
    )
    return GenClus(config).fit(
        generated.network, attributes=WEATHER_ATTRIBUTES
    )


class TestArtifactRoundtrip:
    def test_save_load_arrays_equal(self, forum_result, tmp_path):
        path = tmp_path / "model.npz"
        forum_result.save(path)
        loaded = GenClusResult.load(path)
        np.testing.assert_array_equal(loaded.theta, forum_result.theta)
        np.testing.assert_array_equal(loaded.gamma, forum_result.gamma)
        assert loaded.relation_names == forum_result.relation_names

    def test_categorical_params_roundtrip(self, forum_result, tmp_path):
        path = forum_result.save(tmp_path / "model.npz")
        loaded = load_artifact(path)
        params = loaded.attribute_params["text"]
        np.testing.assert_array_equal(
            params["beta"], forum_result.attribute_params["text"]["beta"]
        )
        assert params["vocabulary"] == tuple(
            forum_result.attribute_params["text"]["vocabulary"]
        )

    def test_gaussian_params_roundtrip(self, weather_result, tmp_path):
        path = weather_result.save(tmp_path / "model.npz")
        loaded = load_artifact(path)
        for name in WEATHER_ATTRIBUTES:
            params = loaded.attribute_params[name]
            np.testing.assert_array_equal(
                params["means"],
                weather_result.attribute_params[name]["means"],
            )
            np.testing.assert_array_equal(
                params["variances"],
                weather_result.attribute_params[name]["variances"],
            )

    def test_node_map_roundtrip(self, forum_result, tmp_path):
        path = forum_result.save(tmp_path / "model.npz")
        loaded = GenClusResult.load(path)
        source = forum_result.network
        assert loaded.network.node_ids == source.node_ids
        for node in source.node_ids:
            assert loaded.network.type_of(node) == source.type_of(node)
            np.testing.assert_array_equal(
                loaded.membership_of(node),
                forum_result.membership_of(node),
            )

    def test_history_roundtrip(self, forum_result, tmp_path):
        path = forum_result.save(tmp_path / "model.npz")
        loaded = GenClusResult.load(path)
        assert len(loaded.history) == len(forum_result.history)
        np.testing.assert_allclose(
            loaded.history.gamma_trajectory(),
            forum_result.history.gamma_trajectory(),
        )
        np.testing.assert_allclose(
            loaded.history.g1_series(), forum_result.history.g1_series()
        )

    def test_loaded_network_carries_training_edges(
        self, forum_result, tmp_path
    ):
        """Schema v2 embeds the training links: a reloaded result's
        network is refit-capable, edge for edge."""
        path = forum_result.save(tmp_path / "model.npz")
        loaded = GenClusResult.load(path)
        source = forum_result.network
        assert loaded.network.num_edges() == source.num_edges()
        assert set(loaded.network.edges()) == set(source.edges())
        assert set(loaded.network.schema.relation_names) == set(
            source.schema.relation_names
        )

    def test_loaded_network_carries_observations(
        self, forum_result, tmp_path
    ):
        """Schema v2 embeds the raw attribute tables, not just the
        learned parameters."""
        path = forum_result.save(tmp_path / "model.npz")
        loaded = GenClusResult.load(path)
        source = forum_result.network.attribute("text")
        restored = loaded.network.attribute("text")
        assert set(restored.nodes_with_observations()) == set(
            source.nodes_with_observations()
        )
        for node in source.nodes_with_observations():
            assert restored.bag_of(node) == source.bag_of(node)

    def test_v1_bundle_loads_serve_only(self, forum_result, tmp_path):
        """A serve-only bundle (frozen without its training data)
        loads with the same parameters, but a node-only network (no
        links, no observations)."""
        artifact = ModelArtifact.from_result(
            forum_result, include_training_data=False
        )
        path = artifact.save(tmp_path / "serve-only")
        loaded = load_artifact(path)
        assert not loaded.refit_capable
        result = loaded.to_result()
        np.testing.assert_array_equal(result.theta, forum_result.theta)
        assert result.network.num_edges() == 0
        assert result.network.attribute_names == ()

    def test_result_api_works_after_reload(self, forum_result, tmp_path):
        path = forum_result.save(tmp_path / "model.npz")
        loaded = GenClusResult.load(path)
        assert loaded.network.node_ids == forum_result.network.node_ids
        np.testing.assert_array_equal(
            loaded.hard_labels(), forum_result.hard_labels()
        )
        assert loaded.strengths() == forum_result.strengths()
        for key in ("beta", "vocabulary"):
            np.testing.assert_array_equal(
                loaded.attribute_params["text"][key],
                forum_result.attribute_params["text"][key],
            )

    def test_summary_mentions_shape(self, forum_result, tmp_path):
        artifact = ModelArtifact.from_result(forum_result)
        text = artifact.summary()
        assert "K=2" in text
        assert "likes" in text
        assert f"schema v{SCHEMA_VERSION}" in text


def rewrite_manifest(path, **changes):
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.update(changes)
    manifest_path.write_text(json.dumps(manifest))


def array_file(path, name):
    manifest = json.loads((path / "manifest.json").read_text())
    return path / manifest["array_files"][name]


class TestArtifactValidation:
    def test_rejects_unknown_schema_version(self, forum_result, tmp_path):
        path = forum_result.save(tmp_path / "future")
        rewrite_manifest(path, schema_version=SCHEMA_VERSION + 1)
        with pytest.raises(SerializationError, match="schema version"):
            load_artifact(path)

    def test_rejects_foreign_format(self, forum_result, tmp_path):
        path = forum_result.save(tmp_path / "foreign")
        rewrite_manifest(path, format="something/else")
        with pytest.raises(SerializationError, match="format marker"):
            load_artifact(path)

    def test_rejects_npz_without_manifest(self, tmp_path):
        """A directory of arrays without a manifest is not a bundle."""
        path = tmp_path / "plain"
        path.mkdir()
        np.save(path / "theta.npy", np.ones((2, 2)))
        with pytest.raises(SerializationError, match="manifest"):
            load_artifact(path)

    def test_rejects_non_npz_file(self, tmp_path):
        """Any file -- garbage or a single-file ``.npz`` -- is rejected
        with an error naming it."""
        garbage = tmp_path / "garbage"
        garbage.write_bytes(b"definitely not a bundle")
        legacy = tmp_path / "legacy.npz"
        np.savez(legacy, theta=np.ones((2, 2)))
        for path in (garbage, legacy, tmp_path / "missing"):
            with pytest.raises(
                SerializationError, match="not an artifact bundle"
            ) as excinfo:
                load_artifact(path)
            assert str(path) in str(excinfo.value)

    def test_rejects_truncated_bundle(self, forum_result, tmp_path):
        """A truncated array file raises the documented
        SerializationError naming the array, not a numpy error."""
        path = forum_result.save(tmp_path / "model")
        theta = array_file(path, "theta")
        data = theta.read_bytes()
        theta.write_bytes(data[: len(data) // 2])
        with pytest.raises(SerializationError, match="corrupt.*'theta'"):
            load_artifact(path)

    def test_rejects_shape_mismatch(self, forum_result, tmp_path):
        path = forum_result.save(tmp_path / "model")
        theta = array_file(path, "theta")
        np.save(theta, np.load(theta)[:-1])
        with pytest.raises(SerializationError, match="rows"):
            load_artifact(path)

    def test_rejects_non_scalar_node_ids(self):
        from repro.core.diagnostics import RunHistory
        from repro.hin.builder import NetworkBuilder

        builder = NetworkBuilder()
        builder.object_type("user")
        builder.node(("tuple", "id"), "user")
        network = builder.build()
        bad = GenClusResult(
            theta=np.array([[1.0]]),
            gamma=np.zeros(0),
            relation_names=(),
            attribute_params={},
            history=RunHistory(relation_names=()),
            network=network,
        )
        with pytest.raises(SerializationError, match="JSON scalar"):
            ModelArtifact.from_result(bad)


class TestMmapServing:
    """Schema-v3 bundle directories served off read-only maps."""

    @pytest.fixture()
    def weather_bundle(self, weather_result, tmp_path):
        return weather_result.save(tmp_path / "model_v3")

    @staticmethod
    def _query(engine):
        from repro.datagen.weather import (
            RELATION_TT,
            TEMPERATURE_ATTR,
            TEMPERATURE_TYPE,
        )

        return engine.query(
            TEMPERATURE_TYPE,
            links=((RELATION_TT, "T0", 1.0), (RELATION_TT, "T3", 1.0)),
            numeric={TEMPERATURE_ATTR: [1.0, 1.2]},
        )

    @staticmethod
    def _batch(prefix, count=6):
        from repro.datagen.weather import (
            RELATION_TT,
            TEMPERATURE_ATTR,
            TEMPERATURE_TYPE,
        )
        from repro.serving import NewNode

        return [
            NewNode(
                f"{prefix}{i}",
                TEMPERATURE_TYPE,
                links=((RELATION_TT, f"T{i}", 1.0),),
                numeric={TEMPERATURE_ATTR: [1.0 + 0.1 * i]},
            )
            for i in range(count)
        ]

    def test_mmap_bit_identical_to_eager(self, weather_bundle):
        from repro.datagen.weather import (
            RELATION_TT,
            TEMPERATURE_ATTR,
            TEMPERATURE_TYPE,
        )
        from repro.serving import InferenceEngine

        eager = InferenceEngine.load(weather_bundle, cache_size=0)
        mapped = InferenceEngine.load(
            weather_bundle, mmap=True, cache_size=0
        )
        np.testing.assert_array_equal(
            self._query(mapped), self._query(eager)
        )
        queries = [
            dict(
                object_type=TEMPERATURE_TYPE,
                links=((RELATION_TT, f"T{i}", 1.0),),
                numeric={TEMPERATURE_ATTR: [0.5 + 0.2 * i]},
            )
            for i in range(5)
        ]
        for got, want in zip(
            mapped.score_many(queries), eager.score_many(queries)
        ):
            np.testing.assert_array_equal(got, want)

    def test_mmap_membership_rows_identical(
        self, weather_bundle, weather_result
    ):
        loaded = GenClusResult.load(weather_bundle, mmap=True)
        np.testing.assert_array_equal(
            loaded.theta, weather_result.theta
        )
        np.testing.assert_array_equal(
            loaded.gamma, weather_result.gamma
        )

    def test_mmap_promote_bit_identical(self, weather_bundle):
        from repro.serving import InferenceEngine

        config = GenClusConfig(n_clusters=4, outer_iterations=2, seed=0)
        results = []
        for mmap in (False, True):
            engine = InferenceEngine.load(
                weather_bundle, mmap=mmap, cache_size=0
            )
            engine.extend(self._batch("new-T"))
            results.append(engine.promote(config))
        eager, mapped = results
        np.testing.assert_array_equal(mapped.theta, eager.theta)
        np.testing.assert_array_equal(mapped.gamma, eager.gamma)
        assert (
            mapped.history.records[-1].g1_value
            == eager.history.records[-1].g1_value
        )

    def test_lazy_checksum_catches_flip_on_first_touch(
        self, weather_bundle
    ):
        from repro.serving import InferenceEngine

        manifest = json.loads(
            (weather_bundle / "manifest.json").read_text()
        )
        theta_file = weather_bundle / manifest["array_files"]["theta"]
        raw = bytearray(theta_file.read_bytes())
        # last byte of the file = inside the last theta row, far from
        # the rows the query below touches
        raw[-1] ^= 0xFF
        theta_file.write_bytes(bytes(raw))

        # eager load verifies everything up front and fails immediately
        with pytest.raises(SerializationError, match="theta"):
            load_artifact(weather_bundle)

        # mapped load defers: serving starts, the first materializing
        # path (theta growth on extend) trips the checksum...
        engine = InferenceEngine.load(
            weather_bundle, mmap=True, cache_size=0
        )
        assert self._query(engine).shape == (4,)
        with pytest.raises(SerializationError, match="theta"):
            engine.extend(self._batch("new-T"))
        # ...and keeps failing -- a mismatch never marks verified
        with pytest.raises(SerializationError, match="theta"):
            engine.extend(self._batch("other-T"))

    def test_mutation_never_writes_through_the_map(self, weather_bundle):
        from repro.serving import InferenceEngine

        manifest = json.loads(
            (weather_bundle / "manifest.json").read_text()
        )
        theta_file = weather_bundle / manifest["array_files"]["theta"]
        before = theta_file.read_bytes()
        engine = InferenceEngine.load(
            weather_bundle, mmap=True, cache_size=0
        )
        engine.extend(self._batch("new-T"))
        engine.promote(
            GenClusConfig(n_clusters=4, outer_iterations=2, seed=0)
        )
        assert theta_file.read_bytes() == before
        # a fresh mapped load still serves the original rows
        reloaded = load_artifact(weather_bundle, mmap=True)
        assert reloaded.mapped

    def test_deferred_telemetry_settles_on_materialization(
        self, weather_bundle
    ):
        from repro.serving import InferenceEngine

        engine = InferenceEngine.load(
            weather_bundle, mmap=True, cache_size=0
        )
        memory = engine.info()["memory"]
        assert memory["artifact_mapped"]
        assert memory["theta_mapped"]
        assert memory["arrays_deferred"] > 0
        assert memory["arrays_pending"] == memory["arrays_deferred"]
        # full materialization (to_result) verifies everything
        engine.artifact.to_result()
        memory = engine.info()["memory"]
        assert memory["arrays_pending"] == 0
        assert memory["arrays_verified"] == memory["arrays_deferred"]

    def test_rejects_path_traversal_in_manifest(
        self, weather_bundle, tmp_path
    ):
        outside = tmp_path / "evil.npy"
        np.save(outside, np.zeros(3))
        manifest_path = weather_bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["array_files"]["gamma"] = "../evil.npy"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SerializationError, match="escapes"):
            load_artifact(weather_bundle, verify_checksums=False)

    def test_v3_manifest_records_node_columns_and_stats(
        self, weather_bundle
    ):
        manifest = json.loads(
            (weather_bundle / "manifest.json").read_text()
        )
        # the node table lives in flat arrays, not the JSON manifest
        assert "nodes" not in manifest
        assert "nodes/ids" in manifest["array_files"]
        assert "nodes/type_codes" in manifest["array_files"]
        assert sorted(manifest["node_type_table"]) == [
            "precipitation_sensor",
            "temperature_sensor",
        ]
        stats = manifest["save_stats"]
        assert stats["array_bytes"] > 0
        assert stats["compressed"] is False
        assert set(manifest["array_files"]) == set(manifest["arrays"])
