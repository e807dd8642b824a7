"""GenClus: relation strength-aware clustering of heterogeneous
information networks with incomplete attributes.

A from-scratch reproduction of Sun, Aggarwal, Han (PVLDB 5(5), 2012).
The top-level package re-exports the pieces most users need; the
subpackages hold the full system:

* :mod:`repro.hin` -- the heterogeneous-network substrate (typed nodes
  and links, weighted edges, incomplete attribute tables, serialization).
* :mod:`repro.core` -- the GenClus model and algorithm.
* :mod:`repro.baselines` -- NetPLSA, iTopicModel, k-means, spectral.
* :mod:`repro.datagen` -- weather-sensor and synthetic-DBLP generators.
* :mod:`repro.eval` -- NMI, MAP, similarity functions, link prediction.
* :mod:`repro.experiments` -- one module per paper table/figure.
* :mod:`repro.serving` -- model artifacts, online fold-in inference,
  and the query engine (``python -m repro.serving``).

The re-exports are lazy (PEP 562 ``__getattr__``): ``import repro``
loads nothing, and each name imports its defining module on first
access.  That is what keeps a serving process light -- ``python -m
repro.serving serve`` and its shard workers import neither scipy nor
the training stack (:mod:`repro.core.genclus` and the solver modules
behind it); those load when something first fits or promotes.

Quickstart::

    from repro import GenClus, GenClusConfig, NetworkBuilder, TextAttribute

    builder = NetworkBuilder()
    builder.object_type("user").object_type("book")
    builder.add_paired_relation("likes", "user", "book", inverse="liked_by")
    ...
    network = builder.build()
    result = GenClus(GenClusConfig(n_clusters=2, seed=0)).fit(
        network, attributes=["text"])
    print(result.strengths())
"""

from repro._lazy import lazy_exports

# name -> defining module, imported on first access
_EXPORTS = {
    "GenClusConfig": "repro.core.config",
    "GenClus": "repro.core.genclus",
    "GenClusResult": "repro.core.result",
    "ModelState": "repro.core.state",
    "AttributeSpecError": "repro.exceptions",
    "ConfigError": "repro.exceptions",
    "ConvergenceError": "repro.exceptions",
    "NetworkError": "repro.exceptions",
    "ReproError": "repro.exceptions",
    "SchemaError": "repro.exceptions",
    "SerializationError": "repro.exceptions",
    "ServingError": "repro.exceptions",
    "StateError": "repro.exceptions",
    "NumericAttribute": "repro.hin.attributes",
    "TextAttribute": "repro.hin.attributes",
    "NetworkBuilder": "repro.hin.builder",
    "load_network": "repro.hin.io",
    "save_network": "repro.hin.io",
    "HeterogeneousNetwork": "repro.hin.network",
    "NetworkSchema": "repro.hin.schema",
    "InferenceEngine": "repro.serving.engine",
    "ModelArtifact": "repro.serving.artifact",
    "NewNode": "repro.serving.foldin",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    "AttributeSpecError",
    "ConfigError",
    "ConvergenceError",
    "GenClus",
    "GenClusConfig",
    "GenClusResult",
    "HeterogeneousNetwork",
    "InferenceEngine",
    "ModelArtifact",
    "ModelState",
    "NetworkBuilder",
    "NetworkError",
    "NetworkSchema",
    "NewNode",
    "NumericAttribute",
    "ReproError",
    "SchemaError",
    "SerializationError",
    "ServingError",
    "StateError",
    "TextAttribute",
    "__version__",
    "load_network",
    "save_network",
]
