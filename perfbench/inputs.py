"""Seeded inputs for the workloads and their layer probes.

The two trained models are fixed data sets, as the paper's are: the
weather sensor network of the ROADMAP baseline fit (400 temperature and
200 precipitation sensors, generator seed 0) and a DBLP four-area ACP
corpus with 4000 authors and 4000 training papers (generator seed 0).
``--seed`` draws everything a user sends them: query streams, held-out
papers, similarity nodes, written nodes and links.  A fixed training
set keeps each run's fit work identical, so run-to-run spread measures
the program and the host, not which local optimum a seed's network
happens to fall into.
"""

from __future__ import annotations

import dataclasses
import zlib

import numpy as np

from repro.datagen.dblp import (
    TITLE_ATTR,
    FourAreaConfig,
    build_acp_network,
    generate_corpus,
    ground_truth_labels,
)
from repro.datagen.weather import (
    RELATION_TT,
    TEMPERATURE_ATTR,
    TEMPERATURE_TYPE,
    WeatherConfig,
    generate_weather_network,
)
from repro.hin.io import network_to_dict
from repro.serving import NewNode

DATASET_SEED = 0
N_TEMPERATURE = 400
N_PRECIPITATION = 200
DBLP_AUTHORS = 4000
DBLP_TRAIN_PAPERS = 4000
# generated beyond the training papers and never trained on; enough for
# the traced run's 2000 distinct HTTP ladder queries
DBLP_POOL_PAPERS = 2000
LADDER_BATCH = 200


@dataclasses.dataclass
class Round:
    """One write round of the layer probes."""

    extend: list[NewNode]
    links: list[tuple]


# ----------------------------------------------------------------------
# weather
# ----------------------------------------------------------------------
@dataclasses.dataclass
class WeatherInputs:
    network: dict  # hin.io form; setup builds the network from it
    truth: np.ndarray  # ground-truth ring of every sensor, node order
    sensors: list[str]


def weather_dataset() -> WeatherInputs:
    generated = generate_weather_network(
        WeatherConfig(
            n_temperature=N_TEMPERATURE,
            n_precipitation=N_PRECIPITATION,
            k_neighbors=5,
            n_observations=5,
            seed=DATASET_SEED,
        )
    )
    return WeatherInputs(
        network=network_to_dict(generated.network),
        truth=generated.labels_array(),
        sensors=[str(node) for node in generated.network.node_ids],
    )


def sensor_query(rng: np.random.Generator) -> dict:
    """A new temperature sensor: 5 kNN links and 5 readings."""
    neighbors = rng.choice(N_TEMPERATURE, size=5, replace=False)
    level = float(rng.integers(1, 5))
    return {
        "object_type": TEMPERATURE_TYPE,
        "links": [[RELATION_TT, f"T{int(t)}", 1.0] for t in neighbors],
        "numeric": {TEMPERATURE_ATTR: rng.normal(level, 0.2, size=5).tolist()},
    }


def as_engine_query(query: dict) -> dict:
    """The in-process form of a wire query (links as tuples)."""
    out = dict(query)
    out["links"] = tuple(tuple(link) for link in query.get("links", ()))
    return out


THINK_SECONDS = 0.010


def weather_traffic(seed: int, n_requests: int, connections: int,
                    sensors: list[str]) -> list[list[tuple[str, list, float]]]:
    """Per connection, a fixed list of ``(kind, payload, think)``: three
    in four requests are /score with 10 distinct sensor queries, one in
    four is /similar with 5 served sensors at k=10.  ``think`` is a
    uniform 0-10 ms pause before the request; without it the two closed
    loops lock into one phase relation for a whole run (both requests in
    one micro-batch, or each waiting out the other's), and runs differ
    by which one they fell into."""
    rng = np.random.default_rng([seed, 1])
    per_connection = []
    for _ in range(connections):
        requests = []
        for i in range(n_requests // connections):
            think = float(rng.uniform(0.0, THINK_SECONDS))
            if i % 4 == 3:
                nodes = [sensors[int(j)] for j in rng.choice(len(sensors), 5, replace=False)]
                requests.append(("similar", nodes, think))
            else:
                requests.append(("score", [sensor_query(rng) for _ in range(10)], think))
        per_connection.append(requests)
    return per_connection


def weather_rounds(seed: int, count: int, tag: str) -> list:
    """Write rounds for the traced run's probes: extend 10 new
    temperature sensors, then link 5 of them to one more sensor."""
    rng = np.random.default_rng([seed, 5, zlib.crc32(tag.encode())])
    rounds = []
    for r in range(count):
        new = []
        for j in range(10):
            query = sensor_query(rng)
            new.append(NewNode(f"new{tag}-{r}-{j}", TEMPERATURE_TYPE,
                               links=tuple(tuple(link) for link in query["links"]),
                               numeric=query["numeric"]))
        links = []
        for spec in new[:5]:
            linked = {target for _, target, _ in spec.links}
            target = next(f"T{int(t)}" for t in rng.permutation(N_TEMPERATURE)
                          if f"T{int(t)}" not in linked)
            links.append((spec.node, RELATION_TT, target, 1.0))
        rounds.append(Round(extend=new, links=links))
    return rounds


def weather_batches(seed: int, count: int, size: int = LADDER_BATCH):
    """Distinct query batches for the gate and the layer ladder."""
    rng = np.random.default_rng([seed, 2])
    return [[sensor_query(rng) for _ in range(size)] for _ in range(count)]


# ----------------------------------------------------------------------
# DBLP
# ----------------------------------------------------------------------
@dataclasses.dataclass
class DblpInputs:
    train: object  # the DblpCorpus restricted to the training papers
    pool: tuple  # held-out papers
    authors: list[str]


def dblp_dataset() -> DblpInputs:
    corpus = generate_corpus(
        FourAreaConfig(
            n_authors=DBLP_AUTHORS,
            n_papers=DBLP_TRAIN_PAPERS + DBLP_POOL_PAPERS,
            seed=DATASET_SEED,
        )
    )
    train = dataclasses.replace(
        corpus, papers=corpus.papers[:DBLP_TRAIN_PAPERS]
    )
    return DblpInputs(
        train=train,
        pool=corpus.papers[DBLP_TRAIN_PAPERS:],
        authors=list(corpus.authors),
    )


def build_dblp_network(inputs: DblpInputs):
    return build_acp_network(inputs.train)


def dblp_truth(inputs: DblpInputs, network) -> np.ndarray:
    labels = ground_truth_labels(inputs.train, network)
    return np.asarray([labels[node] for node in network.node_ids])


def paper_links(paper) -> tuple:
    return tuple(("written_by", author, 1.0) for author in paper.authors) + (
        ("published_by", paper.venue, 1.0),
    )


def paper_query(paper) -> dict:
    """A held-out paper as a transient query: links plus title."""
    return {
        "object_type": "paper",
        "links": paper_links(paper),
        "text": {TITLE_ATTR: list(paper.title_tokens)},
    }


def paper_node(node_id: str, paper) -> NewNode:
    return NewNode(
        node_id,
        "paper",
        links=paper_links(paper),
        text={TITLE_ATTR: list(paper.title_tokens)},
    )


def held_out_nodes(inputs: DblpInputs, seed: int, count: int) -> list[NewNode]:
    rng = np.random.default_rng([seed, 3])
    picks = rng.choice(len(inputs.pool), size=count, replace=False)
    return [paper_node(inputs.pool[i].paper_id, inputs.pool[i]) for i in picks]


def dblp_ladder_batches(inputs: DblpInputs, ladder: int, split: int) -> dict:
    """Distinct 200-paper query batches for the layer ladder: the HTTP
    server keeps a query cache, so no query may repeat."""
    queries = [paper_query(paper) for paper in inputs.pool]
    batches = [queries[i:i + LADDER_BATCH] for i in range(0, len(queries), LADDER_BATCH)]
    return dict(batches=batches[:ladder], split_batches=batches[ladder:ladder + split])


def dblp_rounds(inputs: DblpInputs, seed: int, count: int,
                tag: str = "") -> list[Round]:
    """Write rounds for the traced run's probes: extend 10 new papers
    (copies of held-out ones), then add 5 author links to them.  ``tag``
    keeps node ids distinct and gives the rounds their own random
    stream."""
    rng = np.random.default_rng([seed, 4, zlib.crc32(tag.encode())])
    pool = inputs.pool
    rounds = []
    for r in range(count):
        written = rng.choice(len(pool), size=10, replace=False)
        new = [paper_node(f"new{tag}-{r}-{j}", pool[i]) for j, i in enumerate(written)]
        links = []
        for spec in new[:5]:
            linked = {target for _, target, _ in spec.links}
            while True:
                author = inputs.authors[int(rng.integers(len(inputs.authors)))]
                if author not in linked:
                    break
            links.append((spec.node, "written_by", author, 1.0))
        rounds.append(Round(extend=new, links=links))
    return rounds
