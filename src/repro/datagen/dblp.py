"""Synthetic DBLP "four-area" bibliographic corpus and networks.

The paper's real data set (Section 5.1) is a DBLP extract of 20 major
conferences across database (DB), data mining (DM), information retrieval
(IR) and machine learning (ML), with 14,376 papers and 14,475 authors.
This module generates a seeded synthetic stand-in with the structural
properties the clustering algorithm actually exercises (see DESIGN.md,
"Substitutions"):

* 20 conferences, 5 per area, with their real names;
* authors with concentrated-but-mixed area interests (a configurable
  fraction are cross-area, like the paper's Christos Faloutsos case);
* papers written by 1..4 authors; the paper's area is drawn from the
  first author's interest profile; its venue from the area (with a small
  off-area publication probability);
* titles sampled from the area vocabulary mixed with common academic
  terms (short titles: "the observations of the text data is very
  limited (e.g., using text merely from titles)").

Two network views are built from one corpus, matching Section 5.1:

* :func:`build_ac_network` -- authors+conferences; relations
  ``publish_in(A,C)`` / ``published_by(C,A)`` weighted by paper counts
  and ``coauthor(A,A)`` weighted by collaboration counts; the text
  attribute sits on *both* object types (complete attributes).
* :func:`build_acp_network` -- authors+conferences+papers; binary
  relations ``write/written_by`` and ``publish/published_by``; text on
  papers only (incomplete attributes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datagen.dblp_vocab import AREA_TERM_LISTS, COMMON_TERMS
from repro.exceptions import ConfigError
from repro.hin.attributes import TextAttribute
from repro.hin.builder import NetworkBuilder
from repro.hin.network import HeterogeneousNetwork

AREAS = ("DB", "DM", "IR", "ML")

CONFERENCES_BY_AREA = {
    "DB": ("SIGMOD", "VLDB", "ICDE", "PODS", "EDBT"),
    "DM": ("KDD", "ICDM", "SDM", "PKDD", "PAKDD"),
    "IR": ("SIGIR", "CIKM", "ECIR", "WSDM", "TREC"),
    "ML": ("ICML", "NIPS", "COLT", "ECML", "UAI"),
}

TITLE_ATTR = "title"


@dataclass(frozen=True, slots=True)
class FourAreaConfig:
    """Corpus generator inputs.

    Parameters
    ----------
    n_authors:
        Total authors across the four areas.
    n_papers:
        Total papers.
    title_length:
        Tokens per title.
    area_concentration:
        Dirichlet concentration of an author's interest profile on the
        home area; higher means purer authors.
    cross_area_fraction:
        Fraction of authors with genuinely mixed profiles.
    off_area_venue_prob:
        Probability a paper is published at a venue outside its area
        (models CIKM-style spread).
    cross_area_coauthor_prob:
        Probability each co-author slot is filled from the whole author
        pool rather than the paper's area.
    external_coauthors_per_author:
        Poisson mean of additional coauthor edges per author drawn from
        the *whole* pool, modeling collaborations on papers outside the
        four-area extract.  These edges exist only in the AC view's
        ``coauthor`` relation (there is no corresponding paper node) and
        are what makes that relation broad-spectrum the way the paper
        observes ("the spectrum of co-authors may often be quite broad",
        Section 5.2.3) *without* polluting the ACP view's exact
        author-paper links.
    common_term_prob:
        Probability each title token comes from the shared academic pool
        instead of the area vocabulary.
    off_topic_term_prob:
        Probability a non-common title token is drawn from a *different*
        area's vocabulary -- real titles share terminology across areas,
        which keeps pure-text clustering from being trivially perfect.
    max_authors_per_paper:
        Papers draw 1..this many authors.
    seed:
        RNG seed.

    Notes
    -----
    The defaults encode two properties of the real four-area DBLP that
    drive the paper's learned strengths: *authors are purer than venues*
    (high ``area_concentration``; venues spread via
    ``off_area_venue_prob`` the way CIKM spans DB/DM/IR), and *coauthor
    links are broad-spectrum*.
    """

    n_authors: int = 1600
    n_papers: int = 1600
    title_length: int = 6
    area_concentration: float = 60.0
    cross_area_fraction: float = 0.05
    off_area_venue_prob: float = 0.1
    cross_area_coauthor_prob: float = 0.2
    external_coauthors_per_author: float = 3.0
    common_term_prob: float = 0.4
    off_topic_term_prob: float = 0.25
    max_authors_per_paper: int = 4
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_authors < len(AREAS):
            raise ConfigError(
                f"need at least {len(AREAS)} authors, got {self.n_authors}"
            )
        if self.n_papers < 1:
            raise ConfigError(f"n_papers must be >= 1, got {self.n_papers}")
        if self.title_length < 1:
            raise ConfigError(
                f"title_length must be >= 1, got {self.title_length}"
            )
        if self.area_concentration <= 0:
            raise ConfigError("area_concentration must be positive")
        for name in (
            "cross_area_fraction",
            "off_area_venue_prob",
            "cross_area_coauthor_prob",
            "common_term_prob",
            "off_topic_term_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.max_authors_per_paper < 1:
            raise ConfigError("max_authors_per_paper must be >= 1")
        if self.external_coauthors_per_author < 0:
            raise ConfigError(
                "external_coauthors_per_author must be >= 0"
            )


@dataclass(frozen=True)
class Paper:
    """One generated paper."""

    paper_id: str
    area: int
    venue: str
    authors: tuple[str, ...]
    title_tokens: tuple[str, ...]


@dataclass(frozen=True)
class DblpCorpus:
    """Generator output shared by both network views.

    Attributes
    ----------
    papers:
        All generated papers.
    author_area:
        ``{author_id: home_area_index}`` ground truth.
    conference_area:
        ``{conference: area_index}`` ground truth (by construction).
    author_profiles:
        ``{author_id: (4,) interest distribution}`` soft ground truth.
    config:
        The generating configuration.
    """

    papers: tuple[Paper, ...]
    author_area: dict[str, int]
    conference_area: dict[str, int]
    author_profiles: dict[str, np.ndarray]
    config: FourAreaConfig
    external_coauthors: tuple[tuple[str, str], ...] = ()
    """Coauthor pairs from collaborations outside the four-area extract
    (they appear only in the AC view's coauthor relation)."""

    @property
    def authors(self) -> tuple[str, ...]:
        return tuple(self.author_area)

    @property
    def conferences(self) -> tuple[str, ...]:
        return tuple(self.conference_area)


def generate_corpus(config: FourAreaConfig) -> DblpCorpus:
    """Generate the synthetic four-area corpus (see module docstring)."""
    rng = np.random.default_rng(config.seed)
    n_areas = len(AREAS)

    conference_area: dict[str, int] = {}
    for area_index, area in enumerate(AREAS):
        for conference in CONFERENCES_BY_AREA[area]:
            conference_area[conference] = area_index

    # authors: home areas round-robin so every area is populated
    author_area: dict[str, int] = {}
    author_profiles: dict[str, np.ndarray] = {}
    author_ids = [f"author{i:05d}" for i in range(config.n_authors)]
    for i, author in enumerate(author_ids):
        home = i % n_areas
        author_area[author] = home
        concentration = np.ones(n_areas)
        if rng.random() < config.cross_area_fraction:
            # cross-area author: strong in home, substantial in one other
            other = int(rng.choice([a for a in range(n_areas) if a != home]))
            concentration[home] = config.area_concentration / 2.0
            concentration[other] = config.area_concentration / 3.0
        else:
            concentration[home] = config.area_concentration
        author_profiles[author] = rng.dirichlet(concentration)

    # productivity: a heavy-ish tail so coauthor graphs look plausible
    productivity = rng.pareto(2.5, size=config.n_authors) + 1.0
    authors_by_area: list[list[int]] = [[] for _ in range(n_areas)]
    for i, author in enumerate(author_ids):
        authors_by_area[author_area[author]].append(i)

    papers: list[Paper] = []
    for p in range(config.n_papers):
        first_author_idx = int(
            rng.choice(
                config.n_authors, p=productivity / productivity.sum()
            )
        )
        first_author = author_ids[first_author_idx]
        area = int(rng.choice(n_areas, p=author_profiles[first_author]))
        # co-authors mostly from the same area, sometimes from anywhere
        n_coauthors = int(rng.integers(0, config.max_authors_per_paper))
        team = [first_author_idx]
        area_pool = authors_by_area[area]
        everyone = np.arange(config.n_authors)
        for _ in range(n_coauthors):
            if rng.random() < config.cross_area_coauthor_prob:
                pool = everyone
            else:
                pool = area_pool
            weights = productivity[pool]
            candidate = int(
                rng.choice(pool, p=weights / weights.sum())
            )
            if candidate not in team:
                team.append(candidate)
        # venue: usually in-area
        if rng.random() < config.off_area_venue_prob:
            venue_area = int(
                rng.choice([a for a in range(n_areas) if a != area])
            )
        else:
            venue_area = area
        venue = str(rng.choice(CONFERENCES_BY_AREA[AREAS[venue_area]]))
        tokens = _sample_title(rng, area, config)
        papers.append(
            Paper(
                paper_id=f"paper{p:06d}",
                area=area,
                venue=venue,
                authors=tuple(author_ids[i] for i in team),
                title_tokens=tokens,
            )
        )

    # out-of-extract collaborations: broad-spectrum coauthor edges that
    # exist only in the AC view (no paper node inside the extract)
    external: list[tuple[str, str]] = []
    if config.external_coauthors_per_author > 0:
        counts = rng.poisson(
            config.external_coauthors_per_author, size=config.n_authors
        )
        for i, n_external in enumerate(counts):
            for _ in range(int(n_external)):
                j = int(rng.integers(config.n_authors))
                if j != i:
                    external.append((author_ids[i], author_ids[j]))

    return DblpCorpus(
        papers=tuple(papers),
        author_area=author_area,
        conference_area=conference_area,
        author_profiles=author_profiles,
        config=config,
        external_coauthors=tuple(external),
    )


def _sample_title(
    rng: np.random.Generator, area: int, config: FourAreaConfig
) -> tuple[str, ...]:
    n_areas = len(AREA_TERM_LISTS)
    tokens: list[str] = []
    for _ in range(config.title_length):
        if rng.random() < config.common_term_prob:
            tokens.append(str(rng.choice(COMMON_TERMS)))
            continue
        if rng.random() < config.off_topic_term_prob:
            source = int(
                rng.choice([a for a in range(n_areas) if a != area])
            )
        else:
            source = area
        tokens.append(str(rng.choice(AREA_TERM_LISTS[source])))
    return tuple(tokens)


# ----------------------------------------------------------------------
# network views
# ----------------------------------------------------------------------

AC_RELATIONS = ("publish_in", "published_by", "coauthor")
ACP_RELATIONS = ("write", "written_by", "publish", "published_by")


def build_ac_network(corpus: DblpCorpus) -> HeterogeneousNetwork:
    """The DBLP Four-area **AC network** (Section 5.1a).

    Authors and conferences; ``publish_in``/``published_by`` weighted by
    paper counts, ``coauthor`` weighted by collaboration counts; the text
    of every title a node ever wrote/published is attached to it.
    """
    builder = NetworkBuilder()
    builder.object_type("author").object_type("conference")
    builder.add_paired_relation(
        "publish_in", "author", "conference", inverse="published_by"
    )
    builder.relation("coauthor", "author", "author")
    for conference in corpus.conferences:
        builder.node(conference, "conference")
    for author in corpus.authors:
        builder.node(author, "author")

    publish_counts: dict[tuple[str, str], float] = {}
    coauthor_counts: dict[tuple[str, str], float] = {}
    text = TextAttribute(TITLE_ATTR)
    for paper in corpus.papers:
        for author in paper.authors:
            key = (author, paper.venue)
            publish_counts[key] = publish_counts.get(key, 0.0) + 1.0
            text.add_tokens(author, paper.title_tokens)
        text.add_tokens(paper.venue, paper.title_tokens)
        for a in paper.authors:
            for b in paper.authors:
                if a != b:
                    coauthor_counts[(a, b)] = (
                        coauthor_counts.get((a, b), 0.0) + 1.0
                    )
    for a, b in corpus.external_coauthors:
        coauthor_counts[(a, b)] = coauthor_counts.get((a, b), 0.0) + 1.0
        coauthor_counts[(b, a)] = coauthor_counts.get((b, a), 0.0) + 1.0

    for (author, venue), count in publish_counts.items():
        builder.link_paired(author, venue, "publish_in", weight=count)
    for (a, b), count in coauthor_counts.items():
        builder.link(a, b, "coauthor", weight=count)
    builder.attribute(text)
    return builder.build()


def build_acp_network(corpus: DblpCorpus) -> HeterogeneousNetwork:
    """The DBLP Four-area **ACP network** (Section 5.1b).

    Authors, conferences and papers; binary ``write``/``written_by`` and
    ``publish``/``published_by`` links; titles attached to papers only.
    """
    builder = NetworkBuilder()
    builder.object_type("author")
    builder.object_type("conference")
    builder.object_type("paper")
    builder.add_paired_relation(
        "write", "author", "paper", inverse="written_by"
    )
    builder.add_paired_relation(
        "publish", "conference", "paper", inverse="published_by"
    )
    for conference in corpus.conferences:
        builder.node(conference, "conference")
    for author in corpus.authors:
        builder.node(author, "author")
    text = TextAttribute(TITLE_ATTR)
    for paper in corpus.papers:
        builder.node(paper.paper_id, "paper")
        text.add_tokens(paper.paper_id, paper.title_tokens)
        for author in paper.authors:
            builder.link_paired(author, paper.paper_id, "write")
        builder.link_paired(paper.venue, paper.paper_id, "publish")
    builder.attribute(text)
    return builder.build()


def ground_truth_labels(
    corpus: DblpCorpus, network: HeterogeneousNetwork
) -> dict[str, int]:
    """``{node_id: area}`` for every node of the given network view."""
    labels: dict[str, int] = {}
    paper_area = {p.paper_id: p.area for p in corpus.papers}
    for node in network.node_ids:
        if node in corpus.author_area:
            labels[node] = corpus.author_area[node]
        elif node in corpus.conference_area:
            labels[node] = corpus.conference_area[node]
        elif node in paper_area:
            labels[node] = paper_area[node]
        else:  # pragma: no cover - defensive
            raise KeyError(f"node {node!r} has no ground truth")
    return labels
