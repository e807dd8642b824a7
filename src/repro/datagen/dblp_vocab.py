"""Area vocabularies for the synthetic four-area bibliographic corpus.

Each research area gets a characteristic term list; a shared pool of
generic academic terms is mixed into every title so the areas overlap the
way real paper titles do.  Term lists are deliberately plain ASCII, one
token per entry.
"""

from __future__ import annotations

DB_TERMS = (
    "query", "database", "relational", "transaction", "index",
    "join", "sql", "storage", "schema", "xml",
    "optimization", "concurrency", "recovery", "view", "stream",
    "spatial", "temporal", "warehouse", "integration", "tuple",
    "buffer", "btree", "olap", "distributed", "partitioning",
)

DM_TERMS = (
    "mining", "pattern", "frequent", "itemset", "association",
    "outlier", "anomaly", "clustering", "classification", "stream",
    "graph", "subgraph", "sequence", "episode", "correlation",
    "dense", "summarization", "discovery", "scalable", "sampling",
    "lattice", "rule", "pruning", "transactional", "motif",
)

IR_TERMS = (
    "retrieval", "search", "ranking", "relevance", "document",
    "term", "tfidf", "feedback", "web", "crawl",
    "indexing", "snippet", "question", "answering", "language",
    "translation", "query", "expansion", "evaluation", "precision",
    "recall", "link", "anchor", "pagerank", "corpus",
)

ML_TERMS = (
    "learning", "neural", "network", "kernel", "bayesian",
    "inference", "gradient", "regression", "classification", "svm",
    "boosting", "ensemble", "markov", "hidden", "latent",
    "variational", "reinforcement", "generalization", "margin", "feature",
    "selection", "probabilistic", "gaussian", "semisupervised", "manifold",
)

COMMON_TERMS = (
    "efficient", "approach", "model", "analysis", "framework",
    "system", "novel", "large", "scale", "data",
    "method", "algorithm", "fast", "robust", "adaptive",
    "study", "evaluation", "towards", "improved", "effective",
)

AREA_TERM_LISTS = (DB_TERMS, DM_TERMS, IR_TERMS, ML_TERMS)
"""Per-area characteristic vocabularies, indexed by area id."""
