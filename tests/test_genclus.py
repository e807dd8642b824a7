"""End-to-end tests for the GenClus algorithm (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.config import GenClusConfig
from repro.core.genclus import GenClus
from repro.hin.attributes import NumericAttribute, TextAttribute
from repro.hin.builder import NetworkBuilder


def make_bibliographic_toy(seed=0, papers_per_area=12):
    """A miniature two-area bibliographic network (papers+authors+confs).

    Papers carry text; authors and conferences carry none, exactly the
    incomplete-attribute setting of Example 1.  The 'written_by' relation
    is reliable (authors stay in one area); a 'cites_noise' relation links
    random papers and should earn a low strength.
    """
    rng = np.random.default_rng(seed)
    vocab = [
        ["query", "index", "join", "transaction", "storage"],
        ["neural", "learning", "gradient", "kernel", "bayesian"],
    ]
    text = TextAttribute("title")
    builder = NetworkBuilder()
    builder.object_type("paper").object_type("author").object_type("conf")
    builder.add_paired_relation(
        "written_by", "paper", "author", inverse="write"
    )
    builder.add_paired_relation(
        "published_by", "paper", "conf", inverse="publish"
    )
    builder.relation("cites_noise", "paper", "paper")

    papers, authors, confs = [], [], []
    for area in range(2):
        confs.append(f"conf{area}")
        builder.node(confs[-1], "conf")
        for a in range(3):
            authors.append(f"author{area}_{a}")
            builder.node(authors[-1], "author")
    for area in range(2):
        for p in range(papers_per_area):
            paper = f"paper{area}_{p}"
            papers.append(paper)
            builder.node(paper, "paper")
            tokens = rng.choice(vocab[area], size=6, replace=True)
            text.add_tokens(paper, tokens.tolist())
            author = f"author{area}_{rng.integers(3)}"
            builder.link_paired(paper, author, "written_by")
            builder.link_paired(paper, f"conf{area}", "published_by")
    # noise citations across random paper pairs
    for _ in range(2 * papers_per_area):
        i, j = rng.choice(len(papers), size=2, replace=False)
        builder.link(papers[i], papers[j], "cites_noise")
    builder.attribute(text)
    network = builder.build()
    truth = {}
    for area in range(2):
        truth[f"conf{area}"] = area
        for a in range(3):
            truth[f"author{area}_{a}"] = area
        for p in range(papers_per_area):
            truth[f"paper{area}_{p}"] = area
    return network, truth


def agreement(result, truth):
    """Fraction of nodes whose hard label matches truth (modulo swap)."""
    labels = result.hard_labels()
    ids = result.network.node_ids
    direct = swapped = 0
    total = 0
    for node, area in truth.items():
        label = labels[result.network.index_of(node)]
        total += 1
        direct += label == area
        swapped += label == 1 - area
    return max(direct, swapped) / total


class TestFit:
    @pytest.fixture(scope="class")
    def fitted(self):
        network, truth = make_bibliographic_toy()
        config = GenClusConfig(
            n_clusters=2, outer_iterations=6, seed=42, n_init=3
        )
        result = GenClus(config).fit(network, attributes=["title"])
        return result, truth

    def test_recovers_areas_for_all_types(self, fitted):
        result, truth = fitted
        assert agreement(result, truth) > 0.95

    def test_theta_rows_on_simplex(self, fitted):
        result, _ = fitted
        np.testing.assert_allclose(result.theta.sum(axis=1), 1.0)
        assert np.all(result.theta >= 0)

    def test_gamma_non_negative(self, fitted):
        result, _ = fitted
        assert np.all(result.gamma >= 0)

    def test_reliable_relation_outranks_noise(self, fitted):
        result, _ = fitted
        strengths = result.strengths()
        assert strengths["written_by"] > strengths["cites_noise"]
        assert strengths["published_by"] > strengths["cites_noise"]

    def test_history_records_iterations(self, fitted):
        result, _ = fitted
        assert len(result.history) >= 2  # initial + >=1 outer
        assert result.history.records[0].outer_iteration == 0
        trajectory = result.history.gamma_trajectory()
        np.testing.assert_array_equal(trajectory[0], 1.0)  # all-ones init

    def test_attribute_params_exposed(self, fitted):
        result, _ = fitted
        params = result.attribute_params["title"]
        assert params["kind"] == "categorical"
        np.testing.assert_allclose(params["beta"].sum(axis=1), 1.0)
        top0, top1 = (
            {params["vocabulary"][i] for i in np.argsort(row)[::-1][:5]}
            for row in params["beta"]
        )
        db_terms = {"query", "index", "join", "transaction", "storage"}
        ml_terms = {"neural", "learning", "gradient", "kernel", "bayesian"}
        # each cluster's top terms must come from a single area vocabulary
        assert set(top0) <= db_terms or set(top0) <= ml_terms
        assert set(top1) <= db_terms or set(top1) <= ml_terms
        assert set(top0) != set(top1)


class TestReproducibility:
    def test_same_seed_same_result(self):
        network, _ = make_bibliographic_toy()
        config = GenClusConfig(
            n_clusters=2, outer_iterations=3, seed=11, n_init=2
        )
        r1 = GenClus(config).fit(network, attributes=["title"])
        network2, _ = make_bibliographic_toy()
        r2 = GenClus(config).fit(network2, attributes=["title"])
        np.testing.assert_array_equal(r1.theta, r2.theta)
        np.testing.assert_array_equal(r1.gamma, r2.gamma)


class TestCallbacksAndOptions:
    def test_callback_invoked_each_outer_iteration(self):
        network, _ = make_bibliographic_toy(papers_per_area=6)
        calls = []

        def record(iteration, theta, gamma):
            calls.append((iteration, gamma.copy()))

        config = GenClusConfig(
            n_clusters=2, outer_iterations=3, seed=0, n_init=1,
            gamma_tol=0.0,
        )
        GenClus(config).fit(network, ["title"], callback=record)
        assert [c[0] for c in calls] == [0, 1, 2, 3]

    def test_initial_theta_override(self):
        network, _ = make_bibliographic_toy(papers_per_area=6)
        n = network.num_nodes
        theta0 = np.full((n, 2), 0.5)
        config = GenClusConfig(
            n_clusters=2, outer_iterations=2, seed=0, n_init=1
        )
        result = GenClus(config).fit(
            network, ["title"], initial_theta=theta0
        )
        assert result.theta.shape == (n, 2)

    def test_initial_theta_wrong_shape_raises(self):
        network, _ = make_bibliographic_toy(papers_per_area=6)
        config = GenClusConfig(n_clusters=2, seed=0)
        with pytest.raises(ValueError, match="initial_theta"):
            GenClus(config).fit(
                network, ["title"], initial_theta=np.ones((3, 2))
            )

    def test_gamma_tol_stops_early(self):
        network, _ = make_bibliographic_toy(papers_per_area=6)
        config = GenClusConfig(
            n_clusters=2, outer_iterations=50, seed=0, n_init=1,
            gamma_tol=10.0,  # huge tolerance: stop after first iteration
        )
        result = GenClus(config).fit(network, ["title"])
        assert len(result.history) == 2  # initial + one outer

    def test_track_em_objective_off_by_default(self):
        network, _ = make_bibliographic_toy(papers_per_area=6)
        config = GenClusConfig(
            n_clusters=2, outer_iterations=2, seed=0, n_init=1
        )
        result = GenClus(config).fit(network, ["title"])
        assert all(
            trace == ()
            for trace in result.history.em_objective_traces()
        )

    def test_track_em_objective_records_traces(self):
        network, _ = make_bibliographic_toy(papers_per_area=6)
        config = GenClusConfig(
            n_clusters=2, outer_iterations=2, seed=0, n_init=1,
            track_em_objective=True, gamma_tol=0.0,
        )
        result = GenClus(config).fit(network, ["title"])
        traces = result.history.em_objective_traces()
        # the initial record has no EM step; every outer record does
        assert traces[0] == ()
        for record in result.history.records[1:]:
            assert len(record.em_objective_trace) == record.em_iterations
            # the trace ends at the recorded g1 value
            assert record.em_objective_trace[-1] == record.g1_value

    def test_tracking_does_not_change_fit(self):
        network, _ = make_bibliographic_toy(papers_per_area=6)
        base = GenClusConfig(
            n_clusters=2, outer_iterations=2, seed=0, n_init=1
        )
        tracked = GenClusConfig(
            n_clusters=2, outer_iterations=2, seed=0, n_init=1,
            track_em_objective=True,
        )
        network2, _ = make_bibliographic_toy(papers_per_area=6)
        r1 = GenClus(base).fit(network, ["title"])
        r2 = GenClus(tracked).fit(network2, ["title"])
        np.testing.assert_array_equal(r1.theta, r2.theta)
        np.testing.assert_array_equal(r1.gamma, r2.gamma)


class TestGaussianEndToEnd:
    def test_two_numeric_attributes(self):
        """Weather-style: two sensor types, each with one attribute."""
        rng = np.random.default_rng(0)
        temp = NumericAttribute("temp")
        precip = NumericAttribute("precip")
        builder = NetworkBuilder()
        builder.object_type("tsensor").object_type("psensor")
        builder.relation("tt", "tsensor", "tsensor")
        builder.relation("tp", "tsensor", "psensor")
        builder.relation("pt", "psensor", "tsensor")
        builder.relation("pp", "psensor", "psensor")
        n_per = 10
        # two regions; region r has temp ~ N(r*4, .3), precip ~ N(r*4, .3)
        for region in range(2):
            for i in range(n_per):
                t_name, p_name = f"t{region}_{i}", f"p{region}_{i}"
                builder.node(t_name, "tsensor")
                builder.node(p_name, "psensor")
                temp.add_values(
                    t_name, rng.normal(4 * region, 0.3, size=3).tolist()
                )
                precip.add_values(
                    p_name, rng.normal(4 * region, 0.3, size=3).tolist()
                )
        for region in range(2):
            for i in range(n_per):
                for j in range(n_per):
                    if i != j:
                        builder.link(
                            f"t{region}_{i}", f"t{region}_{j}", "tt"
                        )
                        builder.link(
                            f"p{region}_{i}", f"p{region}_{j}", "pp"
                        )
                builder.link(f"t{region}_{i}", f"p{region}_{i}", "tp")
                builder.link(f"p{region}_{i}", f"t{region}_{i}", "pt")
        builder.attribute(temp).attribute(precip)
        network = builder.build()
        config = GenClusConfig(
            n_clusters=2, outer_iterations=4, seed=1, n_init=3
        )
        result = GenClus(config).fit(
            network, attributes=["temp", "precip"]
        )
        labels = result.hard_labels()
        region0 = [
            labels[network.index_of(f"t0_{i}")] for i in range(n_per)
        ] + [labels[network.index_of(f"p0_{i}")] for i in range(n_per)]
        region1 = [
            labels[network.index_of(f"t1_{i}")] for i in range(n_per)
        ] + [labels[network.index_of(f"p1_{i}")] for i in range(n_per)]
        assert len(set(region0)) == 1
        assert len(set(region1)) == 1
        assert region0[0] != region1[0]
        params = result.attribute_params["temp"]
        assert params["kind"] == "gaussian"
        assert sorted(np.round(params["means"]).tolist()) == [0.0, 4.0]
