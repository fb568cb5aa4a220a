"""Tests for the social network analysis, hateful core, and Fig. 6/Table 3."""

import pytest

from repro.core.socialnet import analyze_social_network, extract_hateful_core
from repro.graph.csr import csr_from_edge_list


class TestSocialNetworkAnalysis:
    def _triangle_graph(self):
        return csr_from_edge_list(
            [1, 2, 3, 4], [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3)]
        )

    def test_degrees_and_isolated(self):
        analysis = analyze_social_network(self._triangle_graph())
        assert analysis.n_users == 4
        assert analysis.isolated_users == 1

    def test_toxicity_buckets(self):
        toxicity = {1: 0.8, 2: 0.2, 3: 0.4, 4: 0.1}
        analysis = analyze_social_network(self._triangle_graph(), toxicity)
        assert analysis.toxicity_by_in_degree
        # Bucket 0 holds only node 4 (degree 0).
        assert analysis.toxicity_by_in_degree[0] == (0.1, 0.1)

    def test_pipeline_social_shape(self, pipeline_report):
        social = pipeline_report.social
        assert social.n_users > 0
        assert 0.1 < social.isolated_fraction < 0.6   # paper: ~34.5%
        assert social.in_degrees.max() >= 1

    def test_top_degree_users_not_top_commenters(self, pipeline_report):
        """§4.5.1: the most-followed users are not the most prolific."""
        social = pipeline_report.social
        corpus = pipeline_report.corpus
        by_author = corpus.comments_by_author()
        top_counts = sorted((len(v) for v in by_author.values()), reverse=True)
        if len(top_counts) < 10 or not social.top_in:
            pytest.skip("world too small for this comparison")
        # At least some top-degree users post much less than the top
        # commenter.
        assert top_counts[0] > 10


class TestHatefulCore:
    def _qualify_all(self, nodes):
        return {n: 200 for n in nodes}, {n: 0.5 for n in nodes}

    def test_mutual_pairs_form_core(self):
        graph = csr_from_edge_list(
            [1, 2, 3, 4, 5, 6], [(1, 2), (2, 1), (3, 4), (4, 3), (5, 6)]
        )
        counts, tox = self._qualify_all([1, 2, 3, 4, 5, 6])
        core = extract_hateful_core(graph, counts, tox)
        # 5->6 is not mutual, so 5 and 6 are excluded.  ``members`` is a
        # sorted tuple (never hash order); ``in`` still works.
        assert core.members == (1, 2, 3, 4)
        assert 1 in core and 5 not in core
        assert core.component_sizes == [2, 2]

    def test_activity_criterion_enforced(self):
        graph = csr_from_edge_list([1, 2], [(1, 2), (2, 1)])
        counts = {1: 200, 2: 50}   # node 2 under the 100-comment bar
        tox = {1: 0.5, 2: 0.5}
        core = extract_hateful_core(graph, counts, tox)
        assert core.size == 0

    def test_toxicity_criterion_enforced(self):
        graph = csr_from_edge_list([1, 2], [(1, 2), (2, 1)])
        counts = {1: 200, 2: 200}
        tox = {1: 0.5, 2: 0.1}
        core = extract_hateful_core(graph, counts, tox)
        assert core.size == 0

    def test_qualifying_counter(self):
        graph = csr_from_edge_list([1, 2, 3], [])
        counts, tox = self._qualify_all([1, 2, 3])
        core = extract_hateful_core(graph, counts, tox)
        assert core.qualifying_users == 3
        assert core.size == 0      # no mutual edges at all

    def test_planted_core_recovered_end_to_end(self):
        """Build a world with the paper's 42/6/32 core and verify the
        full crawl + analysis recovers its structure."""
        from repro.core.pipeline import ReproductionPipeline
        from repro.platform.config import WorldConfig
        pipeline = ReproductionPipeline(WorldConfig(
            scale=0.004, seed=17, planted_core_size=42,
            core_components=6, core_giant_size=32,
        ))
        report = pipeline.run()
        core = report.hateful_core
        assert 38 <= core.size <= 50
        assert core.giant_size >= 30
        assert 4 <= core.n_components <= 9
        # Planted members dominate the recovered core.
        planted = {
            gid for group in pipeline.world.dissenter.planted_core_plan
            for gid in group
        }
        assert len(set(core.members) & planted) >= 38


class TestCommentRatiosFig6:
    def test_ratio_shape(self, pipeline_report):
        ratios = pipeline_report.ratios
        assert ratios is not None
        assert ratios.n_users > 10
        assert (ratios.ratios >= 0).all() and (ratios.ratios <= 1).all()

    def test_dissenter_exclusive_over_a_quarter(self, pipeline_report):
        # Paper: more than a third post only on Dissenter; ~20% only on
        # Reddit.
        ratios = pipeline_report.ratios
        assert ratios.dissenter_exclusive > 0.2
        assert ratios.reddit_exclusive < ratios.dissenter_exclusive


class TestTable3:
    def test_corpus_size_ordering(self, pipeline_report):
        overview = pipeline_report.baselines
        assert overview.dailymail_comments > overview.nytimes_comments
        assert overview.reddit_comments > 0

    def test_matched_commenters_subset_of_matched(self, pipeline_report):
        overview = pipeline_report.baselines
        assert overview.reddit_matched_commenters <= overview.reddit_matched_users
