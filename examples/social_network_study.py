"""Social-network study: degrees, power laws, and the hateful core.

Run with::

    python examples/social_network_study.py

Builds a world with the paper's 42-user hateful core planted, crawls the
Gab follower API (paginated, header-rate-limited), induces the
Dissenter-only graph, fits power laws to the degree distributions
(Fig. 9a), relates per-user toxicity to connectivity (Figs. 9b/9c), and
extracts the hateful core with the paper's three-part criterion (§4.5.1).
"""

from __future__ import annotations

from repro.core import ReproductionPipeline
from repro.core.socialnet import (
    extract_hateful_core,
    per_user_activity_toxicity,
)
from repro.platform import WorldConfig


def main() -> None:
    print("building a world with the hateful core planted (42/6/32)...")
    pipeline = ReproductionPipeline(WorldConfig(
        scale=0.006, seed=5,
        planted_core_size=42, core_components=6, core_giant_size=32,
    ))
    # The three stages of pipeline.run(), kept apart so the ablation
    # below can reuse the crawled graph without crawling it again.
    artifacts = pipeline.stage_crawl()
    pipeline.stage_score(artifacts)
    report = pipeline.stage_analyze(artifacts)
    social = report.social

    print("\n--- Figure 9a: degrees ---")
    print(f"graph users:       {social.n_users}")
    print(f"isolated users:    {social.isolated_users} "
          f"({social.isolated_fraction:.1%}; paper: 34.5%)")
    print(f"top followers:     {[d for _, d in social.top_in[:3]]}")
    print(f"top following:     {[d for _, d in social.top_out[:3]]}")
    if social.in_degree_fit:
        fit = social.in_degree_fit
        print(f"in-degree fit:     alpha={fit.alpha:.2f} xmin={fit.xmin} "
              f"KS={fit.ks_distance:.3f}")
    if social.out_degree_fit:
        fit = social.out_degree_fit
        print(f"out-degree fit:    alpha={fit.alpha:.2f} xmin={fit.xmin} "
              f"KS={fit.ks_distance:.3f}")

    print("\n--- Figures 9b/9c: toxicity vs connectivity ---")
    for label, buckets in (
        ("followers", social.toxicity_by_in_degree),
        ("following", social.toxicity_by_out_degree),
    ):
        print(f"  by {label}:")
        for bucket in sorted(buckets):
            mean, median = buckets[bucket]
            low = 0 if bucket == 0 else 2 ** (bucket - 1)
            print(f"    degree >= {low:<5d} mean={mean:.3f} median={median:.3f}")

    print("\n--- §4.5.1: the hateful core ---")
    core = report.hateful_core
    print(f"core size:         {core.size}   (paper: 42)")
    print(f"components:        {core.n_components}   (paper: 6)")
    print(f"giant component:   {core.giant_size}   (paper: 32)")
    print(f"component sizes:   {core.component_sizes}")

    print("\n--- criterion sensitivity (ablation) ---")
    # Rebuild per-user metrics (from the pipeline's pre-populated score
    # store — nothing is re-scored) and sweep the thresholds.
    counts, toxicity = per_user_activity_toxicity(
        artifacts.corpus, artifacts.gab_ids, pipeline.store
    )
    for min_comments, min_tox in ((50, 0.3), (100, 0.3), (100, 0.5), (200, 0.3)):
        swept = extract_hateful_core(
            artifacts.graph, counts, toxicity,
            min_comments=min_comments, min_toxicity=min_tox,
        )
        print(f"  >= {min_comments:>3d} comments, median tox >= {min_tox}: "
              f"core of {swept.size} in {swept.n_components} components")


if __name__ == "__main__":
    main()
