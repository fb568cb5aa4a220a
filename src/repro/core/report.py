"""Text rendering and JSON serialization of the reproduced results.

Formats a :class:`~repro.core.pipeline.ReproductionReport` the way the
paper presents its results: Tables 1-3 as aligned tables, figures as
compact numeric summaries.  Used by the CLI and the examples.

:func:`report_to_payload` flattens every §4 analysis into a JSON-ready
dict.  It deliberately excludes ``report.extras`` (wall times and cache
counters differ run to run) so two payloads from the same world are
byte-comparable — the oracle parity test diffs a production run against
a run over the reference implementations in ``tests/oracles/`` this way.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.pipeline import ReproductionReport
from repro.stats.hypothesis_tests import KSResult

__all__ = [
    "render_figures_summary",
    "render_full_report",
    "render_headlines",
    "render_stage_timings",
    "render_table1",
    "render_table2",
    "render_table3",
    "report_to_payload",
]


def _table(title: str, headers: tuple[str, ...], rows: Iterable[tuple]) -> str:
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(cells: tuple[str, ...]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    rule = "-" * (sum(widths) + 2 * (len(headers) - 1))
    lines = [title, "=" * len(title), fmt(headers), rule]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_table1(report: ReproductionReport) -> str:
    """Table 1 — user attribute flags and comment view-filters."""
    flags = report.user_flags
    flag_rows = [
        (name, count, f"{count / flags.n_active:.2%}" if flags.n_active else "-")
        for name, count in sorted(flags.flag_counts.items())
    ]
    filter_rows = [
        (name, count, f"{count / flags.n_active:.2%}" if flags.n_active else "-")
        for name, count in sorted(flags.filter_counts.items())
    ]
    return "\n\n".join([
        _table(
            f"Table 1a — user flags (n={flags.n_active})",
            ("flag", "count", "fraction"), flag_rows,
        ),
        _table(
            f"Table 1b — comment view-filters (n={flags.n_active})",
            ("filter", "count", "fraction"), filter_rows,
        ),
    ])


def render_table2(report: ReproductionReport, top_k: int = 10) -> str:
    """Table 2 — most frequently commented TLDs and domains."""
    urls = report.url_table
    tld_rows = [
        (tld, count, f"{count / urls.total_urls:.2%}")
        for tld, count in urls.top_tlds(top_k)
    ]
    domain_rows = [
        (domain, count, f"{count / urls.total_urls:.2%}")
        for domain, count in urls.top_domains(top_k)
    ]
    return "\n\n".join([
        _table(
            f"Table 2a — top TLDs (of {urls.total_urls} URLs)",
            ("tld", "count", "fraction"), tld_rows,
        ),
        _table(
            "Table 2b — top domains",
            ("domain", "count", "fraction"), domain_rows,
        ),
    ])


def render_table3(report: ReproductionReport) -> str:
    """Table 3 — overview of baseline toxicity datasets."""
    overview = report.baselines
    rows = [
        ("NY Times", f"{overview.nytimes_comments:,}", "n/a"),
        ("Daily Mail", f"{overview.dailymail_comments:,}", "n/a"),
        ("Reddit", f"{overview.reddit_comments:,}",
         f"{overview.reddit_matched_commenters:,}"),
    ]
    return _table(
        "Table 3 — baseline datasets",
        ("dataset", "# comments", "# Dissenter commenters"), rows,
    )


def render_headlines(report: ReproductionReport) -> str:
    """The §4.1 headline census."""
    h = report.headlines
    rows = [
        ("Dissenter users", f"{h.total_users:,}"),
        ("active users", f"{h.active_users:,} ({h.active_fraction:.1%})"),
        ("comments + replies",
         f"{h.total_comments:,} ({h.total_replies:,} replies)"),
        ("distinct URLs", f"{h.distinct_urls:,}"),
        ("first-month joiners", f"{h.first_month_join_fraction:.1%}"),
        ("orphaned commenters", h.orphaned_commenters),
        ("'censorship' in bio", f"{h.censorship_bio_fraction:.1%}"),
        ("NSFW / offensive comments",
         f"{h.nsfw_comments} / {h.offensive_comments}"),
        ("English / German comments",
         f"{report.languages.fraction('en'):.1%} / "
         f"{report.languages.fraction('de'):.1%}"),
    ]
    return _table("§4.1 — headline census", ("quantity", "measured"), rows)


def render_figures_summary(report: ReproductionReport) -> str:
    """One-line-per-figure numeric summary."""
    shadow = report.shadow
    relative = report.relative
    social = report.social
    rows = [
        ("Fig 2: rank corr(time, gab id)",
         f"{report.growth.spearman_rho:.3f} "
         f"({report.growth.anomalous_count} anomalies)"),
        ("Fig 3: top-14% comment share",
         f"{report.concentration.top_14pct_share:.1%}"),
        ("Fig 4: offensive >0.95 reject",
         f"{shadow.exceed_fraction('LIKELY_TO_REJECT', 'offensive', 0.95):.0%}"),
        ("Fig 5: toxicity peak at net=0",
         f"{report.votes.bucket_means.get(0, float('nan')):.3f}"),
        ("Fig 6: Dissenter-/Reddit-exclusive",
         f"{report.ratios.dissenter_exclusive:.0%} / "
         f"{report.ratios.reddit_exclusive:.0%}"
         if report.ratios else "n/a"),
        ("Fig 7a: Dissenter reject >= 0.5",
         f"{relative.exceed_fraction('LIKELY_TO_REJECT', 'dissenter', 0.5):.0%}"),
        ("Fig 7b: Dissenter/Reddit tox >= 0.5",
         f"{relative.exceed_fraction('SEVERE_TOXICITY', 'dissenter', 0.5):.2f}"
         f" / {relative.exceed_fraction('SEVERE_TOXICITY', 'reddit', 0.5):.2f}"),
        ("Fig 8: tox median center/right",
         f"{report.bias.median_toxicity('center'):.3f} / "
         f"{report.bias.median_toxicity('right'):.3f}"),
        ("Fig 9: isolated users", f"{social.isolated_fraction:.1%}"),
        ("Hateful core (size/components/giant)",
         f"{report.hateful_core.size} / {report.hateful_core.n_components}"
         f" / {report.hateful_core.giant_size}"),
    ]
    return _table("Figures — numeric summary", ("artefact", "measured"), rows)


def render_stage_timings(report: ReproductionReport) -> str:
    """Pipeline observability: per-stage wall time + scoring counters."""
    seconds = report.stage_seconds
    counters = report.scoring_counters
    if not seconds:
        return "stage timings: (not recorded)"
    total = sum(seconds.values())
    timing = "  ".join(
        f"{stage}={value:.2f}s" for stage, value in seconds.items()
    )
    line = f"stage timings: {timing}  total={total:.2f}s"
    if counters:
        line += (
            f"\nscoring: {counters.get('misses', 0):,} unique texts scored, "
            f"{counters.get('hits', 0):,} cache hits, "
            f"{counters.get('batches', 0):,} batches"
        )
    return line


def _arr(values) -> list:
    """ndarray (or sequence) -> plain list for JSON."""
    return np.asarray(values).tolist()


def _ks_payload(tests: dict[tuple[str, str], KSResult]) -> dict[str, dict]:
    return {
        f"{a}|{b}": {
            "statistic": result.statistic,
            "pvalue": result.pvalue,
            "n1": result.n1,
            "n2": result.n2,
        }
        for (a, b), result in tests.items()
    }


def _fit_payload(fit) -> dict | None:
    if fit is None:
        return None
    return {
        "alpha": float(fit.alpha),
        "xmin": int(fit.xmin),
        "ks_distance": float(fit.ks_distance),
        "n_tail": int(fit.n_tail),
    }


def report_to_payload(report: ReproductionReport) -> dict:
    """Flatten every §4 analysis into a JSON-serializable dict.

    ``report.extras`` is excluded on purpose: stage timings and cache
    counters legitimately differ between otherwise identical runs, while
    everything serialized here must not.
    """
    validation = report.validation
    growth = report.growth
    concentration = report.concentration
    urls = report.url_table
    votes = report.votes
    social = report.social
    core = report.hateful_core
    return {
        "validation": {
            "comments_checked": validation.comments_checked,
            "timestamp_mismatches": validation.timestamp_mismatches,
            "dangling_url_refs": validation.dangling_url_refs,
            "dangling_parent_refs": validation.dangling_parent_refs,
            "ids_outside_window": validation.ids_outside_window,
            "shadow_sample_size": validation.shadow_sample_size,
            "shadow_verified": validation.shadow_verified,
            "issues": list(validation.issues),
        },
        "growth": {
            "created_at": _arr(growth.created_at),
            "gab_ids": _arr(growth.gab_ids),
            "anomalous_count": growth.anomalous_count,
            "spearman_rho": growth.spearman_rho,
        },
        "concentration": {
            "counts": _arr(concentration.counts),
            "top_14pct_share": concentration.top_14pct_share,
            "top_shares": {
                str(fraction): share
                for fraction, share in concentration.gini_like_top_shares.items()
            },
        },
        "user_flags": {
            "n_active": report.user_flags.n_active,
            "flag_counts": dict(report.user_flags.flag_counts),
            "filter_counts": dict(report.user_flags.filter_counts),
        },
        "headlines": {
            "total_users": report.headlines.total_users,
            "active_users": report.headlines.active_users,
            "total_comments": report.headlines.total_comments,
            "total_replies": report.headlines.total_replies,
            "distinct_urls": report.headlines.distinct_urls,
            "first_month_join_fraction":
                report.headlines.first_month_join_fraction,
            "orphaned_commenters": report.headlines.orphaned_commenters,
            "censorship_bio_fraction":
                report.headlines.censorship_bio_fraction,
            "nsfw_comments": report.headlines.nsfw_comments,
            "offensive_comments": report.headlines.offensive_comments,
        },
        "url_table": {
            "total_urls": urls.total_urls,
            "tld_counts": dict(urls.tld_counts),
            "domain_counts": dict(urls.domain_counts),
            "scheme_counts": dict(urls.scheme_counts),
            "protocol_duplicates": urls.protocol_duplicates,
            "trailing_slash_duplicates": urls.trailing_slash_duplicates,
            "multi_param_urls": urls.multi_param_urls,
            "median_volume_by_domain": dict(urls.median_volume_by_domain),
            "top_volume_urls": [
                [count, url] for count, url in urls.top_volume_urls
            ],
        },
        "languages": {
            "total": report.languages.total,
            "counts": dict(report.languages.counts),
        },
        "youtube": {
            "total_items": report.youtube.total_items,
            "kind_counts": dict(report.youtube.kind_counts),
            "status_counts": dict(report.youtube.status_counts),
            "owner_counts": dict(report.youtube.owner_counts),
            "comments_disabled": report.youtube.comments_disabled,
            "active_videos": report.youtube.active_videos,
            "youtube_url_fraction_of_corpus":
                report.youtube.youtube_url_fraction_of_corpus,
        },
        "shadow": {
            attribute: {
                comment_class: _arr(values)
                for comment_class, values in by_class.items()
            }
            for attribute, by_class in report.shadow.scores.items()
        },
        "votes": {
            "net_scores": _arr(votes.net_scores),
            "mean_toxicity": _arr(votes.mean_toxicity),
            "median_toxicity": _arr(votes.median_toxicity),
            "positive_urls": votes.positive_urls,
            "negative_urls": votes.negative_urls,
            "zero_urls": votes.zero_urls,
            "in_band_fraction": votes.in_band_fraction,
            "bucket_means": {
                str(net): mean for net, mean in votes.bucket_means.items()
            },
            "bucket_medians": {
                str(net): median
                for net, median in votes.bucket_medians.items()
            },
        },
        "baselines": {
            "nytimes_comments": report.baselines.nytimes_comments,
            "dailymail_comments": report.baselines.dailymail_comments,
            "reddit_comments": report.baselines.reddit_comments,
            "reddit_matched_users": report.baselines.reddit_matched_users,
            "reddit_matched_commenters":
                report.baselines.reddit_matched_commenters,
        },
        "ratios": (
            None
            if report.ratios is None
            else {
                "ratios": _arr(report.ratios.ratios),
                "dissenter_exclusive": report.ratios.dissenter_exclusive,
                "reddit_exclusive": report.ratios.reddit_exclusive,
                "n_users": report.ratios.n_users,
            }
        ),
        "relative": {
            attribute: {
                dataset: _arr(values) for dataset, values in by_dataset.items()
            }
            for attribute, by_dataset in report.relative.scores.items()
        },
        "bias": {
            "toxicity": {
                b: _arr(v) for b, v in report.bias.toxicity.items()
            },
            "attack": {b: _arr(v) for b, v in report.bias.attack.items()},
            "comment_counts": dict(report.bias.comment_counts),
            "ks_toxicity": _ks_payload(report.bias.ks_toxicity),
            "ks_attack": _ks_payload(report.bias.ks_attack),
        },
        "social": {
            "n_users": social.n_users,
            "isolated_users": social.isolated_users,
            "in_degrees": _arr(social.in_degrees),
            "out_degrees": _arr(social.out_degrees),
            "top_in": [[gab_id, degree] for gab_id, degree in social.top_in],
            "top_out": [
                [gab_id, degree] for gab_id, degree in social.top_out
            ],
            "in_degree_fit": _fit_payload(social.in_degree_fit),
            "out_degree_fit": _fit_payload(social.out_degree_fit),
            "toxicity_by_in_degree": {
                str(bucket): list(pair)
                for bucket, pair in social.toxicity_by_in_degree.items()
            },
            "toxicity_by_out_degree": {
                str(bucket): list(pair)
                for bucket, pair in social.toxicity_by_out_degree.items()
            },
        },
        "hateful_core": {
            "members": sorted(core.members),
            "component_sizes": list(core.component_sizes),
            "qualifying_users": core.qualifying_users,
        },
    }


def render_full_report(report: ReproductionReport) -> str:
    """Everything, in paper order."""
    return "\n\n".join([
        render_headlines(report),
        render_table1(report),
        render_table2(report),
        render_table3(report),
        render_figures_summary(report),
    ])
