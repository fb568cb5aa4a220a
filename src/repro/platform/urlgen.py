"""The commented-URL universe (Table 2, §4.2).

Generates the population of URLs Dissenter users comment on, calibrated to
the paper's observed mix: youtube.com 20.75% of URLs, twitter.com 6.87%,
then news sites; 78% .com / 7.5% .uk TLDs; 97% HTTPS / 2% HTTP plus
browser-scheme and ``file://`` oddities; 400 protocol-only duplicate pairs
and 60 trailing-slash duplicates; multi-parameter GET query strings; and a
couple of fringe domains that attract enormous per-URL comment volume (the
paper's thewatcherfiles.com and deutschland.de examples).

Each URL also gets an Allsides-style bias label (news domains only) and a
latent popularity weight used to allocate comments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.platform.config import WorldConfig
from repro.platform.draws import Draws, WeightedPicker
from repro.platform.entities import CommentUrl
from repro.platform.ids import ObjectIdFactory
from repro.platform.textgen import CommentTextGenerator

__all__ = ["ALLSIDES_BIAS", "DOMAIN_MIX", "UrlUniverse", "build_url_universe"]

# (domain, fraction of URLs, category).  Fractions follow Table 2, except
# YouTube which is deliberately over-provisioned in the *universe*: YouTube
# URLs carry low comment-allocation weights (median volume 1, §4.2.1), so
# only ~2/3 as many of them are ever discovered through comments; the
# inflation makes the *discovered* mix land on Table 2's 22%.  The
# remainder of the universe is a generated long tail.
DOMAIN_MIX: tuple[tuple[str, float, str], ...] = (
    ("youtube.com", 0.282, "youtube"),
    ("twitter.com", 0.0687, "social"),
    ("breitbart.com", 0.0403, "news"),
    ("bbc.co.uk", 0.0276, "news"),
    ("dailymail.co.uk", 0.0268, "news"),
    ("foxnews.com", 0.0208, "news"),
    ("bitchute.com", 0.0206, "video"),
    ("zerohedge.com", 0.0147, "news"),
    ("theguardian.com", 0.0136, "news"),
    ("youtu.be", 0.018, "youtube"),
    ("nytimes.com", 0.0110, "news"),
    ("facebook.com", 0.0080, "social"),
    ("washingtontimes.com", 0.0070, "news"),
    ("cnn.com", 0.0065, "news"),
    ("reuters.com", 0.0050, "news"),
    ("gab.com", 0.0045, "social"),
    ("thehill.com", 0.0040, "news"),
    ("nypost.com", 0.0040, "news"),
    ("huffpost.com", 0.0035, "news"),
    ("vox.com", 0.0030, "news"),
    ("dailycaller.com", 0.0030, "news"),
    ("apnews.com", 0.0025, "news"),
    ("washingtonexaminer.com", 0.0025, "news"),
    ("msnbc.com", 0.0020, "news"),
    ("wsj.com", 0.0020, "news"),
)

# Allsides-style media bias assignments for ranked (news) domains.
ALLSIDES_BIAS: dict[str, str] = {
    "huffpost.com": "left",
    "vox.com": "left",
    "msnbc.com": "left",
    "cnn.com": "left",
    "theguardian.com": "left-center",
    "nytimes.com": "left-center",
    "bbc.co.uk": "center",
    "reuters.com": "center",
    "apnews.com": "center",
    "thehill.com": "center",
    "wsj.com": "right-center",
    "nypost.com": "right-center",
    "dailymail.co.uk": "right-center",
    "washingtonexaminer.com": "right-center",
    "breitbart.com": "right",
    "foxnews.com": "right",
    "zerohedge.com": "right",
    "dailycaller.com": "right",
    "washingtontimes.com": "right",
}

# Fringe domains: tiny URL count, enormous per-URL comment volume (§4.2.1).
FRINGE_DOMAINS: tuple[tuple[str, str], ...] = (
    ("thewatcherfiles.com", "en"),
    ("deutschland.de", "de"),
)

# Long-tail TLD weights for generated domains, chosen so the overall TLD
# mix lands near Table 2 once the fixed domains above are accounted for.
_TAIL_TLDS: tuple[tuple[str, float], ...] = (
    (".com", 0.62), (".uk", 0.10), (".org", 0.08), (".de", 0.045),
    (".be", 0.032), (".au", 0.030), (".ca", 0.024), (".net", 0.021),
    (".nz", 0.013), (".no", 0.013), (".info", 0.01), (".ru", 0.01),
    (".fr", 0.01), (".it", 0.008), (".nl", 0.008), (".se", 0.008),
    (".us", 0.008),
)

_SYLLABLES = (
    "news", "daily", "true", "real", "patriot", "liberty", "eagle",
    "free", "press", "report", "wire", "post", "times", "herald",
    "tribune", "gazette", "journal", "watch", "alert", "insider",
    "chronicle", "observer", "dispatch", "monitor", "beacon", "ledger",
)

_TLDS, _TLD_WEIGHTS = zip(*_TAIL_TLDS)
_TLD_PICKER = WeightedPicker(
    _TLDS, np.asarray(_TLD_WEIGHTS) / np.sum(_TLD_WEIGHTS)
)

_VIDEO_ID_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
)

_BROWSER_PAGES = ("startpage", "newtab", "settings", "extensions")


@dataclass
class UrlUniverse:
    """All commented URLs plus latent comment-allocation weights."""

    urls: list[CommentUrl]
    weights: np.ndarray                      # unnormalised popularity
    language_hints: dict[str, str]           # commenturl_id.hex -> language
    protocol_duplicate_pairs: int
    trailing_slash_duplicate_pairs: int

    def __post_init__(self) -> None:
        if len(self.urls) != self.weights.shape[0]:
            raise ValueError("weights must align with urls")

    def by_id(self) -> dict[str, CommentUrl]:
        return {u.commenturl_id.hex: u for u in self.urls}


def _random_slug(draws: Draws, n: int = 3) -> str:
    return "-".join([draws.pick(_SYLLABLES) for _ in range(n)])


def _random_video_id(draws: Draws) -> str:
    return "".join(draws.pick_many(_VIDEO_ID_ALPHABET, 11))


def _tail_domain(draws: Draws, used: set[str]) -> str:
    while True:
        tld = _TLD_PICKER.pick(draws)
        name = "".join(
            [draws.pick(_SYLLABLES) for _ in range(draws.integers(2, 4))]
        )
        domain = name + (".co.uk" if tld == ".uk" else tld)
        if domain not in used:
            used.add(domain)
            return domain


def _path_for(draws: Draws, domain: str, category: str) -> str:
    if category == "youtube":
        if domain == "youtu.be":
            return f"/{_random_video_id(draws)}"
        roll = draws.random()
        if roll < 0.976:
            return f"/watch?v={_random_video_id(draws)}"
        if roll < 0.992:
            return f"/channel/UC{_random_video_id(draws)}"
        return f"/user/{_random_slug(draws, 1)}{draws.integers(1, 999)}"
    if domain == "twitter.com":
        return f"/{_random_slug(draws, 1)}/status/{draws.integers(10**17, 10**18)}"
    year = draws.integers(2018, 2021)
    month = draws.integers(1, 13)
    path = f"/{year}/{month:02d}/{_random_slug(draws)}"
    # Many URLs carry multi-parameter GET queries (§4.2.1's over-counting
    # discussion).
    if draws.random() < 0.12:
        path += f"?utm_source={_random_slug(draws, 1)}&utm_medium=social"
    elif draws.random() < 0.05:
        path += f"?id={draws.integers(1, 10**6)}"
    return path


def _bias_for(domain: str, category: str) -> str:
    if category == "news":
        return ALLSIDES_BIAS.get(domain, "not-ranked")
    return "not-ranked"


def _draw_votes(draws: Draws) -> tuple[int, int]:
    """Vote counts per §4.3.2: ~71% of URLs have zero votes; 99% of net
    scores lie in (-10, 10); positive nets outnumber negative ~1.6:1."""
    roll = draws.random()
    if roll < 0.714:
        return 0, 0
    magnitude = 1 + int(draws.rng.geometric(0.45))
    spread = int(draws.rng.geometric(0.7)) - 1
    if roll < 0.823:  # negative-net URL (64k/588k)
        down = magnitude + max(0, spread)
        up = max(0, spread)
        return up, down
    up = magnitude + max(0, spread)
    down = max(0, spread)
    return up, down


def build_url_universe(
    config: WorldConfig,
    rng: np.random.Generator,
    ids: ObjectIdFactory,
    textgen: CommentTextGenerator,
) -> UrlUniverse:
    """Generate the full URL population for a world.

    Comment-allocation weights are Zipf-like overall, with YouTube URLs
    damped (their median comment volume is 1 in the paper) and the fringe
    domains boosted to the top of the per-URL volume ranking.
    """
    draws = Draws(rng)
    n_urls = config.n_urls
    domains, fractions, categories = zip(*DOMAIN_MIX)
    fixed_fraction = float(np.sum(fractions))

    urls: list[CommentUrl] = []
    weights: list[float] = []
    language_hints: dict[str, str] = {}
    used_domains: set[str] = set(domains)

    def first_seen() -> float:
        # Growth-weighted: most URLs enter early (the platform's burst).
        u = draws.random()
        return config.epoch_dissenter + (u ** 1.6) * (
            config.crawl_time - config.epoch_dissenter - 3600
        )

    def base_weight(category: str) -> float:
        # Heavy-tailed popularity, capped so no organic URL outranks the
        # fringe URLs' ~110-comment volume (the paper's per-URL maximum).
        if category == "youtube":
            # Most videos attract a single comment (median volume 1), a
            # minority go viral — which is how 22% of URLs carry 26% of
            # comments.
            w = 0.45
            if draws.random() < 0.15:
                w += float(min(rng.pareto(0.8) * 3.0, 60.0))
            return w
        return float(min(rng.pareto(1.1) + 0.2, 25.0))

    def add_url(
        url: str, category: str, bias: str, language: str = "en",
        weight: float | None = None,
    ) -> CommentUrl:
        record = CommentUrl(
            commenturl_id=ids.mint(first_seen()),
            url=url,
            title=textgen.generate_title() if category != "youtube" else "/watch",
            description=(
                textgen.generate_title(10) if category != "youtube" else ""
            ),
            category=category,
            bias=bias,
            first_seen=0.0,  # set below from the minted id
            controversy=float(rng.beta(1.4, 4.0)),
        )
        record.first_seen = float(record.commenturl_id.timestamp)
        record.upvotes, record.downvotes = _draw_votes(draws)
        urls.append(record)
        weights.append(weight if weight is not None else base_weight(category))
        if language != "en":
            language_hints[record.commenturl_id.hex] = language
        return record

    # --- Fixed-mix domains -------------------------------------------------
    fraction_arr = np.asarray(fractions) / fixed_fraction
    n_fixed = int(round(n_urls * fixed_fraction))
    picks = rng.choice(len(domains), size=n_fixed, p=fraction_arr)
    for domain_index in picks:
        domain, category = domains[domain_index], categories[domain_index]
        path = _path_for(draws, domain, category)
        scheme = "https" if draws.random() < 0.985 else "http"
        add_url(f"{scheme}://{domain}{path}", category, _bias_for(domain, category))

    # --- Fringe high-volume URLs -------------------------------------------
    # Weight placeholder 0; fixed up after the universe is complete so that
    # each fringe URL expects ~110 comments (the paper's thewatcherfiles.com
    # observation: 116 comments on a single URL), independent of scale.
    fringe_indices: list[int] = []
    for domain, language in FRINGE_DOMAINS:
        add_url(
            f"https://{domain}/{_random_slug(draws)}",
            "other",
            "not-ranked",
            language=language,
            weight=0.0,
        )
        fringe_indices.append(len(urls) - 1)

    # --- Scheme oddities (absolute counts, scaled).  Dissenter anchors a
    # thread to *any* string a user submits, so file:// and chrome:// URLs
    # exist as thread anchors even though they were never fetchable (§6).
    for _ in range(config.scaled(13, minimum=1)):
        add_url(
            f"file:///C:/Users/{_random_slug(draws, 1)}/Documents/{_random_slug(draws, 2)}.pdf",
            "file", "not-ranked", weight=0.05,
        )
    for _ in range(config.scaled(200, minimum=1)):
        add_url(
            f"chrome://{draws.pick(_BROWSER_PAGES)}/",
            "browser", "not-ranked", weight=0.05,
        )

    # --- Long tail -----------------------------------------------------------
    while len(urls) < n_urls:
        domain = _tail_domain(draws, used_domains)
        category = "news" if draws.random() < 0.7 else "other"
        scheme = "https" if draws.random() < 0.97 else "http"
        add_url(
            f"{scheme}://{domain}{_path_for(draws, domain, category)}",
            category,
            "not-ranked",
        )

    # --- Deliberate duplicates (§4.2.1) --------------------------------------
    protocol_dups = config.scaled(400, minimum=2)
    slash_dups = config.scaled(60, minimum=1)
    https_urls = [u for u in urls if u.url.startswith("https://")]
    dup_sources = rng.choice(
        len(https_urls), size=min(len(https_urls), protocol_dups + slash_dups),
        replace=False,
    )
    for index, source in enumerate(dup_sources):
        original = https_urls[int(source)]
        if index < protocol_dups:
            dup_url = "http://" + original.url[len("https://"):]
        else:
            dup_url = (
                original.url[:-1] if original.url.endswith("/")
                else original.url + "/"
            )
        add_url(dup_url, original.category, original.bias, weight=0.1)

    # --- Fringe weight fix-up -------------------------------------------------
    # E[comments for url i] = n_comments * w_i / W_total; solve for the
    # weight that puts ~110 expected comments on each fringe URL.
    weights_arr = np.asarray(weights, dtype=float)
    target_comments = 110.0
    n_comments = config.n_comments
    other_weight = float(weights_arr.sum())
    denom = n_comments - target_comments * len(fringe_indices)
    if denom > 0:
        fringe_weight = target_comments * other_weight / denom
        for index in fringe_indices:
            weights_arr[index] = fringe_weight

    return UrlUniverse(
        urls=urls,
        weights=weights_arr,
        language_hints=language_hints,
        protocol_duplicate_pairs=protocol_dups,
        trailing_slash_duplicate_pairs=slash_dups,
    )
