"""Load-generator determinism, kill-safety, and the smoke golden."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.net.errors import CrawlKilled
from repro.serve import LoadGenerator, ServeApp

from tests.serve.conftest import build_synthetic_store, get, mount

BASE = f"https://{ServeApp.HOST}"
GOLDEN = Path(__file__).parent / "data" / "serve_smoke_golden.txt"


def _run(seed: int, keep_log: bool = True):
    """A fresh mount + load run; nothing shared between calls."""
    store = build_synthetic_store()
    _, transport, app = mount(store, score_store=None)
    generator = LoadGenerator(
        transport, app, n_users=200, n_requests=400, seed=seed,
        keep_log=keep_log,
    )
    return generator.run()


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self):
        first = _run(seed=7)
        second = _run(seed=7)
        assert first.summary_text() == second.summary_text()
        assert first.request_log == second.request_log
        assert first.histogram == second.histogram
        assert first.cache_stats == second.cache_stats
        assert first.ratelimit_stats == second.ratelimit_stats

    def test_different_seeds_differ(self):
        assert _run(seed=7).request_log != _run(seed=8).request_log

    def test_log_can_be_disabled(self):
        report = _run(seed=7, keep_log=False)
        assert report.request_log is None
        assert report.requests == 400

    def test_load_covers_the_endpoint_mix(self):
        report = _run(seed=7)
        paths = {url.split("?")[0] for _, url, _, _, _ in report.request_log}
        assert any("/api/thread/" in p for p in paths)
        assert any("/api/user/" in p for p in paths)
        assert any("/api/summary/" in p for p in paths)
        assert any(p.endswith("/api/core") for p in paths)
        assert 404 in report.status_counts   # miss probes exercised


class TestKillSafety:
    def test_kill_partway_leaves_sealed_store_intact(self):
        store = build_synthetic_store()
        snapshot_before = store.snapshot()
        refs_before = [
            (ref.name, ref.count, ref.sha256)
            for ref in store.segment_refs
        ]
        _, transport, app = mount(store, score_store=None)
        generator = LoadGenerator(
            transport, app, n_users=50, n_requests=200, seed=3
        )
        transport.kill_after(60)
        with pytest.raises(CrawlKilled):
            generator.run()
        # The store served reads only: identity and segments unchanged.
        assert store.sealed
        assert store.snapshot() == snapshot_before
        assert [
            (ref.name, ref.count, ref.sha256)
            for ref in store.segment_refs
        ] == refs_before
        from repro.crawler.records import CrawledComment
        from repro.store import SealedCorpusError

        with pytest.raises(SealedCorpusError):
            store.add_comment(CrawledComment(
                comment_id="deadcafe0", author_id="0001beef",
                commenturl_id="0001feed", text="late",
                parent_comment_id=None, created_at_epoch=1_550_500_000,
                shadow_label=None,
            ))
        # Disarm the injector: serving resumes over the same store.
        transport.kill_after(None)
        assert get(transport, f"{BASE}/api/thread/0001feed").status == 200


class TestSmokeGolden:
    def test_real_stack_load_matches_golden(self, serve_stack):
        """In-process twin of :meth:`test_cli_loadgen_matches_golden`."""
        _, transport, app = mount(
            serve_stack.corpus,
            score_store=serve_stack.score_store,
            core_members=serve_stack.core_members,
        )
        generator = LoadGenerator(
            transport, app, n_users=300, n_requests=1200, seed=5
        )
        summary = generator.run().summary_text()
        assert summary + "\n" == GOLDEN.read_text(encoding="utf-8")

    def test_cli_loadgen_matches_golden(self, tmp_path, capsys):
        """``repro loadgen`` end to end, through ``_build_stack`` and
        ``_cmd_loadgen``: exit 0 and the golden summary, byte for byte."""
        out = tmp_path / "serve-smoke.txt"
        code = main([
            "loadgen", "--scale", "0.002", "--seed", "42",
            "--users", "300", "--requests", "1200", "--load-seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == GOLDEN.read_bytes()
        assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")
