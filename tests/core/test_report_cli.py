"""Tests for the report renderer and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.core.report import (
    render_figures_summary,
    render_full_report,
    render_headlines,
    render_table1,
    render_table2,
    render_table3,
)


class TestReportRendering:
    def test_table1_mentions_key_flags(self, pipeline_report):
        text = render_table1(pipeline_report)
        assert "Table 1a" in text and "Table 1b" in text
        assert "canPost" in text
        assert "nsfw" in text

    def test_table2_lists_youtube(self, pipeline_report):
        text = render_table2(pipeline_report)
        assert "youtube.com" in text
        assert ".com" in text

    def test_table3_rows(self, pipeline_report):
        text = render_table3(pipeline_report)
        assert "NY Times" in text and "Daily Mail" in text and "Reddit" in text

    def test_headlines_fields(self, pipeline_report):
        text = render_headlines(pipeline_report)
        assert "active users" in text
        assert "censorship" in text

    def test_figures_summary_covers_all(self, pipeline_report):
        text = render_figures_summary(pipeline_report)
        for token in ("Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6",
                      "Fig 7a", "Fig 8", "Fig 9", "Hateful core"):
            assert token in text, token

    def test_full_report_composes(self, pipeline_report):
        text = render_full_report(pipeline_report)
        assert "Table 1a" in text
        assert "Figures — numeric summary" in text
        # Every section's header underline is intact.
        assert text.count("=") > 20


class TestCliParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.scale == 0.005

    def test_crawl_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crawl"])

    def test_score_positional(self):
        args = build_parser().parse_args(["score", "hello", "world"])
        assert args.text == ["hello", "world"]

    @pytest.mark.parametrize("command", [
        "run", "figures", "serve", "loadgen", "diffuse",
    ])
    @pytest.mark.parametrize("scale", ["nan", "-1", "0", "inf", "tiny"])
    def test_bad_scale_is_a_usage_error(self, command, scale, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--scale", scale])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --scale" in err
        assert "Traceback" not in err

    def test_crawl_bad_scale_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["crawl", "--out", "x.json", "--scale", "nan"])
        assert excinfo.value.code == 2
        assert "positive finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value)
        for command in ("run", "crawl")
        for flag, value in [
            ("--connections", "0"),
            ("--segment-records", "0"),
            ("--die-after", "-1"),
            ("--checkpoint-every", "-5"),
            ("--checkpoint-seconds", "nan"),
            ("--checkpoint-seconds", "-1"),
        ]
    ] + [
        ("loadgen", "--users", "0"),
        ("loadgen", "--requests", "-1"),
        ("loadgen", "--mean-gap", "-1"),
        ("loadgen", "--mean-gap", "nan"),
        ("diffuse", "--seeds", "-1"),
        ("diffuse", "--rounds", "-1"),
        ("diffuse", "--base-p", "2"),
        ("diffuse", "--base-p", "nan"),
        ("diffuse", "--tox-weight", "inf"),
    ])
    def test_bad_numeric_flag_is_a_usage_error(self, command, flag, value, capsys):
        extra = ["--out", "x.json"] if command == "crawl" else []
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, *extra, flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [
        ("run", "--checkpoint"),
        ("run", "--report"),
        ("run", "--report-json"),
        ("run", "--state"),
        ("crawl", "--out"),
        ("crawl", "--state"),
        ("loadgen", "--out"),
        ("diffuse", "--json"),
    ])
    def test_output_file_in_a_missing_directory_is_a_usage_error(
        self, command, flag, tmp_path, capsys
    ):
        extra = ["--out", str(tmp_path / "c.json")] if command == "crawl" else []
        with pytest.raises(SystemExit) as excinfo:
            main([command, *extra, flag, str(tmp_path / "nodir" / "f.json")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: directory" in err
        assert "nodir" in err
        assert "Traceback" not in err

    def test_diffuse_json_dash_is_stdout(self):
        assert str(build_parser().parse_args(["diffuse", "--json", "-"]).json) == "-"

    def test_crawl_has_no_shards_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["crawl", "--out", "x.json", "--shards", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --shards" in capsys.readouterr().err

    def test_scale_accepts_positive_floats(self):
        args = build_parser().parse_args(["run", "--scale", "1e-3"])
        assert args.scale == 0.001


class TestCliExecution:
    def test_score_command(self, capsys):
        exit_code = main(["score", "you pathetic disgusting clowns"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "SEVERE_TOXICITY" in out
        assert "dictionary hate ratio" in out

    def test_score_empty_stdin_fails(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["score"]) == 1

    def test_crawl_command_writes_checkpoint(self, tmp_path, capsys):
        out_file = tmp_path / "crawl.json"
        exit_code = main([
            "crawl", "--scale", "0.001", "--seed", "3",
            "--out", str(out_file),
        ])
        assert exit_code == 0
        assert out_file.exists()
        from repro.crawler.checkpoint import load_result
        corpus = load_result(out_file)
        assert corpus.summary()["comments"] > 0

    @pytest.fixture(scope="class")
    def reference_dump(self, tmp_path_factory):
        """The corpus dump of an uninterrupted sequential crawl."""
        reference = tmp_path_factory.mktemp("reference") / "reference.json"
        assert main([
            "crawl", "--scale", "0.001", "--seed", "3",
            "--out", str(reference),
        ]) == 0
        return reference.read_bytes()

    @pytest.fixture(scope="class")
    def reference_segments(self, tmp_path_factory):
        """Every segment file of an uninterrupted crawl spilled to a store dir."""
        base = tmp_path_factory.mktemp("reference-segments")
        assert main([
            "crawl", "--scale", "0.001", "--seed", "3",
            "--out", str(base / "reference.json"),
            "--store-dir", str(base / "segments"), "--segment-records", "256",
        ]) == 0
        return {f.name: f.read_bytes() for f in (base / "segments").iterdir()}

    @pytest.mark.parametrize("options", [
        [],
        ["--connections", "4"],
        ["--store-dir", "{tmp}/segments", "--segment-records", "256"],
    ], ids=["default", "connections-4", "store-dir"])
    def test_crawl_kill_and_resume_round_trip(
        self, options, reference_dump, reference_segments, tmp_path, capsys
    ):
        """CLI crash-safety: crawl → die-after-K (exit 3) → crawl --resume
        must finish with a corpus dump byte-identical to an uninterrupted
        sequential crawl's — over concurrent connections and with sealed
        segments spilled to a store directory too."""
        from repro.cli import EXIT_KILLED

        options = [opt.format(tmp=tmp_path) for opt in options]
        out_file = tmp_path / "crawl.json"
        state_file = tmp_path / "crawl.json.state.json"
        exit_code = main([
            "crawl", "--scale", "0.001", "--seed", "3",
            "--out", str(out_file), *options,
            "--checkpoint-every", "5", "--die-after", "120",
        ])
        assert exit_code == EXIT_KILLED
        assert state_file.exists()
        assert f"--resume --state {state_file}" in capsys.readouterr().err
        assert not out_file.exists()

        exit_code = main([
            "crawl", "--scale", "0.001", "--seed", "3",
            "--out", str(out_file), *options, "--resume",
        ])
        assert exit_code == 0
        assert not state_file.exists()      # superseded by the corpus
        # ...together with every sidecar and journal it referenced.
        assert not list(tmp_path.glob("*.state.json*"))
        assert out_file.read_bytes() == reference_dump
        if "--store-dir" in options:
            # Every segment (JSONL, manifest, column files) matches too.
            segments = tmp_path / "segments"
            assert (segments / "manifest.json").exists()
            assert {
                f.name: f.read_bytes() for f in segments.iterdir()
            } == reference_segments

    @pytest.mark.parametrize("command", ["crawl", "run"])
    def test_kill_without_checkpoints_names_no_state_file(
        self, command, tmp_path, capsys
    ):
        """A --die-after kill with no checkpoint cadence writes no state,
        so the hint must not send the user to a --resume that fails."""
        from repro.cli import EXIT_KILLED

        target = ["--out"] if command == "crawl" else ["--report"]
        exit_code = main([
            command, "--scale", "0.001", "--seed", "3",
            *target, str(tmp_path / "out"), "--die-after", "50",
        ])
        assert exit_code == EXIT_KILLED
        err = capsys.readouterr().err
        assert "no checkpoint was written" in err
        assert "--checkpoint-every" in err
        assert "--resume" not in err
        assert not list(tmp_path.glob("*.state.json*"))

    def test_crawl_resume_without_state_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "crawl", "--scale", "0.001", "--seed", "3",
                "--out", str(tmp_path / "x.json"), "--resume",
            ])

    def test_run_command_small(self, tmp_path, capsys):
        report_file = tmp_path / "report.txt"
        exit_code = main([
            "run", "--scale", "0.001", "--seed", "3",
            "--report", str(report_file),
        ])
        assert exit_code == 0
        assert "Table 1a" in report_file.read_text()

    def test_figures_command(self, tmp_path):
        out_dir = tmp_path / "figs"
        exit_code = main([
            "figures", "--scale", "0.001", "--seed", "3",
            "--out", str(out_dir),
        ])
        assert exit_code == 0
        assert any(out_dir.glob("fig*.svg"))
