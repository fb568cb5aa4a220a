"""Command-line interface: ``python -m repro <command>``.

Commands:

``run``
    Build a world, run the full crawl + analyses, print the paper-style
    report (optionally write crawl checkpoint and report files).
``crawl``
    Run only the collection stages and write a crawl checkpoint.
``score``
    Score text (stdin or arguments) with the dictionary, the Perspective
    models, and optionally the SVM classifier.
``diffuse``
    Seeded independent-cascade hate-diffusion simulation over the
    crawled follow graph (Mathew et al.'s workload on the CSR engine).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable

from repro.core.pipeline import ReproductionPipeline
from repro.core.report import (
    render_full_report,
    render_stage_timings,
    report_to_payload,
)
from repro.crawler.checkpoint import dump_result
from repro.crawler.runtime import Checkpointer, load_state
from repro.net.errors import CrawlKilled
from repro.nlp.dictionary import HateDictionary
from repro.perspective.models import PerspectiveModels
from repro.platform.config import WorldConfig

__all__ = ["build_parser", "main"]

EXIT_KILLED = 3   # the --die-after injector fired


def _number(
    kind: type, low: float | None = None, high: float | None = None,
    *, above: bool = False,
) -> Callable[[str], Any]:
    """argparse type: a finite ``kind`` value in ``[low, high]``.

    ``above`` makes the lower bound exclusive.  A bad value is a usage
    error (exit 2) naming the flag, never a traceback further in.
    """
    wanted = f"finite {'integer' if kind is int else 'number'}"
    if low == 0:
        wanted = ("positive " if above else "non-negative ") + wanted
    elif low is not None:
        wanted += f" {'>' if above else '>='} {low:g}"
    if high is not None:
        wanted += f" <= {high:g}"

    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        if not (
            math.isfinite(value)
            and (low is None or value > low or (value == low and not above))
            and (high is None or value <= high)
        ):
            raise argparse.ArgumentTypeError(f"must be a {wanted}, got {text!r}")
        return value

    return parse


_world_scale = _number(float, 0, above=True)

#: Page cadence of any checkpointing that --checkpoint-every leaves at 0.
_DEFAULT_CHECKPOINT_PAGES = 25


def _out_file(text: str) -> Path:
    """argparse type: a file path whose directory exists.

    Checked when the flag is parsed, so a bad path is a usage error
    (exit 2) naming the flag, not a traceback after the crawl.  ``-``
    (stdout, where a flag allows it) passes: its directory is ``.``.
    """
    path = Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"directory {str(path.parent)!r} does not exist"
        )
    return path


def _add_crawl_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Fetch-engine options shared by ``run`` and ``crawl``."""
    parser.add_argument(
        "--connections", type=_number(int, 1), default=1, metavar="K",
        help="simulated concurrent connections for the crawl stages "
             "(default 1 = sequential; corpus, stats and checkpoints are "
             "bit-identical at any K — only the simulated crawl duration "
             "shrinks, to the makespan over K connections)")
    parser.add_argument(
        "--store-dir", type=Path, default=None, metavar="DIR",
        help="spill sealed corpus segments to this directory; runtime "
             "checkpoints then reference them by name + hash instead of "
             "embedding the corpus, so a tick's store payload is bounded "
             "by the unsealed tail — corpus and report are bit-identical "
             "either way")
    parser.add_argument(
        "--segment-records", type=_number(int, 1), default=4096, metavar="N",
        help="records per sealed corpus segment (default 4096)")


def _add_resume_flags(parser: argparse.ArgumentParser) -> None:
    """Checkpoint/resume options shared by ``run`` and ``crawl``."""
    parser.add_argument(
        "--checkpoint-every", type=_number(int, 0), default=0, metavar="N",
        help="write a resumable crawl checkpoint every N fetched pages "
             f"(0 = every {_DEFAULT_CHECKPOINT_PAGES} pages if "
             "--checkpoint-seconds or --resume is given, else none; "
             "checkpoints are atomic)")
    parser.add_argument(
        "--checkpoint-seconds", type=_number(float, 0), default=0.0, metavar="M",
        help="also checkpoint every M simulated seconds (0 = off); the "
             "page cadence still applies, every "
             f"{_DEFAULT_CHECKPOINT_PAGES} pages unless --checkpoint-every "
             "is given")
    parser.add_argument(
        "--resume", action="store_true",
        help="resume the crawl from the --state file's last checkpoint")
    parser.add_argument(
        "--state", type=_out_file, default=None,
        help="runtime checkpoint file (default: <out/report>.state.json)")
    parser.add_argument(
        "--die-after", type=_number(int, 0), default=None, metavar="K",
        help="kill the crawl after K HTTP requests (crash-safety testing; "
             f"exits with status {EXIT_KILLED})")


def _build_runtime(args: argparse.Namespace, pipeline: ReproductionPipeline,
                   default_state: Path) -> tuple[Checkpointer | None, dict | None]:
    """Assemble the Checkpointer and resume payload from CLI flags."""
    state_path = args.state or default_state
    checkpointer = None
    wants_checkpoints = (
        args.checkpoint_every > 0 or args.checkpoint_seconds > 0 or args.resume
    )
    if wants_checkpoints:
        checkpointer = Checkpointer(
            state_path,
            every_pages=args.checkpoint_every or _DEFAULT_CHECKPOINT_PAGES,
            every_seconds=args.checkpoint_seconds,
            clock=pipeline.origins.clock,
        )
    resume_payload = None
    if args.resume:
        if not state_path.exists():
            raise SystemExit(
                f"--resume: no checkpoint state at {state_path}"
            )
        try:
            resume_payload = load_state(state_path)
        except ValueError as exc:
            raise SystemExit(f"--resume: {exc}") from exc
    if args.die_after is not None:
        pipeline.origins.transport.kill_after(args.die_after)
    return checkpointer, resume_payload


def _report_kill(
    killed: CrawlKilled, checkpointer: Checkpointer | None, state_path: Path
) -> int:
    """Report a --die-after kill, naming the state file only if one was written."""
    if checkpointer is not None and state_path.exists():
        hint = f"resume with --resume --state {state_path}"
    else:
        hint = ("no checkpoint was written; pass --checkpoint-every N "
                "to make a killed crawl resumable")
    print(f"crawl killed after {killed.requests_served} requests; {hint}",
          file=sys.stderr)
    return EXIT_KILLED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Reading In-Between the Lines: An Analysis "
            "of Dissenter' (IMC 2020)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="full crawl + analyses + report")
    run.add_argument("--scale", type=_world_scale, default=0.005,
                     help="world scale (1.0 = the paper's sizes)")
    run.add_argument("--seed", type=int, default=42, help="world seed")
    run.add_argument("--core", action="store_true",
                     help="plant the 42-user hateful core")
    run.add_argument("--checkpoint", type=_out_file, default=None,
                     help="write the crawl corpus to this JSON file")
    run.add_argument("--report", type=_out_file, default=None,
                     help="write the text report to this file")
    run.add_argument("--report-json", type=_out_file, default=None,
                     help="write the full analysis payload as JSON (stable "
                          "across runs of the same world; extras excluded)")
    run.add_argument("--with-faults", action="store_true",
                     help="inject transport faults (exercises retries)")
    _add_crawl_engine_flags(run)
    _add_resume_flags(run)

    crawl = sub.add_parser("crawl", help="collection stages only")
    crawl.add_argument("--scale", type=_world_scale, default=0.005)
    crawl.add_argument("--seed", type=int, default=42)
    crawl.add_argument("--out", type=_out_file, required=True,
                       help="checkpoint file to write")
    crawl.add_argument("--with-faults", action="store_true",
                       help="inject transport faults (exercises retries)")
    _add_crawl_engine_flags(crawl)
    _add_resume_flags(crawl)

    score = sub.add_parser("score", help="score comment text")
    score.add_argument("text", nargs="*", help="comment text (default: stdin)")

    # ``analyze`` forwards its whole tail to repro.analysis (main()
    # intercepts it before parsing); registered here for --help only.
    sub.add_parser(
        "analyze",
        help="run the determinism lint suite "
             "(all arguments forwarded to python -m repro.analysis)",
        add_help=False,
    )

    figures = sub.add_parser("figures", help="render the paper's figures as SVG")
    figures.add_argument("--scale", type=_world_scale, default=0.004)
    figures.add_argument("--seed", type=int, default=42)
    figures.add_argument("--out", type=Path, default=Path("figures"),
                         help="output directory for the SVG files")

    serve = sub.add_parser(
        "serve",
        help="mount the read API over a crawled corpus and issue requests",
    )
    serve.add_argument("--scale", type=_world_scale, default=0.002)
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--store-dir", type=Path, default=None,
                       help="spill directory for sealed corpus segments")
    serve.add_argument("path", nargs="*",
                       help="API paths to request (default: /api/status)")

    loadgen = sub.add_parser(
        "loadgen",
        help="seeded deterministic load run against the serve API",
    )
    loadgen.add_argument("--scale", type=_world_scale, default=0.002)
    loadgen.add_argument("--seed", type=int, default=42)
    loadgen.add_argument("--store-dir", type=Path, default=None,
                         help="spill directory for sealed corpus segments")
    loadgen.add_argument("--users", type=_number(int, 1), default=500,
                         help="simulated client population")
    loadgen.add_argument("--requests", type=_number(int, 0), default=2000,
                         help="total requests to issue")
    loadgen.add_argument("--load-seed", type=int, default=0,
                         help="load-schedule RNG seed (independent of the "
                              "world seed)")
    loadgen.add_argument("--mean-gap", type=_number(float, 0), default=0.01,
                         help="mean virtual think time between requests")
    loadgen.add_argument("--out", type=_out_file, default=None,
                         help="also write the summary to this file")

    diffuse = sub.add_parser(
        "diffuse",
        help="seeded independent-cascade hate-diffusion simulation over "
             "the crawled follow graph",
    )
    diffuse.add_argument("--scale", type=_world_scale, default=0.002,
                         help="world scale (1.0 = the paper's sizes)")
    diffuse.add_argument("--seed", type=int, default=42, help="world seed")
    diffuse.add_argument("--seeds", type=_number(int, 0), default=10, metavar="K",
                         help="seed-set size for the top-degree and random "
                              "strategies (default 10)")
    diffuse.add_argument("--rounds", type=_number(int, 0), default=20,
                         help="cascade round cap (default 20)")
    diffuse.add_argument("--base-p", type=_number(float, 0, 1), default=0.05,
                         help="base per-edge activation probability")
    diffuse.add_argument("--tox-weight", type=_number(float), default=0.25,
                         help="weight of the source's median toxicity on "
                              "the edge activation probability")
    diffuse.add_argument("--diffusion-seed", type=int, default=0,
                         help="cascade RNG seed (independent of the world "
                              "seed; the report is a pure function of both)")
    diffuse.add_argument("--json", type=_out_file, default=None, metavar="FILE",
                         help="write the full diffusion report as JSON "
                              "('-' for stdout)")
    return parser


def _config(args: argparse.Namespace) -> WorldConfig:
    kwargs: dict = {"scale": args.scale, "seed": args.seed}
    if getattr(args, "core", False):
        kwargs.update(
            planted_core_size=42, core_components=6, core_giant_size=32
        )
    return WorldConfig(**kwargs)


def _cmd_run(args: argparse.Namespace) -> int:
    pipeline = ReproductionPipeline(
        _config(args),
        with_faults=args.with_faults,
        connections=args.connections,
        store_dir=str(args.store_dir) if args.store_dir is not None else None,
        segment_records=args.segment_records,
    )
    print(f"world: {pipeline.world.summary()}", file=sys.stderr)
    default_state = Path(
        str(args.report or args.checkpoint or "repro-run") + ".state.json"
    )
    checkpointer, resume_payload = _build_runtime(args, pipeline, default_state)
    try:
        report = pipeline.run(checkpointer=checkpointer, resume=resume_payload)
    except CrawlKilled as killed:
        return _report_kill(killed, checkpointer, args.state or default_state)
    except ValueError as exc:
        if resume_payload is None:
            raise
        raise SystemExit(f"--resume: {exc}") from exc
    if checkpointer is not None:
        checkpointer.discard()
    text = render_full_report(report)
    print(text)
    print(render_stage_timings(report), file=sys.stderr)
    if args.checkpoint is not None:
        dump_result(report.corpus, args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}", file=sys.stderr)
    if args.report is not None:
        args.report.write_text(text + "\n", encoding="utf-8")
        print(f"report written to {args.report}", file=sys.stderr)
    if args.report_json is not None:
        payload = report_to_payload(report)
        args.report_json.write_text(
            json.dumps(payload, indent=1) + "\n", encoding="utf-8"
        )
        print(f"JSON payload written to {args.report_json}", file=sys.stderr)
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    pipeline = ReproductionPipeline(
        _config(args),
        with_faults=args.with_faults,
        connections=args.connections,
        store_dir=str(args.store_dir) if args.store_dir is not None else None,
        segment_records=args.segment_records,
    )
    default_state = Path(str(args.out) + ".state.json")
    checkpointer, resume_payload = _build_runtime(args, pipeline, default_state)
    try:
        artifacts = pipeline.stage_crawl(
            checkpointer=checkpointer, resume=resume_payload
        )
    except CrawlKilled as killed:
        return _report_kill(killed, checkpointer, args.state or default_state)
    except ValueError as exc:
        if resume_payload is None:
            raise
        raise SystemExit(f"--resume: {exc}") from exc
    corpus = artifacts.corpus
    dump_result(corpus, args.out)
    if checkpointer is not None:
        # The finished corpus supersedes the runtime state files.
        checkpointer.discard()
    print(f"crawled {corpus.summary()} "
          f"({pipeline.client.stats.requests} HTTP requests, "
          f"{pipeline.client.stats.timeouts} timeouts retried)")
    print(f"simulated crawl duration: {pipeline.client.clock.total_slept:.1f}s "
          f"over {args.connections} connection(s)")
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    texts = args.text or [line.strip() for line in sys.stdin if line.strip()]
    if not texts:
        print("no text to score", file=sys.stderr)
        return 1
    dictionary = HateDictionary()
    models = PerspectiveModels()
    for text in texts:
        scores = models.score(text)
        ratio = dictionary.score(text).ratio
        print(f"{text[:60]!r}")
        print(f"  dictionary hate ratio: {ratio:.3f}")
        for name, value in scores.items():
            print(f"  {name}: {value:.3f}")
    return 0


def _build_stack(args: argparse.Namespace):
    from repro.serve import build_serve_stack

    return build_serve_stack(
        scale=args.scale,
        seed=args.seed,
        store_dir=str(args.store_dir) if args.store_dir is not None else None,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.net.http import Request

    stack = _build_stack(args)
    print(f"serving {stack.corpus.summary()} at https://{stack.app.host} "
          f"(manifest {stack.app.manifest_hash[:12]})", file=sys.stderr)
    paths = args.path or ["/api/status"]
    worst = 0
    for path in paths:
        request = Request(
            method="GET", url=f"https://{stack.app.host}{path}"
        )
        request.headers.set("X-Client-Id", "cli")
        response = stack.transport.send(request)
        worst = max(worst, 0 if response.status == 200 else 1)
        print(f"{response.status} {path}", file=sys.stderr)
        print(response.body.decode("utf-8"))
    return worst


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve import LoadGenerator

    stack = _build_stack(args)
    print(f"loadgen over {stack.corpus.summary()} "
          f"(manifest {stack.app.manifest_hash[:12]})", file=sys.stderr)
    generator = LoadGenerator(
        stack.transport,
        stack.app,
        n_users=args.users,
        n_requests=args.requests,
        seed=args.load_seed,
        mean_gap=args.mean_gap,
    )
    report = generator.run()
    text = report.summary_text()
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
        print(f"summary written to {args.out}", file=sys.stderr)
    return 0


def _cmd_diffuse(args: argparse.Namespace) -> int:
    from repro.core.socialnet import (
        extract_hateful_core,
        per_user_activity_toxicity,
    )
    from repro.graph import run_diffusion

    pipeline = ReproductionPipeline(_config(args))
    print(f"world: {pipeline.world.summary()}", file=sys.stderr)
    artifacts = pipeline.stage_crawl()
    score_store = pipeline.stage_score(artifacts)
    counts, toxicity = per_user_activity_toxicity(
        artifacts.corpus, artifacts.gab_ids, score_store
    )
    core = extract_hateful_core(artifacts.graph, counts, toxicity)
    report = run_diffusion(
        artifacts.graph,
        toxicity,
        core_members=core.members,
        n_seeds=args.seeds,
        base_p=args.base_p,
        tox_weight=args.tox_weight,
        max_rounds=args.rounds,
        seed=args.diffusion_seed,
    )
    print(report.summary_text())
    if args.json is not None:
        text = json.dumps(report.to_payload(), indent=1, sort_keys=True) + "\n"
        if str(args.json) == "-":
            sys.stdout.write(text)
        else:
            args.json.write_text(text, encoding="utf-8")
            print(f"JSON report written to {args.json}", file=sys.stderr)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.viz.figures import render_all_figures

    pipeline = ReproductionPipeline(_config(args))
    report = pipeline.run()
    written = render_all_figures(report, args.out)
    for path in written:
        print(path)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "analyze":
        # The lint suite owns its own argument surface (including
        # --help); forward the tail untouched.
        from repro.analysis.cli import main as analysis_main

        return analysis_main(argv[1:])
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "crawl": _cmd_crawl,
        "score": _cmd_score,
        "figures": _cmd_figures,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "diffuse": _cmd_diffuse,
    }
    return handlers[args.command](args)


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main())
