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
import sys
from pathlib import Path

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

EXIT_KILLED = 3   # the --die-after injector fired; state file holds progress


def _add_crawl_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Fetch-engine options shared by ``run`` and ``crawl``."""
    parser.add_argument(
        "--connections", type=int, default=1, metavar="K",
        help="simulated concurrent connections for the crawl stages "
             "(default 1 = sequential; corpus, stats and checkpoints are "
             "bit-identical at any K — only the simulated crawl duration "
             "shrinks, to the makespan over K connections)")
    parser.add_argument(
        "--parse-workers", type=int, default=0, metavar="W",
        help="worker threads for off-loading page parsing during the "
             "crawl (0 = parse inline; results identical at any W)")
    parser.add_argument(
        "--store-dir", type=Path, default=None, metavar="DIR",
        help="spill sealed corpus segments to this directory; runtime "
             "checkpoints then reference them by name + hash instead of "
             "embedding the corpus, so a tick costs O(progress since the "
             "last tick) — corpus and report are bit-identical either way")
    parser.add_argument(
        "--segment-records", type=int, default=4096, metavar="N",
        help="records per sealed corpus segment (default 4096)")


def _add_resume_flags(parser: argparse.ArgumentParser) -> None:
    """Checkpoint/resume options shared by ``run`` and ``crawl``."""
    parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="write a resumable crawl checkpoint every N fetched pages "
             "(0 = only on --resume; checkpoints are atomic)")
    parser.add_argument(
        "--checkpoint-seconds", type=float, default=0.0, metavar="M",
        help="also checkpoint every M simulated seconds (0 = off)")
    parser.add_argument(
        "--resume", action="store_true",
        help="resume the crawl from the --state file's last checkpoint")
    parser.add_argument(
        "--state", type=Path, default=None,
        help="runtime checkpoint file (default: <out/report>.state.json)")
    parser.add_argument(
        "--die-after", type=int, default=None, metavar="K",
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
            every_pages=args.checkpoint_every if args.checkpoint_every > 0 else 25,
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
    run.add_argument("--scale", type=float, default=0.005,
                     help="world scale (1.0 = the paper's sizes)")
    run.add_argument("--seed", type=int, default=42, help="world seed")
    run.add_argument("--core", action="store_true",
                     help="plant the 42-user hateful core")
    run.add_argument("--workers", type=int, default=0,
                     help="scoring-pass worker threads (0 = serial; "
                          "results are identical at any worker count)")
    run.add_argument("--checkpoint", type=Path, default=None,
                     help="write the crawl corpus to this JSON file")
    run.add_argument("--report", type=Path, default=None,
                     help="write the text report to this file")
    run.add_argument("--report-json", type=Path, default=None,
                     help="write the full analysis payload as JSON (stable "
                          "across runs of the same world; extras excluded)")
    run.add_argument("--with-faults", action="store_true",
                     help="inject transport faults (exercises retries)")
    _add_crawl_engine_flags(run)
    _add_resume_flags(run)

    crawl = sub.add_parser("crawl", help="collection stages only")
    crawl.add_argument("--scale", type=float, default=0.005)
    crawl.add_argument("--seed", type=int, default=42)
    crawl.add_argument("--out", type=Path, required=True,
                       help="checkpoint file to write")
    crawl.add_argument("--with-faults", action="store_true",
                       help="inject transport faults (exercises retries)")
    crawl.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="run the corpus stages sharded over N worker processes "
             "(linux fork); the parent merges per-shard logs so the "
             "corpus, segments and manifest are byte-identical to the "
             "unsharded run at any N (composes with --connections, "
             "--resume and --die-after; rejects --with-faults; skips "
             "the non-corpus YouTube/social/validation stages)")
    _add_crawl_engine_flags(crawl)
    _add_resume_flags(crawl)

    score = sub.add_parser("score", help="score comment text")
    score.add_argument("text", nargs="*", help="comment text (default: stdin)")

    # ``analyze`` forwards its whole tail to repro.analysis (main()
    # intercepts it before parsing); registered here for --help only.
    sub.add_parser(
        "analyze",
        help="run the determinism & concurrency lint suite "
             "(all arguments forwarded to python -m repro.analysis)",
        add_help=False,
    )

    figures = sub.add_parser("figures", help="render the paper's figures as SVG")
    figures.add_argument("--scale", type=float, default=0.004)
    figures.add_argument("--seed", type=int, default=42)
    figures.add_argument("--out", type=Path, default=Path("figures"),
                         help="output directory for the SVG files")
    figures.add_argument("--workers", type=int, default=0,
                         help="scoring-pass worker threads (0 = serial)")

    serve = sub.add_parser(
        "serve",
        help="mount the read API over a crawled corpus and issue requests",
    )
    serve.add_argument("--scale", type=float, default=0.002)
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--store-dir", type=Path, default=None,
                       help="spill directory for sealed corpus segments")
    serve.add_argument("path", nargs="*",
                       help="API paths to request (default: /api/status)")

    loadgen = sub.add_parser(
        "loadgen",
        help="seeded deterministic load run against the serve API",
    )
    loadgen.add_argument("--scale", type=float, default=0.002)
    loadgen.add_argument("--seed", type=int, default=42)
    loadgen.add_argument("--store-dir", type=Path, default=None,
                         help="spill directory for sealed corpus segments")
    loadgen.add_argument("--users", type=int, default=500,
                         help="simulated client population")
    loadgen.add_argument("--requests", type=int, default=2000,
                         help="total requests to issue")
    loadgen.add_argument("--load-seed", type=int, default=0,
                         help="load-schedule RNG seed (independent of the "
                              "world seed)")
    loadgen.add_argument("--mean-gap", type=float, default=0.01,
                         help="mean virtual think time between requests")
    loadgen.add_argument("--out", type=Path, default=None,
                         help="also write the summary to this file")

    diffuse = sub.add_parser(
        "diffuse",
        help="seeded independent-cascade hate-diffusion simulation over "
             "the crawled follow graph",
    )
    diffuse.add_argument("--scale", type=float, default=0.002,
                         help="world scale (1.0 = the paper's sizes)")
    diffuse.add_argument("--seed", type=int, default=42, help="world seed")
    diffuse.add_argument("--workers", type=int, default=0,
                         help="scoring-pass worker threads (0 = serial)")
    diffuse.add_argument("--seeds", type=int, default=10, metavar="K",
                         help="seed-set size for the top-degree and random "
                              "strategies (default 10)")
    diffuse.add_argument("--rounds", type=int, default=20,
                         help="cascade round cap (default 20)")
    diffuse.add_argument("--base-p", type=float, default=0.05,
                         help="base per-edge activation probability")
    diffuse.add_argument("--tox-weight", type=float, default=0.25,
                         help="weight of the source's median toxicity on "
                              "the edge activation probability")
    diffuse.add_argument("--diffusion-seed", type=int, default=0,
                         help="cascade RNG seed (independent of the world "
                              "seed; the report is a pure function of both)")
    diffuse.add_argument("--json", type=Path, default=None, metavar="FILE",
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
        workers=args.workers,
        connections=args.connections,
        parse_workers=args.parse_workers,
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
        state_path = args.state or default_state
        print(f"crawl killed after {killed.requests_served} requests; "
              f"resume with --resume --state {state_path}", file=sys.stderr)
        return EXIT_KILLED
    if checkpointer is not None:
        checkpointer.path.unlink(missing_ok=True)
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


def _cmd_crawl_sharded(args: argparse.Namespace) -> int:
    """The --shards N path: multi-process corpus crawl + deterministic merge."""
    from repro.crawler.shard import ShardEngine
    from repro.platform.world import build_world

    if args.with_faults:
        raise SystemExit(
            "--shards does not compose with --with-faults: fault injection "
            "is seeded by global request order, which sharding re-partitions"
        )
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    world = build_world(_config(args))
    print(f"world: {world.summary()}", file=sys.stderr)
    state_path = args.state or Path(str(args.out) + ".state.json")
    engine = ShardEngine(
        world,
        args.shards,
        args.out,
        connections=args.connections,
        parse_workers=args.parse_workers,
        store_dir=str(args.store_dir) if args.store_dir is not None else None,
        segment_records=args.segment_records,
        checkpoint_every=args.checkpoint_every,
        checkpoint_seconds=args.checkpoint_seconds,
        die_after=args.die_after,
        state_path=state_path,
    )
    resume_payload = None
    if args.resume:
        if not state_path.exists():
            raise SystemExit(f"--resume: no checkpoint state at {state_path}")
        resume_payload = load_state(state_path)
    try:
        corpus = engine.run(resume=resume_payload)
    except CrawlKilled as killed:
        print(f"sharded crawl killed after {killed.requests_served} requests; "
              f"resume with --resume --state {state_path}", file=sys.stderr)
        return EXIT_KILLED
    except ValueError as exc:
        raise SystemExit(f"--shards: {exc}") from exc
    corpus.seal()
    dump_result(corpus, args.out)
    engine.cleanup()
    print(f"crawled {corpus.summary()} "
          f"({engine.requests} HTTP requests over {args.shards} shard(s))")
    print(f"simulated crawl duration: {engine.simulated_seconds:.1f}s "
          f"over {args.shards} shard(s) x {args.connections} connection(s)")
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    if args.shards is not None:
        return _cmd_crawl_sharded(args)
    pipeline = ReproductionPipeline(
        _config(args),
        with_faults=args.with_faults,
        connections=args.connections,
        parse_workers=args.parse_workers,
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
        state_path = args.state or default_state
        print(f"crawl killed after {killed.requests_served} requests; "
              f"resume with --resume --state {state_path}", file=sys.stderr)
        return EXIT_KILLED
    except ValueError as exc:
        if resume_payload is None:
            raise
        raise SystemExit(f"--resume: {exc}") from exc
    corpus = artifacts.corpus
    dump_result(corpus, args.out)
    if checkpointer is not None:
        # The finished corpus supersedes the runtime state file.
        checkpointer.path.unlink(missing_ok=True)
    print(f"crawled {corpus.summary()} "
          f"({pipeline.client.stats.requests} HTTP requests, "
          f"{pipeline.client.stats.timeouts} timeouts retried)")
    simulated = getattr(pipeline.client.clock, "total_slept", None)
    if simulated is not None:
        print(f"simulated crawl duration: {simulated:.1f}s "
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

    pipeline = ReproductionPipeline(_config(args), workers=args.workers)
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

    pipeline = ReproductionPipeline(_config(args), workers=args.workers)
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
