"""Run one benchmark workload against ``repro`` and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reproduce --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

A run sets its inputs up ``SETUP_REPEATS`` times, runs one unreported
warm-up iteration, then runs identical iterations for ``--seconds`` and
reports medians over them.  Every timing is read from a
:class:`calibrate.HostClock`: wall time scaled by the host's speed,
which a fixed reference computation measures ten times a second while
the program runs, so that the test host's speed swings (up to 1.7x, for
seconds at a time) do not reach the figures.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced iterations, reports the per-layer metrics (medians
over the traced iterations) including the tracing overhead and the raw
host figures, and writes the last traced iteration's spans to
``.perfbench/trace-<workload>-<seed>.json``.  A table with units and
sample counts goes to stderr; the last line of stdout is the JSON
result.  Every iteration checks its output; a mismatch marks the whole
run failed.  ``--workload all`` runs each workload in turn in its own
process.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_PLAIN = 3
MIN_TRACED = 2


def load_repro() -> None:
    """Put the checkout's ``src`` on the path; stop if it is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro sources under {src}; run from the root "
            f"of a checkout of the repository"
        )
    sys.path.insert(0, str(src))
    import repro  # noqa: F401


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool, out: Path):
    """Set up and measure one workload; returns the run record."""
    from calibrate import HostClock
    from layers import Recorder, install_spans, layer_metrics
    from measure import Tally
    from tracing import Patches, Tracer
    from workloads import WORKLOADS

    references = json.loads(
        (HERE / "references.json").read_text(encoding="utf-8")
    )
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out))
    life = time.perf_counter()
    try:
        with HostClock() as clock:
            workload = WORKLOADS[name](seed, references, tmp)
            setups = []
            for _ in range(SETUP_REPEATS):
                start = clock.now()
                workload.setup()
                setups.append(clock.now() - start)
            workload.prepare()

            recorder = Recorder(workload.tag_requests, clock.now)
            tracer = Tracer(clock.now)
            tally = Tally()
            plain, traced, problems, raw_walls = [], [], [], []
            last_spans: list = []

            def one(traced_now: bool):
                gc.collect()   # each iteration starts from a collected heap
                patches = Patches()
                recorder.reset()
                recorder.install(patches)
                if traced_now:
                    tracer.clear()
                    install_spans(patches, tracer)
                try:
                    it = workload.iterate(recorder)
                finally:
                    patches.undo()
                tally.add(it.attempted, it.failed)
                if not it.correct:
                    tally.fail_gate()
                    problems.append(it.problem)
                return it

            one(False)   # warm-up: checked, not reported
            start = time.perf_counter()
            while True:
                traced_now = trace and len(traced) < len(plain)
                began = time.perf_counter()
                it = one(traced_now)
                raw = time.perf_counter() - began
                if traced_now:
                    counters = {**it.counters, **tracer.counters}
                    traced.append((it, layer_metrics(tracer.spans, counters)))
                    last_spans = list(tracer.spans)
                else:
                    plain.append((it, list(recorder.latencies),
                                  list(recorder.tags)))
                    raw_walls.append(raw)
                enough = len(plain) >= MIN_PLAIN and (
                    not trace or len(traced) >= MIN_TRACED
                )
                # Stop before an iteration that would end past the window.
                if enough and time.perf_counter() - start + raw > seconds:
                    break
        if trace:
            tracer.spans[:] = last_spans
            tracer.dump(out / f"trace-{name}-{seed}.json")
        return {
            "setups": setups, "plain": plain, "traced": traced,
            "tally": tally, "problems": problems, "rss": peak_rss_mb(),
            "workload": workload, "raw_walls": raw_walls,
            "probes": clock.probes, "probe_s": clock.probe_s,
            "life_s": time.perf_counter() - life,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def end_to_end(run: dict) -> dict:
    """name -> (value, samples) for every end-to-end metric.

    Timings are on the run's :class:`calibrate.HostClock` and are medians
    over the run's identical iterations; the send latency is each
    iteration's mean, then the median of those.  The send latency's
    median sits on the boundary between cache hits and misses in
    ``serve-powerlaw`` and its p99 moved by a third between runs of one
    commit, so both are per-layer (``net.send_p50_ms``,
    ``net.send_p99_ms``), with no bound.
    """
    from measure import median

    plain = run["plain"]
    n = len(plain)
    samples = sum(len(latencies) for _, latencies, _ in plain)
    return {
        "setup_s": (median(run["setups"]), len(run["setups"])),
        "wall_s": (median(it.wall_s for it, _, _ in plain), n),
        "req_per_s": (median(it.attempted / it.request_s
                             for it, _, _ in plain), n),
        "latency_mean_ms": (median(sum(latencies) / len(latencies)
                                   for _, latencies, _ in plain) * 1e3,
                            samples),
        "peak_rss_mb": (run["rss"], 1),
    }


def per_layer(run: dict) -> dict:
    """name -> (value, samples) for every per-layer metric."""
    from layers import SERVE_TAGS
    from measure import MIN_BEYOND, beyond, median, quantile_at
    from workloads import CrawlDurable, Reproduce

    traced = [metrics for _, metrics in run["traced"]]
    out = {key: (median(m[key] for m in traced), len(traced))
           for key in traced[0]}
    world = isinstance(run["workload"], (Reproduce, CrawlDurable))
    out["platform.build_world_s"] = (
        median(run["setups"]) if world else 0.0, len(run["setups"])
    )
    by_tag: dict[str, list[float]] = {tag: [] for tag in SERVE_TAGS}
    for _, samples, tags in run["plain"]:
        for tag, latency in zip(tags, samples):
            if tag in by_tag:
                by_tag[tag].append(latency)
    for tag, samples in by_tag.items():
        for q in (50.0, 99.0):
            key = f"serve.{tag}_p{q:g}_ms"
            if samples and beyond(len(samples), q) >= MIN_BEYOND:
                out[key] = (quantile_at(samples, q) * 1e3, len(samples))
            else:
                out[key] = (0.0, len(samples))
    sends = sum(len(latencies) for _, latencies, _ in run["plain"])
    for q in (50.0, 99.0):
        out[f"net.send_p{q:g}_ms"] = (
            median(quantile_at(latencies, q)
                   for _, latencies, _ in run["plain"]) * 1e3,
            sends,
        )
    out["host.probe_ms"] = (median(run["probes"]) * 1e3, len(run["probes"]))
    out["host.probe_frac"] = (run["probe_s"] / run["life_s"], 1)
    out["host.raw_wall_s"] = (median(run["raw_walls"]),
                              len(run["raw_walls"]))
    plain_wall = median(it.wall_s for it, _, _ in run["plain"])
    traced_wall = median(it.wall_s for it, _ in run["traced"])
    out["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0,
                                  len(run["traced"]))
    out["run.failed_frac"] = (run["tally"].failed_frac, 1)
    return out


def run_one(args) -> int:
    load_repro()
    from measure import MIN_BEYOND, distribution

    declared = declared_metrics()
    if args.workload not in declared["workloads"]:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  out)
    computed = per_layer(run) if args.trace else end_to_end(run)
    units = declared["per_layer" if args.trace else "end_to_end"]
    missing = sorted(set(units) - set(computed))
    if missing:
        raise SystemExit(f"perfbench: metrics not computed: {missing}")
    tally = run["tally"]
    print(f"{args.workload} seed={args.seed} "
          f"iterations={len(run['plain'])}+{len(run['traced'])} traced "
          f"correct={tally.correct} failed={tally.failed_total}/"
          f"{tally.attempted} failed_frac={tally.failed_frac:.6g}",
          file=sys.stderr)
    for problem in run["problems"]:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    walls = " ".join(f"{it.wall_s:.3f}" for it, *_ in run["plain"])
    print(f"  untraced iteration walls (reference s): {walls}",
          file=sys.stderr)
    walls = " ".join(f"{wall:.3f}" for wall in run["raw_walls"])
    print(f"  the same, host wall clock with probes (s): {walls}",
          file=sys.stderr)
    pooled = distribution(x for _, latencies, _ in run["plain"]
                          for x in latencies)
    print(f"  send latency, all untraced iterations pooled: "
          f"n={pooled.count} p50={pooled.p50 * 1e3:.6g} ms "
          f"{pooled.tail_label}={pooled.tail * 1e3:.6g} ms "
          f"(highest percentile with {MIN_BEYOND}+ samples beyond)",
          file=sys.stderr)
    for name, unit in units.items():
        value, samples = computed[name]
        print(f"  {name:34s} {value:14.6g} {unit:8s} n={samples}",
              file=sys.stderr)
    result = {
        "correct": tally.correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed_total,
        "metrics": {
            name: {"value": computed[name][0], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one summary table."""
    names = json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    )["workloads"]
    results = {}
    for entry in names:
        name = entry["name"]
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    for name, result in results.items():
        frac = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} "
              f"failed_frac={frac:.6g} "
              f"({result['failed']}/{result['attempted']})")
        for metric, body in result["metrics"].items():
            print(f"  {metric:34s} {body['value']:14.6g} {body['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
