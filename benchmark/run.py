#!/usr/bin/env python3
"""Closed-loop benchmark of the vendormatch pipeline.

Run from the root of a checkout:

    python3 benchmark/run.py --workload rank_dense --seed 1 --seconds 20 --trace 0

One caller runs ``cli.run(RunConfig)`` then ``cli.emit_report(report,
"json")``, waits for the report, checks it, restores the seed marking file
and starts the next pass; there are no threads. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from passes traced
by ``tracing.py``, alternating with untraced passes to give the tracing
overhead. Times are scaled to a reference machine speed by ``speed.py``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it describe the
workload and each metric in words. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

from speed import SpeedProbe
from workloads import WORKLOADS, corpus_words, write_corpus

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
GOLDEN = ROOT / "tests" / "golden" / "bundled_report.json"
WORK_ROOT = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"

#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 11
#: Timed passes per run even when ``--seconds`` runs out sooner.
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60

# Both child programs import the library from PYTHONPATH (the checkout's
# src/, then this directory) and take the workload's paths as arguments.
_SETUP_CHILD = """
import sys, time
from speed import SpeedProbe
probe = SpeedProbe()
with probe.sampling():
    start = time.perf_counter()
    import vendormatch
    vendormatch.load_marking(sys.argv[1])
    vendormatch.load_taxonomy(sys.argv[2])
    wall = time.perf_counter() - start
print(probe.scaled(wall))
"""
_PASS_CHILD = """
import hashlib, resource, sys
from vendormatch import cli
from vendormatch.config import RunConfig
cfg = RunConfig(*sys.argv[1:])
text = cli.emit_report(cli.run(cfg), "json")
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(hashlib.sha256(text.encode("utf-8")).hexdigest(), peak_kib)
"""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report_problems(text: str, golden: bytes | None) -> list[str]:
    """What is wrong with one JSON report; empty when it is correct.

    The bundled report must equal the golden bytes. Every report must parse,
    keep each match percentage in [0, 100], list results by (-percentage,
    vendor id), and name the top vendor as winner unless its score is 0.
    """
    if golden is not None and text.encode("utf-8") != golden:
        return ["report differs from the golden bytes"]
    try:
        doc = json.loads(text)
        winner = doc["winner"]
        rows = [(r["match_percentage"], r["vendor_id"]) for r in doc["results"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report does not parse: {exc!r}"]
    if not all(isinstance(pct, (int, float)) and 0 <= pct <= 100 for pct, _ in rows):
        return ["a match_percentage lies outside [0, 100]"]
    if sorted(rows, key=lambda row: (-row[0], row[1])) != rows:
        return ["results are not sorted by (-match_percentage, vendor_id)"]
    if winner != (rows[0][1] if rows and rows[0][0] > 0 else None):
        return ["winner is not the top vendor, or not null for a top score of 0"]
    return []


class Tally:
    """Counts passes, failing any whose output differs from the first one's.

    Repeats must do identical work, so besides ``report_problems`` every pass
    must give the same report bytes, leave the same marking file and, when
    traced, count the same work as the first pass.
    """

    def __init__(self, golden: bytes | None) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report: str | None = None
        self.marking: bytes | None = None
        self.counts: dict[str, float] | None = None

    def record(self, problems: list[str]) -> bool:
        """Count one pass with these problems; return whether it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def check(
        self, text: str, marking: bytes, counts: dict[str, float] | None = None
    ) -> bool:
        """Check and count one pass; return whether its output is correct."""
        if self.report is None:
            self.report, self.marking = text, marking
        if counts is not None and self.counts is None:
            self.counts = counts
        problems = report_problems(text, self.golden)
        if text != self.report:
            problems.append("report differs from the first pass's")
        if marking != self.marking:
            problems.append("marking file differs from the first pass's")
        if counts is not None:
            changed = sorted(k for k in counts if counts[k] != self.counts[k])
            if changed:
                problems.append(f"traced counts differ from the first pass's: {changed}")
        return self.record(problems)


@dataclass
class Bench:
    """One workload laid out on disk, ready to run passes on."""

    cfg: object  # vendormatch.config.RunConfig
    seed_marking: bytes
    golden: bytes | None
    shape: dict


def prepare(workload, seed: int, work_dir: Path) -> Bench:
    """Write the workload's inputs under ``work_dir`` and describe them."""
    from vendormatch.config import RunConfig

    if workload.corpus is None:
        vendors_dir, queries_dir = DATA / "vendors", DATA / "queries"
        golden = GOLDEN.read_bytes()
    else:
        vendors_dir, queries_dir = write_corpus(
            workload.corpus, seed, corpus_words(DATA), work_dir
        )
        golden = None
    seed_marking = (DATA / "marking.tsv").read_bytes()
    # Every pass writes the marking file back, as the CLI does by default,
    # so the save path is timed on every workload.
    cfg = RunConfig(
        vendors_dir=vendors_dir,
        queries_dir=queries_dir,
        marking_path=work_dir / "marking.tsv",
        taxonomy_path=DATA / "taxonomy.tsv",
        output_format="json",
    )
    vendors = sorted(vendors_dir.glob("*.txt"))
    queries = sorted(queries_dir.glob("*.txt"))
    shape = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "vendors": len(vendors),
        "queries": len(queries),
        "documents": len(vendors) + len(queries),
        "words": sum(len(p.read_text(encoding="utf-8").split()) for p in vendors + queries),
        "gazetteer_rows_before": seed_marking.count(b"\n"),
    }
    return Bench(cfg=cfg, seed_marking=seed_marking, golden=golden, shape=shape)


@dataclass
class Pass:
    scaled_s: float
    wall_s: float
    tracer: object = None  # tracing.Tracer of a traced pass


def checked_pass(bench: Bench, tally: Tally, tracer=None) -> Pass | None:
    """Run one pass from a fresh seed marking file and check its output.

    The timed region is ``run`` plus the JSON emit. Returns None if the pass
    raised; a pass that raised or gave wrong output counts as failed.
    """
    from tracing import count_metrics
    from vendormatch import cli

    marking = bench.cfg.marking_path
    marking.write_bytes(bench.seed_marking)
    probe = SpeedProbe()
    try:
        with tracer.installed() if tracer else nullcontext(), probe.sampling():
            start = time.perf_counter()
            text = cli.emit_report(cli.run(bench.cfg), "json")
            wall = time.perf_counter() - start
    except Exception as exc:  # a failing pass is counted, not fatal
        tally.record([f"pass raised {exc!r}"])
        return None
    counts = count_metrics(tracer.layer_metrics()) if tracer else None
    tally.check(text, marking.read_bytes(), counts)
    return Pass(probe.scaled(wall), wall, tracer)


def _child(code: str, args: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return done.stdout


def fresh_process_pass(bench: Bench, tally: Tally) -> float | None:
    """Peak RSS in MB of a new interpreter running one pass, checked."""
    cfg = bench.cfg
    cfg.marking_path.write_bytes(bench.seed_marking)
    args = [str(cfg.vendors_dir), str(cfg.queries_dir), str(cfg.marking_path),
            str(cfg.taxonomy_path)]
    try:
        digest, peak_kib = _child(_PASS_CHILD, args).split()
    except (subprocess.SubprocessError, ValueError) as exc:
        tally.record([f"fresh-process pass failed: {exc!r}"])
        return None
    expected = hashlib.sha256(tally.report.encode("utf-8")).hexdigest()
    tally.record(
        [] if digest == expected else ["fresh-process report differs from the in-process one"]
    )
    return int(peak_kib) / 1024


def setup_seconds(bench: Bench) -> list[float]:
    """Scaled times for new interpreters to import and load the inputs."""
    args = [str(DATA / "marking.tsv"), str(bench.cfg.taxonomy_path)]
    return [float(_child(_SETUP_CHILD, args)) for _ in range(SETUP_SAMPLES)]


def timed_passes(
    bench: Bench, tally: Tally, seconds: float, traced: bool
) -> tuple[list[Pass], list[Pass]]:
    """Closed loop for ``seconds``: untraced passes, or untraced/traced pairs."""
    from tracing import Tracer

    plain: list[Pass] = []
    traced_passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(plain) < MIN_PASSES:
        done = checked_pass(bench, tally)
        if done is not None:
            plain.append(done)
        if traced:
            done = checked_pass(bench, tally, Tracer())
            if done is not None:
                traced_passes.append(done)
    return plain, traced_passes


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = quantiles(values, n=4)
    return f"n={len(values)} median={q2:.4g} q1={q1:.4g} q3={q3:.4g} max={max(values):.4g}"


def end_to_end(bench: Bench, tally: Tally, seconds: float):
    peak_mb = fresh_process_pass(bench, tally)
    setup = setup_seconds(bench)
    plain, _ = timed_passes(bench, tally, seconds, traced=False)
    scaled = [p.scaled_s for p in plain]
    run_s = median(scaled)
    metrics = {
        "run_s": (run_s, "s", f"scaled passes: {describe(scaled)}; raw wall: "
                  f"{describe([p.wall_s for p in plain])}"),
        "docs_per_s": (bench.shape["documents"] / run_s, "docs/s",
                       f"{bench.shape['documents']} documents / run_s"),
        "setup_s": (median(setup), "s", f"fresh interpreters: {describe(setup)}"),
    }
    if peak_mb is not None:
        metrics["peak_rss_mb"] = (peak_mb, "MB", "fresh interpreter, one pass")
    bench.shape["gazetteer_rows_after"] = tally.marking.count(b"\n")
    return metrics


def per_layer(bench: Bench, tally: Tally, seconds: float, trace_file: Path):
    from tracing import unit

    plain, traced = timed_passes(bench, tally, seconds, traced=True)
    per_pass = []
    for done in traced:
        # Layer times get the same speed scaling as their pass.
        factor = done.scaled_s / done.wall_s
        per_pass.append({
            name: value * factor if unit(name) == "s" else value
            for name, value in done.tracer.layer_metrics().items()
        })
    metrics = {
        name: (median(p[name] for p in per_pass), unit(name), "") for name in per_pass[0]
    }
    traced_s = [p.scaled_s for p in traced]
    plain_s = [p.scaled_s for p in plain]
    metrics["trace_overhead_frac"] = (
        median(traced_s) / median(plain_s) - 1, "ratio",
        f"traced {describe(traced_s)} vs untraced {describe(plain_s)}",
    )
    bench.shape["pairs_distinct_frac"] = metrics["taxonomy.pairs_distinct_frac"][0]
    bench.shape["gazetteer_rows_after"] = (
        bench.shape["gazetteer_rows_before"] + metrics["marking.entries_added"][0]
    )
    TRACE_DIR.mkdir(exist_ok=True)
    with open(trace_file, "w", encoding="utf-8") as fh:
        for pass_id, done in enumerate(traced):
            for record in done.tracer.span_records(pass_id):
                fh.write(json.dumps(record) + "\n")
    return metrics


def measure(workload, seed: int, seconds: float, traced: bool, work_dir: Path) -> dict:
    """Run one benchmark run and return the result line's object."""
    bench = prepare(workload, seed, work_dir)
    tally = Tally(bench.golden)
    checked_pass(bench, tally)  # warm-up: fills lazy state, sets the reference
    if tally.report is None:
        raise RuntimeError(f"the first pass failed: {tally.problems}")
    if traced:
        trace_file = TRACE_DIR / f"trace-{workload.name}-seed{seed}.jsonl"
        metrics = per_layer(bench, tally, seconds, trace_file)
    else:
        metrics = end_to_end(bench, tally, seconds)

    report = tally.report.encode("utf-8")
    bench.shape["report_sha256"] = hashlib.sha256(report).hexdigest()
    bench.shape["report_bytes"] = len(report)
    print("shape " + json.dumps(bench.shape, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"{name:34} {value:12.6g} {unit:7} {note}".rstrip())
    if traced:
        print(f"spans written to {os.path.relpath(trace_file, ROOT)}")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} passes)")
    for problem in sorted(set(tally.problems)):
        print(f"problem: {problem}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    needed = [SRC / "vendormatch" / "__init__.py", DATA / "marking.tsv",
              DATA / "taxonomy.tsv", DATA / "vendors", DATA / "queries", GOLDEN]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"benchmark: not a vendormatch checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vendormatch

    if not Path(vendormatch.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"benchmark: imported {vendormatch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        result = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), Path(tmp)
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
