"""Benchmark of the malguard CLI chain: building, evaluating and serving a defense.

    python3 perfbench/run.py --workload {build,evaluate,serve} --seed N \\
        --seconds S --trace {0,1}

A run sets up a run directory from ``--seed`` (see ``world.py``), repeats
its workload's round, one closed loop in this process, until ``--seconds``
have passed, serves the resulting defense, checks the outputs against
references computed apart from the program (see ``checks.py``) and prints
one JSON line: ``correct``, ``attempted``, ``failed`` and the metrics.
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracer.py``). README.md describes the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import world  # fixes the BLAS thread count before numpy is imported

import checks as ref_checks
import tracer as tracing

RUNS = world.ROOT / ".perfbench-runs"
# Set-ups per run; setup_s is their median. evaluate and serve train encoders
# during set-up, and repeating that would overrun the time the runs may take.
SETUP_REPS = {"build": 3, "evaluate": 1, "serve": 1}
DETECT_PASSES = 2
BATCH_PASSES = 5
SERVE_BLOCKS = ("calib.jsonl", "test.jsonl", world.FINALS_FILE)
PROBE_BLOCKS = ("calib.jsonl",)
MB = 1 << 20
UNITS = {"detect_p50_ms": "ms", "detect_p99_ms": "ms", "peak_rss_mb": "MB",
         "artifact_mb": "MB", "batch_rows_per_s": "rows/s", "defend_rows_per_s": "rows/s"}


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return {"_s": "s", "mb": "MB"}.get(metric[-2:], "count")


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def file_stamps(run: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in run.iterdir()}


def written_mb(before: dict, after: dict) -> float:
    return sum(size for name, (size, stamp) in after.items()
               if before.get(name) != (size, stamp)) / MB


def set_up(workload: str, seed: int, run: Path, traced: bool) -> float:
    """Build the run directory; return the median set-up wall time.

    Untraced, each set-up runs in a fresh process, so that this process's
    peak memory is that of the timed phase. Traced, one set-up runs here, so
    that the tracer sees its layers.
    """
    times = []
    for _ in range(1 if traced else SETUP_REPS[workload]):
        shutil.rmtree(run, ignore_errors=True)
        start = time.perf_counter()
        if traced:
            world.prepare(workload, seed, run)
        else:
            proc = subprocess.run(
                [sys.executable, world.__file__, workload, str(seed), str(run)],
                capture_output=True, text=True, timeout=170,
            )
            if proc.returncode != 0:
                raise world.VerbFailed(proc.stderr.strip()[-600:])
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Server:
    """The defense of one run directory, served through all three paths."""

    def __init__(self, run: Path, seed: int, block_files, vectors_file: str):
        from malguard import data, detectors, pipeline

        self.run, self.seed = run, seed
        self.block_files, self.vectors_file = block_files, vectors_file
        self.space = data.load_feature_space(run / "space.txt")
        self.detector, _ = detectors.load_model(run / "detector.zip")
        self.bundle = pipeline.load_bundle(run / "defense.zip")
        self.blocks = [data.read_dataset(run / name, self.space) for name in block_files]
        self.rows = sum(len(b) for b in self.blocks)
        self.latencies_ns: list[list[int]] = []  # one list per detect pass
        self.batch_rates: list[float] = []
        self.defend_rates: list[float] = []
        self.results: list[tuple[list, list]] = []  # (detect, batch) per batch pass

    def serve(self) -> int:
        """Serve every row through each path; return the operations attempted."""
        from malguard import data, pipeline

        bundle, detector = self.bundle, self.detector
        clock = time.perf_counter_ns
        for _ in range(DETECT_PASSES):
            detect, latencies = [], []
            for block in self.blocks:
                for sample in block.samples:
                    start = clock()
                    label, audit = pipeline.detect(bundle, detector, sample.vector)
                    latencies.append(clock() - start)
                    detect.append((label, audit.revisited, audit.score))
            self.latencies_ns.append(latencies)
        for _ in range(BATCH_PASSES):
            # A fresh dataset per pass, as a caller with a new batch has.
            fresh = [data.Dataset(self.space, b.samples) for b in self.blocks]
            start = time.perf_counter()
            audits = [a for block in fresh for a in pipeline.defended_run(bundle, detector, block)]
            self.batch_rates.append(self.rows / (time.perf_counter() - start))
            self.results.append(
                (detect, [(a.final_label, a.revisited, a.score) for a in audits]))
        start = time.perf_counter()
        world.run_verbs(self.run, self.seed,
                        [("defend", "--vectors", str(self.run / self.vectors_file))])
        self.defend_rates.append(self.rows / (time.perf_counter() - start))
        return (DETECT_PASSES + BATCH_PASSES) * self.rows + 1

    def metrics(self) -> dict[str, float]:
        # The tail is taken over each row's fastest call: stalls of a shared
        # machine come in bursts that hit one pass of a row, not every pass,
        # while a row that is slow every time still shows.
        fastest = sorted(map(min, zip(*self.latencies_ns)))
        return {
            "detect_p50_ms": statistics.median(itertools.chain(*self.latencies_ns)) / 1e6,
            "detect_p99_ms": fastest[int(0.99 * len(fastest))] / 1e6,
            "batch_rows_per_s": statistics.median(self.batch_rates),
            "defend_rows_per_s": statistics.median(self.defend_rates),
        }

    def check(self, checks: ref_checks.Checks) -> None:
        first = self.results[0]
        checks.expect(all(r == first for r in self.results),
                      "serving the same rows again gave other results")
        rows = [r for name in self.block_files for r in ref_checks.read_records(self.run / name)]
        ref_checks.check_serve(self.run, checks, rows, *first,
                               self.run / "defend-results.jsonl")


def timed_rounds(workload: str, seed: int, run: Path, seconds: float, server):
    """Repeat whole rounds until *seconds* pass; per-round figures and operations."""
    walls, cpus, written = [], [], []
    attempted = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        before = file_stamps(run)
        round_start, cpu_start = time.perf_counter(), cpu_seconds()
        if workload == "serve":
            attempted += server.serve()
        else:
            world.run_verbs(run, seed, world.TIMED_VERBS[workload])
            attempted += len(world.TIMED_VERBS[workload])
        walls.append(time.perf_counter() - round_start)
        cpus.append(cpu_seconds() - cpu_start)
        written.append(written_mb(before, file_stamps(run)))
    return walls, cpus, written, attempted


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    world.import_malguard()
    run = RUNS / workload
    tracer = tracing.Tracer()
    if trace:
        tracer.install()
    try:
        setup_s = set_up(workload, seed, run, trace)
        server = None
        if workload == "serve":
            start = time.perf_counter()
            server = Server(run, seed, SERVE_BLOCKS, world.STREAM_FILE)
            setup_s += time.perf_counter() - start
        setup_layers = {k: tracer.metrics()[k] for k in tracing.SETUP_METRICS}
        tracer.reset()
        walls, cpus, written, attempted = timed_rounds(workload, seed, run, seconds, server)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Per round, like wall_s; set-up metrics once.
        layers = {k: v / len(walls) for k, v in tracer.metrics().items()} | setup_layers
    finally:
        tracer.uninstall()
    if server is None:
        # build and evaluate then serve their defense once, untimed and
        # untraced, so that they report the serving metrics too.
        server = Server(run, seed, PROBE_BLOCKS, "calib.jsonl")
        attempted += server.serve()

    checks = ref_checks.Checks()
    ref_checks.check_manifest(run, checks)
    if workload == "build":
        ref_checks.check_build(run, checks)
    if workload == "evaluate":
        ref_checks.check_evaluate(run, checks)
    server.check(checks)
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"perfbench {workload} seed {seed}: {len(walls)} round(s) of"
          f" {', '.join(f'{w:.2f}' for w in walls)} s; {server.rows} rows served"
          f" per pass; {checks.notes}")

    if trace:
        metrics = layers | {"pipeline.verdict_mismatches": checks.notes["verdict_mismatches"],
                            "trace.wall_s": statistics.median(walls)}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
            "artifact_mb": statistics.median(written),
            **server.metrics(),
        }
    if not checks.failures:
        shutil.rmtree(run, ignore_errors=True)
    return {"correct": not checks.failures, "attempted": attempted, "failed": 0,
            "metrics": {name: {"value": value, "unit": unit(name)}
                        for name, value in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "evaluate", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except world.VerbFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
