"""sobtrace benchmark: end-to-end job metrics and a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload large_sets --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` the run does one untraced and one
traced round of the job list, prints the per-layer table and the tracing
overhead, writes every span to ``perfbench/out/`` and reports the per-layer
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported (here or in a child).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
#: Scratch space of this process (input and output files of the cli jobs).
RUN_DIR = HERE / "work" / str(os.getpid())

#: A run times whole rounds of its job list, at least this many jobs, so
#: that ten jobs lie beyond the 90th percentile.
MIN_JOBS = 100
#: Set-ups timed per run (this process plus fresh child processes).
SETUPS = 5
#: No further round starts after this much wall time.
WALL_LIMIT_S = 120.0


def _setup(workload: str, seed: int, workdir: Path):
    """Import sobtrace, build the inputs, write input files, run the warm-up
    job.  Returns (workload, problems, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    problems = checks.Problems()
    wl = workloads.WORKLOADS[workload](seed, workdir, problems)
    wl.jobs[wl.warm_up].run()
    return wl, problems, time.perf_counter() - start


def _setup_probe(workload: str, seed: int, index: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    workdir = RUN_DIR / f"probe{index}"
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
           "--setup-probe", str(workdir)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def _failure_types():
    import sobtrace
    import workloads

    return (sobtrace.SobtraceError, workloads.CliFailure)


class Rounds:
    """Outcome of running whole rounds of a job list."""

    def __init__(self):
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def jobs_per_s(self) -> float:
        return self.completed / self.busy


def run_rounds(wl, seconds: float, rounds: int | None = None, tracer=None, between=None) -> Rounds:
    """Run whole rounds until at least MIN_JOBS jobs ran and about ``seconds``
    of job time passed (or exactly ``rounds`` rounds).  Only the jobs are
    timed; each job's output is checked right after it, untimed.
    ``between(rounds_done)`` runs after every round, untimed."""
    failures = _failure_types()
    out = Rounds()
    wall_start = time.perf_counter()
    while True:
        first = out.rounds == 0
        for job in wl.jobs:
            job_id = out.attempted
            out.attempted += 1
            start = time.perf_counter()
            try:
                result = job.run() if tracer is None else tracer.run_job(job_id, job.name, job.run)
            except failures:
                out.busy += time.perf_counter() - start
                out.failed += 1
                continue
            elapsed = time.perf_counter() - start
            out.busy += elapsed
            out.latencies.append(elapsed)
            job.check(result, first)
            del result
        wl.after_round()
        out.rounds += 1
        if between is not None:
            between(out.rounds)
        if rounds is not None:
            if out.rounds >= rounds:
                return out
            continue
        enough = out.attempted >= MIN_JOBS and out.busy + 0.5 * out.busy / out.rounds >= seconds
        if enough or time.perf_counter() - wall_start > WALL_LIMIT_S:
            return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _finish(problems, attempted: int, failed: int, metrics: dict, path: Path) -> int:
    for message in problems.messages[:20]:
        print("CHECK FAILED:", message, file=sys.stderr)
    result = {
        "correct": not problems.messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    path.write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


def measure(workload: str, seed: int, seconds: float) -> int:
    wl, problems, own = _setup(workload, seed, RUN_DIR)
    setups = [own]

    def probe(rounds_done):
        # spread the set-up probes over the run, between rounds
        if len(setups) < SETUPS:
            setups.append(_setup_probe(workload, seed, rounds_done))

    done = run_rounds(wl, seconds, between=probe)
    while len(setups) < SETUPS:
        setups.append(_setup_probe(workload, seed, len(setups) + done.rounds))
    quantiles = statistics.quantiles(done.latencies, n=10)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "jobs_per_s": _metric(done.jobs_per_s(), "1/s"),
        "job_p50_ms": _metric(1e3 * statistics.median(done.latencies), "ms"),
        "job_p90_ms": _metric(1e3 * quantiles[8], "ms"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }
    print(
        f"{workload} seed={seed}: {done.rounds} rounds of {len(wl.jobs)} jobs, {done.attempted} jobs "
        f"({done.failed} failed), {done.busy:.2f} s timed; set-ups "
        + ", ".join(f"{t:.3f}" for t in setups) + " s"
    )
    return _finish(problems, done.attempted, done.failed, metrics, OUT / f"{workload}-{seed}-e2e.json")


def trace(workload: str, seed: int) -> int:
    import tracing

    wl, problems, _ = _setup(workload, seed, RUN_DIR)
    plain = run_rounds(wl, 0.0, rounds=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_rounds(wl, 0.0, rounds=1, tracer=tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    overhead = {
        "untraced_jobs_per_s": plain.jobs_per_s(),
        "traced_jobs_per_s": traced.jobs_per_s(),
        "overhead_pct": 100.0 * (plain.jobs_per_s() / traced.jobs_per_s() - 1.0),
    }
    units = dict(tracing.LAYER_METRICS)
    print(f"{workload} seed={seed}: per-layer self time and counts over one traced round "
          f"of {traced.attempted} jobs")
    for name, value in layers.items():
        shown = f"{value:12.4f}" if units[name] == "s" else f"{value:12d}"
        print(f"  {name:28s} {shown} {units[name]}")
    print(
        f"tracing overhead: untraced {overhead['untraced_jobs_per_s']:.3f} jobs/s, "
        f"traced {overhead['traced_jobs_per_s']:.3f} jobs/s ({overhead['overhead_pct']:+.1f} %)"
    )
    tracer.write(
        OUT / f"{workload}-{seed}-spans.json",
        {"workload": workload, "seed": seed, "overhead": overhead, "layers": layers},
    )
    metrics = {name: _metric(value, units[name]) for name, value in layers.items()}
    return _finish(
        problems,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        metrics,
        OUT / f"{workload}-{seed}-trace.json",
    )


def smoke() -> int:
    """Every workload once, on a stride of its job list, with every check on."""
    import tracing

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    ok = names == list(tracing.LAYER_METRICS)
    if not ok:
        print("smoke: BENCHMARK.json per_layer differs from tracing.LAYER_METRICS", file=sys.stderr)
    for workload in ("corpus", "large_sets", "cli"):
        start = time.perf_counter()
        wl, problems, _ = _setup(workload, 1, RUN_DIR / workload)
        stride = max(1, len(wl.jobs) // 12)
        wl.jobs = [job for i, job in enumerate(wl.jobs) if i % stride == 0 or job.sampled]
        done = run_rounds(wl, 0.0, rounds=1)
        status = "ok" if not problems.messages else "FAILED"
        ok = ok and not problems.messages
        print(f"smoke {workload}: {done.attempted} jobs, {done.failed} failed, "
              f"{time.perf_counter() - start:.1f} s: {status}")
        for message in problems.messages[:20]:
            print("  CHECK FAILED:", message)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["corpus", "large_sets", "cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload briefly with all checks")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "sobtrace" / "__init__.py").is_file():
        print(f"error: {SRC / 'sobtrace'} not found; run from a sobtrace checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, _, seconds = _setup(args.workload, args.seed, Path(args.setup_probe))
        print(repr(seconds))
        return 0
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        if args.trace:
            return trace(args.workload, args.seed)
        return measure(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            RUN_DIR.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
