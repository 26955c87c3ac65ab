"""The benchmark's three workloads: job lists built from a seed, and checks.

A job is what a user waits for: one library call or a short chain of calls
(``corpus``, ``large_sets``) or one in-process CLI invocation (``cli``).
Every call goes through a module attribute at call time, so the tracer's
wrappers see it.  Checks run outside the timed job; the costly ones (those
that recompute the job) run only in the first round, because later rounds
repeat the same inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import sobtrace as sb
import sobtrace.cli
from sobtrace.corpus import SPANS, random_sampled_function

import checks

BACKENDS = ("hermite", "natural2")


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    #: check(result, first_round); records problems, returns nothing
    check: Callable[[object, bool], None]
    #: whether the first round also runs the costly reference checks
    sampled: bool = False


@dataclass
class Workload:
    jobs: list[Job]
    #: index of the job run once during set-up to fill lazy caches
    warm_up: int
    #: called after each whole round (cross-job checks)
    after_round: Callable[[], None] = lambda: None


# ------------------------------------------------------------------- corpus

CORPUS_QUAD_TOL = 1e-9
CORPUS_WMF_GRID_H = 0.25


def corpus(seed: int, workdir: Path, problems: checks.Problems) -> Workload:
    """The calibration pipeline on small sets.

    Each (m, p, span) cell of the calibration corpus (m in {1,2,3},
    p in {1.5,2,3}, span in {2,10,50}) gets the sizes 12, 10, ... down to
    m+1 or m+2, drawn with the calibration corpus's generator; only points
    and values depend on the seed.  ``calibration_corpus`` itself draws sizes
    at random, and since variational enumeration costs 2^n that moved a
    run's cost by more than 10 % from seed to seed.  Every other size keeps
    a round short, so that each job runs several times in a run.
    """
    rng = np.random.default_rng(seed)
    jobs = []
    warm_up = 0
    for m in (1, 2, 3):
        for p in (1.5, 2.0, 3.0):
            for span in SPANS:
                for size in range(12, m, -2):
                    s = random_sampled_function(rng, size, span)
                    sampled = size == 10 and span == 10.0
                    if (m, p, span, size) == (2, 1.5, 10.0, 8):
                        warm_up = len(jobs)
                    jobs.append(
                        Job(
                            f"corpus/m{m}/p{p:g}",
                            _corpus_run(s, m, p),
                            _corpus_check(s, m, p, sampled, problems),
                            sampled,
                        )
                    )
    return Workload(jobs, warm_up)


def _corpus_run(s, m, p):
    def run():
        seq = sb.sequence_functional(s, m, p).value
        var = sb.variational_functional(s, m, p).value
        ext = {}
        for backend in BACKENDS:
            cfg = sb.ExtensionConfig(m=m, p=p, backend=backend, quad_tol=CORPUS_QUAD_TOL)
            F = sb.extend(s, cfg)
            ext[backend] = (F, sb.sobolev_norm(F, m, p, CORPUS_QUAD_TOL))
        wmf = sb.wmf_functional(s, m, p, sb.GridSpec(CORPUS_WMF_GRID_H)).value
        return seq, var, ext, wmf

    return run


def _corpus_check(s, m, p, sampled, problems):
    tag = f"corpus n={len(s)} m={m} p={p:g}"
    factor = 2.0 * ((m + 1) * (2 * m + 1)) ** (1.0 / p)

    def check(result, first_round):
        seq, var, ext, wmf = result
        problems.require(seq <= var * (1 + 1e-12), f"{tag}: sequence {seq!r} > variational {var!r}")
        problems.require(math.isfinite(wmf) and wmf > 0, f"{tag}: wmf {wmf!r}")
        for backend, (F, norms) in ext.items():
            problems.require(
                var <= factor * norms.w_norm * (1 + 1e-12),
                f"{tag} {backend}: necessity N={var!r} > {factor:.6g} * W={norms.w_norm!r}",
            )
            checks.check_extension(problems, f"{tag} {backend}", F, s.points, s.values, m)
            if sampled and first_round:
                for k, (got, ref) in enumerate(zip(norms.lp_norms, checks.quad_lp_norms(F, m, p))):
                    problems.require(
                        checks.close(got, ref, 1e-7),
                        f"{tag} {backend}: ||F^({k})||_p {got!r} != quad {ref!r}",
                    )
        if sampled and first_round:
            ref = checks.brute_variational(s.points, s.values, m, p)
            problems.require(checks.close(var, ref, 1e-9), f"{tag}: variational {var!r} != brute force {ref!r}")

    return check


# --------------------------------------------------------------- large_sets

#: Seed of the inputs that do not depend on the benchmark seed: the sets
#: reaching beyond |x| = 16384, where natural2 fails at even m.
FIXED_SEED = 20260809
DENSE_PER_GAP = 4


def _uniform(rng, n: int):
    """n uniform points over [-n/2, n/2] (mean gap 1), normal values."""
    return random_sampled_function(rng, n, float(n)).shifted(-n / 2.0)


def _clustered(rng, clusters: int, per_cluster: int, gaps):
    """Clusters of ``per_cluster`` uniform points, 20 wide, separated by
    ``gaps`` (in order), centred on 0."""
    pts = []
    start = 0.0
    for c in range(clusters):
        cluster = random_sampled_function(rng, per_cluster, 20.0)
        pts.extend(start + x for x in cluster.points)
        if c < clusters - 1:
            start = pts[-1] + gaps[c]
    centre = 0.5 * (pts[0] + pts[-1])
    return sb.SampledFunction(tuple(x - centre for x in pts), tuple(rng.standard_normal(len(pts))))


def large_set_inputs(seed: int):
    """(label, samples, orders m) for every set of the workload."""
    rng = np.random.default_rng(seed)
    fixed = np.random.default_rng(FIXED_SEED)
    gaps = rng.permutation([1e3, 1e4]) * rng.uniform(0.9, 1.1, 2)
    return [
        ("uniform500", _uniform(rng, 500), (1, 3)),
        ("uniform1000", _uniform(rng, 1000), (2,)),
        ("uniform2000", _uniform(rng, 2000), (1,)),
        ("clustered", _clustered(rng, 3, 40, gaps), (2,)),
        # fixed inputs: an edge lies beyond |x| = 16384
        ("wide1e5", _clustered(fixed, 2, 20, [1e5]), (1,)),
        ("uniform300+1e6", _uniform(fixed, 300).shifted(1e6), (2, 3)),
        ("clustered-3e5", _clustered(fixed, 3, 30, [1e3, 3e3]).shifted(-3e5), (2,)),
    ]


def _dense_grid(s) -> np.ndarray:
    x = np.asarray(s.points)
    steps = np.arange(DENSE_PER_GAP) / DENSE_PER_GAP
    inner = x[:-1, None] + np.diff(x)[:, None] * steps
    return np.concatenate([inner.ravel(), x[-1:]])


def large_sets(seed: int, workdir: Path, problems: checks.Problems) -> Workload:
    """Extensions, norms and dense evaluation on sets of 500-2000 points and
    on clustered sets with gaps of 1e3-1e5."""
    jobs = []
    energies: dict[tuple[str, int], dict[str, float]] = {}
    for label, s, orders in large_set_inputs(seed):
        grid = _dense_grid(s)
        for m in orders:
            for backend in BACKENDS:
                jobs.append(
                    Job(
                        f"large/{backend}/m{m}",
                        _extension_run(s, m, backend, grid),
                        _extension_check(s, m, backend, grid, f"{label} m={m} {backend}", problems,
                                         energies.setdefault((label, m), {})),
                    )
                )
            jobs.append(
                Job(
                    f"large/functionals/m{m}",
                    _functionals_run(s, m),
                    _functionals_check(s, m, f"{label} m={m}", problems, energies[(label, m)]),
                )
            )

    def after_round():
        for (label, m), found in energies.items():
            natural = found.pop("natural", None)
            for backend, energy in found.items():
                problems.require(
                    natural is None or natural <= energy * (1 + 1e-9) + 1e-12,
                    f"{label} m={m}: minimal energy {natural!r} > {backend} energy {energy!r}",
                )
            found.clear()

    return Workload(jobs, 0, after_round)


def _extension_run(s, m, backend, grid):
    def run():
        F = sb.extend(s, sb.ExtensionConfig(m=m, backend=backend))
        norms = sb.sobolev_norm(F, m, 2.0)
        sup = sb.lp_norm(F, math.inf)
        dense = [F(grid)]
        G = F
        for _ in range(m):
            G = G.differentiate()
            dense.append(G(grid))
        return F, norms, sup, dense

    return run


def _extension_check(s, m, backend, grid, tag, problems, energies):
    def check(result, first_round):
        F, norms, sup, dense = result
        checks.check_extension(problems, tag, F, s.points, s.values, m)
        for k, (got, ref) in enumerate(zip(norms.lp_norms, checks.exact_l2_norms(F, m))):
            problems.require(checks.close(got, ref, 1e-9), f"{tag}: ||F^({k})||_2 {got!r} != exact {ref!r}")
        grid_max = np.abs(dense[0]).max()
        problems.require(sup >= grid_max * (1 - 1e-12), f"{tag}: sup norm {sup!r} < grid max {grid_max!r}")
        data_max = max(abs(v) for v in s.values)
        problems.require(
            sup >= data_max - 1e-9 * (1.0 + data_max), f"{tag}: sup norm {sup!r} < max |f| {data_max!r}"
        )
        for k, values in enumerate(dense):
            ref = checks.evaluate(F, grid, k)
            err = np.abs(values - ref).max()
            problems.require(
                err <= 1e-9 * (1.0 + np.abs(ref).max()),
                f"{tag}: dense F^({k}) differs from per-piece polyval by {err:.3e}",
            )
        energies[backend] = norms.lp_norms[m] ** 2

    return check


def _functionals_run(s, m):
    def run():
        seq = sb.sequence_functional(s, m, 2.0).value
        hom = sb.homogeneous_sequence_functional(s, m, 2.0).value
        _, energy = sb.natural_spline_min_energy(s, m)
        return seq, hom, energy

    return run


def _functionals_check(s, m, tag, problems, energies):
    def check(result, first_round):
        seq, hom, energy = result
        problems.require(
            all(math.isfinite(v) and v > 0 for v in (seq, hom, energy)),
            f"{tag}: functionals {seq!r}, {hom!r}, energy {energy!r}",
        )
        energies["natural"] = energy

    return check


# ---------------------------------------------------------------------- cli

COMPARE_RUNS = ((1, "1.5", 101), (2, "2", 202))
#: Profile grid spacing of check and maximal.  The default, 0.02 times the
#: smallest sample gap, makes the cost of a job follow the closest pair of
#: random points rather than the set.
GRID_H = "0.05"


def _write_input(path: Path, s) -> str:
    if path.suffix == ".json":
        path.write_text(json.dumps({"points": list(s.points), "values": list(s.values)}), encoding="utf-8")
    else:
        rows = "".join(f"{x!r},{v!r}\n" for x, v in zip(s.points, s.values))
        path.write_text("x,f\n" + rows, encoding="utf-8")
    return str(path)


def cli(seed: int, workdir: Path, problems: checks.Problems) -> Workload:
    """In-process ``sobtrace.cli.main`` calls on JSON and CSV files."""
    rng = np.random.default_rng(seed)
    inputs = workdir / "inputs"
    outputs = workdir / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    jobs = []

    def add(name, args, samples, checker):
        out = outputs / f"{len(jobs):03d}{'.csv' if name in ('maximal', 'compare') else '.json'}"
        argv = [*args, "--out", str(out)]
        tag = "cli " + " ".join(Path(a).name if "/" in a else a for a in args)
        jobs.append(Job(f"cli/{name}", _cli_run(argv, tag, problems), _cli_check(tag, argv, out, samples, checker, problems)))

    # four 12-point sets at m = 2 put the median job inside one class of
    # similar jobs, rather than in a gap between two
    check_inputs = (
        ("check16.json", 16, 1), ("check12a.json", 12, 2), ("check12b.csv", 12, 2),
        ("check12c.json", 12, 2), ("check12d.csv", 12, 2), ("check13.csv", 13, 3),
    )
    for name, size, m in check_inputs:
        s = random_sampled_function(rng, size, 10.0)
        path = _write_input(inputs / name, s)
        for p in ("1.5", "2", "3", "inf"):
            add("check", ["--command", "check", "--input", path, "--m", str(m), "--p", p,
                          "--grid-h", GRID_H], s, _check_report)
    for size, suffix, m in ((200, ".json", 2), (300, ".csv", 1)):
        s = random_sampled_function(rng, size, float(size))
        path = _write_input(inputs / f"extend{size}{suffix}", s)
        for backend in BACKENDS:
            for p in ("1.5", "3"):
                if (size, backend, p) == (300, "hermite", "3"):
                    warm_up = len(jobs)  # a short job that fills the caches
                add("extend", ["--command", "extend", "--input", path, "--m", str(m), "--p", p,
                               "--backend", backend], s, _check_extend)
    s = random_sampled_function(rng, 12, 10.0)
    path = _write_input(inputs / "maximal12.csv", s)
    for m, p in ((1, "2"), (2, "1.5"), (3, "3")):
        add("maximal", ["--command", "maximal", "--input", path, "--m", str(m), "--p", p,
                        "--grid-h", GRID_H], s, _check_maximal)
    for m, p, compare_seed in COMPARE_RUNS:
        add("compare", ["--command", "compare", "--m", str(m), "--p", p, "--seed", str(compare_seed)],
            None, _check_compare)
    return Workload(jobs, warm_up)


def _cli_run(argv, tag, problems):
    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = sobtrace.cli.main(argv)
        if code != 0:
            problems.require(False, f"{tag}: exit {code}: {stderr.getvalue().strip()}")
            raise CliFailure(tag)
        return stdout.getvalue()

    return run


class CliFailure(Exception):
    """A CLI job exited with a non-zero code."""


def _files(out: Path) -> list[Path]:
    companion = out.with_suffix(".csv") if out.suffix == ".json" else None
    return [out] + ([companion] if companion is not None and companion.exists() else [])


def _cli_check(tag, argv, out, samples, checker, problems):
    """Full check in the first round; later rounds must write identical bytes."""
    digest = {}

    def check(stdout, first_round):
        data = b"".join(f.read_bytes() for f in _files(out)) + stdout.encode()
        h = hashlib.sha256(data).hexdigest()
        if first_round:
            digest["h"] = h
            option = dict(zip(argv[::2], argv[1::2]))
            checker(problems, tag, option, out, samples, stdout)
        else:
            problems.require(h == digest.get("h"), f"{tag}: output differs from the first round")

    return check


def _parse_p(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def _check_report(problems, tag, option, out, s, stdout):
    report = json.loads(out.read_text(encoding="utf-8"))
    m, p = int(option["--m"]), _parse_p(option["--p"])
    expected = {
        "sequence": sb.sequence_functional(s, m, p),
        "variational": sb.variational_functional(s, m, p),
        "homogeneous_sequence": sb.homogeneous_sequence_functional(s, m, p),
        "homogeneous_variational": sb.homogeneous_variational_functional(s, m, p),
    }
    if p != math.inf:
        expected["sharp_maximal"] = sb.wmf_functional(s, m, p, sb.GridSpec(float(option["--grid-h"])))
    got = report["functionals"]
    problems.require(set(got) == set(expected), f"{tag}: functionals {sorted(got)} != {sorted(expected)}")
    for key, ref in expected.items():
        value = got.get(key, {}).get("value")
        problems.require(value == ref.value, f"{tag}: {key} {value!r} != library {ref.value!r}")


def _check_extend(problems, tag, option, out, s, stdout):
    payload = json.loads(out.read_text(encoding="utf-8"))
    F = sb.PiecewisePolynomial.from_dict(payload)
    spline = {key: payload[key] for key in ("breakpoints", "pieces", "left_tail", "right_tail")}
    problems.require(F.to_dict() == spline, f"{tag}: JSON does not round-trip through from_dict")
    m = int(option["--m"])
    checks.check_extension(problems, tag, F, s.points, s.values, m)
    with out.with_suffix(".csv").open(encoding="utf-8") as fh:
        table = np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
    for k in range(m + 1):
        ref = checks.evaluate(F, table[:, 0], k)
        err = np.abs(table[:, k + 1] - ref).max()
        problems.require(err <= 1e-12 * (1.0 + np.abs(ref).max()), f"{tag}: CSV d{k}F differs by {err:.3e}")


def _check_maximal(problems, tag, option, out, s, stdout):
    with out.open(encoding="utf-8") as fh:
        table = np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
    problems.require(bool((table[:, 1:] >= 0).all()), f"{tag}: negative sharp profile")
    key, _, value = stdout.strip().partition(",")
    wmf = float(value) if key == "wmf" else math.nan
    problems.require(math.isfinite(wmf) and wmf > 0, f"{tag}: printed wmf {stdout.strip()!r}")


def _check_compare(problems, tag, option, out, s, stdout):
    with out.open(encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    instances = [r for r in rows if r["index"].isdigit()]
    problems.require(len(instances) > 0, f"{tag}: no instance rows")
    for r in instances:
        problems.require(
            r["necessity_hermite"] == "pass" and r["necessity_natural2"] == "pass",
            f"{tag}: row {r['index']} necessity {r['necessity_hermite']}/{r['necessity_natural2']}",
        )
    for r in rows:
        problems.require(float(r["tilde_over_var"]) <= 1.0 + 1e-12, f"{tag}: row {r['index']} tilde_over_var > 1")


WORKLOADS = {"corpus": corpus, "large_sets": large_sets, "cli": cli}
