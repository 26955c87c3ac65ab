"""Acceptance suite: one test per release criterion, each printing a verdict.

The heavyweight corpus evaluation is shared module-wide; regenerating the
frozen calibration bands is done by tests/calibrate.py, never here.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sobtrace import (
    ExtensionConfig,
    SampledFunction,
    build_gap_lattice,
    extend,
    homogeneous_sequence_functional,
    lagrange_polynomial,
    natural_spline_min_energy,
    necessity_bound_factor,
    pad_small_set,
    sequence_functional,
    small_set_functional,
    sobolev_norm,
    support_pad,
    variational_functional,
)
from sobtrace.corpus import random_sampled_function
from calibrate import RATIO_NAMES, corpus_records, ratio_table
from oracles import divdiff_recursive, divdiff_sum, reduce_wide_difference

DATA = Path(__file__).parent / "data" / "calibration.json"
CALIBRATION = json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def corpus():
    records, timings = corpus_records()
    return {"records": records, "timings": timings}


def _relative(a, b):
    denom = max(abs(a), abs(b))
    return 0.0 if denom == 0.0 else abs(a - b) / denom


# --------------------------------------------------------------- criterion 1


def test_criterion_1_divided_difference_triple_agreement():
    rng = np.random.default_rng(101)
    spans = (1.0, 5.0, 20.0)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        size = int(rng.integers(2, 13))
        s = random_sampled_function(rng, size, spans[i % 3], min_gap=1e-3)
        a = divdiff_recursive(s.points, s.values)
        b = divdiff_sum(s.points, s.values)
        c = lagrange_polynomial(s).coefficients[0][-1]
        worst = max(worst, _relative(a, b), _relative(a, c), _relative(b, c))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 5.0
    print(f"criterion 1: PASS (max relative discrepancy {worst:.3e}, {elapsed:.2f}s)")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_annihilation_and_reproduction():
    rng = np.random.default_rng(102)
    worst_func = 0.0
    worst_ext = 0.0
    for m in (1, 2, 3, 4):
        for _ in range(40):
            coeffs = rng.standard_normal(m)  # degree < m
            size = int(rng.integers(m + 1, m + 6))
            while True:
                pts = np.sort(rng.uniform(0.0, 2.0 * size, size))
                gaps = np.diff(pts)
                if gaps.min() >= 0.3 and gaps.max() <= 4.0:
                    break
            vals = np.polynomial.polynomial.polyval(pts, coeffs)
            s = SampledFunction(tuple(pts), tuple(vals))
            scale = 1 + max(abs(v) for v in s.values)
            h = homogeneous_sequence_functional(s, m, 2.0).value
            worst_func = max(worst_func, h / (1e-10 * scale))
            assert h <= 1e-10 * scale
            F = extend(s, ExtensionConfig(m=m, backend="hermite"))
            xs = np.linspace(s.points[0], s.points[-1], 120)
            expected = np.polynomial.polynomial.polyval(xs, coeffs)
            rel = np.max(np.abs(F(xs) - expected)) / (1 + np.max(np.abs(expected)))
            worst_ext = max(worst_ext, rel)
            assert rel <= 1e-8
    print(
        f"criterion 2: PASS (functional residual <= {worst_func:.3f} of budget, "
        f"max reproduction error {worst_ext:.3e})"
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_3_explicit_necessity_bound(corpus):
    records = corpus["records"]
    violations = 0
    t_extra = time.perf_counter()
    for idx, rec in enumerate(records):
        inst = rec["instance"]
        factor = necessity_bound_factor(inst.m, inst.p)
        for backend in ("hermite", "natural2"):
            n_val = rec["variational"]
            w_val = rec["norms"][backend]
            if not n_val <= factor * w_val + 1e-12 * (1 + n_val):
                violations += 1
        if idx % 5 == 0:  # sup-norm variant on a fifth of the corpus
            s, m = inst.samples, inst.m
            n_inf = variational_functional(s, m, math.inf).value
            for backend in ("hermite", "natural2"):
                w_inf = sobolev_norm(rec["extensions"][backend], m, math.inf).w_norm
                if not n_inf <= w_inf + 1e-12 * (1 + n_inf):
                    violations += 1
    elapsed = corpus["timings"]["necessity"] + (time.perf_counter() - t_extra)
    assert violations == 0
    assert elapsed < 120.0
    print(
        f"criterion 3: PASS ({len(records)} instances x 2 backends, "
        f"0 violations, {elapsed:.1f}s)"
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_4_m1_p2_energy_oracle():
    rng = np.random.default_rng(104)
    worst = 0.0
    for i in range(200):
        size = int(rng.integers(2, 11))
        span = (2.0, 10.0, 50.0)[i % 3]
        s = random_sampled_function(rng, size, span)
        _, energy = natural_spline_min_energy(s, 1)
        h = homogeneous_sequence_functional(s, 1, 2.0).value
        worst = max(worst, _relative(energy, h * h))
        assert _relative(energy, h * h) <= 1e-10
    print(f"criterion 4: PASS (200 instances, max relative gap {worst:.3e})")


# --------------------------------------------------------------- criterion 5


def test_criterion_5_reduction_certificates():
    rng = np.random.default_rng(105)
    count = 0
    while count < 500:
        size = int(rng.integers(2, 11))
        span = float(rng.choice((1.5, 3.0, 8.0, 40.0)))
        s = random_sampled_function(rng, size, span)
        if s.span < 1.0:
            continue
        count += 1
        k, i, bound = reduce_wide_difference(s)
        pts = s.points
        n = len(pts) - 1
        assert 0 <= k <= n - 1
        assert 0 <= i <= n - k
        assert pts[i + k] - pts[i] <= 1.0
        side_right = i + k + 1 <= n and pts[i + k + 1] - pts[i] >= 1.0
        side_left = i >= 1 and pts[i + k] - pts[i - 1] >= 1.0
        assert side_right or side_left
        assert abs(divdiff_recursive(pts, s.values)) <= bound
    print("criterion 5: PASS (500 certificates, all post-conditions exact)")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_extension_contract(corpus):
    records = corpus["records"]
    rng = np.random.default_rng(106)
    worst_resid = 0.0
    worst_lin = 0.0
    for rec in records:
        inst = rec["instance"]
        s, m = inst.samples, inst.m
        scale = 1 + max(abs(v) for v in s.values)
        lo = s.points[0] - support_pad(m)
        hi = s.points[-1] + support_pad(m)
        for backend in ("hermite", "natural2"):
            F = rec["extensions"][backend]
            resid = max(abs(F(x) - v) for x, v in zip(s.points, s.values))
            worst_resid = max(worst_resid, resid / scale)
            assert resid <= 1e-9 * scale
            assert F.smoothness_order(1e-8) >= m - 1
            assert F.breakpoints[0] >= lo - 1e-9 and F.breakpoints[-1] <= hi + 1e-9
            for x in (lo - 0.5, hi + 0.5, lo - 25.0, hi + 25.0):
                assert F(x) == 0.0
    # linearity on a deterministic quarter of the corpus (two extra builds
    # per backend per instance keeps the runtime in check)
    for rec in records[::4]:
        inst = rec["instance"]
        s, m = inst.samples, inst.m
        g_vals = rng.standard_normal(len(s))
        alpha, beta = 1.25, -0.75
        combo_vals = tuple(alpha * a + beta * b for a, b in zip(s.values, g_vals))
        xs = np.linspace(s.points[0] - support_pad(m), s.points[-1] + support_pad(m), 200)
        for backend in ("hermite", "natural2"):
            cfg = ExtensionConfig(m=m, backend=backend)
            Fg = extend(SampledFunction(s.points, tuple(g_vals)), cfg)
            Fc = extend(SampledFunction(s.points, combo_vals), cfg)
            reference = alpha * rec["extensions"][backend](xs) + beta * Fg(xs)
            err = np.max(np.abs(Fc(xs) - reference)) / (1 + np.max(np.abs(reference)))
            worst_lin = max(worst_lin, err)
            assert err <= 1e-8
    print(
        f"criterion 6: PASS (interpolation <= {worst_resid:.2e} rel, "
        f"linearity <= {worst_lin:.2e} rel, smoothness and support on all instances)"
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_7_equivalence_bands(corpus):
    ratios = ratio_table(corpus["records"])
    recorded = CALIBRATION["ratios"]
    for name in RATIO_NAMES:
        values = ratios[name]
        assert all(math.isfinite(v) and v > 0 for v in values)
        lo, hi = min(values), max(values)
        assert _relative(lo, recorded[name]["min"]) <= 1e-6
        assert _relative(hi, recorded[name]["max"]) <= 1e-6
        for v in values:
            assert recorded[name]["min"] * (1 - 1e-6) <= v <= recorded[name]["max"] * (1 + 1e-6)
    assert max(ratios["tilde_over_var"]) <= 1.0 + 1e-12
    # recorded band for the m=2 minimal-energy against the top-order form
    band = CALIBRATION["energy_vs_top_order_m2"]
    for rec in corpus["records"][:90]:
        inst = rec["instance"]
        if inst.m != 2 or inst.p != 2.0:
            continue
        _, energy = natural_spline_min_energy(inst.samples, 2)
        h = homogeneous_sequence_functional(inst.samples, 2, 2.0).value
        ratio = math.sqrt(energy) / h
        assert band["min"] * (1 - 1e-6) <= ratio <= band["max"] * (1 + 1e-6)
    summary = ", ".join(
        f"{name} in [{min(ratios[name]):.3f}, {max(ratios[name]):.3f}]" for name in RATIO_NAMES
    )
    print(f"criterion 7: PASS (bands reproduced: {summary})")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_gap_lattice_fuzz():
    rng = np.random.default_rng(108)
    checked = 0
    guard = 1e-9
    while checked < 1000:
        m = int(rng.integers(1, 4))
        style = rng.random()
        size = int(rng.integers(1, 13))
        if style < 0.4:
            pts = np.sort(rng.uniform(0.0, 100.0, size))
        elif style < 0.7:
            pts = np.sort(rng.uniform(0.0, 3.0, size))  # clustered
        else:
            centers = rng.uniform(0.0, 200.0, max(1, size // 3 + 1))
            pts = np.sort(rng.choice(centers, size) + rng.uniform(0.0, 0.8, size))
        pts = np.unique(pts)
        if len(pts) > 1 and float(np.diff(pts).min()) < 1e-6:
            continue
        checked += 1
        cfg = ExtensionConfig(m=m)
        lat = build_gap_lattice(tuple(pts), cfg)
        G = lat.lattice_points
        for a, b in zip(pts, pts[1:]):
            width = b - a
            inside = [y for y in G if a < y < b]
            if width > 4.0:
                n_j = math.floor(width / 2.0)
                ell = width / n_j
                assert 2.0 - guard <= ell <= 3.0 + guard
                assert len(inside) == n_j - 1
            else:
                assert not inside
        for y in G:
            assert min(abs(y - x) for x in pts) >= 2.0 - guard
        for u, v in zip(G, G[1:]):
            assert v - u >= 2.0 - guard
        merged = sorted([*pts, *G])
        lo, hi = pts[0] - cfg.window_pad, pts[-1] + cfg.window_pad
        assert merged[0] - lo <= 2.0 + guard
        assert hi - merged[-1] <= 2.0 + guard
        for u, v in zip(merged, merged[1:]):
            assert v - u <= 4.0 + guard
    print("criterion 8: PASS (1000 configurations, zero invariant violations)")


# --------------------------------------------------------------- criterion 9


def test_criterion_9_small_set_route(tmp_path):
    from sobtrace.cli import main

    rng = np.random.default_rng(109)
    for m in (1, 2, 3, 4):
        for _ in range(15):
            size = int(rng.integers(1, m + 1))
            s = random_sampled_function(rng, size, 5.0)
            padded = pad_small_set(s, m)
            assert len(padded) == m + 1
            gaps = [b - a for a, b in zip(padded.points, padded.points[1:])]
            assert all(abs(g - 2.0) <= 1e-12 for g in gaps[size - 1 :])
            assert padded.values[size:] == (0.0,) * (m + 1 - size)
            assert (
                small_set_functional(s, m, 2.0).value
                == sequence_functional(s, m, math.inf).value
            )
    # the CLI flags the route and reports the same value
    s = SampledFunction((0.0, 1.0), (1.0, 2.0))
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"points": list(s.points), "values": list(s.values)}))
    out = tmp_path / "report.json"
    assert main(["--command", "check", "--input", str(inp), "--m", "3", "--p", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["small_set_route"] is True
    assert report["functionals"]["small_set"]["value"] == sequence_functional(s, 3, math.inf).value
    print("criterion 9: PASS (padding shape, zero fill, and routing verified)")
