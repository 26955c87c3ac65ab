"""Compute and freeze the calibration bands used by the test suite.

Run from the repository root:

    python3 tests/calibrate.py

writes tests/data/calibration.json.  The acceptance suite recomputes the same
quantities from the same seeded corpus and requires the recorded min/max to
reproduce to 1e-6, so regenerate this file only when the corpus settings or
the algorithms intentionally change.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from sobtrace import (
    ExtensionConfig,
    GridSpec,
    extend,
    homogeneous_sequence_functional,
    natural_spline_min_energy,
    pad_small_set,
    sequence_functional,
    small_set_functional,
    sobolev_norm,
    variational_functional,
    wmf_functional,
)
from sobtrace.corpus import (
    CALIBRATION_COUNT,
    CALIBRATION_SEED,
    SPANS,
    calibration_corpus,
    random_sampled_function,
)

WMF_GRID_H = 0.25
QUAD_TOL = 1e-9
RATIO_NAMES = (
    "tilde_over_var",
    "w_hermite_over_tilde",
    "w_natural2_over_tilde",
    "wmf_over_tilde",
)


def corpus_records():
    """Full evaluation of the calibration corpus.

    Returns (records, timings): one record per instance with the extensions,
    their norms, the sequence and variational functionals and the
    sharp-maximal functional, plus wall-clock totals per stage.
    """
    records = []
    timings = {"necessity": 0.0, "wmf": 0.0}
    for inst in calibration_corpus():
        s, m, p = inst.samples, inst.m, inst.p
        t0 = time.perf_counter()
        tilde = sequence_functional(s, m, p).value
        var = variational_functional(s, m, p).value
        extensions = {}
        norms = {}
        for backend in ("hermite", "natural2"):
            F = extend(s, ExtensionConfig(m=m, backend=backend))
            extensions[backend] = F
            norms[backend] = sobolev_norm(F, m, p, QUAD_TOL).w_norm
        t1 = time.perf_counter()
        wmf = wmf_functional(s, m, p, GridSpec(WMF_GRID_H)).value
        timings["necessity"] += t1 - t0
        timings["wmf"] += time.perf_counter() - t1
        records.append(
            {
                "instance": inst,
                "tilde": tilde,
                "variational": var,
                "extensions": extensions,
                "norms": norms,
                "wmf": wmf,
            }
        )
    return records, timings


def ratio_table(records):
    ratios = {name: [] for name in RATIO_NAMES}
    for rec in records:
        tilde, var = rec["tilde"], rec["variational"]
        ratios["tilde_over_var"].append(tilde / var)
        ratios["w_hermite_over_tilde"].append(rec["norms"]["hermite"] / tilde)
        ratios["w_natural2_over_tilde"].append(rec["norms"]["natural2"] / tilde)
        ratios["wmf_over_tilde"].append(rec["wmf"] / tilde)
    return ratios


def small_set_corpus(seed: int, count: int, m: int):
    """Instances with 1..m points (the small-set regime)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        size = int(rng.integers(1, m + 1))
        span = float(rng.choice(SPANS))
        out.append(random_sampled_function(rng, size, span))
    return out


def padding_bounds():
    """Observed max of padded-sequence over small-set values, x2 margin."""
    out = {}
    for m in (1, 2, 3, 4):
        worst = 0.0
        for s in small_set_corpus(CALIBRATION_SEED + m, 60, m):
            small = small_set_functional(s, m, 2.0).value
            if small == 0.0:
                continue
            for p in (1.5, 2.0, 3.0):
                padded = sequence_functional(pad_small_set(s, m), m, p).value
                worst = max(worst, padded / small)
        out[str(m)] = 2.0 * worst
    return out


def energy_vs_top_order_band(records):
    """sqrt(minimal bending energy) against the top-order functional, m=2, p=2."""
    ratios = []
    for rec in records:
        inst = rec["instance"]
        if inst.m != 2 or inst.p != 2.0:
            continue
        _, energy = natural_spline_min_energy(inst.samples, 2)
        h = homogeneous_sequence_functional(inst.samples, 2, 2.0).value
        if h > 0:
            ratios.append(math.sqrt(energy) / h)
    return {"min": min(ratios), "max": max(ratios)}


def main() -> int:
    t0 = time.perf_counter()
    records, _ = corpus_records()
    ratios = ratio_table(records)
    payload = {
        "seed": CALIBRATION_SEED,
        "count": CALIBRATION_COUNT,
        "wmf_grid_h": WMF_GRID_H,
        "quad_tol": QUAD_TOL,
        "numpy_version": np.__version__,
        "ratios": {
            name: {"min": min(vals), "max": max(vals)} for name, vals in ratios.items()
        },
        "padding_B": padding_bounds(),
        "energy_vs_top_order_m2": energy_vs_top_order_band(records),
        "note": (
            "ratio bands are exact corpus min/max; padding_B carries a 2x margin "
            "over the observed corpus maximum"
        ),
    }
    out = Path(__file__).parent / "data" / "calibration.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out} in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
