"""Seeded random sample corpora shared by the CLI, tests and calibration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnsupportedError
from .samples import SampledFunction

#: Seed and size of the calibration corpus; the recorded ratio bands in
#: tests/data/calibration.json were produced with exactly these settings.
CALIBRATION_SEED = 20260809
CALIBRATION_COUNT = 500

SPANS = (2.0, 10.0, 50.0)


@dataclass(frozen=True)
class CorpusInstance:
    samples: SampledFunction
    m: int
    p: float
    span: float


def random_sampled_function(
    rng: np.random.Generator, size: int, span: float, min_gap: float = 1e-3
) -> SampledFunction:
    """Uniform sorted knots in [0, span] with standard normal values.

    Draws are rejected until all consecutive gaps reach ``min_gap``, which
    keeps divided differences well conditioned; rejection consumes the
    generator deterministically.  A draw is accepted with probability
    (1 - (size - 1) * min_gap / span)**size, about
    exp(-min_gap * size**2 / span).  When that needs more than a million
    draws on average, or none can succeed, InvalidInputError is raised
    before the first one.
    """
    crowding = (size - 1) * min_gap
    if size > 1 and (crowding >= span or size * math.log1p(-crowding / span) < -math.log(1e6)):
        raise InvalidInputError(
            f"{size} points at least {min_gap:g} apart in a span of {span:g} need more "
            "than 1e6 rejection draws on average; lower min_gap or widen the span"
        )
    while True:
        pts = np.sort(rng.uniform(0.0, span, size))
        if size == 1 or float(np.diff(pts).min()) >= min_gap:
            break
    vals = rng.standard_normal(size)
    return SampledFunction(tuple(pts), tuple(vals))


def calibration_corpus(
    seed: int = CALIBRATION_SEED, count: int = CALIBRATION_COUNT
) -> list[CorpusInstance]:
    """Deterministic mixed corpus cycling m in {1,2,3}, p in {1.5,2,3} and
    span in {2,10,50}, with sizes m+1..12."""
    rng = np.random.default_rng(seed)
    ms = (1, 2, 3)
    ps = (1.5, 2.0, 3.0)
    out = []
    for i in range(count):
        m = ms[i % 3]
        p = ps[(i // 3) % 3]
        span = SPANS[(i // 9) % 3]
        size = int(rng.integers(m + 1, 13))
        out.append(CorpusInstance(random_sampled_function(rng, size, span), m, p, span))
    return out


def comparison_corpus(seed: int, m: int, count: int = 36) -> list[CorpusInstance]:
    """Corpus for the compare command: sizes m+1..10 over the standard spans, so m is at most 9."""
    if seed < 0:
        raise InvalidInputError(f"the corpus seed must be non-negative, got {seed}")
    if m >= 10:
        raise UnsupportedError(f"the compare corpus draws sets of m+1..10 points, so m must be at most 9, got {m}")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        span = SPANS[i % 3]
        size = int(rng.integers(m + 1, 11))
        out.append(CorpusInstance(random_sampled_function(rng, size, span), m, 0.0, span))
    return out
