"""Sampled data on finite, strictly increasing point sets."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError

# Gaps below this are rejected at construction: divided differences scale like
# 1/gap, so near-duplicate abscissae produce garbage rather than meaningfully
# large numbers.
MIN_GAP = 1e-12


@dataclass(frozen=True)
class SampledFunction:
    """A finite data set: strictly increasing coordinates with one value each.

    Instances are immutable plain data, safe to share between threads.
    """

    points: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if isinstance(self.points, (str, bytes)) or isinstance(self.values, (str, bytes)):
            raise InvalidInputError("points and values must be sequences of numbers, not text")
        try:
            pts = tuple(float(x) for x in self.points)
            vals = tuple(float(v) for v in self.values)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"points and values must be sequences of numbers: {exc}") from exc
        if not pts:
            raise InvalidInputError("at least one sample point is required")
        if len(pts) != len(vals):
            raise InvalidInputError(f"{len(pts)} points but {len(vals)} values")
        for x in pts:
            if not math.isfinite(x):
                raise InvalidInputError(f"non-finite coordinate {x!r}")
        for v in vals:
            if not math.isfinite(v):
                raise InvalidInputError(f"non-finite value {v!r}")
        for a, b in zip(pts, pts[1:]):
            if not b - a >= MIN_GAP:
                raise InvalidInputError(
                    f"coordinates must increase by at least {MIN_GAP:g}; "
                    f"got consecutive pair ({a!r}, {b!r})"
                )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def span(self) -> float:
        return self.points[-1] - self.points[0]

    @property
    def min_gap(self) -> float:
        """Smallest consecutive gap; +inf for a single point."""
        if len(self.points) == 1:
            return math.inf
        return min(b - a for a, b in zip(self.points, self.points[1:]))

    def shifted(self, t: float) -> "SampledFunction":
        """Same values on translated coordinates."""
        return SampledFunction(tuple(x + t for x in self.points), self.values)

    def scaled_values(self, alpha: float) -> "SampledFunction":
        """Same coordinates with values multiplied by ``alpha``."""
        return SampledFunction(self.points, tuple(alpha * v for v in self.values))

