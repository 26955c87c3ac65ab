import math
import time

import numpy as np
import pytest

from sobtrace import InvalidInputError, SampledFunction
from sobtrace.corpus import random_sampled_function


def test_rejects_empty():
    with pytest.raises(InvalidInputError):
        SampledFunction((), ())


def test_rejects_length_mismatch():
    with pytest.raises(InvalidInputError):
        SampledFunction((0.0, 1.0), (1.0,))


def test_rejects_unsorted():
    with pytest.raises(InvalidInputError):
        SampledFunction((1.0, 0.0), (0.0, 0.0))


def test_rejects_near_duplicates():
    with pytest.raises(InvalidInputError):
        SampledFunction((0.0, 1e-13), (0.0, 0.0))


def test_rejects_text():
    # a string or bytes object iterates as characters or byte values
    for points, values in (("01", "12"), (b"01", b"12"), ("01", (1.0, 2.0)), ((0.0, 1.0), b"12")):
        with pytest.raises(InvalidInputError):
            SampledFunction(points, values)


def test_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        SampledFunction((0.0, math.inf), (0.0, 0.0))
    with pytest.raises(InvalidInputError):
        SampledFunction((0.0, 1.0), (0.0, math.nan))


def test_basic_properties():
    s = SampledFunction((0.0, 0.5, 3.0), (1.0, 2.0, 3.0))
    assert len(s) == 3
    assert s.span == 3.0
    assert s.min_gap == 0.5
    assert SampledFunction((2.0,), (1.0,)).min_gap == math.inf



def test_random_sampled_function_refuses_infeasible_gap():
    # no sorted draw of 3 points in [0, 1] keeps gaps of 1; the refusal draws nothing
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidInputError):
        random_sampled_function(rng, 3, 1.0, min_gap=1.0)
    assert rng.bit_generator.state == state


def test_random_sampled_function_refuses_hopeless_rejection():
    # 2e4 points 1e-3 apart over a span of 2e4 are accepted with probability
    # (1 - 19999e-3 / 2e4)^2e4 ~ e^-20: refused at once, nothing drawn
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    start = time.perf_counter()
    with pytest.raises(InvalidInputError, match="1e6 rejection draws"):
        random_sampled_function(rng, 20000, 20000.0)
    assert time.perf_counter() - start < 0.1
    assert rng.bit_generator.state == state
    # the same density with min_gap 1e-6, as the extension scaling test draws it
    s = random_sampled_function(rng, 20000, 20000.0, min_gap=1e-6)
    assert len(s) == 20000 and s.min_gap >= 1e-6
