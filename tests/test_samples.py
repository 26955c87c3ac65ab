import math

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
