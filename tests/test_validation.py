"""Unit tests for input validation helpers."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.rngtools import resolve_rng
from repro.utils.validation import (
    as_probability_vector,
    as_state_sequence,
    as_transition_matrix,
    check_positive,
    check_unit_interval,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize(
        "bad", [0.0, -1.0, float("nan"), float("inf"), None, "abc"]
    )
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValidationError):
            check_positive(bad, "x")


class TestCheckUnitInterval:
    def test_accepts_bounds_closed(self):
        assert check_unit_interval(0.0, "x") == 0.0
        assert check_unit_interval(1.0, "x") == 1.0

    def test_open_ends_reject_bounds(self):
        with pytest.raises(ValidationError):
            check_unit_interval(0.0, "x", open_ends=True)
        with pytest.raises(ValidationError):
            check_unit_interval(1.0, "x", open_ends=True)

    def test_rejects_outside(self):
        with pytest.raises(ValidationError):
            check_unit_interval(1.2, "x")


class TestProbabilityVector:
    def test_valid_vector_passes(self):
        vec = as_probability_vector([0.25, 0.75])
        assert vec.dtype == np.float64
        np.testing.assert_allclose(vec.sum(), 1.0)

    def test_normalization(self):
        vec = as_probability_vector([2.0, 2.0], normalize=True)
        np.testing.assert_allclose(vec, [0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            as_probability_vector([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            as_probability_vector([0.5, 0.6])

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError):
            as_probability_vector([[0.5, 0.5]])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            as_probability_vector([])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            as_probability_vector([float("nan"), 1.0])

    def test_rejects_zero_mass_normalize(self):
        with pytest.raises(ValidationError):
            as_probability_vector([0.0, 0.0], normalize=True)


class TestTransitionMatrix:
    def test_valid_matrix(self):
        mat = as_transition_matrix([[0.9, 0.1], [0.4, 0.6]])
        np.testing.assert_allclose(mat.sum(axis=1), [1.0, 1.0])

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            as_transition_matrix([[0.5, 0.5]])

    def test_rejects_bad_rows(self):
        with pytest.raises(ValidationError):
            as_transition_matrix([[0.9, 0.2], [0.4, 0.6]])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            as_transition_matrix([[1.1, -0.1], [0.4, 0.6]])


class TestStateSequence:
    def test_valid_sequence(self):
        seq = as_state_sequence([0, 1, 1, 0], 2)
        assert seq.dtype == np.int64

    def test_accepts_integral_floats(self):
        seq = as_state_sequence(np.array([0.0, 1.0]), 2)
        assert seq.tolist() == [0, 1]

    def test_rejects_fractional(self):
        with pytest.raises(ValidationError):
            as_state_sequence(np.array([0.5]), 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            as_state_sequence([0, 2], 2)
        with pytest.raises(ValidationError):
            as_state_sequence([-1], 2)


class TestResolveRng:
    def test_seed_determinism(self):
        a = resolve_rng(7).random(3)
        b = resolve_rng(7).random(3)
        np.testing.assert_array_equal(a, b)

    def test_passthrough(self):
        gen = np.random.default_rng(1)
        assert resolve_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(resolve_rng(None), np.random.Generator)

    def test_rejects_strings(self):
        with pytest.raises(ValidationError):
            resolve_rng("seed")
