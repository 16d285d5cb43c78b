"""Unit + property tests for repro.util.numerics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.util.numerics import (
    categorical_inverse_cdf,
    log1pexp,
    log_add_exp,
    log_sub_exp,
    log_softmax,
    log_softmax_and_softmax,
    logmeanexp,
    logsumexp,
    softmax,
    stable_sigmoid,
    weighted_logsumexp,
)

finite_arrays = hnp.arrays(
    np.float64,
    st.integers(1, 30),
    elements=st.floats(-600, 600, allow_nan=False),
)


class TestLogSumExp:
    def test_matches_naive_small(self):
        a = np.array([0.0, 1.0, 2.0])
        assert np.isclose(logsumexp(a), np.log(np.exp(a).sum()))

    def test_no_overflow_huge_values(self):
        a = np.array([10_000.0, 10_000.0])
        assert np.isclose(logsumexp(a), 10_000.0 + np.log(2.0))

    def test_all_minus_inf(self):
        assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf

    def test_some_minus_inf_ignored(self):
        a = np.array([-np.inf, 0.0])
        assert np.isclose(logsumexp(a), 0.0)

    def test_axis_reduction(self):
        a = np.arange(6.0).reshape(2, 3)
        out = logsumexp(a, axis=1)
        for k in range(2):
            assert np.isclose(out[k], np.log(np.exp(a[k]).sum()))

    def test_keepdims(self):
        a = np.zeros((2, 3))
        assert logsumexp(a, axis=1, keepdims=True).shape == (2, 1)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            logsumexp(np.array([]))

    def test_scalar_return_type(self):
        assert isinstance(logsumexp(np.array([1.0, 2.0])), float)

    @given(finite_arrays)
    @settings(max_examples=60, deadline=None)
    def test_monotone_bound(self, a):
        # max(a) <= logsumexp(a) <= max(a) + log(n)
        out = logsumexp(a)
        assert out >= a.max() - 1e-12
        assert out <= a.max() + np.log(a.size) + 1e-12

    @given(finite_arrays, st.floats(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, a, c):
        assert np.isclose(logsumexp(a + c), logsumexp(a) + c, atol=1e-9)


class TestLogMeanWeighted:
    def test_logmeanexp_uniform(self):
        a = np.full(8, 3.0)
        assert np.isclose(logmeanexp(a), 3.0)

    def test_logmeanexp_matches_definition(self):
        a = np.array([0.0, 1.0, -2.0])
        assert np.isclose(logmeanexp(a), np.log(np.exp(a).mean()))

    def test_weighted_logsumexp(self):
        a = np.array([0.0, 1.0])
        w = np.array([np.log(2.0), np.log(3.0)])
        expected = np.log(2 * np.exp(0.0) + 3 * np.exp(1.0))
        assert np.isclose(weighted_logsumexp(a, w), expected)


class TestLogAddSub:
    def test_add(self):
        assert np.isclose(log_add_exp(0.0, 0.0), np.log(2.0))

    def test_sub_exact(self):
        out = log_sub_exp(np.log(5.0), np.log(2.0))
        assert np.isclose(out, np.log(3.0))

    def test_sub_equal_gives_minus_inf(self):
        assert log_sub_exp(1.0, 1.0) == -np.inf

    def test_sub_invalid_raises(self):
        with pytest.raises(ValueError):
            log_sub_exp(0.0, 1.0)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_add_commutative(self, a, b):
        assert np.isclose(log_add_exp(a, b), log_add_exp(b, a))


class TestActivationHelpers:
    def test_log1pexp_large_positive(self):
        assert np.isclose(log1pexp(800.0), 800.0)

    def test_log1pexp_large_negative(self):
        assert log1pexp(-800.0) == pytest.approx(0.0, abs=1e-300)

    def test_log1pexp_zero(self):
        assert np.isclose(log1pexp(0.0), np.log(2.0))

    def test_sigmoid_extremes(self):
        assert stable_sigmoid(1000.0) == pytest.approx(1.0)
        assert stable_sigmoid(-1000.0) == pytest.approx(0.0)

    def test_sigmoid_symmetry(self):
        x = np.linspace(-20, 20, 11)
        assert np.allclose(stable_sigmoid(x) + stable_sigmoid(-x), 1.0)

    def test_softmax_normalizes(self):
        x = np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, 1000.0]])
        s = softmax(x)
        assert np.allclose(s.sum(axis=1), 1.0)

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        assert np.allclose(np.exp(log_softmax(x)), softmax(x))

    @given(finite_arrays)
    @settings(max_examples=50, deadline=None)
    def test_softmax_shift_invariant(self, a):
        assert np.allclose(softmax(a), softmax(a + 17.0), atol=1e-12)


def _reference_softmaxes(x, axis):
    """log_softmax and softmax with NumPy axis reductions."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    logp = shifted - np.log(np.sum(e, axis=axis, keepdims=True))
    return logp, e / np.sum(e, axis=axis, keepdims=True)


def _masked_logits(rng, shape):
    x = rng.normal(scale=4.0, size=shape)
    x[rng.random(shape) < 0.25] = -np.inf  # some rows end up all -inf: nan, as before
    return x


class TestSpeciesAxisKernels:
    """The slice-by-slice softmax family against the axis reductions."""

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("shape", [(64, 16), (1024,), (3, 2, 5)])
    def test_bit_identical_up_to_seven_species(self, n, shape):
        rng = np.random.default_rng(n)
        x = _masked_logits(rng, shape + (n,))
        with np.errstate(invalid="ignore"):
            want_logp, want_p = _reference_softmaxes(x, -1)
            logp, p = log_softmax_and_softmax(x)
            for got, want in [(logp, want_logp), (p, want_p),
                              (log_softmax(x), want_logp), (softmax(x), want_p)]:
                assert got.shape == want.shape
                assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("axis", [0, 1, -2])
    def test_bit_identical_along_other_axes(self, axis):
        x = _masked_logits(np.random.default_rng(11), (4, 5, 6))
        with np.errstate(invalid="ignore"):
            want_logp, want_p = _reference_softmaxes(x, axis)
            logp, p = log_softmax_and_softmax(x, axis=axis)
        assert np.array_equal(logp, want_logp, equal_nan=True)
        assert np.array_equal(p, want_p, equal_nan=True)

    @pytest.mark.parametrize("n", [8, 9])
    def test_close_from_eight_species(self, n):
        """NumPy's pairwise sum adds 8+ terms in another order: roundoff only."""
        x = np.random.default_rng(n).normal(scale=4.0, size=(256, n))
        want_logp, want_p = _reference_softmaxes(x, -1)
        logp, p = log_softmax_and_softmax(x)
        assert np.allclose(logp, want_logp, rtol=1e-14, atol=1e-14)
        assert np.allclose(p, want_p, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_inverse_cdf_matches_cumsum_count(self, n):
        rng = np.random.default_rng(20 + n)
        x = _masked_logits(rng, (512, n))
        x[:, 0] = 0.0  # keep every row normalizable
        p = softmax(x)
        u = rng.random(512)
        want = (u[:, None] > np.cumsum(p, axis=-1)).sum(axis=-1)
        got = categorical_inverse_cdf(p.copy(), u)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
