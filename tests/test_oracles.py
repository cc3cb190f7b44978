"""The attention maths the checks rest on: the scalar-loop attention
oracle (`loop_oracles.sdp_attention_loop`), against hand cases and a
numpy softmax."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from membank.errors import ShapeError

from loop_oracles import sdp_attention_loop

finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-50, 50),
)


def softmax_rows(m):
    """The oracle's attention weights: queries m against identity keys
    and values, so each output row is the softmax of that row of m."""
    m = np.asarray(m, dtype=np.float64)
    eye = np.eye(m.shape[1])
    return np.array(sdp_attention_loop(m, eye, eye, 1.0))


def sdp_attention_numpy(q, k, v, scale):
    logits = q @ k.T * scale
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (w / w.sum(axis=1, keepdims=True)) @ v


class TestSoftmaxRows:
    def test_symmetric_row(self):
        assert softmax_rows([[0.0, 0.0]]).tolist() == [[0.5, 0.5]]

    def test_shift_invariance(self, rng):
        m = rng.standard_normal((3, 5))
        shifted = m + 17.3
        assert np.allclose(softmax_rows(m), softmax_rows(shifted), atol=1e-12)

    def test_log_ratio(self):
        got = softmax_rows([[math.log(1), math.log(3)]])
        assert np.allclose(got, [[0.25, 0.75]], atol=1e-12)

    @given(finite_matrices)
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, m):
        s = softmax_rows(m).sum(axis=1)
        assert np.all(np.abs(s - 1.0) < 1e-9)

    def test_large_values_stable(self):
        got = softmax_rows([[1000.0, 1000.0]])
        assert np.allclose(got, [[0.5, 0.5]])


class TestSdpAttention:
    def test_single_key_repeats_value(self, rng):
        q = rng.standard_normal((4, 3))
        k = rng.standard_normal((1, 3))
        v = rng.standard_normal((1, 2))
        out = np.array(sdp_attention_loop(q, k, v, 1 / math.sqrt(3)))
        assert np.allclose(out, np.repeat(v, 4, axis=0))

    def test_orthogonal_query_uniform(self):
        # query orthogonal to both keys, keys of identical norm
        q = np.array([[0.0, 0.0, 1.0]])
        k = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        v = np.array([[2.0, 0.0], [0.0, 4.0]])
        out = np.array(sdp_attention_loop(q, k, v, 1 / math.sqrt(3)))
        assert np.allclose(out, v.mean(axis=0, keepdims=True))

    def test_matches_scalar_oracle_small(self, rng):
        q = rng.standard_normal((2, 4))
        k = rng.standard_normal((3, 4))
        v = rng.standard_normal((3, 5))
        got = np.array(sdp_attention_loop(q, k, v, 0.5))
        assert np.allclose(got, sdp_attention_numpy(q, k, v, 0.5), rtol=1e-9, atol=1e-12)

    def test_matches_scalar_oracle_random_8x8x16(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            q = rng.standard_normal((8, 16))
            k = rng.standard_normal((8, 16))
            v = rng.standard_normal((8, 16))
            scale = 1 / math.sqrt(16)
            got = np.array(sdp_attention_loop(q, k, v, scale))
            assert np.allclose(got, sdp_attention_numpy(q, k, v, scale), rtol=1e-9, atol=1e-12)

    def test_output_within_value_range(self, rng):
        q = rng.standard_normal((6, 3))
        k = rng.standard_normal((5, 3))
        v = rng.standard_normal((5, 4))
        out = np.array(sdp_attention_loop(q, k, v, 1 / math.sqrt(3)))
        lo, hi = v.min(axis=0), v.max(axis=0)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_shape_errors(self, rng):
        with pytest.raises(ShapeError):
            sdp_attention_loop(
                rng.standard_normal((2, 3)), rng.standard_normal((2, 4)), rng.standard_normal((2, 4)), 0.5
            )
        with pytest.raises(ShapeError):
            sdp_attention_loop(
                rng.standard_normal((2, 3)), rng.standard_normal((2, 3)), rng.standard_normal((3, 4)), 0.5
            )
