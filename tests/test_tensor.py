"""Autograd engine tests: op semantics and numeric gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.nn.tensor import (
    Tensor,
    concat,
    cosine_similarity,
    dot,
    l2_norm,
    spmm,
)

RNG = np.random.default_rng(12345)


def numeric_grad(function, x, eps=1e-6):
    """Central-difference gradient of scalar ``function`` at array ``x``."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = function(x)
        flat[i] = orig - eps
        minus = function(x)
        flat[i] = orig
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build, shape, tol=1e-5):
    """Compare autograd and numeric gradients for scalar-valued ``build``."""
    x_data = RNG.normal(size=shape)
    x = Tensor(x_data.copy(), requires_grad=True)
    out = build(x)
    out.backward()
    numeric = numeric_grad(lambda arr: build(Tensor(arr)).item(),
                           x_data.copy())
    assert x.grad is not None
    np.testing.assert_allclose(x.grad, numeric, atol=tol, rtol=tol)


class TestForwardSemantics:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3.0))
        np.testing.assert_array_equal((a + b).data,
                                      np.ones((2, 3)) + np.arange(3.0))

    def test_matmul(self):
        a = Tensor(RNG.normal(size=(3, 4)))
        b = Tensor(RNG.normal(size=(4, 2)))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)

    def test_relu(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(x.relu().data, [0.0, 0.0, 2.0])

    def test_max_axis(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_array_equal(x.max(axis=0).data, [3.0, 5.0])

    def test_mean(self):
        x = Tensor(np.array([[2.0, 4.0]]))
        assert x.mean().item() == 3.0

    def test_index_select(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        picked = x.index_select([2, 0])
        np.testing.assert_array_equal(picked.data, x.data[[2, 0]])

    def test_spmm_matches_dense(self):
        matrix = sparse.random(6, 6, density=0.4, random_state=1,
                               format="csr")
        x = Tensor(RNG.normal(size=(6, 3)))
        np.testing.assert_allclose(spmm(matrix, x).data,
                                   matrix.toarray() @ x.data)

    def test_spmm_rejects_dense_matrix(self):
        with pytest.raises(TypeError):
            spmm(np.eye(3), Tensor(np.ones((3, 2))))

    def test_concat(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((1, 2)))
        assert concat([a, b], axis=0).shape == (3, 2)

    def test_cosine_similarity_bounds(self):
        a = Tensor(np.array([1.0, 0.0]))
        b = Tensor(np.array([0.0, 1.0]))
        assert abs(cosine_similarity(a, b).item()) < 1e-9
        assert cosine_similarity(a, a).item() == pytest.approx(1.0)

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x.detach()
        assert not y.requires_grad


class TestGradients:
    def test_add_mul(self):
        check_gradient(lambda x: ((x + 2.0) * x).sum(), (3, 4))

    def test_sub_div(self):
        check_gradient(lambda x: ((x - 0.5) / 2.0).sum(), (5,))

    def test_matmul_left(self):
        w = Tensor(RNG.normal(size=(4, 2)))
        check_gradient(lambda x: (x @ w).sum(), (3, 4))

    def test_matmul_right(self):
        a = RNG.normal(size=(3, 4))
        check_gradient(lambda x: (Tensor(a) @ x).sum(), (4, 2))

    def test_relu(self):
        check_gradient(lambda x: (x.relu() * x.relu()).sum(), (4, 3))

    def test_tanh(self):
        check_gradient(lambda x: x.tanh().sum(), (6,))

    def test_sigmoid(self):
        check_gradient(lambda x: x.sigmoid().sum(), (6,))

    def test_pow(self):
        check_gradient(lambda x: (x * x).pow(1.5).sum(), (4,), tol=1e-4)

    def test_sum_axis(self):
        check_gradient(lambda x: x.sum(axis=0).pow(2.0).sum(), (3, 4))

    def test_mean_axis(self):
        check_gradient(lambda x: x.mean(axis=1).pow(2.0).sum(), (3, 4))

    def test_max_axis0(self):
        # keep values distinct so the max is differentiable
        x_data = np.arange(12.0).reshape(4, 3) + RNG.normal(
            scale=0.01, size=(4, 3))
        x = Tensor(x_data.copy(), requires_grad=True)
        out = x.max(axis=0).pow(2.0).sum()
        out.backward()
        numeric = numeric_grad(
            lambda arr: (np.max(arr, axis=0) ** 2).sum(), x_data.copy())
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)

    def test_index_select_accumulates(self):
        x = Tensor(np.ones((4, 2)), requires_grad=True)
        out = x.index_select([1, 1, 2]).sum()
        out.backward()
        np.testing.assert_array_equal(x.grad[:, 0], [0.0, 2.0, 1.0, 0.0])

    def test_spmm_grad(self):
        matrix = sparse.random(5, 5, density=0.5, random_state=2,
                               format="csr")
        dense_matrix = matrix.toarray()
        x_data = RNG.normal(size=(5, 2))
        x = Tensor(x_data.copy(), requires_grad=True)
        spmm(matrix, x).pow(2.0).sum().backward()
        numeric = numeric_grad(
            lambda arr: ((dense_matrix @ arr) ** 2).sum(), x_data.copy())
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)

    def test_concat_grad(self):
        x = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        y = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        concat([x, y], axis=0).pow(2.0).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)
        np.testing.assert_allclose(y.grad, 2 * y.data)

    def test_cosine_similarity_grad(self):
        b = Tensor(RNG.normal(size=6))
        check_gradient(lambda x: cosine_similarity(x, b), (6,), tol=1e-4)

    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_broadcast_grad_unbroadcasts(self):
        bias = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(np.ones((4, 3)))
        (x + bias).sum().backward()
        np.testing.assert_array_equal(bias.grad, [4.0, 4.0, 4.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        (a * b).backward()   # d/dx (6x^2) = 12x = 36
        np.testing.assert_allclose(x.grad, [36.0])

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * x).sum().backward()
        x.zero_grad()
        assert x.grad is None


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4))
    def test_linear_gradient_any_shape(self, n, m):
        w = Tensor(RNG.normal(size=(n, m)))
        check_gradient(lambda x: (x @ w).relu().sum(), (3, n), tol=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=8))
    def test_norm_nonnegative(self, values):
        norm = l2_norm(Tensor(np.array(values))).item()
        assert norm >= 0.0
        np.testing.assert_allclose(norm, np.linalg.norm(values), atol=1e-5)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=3, max_size=6),
           st.lists(st.floats(-3, 3), min_size=3, max_size=6))
    def test_cosine_in_range(self, a_values, b_values):
        size = min(len(a_values), len(b_values))
        a = np.array(a_values[:size])
        b = np.array(b_values[:size])
        value = cosine_similarity(Tensor(a), Tensor(b)).item()
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-4, 4), min_size=1, max_size=10))
    def test_dot_matches_numpy(self, values):
        arr = np.array(values)
        np.testing.assert_allclose(dot(Tensor(arr), Tensor(arr)).item(),
                                   float(arr @ arr), atol=1e-6)


def _per_segment_readout(x, counts, mode):
    """Reference readout: one gather and one reduction per segment."""
    rows = []
    offset = 0
    for count in counts:
        segment = x.index_select(np.arange(offset, offset + count))
        row = {"max": segment.max, "mean": segment.mean,
               "sum": segment.sum}[mode](axis=0)
        rows.append(row.reshape(1, x.shape[1]))
        offset += count
    return concat(rows, axis=0)


def _segment_readout(x, counts, mode):
    starts = np.cumsum(counts) - counts
    out = x.segment_reduce(starts, "max" if mode == "max" else "sum")
    return out * (1.0 / counts[:, None]) if mode == "mean" else out


class TestSegmentReductions:
    """Segment readouts equal per-segment reductions bit for bit."""

    #: Long segments too: on those numpy's ``reduceat`` combines rows in
    #: another order than ``max``/``sum(axis=0)``.
    COUNTS = np.array([3, 1, 33, 2, 24])

    def _data(self):
        # Non-integer values make the summation order visible; a repeated
        # row and columns of signed zeros give ties inside segments.
        rng = np.random.default_rng(7)
        data = rng.normal(size=(self.COUNTS.sum(), 6))
        data[1] = data[0]
        data[:, 3:] = rng.choice([0.0, -0.0, -1.0], size=(len(data), 3))
        return data

    @pytest.mark.parametrize("mode", ["max", "mean", "sum"])
    def test_forward_and_gradient_bitwise(self, mode):
        data = self._data()
        # Negative and zero upstream gradients exercise the sign of zero.
        upstream = RNG.integers(-2, 2, size=(len(self.COUNTS), 6)) * 0.75
        results = []
        for readout in (_per_segment_readout, _segment_readout):
            x = Tensor(data.copy(), requires_grad=True)
            out = readout(x, self.COUNTS, mode)
            out.backward(upstream)
            results.append((out.data, x.grad))
        (ref_out, ref_grad), (out, grad) = results
        assert out.tobytes() == ref_out.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    def test_max_splits_ties_like_max(self):
        x = Tensor(np.array([[1.0, 2.0], [1.0, 0.0], [3.0, 2.0],
                             [5.0, 5.0]]), requires_grad=True)
        x.segment_reduce([0, 3], "max").sum().backward()
        np.testing.assert_array_equal(
            x.grad, [[0.0, 0.5], [0.0, 0.0], [1.0, 0.5], [1.0, 1.0]])

    def test_segment_max_gradient_numeric(self):
        counts = np.array([2, 3])
        check_gradient(
            lambda x: _segment_readout(x, counts, "max").pow(2.0).sum(),
            (5, 3))


class TestIndexSelectBackward:
    """The direct-assignment backward equals the scatter-add it replaces."""

    @pytest.mark.parametrize("indices", [[0, 2, 3, 5], [1, 1, 4, 0, 4],
                                         [5, 2, 0]])
    def test_matches_scatter_add(self, indices):
        data = RNG.normal(size=(6, 3))
        upstream = RNG.integers(-1, 2, size=(len(indices), 3)) * -0.0
        upstream[0] = RNG.normal(size=3)
        x = Tensor(data, requires_grad=True)
        x.index_select(indices).backward(upstream)
        expected = np.zeros_like(data)
        np.add.at(expected, np.asarray(indices), upstream)
        assert x.grad.tobytes() == expected.tobytes()

    def test_one_dimensional(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x.index_select([0, 3, 4]).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0, 2.0, 3.0])
