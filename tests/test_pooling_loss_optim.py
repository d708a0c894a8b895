"""Tests for SAGPool, readout, cosine-embedding loss, and optimizers."""

import numpy as np
import pytest
from scipy import sparse

from repro.nn.layers import Linear, normalize_adjacency
from repro.nn.loss import cosine_embedding_loss, pairwise_cosine_loss
from repro.nn.optim import SGD, Adam
from repro.nn.pooling import Readout, SAGPool, readout
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(11)


def ring_adjacency(n):
    rows = list(range(n))
    cols = [(i + 1) % n for i in range(n)]
    matrix = sparse.csr_matrix((np.ones(n), (rows, cols)), shape=(n, n))
    return matrix.maximum(matrix.T)


class TestSAGPool:
    def make(self, n=8, channels=4, ratio=0.5):
        pool = SAGPool(channels, ratio=ratio, rng=RNG)
        a_norm = normalize_adjacency(ring_adjacency(n))
        x = Tensor(RNG.normal(size=(n, channels)), requires_grad=True)
        return pool, x, a_norm

    def test_keeps_ceil_ratio_nodes(self):
        pool, x, a_norm = self.make(n=8, ratio=0.5)
        x_pool, kept = pool(x, a_norm)
        assert len(kept) == 4
        assert x_pool.shape == (4, 4)

    def test_odd_count_rounds_up(self):
        pool, x, a_norm = self.make(n=5, ratio=0.5)
        _, kept = pool(x, a_norm)
        assert len(kept) == 3

    def test_at_least_one_node_kept(self):
        pool, x, a_norm = self.make(n=1, ratio=0.5)
        _, kept = pool(x, a_norm)
        assert len(kept) == 1

    def test_ratio_one_keeps_all(self):
        pool, x, a_norm = self.make(n=6, ratio=1.0)
        _, kept = pool(x, a_norm)
        assert len(kept) == 6

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            SAGPool(4, ratio=0.0)
        with pytest.raises(ValueError):
            SAGPool(4, ratio=1.5)

    def test_gradient_flows_through_gate(self):
        pool, x, a_norm = self.make()
        x_pool, _ = pool(x, a_norm)
        x_pool.pow(2.0).sum().backward()
        assert x.grad is not None
        assert np.linalg.norm(x.grad) > 0
        assert pool.score_layer.weight.grad is not None

    def test_selection_follows_scores(self):
        """Nodes with the largest attention scores must be the kept ones."""
        pool, x, a_norm = self.make(n=6)
        scores = pool.score_layer(x, a_norm).reshape(6).data
        _, kept = pool(x, a_norm)
        expected = np.sort(np.argsort(-scores)[:3])
        np.testing.assert_array_equal(kept, expected)


class TestReadout:
    def test_max(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_array_equal(Readout("max")(x).data, [3.0, 5.0])

    def test_mean(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 1.0]]))
        np.testing.assert_array_equal(Readout("mean")(x).data, [2.0, 3.0])

    def test_sum(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 1.0]]))
        np.testing.assert_array_equal(Readout("sum")(x).data, [4.0, 6.0])

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            Readout("median")

    def test_functional_form(self):
        np.testing.assert_array_equal(
            readout(np.array([[1.0], [2.0]]), "sum").data, [3.0])


class TestCosineEmbeddingLoss:
    def test_similar_pair_loss_is_one_minus_sim(self):
        a = Tensor(np.array([1.0, 0.0]))
        b = Tensor(np.array([0.0, 1.0]))
        loss, sim = cosine_embedding_loss(a, b, 1)
        assert loss.item() == pytest.approx(1.0 - sim.item())

    def test_identical_similar_pair_zero_loss(self):
        a = Tensor(np.array([1.0, 2.0, 3.0]))
        loss, _ = cosine_embedding_loss(a, a, 1)
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_dissimilar_below_margin_zero_loss(self):
        a = Tensor(np.array([1.0, 0.0]))
        b = Tensor(np.array([-1.0, 0.0]))
        loss, _ = cosine_embedding_loss(a, b, -1, margin=0.5)
        assert loss.item() == 0.0

    def test_dissimilar_above_margin_penalized(self):
        a = Tensor(np.array([1.0, 0.1]))
        b = Tensor(np.array([1.0, 0.0]))
        loss, sim = cosine_embedding_loss(a, b, -1, margin=0.5)
        assert loss.item() == pytest.approx(sim.item() - 0.5)

    def test_margin_is_paper_default(self):
        import inspect
        signature = inspect.signature(cosine_embedding_loss)
        assert signature.parameters["margin"].default == 0.5

    def test_invalid_label_rejected(self):
        a = Tensor(np.ones(2))
        with pytest.raises(ValueError):
            cosine_embedding_loss(a, a, 0)

    def test_pairwise_mean(self):
        embeddings = [Tensor(np.array([1.0, 0.0])),
                      Tensor(np.array([1.0, 0.0])),
                      Tensor(np.array([0.0, 1.0]))]
        loss, sims = pairwise_cosine_loss(
            embeddings, [(0, 1, 1), (0, 2, -1)])
        assert len(sims) == 2
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_pairwise_empty_rejected(self):
        with pytest.raises(ValueError):
            pairwise_cosine_loss([], [])

    def test_loss_pulls_similar_pairs_together(self):
        """A few SGD steps on the loss must increase pair similarity."""
        rng = np.random.default_rng(3)
        layer = Linear(4, 4, rng=rng)
        x1 = Tensor(rng.normal(size=(1, 4)))
        x2 = Tensor(rng.normal(size=(1, 4)))
        optimizer = Adam(layer.parameters(), lr=0.05)
        history = []
        for _ in range(30):
            h1 = layer(x1).reshape(4)
            h2 = layer(x2).reshape(4)
            loss, sim = cosine_embedding_loss(h1, h2, 1)
            history.append(sim.item())
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert history[-1] > history[0]


class TestOptimizers:
    def quadratic_step(self, optimizer_cls, **kwargs):
        x = Tensor(np.array([5.0]), requires_grad=True)
        optimizer = optimizer_cls([x], **kwargs)
        for _ in range(200):
            optimizer.zero_grad()
            (x * x).backward()
            optimizer.step()
        return abs(x.data[0])

    def test_sgd_converges(self):
        assert self.quadratic_step(SGD, lr=0.1) < 1e-3

    def test_sgd_momentum_converges(self):
        assert self.quadratic_step(SGD, lr=0.05, momentum=0.9) < 1e-3

    def test_adam_converges(self):
        assert self.quadratic_step(Adam, lr=0.3) < 1e-3

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.0)

    def test_step_skips_missing_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = Adam([x], lr=0.1)
        optimizer.step()  # no backward yet: must not crash or move x
        np.testing.assert_array_equal(x.data, [1.0])
