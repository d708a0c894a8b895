"""Batched graph inference must reproduce per-graph embeddings.

Equality is asserted to 1e-9 relative tolerance: the math is identical, but
packing graphs into one matrix changes BLAS blocking, which perturbs the
last ~2 bits of the mantissa relative to per-graph matmuls.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from repro.core import HW2VEC
from repro.dataflow import dfg_from_verilog
from repro.nn import (
    Dropout,
    batched_embed,
    batched_forward,
    normalize_adjacency,
    pack_prepared,
)
from repro.nn.batch import _dropout_masks
from repro.nn.pooling import segment_topk, topk_nodes

TEXTS = [
    """
    module adder(input [3:0] a, input [3:0] b, output [4:0] s);
      assign s = a + b;
    endmodule
    """,
    """
    module tiny(input a, output y);
      assign y = ~a;
    endmodule
    """,
    """
    module mix(input [7:0] d, input [2:0] sel, output q, output p);
      assign q = d[sel];
      assign p = ^d;
    endmodule
    """,
    """
    module seq(input clk, input d, output reg q);
      always @(posedge clk) q <= d;
    endmodule
    """,
]


@pytest.fixture(scope="module")
def graphs():
    return [dfg_from_verilog(text) for text in TEXTS]


def assert_embeddings_close(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=1e-9, atol=1e-15)


class TestPacking:
    def test_offsets_and_sizes(self, graphs):
        encoder = HW2VEC(seed=0)
        prepared = [encoder.prepare(g) for g in graphs]
        batch = pack_prepared(prepared)
        assert len(batch) == len(graphs)
        assert batch.sizes == [len(g) for g in graphs]
        assert batch.features.shape[0] == sum(len(g) for g in graphs)
        assert batch.a_norm.shape == (batch.features.shape[0],) * 2

    def test_block_diagonal_no_cross_edges(self, graphs):
        encoder = HW2VEC(seed=0)
        prepared = [encoder.prepare(g) for g in graphs]
        batch = pack_prepared(prepared)
        dense = batch.a_norm.toarray()
        # Everything outside the diagonal blocks must be exactly zero.
        for i in range(len(batch)):
            lo, hi = batch.offsets[i], batch.offsets[i + 1]
            dense[lo:hi, lo:hi] = 0.0
        assert not dense.any()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            pack_prepared([])

    def test_equals_scipy_block_diag(self, graphs):
        encoder = HW2VEC(seed=0)
        single = SimpleNamespace(
            features=np.zeros((1, encoder.config["in_features"])),
            a_norm=normalize_adjacency(sparse.csr_matrix((1, 1))),
            num_nodes=1,
        )
        prepared = [single] + [encoder.prepare(g) for g in graphs] + [single]
        packed = pack_prepared(prepared).a_norm
        expected = sparse.block_diag([p.a_norm for p in prepared], format="csr")
        assert packed.shape == expected.shape
        np.testing.assert_array_equal(packed.indptr, expected.indptr)
        np.testing.assert_array_equal(packed.indices, expected.indices)
        assert packed.data.tobytes() == expected.data.tobytes()


def _reference_topk(scores, num_nodes, ratio):
    """SAGPool selection spelled out: stable descending argsort."""
    keep = max(1, int(np.ceil(ratio * num_nodes)))
    return np.sort(np.argsort(-scores, kind="stable")[:keep])


class TestSegmentTopk:
    SIZES = [1, 5, 2, 7, 1, 4]

    @pytest.mark.parametrize("ratio", [0.5, 0.3, 1.0])
    def test_matches_per_graph_selection_with_ties(self, ratio):
        rng = np.random.default_rng(3)
        # Few distinct values, so most segments hold tied scores.
        scores = rng.integers(0, 3, size=sum(self.SIZES)) * 0.5
        kept, counts = segment_topk(scores, self.SIZES, ratio)
        starts = np.cumsum(self.SIZES) - self.SIZES
        expected = [
            start + _reference_topk(scores[start:][:size], size, ratio)
            for start, size in zip(starts, self.SIZES)
        ]
        np.testing.assert_array_equal(kept, np.concatenate(expected))
        assert counts.tolist() == [len(e) for e in expected]

    def test_topk_nodes_is_the_one_segment_case(self):
        scores = np.array([0.2, 0.9, 0.9, -1.0, 0.2])
        np.testing.assert_array_equal(
            topk_nodes(scores, 5, 0.5), _reference_topk(scores, 5, 0.5)
        )


class TestDropoutMasks:
    def test_one_draw_equals_per_graph_draws(self):
        sizes = [3, 1, 4]
        layers, width = 2, 5
        batch = SimpleNamespace(
            sizes=sizes, offsets=np.concatenate([[0], np.cumsum(sizes)])
        )
        reference = Dropout(0.3, rng=np.random.default_rng(9))
        per_layer = [[] for _ in range(layers)]
        for size in sizes:
            for chunks in per_layer:
                chunks.append(reference.draw_mask((size, width)))
        one_shot = Dropout(0.3, rng=np.random.default_rng(9))
        masks = _dropout_masks(one_shot, batch, layers, width)
        for mask, chunks in zip(masks, per_layer):
            np.testing.assert_array_equal(mask, np.vstack(chunks))
        # Both consumed the RNG stream identically.
        assert reference._rng.random() == one_shot._rng.random()


class TestBatchedForward:
    @pytest.mark.parametrize("readout", ["max", "mean", "sum"])
    def test_matches_embed_all_readouts(self, graphs, readout):
        encoder = HW2VEC(seed=1, readout=readout)
        batched = batched_embed(encoder, graphs)
        single = np.stack([encoder.embed(g) for g in graphs])
        assert_embeddings_close(batched, single)

    def test_single_graph(self, graphs):
        encoder = HW2VEC(seed=2)
        out = batched_embed(encoder, graphs[:1])
        np.testing.assert_array_equal(out[0], encoder.embed(graphs[0]))

    def test_chunking_is_invisible(self, graphs):
        encoder = HW2VEC(seed=0)
        whole = batched_embed(encoder, graphs, batch_size=64)
        chunked = batched_embed(encoder, graphs, batch_size=1)
        assert_embeddings_close(whole, chunked)

    def test_order_preserved(self, graphs):
        encoder = HW2VEC(seed=0)
        forward = batched_embed(encoder, graphs)
        backward = batched_embed(encoder, list(reversed(graphs)))
        assert_embeddings_close(forward, backward[::-1])

    def test_accepts_prepared_graphs(self, graphs):
        encoder = HW2VEC(seed=0)
        prepared = [encoder.prepare(g) for g in graphs]
        np.testing.assert_array_equal(
            batched_forward(encoder, pack_prepared(prepared)),
            batched_embed(encoder, prepared))

    def test_empty_input(self):
        encoder = HW2VEC(seed=0)
        assert batched_embed(encoder, []).shape == (0, encoder.hidden)

    def test_training_mode_ignored(self, graphs):
        """Batched inference is eval-mode even on a training-mode model."""
        encoder = HW2VEC(seed=0, dropout=0.5)
        encoder.train()
        batched = batched_embed(encoder, graphs)
        single = np.stack([encoder.embed(g) for g in graphs])
        assert_embeddings_close(batched, single)

    def test_embed_many_uses_batched_path(self, graphs):
        encoder = HW2VEC(seed=0)
        np.testing.assert_array_equal(
            encoder.embed_many(graphs),
            batched_embed(encoder, graphs))
