"""Batched training: the fused encoder node, pair-loss parity,
determinism, the prepared cache."""

import numpy as np
import pytest

from repro.core import (
    GNN4IP,
    HW2VEC,
    GraphRecord,
    Trainer,
    build_pair_dataset,
)
from repro.dataflow import dfg_from_verilog
from repro.designs import netlist_ir_records
from repro.index.chunks import extract_chunks
from repro.nn.batch import (
    batched_forward_tensor,
    batched_pair_loss,
    pack_prepared,
)
from repro.nn.loss import cosine_embedding_loss
from repro.nn.pooling import segment_topk
from repro.nn.tensor import Tensor

XOR = """
module x(input a, input b, output y);
  assign y = a ^ b;
endmodule
"""

AND = """
module g(input a, input b, output y);
  assign y = a & b;
endmodule
"""

COUNTER = """
module c(input clk, output reg [3:0] q);
  always @(posedge clk) q <= q + 4'd1;
endmodule
"""


@pytest.fixture(scope="module")
def dataset():
    records = [
        GraphRecord("xor", "x0", dfg_from_verilog(XOR)),
        GraphRecord("xor", "x1", dfg_from_verilog(XOR.replace("a ^ b",
                                                              "b ^ a"))),
        GraphRecord("and", "a0", dfg_from_verilog(AND)),
        GraphRecord("and", "a1", dfg_from_verilog(AND.replace("a & b",
                                                              "b & a"))),
        GraphRecord("cnt", "c0", dfg_from_verilog(COUNTER)),
    ]
    return build_pair_dataset(records, test_fraction=0.2, seed=1)


def reference_dropout_masks(dropout, batch, layers, width):
    """Per-layer float masks from one draw, regrouped as float rows."""
    sizes = np.asarray(batch.sizes)
    graph = np.repeat(np.arange(len(sizes)), sizes)
    drawn = dropout.draw_mask((layers * len(graph), width))
    rows = np.arange(len(graph)) + (layers - 1) * batch.offsets[graph]
    return [drawn[rows + layer * sizes[graph]] for layer in range(layers)]


def reference_forward_tensor(encoder, batch):
    """The encoder as a composition of Tensor ops, one tape node per op.

    This is the batched training forward the fused
    :func:`batched_forward_tensor` node replaced; its tape's gradients
    are the oracle the fused backward must equal byte for byte.
    """
    dropout = encoder.dropout
    masks = None
    if dropout.training and dropout.rate > 0.0:
        masks = reference_dropout_masks(dropout, batch, len(encoder.convs),
                                        encoder.hidden)
    x = Tensor(batch.features)
    for layer, conv in enumerate(encoder.convs):
        x = conv(x, batch.a_norm).relu()
        if masks is not None:
            x = x * masks[layer]
    scores = encoder.pool.score_layer(x, batch.a_norm)
    scores = scores.reshape(scores.shape[0])
    kept, counts = segment_topk(scores.data, batch.sizes, encoder.pool.ratio)
    starts = np.cumsum(counts) - counts
    gate = scores.index_select(kept).tanh().reshape(len(kept), 1)
    gated = x.index_select(kept) * gate
    mode = encoder.readout.mode
    out = gated.segment_reduce(starts, "max" if mode == "max" else "sum")
    return out * (1.0 / counts[:, None]) if mode == "mean" else out


@pytest.fixture(scope="module")
def netlist_graphs():
    """Whole designs and their chunks: uneven sizes, tied scores."""
    records = netlist_ir_records(families=["adder8", "cmp8", "counter8"],
                                 instances_per_design=1, seed=1)
    graphs = []
    for record in records:
        graphs.append(record.graph)
        graphs.extend(sub for sub, _ in extract_chunks(record.graph)[:6])
    return graphs


class TestFusedEncoderNode:
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("readout", ["max", "mean", "sum"])
    def test_matches_tensor_op_oracle(self, netlist_graphs, readout,
                                      num_layers, dropout):
        def run(forward, propagated):
            encoder = HW2VEC(seed=5, featurizer="netlist", readout=readout,
                             num_layers=num_layers, dropout=dropout)
            encoder.train()
            prepared = [encoder.prepare(g) for g in netlist_graphs]
            batch = pack_prepared(prepared)
            if propagated:
                batch.propagated = np.vstack(
                    [p.a_norm @ p.features for p in prepared])
            out = forward(encoder, batch)
            seed = np.random.default_rng(11).standard_normal(out.shape)
            out.backward(seed)
            grads = {name: param.grad.tobytes()
                     for name, param in encoder.named_parameters()}
            return out.data.tobytes(), grads, encoder.dropout._rng.random()

        expected = run(reference_forward_tensor, propagated=False)
        assert run(batched_forward_tensor, propagated=False) == expected
        assert run(batched_forward_tensor, propagated=True) == expected

    def test_eval_mode_draws_no_masks(self, netlist_graphs):
        encoder = HW2VEC(seed=5, featurizer="netlist", dropout=0.5)
        encoder.eval()
        batch = pack_prepared([encoder.prepare(g) for g in netlist_graphs])
        state = encoder.dropout._rng.bit_generator.state
        batched_forward_tensor(encoder, batch)
        assert encoder.dropout._rng.bit_generator.state == state


class TestGradientEquivalence:
    def test_vectorized_pair_loss_matches_scalar(self, dataset):
        model = GNN4IP(seed=0, dropout=0.0)
        model.encoder.eval()
        prepared = [model.encoder.prepare(r.graph) for r in dataset.records]
        packed = pack_prepared(prepared)
        embeddings = batched_forward_tensor(model.encoder, packed)
        pairs = [(0, 1, 1), (0, 2, -1), (3, 4, -1), (2, 3, 1)]
        vec_loss, sims = batched_pair_loss(embeddings, pairs, margin=0.5,
                                           positive_weight=3.0)
        total = 0.0
        for (i, j, label), sim in zip(pairs, sims):
            row_i = embeddings.index_select([i]).reshape(model.encoder.hidden)
            row_j = embeddings.index_select([j]).reshape(model.encoder.hidden)
            loss, scalar_sim = cosine_embedding_loss(row_i, row_j, label, 0.5)
            assert sim == pytest.approx(scalar_sim.item(), abs=1e-12)
            total += loss.item() * (3.0 if label == 1 else 1.0)
        assert vec_loss.item() == pytest.approx(total / len(pairs), abs=1e-12)

    def test_batched_pair_loss_rejects_empty(self):
        model = GNN4IP(seed=0)
        prepared = model.encoder.prepare(dfg_from_verilog(XOR))
        embeddings = batched_forward_tensor(model.encoder,
                                            pack_prepared([prepared]))
        with pytest.raises(ValueError):
            batched_pair_loss(embeddings, [])


class TestDeterminism:
    def _fit_weights(self, dataset, seed, epochs=4):
        model = GNN4IP(seed=seed)
        trainer = Trainer(model, seed=seed)
        trainer.fit(dataset, epochs=epochs, tune_delta=False)
        return model.encoder.state_dict()

    def test_same_seed_identical_weights(self, dataset):
        first = self._fit_weights(dataset, seed=0)
        second = self._fit_weights(dataset, seed=0)
        assert set(first) == set(second)
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])

    def test_different_seed_differs(self, dataset):
        first = self._fit_weights(dataset, seed=0)
        second = self._fit_weights(dataset, seed=7)
        assert any(not np.array_equal(first[name], second[name])
                   for name in first)


class TestBatchedTrainer:
    def test_loss_decreases(self, dataset):
        trainer = Trainer(GNN4IP(seed=0, dropout=0.0), lr=0.01, seed=0)
        losses = [trainer.train_epoch(dataset, epoch)[0]
                  for epoch in range(15)]
        assert min(losses[5:]) <= losses[0] + 1e-9

    def test_evaluate_pairs_empty(self, dataset):
        trainer = Trainer(GNN4IP(seed=0), seed=0)
        sims, labels, seconds = trainer.evaluate_pairs(dataset, [])
        assert sims == [] and labels == []
        assert seconds >= 0.0

    def test_evaluate_pairs_matches_direct_similarity(self, dataset):
        model = GNN4IP(seed=0)
        trainer = Trainer(model, seed=0)
        sims, labels, _ = trainer.evaluate_pairs(dataset,
                                                 dataset.test_pairs)
        for (i, j, _), sim in zip(dataset.test_pairs, sims):
            direct = model.similarity(dataset.records[i].graph,
                                      dataset.records[j].graph)
            assert sim == pytest.approx(direct, abs=1e-9)

    def test_prepared_cache_follows_the_dataset(self, dataset):
        """A same-size dataset with other graphs is prepared afresh."""
        swapped = build_pair_dataset(
            [GraphRecord(r.design, r.instance, dataset.records[-1 - k].graph)
             for k, r in enumerate(dataset.records)],
            test_fraction=0.2, seed=1)
        assert len(swapped.records) == len(dataset.records)

        trainer = Trainer(GNN4IP(seed=0), seed=0)
        trainer.train_epoch(dataset, 0)
        reused, _, _ = trainer.evaluate_pairs(swapped, swapped.test_pairs)

        fresh = Trainer(GNN4IP(seed=0), seed=0)
        fresh.model.encoder.load_state_dict(
            trainer.model.encoder.state_dict())
        expected, _, _ = fresh.evaluate_pairs(swapped, swapped.test_pairs)
        assert reused == expected
