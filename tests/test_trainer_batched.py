"""Batched training: pair-loss parity, determinism, the prepared cache."""

import numpy as np
import pytest

from repro.core import GNN4IP, GraphRecord, Trainer, build_pair_dataset
from repro.dataflow import dfg_from_verilog
from repro.nn.batch import (
    batched_forward_tensor,
    batched_pair_loss,
    pack_prepared,
)
from repro.nn.loss import cosine_embedding_loss

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
