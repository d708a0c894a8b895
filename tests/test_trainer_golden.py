"""Golden-weights regression test for the batched trainer.

``tests/data/trained_weights_golden.json`` holds a sha256 per encoder
parameter after three :meth:`Trainer.train_epoch` calls on a small, fully
seeded netlist dataset, once with dropout 0.1 and once with dropout 0.
The trainer must reproduce every digest **byte for byte**: a change to
packing, the forward/backward kernels, the readout, the dropout masks'
RNG consumption or the optimizer shows up here as a failing digest
rather than as a silent shift in trained weights.

When a change to the training numerics is *intentional*, regenerate the
fixture and commit the diff alongside the change::

    PYTHONPATH=src python tests/test_trainer_golden.py regenerate
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core import GNN4IP, Trainer, build_pair_dataset
from repro.designs import netlist_ir_records
from repro.eval.runner import augment_with_chunk_pairs

GOLDEN_PATH = Path(__file__).parent / "data" / "trained_weights_golden.json"

#: The fixture's dataset: three netlist families (one sequential) with
#: chunk-augmented pairs, so the batches mix whole designs with small
#: subgraphs of uneven size.
FAMILIES = ("adder8", "cmp8", "counter8")
INSTANCES = 3
DATA_SEED = 1
MODEL_SEED = 3
BATCH_SIZE = 16
EPOCHS = 3
CASES = {"dropout_0.1": 0.1, "dropout_0": 0.0}


def _dataset():
    records = netlist_ir_records(families=list(FAMILIES),
                                 instances_per_design=INSTANCES,
                                 seed=DATA_SEED)
    dataset = build_pair_dataset(records, seed=DATA_SEED)
    augment_with_chunk_pairs(dataset, seed=DATA_SEED)
    return dataset


def trained_digests(dataset, dropout):
    """sha256 of every encoder parameter after ``EPOCHS`` epochs."""
    model = GNN4IP(seed=MODEL_SEED, featurizer="netlist", dropout=dropout)
    trainer = Trainer(model, batch_size=BATCH_SIZE, seed=MODEL_SEED)
    for epoch in range(EPOCHS):
        trainer.train_epoch(dataset, epoch)
    return {name: hashlib.sha256(value.tobytes()).hexdigest()
            for name, value in sorted(model.encoder.state_dict().items())}


def current_digests():
    dataset = _dataset()
    return {case: trained_digests(dataset, dropout)
            for case, dropout in CASES.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def dataset():
    return _dataset()


@pytest.mark.parametrize("case", sorted(CASES))
def test_trained_weights_match_golden(golden, dataset, case):
    current = trained_digests(dataset, CASES[case])
    assert current == golden[case], (
        "trained weights drifted from tests/data/trained_weights_golden.json"
        " — if the change is intentional, regenerate with:\n"
        "  PYTHONPATH=src python tests/test_trainer_golden.py regenerate")


def test_golden_covers_every_parameter(golden):
    names = set(GNN4IP(featurizer="netlist").encoder.state_dict())
    for case in CASES:
        assert set(golden[case]) == names


if __name__ == "__main__":
    if sys.argv[1:] != ["regenerate"]:
        sys.exit("usage: python tests/test_trainer_golden.py regenerate")
    GOLDEN_PATH.write_text(json.dumps(current_digests(), indent=2,
                                      sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
