"""Graph preparation must reproduce the scipy formulation bit for bit.

:class:`~repro.core.hw2vec.PreparedGraph` builds the normalized adjacency
``D^-1/2 (A + I) D^-1/2`` in numpy, straight from the graph's edge keys.
The scipy construction it replaced is kept here as the reference: every
``a_norm`` must equal it byte for byte (``data``, ``indices``, ``indptr``
and their dtypes), and so must the binary adjacency and the one-hot
features.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core import HW2VEC, PreparedGraph
from repro.core.features import NETLIST_FEATURIZER, RTL_FEATURIZER
from repro.dataflow import dfg_from_verilog
from repro.designs import netlist_ir_records, rtl_records
from repro.errors import ModelError
from repro.eval.runner import DEFAULT_EVAL_FAMILIES
from repro.index.chunks import extract_chunks
from repro.ir import to_graphir
from repro.ir.graphir import KIND_CELL, LEVEL_NETLIST, GraphIR
from repro.nn.layers import normalize_adjacency


def reference_adjacency(graph, symmetric=True):
    """The per-edge construction ``GraphIR.adjacency`` used to run."""
    n = len(graph.nodes)
    rows, cols = [], []
    for src, deps in enumerate(graph._succ):
        for dst in deps:
            rows.append(src)
            cols.append(dst)
    data = np.ones(len(rows))
    matrix = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    if symmetric:
        matrix = matrix.maximum(matrix.T)
    return matrix


def reference_normalize(adjacency, add_self_loops=True):
    """The scipy formula ``normalize_adjacency`` used to evaluate."""
    matrix = adjacency.tocsr().astype(np.float64)
    if add_self_loops:
        matrix = matrix + sparse.identity(matrix.shape[0], format="csr")
    degree = np.asarray(matrix.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    scaling = sparse.diags(inv_sqrt)
    a_norm = (scaling @ matrix @ scaling).tocsr()
    a_norm.sum_duplicates()
    return a_norm


def reference_features(featurizer, graph):
    """The per-node loop ``OneHotFeaturizer.features`` used to run."""
    features = np.zeros((len(graph), featurizer.dim))
    for node in graph.nodes:
        features[node.node_id, featurizer.label_index[node.label]] = 1.0
    return features


def assert_csr_identical(actual, expected):
    assert actual.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def assert_prepared_like_reference(graph):
    prepared = PreparedGraph(graph, NETLIST_FEATURIZER)
    assert_csr_identical(
        prepared.a_norm, reference_normalize(reference_adjacency(graph))
    )
    for symmetric in (True, False):
        assert_csr_identical(
            graph.adjacency(symmetric=symmetric),
            reference_adjacency(graph, symmetric=symmetric),
        )
    features = reference_features(NETLIST_FEATURIZER, graph)
    assert prepared.features.dtype == features.dtype
    assert prepared.features.tobytes() == features.tobytes()


def make_graph(num_nodes, edges, labels=None):
    graph = GraphIR("g", level=LEVEL_NETLIST)
    vocabulary = NETLIST_FEATURIZER.vocabulary
    for index in range(num_nodes):
        label = labels[index] if labels else vocabulary[index % len(vocabulary)]
        graph.add_node(KIND_CELL, label)
    for src, dst in edges:
        graph.add_edge(src, dst)
    return graph


@st.composite
def graphs(draw, max_nodes=12):
    """GraphIRs from empty to complete, with self-loops and both directions."""
    num_nodes = draw(st.integers(0, max_nodes))
    labels = draw(
        st.lists(
            st.sampled_from(NETLIST_FEATURIZER.vocabulary),
            min_size=num_nodes,
            max_size=num_nodes,
        )
    )
    if not num_nodes:
        return make_graph(0, [])
    node = st.integers(0, num_nodes - 1)
    if draw(st.booleans()):
        edges = draw(st.lists(st.tuples(node, node), max_size=3 * num_nodes))
    else:
        keep = draw(st.floats(0.5, 1.0))
        pairs = [(i, j) for i in range(num_nodes) for j in range(num_nodes)]
        edges = pairs[: int(keep * len(pairs))]
    return make_graph(num_nodes, edges, labels)


CASES = {
    "empty": (0, []),
    "single": (1, []),
    "single_self_loop": (1, [(0, 0)]),
    "isolated_nodes": (5, [(0, 1)]),
    "self_loops": (4, [(0, 0), (0, 1), (2, 2), (3, 3), (3, 1)]),
    "reciprocal": (4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]),
    "complete": (5, [(i, j) for i in range(5) for j in range(5)]),
}


class TestPreparedGraph:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_edge_cases_match_reference(self, case):
        assert_prepared_like_reference(make_graph(*CASES[case]))

    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def test_generated_graphs_match_reference(self, graph):
        assert_prepared_like_reference(graph)

    def test_eval_corpus_and_chunks_match_reference(self):
        records = netlist_ir_records(
            families=list(DEFAULT_EVAL_FAMILIES), instances_per_design=4, seed=2
        )
        checked = 0
        for record in records:
            assert_prepared_like_reference(record.graph)
            for sub, _ in extract_chunks(record.graph):
                assert_prepared_like_reference(sub)
                checked += 1
        assert checked > len(records)

    @pytest.mark.parametrize(
        "records, featurizer",
        [(netlist_ir_records, NETLIST_FEATURIZER), (rtl_records, RTL_FEATURIZER)],
        ids=["netlist", "rtl"],
    )
    def test_a_norm_equals_its_transpose(self, records, featurizer):
        """The training backward multiplies by ``a_norm`` in place of
        ``a_norm.T``, which is only exact while the two are byte-equal."""
        checked = 0
        for record in records(
            families=["adder8", "cmp8", "counter8", "lfsr8"],
            instances_per_design=2,
            seed=4,
        ):
            graph = to_graphir(record.graph)
            for sub in [graph] + [sub for sub, _ in extract_chunks(graph)]:
                a_norm = PreparedGraph(sub, featurizer).a_norm
                assert_csr_identical(a_norm, a_norm.T.tocsr())
                checked += 1
        assert checked > 16

    def test_no_raw_adjacency_kept(self):
        prepared = PreparedGraph(make_graph(*CASES["reciprocal"]), "netlist")
        assert not hasattr(prepared, "adjacency")
        assert prepared.a_norm.has_canonical_format


@st.composite
def weighted_matrices(draw, max_nodes=10):
    """COO matrices with duplicates, negative and cancelling weights."""
    num_nodes = draw(st.integers(1, max_nodes))
    node = st.integers(0, num_nodes - 1)
    weight = st.one_of(
        st.sampled_from([-1.0, 0.0, 1.0, 2.0]),
        st.floats(1e-3, 1e3, allow_nan=False),
    )
    entries = draw(st.lists(st.tuples(node, node, weight), max_size=40))
    rows = [row for row, _, _ in entries]
    cols = [col for _, col, _ in entries]
    data = [value for _, _, value in entries]
    return sparse.coo_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))


class TestNormalizeAdjacency:
    @settings(max_examples=300, deadline=None)
    @given(weighted_matrices(), st.booleans())
    def test_weighted_matrix_matches_reference(self, matrix, add_self_loops):
        assert_csr_identical(
            normalize_adjacency(matrix, add_self_loops=add_self_loops),
            reference_normalize(matrix, add_self_loops=add_self_loops),
        )

    def test_dense_weighted_rows_match_reference(self):
        rng = np.random.default_rng(5)
        matrix = sparse.csr_matrix(rng.random((40, 40)) * (rng.random((40, 40)) < 0.6))
        assert_csr_identical(normalize_adjacency(matrix), reference_normalize(matrix))


ADDER = """
module adder(input [3:0] a, input [3:0] b, output [4:0] s);
  assign s = a + b;
endmodule
"""


class TestEmbedMode:
    def test_failed_embed_keeps_training_mode(self):
        encoder = HW2VEC(featurizer="netlist")
        assert encoder.training
        with pytest.raises(ModelError):
            encoder.embed(dfg_from_verilog(ADDER))
        assert encoder.training
        assert encoder.dropout.training

    def test_embed_restores_eval_mode(self):
        encoder = HW2VEC(featurizer="netlist").eval()
        encoder.embed(make_graph(*CASES["reciprocal"]))
        assert not encoder.training
