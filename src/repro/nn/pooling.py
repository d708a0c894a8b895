"""Graph pooling: self-attention top-k pooling (SAGPool) and readout.

SAGPool (Lee et al. [28], as used by the paper's Graph_Pool layer): a GCN
scoring layer predicts one attention value per node, the top ``ceil(ratio*N)``
nodes are kept, and the surviving node features are gated by ``tanh`` of
their scores.  Readout (Eq. 3) reduces node embeddings to one graph vector
by max / mean / sum.
"""

import numpy as np

from repro.nn.layers import GCNConv, Module
from repro.nn.tensor import Tensor


def segment_topk(scores, sizes, ratio):
    """:func:`topk_nodes` for consecutive graphs of ``sizes`` nodes at once.

    Each segment of ``scores`` is ordered by its own stable descending
    argsort, so ties keep node order.  Returns the ascending kept indices
    into ``scores`` and the number kept per graph.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    keep = np.maximum(1, np.ceil(ratio * sizes).astype(np.int64))
    counts = np.minimum(keep, sizes)
    starts = np.cumsum(sizes) - sizes
    negated = -np.asarray(scores)
    tops = [np.empty(0, dtype=np.int64)]
    for start, size, count in zip(starts.tolist(), sizes.tolist(),
                                  counts.tolist()):
        tops.append(np.argsort(negated[start:start + size],
                               kind="stable")[:count])
    kept = np.concatenate(tops) + np.repeat(starts, counts)
    kept.sort()
    return kept, counts


def topk_nodes(scores, num_nodes, ratio):
    """Indices of the kept nodes: top ``ceil(ratio * N)`` by score.

    The single source of truth for SAGPool's selection semantics — stable
    descending order (ties keep node order), at least one survivor, kept
    indices re-sorted ascending.  It is the one-segment case of
    :func:`segment_topk`, which the batched forward paths in
    :mod:`repro.nn.batch` use, so all call sites select identically.
    """
    return segment_topk(scores, [num_nodes], ratio)[0]


class SAGPool(Module):
    """Self-attention graph pooling with top-k node filtering.

    Args:
        channels: node embedding width entering the pool.
        ratio: fraction of nodes kept (the paper uses 0.5).
    """

    def __init__(self, channels, ratio=0.5, rng=None):
        super().__init__()
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"pooling ratio must be in (0, 1], got {ratio}")
        self.ratio = ratio
        self.score_layer = self.register_module(
            "score", GCNConv(channels, 1, rng=rng))

    def forward(self, x, a_norm):
        """Pool the graph.

        Args:
            x: (N, C) node embeddings.
            a_norm: normalized adjacency used by the scoring GCN.

        Returns:
            (x_pool, kept_indices)
        """
        num_nodes = x.shape[0]
        scores = self.score_layer(x, a_norm).reshape(num_nodes)
        kept = topk_nodes(scores.data, num_nodes, self.ratio)
        gate = scores.index_select(kept).tanh().reshape(len(kept), 1)
        return x.index_select(kept) * gate, kept


_READOUTS = ("max", "mean", "sum")


class Readout(Module):
    """Graph readout (Eq. 3): aggregate node embeddings to a graph vector."""

    def __init__(self, mode="max"):
        super().__init__()
        if mode not in _READOUTS:
            raise ValueError(f"readout mode must be one of {_READOUTS}")
        self.mode = mode

    def forward(self, x):
        if self.mode == "max":
            return x.max(axis=0)
        if self.mode == "mean":
            return x.mean(axis=0)
        return x.sum(axis=0)


def readout(x, mode="max"):
    """Functional form of :class:`Readout`."""
    return Readout(mode)(Tensor.ensure(x))
