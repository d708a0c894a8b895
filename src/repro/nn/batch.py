"""Batched graph compute: many graphs through one forward (or backward) pass.

:class:`~repro.core.hw2vec.HW2VEC` embeds one graph per call, which wastes
time on per-graph Python and small-matrix overhead when embedding a corpus.
Batching packs the graphs into one block-diagonal system:

- node features are stacked into a single ``(sum(N_i), F)`` matrix, and
- the graphs' cached normalized adjacencies, canonical CSR arrays built
  in numpy at preparation (:func:`~repro.nn.layers.normalized_csr`),
  become one block-diagonal CSR matrix by concatenating them in O(nnz),

so every GCN layer runs as a single sparse @ dense @ dense product over the
whole batch.  The normalized adjacency has no cross-block entries, so the
batched math is exactly the per-graph math; the only numerical difference
is BLAS summation order on the larger matrices, which the tests bound at
1e-9 relative against :meth:`HW2VEC.embed` in eval mode.

The pooling / readout tail is segment-wise rather than per graph: a
stable argsort per segment picks every graph's top-k nodes
(:func:`~repro.nn.pooling.segment_topk`), and one readout
(:func:`~repro.nn.tensor.segment_values`) reduces each graph's gated
nodes to its embedding row.

Two entry points share the packing:

- :func:`batched_forward` / :func:`batched_embed` — raw-numpy eval path
  for inference (no gradient tape, dropout always off).
- :func:`batched_forward_tensor` + :func:`batched_pair_loss` — the
  training path: the whole encoder (GCN stack, SAGPool gate, readout) is
  one hand-written :class:`~repro.nn.tensor.Tensor` node whose backward
  writes every parameter's gradient, so one ``backward()`` call
  propagates gradients for a whole minibatch of graphs and pair losses.
"""

import numpy as np
from scipy import sparse

from repro.nn.pooling import segment_topk
from repro.nn.tensor import Tensor, segment_grad, segment_values


class GraphBatch:
    """A packed batch of prepared graphs.

    Attributes:
        features: stacked node features, ``(total_nodes, F)``.
        a_norm: block-diagonal normalized adjacency (CSR).
        sizes: node count per graph.
        offsets: start row of each graph's node segment (len = n_graphs+1).
        propagated: ``a_norm @ features`` when the packer has it cached
            (the trainer does), else ``None``.  Layer 0's propagation is
            a constant, and the row-wise CSR product makes the stack of
            per-graph products equal the block product byte for byte.
    """

    __slots__ = ("features", "a_norm", "sizes", "offsets", "propagated")

    def __init__(self, features, a_norm, sizes):
        self.features = features
        self.a_norm = a_norm
        self.sizes = list(sizes)
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.propagated = None

    def __len__(self):
        return len(self.sizes)


def pack_prepared(prepared_graphs):
    """Pack :class:`~repro.core.hw2vec.PreparedGraph` objects into a batch.

    Reuses each graph's cached ``a_norm``, so normalization is never
    recomputed.  The blocks are canonical CSR, so concatenating their
    ``data``/``indices``/``indptr`` arrays with node and nonzero offsets
    gives ``sparse.block_diag(..., format="csr")`` element for element.
    """
    prepared = list(prepared_graphs)
    if not prepared:
        raise ValueError("cannot pack an empty graph batch")
    blocks = [p.a_norm for p in prepared]
    sizes = [p.num_nodes for p in prepared]
    nodes = np.cumsum([0] + sizes).tolist()
    nnz = np.cumsum([0] + [block.nnz for block in blocks]).tolist()
    data = np.concatenate([block.data for block in blocks])
    indices = np.concatenate([block.indices + start
                              for block, start in zip(blocks, nodes)])
    indptr = np.concatenate([[0]] + [block.indptr[1:] + start
                                     for block, start in zip(blocks, nnz)])
    a_norm = sparse.csr_matrix((data, indices, indptr),
                               shape=(nodes[-1], nodes[-1]))
    features = np.vstack([p.features for p in prepared])
    return GraphBatch(features, a_norm, sizes)


def batched_forward(encoder, batch):
    """Eval-mode forward pass over a :class:`GraphBatch`.

    Args:
        encoder: a :class:`~repro.core.hw2vec.HW2VEC` (weights are read
            directly; the encoder's train/eval mode is ignored — dropout
            is always off, matching ``embed``).
        batch: output of :func:`pack_prepared`.

    Returns:
        ``(n_graphs, hidden)`` embedding matrix.
    """
    x = batch.features
    for conv in encoder.convs:
        x = batch.a_norm @ x @ conv.weight.data
        if conv.bias is not None:
            x = x + conv.bias.data
        np.maximum(x, 0.0, out=x)

    score_layer = encoder.pool.score_layer
    scores = batch.a_norm @ x @ score_layer.weight.data
    if score_layer.bias is not None:
        scores = scores + score_layer.bias.data
    scores = scores.ravel()

    kept, counts = segment_topk(scores, batch.sizes, encoder.pool.ratio)
    starts = np.cumsum(counts) - counts
    gated = x[kept] * np.tanh(scores[kept])[:, None]
    mode = encoder.readout.mode
    out = segment_values(gated, starts, counts,
                         "max" if mode == "max" else "sum")
    return out / counts[:, None] if mode == "mean" else out


def _dropout_masks(dropout, batch, layers, width):
    """Every layer's dropout mask for the batch, from one RNG draw.

    Rows are drawn graph-major, layer-minor — the RNG order of per-graph
    :meth:`HW2VEC.forward` calls — then regrouped as booleans into one
    mask per layer and scaled once.
    """
    sizes = np.asarray(batch.sizes)
    graph = np.repeat(np.arange(len(sizes)), sizes)
    kept = dropout.keep_mask((layers * len(graph), width))
    # Graph g's block for layer l starts at row layers * offsets[g] + l * N_g.
    rows = np.arange(len(graph)) + (layers - 1) * batch.offsets[graph]
    rows = rows + np.arange(layers)[:, None] * sizes[graph]
    return list(np.take(kept, rows, axis=0) * dropout.scale)


def batched_forward_tensor(encoder, batch):
    """Training forward pass over a :class:`GraphBatch`: one autograd node.

    The differentiable twin of :func:`batched_forward`, kept apart from
    it because each pins its own bytes: the tape's ReLU (``x * (x > 0)``)
    and mean readout (``* (1 / count)``) differ from the eval path's
    ``np.maximum`` and division in zero signs and last bits.  The GCN stack,
    dropout (the encoder's train/eval mode decides), the SAGPool gate and
    the segment readout run in plain numpy, keeping what the backward
    needs; the returned node's hand-written backward writes each encoder
    parameter's gradient through ``_accumulate``.  Forward and backward do
    the arithmetic of the equivalent composition of
    :class:`~repro.nn.tensor.Tensor` ops (``GCNConv`` → ``relu`` →
    dropout per layer, then ``index_select``/``tanh``/``segment_reduce``)
    operation for operation, in the same order, so values and gradients
    equal that tape's bit for bit.  One exception in form, not in value:
    the backward propagates through ``a_norm @ g`` where the tape used
    ``a_norm.T @ g``.  Graph preparation builds ``a_norm`` from symmetric
    edge keys, so it equals its transpose byte for byte, and both
    products sum each row in ascending column order.

    Dropout masks follow the RNG order of per-graph :meth:`HW2VEC.forward`
    calls over the same graphs (see :func:`_dropout_masks`).  Because the
    blocks share no entries, the gradients equal the sum of per-graph
    backward passes.

    Returns:
        ``(n_graphs, hidden)`` embedding Tensor.
    """
    convs = encoder.convs
    score_layer = encoder.pool.score_layer
    a_norm = batch.a_norm
    dropout = encoder.dropout
    masks = None
    if dropout.training and dropout.rate > 0.0:
        masks = _dropout_masks(dropout, batch, len(convs), encoder.hidden)

    # Each layer's propagated input is its weight gradient's left factor.
    inputs, relus = [], []
    x = batch.features
    for layer, conv in enumerate(convs):
        if layer == 0 and batch.propagated is not None:
            inputs.append(batch.propagated)
        else:
            inputs.append(a_norm @ x)
        x = inputs[-1] @ conv.weight.data
        if conv.bias is not None:
            x += conv.bias.data
        relus.append(x > 0)
        x *= relus[-1]
        if masks is not None:
            x *= masks[layer]
    inputs.append(a_norm @ x)
    scores = inputs[-1] @ score_layer.weight.data
    if score_layer.bias is not None:
        scores += score_layer.bias.data
    scores = scores.reshape(scores.shape[0])

    # Top-k selection is data-dependent but not differentiated (exactly as
    # in SAGPool), so the kept indices come from the raw score values.
    kept, counts = segment_topk(scores, batch.sizes, encoder.pool.ratio)
    starts = np.cumsum(counts) - counts
    tanh = np.tanh(scores[kept])
    gate = tanh.reshape(len(kept), 1)
    picked = np.take(x, kept, axis=0)
    gated = picked * gate
    mean = encoder.readout.mode == "mean"
    reduce = "max" if encoder.readout.mode == "max" else "sum"
    readout = segment_values(gated, starts, counts, reduce)
    inverse = 1.0 / counts[:, None]
    out = readout * inverse if mean else readout

    def backward(grad):
        if mean:
            grad = grad * inverse
        grad = segment_grad(gated, readout, starts, counts, reduce, grad)
        grad_tanh = (grad * picked).sum(axis=1) * (1.0 - tanh ** 2)
        grad_scores = np.zeros_like(scores)
        grad_scores[kept] = grad_tanh + 0.0
        grad_scores = grad_scores.reshape(len(scores), 1)
        if score_layer.bias is not None:
            score_layer.bias._accumulate(grad_scores)
        score_layer.weight._accumulate(inputs[-1].T @ grad_scores)
        grad_x = np.zeros_like(x)
        grad_x[kept] = grad * gate + 0.0
        grad_x += a_norm @ (grad_scores @ score_layer.weight.data.T)
        for layer in reversed(range(len(convs))):
            conv = convs[layer]
            if masks is not None:
                grad_x *= masks[layer]
            grad_x *= relus[layer]
            if conv.bias is not None:
                conv.bias._accumulate(grad_x)
            conv.weight._accumulate(inputs[layer].T @ grad_x)
            if layer:
                grad_x = a_norm @ (grad_x @ conv.weight.data.T)

    return Tensor._make(out, encoder.parameters(), backward)


def batched_pair_loss(embeddings, pairs, margin=0.5, positive_weight=1.0,
                      eps=1e-12):
    """Vectorized cosine-embedding loss (Eq. 7) over rows of a batch.

    Args:
        embeddings: ``(m, hidden)`` Tensor (e.g. from
            :func:`batched_forward_tensor`).
        pairs: iterable of ``(i, j, label)`` row-index pairs with label in
            {+1, -1}.
        margin: the paper fixes this to 0.5.
        positive_weight: loss weight for similar pairs (class balancing).

    Returns:
        (mean loss Tensor, ``(n_pairs,)`` numpy similarity array) — both
        matching a per-pair :func:`~repro.nn.loss.cosine_embedding_loss`
        loop to summation-order rounding.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no pairs given")
    left = embeddings.index_select([i for i, _, _ in pairs])
    right = embeddings.index_select([j for _, j, _ in pairs])
    dots = (left * right).sum(axis=1)
    norms_l = ((left * left).sum(axis=1) + eps).sqrt()
    norms_r = ((right * right).sum(axis=1) + eps).sqrt()
    sims = dots / (norms_l * norms_r)

    labels = np.array([label for _, _, label in pairs])
    positive = np.flatnonzero(labels == 1)
    negative = np.flatnonzero(labels != 1)
    total = Tensor(0.0)
    if len(positive):
        pos_loss = (1.0 - sims.index_select(positive)).sum()
        if positive_weight != 1.0:
            pos_loss = pos_loss * positive_weight
        total = total + pos_loss
    if len(negative):
        total = total + (sims.index_select(negative) - margin).relu().sum()
    return total * (1.0 / len(pairs)), sims.data.copy()


def batched_embed(encoder, graphs, batch_size=64):
    """Embed a sequence of DFGs (or PreparedGraphs) in large batches.

    Splits the input into batches of at most ``batch_size`` graphs to bound
    peak memory, packs each, and runs :func:`batched_forward`.  Results
    match per-graph :meth:`HW2VEC.embed` calls to BLAS rounding (~1e-9
    relative).

    Returns:
        ``(n, hidden)`` numpy array in input order.
    """
    from repro.core.hw2vec import PreparedGraph

    items = list(graphs)
    if not items:
        return np.empty((0, encoder.hidden))
    prepared = [item if isinstance(item, PreparedGraph)
                else encoder.prepare(item) for item in items]
    chunks = []
    for start in range(0, len(prepared), batch_size):
        batch = pack_prepared(prepared[start:start + batch_size])
        chunks.append(batched_forward(encoder, batch))
    return np.vstack(chunks)
