"""Neural-network modules: Linear, GCN convolution, dropout.

The GCN layer implements Eq. 5 of the paper:

    X' = sigma( D^-1/2 (A + I) D^-1/2 X W )

The normalized adjacency is precomputed per graph (it is constant) with
:func:`normalized_csr` (numpy, O(nnz)); the layer then only does
sparse @ dense @ W.
"""

import numpy as np
from scipy import sparse

from repro.nn.tensor import Tensor, spmm


class Module:
    """Base class: parameter registration and train/eval mode."""

    def __init__(self):
        self._parameters = {}
        self._modules = {}
        self.training = True

    def register_parameter(self, name, tensor):
        tensor.requires_grad = True
        self._parameters[name] = tensor
        return tensor

    def register_module(self, name, module):
        self._modules[name] = module
        return module

    def parameters(self):
        """All trainable tensors, depth-first."""
        params = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix=""):
        """(name, tensor) pairs, depth-first."""
        items = [(prefix + name, tensor)
                 for name, tensor in self._parameters.items()]
        for mod_name, module in self._modules.items():
            items.extend(module.named_parameters(f"{prefix}{mod_name}."))
        return items

    def zero_grad(self):
        for param in self.parameters():
            param.zero_grad()

    def train(self):
        self.training = True
        for module in self._modules.values():
            module.train()
        return self

    def eval(self):
        self.training = False
        for module in self._modules.values():
            module.eval()
        return self

    def state_dict(self):
        """Copy of all parameter arrays, keyed by dotted name."""
        return {name: tensor.data.copy()
                for name, tensor in self.named_parameters()}

    def load_state_dict(self, state):
        named = dict(self.named_parameters())
        missing = set(named) - set(state)
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")
        for name, tensor in named.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != tensor.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {tensor.data.shape}")
            tensor.data = value.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def glorot(shape, rng):
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_features, out_features, bias=True, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", Tensor(glorot((in_features, out_features), rng)))
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Tensor(np.zeros(out_features)))

    def forward(self, x):
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


def normalized_csr(num_nodes, keys, values, add_self_loops=True):
    """``D^-1/2 (A + I) D^-1/2`` as a canonical CSR, in O(nnz) numpy.

    ``A`` is given by the sorted, unique flat keys ``row * N + col`` of
    its entries and their ``values``.  The result equals the scipy
    formula ``diags(d) @ (A + I) @ diags(d)`` bit for bit: self-loops
    gain 1.0, zeros are dropped, degrees are summed in scipy's
    ``np.add.reduceat`` order and entries scale as ``(d[i] * a) * d[j]``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if add_self_loops:
        keys = np.concatenate([keys, np.arange(num_nodes) * (num_nodes + 1)])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = np.concatenate([values, np.ones(num_nodes)])[order]
        repeat = np.flatnonzero(keys[1:] == keys[:-1])  # A's own self-loops
        values[repeat] += values[repeat + 1]
        keep = values != 0
        keep[repeat + 1] = False
        keys, values = keys[keep], values[keep]
    rows, cols = np.divmod(keys, max(num_nodes, 1))
    counts = np.bincount(rows, minlength=num_nodes)
    starts = np.cumsum(counts) - counts
    degree = np.zeros(num_nodes)
    degree[counts > 0] = np.add.reduceat(values, starts[counts > 0])
    inv_sqrt = np.zeros_like(degree)
    positive = degree > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degree[positive])
    data = (inv_sqrt[rows] * values) * inv_sqrt[cols]
    kept = data != 0
    index = np.int32 if max(num_nodes, len(data)) < 2**31 else np.int64
    indptr = np.searchsorted(rows[kept], np.arange(num_nodes + 1))
    return sparse.csr_matrix((data[kept], cols[kept].astype(index),
                              indptr.astype(index)),
                             shape=(num_nodes, num_nodes), copy=False)


def normalize_adjacency(adjacency, add_self_loops=True):
    """Symmetric GCN normalization ``D^-1/2 (A + I) D^-1/2`` (CSR).

    Args:
        adjacency: scipy sparse adjacency matrix (N x N).
        add_self_loops: add the identity (the paper's ``A + I``).
    """
    matrix = adjacency.tocsr().astype(np.float64)
    matrix.sum_duplicates()
    num_nodes = matrix.shape[0]
    rows = np.repeat(np.arange(num_nodes), np.diff(matrix.indptr))
    return normalized_csr(num_nodes, rows * num_nodes + matrix.indices,
                          matrix.data, add_self_loops)


class GCNConv(Module):
    """Graph convolution (Kipf & Welling), Eq. 5 of the paper.

    ``forward(x, a_norm)`` expects the *pre-normalized* adjacency so that the
    normalization cost is paid once per graph, not once per layer call.
    """

    def __init__(self, in_features, out_features, bias=True, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", Tensor(glorot((in_features, out_features), rng)))
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                "bias", Tensor(np.zeros(out_features)))

    def forward(self, x, a_norm):
        out = spmm(a_norm, x) @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate=0.1, rng=None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng or np.random.default_rng(0)

    @property
    def scale(self):
        """The factor kept activations are scaled by, ``1 / (1 - rate)``."""
        return 1.0 / (1.0 - self.rate)

    def keep_mask(self, shape):
        """Draw one boolean keep mask, consuming the module RNG.

        Exposed so the block-diagonal batched trainer can draw a whole
        batch's masks in one call, in the per-graph forward order, and
        regroup them as booleans before scaling.
        """
        return self._rng.random(shape) < 1.0 - self.rate

    def draw_mask(self, shape):
        """Draw one inverted-dropout mask: a keep mask times :attr:`scale`."""
        return self.keep_mask(shape) * self.scale

    def forward(self, x):
        if not self.training or self.rate == 0.0:
            return x
        return x * Tensor(self.draw_mask(x.shape))
