"""Minimal reverse-mode automatic differentiation over numpy arrays.

This replaces PyTorch for the GNN4IP model.  A :class:`Tensor` wraps an
``ndarray``; operations build a computation graph, and :meth:`Tensor.backward`
propagates gradients with a topological traversal.  Sparse matrices
(scipy CSR) are supported as *constant* left operands of :func:`spmm`, which
is all the GCN propagation needs.
"""

import numpy as np
from scipy import sparse


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out the prepended axes first.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient tape.

    Attributes:
        data: the underlying float64 ndarray.
        grad: accumulated gradient (same shape), or ``None``.
        requires_grad: whether this tensor participates in backprop.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()

    # -- factories ---------------------------------------------------------
    @staticmethod
    def zeros(shape, requires_grad=False):
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ensure(value):
        """Wrap ``value`` in a Tensor if it is not one already."""
        return value if isinstance(value, Tensor) else Tensor(value)

    # -- shape helpers -------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __len__(self):
        return len(self.data)

    def item(self):
        return float(self.data)

    def numpy(self):
        """The raw ndarray (no copy)."""
        return self.data

    def detach(self):
        """A new Tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    # -- graph bookkeeping -----------------------------------------------
    @staticmethod
    def _make(data, parents, backward):
        """A new node over ``data``; on the tape when a parent needs grad."""
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def backward(self, grad=None):
        """Backpropagate from this tensor (default seed: ones)."""
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self.grad = grad if self.grad is None else self.grad + grad
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, grad):
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        self.grad = grad if self.grad is None else self.grad + grad

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other):
        other = Tensor.ensure(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-Tensor.ensure(other))

    def __rsub__(self, other):
        return Tensor.ensure(other) + (-self)

    def __mul__(self, other):
        other = Tensor.ensure(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor.ensure(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))

        return self._make(self.data / other.data, (self, other), backward)

    def pow(self, exponent):
        """Elementwise power with a constant exponent."""
        def backward(grad):
            if self.requires_grad:
                self._accumulate(
                    grad * exponent * np.power(self.data, exponent - 1))

        return self._make(np.power(self.data, exponent), (self,), backward)

    def sqrt(self):
        return self.pow(0.5)

    def __matmul__(self, other):
        other = Tensor.ensure(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return self._make(self.data @ other.data, (self, other), backward)

    # -- nonlinearities ------------------------------------------------------
    def relu(self):
        mask = self.data > 0

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward)

    def tanh(self):
        value = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - value ** 2))

        return self._make(value, (self,), backward)

    def sigmoid(self):
        value = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * value * (1.0 - value))

        return self._make(value, (self,), backward)

    # -- reductions -----------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        def backward(grad):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(grad, self.data.shape))
            else:
                expanded = grad if keepdims else np.expand_dims(grad, axis)
                self._accumulate(np.broadcast_to(expanded, self.data.shape))

        return self._make(self.data.sum(axis=axis, keepdims=keepdims),
                          (self,), backward)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims=False):
        """Max reduction; gradient flows to the (first) argmax positions."""
        value = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            if axis is None:
                mask = (self.data == value)
                mask = mask / mask.sum()
                self._accumulate(mask * grad)
                return
            expanded_value = value if keepdims else np.expand_dims(value, axis)
            mask = (self.data == expanded_value).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            expanded_grad = grad if keepdims else np.expand_dims(grad, axis)
            self._accumulate(mask * expanded_grad)

        return self._make(value, (self,), backward)

    def segment_reduce(self, starts, mode):
        """Per-segment ``max`` or ``sum`` over the rows of a 2-D tensor.

        Segment ``i`` is rows ``starts[i]:starts[i + 1]`` (the last runs to
        the end) and must be non-empty.  Value and gradient equal
        per-segment ``index_select`` then :meth:`max` / :meth:`sum` bit for
        bit, tie-splitting of the ``max`` gradient included.
        """
        starts = np.asarray(starts, dtype=np.int64)
        counts = np.diff(np.append(starts, len(self.data)))
        value = segment_values(self.data, starts, counts, mode)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(segment_grad(self.data, value, starts,
                                              counts, mode, grad))

        return self._make(value, (self,), backward)

    # -- indexing / shaping -----------------------------------------------
    def index_select(self, indices):
        """Select rows (axis 0) by integer array; differentiable."""
        indices = np.asarray(indices, dtype=np.int64)
        increasing = bool(np.all(indices[1:] > indices[:-1]))

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if increasing:
                    # No repeats: assign; ``+ 0.0`` rounds -0.0 as add.at does.
                    full[indices] = grad + 0.0
                else:
                    np.add.at(full, indices, grad)
                self._accumulate(full)

        return self._make(self.data[indices], (self,), backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(self.data.shape))

        return self._make(self.data.reshape(shape), (self,), backward)

    @property
    def T(self):
        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.T)

        return self._make(self.data.T, (self,), backward)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def segment_values(data, starts, counts, mode):
    """Per-segment ``max`` or ``sum`` of ``counts[i]`` rows from ``starts[i]``.

    Not ``ufunc.reduceat``: it combines rows in another order than
    ``max``/``sum(axis=0)``, changing sums and the sign of tied zeros.
    """
    reduce = np.maximum.reduce if mode == "max" else np.add.reduce
    return np.stack([reduce(data[start:start + count], axis=0)
                     for start, count in zip(starts, counts)])


def segment_grad(data, value, starts, counts, mode, grad):
    """Gradient of :func:`segment_values` with respect to ``data``.

    The ``max`` gradient is split evenly among a segment's tied maxima.
    """
    grad = np.repeat(grad, counts, axis=0)
    if mode == "max":
        hit = (data == np.repeat(value, counts, 0)) * 1.0
        ties = np.maximum(np.add.reduceat(hit, starts, 0), 1.0)
        hit /= np.repeat(ties, counts, 0)
        grad *= hit
    # ``+ 0.0`` maps -0.0 to 0.0, as ``index_select``'s scatter onto
    # zeros does.
    grad += 0.0
    return grad


def spmm(matrix, dense):
    """Sparse-constant @ dense-tensor product.

    ``matrix`` is a scipy sparse matrix treated as a constant (no gradient);
    ``dense`` is a :class:`Tensor`.  Backward uses ``matrix.T @ grad``.
    """
    if not sparse.issparse(matrix):
        raise TypeError("spmm expects a scipy sparse matrix")
    dense = Tensor.ensure(dense)
    out_data = matrix @ dense.data

    def backward(grad):
        if dense.requires_grad:
            dense._accumulate(matrix.T @ grad)

    return dense._make(out_data, (dense,), backward)


def concat(tensors, axis=0):
    """Differentiable concatenation along ``axis``."""
    tensors = [Tensor.ensure(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(data, tensors, backward)


def dot(a, b):
    """Dot product of two 1-D tensors."""
    return (a * b).sum()


def l2_norm(a, eps=1e-12):
    """Euclidean norm of a 1-D tensor (stabilized)."""
    return ((a * a).sum() + eps).sqrt()


def cosine_similarity(a, b, eps=1e-12):
    """Cosine similarity of two 1-D tensors (Eq. 6 of the paper)."""
    return dot(a, b) / (l2_norm(a, eps) * l2_norm(b, eps))
