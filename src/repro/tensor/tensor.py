"""Core autograd :class:`Tensor`.

A :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations applied
to it so that gradients can be computed with reverse-mode automatic
differentiation.  The design follows the familiar define-by-run style of
PyTorch: every operation returns a new tensor whose ``_backward`` closure knows
how to propagate gradients to its parents.

Only the operations required by the DTDBD reproduction are implemented, but
they are implemented fully (broadcasting, N-d matmul, advanced indexing for
embeddings, stable log-softmax, concatenation, max-pooling, ...) and each
backward rule is covered by numerical-gradient tests in
``tests/tensor/test_autograd.py``.

Performance notes
-----------------
* Floating dtype is governed by the global policy in
  :mod:`repro.tensor.dtype` (``float64`` by default, switchable to
  ``float32`` for roughly 2x faster training).
* Under :func:`no_grad` every operation takes an early-return fast path that
  performs only the NumPy computation: no backward closure is created, no
  graph node is recorded and no parent bookkeeping happens.  The module-level
  counter :func:`graph_nodes_created` makes this observable for tests.
* Gradient accumulation avoids defensive copies whenever the incoming array
  is already exclusively owned (freshly allocated by a backward rule or by
  un-broadcasting).
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Sequence

import numpy as np

from repro.tensor.dtype import get_default_dtype

_GRAD_ENABLED = True

#: Total number of graph nodes recorded since process start (monotonic).
_GRAPH_NODES = 0


def is_grad_enabled() -> bool:
    """Return whether gradient recording is currently enabled."""
    return _GRAD_ENABLED


def graph_nodes_created() -> int:
    """Monotonic count of autograd graph nodes recorded so far.

    Snapshot it around a region to count how many nodes that region built;
    under :func:`no_grad` the difference must be zero.
    """
    return _GRAPH_NODES


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it has ``shape`` (inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=None) -> np.ndarray:
    if dtype is None:
        dtype = get_default_dtype()
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


def _wrap(data) -> "Tensor":
    """Fast constructor for op results: wrap without dtype coercion."""
    out = Tensor.__new__(Tensor)
    out.data = data if isinstance(data, np.ndarray) else np.asarray(data)
    out.requires_grad = False
    out.grad = None
    out._backward = None
    out._prev = ()
    out.name = ""
    return out


def _attach(data, parents: tuple["Tensor", ...], backward) -> "Tensor":
    """Record a graph node: wrap ``data`` and hook up the backward closure."""
    global _GRAPH_NODES
    out = _wrap(data)
    out.requires_grad = True
    out._prev = tuple(p for p in parents if p.requires_grad or p._prev)
    out._backward = backward
    _GRAPH_NODES += 1
    return out


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: ``exp`` is only ever applied to ``-|x|``."""
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


class Tensor:
    """An N-dimensional array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward = None
        self._prev: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Constructors                                                        #
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=get_default_dtype()), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=get_default_dtype()), requires_grad=requires_grad)

    @staticmethod
    def full(shape: Sequence[int], value: float, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.full(tuple(shape), value, dtype=get_default_dtype()),
                      requires_grad=requires_grad)

    @staticmethod
    def uniform(shape: Sequence[int], low: float = -1.0, high: float = 1.0,
                rng: np.random.Generator | None = None,
                requires_grad: bool = False) -> "Tensor":
        from repro.utils import fallback_rng

        rng = rng if rng is not None else fallback_rng()
        return Tensor(rng.uniform(low, high, size=tuple(shape)), requires_grad=requires_grad)

    # ------------------------------------------------------------------ #
    # Basic properties                                                    #
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a tensor with exactly one element")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        """Return a detached copy cast to ``dtype`` (no gradient flow)."""
        return Tensor(self.data.astype(np.dtype(dtype)), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Autograd driver                                                     #
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate gradients from this tensor through the graph."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad, self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}")
            # Own the seed gradient so in-place accumulation can never touch
            # a caller-provided array.
            grad = grad.copy()

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = grad if self.grad is None else self.grad + grad
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accumulate_grad(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``owned=True`` promises that ``grad`` is a freshly allocated array that
        no one else references, so it can be stored without a defensive copy.
        Un-broadcasting always allocates, so a shape mismatch upgrades the
        gradient to owned automatically.
        """
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
            owned = True
        if self.grad is None:
            self.grad = grad if owned else grad.copy()
        else:
            self.grad += grad

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        if not _GRAD_ENABLED or not any(p.requires_grad for p in parents):
            return _wrap(data)
        return _attach(data, parents, backward)

    # ------------------------------------------------------------------ #
    # Arithmetic                                                          #
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data
        if not _GRAD_ENABLED or not (self.requires_grad or other.requires_grad):
            return _wrap(data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate_grad(grad)
            if other.requires_grad:
                other._accumulate_grad(grad)

        return _attach(data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data
        if not _GRAD_ENABLED or not (self.requires_grad or other.requires_grad):
            return _wrap(data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate_grad(grad * other.data, owned=True)
            if other.requires_grad:
                other._accumulate_grad(grad * self.data, owned=True)

        return _attach(data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        data = -self.data
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)

        def backward(grad):
            self._accumulate_grad(-grad, owned=True)

        return _attach(data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data - other.data
        if not _GRAD_ENABLED or not (self.requires_grad or other.requires_grad):
            return _wrap(data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate_grad(grad)
            if other.requires_grad:
                other._accumulate_grad(-grad, owned=True)

        return _attach(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = other.data - self.data
        if not _GRAD_ENABLED or not (self.requires_grad or other.requires_grad):
            return _wrap(data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate_grad(-grad, owned=True)
            if other.requires_grad:
                other._accumulate_grad(grad)

        return _attach(data, (self, other), backward)

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data
        if not _GRAD_ENABLED or not (self.requires_grad or other.requires_grad):
            return _wrap(data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate_grad(grad / other.data, owned=True)
            if other.requires_grad:
                other._accumulate_grad(-grad * data / other.data, owned=True)

        return _attach(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = other.data / self.data
        if not _GRAD_ENABLED or not (self.requires_grad or other.requires_grad):
            return _wrap(data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate_grad(-grad * data / self.data, owned=True)
            if other.requires_grad:
                other._accumulate_grad(grad / self.data, owned=True)

        return _attach(data, (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)

        def backward(grad):
            self._accumulate_grad(grad * exponent * self.data ** (exponent - 1.0), owned=True)

        return _attach(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = np.matmul(self.data, other.data)
        if not _GRAD_ENABLED or not (self.requires_grad or other.requires_grad):
            return _wrap(data)

        def backward(grad):
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.multiply.outer(grad, other.data) if self.data.ndim > 1 \
                        else grad * other.data
                else:
                    grad_self = np.matmul(grad, np.swapaxes(other.data, -1, -2))
                self._accumulate_grad(grad_self, owned=True)
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.multiply.outer(self.data, grad)
                else:
                    grad_other = np.matmul(np.swapaxes(self.data, -1, -2), grad)
                other._accumulate_grad(grad_other, owned=True)

        return _attach(data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Reductions                                                          #
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)

        def backward(grad):
            if axis is None:
                expanded = np.broadcast_to(grad, self.data.shape)
            else:
                grad_local = grad
                if not keepdims:
                    grad_local = np.expand_dims(grad_local, axis=axis)
                expanded = np.broadcast_to(grad_local, self.data.shape)
            self._accumulate_grad(expanded)

        return _attach(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        data = self.data.mean(axis=axis, keepdims=keepdims)
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)
        scale = 1.0 / count

        def backward(grad):
            grad_local = grad
            if axis is not None and not keepdims:
                grad_local = np.expand_dims(grad_local, axis=axis)
            self._accumulate_grad(np.broadcast_to(grad_local, self.data.shape) * scale,
                                  owned=True)

        return _attach(data, (self,), backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)

        def backward(grad):
            if axis is None:
                mask = (self.data == self.data.max()).astype(self.data.dtype)
                mask /= mask.sum()
                self._accumulate_grad(mask * grad, owned=True)
                return
            grad_local = grad
            max_local = data
            if not keepdims:
                grad_local = np.expand_dims(grad_local, axis=axis)
                max_local = np.expand_dims(max_local, axis=axis)
            mask = (self.data == max_local).astype(self.data.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate_grad(mask * grad_local, owned=True)

        return _attach(data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # Element-wise non-linearities                                        #
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)

        def backward(grad):
            self._accumulate_grad(grad * data, owned=True)

        return _attach(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)

        def backward(grad):
            self._accumulate_grad(grad / self.data, owned=True)

        return _attach(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)

        def backward(grad):
            self._accumulate_grad(grad * (1.0 - data ** 2), owned=True)

        return _attach(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = _stable_sigmoid(self.data)
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)

        def backward(grad):
            self._accumulate_grad(grad * data * (1.0 - data), owned=True)

        return _attach(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)

        def backward(grad):
            self._accumulate_grad(grad * (self.data > 0.0), owned=True)

        return _attach(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)

        def backward(grad):
            self._accumulate_grad(grad * np.sign(self.data), owned=True)

        return _attach(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)

        def backward(grad):
            mask = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)
            self._accumulate_grad(grad * mask, owned=True)

        return _attach(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Shape manipulation                                                  #
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)

        def backward(grad):
            self._accumulate_grad(grad.reshape(self.data.shape))

        return _attach(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes)
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)
        inverse = np.argsort(axes)

        def backward(grad):
            self._accumulate_grad(grad.transpose(inverse))

        return _attach(data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def squeeze(self, axis: int | None = None) -> "Tensor":
        new_shape = list(self.data.shape)
        if axis is None:
            new_shape = [s for s in new_shape if s != 1]
        else:
            if new_shape[axis] != 1:
                raise ValueError("cannot squeeze a dimension that is not 1")
            new_shape.pop(axis)
        return self.reshape(tuple(new_shape))

    def unsqueeze(self, axis: int) -> "Tensor":
        new_shape = list(self.data.shape)
        axis = axis if axis >= 0 else axis + self.data.ndim + 1
        new_shape.insert(axis, 1)
        return self.reshape(tuple(new_shape))

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        if not _GRAD_ENABLED or not self.requires_grad:
            return _wrap(data)

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate_grad(full, owned=True)

        return _attach(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Combination helpers                                                 #
    # ------------------------------------------------------------------ #
    @staticmethod
    def cat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = list(tensors)
        data = np.concatenate([t.data for t in tensors], axis=axis)
        if not _GRAD_ENABLED or not any(t.requires_grad for t in tensors):
            return _wrap(data)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad):
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate_grad(grad[tuple(slicer)])

        return _attach(data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        return Tensor.cat([t.unsqueeze(axis) for t in tensors], axis=axis)

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        a = Tensor._coerce(a)
        b = Tensor._coerce(b)
        cond = np.asarray(condition, dtype=bool)
        data = np.where(cond, a.data, b.data)
        if not _GRAD_ENABLED or not (a.requires_grad or b.requires_grad):
            return _wrap(data)

        def backward(grad):
            if a.requires_grad:
                a._accumulate_grad(grad * cond, owned=True)
            if b.requires_grad:
                b._accumulate_grad(grad * (~cond), owned=True)

        return _attach(data, (a, b), backward)

    # ------------------------------------------------------------------ #
    # Comparison helpers (no gradient, returned as numpy arrays)          #
    # ------------------------------------------------------------------ #
    def argmax(self, axis: int | None = None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    def __gt__(self, other) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Functional alias for :meth:`Tensor.cat`."""
    return Tensor.cat(list(tensors), axis=axis)
