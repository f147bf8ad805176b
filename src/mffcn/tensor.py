"""Dense float tensors with reverse-mode differentiation on an explicit tape.

Every differentiable operation appends one record to the innermost active
Tape; Tape.backward replays the records exactly once, newest first, so
gradients accumulate additively across repeated uses of a tensor. Tensors
are treated as immutable values by all operations; only ``.grad`` (and the
explicit BatchNorm running state, which lives outside tensors) mutates.

Storage is float32 by default. float64 tensors are supported end to end and
are what the gradient-check suites use; full reductions (sum, mean) always
accumulate in 64-bit regardless of storage dtype.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence, Union

import numpy as np

Scalar = Union[int, float]

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
DEFAULT_DTYPE = np.float32


class TensorError(ValueError):
    """Base class for tensor-engine contract violations."""


class ShapeError(TensorError):
    pass


class NonFiniteError(TensorError):
    pass


_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "tapes", None)
    if stack is None:
        stack = []
        _tls.tapes = stack
    return stack


def active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


def grad_enabled() -> bool:
    return getattr(_tls, "grad_enabled", True)


class no_grad:
    """Context manager that suspends tape recording."""

    def __enter__(self) -> "no_grad":
        self._prev = grad_enabled()
        _tls.grad_enabled = False
        return self

    def __exit__(self, *exc) -> bool:
        _tls.grad_enabled = self._prev
        return False


class Tensor:
    """N-dimensional float array, optionally participating in the active tape.

    All extents are positive and all elements finite; both are enforced at
    construction, so every public operation hands back a validated value.
    ``grad`` is a same-shape numpy buffer, allocated on first accumulation
    and only ever populated for tensors with ``requires_grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is not None:
            if np.dtype(dtype) not in FLOAT_DTYPES:
                raise TensorError(f"tensors store float32 or float64, not {dtype}")
            arr = np.asarray(data, dtype=dtype)
        elif isinstance(data, (np.ndarray, np.generic)) and data.dtype in FLOAT_DTYPES:
            arr = np.asarray(data)
        else:
            arr = np.asarray(data, dtype=DEFAULT_DTYPE)
        if any(d <= 0 for d in arr.shape):
            raise ShapeError(f"tensor extents must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor holds NaN or Inf values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._tape: Optional[Tape] = None

    # -- inspection ---------------------------------------------------------

    @property
    def dims(self) -> tuple:
        return self.data.shape

    @property
    def shape(self) -> tuple:
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

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got {self.dims}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.dims}, dtype={self.data.dtype}{flag})"

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad)

    # -- elementwise arithmetic (strict shapes; scalars broadcast) ----------

    def _binary_shapes(self, other: "Tensor", op: str) -> None:
        if self.dims != other.dims:
            raise ShapeError(f"{op}: operand shapes differ, {self.dims} vs {other.dims}")

    def __add__(self, other: Union["Tensor", Scalar]) -> "Tensor":
        if isinstance(other, Tensor):
            self._binary_shapes(other, "add")
            out = Tensor(self.data + other.data)

            def backward(g: np.ndarray) -> None:
                _accumulate(self, g)
                _accumulate(other, g)

            return record(out, (self, other), backward)
        out = Tensor(self.data + float(other))

        def backward_s(g: np.ndarray) -> None:
            _accumulate(self, g)

        return record(out, (self,), backward_s)

    def __radd__(self, other: Scalar) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: Union["Tensor", Scalar]) -> "Tensor":
        if isinstance(other, Tensor):
            self._binary_shapes(other, "sub")
            out = Tensor(self.data - other.data)

            def backward(g: np.ndarray) -> None:
                _accumulate(self, g)
                _accumulate(other, -g)

            return record(out, (self, other), backward)
        out = Tensor(self.data - float(other))

        def backward_s(g: np.ndarray) -> None:
            _accumulate(self, g)

        return record(out, (self,), backward_s)

    def __rsub__(self, other: Scalar) -> "Tensor":
        out = Tensor(float(other) - self.data)

        def backward(g: np.ndarray) -> None:
            _accumulate(self, -g)

        return record(out, (self,), backward)

    def __mul__(self, other: Union["Tensor", Scalar]) -> "Tensor":
        if isinstance(other, Tensor):
            self._binary_shapes(other, "mul")
            a, b = self.data, other.data
            out = Tensor(a * b)

            def backward(g: np.ndarray) -> None:
                _accumulate(self, g * b)
                _accumulate(other, g * a)

            return record(out, (self, other), backward)
        s = float(other)
        out = Tensor(self.data * s)

        def backward_s(g: np.ndarray) -> None:
            _accumulate(self, g * s)

        return record(out, (self,), backward_s)

    def __rmul__(self, other: Scalar) -> "Tensor":
        return self.__mul__(other)

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data)

        def backward(g: np.ndarray) -> None:
            _accumulate(self, -g)

        return record(out, (self,), backward)

    # -- reductions (64-bit accumulation) ------------------------------------

    def sum(self) -> "Tensor":
        total = np.sum(self.data, dtype=np.float64)
        out = Tensor(np.asarray(total, dtype=self.data.dtype))

        def backward(g: np.ndarray) -> None:
            _accumulate(self, np.full_like(self.data, g))

        return record(out, (self,), backward)

    def mean(self) -> "Tensor":
        n = self.data.size
        total = np.sum(self.data, dtype=np.float64) / n
        out = Tensor(np.asarray(total, dtype=self.data.dtype))

        def backward(g: np.ndarray) -> None:
            _accumulate(self, np.full_like(self.data, g / n))

        return record(out, (self,), backward)

    # -- structure ------------------------------------------------------------

    def reshape(self, *dims: int) -> "Tensor":
        if len(dims) == 1 and isinstance(dims[0], (tuple, list)):
            dims = tuple(dims[0])
        src = self.dims
        out = Tensor(self.data.reshape(dims))

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g.reshape(src))

        return record(out, (self,), backward)

    def permute(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if sorted(axes) != list(range(self.ndim)):
            raise ShapeError(f"permute: {axes} is not a permutation of {self.ndim} axes")
        inverse = np.argsort(axes)
        out = Tensor(np.transpose(self.data, axes))

        def backward(g: np.ndarray) -> None:
            _accumulate(self, np.transpose(g, inverse))

        return record(out, (self,), backward)

    def pick(self, axis: int, index: int) -> "Tensor":
        """Select one index along an axis, removing that axis."""
        ax = axis if axis >= 0 else axis + self.ndim
        if not 0 <= ax < self.ndim:
            raise ShapeError(f"pick: axis {axis} out of range for {self.dims}")
        if not 0 <= index < self.dims[ax]:
            raise ShapeError(f"pick: index {index} out of range on axis {ax} of {self.dims}")
        out = Tensor(np.take(self.data, index, axis=ax))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                buf = np.zeros_like(self.data)
                sl = [slice(None)] * self.ndim
                sl[ax] = index
                buf[tuple(sl)] = g
                _accumulate(self, buf)

        return record(out, (self,), backward)

    # -- pointwise nonlinearities ----------------------------------------------

    def sigmoid(self) -> "Tensor":
        """Numerically stable logistic, clamped to the open unit interval."""
        y = _sigmoid(self.data)
        result = Tensor(y)

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g * y * (1.0 - y))

        return record(result, (self,), backward)

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        result = Tensor(y)

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g * (1.0 - y * y))

        return record(result, (self,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic of a float array without overflow, clamped to the open unit interval.

    Shared by Tensor.sigmoid and the fused LSTM so both gate the same way.
    """
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) below
    d = 1.0 + e
    y = np.where(x >= 0, 1.0 / d, e / d)
    one = x.dtype.type(1.0)
    np.clip(y, np.finfo(x.dtype).tiny, np.nextafter(one, 0), out=y)
    return y


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join same-shape tensors along a new axis."""
    if not tensors:
        raise ShapeError("stack needs at least one tensor")
    first = tensors[0].dims
    for t in tensors[1:]:
        if t.dims != first:
            raise ShapeError(f"stack: mismatched shapes {first} vs {t.dims}")
    out = Tensor(np.stack([t.data for t in tensors], axis=axis))
    ax = axis if axis >= 0 else axis + out.ndim

    def backward(g: np.ndarray) -> None:
        parts = np.moveaxis(g, ax, 0)
        for t, gp in zip(tensors, parts):
            _accumulate(t, gp)

    return record(out, tuple(tensors), backward)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to a tensor, allocating its buffer lazily."""
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=t.data.dtype)
    if g.shape != t.data.shape:
        raise ShapeError(f"gradient shape {g.shape} does not match tensor {t.dims}")
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def record(out: Tensor, inputs: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    """Register an executed op on the active tape if any input tracks grads."""
    tape = active_tape()
    if tape is None or not grad_enabled():
        return out
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape._records.append((out, backward))
    return out


class Tape:
    """Execution-ordered record of differentiable operations.

    Entering the context makes this tape active for the current thread. A
    tape is confined to the thread that runs it and is replayed at most once.
    """

    def __init__(self):
        self._records: list = []
        self._replayed = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _tape_stack().pop()
        assert popped is self, "tape stack corrupted"
        return False

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Populate gradients of every tensor the loss depends on.

        Records are visited exactly once, in reverse execution order;
        contributions to tensors used multiple times add up. Each record is
        dropped once replayed: recorded outputs point back at the tape, so
        keeping the records would hold every intermediate until the cyclic
        garbage collector runs.
        """
        if loss._tape is not self:
            raise TensorError("loss was not produced by operations recorded on this tape")
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.dims}")
        if self._replayed:
            raise TensorError("tape has already been replayed; build a fresh tape")
        self._replayed = True
        loss.grad = np.ones_like(loss.data)
        records, self._records = self._records, []
        while records:
            out, fn = records.pop()
            if out.grad is not None:
                fn(out.grad)


def backward(loss: Tensor) -> None:
    """Run reverse-mode differentiation from a scalar loss on its tape."""
    if not isinstance(loss, Tensor) or loss._tape is None:
        raise TensorError("backward() requires a tensor produced by taped operations")
    loss._tape.backward(loss)
