"""Dense float tensors with reverse-mode differentiation on an explicit tape.

Each thread has one recording slot: the recording Tape, a no_grad marker,
or nothing. A Tape starts only on an empty slot (tapes do not nest, and none
starts inside no_grad); no_grad inside a Tape pauses it. Every differentiable
operation appends one record to the recording Tape; Tape.backward replays the
records exactly once, newest first, so gradients accumulate additively across
repeated uses of a tensor. Tensors are treated as immutable values by all
operations; only ``.grad`` (and the explicit BatchNorm running state, which
lives outside tensors) mutates.

Storage is float32 by default. float64 tensors are supported end to end and
are what the gradient-check suites use; full reductions (sum, mean) always
accumulate in 64-bit regardless of storage dtype. The constructor keeps an
exact numpy array of either dtype as it is, so the tensor holds that very
array; an ndarray subclass of either dtype (np.memmap, say) is viewed as a
plain array, and anything else (lists, integer arrays, other byte orders) is
converted to float32. Every construction scans the result for NaN and Inf.

Trained parameters are views of one flat buffer (FlatParams, laid out when
training starts), which Adam updates in place with whole-vector operations.
Each such tensor's first gradient contribution of a backward pass is copied
into its view of a matching flat gradient buffer, so ``grad`` stays None
until touched and the optimizer reads all gradients as one vector.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence

import numpy as np

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
DEFAULT_DTYPE = np.float32


class TensorError(ValueError):
    """Base class for tensor-engine contract violations."""


class ShapeError(TensorError):
    pass


class NonFiniteError(TensorError):
    pass


class _Slot(threading.local):
    value = None  # this thread's recording Tape, _NO_GRAD inside no_grad, or None


_slot = _Slot()
_NO_GRAD = object()


def active_tape() -> Optional["Tape"]:
    tape = _slot.value
    return None if tape is _NO_GRAD else tape


class no_grad:
    """Context manager that suspends tape recording."""

    def __enter__(self) -> "no_grad":
        self._saved = _slot.value
        _slot.value = _NO_GRAD
        return self

    def __exit__(self, *exc) -> bool:
        _slot.value = self._saved
        return False


class Tensor:
    """N-dimensional float array, optionally participating in the active tape.

    All extents are positive and all elements finite; both are enforced at
    construction, so every public operation hands back a validated value.
    ``grad`` is a same-shape numpy buffer, allocated on first accumulation
    (or, for a tensor laid out by FlatParams, its view of the flat gradient
    buffer) and only ever populated for tensors with ``requires_grad``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_flat", "_grad_slot")

    def __init__(self, data, requires_grad: bool = False):
        if type(data) is np.ndarray and data.dtype in FLOAT_DTYPES:
            arr = data  # kept as it is: np.asarray would hand back this same object
        elif isinstance(data, (np.ndarray, np.generic)) and data.dtype in FLOAT_DTYPES:
            arr = np.asarray(data)
        else:
            arr = np.asarray(data, dtype=DEFAULT_DTYPE)
        if arr.size == 0:
            raise ShapeError(f"tensor extents must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor holds NaN or Inf values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._tape: Optional[Tape] = None
        self._flat: Optional[FlatParams] = None
        self._grad_slot: Optional[np.ndarray] = None

    # -- inspection ---------------------------------------------------------

    @property
    def dims(self) -> tuple:
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

    def zero_grad(self) -> None:
        self.grad = None

    # -- elementwise arithmetic (tensor operands of one shape) ---------------

    def _binary_shapes(self, other: "Tensor", op: str) -> None:
        if self.dims != other.dims:
            raise ShapeError(f"{op}: operand shapes differ, {self.dims} vs {other.dims}")

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._binary_shapes(other, "sub")
        out = Tensor(self.data - other.data)

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g)
            _accumulate(other, -g)

        return record(out, (self, other), backward)

    def __mul__(self, other: "Tensor") -> "Tensor":
        self._binary_shapes(other, "mul")
        a, b = self.data, other.data
        out = Tensor(a * b)

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g * b)
            _accumulate(other, g * a)

        return record(out, (self, other), backward)

    # -- reductions (64-bit accumulation) ------------------------------------

    def sum(self) -> "Tensor":
        return record(*self._total_over(1))  # dividing by one is exact

    def mean(self) -> "Tensor":
        return record(*self._total_over(self.data.size))

    def _total_over(self, n: int) -> tuple:
        """The float64 total divided by n, as record's (out, inputs, backward)."""
        total = np.sum(self.data, dtype=np.float64) / n
        out = Tensor(np.asarray(total, dtype=self.data.dtype))

        def backward(g: np.ndarray) -> None:
            _accumulate(self, np.full_like(self.data, g / n))

        return out, (self,), backward

    # -- structure ------------------------------------------------------------

    def reshape(self, *dims: int) -> "Tensor":
        src = self.dims
        out = Tensor(self.data.reshape(dims))

        def backward(g: np.ndarray) -> None:
            _accumulate(self, g.reshape(src))

        return record(out, (self,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic of a float array without overflow, clamped to the open unit interval.

    Shared by the fused LSTM and attention ops so they all gate the same way.
    """
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) below
    d = 1.0 + e
    # numerator 1 where x >= 0, else e (<= 1): the branch select without a mask copy
    y = np.maximum(e, x >= 0) / d
    lo, hi = _SIGMOID_BOUNDS[x.dtype]
    return np.minimum(np.maximum(y, lo, out=y), hi, out=y)  # np.clip's selects, without its wrappers


# _sigmoid's clip bounds per float dtype: the smallest normal and the largest value below one.
_SIGMOID_BOUNDS = {dt: (np.finfo(dt).tiny, np.nextafter(dt.type(1.0), 0)) for dt in FLOAT_DTYPES}


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to a tensor.

    The first contribution is copied into the tensor's flat gradient slot
    when it has one (see FlatParams), else into a fresh buffer.
    """
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=t.data.dtype)
    if g.shape != t.data.shape:
        raise ShapeError(f"gradient shape {g.shape} does not match tensor {t.dims}")
    if t.grad is not None:
        t.grad += g
    elif t._grad_slot is not None:
        np.copyto(t._grad_slot, g)
        t.grad = t._grad_slot
    else:
        t.grad = g.copy()


class FlatParams:
    """Tensors re-seated as consecutive views of one flat data buffer.

    Each tensor's ``data`` is copied into its view of ``data`` and rebound to
    it; its gradient slot is the same span of ``grad``. ``views`` and
    ``slots`` keep those spans in layout order. Build one with ``flatten``,
    which re-uses an existing layout for the same tensors.
    """

    def __init__(self, tensors: Sequence[Tensor]):
        dtypes = {t.data.dtype for t in tensors}
        if len(dtypes) != 1:
            raise TensorError(f"flat parameters need tensors of one dtype, got "
                              f"{sorted(map(str, dtypes))}")
        self.data = np.empty(sum(t.data.size for t in tensors), dtype=dtypes.pop())
        self.grad = np.zeros_like(self.data)
        self.views: List[np.ndarray] = []
        self.slots: List[np.ndarray] = []
        start = 0
        for t in tensors:
            stop = start + t.data.size
            view = self.data[start:stop].reshape(t.data.shape)
            slot = self.grad[start:stop].reshape(t.data.shape)
            np.copyto(view, t.data)
            t.data, t._flat, t._grad_slot = view, self, slot
            self.views.append(view)
            self.slots.append(slot)
            start = stop

    def holds(self, tensors: Sequence[Tensor]) -> bool:
        """Whether exactly these tensors, in this order, still sit in this layout."""
        return len(tensors) == len(self.views) and all(
            t.data is view and t._grad_slot is slot
            for t, view, slot in zip(tensors, self.views, self.slots))


def flatten(tensors: Sequence[Tensor]) -> FlatParams:
    """The flat layout of these tensors: their current one if it still holds, else a new one."""
    layout = tensors[0]._flat if tensors else None
    if layout is not None and layout.holds(tensors):
        return layout
    return FlatParams(tensors)


def record(out: Tensor, inputs: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    """Register an executed op on the recording tape if any input tracks grads."""
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        tape._records.append((out, backward))
    return out


class Tape:
    """Execution-ordered record of differentiable operations.

    Entering the context puts this tape in the current thread's recording
    slot, which must be empty. A tape is confined to the thread that runs it
    and is replayed at most once.
    """

    def __init__(self):
        self._records: list = []
        self._replayed = False

    def __enter__(self) -> "Tape":
        if _slot.value is _NO_GRAD:
            raise TensorError("a tape cannot start inside no_grad")
        if _slot.value is not None:
            raise TensorError("a tape is already recording on this thread; tapes do not nest")
        _slot.value = self
        return self

    def __exit__(self, *exc) -> bool:
        _slot.value = None
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

