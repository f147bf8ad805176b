"""Audio-visual speech enhancement kit.

A self-contained numerical stack: a taped reverse-mode tensor engine, the
convolutional fusion network built on it, the spectrogram front end, a
trainer, and evaluation tooling, all exposed through one CLI.
"""

from .tensor import (
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    TensorError,
    no_grad,
)

__version__ = "0.1.0"

__all__ = [
    "NonFiniteError",
    "ShapeError",
    "Tape",
    "Tensor",
    "TensorError",
    "no_grad",
    "__version__",
]
