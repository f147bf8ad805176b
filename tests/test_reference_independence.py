"""tests/composed.py computes what it referees: it borrows no private arithmetic of the program.

The fused ops (ops.norm_leaky, ops.lstm_forward, attention.channel_attention
and attention.spectral_attention) are checked bit for bit against their
compositions in composed.py. A private helper that the reference took from
the program would repeat any defect of the op it checks, so composed.py may
take no private name (one with a leading underscore) from mffcn.ops or
mffcn.attention, whether by import or as a module attribute. From
mffcn.tensor it may take only the tape hook _accumulate (record is public).
The draw helpers it imports from mffcn.gradcheck build inputs, not results,
and stay allowed.
"""

import ast
from pathlib import Path

import pytest

COMPOSED = Path(__file__).resolve().parent / "composed.py"
CHECKED = ("mffcn.ops", "mffcn.attention", "mffcn.tensor")
ALLOWED = {"mffcn.tensor": {"_accumulate"}}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node):
    """The parts of a name.attr.attr chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    return [node.id] + parts if isinstance(node, ast.Name) else None


def _borrowed(source):
    """Sorted "module.name" of each private name the source takes from a checked module."""
    tree = ast.parse(source)
    modules = {}  # a local name bound to a package or module: its dotted module name
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                modules[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module == "mffcn":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"mffcn.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module in CHECKED:
            found |= {(node.module, alias.name) for alias in node.names}
    for node in ast.walk(tree):
        parts = _dotted(node) if isinstance(node, ast.Attribute) else None
        if parts and parts[0] in modules:
            found.add((".".join([modules[parts[0]]] + parts[1:-1]), parts[-1]))
    return sorted(f"{module}.{name}" for module, name in found
                  if module in CHECKED and _private(name) and name not in ALLOWED.get(module, ()))


def test_composed_borrows_no_private_arithmetic():
    assert _borrowed(COMPOSED.read_text()) == []


@pytest.mark.parametrize("source, want", [
    ("from mffcn.ops import _rectify, conv2d", ["mffcn.ops._rectify"]),
    ("from mffcn import ops\nops._stats(x)\nops.conv2d(x)", ["mffcn.ops._stats"]),
    ("from mffcn import attention as at\nat._fold(x)", ["mffcn.attention._fold"]),
    ("import mffcn.ops\nmffcn.ops._product(x)", ["mffcn.ops._product"]),
    ("import mffcn.attention as at\nat._x", ["mffcn.attention._x"]),
    ("from mffcn.tensor import Tensor, _accumulate, _sigmoid, record", ["mffcn.tensor._sigmoid"]),
    ("from mffcn.gradcheck import _normal, _rng\nfrom mffcn import gradcheck\ngradcheck._unary", []),
    ("from mffcn import ops\nops.__name__\nx._binary_shapes(y)", []),
])
def test_detector_finds_every_spelling(source, want):
    assert _borrowed(source) == want
