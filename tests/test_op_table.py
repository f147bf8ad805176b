"""Every taped op (in ops.py, attention.py and the Tensor methods) has an OP_TABLE row.

An op records when its body calls ``record``. A row covers an op when the
op's name appears in the row's expression in gradcheck.OP_TABLE, or in the
body of a module-level function of gradcheck.py the row names (its draw
function); an operator such as ``a * b`` names its method (``__mul__``).
So a new taped op without a finite-difference check fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mffcn"


def _tree(module):
    path = SRC / f"{module}.py"
    return ast.parse(path.read_text(), str(path))


# The method each binary operator that Tensor defines calls.
_OPERATOR_METHODS = {ast.Sub: "__sub__", ast.Mult: "__mul__"}


def _names(node):
    """Every identifier, attribute name and operator method under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.BinOp) and type(sub.op) in _OPERATOR_METHODS:
            yield _OPERATOR_METHODS[type(sub.op)]


def _records(node):
    return any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
               and sub.func.id == "record" for sub in ast.walk(node))


def _recording_ops():
    """module.function of each top-level function, and tensor.Tensor.method
    of each Tensor method, whose body calls record."""
    functions = [f"{module}.{node.name}" for module in ("ops", "attention")
                 for node in _tree(module).body
                 if isinstance(node, ast.FunctionDef) and _records(node)]
    tensor, = [node for node in _tree("tensor").body
               if isinstance(node, ast.ClassDef) and node.name == "Tensor"]
    methods = [f"tensor.Tensor.{node.name}" for node in tensor.body
               if isinstance(node, ast.FunctionDef) and _records(node)]
    return functions + methods


def _covered_names():
    """Names OP_TABLE's rows reach: in each row, and in the functions the rows name."""
    tree = _tree("gradcheck")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table, = [node.value for node in tree.body
              if isinstance(node, ast.AnnAssign) and node.target.id == "OP_TABLE"]
    covered = set()
    for row in table.values:
        for name in _names(row):
            covered.add(name)
            if name in functions:
                covered.update(_names(functions[name]))
    return covered


def test_recording_ops_are_found():
    assert {"ops.conv2d", "ops.norm_leaky", "ops.lstm_forward", "attention.channel_attention",
            "attention.spectral_attention", "tensor.Tensor.__sub__", "tensor.Tensor.__mul__",
            "tensor.Tensor.sum", "tensor.Tensor.mean", "tensor.Tensor.reshape"} <= set(_recording_ops())


def test_every_recording_op_has_an_op_table_row():
    covered = _covered_names()
    assert [op for op in _recording_ops() if op.rsplit(".", 1)[1] not in covered] == []
