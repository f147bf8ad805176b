"""Every op in ops.py and attention.py that records on the tape has an OP_TABLE row.

An op records when its body calls ``record``. A row covers an op when the
op's name appears in the row's expression in gradcheck.OP_TABLE, or in the
body of a module-level function of gradcheck.py the row names (its draw
function). So a new taped op without a finite-difference check fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mffcn"


def _tree(module):
    path = SRC / f"{module}.py"
    return ast.parse(path.read_text(), str(path))


def _names(node):
    """Every identifier and attribute name under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _recording_ops():
    """module.function of each top-level function whose body calls record."""
    return [f"{module}.{node.name}" for module in ("ops", "attention")
            for node in _tree(module).body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and sub.func.id == "record" for sub in ast.walk(node))]


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
            "attention.spectral_attention"} <= set(_recording_ops())


def test_every_recording_op_has_an_op_table_row():
    covered = _covered_names()
    assert [op for op in _recording_ops() if op.split(".")[1] not in covered] == []
