"""No FormatError in src/mffcn writes a file's path into its own text.

A refusal's text starts with its file's path, and one helper puts it there:
formats.in_file fills FormatError.path, which str() shows first. Every other
FormatError states the defect alone. A message that opens with an
interpolated value followed by a colon has the shape of a hand-written
``f"{path}: ..."`` prefix, and a message that is only ``f"{exc}"`` re-wraps
an error that may already name its file. A count or a key may still lead a
defect (``f"{channels} channels, need mono"``), so only those two shapes
are refused.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mffcn"
HELPER = ("formats", "in_file")

# a str.format or %-template that opens with a placeholder and then a colon (or nothing)
_TEMPLATE = re.compile(r"^(\{[^}]*\}|%[sr])(:|$)")


def _opens_with_value(node):
    """True when a message expression starts with an interpolated value followed by ':' or by nothing."""
    if isinstance(node, ast.JoinedStr):
        head, *rest = node.values or [None]
        return isinstance(head, ast.FormattedValue) and (
            not rest or isinstance(rest[0], ast.Constant) and rest[0].value.startswith(":"))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        operands = []
        while isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            operands.insert(0, node.right)
            node = node.left
        first, second = node, operands[0]
        if isinstance(first, (ast.JoinedStr, ast.BinOp)):
            return _opens_with_value(first)
        return not isinstance(first, ast.Constant) and (
            isinstance(second, ast.Constant) and str(second.value).startswith(":"))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) and isinstance(node.left, ast.Constant):
        return bool(_TEMPLATE.match(str(node.left.value)))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "format"
            and isinstance(node.func.value, ast.Constant)):
        return bool(_TEMPLATE.match(str(node.func.value.value)))
    return False


def _helper_lines(module, tree):
    for node in tree.body:
        if (module, getattr(node, "name", None)) == HELPER:
            return range(node.lineno, node.end_lineno + 1)
    return range(0)


def _offenders(module, source):
    """module:line of each FormatError text that opens with a value, and of each ``.path =`` outside the helper."""
    tree = ast.parse(source)
    helper = _helper_lines(module, tree)
    found = []
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in helper:
            continue
        if isinstance(node, ast.Call) and node.args and (
                getattr(node.func, "id", None) == "FormatError" or getattr(node.func, "attr", None) == "FormatError"):
            if _opens_with_value(node.args[0]):
                found.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Attribute) and t.attr == "path" for t in targets):
                found.append(node.lineno)
    return [f"{module}:{line}" for line in sorted(found)]


def test_no_format_error_names_a_file_by_hand():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _offenders(path.stem, path.read_text())]
    assert found == []


def test_helper_exists():
    tree = ast.parse((SRC / f"{HELPER[0]}.py").read_text())
    assert len(_helper_lines(HELPER[0], tree)) > 0


def test_guard_catches_each_prefix_shape():
    source = '''
def reader(path, exc, n, key):
    FormatError(f"{path}: truncated header")
    FormatError(f"{exc}")
    FormatError(path + ": truncated header")
    FormatError(f"{path}" + ": truncated header")
    FormatError("%s: truncated header" % path)
    FormatError("{}: truncated header".format(path))
    exc.path = path
    FormatError(f"{n} channels, need mono")
    FormatError(f"{key} must be one of [1, 2]")
    FormatError("record " + key + ": truncated")
    FormatError(f"record {n}: truncated record header")
    FormatError("missing data chunk")
'''
    assert _offenders("other", source) == [f"other:{line}" for line in range(3, 10)]
