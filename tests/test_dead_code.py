"""Every function, class, method and import in src/mffcn is referenced in src/mffcn.

A reference is any identifier, attribute or imported name equal to the
definition's name, outside the definition's own lines. Names are matched
without their class or module, so this finds code nothing names at all.
An imported name counts as used only where its own module reads it.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mffcn"

# Kept although nothing in src/ calls them, each for a stated reason.
ALLOWED = {
    "cli.main",                    # the `mffcn` console entry point (pyproject.toml)
    "formats.save_wav",            # file writers for the formats the CLI reads: tests
    "formats.save_video_frames",   # and in-process input fixtures build files with them
    "train.save_dataset",          # writes the corpus layout train.load_dataset reads
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(module, tree):
    """(qualified name, referenced name, node) of each top-level def and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _references(tree):
    """(name, line) of every identifier, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _unreferenced():
    trees = _trees()
    sites = defaultdict(list)  # name -> [(module, line)] of its references
    for module, tree in trees.items():
        for name, line in _references(tree):
            sites[name].append((module, line))
    return [qualified for module, tree in trees.items()
            for qualified, name, node in _definitions(module, tree)
            if all(other == module and node.lineno <= line <= node.end_lineno
                   for other, line in sites[name])]


def test_every_definition_is_referenced_in_src():
    assert [name for name in _unreferenced() if name not in ALLOWED] == []


def test_allowlist_names_existing_definitions():
    defined = {qualified for module, tree in _trees().items()
               for qualified, _, _ in _definitions(module, tree)}
    assert ALLOWED <= defined


def _unused_imports():
    """module.name of each name a module imports but never reads.

    __init__.py is exempt: its imports are the package's re-exports.
    """
    unused = []
    for module, tree in _trees().items():
        if module == "__init__":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{module}.{bound}")
    return unused


def test_every_import_is_used():
    assert _unused_imports() == []
