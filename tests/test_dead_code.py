"""Every function, class, method and import in src/mffcn is used by the program in src/mffcn.

A use is an identifier, attribute or imported name equal to the
definition's name, outside the definition's own lines. Names are matched
without their class, so this finds code nothing names at all, with four
refinements:

- a bare name that an enclosing function binds (a parameter, an
  assignment, a nested def, an import) means that binding, so a nested
  ``backward`` closure is not a use of a module-level ``backward``;
- an attribute means a module-level definition only on that module's own
  name (``ops.conv2d``), and a method only on something other than an
  imported module (``np.tanh`` is not ``Tensor.tanh``);
- the gradient referee, gradcheck.py, checks the program's ops but is not
  their caller: its references use only its own definitions. Nor do
  __init__.py's re-exports use what they export;
- a reference from inside an unused definition uses nothing.

Dunder methods are left out: operators call them, not names.
An imported name counts as used only where its own module reads it.

Every field of a dataclass is read, as an attribute, somewhere in src/mffcn
outside its own class. Fields are matched by name alone, so a field whose
name another class (or any attribute read) also uses is never flagged.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mffcn"
REFEREE = "gradcheck"

# Kept although nothing in src/ calls them, each for a stated reason.
ALLOWED = {
    "cli.main",                    # the `mffcn` console entry point (pyproject.toml)
    "formats.save_wav",            # file writers for the formats the CLI reads: tests
    "formats.save_video_frames",   # and in-process input fixtures build files with them
    "train.save_dataset",          # writes the corpus layout train.load_dataset reads
    "model.ForwardMemo.perturb",   # the probe hook of mffcn_forward's memo, which only the referee fills
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(module, tree):
    """(qualified name, referenced name, node, is a method) of each top-level def and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, True


def _own_scope(fn):
    """The nodes of a function's own scope: nested defs and lambdas, but not their insides."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _binds(fn):
    """The names a function or lambda binds in its own scope."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
    declared_global = set()
    for node in _own_scope(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[0])
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
    return names - declared_global


def _module_aliases(tree):
    """Names a module binds to imported modules: ``import x``, ``import x as y``, ``from . import x``."""
    return {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            for alias in getattr(node, "names", [])
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module is None)}


def _references(module, tree):
    """(name, attribute base, line) of every identifier, attribute and imported name.

    The base is the bare name an attribute is read from, else None; a bare
    name an enclosing function binds is left out.
    """
    def visit(node, bound):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            bound = bound | _binds(node)
        if isinstance(node, ast.Name) and node.id not in bound:
            yield node.id, None, node.lineno
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            yield node.attr, base, node.lineno
        elif isinstance(node, ast.alias) and module != "__init__":
            yield node.name, None, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, bound)

    return visit(tree, frozenset())


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _unreferenced():
    trees = _trees()
    aliases = {module: _module_aliases(tree) for module, tree in trees.items()}
    sites = defaultdict(list)  # name -> [(module, attribute base, line)] of its references
    for module, tree in trees.items():
        for name, base, line in _references(module, tree):
            sites[name].append((module, base, line))
    defs = [(module, qualified, name, node, method) for module, tree in trees.items()
            for qualified, name, node, method in _definitions(module, tree)]

    def uses(module, name, method, dead):
        for other, base, line in sites[name]:
            if other == REFEREE and module != REFEREE:
                continue
            if base is not None and (base in aliases[other] if method else base != module):
                continue
            if any(other == m and n.lineno <= line <= n.end_lineno for m, n in dead):
                continue
            yield other, line

    dead = {}  # qualified -> (module, node), grown until a pass finds nothing new
    while True:
        found = {qualified: (module, node) for module, qualified, name, node, method in defs
                 if qualified not in dead and all(
                     other == module and node.lineno <= line <= node.end_lineno
                     for other, line in uses(module, name, method, list(dead.values())))}
        if not found:
            return list(dead)
        dead.update(found)


def test_every_definition_is_referenced_in_src():
    assert [name for name in _unreferenced() if name not in ALLOWED] == []


def test_allowlist_names_existing_definitions():
    defined = {qualified for module, tree in _trees().items()
               for qualified, _, _, _ in _definitions(module, tree)}
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


# Dataclass fields kept although no src/ code reads them, each for a stated reason.
ALLOWED_FIELDS = {
    "dsp.MixResult.noise_scale",   # acceptance criterion 7 measures the achieved SNR with it
    "train.TrainResult.adam",      # tests check the flat-layout reuse that repeated train(steps=1) relies on
}


def _is_dataclass(node):
    return any(isinstance(f, ast.Name) and f.id == "dataclass"
               or isinstance(f, ast.Attribute) and f.attr == "dataclass"
               for f in (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list))


def _dataclass_fields(trees):
    """(module.Class.field, module, class node) of each annotated field of a @dataclass class."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{module}.{node.name}.{item.target.id}", module, node


def _unread_fields():
    """module.Class.field of each dataclass field no attribute read outside its class names."""
    trees = _trees()
    reads = defaultdict(list)  # attribute name -> [(module, line)] of its loads
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads[node.attr].append((module, node.lineno))
    return [qualified for qualified, module, cls in _dataclass_fields(trees)
            if all(other == module and cls.lineno <= line <= cls.end_lineno
                   for other, line in reads[qualified.rsplit(".", 1)[1]])]


def test_every_dataclass_field_is_read_in_src():
    assert [name for name in _unread_fields() if name not in ALLOWED_FIELDS] == []


def test_field_allowlist_names_unread_fields():
    assert ALLOWED_FIELDS <= set(_unread_fields())
