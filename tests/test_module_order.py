"""The package's modules import only from lower levels, and use no other
module's private names beyond a fixed few."""

import ast
import pathlib

import mmasr

PACKAGE = pathlib.Path(mmasr.__file__).parent

# Lowest first; a module may import only from a lower level.
LEVELS = [
    {"tensor"},
    {"layers", "ctc"},
    {"encoder", "visual", "decoder"},
    {"model"},
    {"train"},
    {"gradsuite"},
    {"cli"},  # imports gradsuite for `grad-check`
    {"__main__"},  # `python -m mmasr`
]
OUTSIDE = {"errors", "data", "metrics", "__init__"}
# The CTC node passes its gradient on with tensor's accumulation helper;
# gradsuite walks the model's parameter tree. The decode step calls tensor's
# softmax-attention kernel directly: every public tensor function is counted
# as a graph node by the benchmark's tracer, so a public kernel that is not
# one would be miscounted.
ALLOWED_PRIVATE = {("tensor", "_accum"), ("model", "_walk"), ("tensor", "_attend")}


def _imports(path):
    """(imported module, imported name or None) of every package-relative
    import in ``path``, wherever it sits in the file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import tensor
                    yield alias.name, None
                else:
                    yield node.module, alias.name


def _module_attributes(path):
    """(package module, attribute) of every attribute read on a module that
    ``path`` imports by ``from . import module [as alias]``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                yield aliases[node.value.id], node.attr


def test_every_module_has_a_place():
    placed = set().union(*LEVELS) | OUTSIDE
    assert {p.stem for p in PACKAGE.glob("*.py")} == placed


def test_modules_import_only_from_lower_levels():
    level = {name: i for i, names in enumerate(LEVELS) for name in names}
    wrong = {f"{path.stem} imports {module}" for path in PACKAGE.glob("*.py")
             if path.stem in level for module, _ in _imports(path)
             if level.get(module, -1) >= level[path.stem]}
    assert not wrong


def test_only_the_allowed_private_names_cross_modules():
    used = {(module, name) for path in PACKAGE.glob("*.py")
            for module, name in [*_imports(path), *_module_attributes(path)]
            if name and name.startswith("_")}
    assert used == ALLOWED_PRIVATE
