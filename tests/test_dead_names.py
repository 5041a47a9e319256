"""Every module-level name in ``src/inhand`` is used somewhere in ``src/inhand``."""

import ast
import tokenize
from pathlib import Path

import inhand

SRC = Path(inhand.__file__).parent

# The only module-level names no line of the package refers to.
ALLOWED = {
    # The package version, for tools and readers, not for code.
    ("__init__", "__version__"),
    # The sparse energy the tests check ``align_sparse`` against.
    ("register", "sparse_energy"),
}


def module_level_names(tree):
    """``(name, line)`` of each def, class and assignment target at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.lineno


def test_every_module_level_name_is_used_in_the_package():
    sources = sorted(SRC.glob("*.py"))
    used: dict[str, set[tuple[str, int]]] = {}
    for path in sources:
        with tokenize.open(path) as fh:
            for token in tokenize.generate_tokens(fh.readline):
                if token.type == tokenize.NAME:
                    used.setdefault(token.string, set()).add((path.stem, token.start[0]))
    unused = set()
    for path in sources:
        for name, line in module_level_names(ast.parse(path.read_text(), str(path))):
            if not used.get(name, set()) - {(path.stem, line)}:
                unused.add((path.stem, name))
    assert unused == ALLOWED
