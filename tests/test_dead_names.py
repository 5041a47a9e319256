"""Every module-level name in ``src/inhand`` is used there, and every class member read."""

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

# The only methods, properties and dataclass fields no line of the package
# reads as an attribute.
ALLOWED_MEMBERS = {
    # ROADMAP item 1 reports it.
    ("contact", "ContactState.threshold_used"),
    # ROADMAP item 1 reports it.
    ("synth", "GroundTruth.pair_truth"),
    # Only the benchmark's tracer and the tests read it.
    ("register", "SequenceResult.metascan"),
    # test_synth checks the frames against this reference sample.
    ("synth", "GroundTruth.canonical_cloud"),
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


def class_members(tree):
    """``(class, member)`` of each method, property and annotated field.

    Dunder methods are left out: Python calls them, not a line of the package.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                yield node.name, name


def name_uses():
    """Each name token of the package, mapped to the ``(module, line)`` of its uses."""
    used: dict[str, set[tuple[str, int]]] = {}
    for path in sorted(SRC.glob("*.py")):
        with tokenize.open(path) as fh:
            for token in tokenize.generate_tokens(fh.readline):
                if token.type == tokenize.NAME:
                    used.setdefault(token.string, set()).add((path.stem, token.start[0]))
    return used


def parsed_sources():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def attribute_reads():
    """Each name the package reads as an attribute, as in ``obj.name``.

    A write (``obj.name = ...``), a keyword argument or a local variable of
    the same name is not a read, so a field that is only ever written counts
    as unused.
    """
    return {
        node.attr
        for _, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_module_level_name_is_used_in_the_package():
    used = name_uses()
    unused = set()
    for stem, tree in parsed_sources():
        for name, line in module_level_names(tree):
            if not used.get(name, set()) - {(stem, line)}:
                unused.add((stem, name))
    assert unused == ALLOWED


def test_every_class_member_is_used_in_the_package():
    reads = attribute_reads()
    unused = {
        (stem, f"{cls}.{name}")
        for stem, tree in parsed_sources()
        for cls, name in class_members(tree)
        if name not in reads
    }
    assert unused == ALLOWED_MEMBERS
