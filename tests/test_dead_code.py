"""No dead code in the package: every import is used and every module-level
name is referenced from src/.

Read with the standard library's ast alone. A module-level name counts as
referenced when some module loads it by name (outside its own definition)
or imports it with `from .module import name`; a module's `__all__`
counts as a use of the names it lists.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "idstates"

#: (module, name) pairs kept only because the benchmark under bench/ reaches
#: them, each with the ROADMAP item whose work removes it.
BENCH_ONLY = {
    # item 7, after item 6: the tracer wraps expectation.state_probability
    ("expectation", "state_probability"),
    # item 7, after item 2: bench/harness.py's set-up probe imports it
    ("cli", "config_from_args"),
    # item 7: bench/workloads.py parses state tables with these
    ("serialize", "parse_state_records"),
    ("serialize", "parse_state_csv"),
}
ALWAYS_ALLOWED = {"__version__", "__all__"}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _all_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _loads(node):
    """Names loaded anywhere under node."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _imported(tree):
    """Every name an import in the module binds, under `if TYPE_CHECKING:`
    and inside functions too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _defined(tree):
    """Names a module's top-level defs, classes and assignments bind, with
    the statement binding each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def _unused_imports(modules):
    unused = []
    for name, tree in modules.items():
        used = _loads(tree) | _all_names(tree)
        unused += [(name, bound) for bound in _imported(tree) if bound not in used]
    return unused


def _unreferenced(modules):
    imported_from = {(node.module, alias.name)
                     for tree in modules.values()
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 1
                     for alias in node.names}
    unreferenced = []
    for module, tree in modules.items():
        loads = [(statement, _loads(statement)) for statement in tree.body]
        listed = _all_names(tree)
        for name, statement in _defined(tree):
            # a use inside the name's own definition does not count
            used = any(name in names for other, names in loads if other is not statement)
            if not (used or (module, name) in imported_from or name in listed):
                unreferenced.append((module, name))
    return unreferenced


def test_every_import_is_used():
    unused = set(_unused_imports(_modules())) - BENCH_ONLY
    assert not unused, f"unused imports: {sorted(unused)}"


def test_every_module_level_name_is_referenced():
    dead = {(module, name) for module, name in _unreferenced(_modules())
            if name not in ALWAYS_ALLOWED} - BENCH_ONLY
    assert not dead, f"names nothing in src/ references: {sorted(dead)}"


def test_allow_list_holds_only_live_exceptions():
    # an entry whose name was removed or came into use must leave the list
    modules = _modules()
    found = set(_unused_imports(modules)) | set(_unreferenced(modules))
    assert BENCH_ONLY <= found
