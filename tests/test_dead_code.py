"""No dead code in the package: every import is used, every module-level
name is referenced from src/, and every class member is read somewhere.

Read with the standard library's ast alone. A module-level name counts as
referenced when some module loads it by name (outside its own definition)
or imports it with `from .module import name`; a module's `_LAZY` table
({name: home module}, whose names the module imports on first use) counts
as importing each name from its home module. A class member (a method,
property or class attribute that is not a dunder) counts as read when
some file under src/, tests/ or bench/ reads an attribute of its name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "idstates"

#: (module, name) pairs kept only because the benchmark under bench/ reaches
#: them, each with the ROADMAP item whose work removes it.
BENCH_ONLY = {
    # item 7, after item 6: the tracer wraps expectation.state_probability
    ("expectation", "state_probability"),
    # item 7: bench/workloads.py parses state tables with these
    ("serialize", "parse_state_records"),
    ("serialize", "parse_state_csv"),
}
# the interpreter calls a module's __getattr__ and __dir__ (PEP 562)
ALWAYS_ALLOWED = {"__version__", "__all__", "__getattr__", "__dir__"}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _lazy(tree):
    """A module's _LAZY table: {name: home module}."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "_LAZY" for t in node.targets)):
            return ast.literal_eval(node.value)
    return {}


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


def _members(tree):
    """(class, name) of each non-dunder method, property and class
    attribute a module's classes define."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    yield cls.name, name


def _unread_members(modules, readers):
    """Members of the modules' classes that no reader tree reads as an
    attribute."""
    read = {n.attr for tree in readers for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [(module, cls, name) for module, tree in modules.items()
            for cls, name in _members(tree) if name not in read]


def _unused_imports(modules):
    unused = []
    for name, tree in modules.items():
        used = _loads(tree)
        unused += [(name, bound) for bound in _imported(tree) if bound not in used]
    return unused


def _unreferenced(modules):
    imported_from = {(node.module, alias.name)
                     for tree in modules.values()
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 1
                     for alias in node.names}
    imported_from |= {(module, name) for tree in modules.values()
                      for name, module in _lazy(tree).items()}
    unreferenced = []
    for module, tree in modules.items():
        loads = [(statement, _loads(statement)) for statement in tree.body]
        for name, statement in _defined(tree):
            # a use inside the name's own definition does not count
            used = any(name in names for other, names in loads if other is not statement)
            if not (used or (module, name) in imported_from):
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


def test_every_class_member_is_read():
    readers = [ast.parse(path.read_text(encoding="utf-8"))
               for top in ("src", "tests", "bench")
               for path in sorted((ROOT / top).rglob("*.py"))]
    dead = _unread_members(_modules(), readers)
    assert not dead, f"class members nothing reads: {sorted(dead)}"


def test_unread_member_check_finds_an_unread_member():
    module = ast.parse(
        "class A:\n"
        "    LIMIT = 1\n"
        "    def used(self): return self.LIMIT\n"
        "    def unused(self): pass\n"
        "    def __len__(self): return 0\n")
    reader = ast.parse("A().used()\nA.unused = None\n")
    assert _unread_members({"m": module}, [module, reader]) == [("m", "A", "unused")]
