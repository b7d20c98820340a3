"""The package's public surface, pinned.

Removing a name from idstates or adding one is a deliberate edit of
PUBLIC_NAMES, in the same way test_each_command_takes_only_the_flags_it_reads
pins the CLI's options.
"""

import ast
import importlib
import io
import tokenize
from pathlib import Path

import pytest

import idstates

PUBLIC_NAMES = {
    "DissimilarityValue",
    "ExpectationReport",
    "FrequencyVector",
    "IdentityState",
    "StateMatrix",
    "StateProbability",
    "brute_force_state_distribution",
    "canonicalize",
    "comparison_report",
    "dissimilarity",
    "enumerate_states",
    "expected_dissimilarity",
    "expected_dissimilarity_via_states",
    "inner_product",
    "monte_carlo_state_distribution",
    "parse_frequency_file",
    "prevalence_experiment",
    "state_count",
    "state_distribution",
    "state_matrix",
    "state_probability",
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 21
    assert sorted(idstates.__all__) == sorted(PUBLIC_NAMES)
    # the lazy table, which __getattr__ imports from, is the export list
    assert set(idstates._LAZY) == PUBLIC_NAMES
    assert all(hasattr(idstates, name) for name in PUBLIC_NAMES)


def test_star_import_and_dir_list_the_public_names():
    namespace = {}
    exec("from idstates import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(idstates))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        idstates.no_such_name
    assert not hasattr(idstates, "parse_frequency_values")


def test_each_public_name_is_its_home_modules_object():
    for name, module in idstates._LAZY.items():
        home = importlib.import_module(f"idstates.{module}")
        assert getattr(idstates, name) is getattr(home, name), name


def _is_literal(node) -> bool:
    """A constant, a tuple or list of literals, a negated literal, or a
    call of a name on literals, as in Fraction(1, 2)."""
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and all(map(_is_literal, node.args))
                and all(_is_literal(kw.value) for kw in node.keywords))
    if isinstance(node, (ast.Tuple, ast.List)):
        return all(map(_is_literal, node.elts))
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, ast.USub) and _is_literal(node.operand)
    return isinstance(node, ast.Constant)


def _leading_literal(comment: str):
    """The longest start of a comment that is a literal, or None. A start
    ending in a bare comma ("Fraction(13, 50), any K") is not a tuple."""
    for end in range(len(comment), 0, -1):
        text = comment[:end]
        try:
            node = ast.parse(text, mode="eval").body
        except SyntaxError:
            continue
        bare_tuple = isinstance(node, ast.Tuple) and not text.startswith("(")
        if _is_literal(node) and not bare_tuple:
            return text
    return None


def test_readme_library_block_runs_as_written():
    """README's Library block runs in a fresh namespace, and every
    expression line whose comment starts with a literal gives that value."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    namespace = {}
    checked = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        literal = _leading_literal(comments.get(stmt.end_lineno, ""))
        if literal is not None:
            want = eval(literal, namespace)
            assert type(value) is type(want) and value == want, (ast.unparse(stmt), literal)
            checked.append(literal)
    assert len(checked) == 6, checked
