"""Import hygiene of the package source, read statically with ``ast``: each
module uses every name it imports, and every name in an ``__all__`` or
imported from a sibling module is defined there.  A deleted function whose
import or export was left behind fails here, not at a user's import.  No
module imports scipy or orjson when it is itself imported."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "calcheck"
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def imports(tree):
    """(bound name, sibling module or None, imported name) of every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, None, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            sibling = None
            if node.level:  # relative: `from .records import X`, `from . import X`
                sibling = node.module or "__init__"
            for alias in node.names:
                yield alias.asname or alias.name, sibling, alias.name


def exported(tree) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def defined(tree) -> set[str]:
    """Names bound at module level, also inside top-level if/try blocks."""
    names = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(bound for bound, _, _ in imports(node))
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
    return names


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__"}))
def test_every_imported_name_is_used(module):
    # the package __init__ imports only to re-export
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(exported(tree))
    unused = sorted({bound for bound, _, _ in imports(tree)} - used)
    assert not unused, f"calcheck/{module}.py imports but never uses {unused}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_exported_and_sibling_imported_names_resolve(module):
    tree = TREES[module]
    missing = [f"__all__ entry {name!r}" for name in exported(tree)
               if name not in defined(tree)]
    missing += [f"{name!r} from calcheck/{sibling}.py"
                for _, sibling, name in imports(tree)
                if sibling is not None and name not in defined(TREES[sibling])]
    assert not missing, f"calcheck/{module}.py names what does not exist: {missing}"


def import_time_modules(tree):
    """(line, module) of each absolute import that runs when the module is
    imported: everywhere but in function bodies, so in module-level try, if
    and class blocks too."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                yield node.lineno, node.module
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_level_scipy_or_orjson_import(module):
    # scipy and orjson are imported by the first call that needs them, so
    # importing the CLI loads numpy only
    found = sorted(line for line, name in import_time_modules(TREES[module])
                   if name.split(".")[0] in ("scipy", "orjson"))
    assert not found, (f"calcheck/{module}.py imports scipy or orjson at module level, "
                       f"lines {found}")


def callers(tree, callee: str) -> set[str]:
    """The names of the innermost functions of ``tree`` that call ``callee``,
    a plain name or ``module.attr``, with ``<module>`` for a call outside any."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func) == callee:
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_record_lines_have_one_parse_path():
    # json.loads and json.load read the config file and a saved report; a
    # block of record lines is parsed by orjson in _orjson_batch alone, and a
    # block it declines, like the sniffed first line, by _parse_line alone
    cli = TREES["cli"]
    assert callers(cli, "json.loads") == {"_parse_line", "_cmd_report"}
    assert callers(cli, "json.load") == {"_load_file_config"}
    assert callers(cli, "orjson.loads") == {"_orjson_batch"}
    assert callers(cli, "_orjson_batch") == {"iter_records"}
    assert callers(cli, "_parse_line") == {"iter_records", "sniff_model_kind"}


def test_only_cli_and_sim_serve_the_benchmark():
    # the names bench/tracing.py wraps are bound in cli and sim; the library
    # modules hold no code kept for the benchmark
    mentions = {path.stem for path in SRC.glob("*.py") if "bench/" in path.read_text()}
    assert mentions == {"cli", "sim"}
