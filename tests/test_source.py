"""Import hygiene of the package source, read statically with ``ast``: each
module uses every name it imports, and every name in an ``__all__`` or
imported from a sibling module is defined there.  A deleted function whose
import or export was left behind fails here, not at a user's import.  No
module imports scipy or orjson when it is itself imported, and none imports
scipy at all."""

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


def imported_modules(tree):
    """(line, module) of every absolute import, function bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_imports_scipy_anywhere(module):
    # scipy is a test oracle: the special functions are calcheck's own, so
    # no command loads it, not even in a function body
    found = sorted(line for line, name in imported_modules(TREES[module])
                   if name.split(".")[0] == "scipy")
    assert not found, f"calcheck/{module}.py imports scipy, lines {found}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_level_scipy_or_orjson_import(module):
    # orjson is imported by the first call that needs it, and scipy by none,
    # so importing the CLI loads numpy only
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
    # every record line, the sniffed first line included, is parsed by
    # orjson in _parse_lines alone; json.loads reads a saved report and, in
    # _refusal, only a line orjson refused, to word the error; json.load
    # reads the config file
    cli = TREES["cli"]
    assert callers(cli, "orjson.loads") == {"_parse_lines"}
    assert callers(cli, "json.loads") == {"_refusal", "_cmd_report"}
    assert callers(cli, "_refusal") == {"_parse_lines"}
    assert callers(cli, "json.load") == {"_load_file_config"}
    assert callers(cli, "_parse_lines") == {"iter_records", "sniff_model_kind"}


def function(tree, name: str) -> ast.FunctionDef:
    """The module-level function ``name`` of ``tree``."""
    return next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == name)


def test_output_values_are_turned_into_text_once():
    # json.dumps writes report.json's table names and headers and all of it
    # but the tables, and a simulation's config for its digest, and finds a
    # lone surrogate in a saved report before report prints it; every float
    # of a record line, a table cell or a trace row is turned into text by
    # _float_texts, the one caller of orjson.dumps, and report.json's rows
    # are converted from the tables' CSV text, monitor trace and offline
    # tables alike, both rendered by _csv_rows
    cli = TREES["cli"]
    dumpers = callers(cli, "json.dumps")
    assert dumpers == {"table", "finish", "run_simulate", "_cmd_report"}
    assert not dumpers & {"write_records", "_csv_rows", "rows", "_json_rows"}
    assert callers(cli, "orjson.dumps") == {"_float_texts"}
    assert callers(cli, "_csv_rows") == {"finish", "_monitor"}
    assert callers(cli, "_json_rows") == {"rows"}
    # each writer hands its numbers to _float_texts and formats none itself:
    # no repr, no {!r}, and str only of a table's list cells, which hold
    # saved or mixed values
    for name in ("write_records", "_csv_rows"):
        body = ast.Module(function(cli, name).body, [])  # not the annotations
        names = [node.id for node in ast.walk(body) if isinstance(node, ast.Name)]
        texts = [node.value for node in ast.walk(body)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)]
        assert "_float_texts" in names and "repr" not in names, name
        assert not any("!r" in text for text in texts), name
        allowed = [node.orelse for node in ast.walk(body) if isinstance(node, ast.IfExp)
                   and ast.unparse(node.test) == "isinstance(c, np.ndarray)"]
        in_allowed = sum(isinstance(node, ast.Name) and node.id == "str"
                         for part in allowed for node in ast.walk(part))
        assert names.count("str") == in_allowed, name
    # the monitor renders its trace rows by _csv_rows; it makes text only of
    # a data error's message
    body = ast.Module(function(cli, "_monitor").body, [])
    texts = [ast.unparse(node) for node in ast.walk(body) if isinstance(node, ast.Call)
             and ast.unparse(node.func) in ("str", "repr", "format")]
    assert callers(body, "_csv_rows") and texts == ["str(exc)"]


def test_output_files_have_one_writer():
    # every output file is written by _Output, as a partial file renamed
    # into place when the run succeeds, a record file by write_records
    # called from its finish; the other opens read records and the config
    # file
    cli = TREES["cli"]
    assert callers(cli, "open") == {"_read", "_load_file_config", "write_records", "_open"}
    assert callers(cli, "write_records") == {"finish"}
    assert not [node for node in ast.walk(cli) if isinstance(node, ast.Attribute)
                and node.attr in ("write_text", "write_bytes")]
    # the runs compute and the CLI emits: no run, nor a part of one, opens,
    # makes, writes or renames a file, and the monitor's trace is streamed
    # by _Output.trace
    for name in ("run_check", "_block_scores", "_offline", "_binned", "_monitor",
                 "run_simulate"):
        calls = {ast.unparse(node.func) for node in ast.walk(function(cli, name))
                 if isinstance(node, ast.Call)}
        assert not {call for call in calls if call in ("open", "write_records", "os.replace")
                    or call.endswith(".mkdir")}, name
    assert "_trace_output" not in {node.name for node in ast.walk(cli)
                                   if isinstance(node, ast.FunctionDef)}


def test_only_cli_and_sim_serve_the_benchmark():
    # the names bench/tracing.py wraps are bound in cli and sim; the library
    # modules hold no code kept for the benchmark
    mentions = {path.stem for path in SRC.glob("*.py") if "bench/" in path.read_text()}
    assert mentions == {"cli", "sim"}


def test_coverage_has_one_rule_and_clouds_one_constructor():
    # every family covers by its central PIT, through metric.covered alone,
    # which the offline counts and the monitor step both read; a batch has
    # no coverage of its own, and no way to pick records out of it for a
    # check that joins them; particle clouds, the simulator's included, are
    # built and checked by the one constructor
    methods = {(cls.name, node.name) for tree in TREES.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)}
    batch_methods = {node.name for cls in ast.walk(TREES["records"])
                     if isinstance(cls, ast.ClassDef) for node in cls.body
                     if isinstance(node, ast.FunctionDef)}
    assert not batch_methods & {"covered", "take"}
    rules = [(module, node) for module, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "covered"]
    assert [(module, node in TREES["metric"].body) for module, node in rules] == [("metric", True)]
    assert callers(TREES["metric"], "covered") == {"coverage_counts"}
    assert callers(TREES["seqtest"], "covered") == {"monitor_step"}
    # no command joins the records: check and monitor both take the stream
    # of blocks that iter_records yields
    assert callers(TREES["cli"], "parse_records") == set()
    cmd_check = function(TREES["cli"], "_cmd_check")
    assert "parse_records" not in {node.id for node in ast.walk(cmd_check)
                                   if isinstance(node, ast.Name)}
    assert [a.arg for a in function(TREES["cli"], "run_check").args.args][:2] == [
        "config", "batches"]
    assert "run_monitor = run_check" in map(ast.unparse, TREES["cli"].body)
    assert {cls for cls, name in methods if name == "pit_values"} == {
        "GaussianBatch", "MvGaussianBatch", "ParticleBatch"}
    functions = {node.name for tree in TREES.values() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    assert not functions & {"from_filter", "_checked_cloud"}


def test_check_and_monitor_share_one_scoring_loop():
    # the metric slot scores every record stream in cli's one loop, which
    # makes the direction and tie streams; each testing procedure reads the
    # scores, and the monitor step takes central PITs, not records
    seqtest = TREES["seqtest"]
    assert not [name for _, sibling, name in imports(seqtest) if sibling == "records"]
    assert not callers(seqtest, "central") | callers(seqtest, "pit")
    assert callers(TREES["cli"], "np.random.default_rng") == {"_block_scores"}
    functions = {node.name for node in ast.walk(TREES["cli"]) if isinstance(node, ast.FunctionDef)}
    assert not functions & {"_scores", "_single_check"}
