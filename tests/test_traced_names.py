"""The benchmark's tracer wraps assocf functions by name: bench/spans.py lists
them in SPANNED and COUNTED and looks each one up when it installs, so a
deleted or renamed function breaks `bench/run.py --trace 1`.  The two tables
are read as literals from the source, so nothing under bench/ is imported."""

import ast
import importlib
import inspect
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_tables():
    """{"SPANNED": {module: names}, "COUNTED": {module: names}}."""
    tables = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                tables[target.id] = ast.literal_eval(node.value)
    return tables


def test_every_traced_name_is_a_function_of_its_module():
    tables = traced_tables()
    assert set(tables) == {"SPANNED", "COUNTED"}
    missing = []
    for table, modules in tables.items():
        for short, names in modules.items():
            module = importlib.import_module(f"assocf.{short}")
            missing += [
                f"{table}: assocf.{short}.{name}"
                for name in names
                if not inspect.isfunction(getattr(module, name, None))
            ]
    assert missing == []
    assert sum(len(names) for names in tables["SPANNED"].values()) > 30
