"""Every module attribute that bench/tracing.py reaches by name resolves on the package.

The benchmark's traced replay calls `fm.<module>.<attr>` and swaps module
attributes by name (`Tracer.wrap`), so a change that moves or renames one of
them breaks the benchmark.  The names are read from the file's syntax tree,
so such a change fails here in seconds.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def dotted(node) -> list[str] | None:
    """["a", "b", "c"] for the expression a.b.c, None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def wrapped_params(func: ast.FunctionDef) -> dict[int, set[str]]:
    """{position of a parameter: attributes} for each `<x>.wrap(<param>, "attr", ...)`."""
    params = [a.arg for a in func.args.args]
    found: dict[int, set[str]] = {}
    for node in ast.walk(func):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap" and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name) and node.args[0].id in params
                and isinstance(node.args[1], ast.Constant)):
            found.setdefault(params.index(node.args[0].id), set()).add(node.args[1].value)
    return found


def reached_names(source: str) -> set[tuple[str, ...]]:
    """(module, attr, ...) for every flexmove module attribute the source reaches by name.

    `fm` is the namespace of the package's modules.  Within a function, an alias
    `x = fm.<module>` stands for its module.  A `.wrap(owner, "attr")` reaches
    owner.attr, and so does a call of a function that wraps "attr" on the
    parameter the owner is passed as (`_writes(t, fm.motion)`).
    """
    tree = ast.parse(source)
    funcs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    wrappers = {f.name: wrapped_params(f) for f in funcs}
    names: set[tuple[str, ...]] = set()
    for func in funcs:
        aliases = {}
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                chain = dotted(node.value)
                if chain and chain[0] == "fm" and len(chain) == 2:
                    aliases[node.targets[0].id] = chain[1]

        def module_path(node) -> list[str] | None:
            chain = dotted(node)
            if not chain:
                return None
            if chain[0] == "fm" and len(chain) > 1:
                return chain[1:]
            if chain[0] in aliases:
                return [aliases[chain[0]], *chain[1:]]
            return None

        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and (path := module_path(node)):
                names.add(tuple(path))
            if not isinstance(node, ast.Call):
                continue
            if (isinstance(node.func, ast.Attribute) and node.func.attr == "wrap"
                    and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
                    and (owner := module_path(node.args[0]))):
                names.add((*owner, node.args[1].value))
            if isinstance(node.func, ast.Name) and node.func.id in wrappers:
                for position, attrs in wrappers[node.func.id].items():
                    if position < len(node.args) and (owner := module_path(node.args[position])):
                        names.update((*owner, attr) for attr in attrs)
    return names


def resolves(path: tuple[str, ...]) -> bool:
    try:
        obj = importlib.import_module(f"flexmove.{path[0]}")
    except ImportError:
        return False
    for attr in path[1:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_name_the_bench_reaches_resolves():
    names = reached_names(TRACING.read_text())
    # one name of each form, so a reader that finds nothing cannot pass
    assert {("cli", "main"), ("motion", "MotionSpec", "from_beam"),
            ("oscillator", "simulate_relative"), ("analysis", "energy_figure"),
            ("oscillator", "simpson_grid"), ("timeseries", "write_csv"),
            ("motion", "write_csv")} <= names
    assert sorted(".".join(path) for path in names if not resolves(path)) == []


def test_a_name_gone_from_its_module_is_reported():
    source = '''
def probe(t, fm):
    an = fm.analysis
    with t.wrap(an, "no_such_oracle"), _writes(t, fm.motion):
        fm.motion.no_such_law()

def _writes(t, module):
    return t.wrap(module, "no_such_writer")
'''
    names = reached_names(source)
    assert names == {("analysis",), ("motion",), ("analysis", "no_such_oracle"),
                     ("motion", "no_such_law"), ("motion", "no_such_writer")}
    assert [path for path in sorted(names) if not resolves(path)] == [
        ("analysis", "no_such_oracle"), ("motion", "no_such_law"), ("motion", "no_such_writer")]
