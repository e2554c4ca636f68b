"""The benchmark's per-layer tracer against the current module layout.

`perfbench/spans.py` rebinds layer functions by name; a renamed or
moved function would silently drop out of the traced metrics, so this
runs two traced CLI commands and checks the spans they must record.
"""

import ast
import importlib.util
from pathlib import Path

import covertool
from covertool import cli, covers, monomials

P4 = "vertices: x1 x2 x3 x4\nedge: x1 x2\nedge: x2 x3\nedge: x3 x4\n"
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_cover_and_dual_spans(tmp_path, capsys):
    path = tmp_path / "p4.graph"
    path.write_text(P4)
    originals = (cli.main, covers.partial_cover_ideal, monomials.alexander_dual)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main(["ideal", "--t", "2", "--dual", str(path)]) == 0
        assert cli.main(["ass", "--t", "2", "--s", "2", "--predict", str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[2] for span in tracer.spans}
    assert {"cli.main", "covers.cover_ideal", "monomials.dual"} <= names
    assert tracer.counts["covers.cover_gens"] > 0
    assert (cli.main, covers.partial_cover_ideal, monomials.alexander_dual) == originals


CACHES = {"lru_cache", "cache"}


def _cached_functions():
    """Every covertool function wrapped by functools.lru_cache or cache,
    found in the source so that nested and late-bound wrappers count,
    plus the line of any other use of those names."""
    found = set()
    for path in sorted(Path(covertool.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = getattr(decorator, "func", decorator)
                    if getattr(target, "id", getattr(target, "attr", None)) in CACHES:
                        found.add(f"{path.stem}.{node.name}")
                        decorators.add(target)
        for node in ast.walk(tree):
            name = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(node, (ast.Name, ast.Attribute)) and name in CACHES:
                if node not in decorators:
                    found.add(f"{path.stem}:{node.lineno}")
    return found


MEMOS = {"ideal_power", "irreducible_decomposition"}


def _memo_calls():
    """The line of every call to a memoized function in covertool outside
    its own definition."""
    found = set()
    for path in sorted(Path(covertool.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        own = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in MEMOS:
                own.update(ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node not in own:
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in MEMOS:
                    found.add(f"{path.stem}:{node.lineno}")
    return found


def test_no_module_calls_the_memos():
    # The engine holds the powers it builds itself; a call to a memo
    # from a command path would carry work from one command into the
    # next and fill an unbounded cache.
    assert _memo_calls() == set()


def test_only_the_caches_the_benchmark_clears():
    # perfbench/run.py clears exactly these two caches before each
    # command; any other cache would carry work from one command into
    # the next and make the benchmark read warm.
    cleared = {"monomials.ideal_power", "monomials.irreducible_decomposition"}
    assert _cached_functions() == cleared
    for name in cleared:
        assert callable(getattr(monomials, name.split(".")[1]).cache_clear)
