"""The benchmark's per-layer tracer against the current module layout.

`perfbench/spans.py` rebinds layer functions by name; a renamed or
moved function would silently drop out of the traced metrics, so this
runs two traced CLI commands and checks the spans they must record.
"""

import importlib.util
from pathlib import Path

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
