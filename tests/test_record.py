"""The value classes as records: frozen-dataclass semantics without the
dataclasses module, and a start-up that never loads it."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import covertool
from covertool.associated import AssReport, StabilityReport, WitnessCertificate
from covertool.covers import GeneratorClassification, TreeGeneratorReport
from covertool.graphs import Graph, Hypergraph, SpecialVertex, StarShape
from covertool.hypercovers import GapReport
from covertool.monomials import IrreducibleComponent, MonomialIdeal, MonomialPrime
from covertool.record import Record, fields, replace

P = MonomialPrime(frozenset({0, 2}))
EDGES = frozenset({frozenset({"a", "b"}), frozenset({"b", "c"})})

# One valid field tuple per record class, in constructor order.
SAMPLES = {
    MonomialPrime: (frozenset({0, 2}),),
    IrreducibleComponent: (((0, 2), (3, 1)),),
    MonomialIdeal: (("x1", "x2"), ((0, 1), (1, 0))),
    Graph: (("a", "b", "c"), EDGES),
    Hypergraph: (("a", "b", "c"), EDGES),
    StarShape: ("z", frozenset({"a", "b"})),
    SpecialVertex: ("x", ("a", "b"), None),
    GeneratorClassification: ((1, 0, 1), "ii", ("x",)),
    TreeGeneratorReport: ("x", ("x", "a"), 1, ()),
    AssReport: (("x1", "x2", "x3"), 1, 2, "oracle", frozenset({P})),
    StabilityReport: (3, (frozenset({P}),) * 3, 2, True, None),
    WitnessCertificate: ((1, 2, 0), 3, P, True, True, True, 2, 1, 2, 1, False),
    GapReport: (1, 2, 3, 3, 5, 2, True, False, True, True),
}
CLASSES = pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)


def _sample(cls):
    return cls(*SAMPLES[cls])


def test_samples_cover_every_record_class():
    assert set(Record.__subclasses__()) == set(SAMPLES)


@CLASSES
def test_positional_and_keyword_construction(cls):
    values = SAMPLES[cls]
    record = cls(*values)
    assert tuple(getattr(record, f) for f in cls._fields) == values
    assert cls(**dict(zip(cls._fields, values))) == record


@CLASSES
def test_missing_or_unknown_field_is_a_type_error(cls):
    values = SAMPLES[cls]
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, values[0])


def test_only_checking_records_define_init():
    # Every other record stores its fields through Record.__init__, and
    # compares and hashes through Record's __eq__ and __hash__.
    own = {cls for cls in Record.__subclasses__() if "__init__" in vars(cls)}
    assert own == {MonomialPrime, IrreducibleComponent, Graph, Hypergraph}
    for method in ("__eq__", "__hash__"):
        own = {cls for cls in Record.__subclasses__() if method in vars(cls)}
        assert own == {MonomialPrime}, method


def test_type_errors_name_the_class_and_the_field():
    values = SAMPLES[StabilityReport]
    misspelt = dict(zip(StabilityReport._fields[:-1], values), first_violatoin=None)
    for args, named, message in [
        # Every field by name, one misspelt: the fast path gives way.
        ((), misspelt, "unknown field 'first_violatoin', missing field 'first_violation'"),
        (values[:-1], {}, "missing field 'first_violation'"),
        (values, {"bogus": 1}, "unknown field 'bogus'"),
        (values[:1], {"s_max": 3}, "two values for field 's_max'"),
        ((*values, 0), {}, "no field for value 0"),
    ]:
        with pytest.raises(TypeError, match=f"^StabilityReport\\(\\): .*{message}"):
            StabilityReport(*args, **named)
    # Names in any order, and positions followed by names, bind as a
    # call would.
    fields = dict(zip(StabilityReport._fields, values))
    later = {f: fields[f] for f in ("first_violation", "astab_value", "persistence_ok")}
    assert StabilityReport(**dict(reversed(fields.items()))) == StabilityReport(*values)
    assert StabilityReport(*values[:2], **later) == StabilityReport(*values)


@CLASSES
def test_assignment_and_deletion_raise(cls):
    record = _sample(cls)
    for name in (*cls.__slots__, "bogus"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == _sample(cls)


@CLASSES
def test_equality_and_hash_follow_the_field_tuple(cls):
    record, values = _sample(cls), SAMPLES[cls]
    assert record == cls(*values) and not record != cls(*values)
    assert hash(record) == hash(values)
    # A record never equals a tuple, even of its own fields.
    assert record != values and values != record


@CLASSES
def test_repr_is_the_dataclass_format(cls):
    fields = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, SAMPLES[cls]))
    assert repr(_sample(cls)) == f"{cls.__name__}({fields})"


@CLASSES
def test_copy_deepcopy_and_pickle_round_trip(cls):
    record = _sample(cls)
    for clone in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert clone.__class__ is cls and clone == record
        assert hash(clone) == hash(record)


@CLASSES
def test_replace(cls):
    record = _sample(cls)
    name = cls._fields[-1]
    value = SAMPLES[cls][-1]
    same = replace(record, **{name: value})
    assert same == record and same is not record
    with pytest.raises(TypeError):
        replace(record, bogus=1)


@CLASSES
def test_fields_are_the_public_slots_by_name_in_order(cls):
    record = _sample(cls)
    public = [f for f in cls.__slots__ if not f.startswith("_")]
    assert list(fields(record).items()) == list(zip(public, SAMPLES[cls]))
    assert cls(**fields(record)) == record


def test_replace_changes_only_the_named_fields():
    changed = replace(_sample(GapReport), oracle_astab=None, s_max=2)
    fields = dict(zip(GapReport._fields, SAMPLES[GapReport]))
    assert changed == GapReport(**{**fields, "oracle_astab": None, "s_max": 2})


def test_records_of_different_classes_never_compare_equal():
    g = Graph(*SAMPLES[Graph])
    h = Hypergraph(*SAMPLES[Hypergraph])
    assert (g.vertices, g.edges) == (h.vertices, h.edges)
    assert g != h and h != g
    assert len({g, h}) == 2


def test_post_init_checks_keep_their_messages():
    with pytest.raises(ValueError, match="a monomial prime needs a nonempty support"):
        MonomialPrime(frozenset())
    with pytest.raises(ValueError, match="irreducible component bounds must be >= 1"):
        IrreducibleComponent(((0, 0),))
    with pytest.raises(ValueError, match="duplicate vertex label 'a'"):
        Graph(("a", "a"), frozenset())
    with pytest.raises(ValueError, match="fewer than two vertices"):
        Hypergraph(("a", "b"), frozenset({frozenset({"a"})}))


def test_pinned_reprs():
    # The strings the frozen dataclasses printed.
    ideal = MonomialIdeal(("x1", "x2", "x3"), ((0, 1, 0), (1, 0, 1)))
    assert repr(ideal) == (
        "MonomialIdeal(ambient=('x1', 'x2', 'x3'), gens=((0, 1, 0), (1, 0, 1)))"
    )
    assert repr(P) == "MonomialPrime(support=frozenset({0, 2}))"
    assert repr(Graph.build(("a", "b", "c"), [])) == (
        "Graph(vertices=('a', 'b', 'c'), edges=frozenset())"
    )
    g = Graph.build(("b", "a"), [("a", "b")])
    # The order inside a frozenset of strings follows the hash seed.
    assert repr(g) in (
        "Graph(vertices=('b', 'a'), edges=frozenset({frozenset({'b', 'a'})}))",
        "Graph(vertices=('b', 'a'), edges=frozenset({frozenset({'a', 'b'})}))",
    )


def test_graph_adjacency_survives_copy_and_pickle():
    g = Graph(*SAMPLES[Graph])
    for clone in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert [clone.neighbors(v) for v in "abc"] == [("b",), ("a", "c"), ("b",)]


PACKAGE = Path(covertool.__file__).resolve().parent


def test_no_module_imports_dataclasses():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.add(f"{path.stem}:{node.lineno}")
    assert found == set()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    probe = (
        "import sys; import covertool.cli; "
        "print(covertool.cli.__file__); "
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    # -S: no `site`, whose `.pth` files may import `inspect` themselves, so
    # the probe sees covertool's own imports on any interpreter.
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, check=True, env=env, timeout=60,
    ).stdout.splitlines()
    assert Path(out[0]).resolve().parent == PACKAGE
    assert out[1:] == [""]
