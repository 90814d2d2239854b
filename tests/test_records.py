"""The value types on ``errors.Record`` against real frozen dataclasses.

Each of the package's 20 value types has a twin made by
``dataclasses.make_dataclass(..., frozen=True)`` over the same fields and
the same ``__post_init__``; class and twin must agree on every behaviour a
caller can see: ``repr``, ``==``, ``hash``, ``replace``, ``fields``,
``asdict``, ``__match_args__``, ``inspect.signature``, the generated
``__doc__`` of a class without one, the frozen-instance errors, and the
``TypeError`` (its type, not its text) of a bad call.
"""

import ast
import dataclasses
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from gasketlab import closeknit, diffusion, experiments, graphs, ramsey, sierpinski, twopart
from gasketlab.errors import Record

SRC = Path(__file__).resolve().parents[1] / "src" / "gasketlab"


def _samples():
    k3 = graphs.LabeledGraph.complete(3)
    s2 = sierpinski.build(2)
    game = diffusion.CoordinationGame(3, 2, 0, 0)
    config = diffusion.DiffusionConfig(epsilon=0.1, init_adopters=[1, 2], horizon=40, seed=5)
    side = twopart.SideInfo(8, 6, "sierpinski:2", True)
    host = graphs.LabeledGraph.from_edges(8, s2.graph.edges())  # S2 on labels 1..6
    union = ramsey.construct_union(k3, s2.graph)
    return [
        k3,
        graphs.encode(k3),
        s2,
        closeknit.min_ratio(s2.graph, [1, 2, 3]),
        closeknit.is_rk_closeknit(s2.graph, Fraction(1, 3), 3),
        game,
        config,
        diffusion.run(s2.graph, game, config),
        diffusion.hitting_time_stats(s2.graph, game, config, 3),
        ramsey.is_host(k3, graphs.LabeledGraph.complete(2)),
        ramsey.induced_ramsey_oracle(graphs.LabeledGraph.complete(2), [k3]),
        union,
        ramsey.split_union(union.graph, s2.graph),
        ramsey.bounds_report(k3, 1.0, 3.0),
        side,
        twopart.encode_two_part(graphs.encode(host), tuple(range(1, 7)), side),
        twopart.length_report(20, 6, True),
        twopart.asymptotic_bounds(6),
        experiments.expected_occurrences(6, k3),
        experiments.containment_experiment(6, k3, 2, 9),
    ]


SAMPLES = _samples()


def _twin(cls):
    """A frozen dataclass with ``cls``'s fields and ``__post_init__``."""
    spec = [
        (f.name, f.type, dataclasses.field(
            default=f.default, repr=f.repr, hash=f.hash, compare=f.compare))
        for f in dataclasses.fields(cls)
    ]
    namespace = {"__post_init__": cls.__post_init__, "__module__": cls.__module__}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def _undocumented():
    """Names of the classes written without a docstring in ``src``."""
    return {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and ast.get_docstring(node) is None
    }


def _values(record):
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


def _outcome(call):
    try:
        result = call()
        return "ok", _values(result) if dataclasses.is_dataclass(result) else result
    except Exception as exc:  # the type is the outcome; the text may differ
        return "raised", type(exc)


def test_every_record_subclass_has_a_sample():
    assert len(SAMPLES) == 20
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("gasketlab.")}
    assert {type(s) for s in SAMPLES} == package


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: type(s).__name__)
def test_record_agrees_with_a_frozen_dataclass(sample):
    cls = type(sample)
    twin = _twin(cls)
    values = _values(sample)
    mine, theirs = cls(*values), twin(*values)
    assert repr(mine) == repr(theirs).replace(twin.__qualname__, cls.__qualname__, 1)
    assert repr(mine) == repr(sample)
    assert mine == sample and mine is not sample and mine != theirs
    assert _outcome(lambda: hash(mine)) == _outcome(lambda: hash(theirs))
    assert _values(dataclasses.replace(mine)) == _values(dataclasses.replace(theirs))
    assert [(f.name, f.type, f.default, f.repr, f.hash, f.compare)
            for f in dataclasses.fields(cls)] == [
        (f.name, f.type, f.default, f.repr, f.hash, f.compare) for f in dataclasses.fields(twin)]
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(mine)
    assert dataclasses.asdict(mine) == dataclasses.asdict(theirs)
    assert cls.__match_args__ == twin.__match_args__
    assert inspect.signature(cls) == inspect.signature(twin)
    if cls.__name__ in _undocumented():
        assert cls.__doc__ == twin.__doc__
    name = dataclasses.fields(cls)[0].name
    for obj in (mine, theirs):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, values[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, "not_a_field", 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    bad_calls = [
        lambda kind: kind(*values[:-1]) if values else kind(1),  # one missing
        lambda kind: kind(*values, values[-1]),  # one too many
        lambda kind: kind(*values, unexpected=1),
        lambda kind: kind(*values, **{name: values[0]}),  # given twice
        lambda kind: kind(),
    ]
    for call in bad_calls:
        assert _outcome(lambda: call(cls)) == _outcome(lambda: call(twin))


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: type(s).__name__)
def test_keywords_and_defaults_bind_as_in_the_dataclass(sample):
    cls = type(sample)
    twin = _twin(cls)
    kwargs = {f.name: getattr(sample, f.name) for f in dataclasses.fields(cls)}
    required = {f.name: kwargs[f.name] for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING}
    for given in (kwargs, dict(reversed(kwargs.items())), required):
        mine, theirs = _outcome(lambda: cls(**given)), _outcome(lambda: twin(**given))
        assert mine == theirs
        if mine[0] == "ok":
            assert cls(**given) == cls(*mine[1])
            assert vars(cls(**given)) == vars(twin(**given))


class Pair(Record):
    left: int
    right: list = dataclasses.field(default=None, compare=False, repr=False)


class Hashed(Record):
    """A record whose hash reads a field that equality skips."""

    key: int
    tag: str = dataclasses.field(default="", compare=False, hash=True)


class Single(Record):
    only: float


def test_field_options_read_as_in_the_dataclass():
    for cls, args in ((Pair, (1, [2])), (Hashed, (3, "x")), (Single, (float("nan"),))):
        twin = _twin(cls)
        mine, theirs = cls(*args), twin(*args)
        assert repr(mine) == repr(theirs).replace(twin.__qualname__, cls.__qualname__, 1)
        assert hash(mine) == hash(theirs)
        assert (mine == cls(*args)) == (theirs == twin(*args))  # nan, by identity in a tuple
        assert inspect.signature(cls) == inspect.signature(twin)
    assert Pair.__doc__ == _twin(Pair).__doc__ == "Pair(left: int, right: list = None)"
    assert Pair(1, [2]) == Pair(1, [3]) and Hashed(3, "x") == Hashed(3, "y")
    assert hash(Hashed(3, "x")) != hash(Hashed(3, "y"))
    assert Single(1.0) != 1.0 and Single(1.0).__eq__(1.0) is NotImplemented
    assert Pair(1) != Hashed(1) and _twin(Pair)(1) != _twin(Hashed)(1)  # same class only


def test_a_record_that_holds_itself_repr_as_the_dataclass():
    cell = []
    mine, theirs = Pair(cell), _twin(Pair)(cell)
    cell.append(mine)
    assert repr(mine) == "Pair(left=[...])"
    cell[0] = theirs
    assert repr(theirs).endswith("(left=[...])")
