"""The value records of ``groupapprox``: construction, defaults, the checks
of ``__post_init__``, frozen fields, and equality, hash and repr against a
frozen dataclass with the same fields."""

import dataclasses
import pickle
from fractions import Fraction

import pytest

from groupapprox.approximation import (
    Certificate,
    CheckResult,
    ConsequenceMode,
    Exhausted,
    FoundHomomorphism,
    MetricMode,
    Presentation,
    SearchStats,
    SoficCertificate,
    Window,
)
from groupapprox.coverage import BrennerReport, CoveringRow, CoveringTable, SupportCoverReport
from groupapprox.equations import (
    BridgeReport,
    Embedding,
    EquationSystem,
    MembershipTable,
    SolvabilityReport,
)
from groupapprox.groups import ConsequenceSet, FiniteGroup, SeparationReport
from groupapprox.lengths import AxiomReport, AxiomViolation, hamming
from groupapprox.perm import parse_cycles
from groupapprox.records import Record

S3 = FiniteGroup.symmetric(3)
T = parse_cycles("(1 2)", 3)
C = parse_cycles("(1 2 3)", 3)
STATS = SearchStats(4, (("S3", 4),))
SEPARATION = SeparationReport(True, 1, None, ())
WINDOW = Window(("a",), ((), (1,), (-1,)))

# Every record class: its fields in constructor order, and one value per field.
SAMPLES = {
    Window: (("names", "words"), (("a",), ((), (1,)))),
    ConsequenceMode: (("depth",), (2,)),
    MetricMode: (
        ("length", "alpha", "epsilon"),
        (hamming(S3), (Fraction(0), Fraction(1, 3)), Fraction(1, 2)),
    ),
    Certificate: (
        ("window", "target", "images", "mode"),
        (WINDOW, S3, (S3.identity(), T, T), ConsequenceMode(1)),
    ),
    CheckResult: (
        ("holds", "reason", "separation", "violations"),
        (False, "defect", SEPARATION, (T,)),
    ),
    Presentation: (
        ("generators", "relators", "inside", "outside"),
        (("a", "b"), ((1, 2, -1, -2),), ((),), ((1,),)),
    ),
    SearchStats: (("assignments", "per_group"), (4, (("S3", 4),))),
    FoundHomomorphism: (
        ("group", "images", "separation", "stats"),
        (S3, (T, C), SEPARATION, STATS),
    ),
    Exhausted: (("stats",), (STATS,)),
    SoficCertificate: (
        ("group_degree", "images", "amplification", "epsilon", "outside_word", "inside_words",
         "raw_outside_length", "amplified_outside_length", "amplified_inside_lengths", "stats",
         "embedded"),
        (3, (C,), 2, Fraction(1, 4), (1,), ((1, 1, 1),), Fraction(1), Fraction(1),
         (Fraction(0),), STATS, False),
    ),
    SupportCoverReport: (
        ("m", "x", "power", "target_size", "holds", "violations"),
        (5, C, 4, 59, True, ()),
    ),
    BrennerReport: (
        ("m", "base", "depth", "epsilon", "threshold", "ball_size", "holds", "violations"),
        (5, (C,), 2, Fraction(3, 5), Fraction(3, 80), 1, True, ()),
    ),
    CoveringRow: (("x", "y", "depth", "steps", "ratio"), (C, C, 1, 1, Fraction(1))),
    CoveringTable: (
        ("m", "rows", "max_ratio"),
        (5, (CoveringRow(C, C, 1, 1, Fraction(1)),), Fraction(1)),
    ),
    ConsequenceSet: (
        ("group", "base", "depth", "class_layers"),
        (S3, frozenset([T]), 1, (frozenset([1]),)),
    ),
    SeparationReport: (
        ("separated", "depth", "witness", "violated_depths"),
        (False, 2, T, (2,)),
    ),
    AxiomViolation: (("axiom", "witness", "detail"), ("identity", (T,), "||1|| = 1")),
    AxiomReport: (("valid", "violations", "pairs_checked"), (True, (), 36)),
    EquationSystem: (("constants", "variables", "words"), (1, 1, ((2, 2, -1),))),
    SolvabilityReport: (
        ("verdict", "counterexample", "witnesses", "reason", "constants_domain",
         "variables_domain", "budget"),
        ("unsolvable", (T,), (), "no root", 6, 6, 36),
    ),
    MembershipTable: (
        ("entries", "overall"),
        ((("S3", SolvabilityReport("solvable")),), "member"),
    ),
    Embedding: (("source", "target", "pairs"), (S3, S3, ((T, T),))),
    BridgeReport: (
        ("system_solvable_in_catalog", "entries", "insufficiencies"),
        (True, (("S3", "solvable"),), ()),
    ),
}
# A different value for the last field, where "changed" would be rejected.
CHANGED_LAST = {Window: ((),), EquationSystem: ((2,),)}
CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def _twin(cls):
    """A frozen dataclass with the record's name and fields, for comparison."""
    return dataclasses.make_dataclass(cls.__name__, SAMPLES[cls][0], frozen=True)


def test_every_record_class_is_covered():
    assert len(SAMPLES) == 23
    assert all(issubclass(cls, Record) for cls in SAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_fields_in_constructor_order(self, cls):
        assert cls._fields == SAMPLES[cls][0]

    def test_positional_and_keyword_construction_agree(self, cls):
        names, values = SAMPLES[cls]
        positional = cls(*values)
        keyword = cls(**dict(zip(names, values)))
        mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
        assert positional == keyword == mixed
        assert all(getattr(positional, n) is v for n, v in zip(names, values))

    def test_frozen(self, cls):
        record = cls(*SAMPLES[cls][1])
        name = SAMPLES[cls][0][0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
            record.other = 1
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is SAMPLES[cls][1][0]

    def test_equality_hash_and_repr_as_a_dataclass(self, cls):
        values = SAMPLES[cls][1]
        record, twin = cls(*values), _twin(cls)(*values)
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)
        assert record == cls(*values) and not record != cls(*values)
        assert record != twin and twin != record
        changed = cls(*values[:-1], CHANGED_LAST.get(cls, "changed"))
        assert record != changed and hash(record) != hash(changed)

    def test_pickle_round_trip(self, cls):
        record = cls(*SAMPLES[cls][1])
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and repr(copy) == repr(record)

    def test_wrong_arguments(self, cls):
        names, values = SAMPLES[cls]
        with pytest.raises(TypeError, match="arguments but"):
            cls(*values, None)
        with pytest.raises(TypeError, match="unexpected or repeated argument 'nope'"):
            cls(*values, nope=1)
        with pytest.raises(TypeError, match=f"repeated argument '{names[0]}'"):
            cls(*values, **{names[0]: values[0]})


def test_defaults():
    assert SolvabilityReport("unknown") == SolvabilityReport(
        "unknown", None, (), "", constants_domain=0, variables_domain=0, budget=0
    )
    assert SolvabilityReport("solvable", budget=9).budget == 9
    assert SolvabilityReport("unknown").verdict != "solvable"
    assert SolvabilityReport("solvable").verdict == "solvable"
    assert CheckResult(True, "ok") == CheckResult(True, "ok", None, ())
    with pytest.raises(TypeError, match="missing required argument 'reason'"):
        CheckResult(True)
    with pytest.raises(TypeError, match="missing required argument 'verdict'"):
        SolvabilityReport()


@pytest.mark.parametrize(
    "names, words, message",
    [
        (("a",), ((1,),), "must contain the identity word"),
        (("a",), ((), (1,), (1,)), "must be distinct"),
        (("a",), ((), (1, -1)), "is not freely reduced"),
        (("a",), ((), (2,)), "beyond the generator list"),
    ],
)
def test_window_rejections(names, words, message):
    with pytest.raises(ValueError, match=message):
        Window(names, words)
    with pytest.raises(ValueError, match=message):
        Window(names=names, words=words)


def test_certificate_rejections():
    with pytest.raises(ValueError, match="one image per window word"):
        Certificate(WINDOW, S3, (T,), ConsequenceMode(1))
    A3 = FiniteGroup.alternating(3)
    with pytest.raises(ValueError, match="lies outside A3"):
        Certificate(WINDOW, A3, (C, T, C), mode=ConsequenceMode(1))


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, 1, ((1,),)), "arities must be nonnegative"),
        ((1, 1, ()), "needs at least one word"),
        ((1, 1, ((1, -1),)), "is not freely reduced"),
        ((1, 1, ((3,),)), "beyond the declared arities"),
    ],
)
def test_equation_system_rejections(args, message):
    with pytest.raises(ValueError, match=message):
        EquationSystem(*args)
    with pytest.raises(ValueError, match=message):
        EquationSystem(constants=args[0], variables=args[1], words=args[2])


def test_window_products_are_formed_once():
    window = Window(("a",), ((), (1,), (-1,)))
    first = window.products()
    assert first == ((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1), (1, 2, 0), (2, 0, 2), (2, 1, 0))
    assert window.products() is first
    assert window == Window(("a",), ((), (1,), (-1,)))
    assert pickle.loads(pickle.dumps(window)).products() == first


def test_equation_system_pickles_with_its_names():
    system = EquationSystem(1, 2, ((2, 3, -1),))
    copy = pickle.loads(pickle.dumps(system))
    assert copy == system and copy.symbol_names() == ("a1", "x1", "x2")
