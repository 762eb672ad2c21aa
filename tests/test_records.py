"""The package's value types behave as the frozen dataclasses they replace.

Each record is built positionally and by keyword, compared, hashed,
printed, mutated, pickled and copied; the reprs are the ones the
dataclasses printed, written out literally.
"""

import copy
import pickle

import pytest

from wreathtree.automaton import (
    AbelianLabels,
    AutomatonError,
    AutomatonFile,
    InitialAutomaton,
    MealyAutomaton,
    _Record,
    _set,
)
from wreathtree.decide import ConjugacyStatus, ConjugacyVerdict
from wreathtree.modmath import EventuallyPeriodicStream
from wreathtree.oracle import LevelOrbitReport

MACHINE = MealyAutomaton(2, ("a", "e"), ((1, 0), (1, 1)), ((1, 0), (0, 1)))
MACHINE_REPR = "MealyAutomaton(k=2, names=('a', 'e'), delta=((1, 0), (1, 1)), out=((1, 0), (0, 1)))"
LABELS = AbelianLabels((2,), ((1,), (0,)))
LABELS_REPR = "AbelianLabels(moduli=(2,), labels=((1,), (0,)))"

# class, field values, repr, and field values its constructor rejects with
# the error message (None where it checks nothing)
RECORDS = [
    (
        MealyAutomaton,
        {"k": 2, "names": ["a", "e"], "delta": [[1, 0], [1, 1]], "out": [[1, 0], [0, 1]]},
        MACHINE_REPR,
        ({"k": 2, "names": ["a", "e"], "delta": [[1, 0], [1, 2]], "out": [[1, 0], [0, 1]]},
         "transition of state 'e' at 1 is out of range"),
    ),
    (
        AbelianLabels,
        {"moduli": [2], "labels": [[1], [0]]},
        LABELS_REPR,
        ({"moduli": [2], "labels": [[1], [2]]}, "label component 2 is out of range mod 2"),
    ),
    (
        InitialAutomaton,
        {"automaton": MACHINE, "initial": 0},
        f"InitialAutomaton(automaton={MACHINE_REPR}, initial=0)",
        ({"automaton": MACHINE, "initial": 2}, "initial state index 2 is out of range"),
    ),
    (
        AutomatonFile,
        {"automaton": MACHINE, "initial": None, "labels": LABELS},
        f"AutomatonFile(automaton={MACHINE_REPR}, initial=None, labels={LABELS_REPR})",
        ({"automaton": MACHINE, "initial": 2, "labels": LABELS},
         "initial state index 2 is out of range"),
    ),
    (
        EventuallyPeriodicStream,
        {"modulus": 5, "preperiod": [1, 2], "period": [3, 4]},
        "EventuallyPeriodicStream(modulus=5, preperiod=(1, 2), period=(3, 4))",
        ({"modulus": 5, "preperiod": [1, 2], "period": []}, "the period must not be empty"),
    ),
    (
        LevelOrbitReport,
        {"level": 3, "orbit_count": 1, "max_orbit": 8, "transitive": True},
        "LevelOrbitReport(level=3, orbit_count=1, max_orbit=8, transitive=True)",
        None,
    ),
    (
        ConjugacyVerdict,
        {"status": ConjugacyStatus.UNDECIDED, "reason": "why"},
        "ConjugacyVerdict(status=<ConjugacyStatus.UNDECIDED: 'undecided'>, reason='why')",
        None,
    ),
]


@pytest.fixture(params=RECORDS, ids=lambda row: row[0].__name__)
def record(request):
    return request.param


def test_positional_and_keyword_construction_agree(record):
    cls, fields, _, _ = record
    by_position = cls(*fields.values())
    assert cls(**fields) == by_position
    assert cls.__slots__ == tuple(fields)


def test_equality_and_hash_follow_the_fields_and_the_class(record):
    cls, fields, _, _ = record
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    values = tuple(getattr(a, name) for name in cls.__slots__)
    assert a != values
    twin_cls = type("Twin", (_Record,), {"__slots__": cls.__slots__})
    twin = object.__new__(twin_cls)
    for name, value in zip(cls.__slots__, values):
        _set(twin, name, value)
    assert a != twin and twin != a


def test_unequal_fields_give_unequal_records():
    assert InitialAutomaton(MACHINE, 0) != InitialAutomaton(MACHINE, 1)
    assert EventuallyPeriodicStream(5, (1,), (2,)) != EventuallyPeriodicStream(5, (), (1, 2))


def test_repr_is_the_dataclass_repr(record):
    cls, fields, text, _ = record
    assert repr(cls(**fields)) == text


def test_fields_cannot_be_assigned_or_deleted(record):
    cls, fields, _, _ = record
    r = cls(**fields)
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(r, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert r == cls(**fields)


def test_pickle_and_copies_round_trip(record):
    cls, fields, _, _ = record
    r = cls(**fields)
    for clone in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(clone) is cls
        assert clone == r and hash(clone) == hash(r)


CHECKED = [(cls, *bad) for cls, _, _, bad in RECORDS if bad is not None]


@pytest.mark.parametrize("cls, fields, message", CHECKED, ids=[row[0].__name__ for row in CHECKED])
def test_the_constructor_checks_still_fire(cls, fields, message):
    with pytest.raises(AutomatonError, match=message):
        cls(**fields)
