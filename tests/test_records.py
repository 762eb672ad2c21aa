"""The package's value types behave as the frozen dataclasses they replace.

Each record is built positionally and by keyword, compared, hashed,
printed, mutated, pickled and copied; the reprs are the ones the
dataclasses printed, written out literally.  Records are checked where
they enter, by their constructors; those the package derives are not
checked again and equal their checked twins.
"""

import copy
import pickle
import random

import pytest

from corpus import random_cyclic, random_labels
from wreathtree.automaton import (
    AbelianLabels,
    AutomatonError,
    AutomatonFile,
    InitialAutomaton,
    MealyAutomaton,
    _Record,
    _set,
    parse_automaton,
)
from wreathtree.decide import ConjugacyStatus, ConjugacyVerdict
from wreathtree.modmath import (
    EventuallyPeriodicStream,
    coefficient_stream,
    incidence_matrix,
    series_stream,
)
from wreathtree.oracle import LevelOrbitReport, conjugate_by

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


# ---------- records are checked where they enter ----------


class Symbol(int):
    pass


def _machine(rng, k, n, symbol=int):
    """A random machine whose names are 1, 1_0, 1_1, ...: the pairs (1_1, 1) and (1, 1_1) collide."""
    delta = [[symbol(rng.randrange(n)) for _ in range(k)] for _ in range(n)]
    out = [list(map(symbol, rng.sample(range(k), k))) for _ in range(n)]
    names = ["_".join(format(i + 1, "b")) for i in range(n)]
    return InitialAutomaton(MealyAutomaton(k, names, delta, out), rng.randrange(n))


def _checked_twin(record):
    """record rebuilt through the checking constructors, its record fields first."""
    values = [_checked_twin(v) if isinstance(v, _Record) else v for v in record._values(record)]
    return record.__class__(*values)


def _assert_twin(record):
    twin = _checked_twin(record)
    assert twin == record and hash(twin) == hash(record)
    for name in record.__slots__:  # no list passes for a tuple
        assert getattr(twin, name).__class__ is getattr(record, name).__class__


def _derived(f, g):
    yield from (f.inverse(), f.compose(g), g.compose(f), f.minimize(), f.compose(g).minimize())
    yield conjugate_by(f, g)


@pytest.mark.parametrize("k", [2, 3, 4, 11])
def test_derived_records_equal_their_checked_twins(k):
    rng = random.Random(k)
    renamed = as_it_is = 0
    for trial in range(25):
        symbol = Symbol if trial % 5 == 0 else int
        f, g = (_machine(rng, k, rng.randint(1, 5), symbol) for _ in range(2))
        for record in _derived(f, g):
            _assert_twin(record)
            renamed += any(name.endswith("_2") for name in record.automaton.names)
        as_it_is += f.minimize() is f  # the early return of a minimal machine
        modulus = rng.choice([2, 3, 4, 12])
        vector = tuple(rng.randrange(modulus) for _ in f.automaton.names)
        matrix = incidence_matrix(f.automaton)
        _assert_twin(coefficient_stream(matrix, (modulus, vector), f.initial))
        _assert_twin(series_stream(f, random_labels(rng, f.automaton.n_states, (modulus,))))
        _assert_twin(series_stream(random_cyclic(rng, k, 5)))
    assert renamed and as_it_is  # both were met


class Checked(Exception):
    pass


def _refuse(self):
    raise Checked


def test_only_the_constructors_check(monkeypatch):
    rng = random.Random(5)
    f, g = _machine(rng, 3, 6), _machine(rng, 3, 6)
    twins = InitialAutomaton(MealyAutomaton(2, ("a", "b"), ((1, 1), (0, 0)), ((0, 1), (0, 1))), 0)
    monkeypatch.setattr(MealyAutomaton, "_check", _refuse)
    monkeypatch.setattr(EventuallyPeriodicStream, "_check", _refuse)
    composed = f.compose(g)
    for built in (f.inverse(), composed, composed.minimize(), conjugate_by(f, g)):
        assert built.automaton.k == 3
    assert twins.minimize().automaton.n_states == 1  # a rebuilt machine, not the input
    stream = coefficient_stream(incidence_matrix(f.automaton), (4, (1,) * 6), f.initial)
    assert stream.modulus == 4
    for build in (
        lambda: MealyAutomaton(2, ("a",), ((0, 0),), ((1, 0),)),
        lambda: parse_automaton("alphabet 2\nstate a perm 1 0 to a a\n"),
        lambda: pickle.loads(pickle.dumps(composed)),
        lambda: copy.copy(composed.automaton),
        lambda: EventuallyPeriodicStream(5, (1,), (2,)),
    ):
        with pytest.raises(Checked):
            build()
