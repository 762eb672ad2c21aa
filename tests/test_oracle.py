"""Checks for the brute-force level simulator.

The simulator is itself the ground truth used elsewhere, so the tests
here lean on an even more naive recount: orbits found by repeatedly
calling apply on every word of a level, one word at a time.
"""

import itertools
import sys
import tracemalloc

import pytest

import corpus
from wreathtree import (
    AbelianLabels,
    InitialAutomaton,
    MealyAutomaton,
    abelian_coefficient_bruteforce,
    conjugate_by,
    level_transitive,
    rational_form,
)
from wreathtree import oracle
from wreathtree.automaton import (
    AlphabetMismatchError,
    BadComponentError,
    DimensionMismatchError,
    NegativeIndexError,
    NotCyclicError,
)
from wreathtree.modmath import series_stream
from wreathtree.oracle import LevelOrbitReport, LevelTooLargeError


def _orbit_sizes_by_apply(g, n):
    """Cycle lengths of g on level n, via nothing but apply."""
    words = [tuple(w) for w in itertools.product(range(g.k), repeat=n)]
    index = {w: i for i, w in enumerate(words)}
    seen = [False] * len(words)
    sizes = []
    for start in words:
        if seen[index[start]]:
            continue
        size = 0
        cur = start
        while not seen[index[cur]]:
            seen[index[cur]] = True
            size += 1
            cur = g.apply(cur)
        sizes.append(size)
    return sorted(sizes)


# ---------------------------------------------------------------- orbits


def test_odometer_is_one_cycle_on_every_level(odometer):
    for n in range(6):
        report = level_transitive(odometer, n)
        assert report == LevelOrbitReport(n, 1, 2**n, True)


def test_identity_fixes_every_word(identity2):
    report = level_transitive(identity2, 2)
    assert report.orbit_count == 4
    assert report.max_orbit == 1
    assert not report.transitive


def test_lamplighter_orbits_match_its_stream(lamp_a, lamp_b):
    # coefficients of lamp_b are 1, 1, 0, ... so levels 1 and 2 are
    # single cycles and level 3 is not; lamp_a already fails at level 1
    assert level_transitive(lamp_b, 1).transitive
    assert level_transitive(lamp_b, 2).transitive
    assert not level_transitive(lamp_b, 3).transitive
    assert not level_transitive(lamp_a, 1).transitive


def test_level_zero_is_always_a_single_orbit(lamp_a):
    assert level_transitive(lamp_a, 0) == LevelOrbitReport(0, 1, 1, True)


# the deepest level each alphabet is tested to: at k=2 and level 8 a machine
# of up to 4 states has suffix tables of depth 3
TOP_LEVEL = {2: 8, 3: 6, 4: 5}


def _many_states(rng):
    """Machines of more states than k^(n/2) at their top level, so the suffix depth is lowered."""
    return (corpus.random_cyclic(rng, k, 40, min_states=30) for k in (2, 3))


def test_orbit_report_agrees_with_apply_recount(rng):
    unequal = 0
    cases = []
    for _ in range(60):
        k = rng.choice([2, 3, 4])
        g = corpus.random_invertible(rng, k, max_states=3)
        cases.append((g, rng.randint(0, TOP_LEVEL[k])))
    for g, n in cases + [(g, TOP_LEVEL[g.k]) for g in _many_states(rng)]:
        k = g.k
        sizes = _orbit_sizes_by_apply(g, n)
        report = level_transitive(g, n)
        assert sum(sizes) == k**n
        assert report.orbit_count == len(sizes)
        assert report.max_orbit == sizes[-1]
        assert report.transitive == (len(sizes) == 1)
        unequal += sizes[0] != sizes[-1]
    # levels split into cycles of different lengths are among the cases
    assert unequal >= 10


# both simulators refuse a level through the same rule, with the same message
SIMULATORS = [
    pytest.param(f, id=f.__name__) for f in (level_transitive, abelian_coefficient_bruteforce)
]


@pytest.mark.parametrize("simulate", SIMULATORS)
def test_word_cap_is_enforced(simulate, odometer, monkeypatch):
    # the real cap refuses 2^20 words before enumerating any of them
    with pytest.raises(
        LevelTooLargeError, match=r"^level 20 holds 1048576 words, above the cap of 1000000$"
    ):
        simulate(odometer, 20)
    monkeypatch.setattr(oracle, "DEFAULT_WORD_CAP", 31)
    with pytest.raises(LevelTooLargeError, match=r"^level 5 holds 32 words, above the cap of 31$"):
        simulate(odometer, 5)
    # the cap is a bound, not a target
    monkeypatch.setattr(oracle, "DEFAULT_WORD_CAP", 32)
    expected = {
        level_transitive: LevelOrbitReport(5, 1, 32, True),
        abelian_coefficient_bruteforce: 1,
    }
    assert simulate(odometer, 5) == expected[simulate]


@pytest.mark.parametrize("simulate", SIMULATORS)
def test_huge_levels_are_refused_without_their_size(simulate, odometer):
    # 2^(10^6) has more decimal digits than str() writes, and 2^(10^9)
    # takes seconds to compute
    for n in (10**6, 10**9):
        with pytest.raises(
            LevelTooLargeError, match=rf"^level {n} holds 2\^{n} words, above the cap of 1000000$"
        ):
            simulate(odometer, n)


def test_negative_levels_are_rejected(odometer):
    # unchecked, level -1 reports one orbit and coefficient -2 the level-0 sum
    with pytest.raises(NegativeIndexError):
        level_transitive(odometer, -1)
    with pytest.raises(NegativeIndexError):
        abelian_coefficient_bruteforce(odometer, -2)


# ---------------------------------------------------------- coefficients


def test_bruteforce_coefficients_of_named_machines(odometer, lamp_b):
    assert [abelian_coefficient_bruteforce(odometer, n) for n in range(5)] == [
        1,
        1,
        1,
        1,
        1,
    ]
    assert [abelian_coefficient_bruteforce(lamp_b, n) for n in range(5)] == [
        1,
        1,
        0,
        0,
        0,
    ]


def test_bruteforce_matches_the_closed_form_stream(rng):
    for _ in range(40):
        k = rng.choice([2, 3])
        g = corpus.random_cyclic(rng, k, max_states=3)
        moduli = rng.choice([(2,), (3,), (6,), (2, 3)])
        labels = corpus.random_labels(rng, g.automaton.n_states, moduli)
        component = rng.randrange(len(moduli))
        stream = series_stream(g, labels, component)
        for n in range(5):
            got = abelian_coefficient_bruteforce(g, n, labels, component)
            assert got == stream.term(n)


def test_bruteforce_is_the_label_sum_over_every_word(rng):
    # any invertible machine, not only cyclic ones, and a modulus past
    # 2^64: the level sum is the label at each word's section, added up
    machines = (corpus.random_invertible(rng, rng.randint(2, 6), max_states=12) for _ in range(60))
    for g in itertools.chain(machines, _many_states(rng)):
        k = g.k
        big = rng.randrange(2**64 + 1, 2**80)
        moduli = rng.choice([(big,), (rng.randint(2, 12), big), (big, rng.randint(2, 12))])
        labels = corpus.random_labels(rng, g.automaton.n_states, moduli)
        for component, m in enumerate(moduli):
            for n in range(TOP_LEVEL.get(k, 4) + 1):
                words = itertools.product(range(k), repeat=n)
                expected = sum(labels.labels[g.section(w).initial][component] for w in words)
                assert abelian_coefficient_bruteforce(g, n, labels, component) == expected % m


# the deepest level the word cap allows at each alphabet size
CAP_LEVEL = {2: 19, 3: 12, 6: 7}


@pytest.mark.parametrize("k", sorted(CAP_LEVEL))
def test_widest_lanes_neither_carry_nor_overflow_the_fold(k, rng):
    # every label is m - 1, so each lane and the folded total are as large
    # as they can be; a lane one bit narrower breaks the fold at level 0
    g = corpus.random_invertible(rng, k, max_states=4)
    for m in (2, 6, 2**64 + 13):
        labels = AbelianLabels((m,), ((m - 1,),) * g.automaton.n_states)
        for n in (0, CAP_LEVEL[k]):
            assert abelian_coefficient_bruteforce(g, n, labels) == -(k**n) % m
        with pytest.raises(LevelTooLargeError):
            abelian_coefficient_bruteforce(g, CAP_LEVEL[k] + 1, labels)


def test_level_sum_holds_less_than_a_pointer_per_word(rng):
    # 6^7 = 279,936 words; a list of their states alone is 8 bytes a word,
    # while six suffix tables of 6^3 lanes of 22 bits hold 3,564 bytes, and
    # the tables of every depth and the running sum stay under three times that
    g = corpus.random_cyclic(rng, 6, max_states=6, min_states=6)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        got = abelian_coefficient_bruteforce(g, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lanes = 6 * 6**3 * ((6**7 * 5).bit_length() + 1) // 8
    assert peak < 3 * lanes
    assert got == series_stream(g).term(7)


def test_level_sum_on_many_states_holds_less_than_its_prefix_states():
    # 2,002 states at level 16: suffix tables of depth 8 would hold 2002 * 2^8
    # entries, so the depth is lowered until they hold no more than the
    # prefixes; given labels are made before tracing, and the default shifts
    # are read as one residue per state, with no label record of 1-tuples
    g = corpus.tail_flip(2000)
    labels = AbelianLabels((2,), tuple((row[0],) for row in g.automaton.out))
    n = 16
    for given in (labels, None):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = abelian_coefficient_bruteforce(g, n, given)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sys.getsizeof([0] * 2 ** (n - 1))
        # every level-16 word leads to the copying state s16, whose label is 0
        assert got == 0


def test_level_images_on_many_states_hold_less_than_ten_lists_of_the_level():
    # 2,002 states at level 16: image tables of depth 8 would hold 2002 * 2^8
    # entries, about 7 MB traced, so the depth is lowered until they hold no
    # more than the prefixes, about 3.6 MB
    g = corpus.tail_flip(2000)
    n = 16
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        report = level_transitive(g, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * sys.getsizeof([0] * 2**n)
    # only the letter at depth 2000 moves, so every level-16 word is fixed
    assert report == LevelOrbitReport(n, 2**n, 1, False)


def test_bruteforce_rejects_bad_label_requests():
    m = InitialAutomaton(MealyAutomaton(3, ("s",), ((0, 0, 0),), ((0, 2, 1),)), 0)
    with pytest.raises(NotCyclicError) as info:
        abelian_coefficient_bruteforce(m, 1)
    assert info.value.state == "s"
    # with no labels the rows are judged before the component
    with pytest.raises(NotCyclicError):
        abelian_coefficient_bruteforce(m, 1, component=1)
    with pytest.raises(NotCyclicError):
        series_stream(m, None, 1)
    labels = AbelianLabels((2,), (((1,),)))
    with pytest.raises(BadComponentError):
        abelian_coefficient_bruteforce(m, 1, labels, component=1)


def test_bruteforce_rejects_labels_for_another_state_count(lamp_a):
    # lamplighter has 2 states; three label rows or one are a mismatch,
    # as they are for the closed form
    for rows in (((1,), (0,), (1,)), ((1,),)):
        labels = AbelianLabels((2,), rows)
        with pytest.raises(DimensionMismatchError):
            abelian_coefficient_bruteforce(lamp_a, 2, labels)
        with pytest.raises(DimensionMismatchError):
            rational_form(lamp_a, labels)


# ------------------------------------------------------------ conjugation


def test_conjugating_by_identity_changes_nothing(identity2, odometer, lamp_b):
    assert conjugate_by(identity2, odometer).equivalent(odometer)
    assert conjugate_by(identity2, lamp_b).equivalent(lamp_b)


def test_conjugate_acts_as_h_g_h_inverse(rng):
    for _ in range(25):
        k = rng.choice([2, 3])
        h = corpus.random_invertible(rng, k, max_states=3)
        g = corpus.random_invertible(rng, k, max_states=3)
        conj = conjugate_by(h, g)
        h_inv = h.inverse()
        for _ in range(6):
            w = corpus.random_word(rng, k)
            assert conj.apply(w) == h.apply(g.apply(h_inv.apply(w)))


def test_conjugation_preserves_orbit_structure(rng):
    for _ in range(20):
        k = rng.choice([2, 3])
        h = corpus.random_invertible(rng, k, max_states=3)
        g = corpus.random_invertible(rng, k, max_states=3)
        conj = conjugate_by(h, g)
        for n in range(4):
            ours = level_transitive(conj, n)
            theirs = level_transitive(g, n)
            assert ours.orbit_count == theirs.orbit_count
            assert ours.max_orbit == theirs.max_orbit


def test_conjugation_needs_matching_alphabets(odometer):
    other = corpus.identity_machine(3)
    with pytest.raises(AlphabetMismatchError):
        conjugate_by(other, odometer)
