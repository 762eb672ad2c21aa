"""Checks for the brute-force level simulator.

The simulator is itself the ground truth used elsewhere, so the tests
here lean on an even more naive recount: orbits found by repeatedly
calling apply on every word of a level, one word at a time.
"""

import itertools

import pytest

import corpus
from wreathtree import (
    AbelianLabels,
    AlphabetMismatchError,
    BadComponentError,
    DimensionMismatchError,
    LevelOrbitReport,
    LevelTooLargeError,
    MealyAutomaton,
    NegativeIndexError,
    NotCyclicError,
    abelian_coefficient_bruteforce,
    abelian_vector,
    coefficient_stream,
    conjugate_by,
    incidence_matrix,
    level_transitive,
    rational_form,
)


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


def test_orbit_report_agrees_with_apply_recount(rng):
    unequal = 0
    for _ in range(60):
        k = rng.choice([2, 3, 4])
        g = corpus.random_invertible(rng, k, max_states=3)
        n = rng.randint(0, 5)
        sizes = _orbit_sizes_by_apply(g, n)
        report = level_transitive(g, n)
        assert sum(sizes) == k**n
        assert report.orbit_count == len(sizes)
        assert report.max_orbit == sizes[-1]
        assert report.transitive == (len(sizes) == 1)
        unequal += sizes[0] != sizes[-1]
    # levels split into cycles of different lengths are among the cases
    assert unequal >= 10


def test_word_cap_is_enforced(odometer):
    with pytest.raises(LevelTooLargeError):
        level_transitive(odometer, 5, max_words=31)
    with pytest.raises(LevelTooLargeError):
        abelian_coefficient_bruteforce(odometer, 5, max_words=31)
    # the cap is a bound, not a target
    assert level_transitive(odometer, 5, max_words=32).transitive


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
        stream = coefficient_stream(
            incidence_matrix(g.automaton),
            abelian_vector(labels, component),
            g.initial,
        )
        for n in range(5):
            got = abelian_coefficient_bruteforce(g, n, labels, component)
            assert got == stream.term(n)


def test_bruteforce_rejects_bad_label_requests():
    m = MealyAutomaton(3, ("s",), ((0, 0, 0),), ((0, 2, 1),)).with_initial(0)
    with pytest.raises(NotCyclicError) as info:
        abelian_coefficient_bruteforce(m, 1)
    assert info.value.state == "s"
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
