import random
from math import gcd

import pytest

import corpus
import polyref
from wreathtree import (
    AbelianLabels,
    ConjugacyStatus,
    InitialAutomaton,
    MealyAutomaton,
    abelianization_equal,
    conjugate,
    conjugate_by,
    is_spherically_transitive,
    level_transitive,
    rational_form,
    series_expand,
    validate_cyclic,
)
from wreathtree.automaton import (
    AlphabetMismatchError,
    BadComponentError,
    NotCyclicError,
)
from wreathtree.decide import ModuliMismatchError
from wreathtree.modmath import series_stream


# ---------- spherical transitivity ----------


def test_odometer_is_transitive(odometer):
    verdict = is_spherically_transitive(odometer)
    assert verdict.transitive
    assert verdict.first_bad_index is None
    assert verdict.stream.preperiod == ()
    assert verdict.stream.period == (1,)


def test_lamplighter_states_are_not_transitive(lamp_a, lamp_b):
    va = is_spherically_transitive(lamp_a)
    assert not va.transitive and va.first_bad_index == 0
    vb = is_spherically_transitive(lamp_b)
    assert not vb.transitive and vb.first_bad_index == 2
    assert vb.stream.preperiod == (1, 1)
    assert vb.stream.period == (0,)


def test_identity_is_not_transitive(identity2):
    verdict = is_spherically_transitive(identity2)
    assert not verdict.transitive
    assert verdict.first_bad_index == 0


def test_transitivity_requires_cyclic_rows():
    m = MealyAutomaton(3, ("a",), ((0, 0, 0),), ((0, 2, 1),))
    with pytest.raises(NotCyclicError):
        is_spherically_transitive(InitialAutomaton(m, 0))


def test_first_bad_index_can_sit_inside_the_period(rng):
    # scan must cover one full period beyond the preperiod
    for _ in range(200):
        k = rng.choice([2, 3, 4, 6])
        g = corpus.random_cyclic(rng, k)
        verdict = is_spherically_transitive(g)
        stream = verdict.stream
        scan = stream.preperiod + stream.period
        expected = next((j for j, c in enumerate(scan) if gcd(c, k) != 1), None)
        assert verdict.first_bad_index == expected
        assert verdict.transitive == (expected is None)


def test_odometer_on_larger_alphabets_is_transitive():
    # a: a -> a+1 mod k, carrying on the last letter; e copies
    for k in (3, 4, 5):
        delta = (tuple(0 if a == k - 1 else 1 for a in range(k)), (1,) * k)
        out = (corpus.cycle_row(k, 1), corpus.cycle_row(k, 0))
        g = InitialAutomaton(MealyAutomaton(k, ("a", "e"), delta, out), 0)
        verdict = is_spherically_transitive(g)
        assert verdict.transitive and verdict.first_bad_index is None
        for n in range(4):
            assert level_transitive(g, n).transitive


# ---------- level alignment with the simulator ----------


def test_stream_units_match_level_orbits(rng):
    for _ in range(40):
        k = rng.choice([2, 3])
        g = corpus.random_cyclic(rng, k, max_states=3)
        stream = is_spherically_transitive(g).stream
        for n in range(6):
            closed_form = all(gcd(stream.term(j), k) == 1 for j in range(n))
            assert closed_form == level_transitive(g, n).transitive


# ---------- abelianization equality ----------


def test_every_machine_equals_itself(rng, odometer):
    assert abelianization_equal(odometer, odometer) == (True, None)
    for _ in range(20):
        g = corpus.random_cyclic(rng, rng.choice([2, 3, 4]))
        assert abelianization_equal(g, g) == (True, None)


def test_odometer_equals_decrementer(odometer):
    assert abelianization_equal(odometer, corpus.decrementer()) == (True, None)


def test_odometer_vs_lamp_b_witness(odometer, lamp_b):
    equal, witness = abelianization_equal(odometer, lamp_b)
    assert not equal
    assert witness == 2


def test_witness_is_least_differing_index(rng):
    for _ in range(80):
        k = rng.choice([2, 3, 4])
        f = corpus.random_cyclic(rng, k)
        g = corpus.random_cyclic(rng, k)
        equal, witness = abelianization_equal(f, g)
        sf = is_spherically_transitive(f).stream
        sg = is_spherically_transitive(g).stream
        horizon = (
            len(sf.preperiod) + len(sg.preperiod)
            + 2 * len(sf.period) * len(sg.period) + 4
        )
        diffs = [j for j in range(horizon) if sf.term(j) != sg.term(j)]
        if equal:
            assert witness is None
            assert not diffs
        else:
            assert witness == diffs[0]


def test_padding_preserves_equality(rng):
    for _ in range(25):
        k = rng.choice([2, 3])
        g = corpus.random_cyclic(rng, k)
        labels = validate_cyclic(g.automaton)
        padded, padded_labels = corpus.pad_unreachable(g, labels, rng)
        assert abelianization_equal(g, padded, labels, padded_labels) == (True, None)


def test_equality_is_an_equivalence_relation(rng):
    sample = [corpus.random_cyclic(rng, 2, max_states=3) for _ in range(12)]
    for f in sample:
        assert abelianization_equal(f, f)[0]
        for g in sample:
            assert abelianization_equal(f, g)[0] == abelianization_equal(g, f)[0]
    for f in sample:
        for g in sample:
            if not abelianization_equal(f, g)[0]:
                continue
            for h in sample:
                if abelianization_equal(g, h)[0]:
                    assert abelianization_equal(f, h)[0]


def test_multi_component_labels_checked_independently():
    e = corpus.identity_machine(2)
    labels_f = AbelianLabels((2, 3), ((1, 2),))
    labels_g = AbelianLabels((2, 3), ((1, 1),))
    equal, witness = abelianization_equal(e, e, labels_f, labels_g)
    assert not equal
    assert witness == 0
    assert abelianization_equal(e, e, labels_f, labels_f) == (True, None)


def test_prime_path_agrees_with_generic(rng):
    # the bounded loop against the first difference of the two full streams
    for _ in range(160):
        k = rng.choice([2, 3])
        m = rng.choice([2, 3, 4, 5, 6, 7, 8, 9, 12])
        f = corpus.random_cyclic(rng, k)
        labels_f = corpus.random_labels(rng, f.automaton.n_states, (m,))
        if rng.random() < 0.5:
            g, labels_g = corpus.pad_unreachable(f, labels_f, rng)
        else:
            g = corpus.random_cyclic(rng, k)
            labels_g = corpus.random_labels(rng, g.automaton.n_states, (m,))
        expected = corpus.series_reference(f, g, labels_f, labels_g)
        assert abelianization_equal(f, g, labels_f, labels_g) == expected


def test_equality_witness_is_below_the_stacked_dimension(rng):
    for _ in range(120):
        k = rng.choice([2, 3])
        m = rng.choice([2, 4, 6, 8, 9, 12])
        f = corpus.random_cyclic(rng, k)
        g = corpus.random_cyclic(rng, k)
        labels_f = corpus.random_labels(rng, f.automaton.n_states, (m,))
        labels_g = corpus.random_labels(rng, g.automaton.n_states, (m,))
        equal, witness = abelianization_equal(f, g, labels_f, labels_g)
        assert equal == (witness is None)
        if not equal:
            assert witness < f.automaton.n_states + g.automaton.n_states


def test_equality_finds_a_witness_deep_in_a_chain():
    # the chain's series is 3^(L-1) at index L-1 and zero elsewhere
    e = corpus.identity_machine(3)
    for m in (2, 4, 5, 8):
        zero = AbelianLabels((m,), ((0,),))
        for length in range(1, 7):
            f = corpus.chain(3, length)
            labels = AbelianLabels((m,), ((0,),) * (length - 1) + ((1,), (0,)))
            assert abelianization_equal(f, e, labels, zero) == (False, length - 1)


def test_equality_guards(odometer):
    with pytest.raises(AlphabetMismatchError):
        abelianization_equal(odometer, corpus.identity_machine(3))
    labels3 = AbelianLabels((3,), ((1,), (0,)))
    with pytest.raises(ModuliMismatchError):
        abelianization_equal(odometer, odometer, labels3, None)
    # the moduli are compared before any output row is judged cyclic
    swap = InitialAutomaton(MealyAutomaton(3, ("s",), ((0, 0, 0),), ((0, 2, 1),)), 0)
    labels5 = AbelianLabels((5,), ((1,),))
    with pytest.raises(ModuliMismatchError, match=r"label moduli differ: \(3,\) != \(5,\)"):
        abelianization_equal(swap, corpus.identity_machine(3), None, labels5)


# ---------- conjugacy ----------


def test_conjugacy_fixture_verdicts(odometer, lamp_a, lamp_b):
    # odometer and decrementer act differently, so the series decide
    assert not odometer.equivalent(corpus.decrementer())
    both = conjugate(odometer, corpus.decrementer())
    assert both.status is ConjugacyStatus.CONJUGATE
    assert both.reason == "both spherically transitive with equal abelianization series"
    one = conjugate(odometer, lamp_b)
    assert one.status is ConjugacyStatus.NOT_CONJUGATE
    differ = conjugate(lamp_a, lamp_b)
    assert differ.status is ConjugacyStatus.NOT_CONJUGATE
    assert "index 0" in differ.reason
    # criterion 06: both series are zero, yet the flip moves the second letter
    identity, flip = corpus.identity_machine(2), corpus.second_letter_flip()
    assert not identity.equivalent(flip)
    neither = conjugate(identity, flip)
    assert neither.status is ConjugacyStatus.UNDECIDED
    assert neither.reason.startswith("neither element is spherically transitive")
    assert conjugate(flip, identity) == neither
    for verdict in (both, one, differ, neither):
        assert verdict.reason


def test_conjugate_checks_the_series_first(rng):
    twins = 0
    for _ in range(60):
        k = rng.choice([2, 3])
        f = corpus.random_cyclic(rng, k, max_states=3)
        padded = rng.random() < 0.5
        if padded:
            g, _ = corpus.pad_unreachable(f, validate_cyclic(f.automaton), rng)
        else:
            g = corpus.random_cyclic(rng, k, max_states=3)
        equal, witness = abelianization_equal(f, g)
        verdict = conjugate(f, g)
        if not equal:
            assert not padded
            assert verdict.status is ConjugacyStatus.NOT_CONJUGATE
            assert verdict.reason.endswith(f"at index {witness}")
            continue
        transitive = is_spherically_transitive(f).transitive
        # equal series imply equal transitivity
        assert is_spherically_transitive(g).transitive == transitive
        if f.equivalent(g):  # every padded twin, and any pair that acts alike
            twins += padded
            assert verdict.status is ConjugacyStatus.CONJUGATE
            assert "identity" in verdict.reason
            continue
        assert not padded
        expected = ConjugacyStatus.CONJUGATE if transitive else ConjugacyStatus.UNDECIDED
        assert verdict.status is expected
    assert twins


def _shuffled_double(g, rng):
    """g's machine with every state doubled and the states shuffled: same action, twice the states.

    Copy c of state q is state order[2 q + c], and each successor is a
    copy of the old target picked at random, so the two copies of q may
    have different rows in the table, yet both act as q.
    """
    m = g.automaton
    order = list(range(2 * m.n_states))
    rng.shuffle(order)
    names, delta, out = [None] * len(order), [None] * len(order), [None] * len(order)
    for q in range(m.n_states):
        for c in range(2):
            s = order[2 * q + c]
            names[s] = f"{m.names[q]}_{c}"
            delta[s] = tuple(order[2 * t + rng.randrange(2)] for t in m.delta[q])
            out[s] = m.out[q]
    return InitialAutomaton(MealyAutomaton(m.k, names, delta, out), order[2 * g.initial])


def test_equivalent_machines_are_conjugate(rng):
    # non-transitive machines, which the series alone leaves undecided
    seen = 0
    while seen < 40:
        f = corpus.random_cyclic(rng, rng.choice([2, 3]), max_states=4)
        if is_spherically_transitive(f).transitive:
            continue
        seen += 1
        padded, _ = corpus.pad_unreachable(f, validate_cyclic(f.automaton), rng)
        for twin in (padded, _shuffled_double(f, rng)):
            assert twin.automaton != f.automaton
            assert f.equivalent(twin)
            for verdict in (conjugate(f, twin), conjugate(twin, f)):
                assert verdict.status is ConjugacyStatus.CONJUGATE
                assert verdict.reason == (
                    "the machines act alike, so the identity conjugates one to the other"
                )


def test_transitive_elements_with_distinct_series_are_not_conjugate():
    # two transitive ternary machines whose series differ at index 0
    plus_one = InitialAutomaton(
        MealyAutomaton(3, ("a", "e"), ((1, 1, 0), (1, 1, 1)), ((1, 2, 0), (0, 1, 2))), 0
    )
    other = InitialAutomaton(
        MealyAutomaton(3, ("b", "e"), ((1, 0, 0), (1, 1, 1)), ((2, 0, 1), (0, 1, 2))), 0
    )
    assert is_spherically_transitive(plus_one).transitive
    assert is_spherically_transitive(other).transitive
    assert conjugate(plus_one, other).status is ConjugacyStatus.NOT_CONJUGATE


def test_conjugation_invariance(rng, odometer):
    for _ in range(15):
        h = corpus.random_cyclic(rng, 2, max_states=3)
        moved = conjugate_by(h, odometer)
        assert conjugate(odometer, moved).status is ConjugacyStatus.CONJUGATE


def test_conjugacy_alphabet_guard(odometer):
    with pytest.raises(AlphabetMismatchError):
        conjugate(odometer, corpus.identity_machine(3))


# ---------- rational form ----------


def test_rational_form_odometer(odometer):
    series = rational_form(odometer)
    assert series.modulus == 2
    assert series.numerator == (1,)
    assert series.denominator == (1, 1)
    assert series_expand(series, 6) == [1] * 6


def test_rational_form_lamp_b(lamp_b):
    series = rational_form(lamp_b)
    assert series.numerator == (1, 1)
    assert series.denominator == (1,)
    assert series_expand(series, 6) == [1, 1, 0, 0, 0, 0]


def test_rational_form_identity(identity2):
    series = rational_form(identity2)
    assert series.numerator == ()
    assert series.denominator == (1,)
    assert series_expand(series, 4) == [0, 0, 0, 0]


def test_rational_form_component_guard(odometer):
    with pytest.raises(BadComponentError):
        rational_form(odometer, component=1)


def test_rational_form_matches_stream(rng):
    for _ in range(60):
        k = rng.choice([2, 3, 4, 6])
        g = corpus.random_cyclic(rng, k)
        verdict = is_spherically_transitive(g)
        stream = verdict.stream
        count = len(stream.preperiod) + 2 * len(stream.period) + 4
        series = rational_form(g)
        assert series_expand(series, count) == stream.terms(count)


def test_rational_form_with_explicit_labels(rng):
    for _ in range(40):
        k = rng.choice([2, 3])
        g = corpus.random_cyclic(rng, k)
        moduli = rng.choice([(2,), (3,), (4,), (6,), (2, 3)])
        labels = corpus.random_labels(rng, g.automaton.n_states, moduli)
        for component in range(len(moduli)):
            series = rational_form(g, labels, component)
            stream = series_stream(g, labels, component)
            count = len(stream.preperiod) + 2 * len(stream.period) + 4
            assert series_expand(series, count) == stream.terms(count)


def test_rational_form_denominator_has_unit_constant_term(rng):
    for _ in range(30):
        k = rng.choice([2, 3, 4])
        g = corpus.random_cyclic(rng, k)
        series = rational_form(g)
        assert series.denominator[0] % series.modulus == 1


def test_rational_form_equals_the_cramer_pair(rng):
    # the printed pair is the two Z[t] determinants of Cramer's rule reduced
    # mod m, byte for byte; every third machine has up to 12 states and the
    # rest up to 6, because the reference is slow
    sizes = set()
    for trial in range(2016):
        k = 2 + trial % 8
        n = rng.randint(1, 12 if trial % 3 == 0 else 6)
        sizes.add(n)
        g = corpus.random_cyclic(rng, k, max_states=n, min_states=n)
        if trial % 2:
            moduli = tuple(rng.randint(2, 30) for _ in range(rng.randint(1, 3)))
            labels = corpus.random_labels(rng, n, moduli)
        else:
            labels = validate_cyclic(g.automaton)
        if trial % 7 == 0:
            g, labels = corpus.pad_unreachable(g, labels, rng)
        want = polyref.cramer_pairs(g, labels)
        for component, pair in enumerate(want):
            assert rational_form(g, labels, component) == pair, (g, labels, component)
    assert sizes == set(range(1, 13))


@pytest.mark.parametrize("m", [2, 2**64 + 13, 2**89 - 1])
def test_rational_form_equals_the_cramer_pair_in_wide_lanes(m):
    # the numerator is one product of integers packed in lanes of
    # bit_length(n (m - 1)^2) + 1 bits: the narrowest at m = 2, several
    # machine words wide at the large moduli, where residues near m fill them
    rng = random.Random(m)
    for trial in range(64):
        k, n = 2 + trial % 8, 1 + trial // 8
        g = corpus.random_cyclic(rng, k, max_states=n, min_states=n)
        labels = corpus.random_labels(rng, n, (m,))
        if trial % 3 == 0:
            labels = AbelianLabels((m,), tuple((m - 1 - rng.randrange(min(3, m)),) for _ in range(n)))
        (want,) = polyref.cramer_pairs(g, labels)
        assert rational_form(g, labels) == want, (g, labels)


@pytest.mark.parametrize("n", [40, 60])
def test_rational_form_on_large_machines(n):
    # too large for the Z[t] reference, and their streams are far too long
    # to close, so the terms come from dense matrix powers
    g = corpus.random_cyclic(random.Random(n), 3, max_states=n, min_states=n)
    dense = [[row.count(s) for s in range(n)] for row in g.automaton.delta]
    w = [label[0] for label in validate_cyclic(g.automaton).labels]
    terms = []
    for _ in range(2 * n):
        terms.append(w[g.initial])
        w = [sum(a * x for a, x in zip(row, w)) % 3 for row in dense]
    assert series_expand(rational_form(g), 2 * n) == terms
