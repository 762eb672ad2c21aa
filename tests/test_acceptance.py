"""Acceptance suite: ten numbered checks, one test and one verdict line each.

Run with -v (or -s to see the printed lines) to get a pass/fail line
per criterion.  The random corpora are seeded, so every run checks the
same machines.
"""

import math
import random
import time
from pathlib import Path

import pytest

import corpus
import wreathtree
from wreathtree import (
    ConjugacyStatus,
    RationalSeries,
    abelian_coefficient_bruteforce,
    abelianization_equal,
    conjugate,
    conjugate_by,
    is_spherically_transitive,
    level_transitive,
    parse_automaton,
    rational_form,
    serialize_automaton,
    series_expand,
)
from wreathtree.cli import main
from wreathtree.modmath import series_stream
from wreathtree.oracle import DEFAULT_WORD_CAP

SEED = 20260814
FIXTURES = Path(wreathtree.__file__).parent / "fixtures"
ODOMETER = str(FIXTURES / "odometer.aut")
LAMP_A = str(FIXTURES / "lamplighter.aut")
LAMP_B = str(FIXTURES / "lamplighter_b.aut")

# 200 cyclic invertible machines, at most 4 states each
CORPUS_PLAN = ((2, 70), (3, 60), (4, 40), (6, 30))


def _report(number: int, text: str) -> None:
    print(f"criterion {number:02d}: PASS  {text}")


def _doc(out: str) -> dict:
    return {
        key: value
        for key, _, value in (line.partition(" = ") for line in out.splitlines())
    }


def _cap_level(k: int) -> int:
    """Deepest level the word cap allows."""
    n = 0
    while k ** (n + 1) <= DEFAULT_WORD_CAP:
        n += 1
    return n


def _max_level(k: int) -> int:
    """Deepest level of the n <= 8 sweep the word cap allows."""
    return min(8, _cap_level(k))


@pytest.fixture(scope="module")
def sweep_corpus():
    rng = random.Random(SEED)
    machines = []
    for k, count in CORPUS_PLAN:
        machines.extend(
            corpus.random_cyclic(rng, k, max_states=4) for _ in range(count)
        )
    return machines


def test_criterion_01_adding_machine_fixture(capsys):
    start = time.perf_counter()
    assert main(["transitive", ODOMETER]) == 0
    doc = _doc(capsys.readouterr().out)
    assert doc["transitive"] == "true"
    assert doc["stream.preperiod"] == "[]"
    assert doc["stream.period"] == "[1]"
    verdict = is_spherically_transitive(corpus.odometer())
    assert verdict.transitive
    assert verdict.stream.terms(16) == [1] * 16
    assert time.perf_counter() - start < 1.0
    _report(1, "adding machine is transitive with the all-ones stream")


def test_criterion_02_lamplighter_fixtures():
    start = time.perf_counter()
    a = is_spherically_transitive(corpus.lamp_a())
    assert not a.transitive
    assert a.first_bad_index == 0
    b = is_spherically_transitive(corpus.lamp_b())
    assert not b.transitive
    assert b.first_bad_index == 2
    assert b.stream.terms(6) == [1, 1, 0, 0, 0, 0]
    assert level_transitive(corpus.lamp_b(), 1).transitive
    assert level_transitive(corpus.lamp_b(), 2).transitive
    assert not level_transitive(corpus.lamp_b(), 3).transitive
    assert time.perf_counter() - start < 1.0
    _report(2, "both lamplighter starts fail at the predicted indices")


def test_criterion_03_stream_units_decide_level_transitivity(sweep_corpus):
    start = time.perf_counter()
    checked = 0
    for g in sweep_corpus:
        stream = is_spherically_transitive(g).stream
        for n in range(_max_level(g.k) + 1):
            units = all(math.gcd(stream.term(j), g.k) == 1 for j in range(n))
            assert units == level_transitive(g, n).transitive, (g, n)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(3, f"unit criterion matched the orbit oracle in {checked} level checks")


def test_criterion_04_stream_terms_match_bruteforce_sums(sweep_corpus):
    checked = 0
    for g in sweep_corpus:
        stream = series_stream(g)
        for n in range(_cap_level(g.k) + 1):
            assert stream.term(n) == abelian_coefficient_bruteforce(g, n), (g, n)
            checked += 1
    _report(4, f"closed-form coefficients equal brute sums in {checked} checks")


def test_criterion_05_rational_form_expands_to_the_stream(sweep_corpus):
    for g in sweep_corpus:
        stream = series_stream(g)
        count = len(stream.preperiod) + 2 * len(stream.period) + 4
        assert series_expand(rational_form(g), count) == stream.terms(count), g
    series = rational_form(corpus.odometer())
    target = RationalSeries(2, (1,), (1, 1))
    assert series_expand(series, 12) == series_expand(target, 12)
    _report(5, "rational forms expand back to their streams on the corpus")


def test_criterion_06_conjugacy_fixtures_and_random_conjugates():
    odo = corpus.odometer()
    assert conjugate(odo, corpus.decrementer()).status is ConjugacyStatus.CONJUGATE
    assert conjugate(odo, corpus.lamp_b()).status is ConjugacyStatus.NOT_CONJUGATE
    assert (
        conjugate(corpus.lamp_a(), corpus.lamp_b()).status
        is ConjugacyStatus.NOT_CONJUGATE
    )
    assert (
        conjugate(corpus.identity_machine(2), corpus.second_letter_flip()).status
        is ConjugacyStatus.UNDECIDED
    )
    rng = random.Random(SEED + 6)
    plans = [(2, 3, 3)] * 35 + [(3, 2, 2)] * 15
    for k, h_states, g_states in plans:
        h = corpus.random_cyclic(rng, k, max_states=h_states)
        g = corpus.random_transitive(rng, k, max_states=g_states)
        verdict = conjugate(g, conjugate_by(h, g))
        assert verdict.status is ConjugacyStatus.CONJUGATE, (h, g)
    _report(6, f"fixture verdicts exact and {len(plans)} conjugate pairs confirmed")


def test_criterion_07_binary_fast_path_agrees():
    # over F_2, term - 1 is a linear functional of the iterates of (v, 1),
    # n + 1 coordinates, so the first n + 2 level sums decide transitivity
    rng = random.Random(SEED + 7)
    for _ in range(220):
        g = corpus.random_invertible(rng, 2, max_states=6)
        budget = g.automaton.n_states + 2
        sums = [abelian_coefficient_bruteforce(g, j) for j in range(budget)]
        verdict = is_spherically_transitive(g)
        assert verdict.transitive == all(c == 1 for c in sums), g
        if not verdict.transitive:
            assert verdict.first_bad_index == sums.index(0) < budget, g
    _report(7, "n+2 brute-force level sums decided binary transitivity 220 times")


def test_criterion_08_prime_equality_shortcut_agrees():
    rng = random.Random(SEED + 8)
    for _ in range(210):
        k = rng.choice([2, 3, 4, 5, 6, 7, 8, 9])
        f = corpus.random_cyclic(rng, k, max_states=3 if k > 5 else 4)
        g = corpus.random_cyclic(rng, k, max_states=3 if k > 5 else 4)
        assert abelianization_equal(f, g) == corpus.series_reference(f, g), (f, g)
    for _ in range(40):
        k = rng.choice([2, 3])
        f = corpus.random_cyclic(rng, k)
        g = corpus.random_cyclic(rng, k)
        moduli = rng.choice([(4,), (6,), (8,), (9,), (12,), (2, 3), (4, 9)])
        labels_f = corpus.random_labels(rng, f.automaton.n_states, moduli)
        labels_g = corpus.random_labels(rng, g.automaton.n_states, moduli)
        assert abelianization_equal(
            f, g, labels_f, labels_g
        ) == corpus.series_reference(f, g, labels_f, labels_g), (f, g, moduli)
    for _ in range(40):
        k = rng.choice([2, 3])
        g = corpus.random_cyclic(rng, k)
        moduli = rng.choice(
            [(2,), (3,), (5,), (7,), (2, 3), (3, 5), (4,), (6,), (8,), (9,), (12,)]
        )
        labels = corpus.random_labels(rng, g.automaton.n_states, moduli)
        padded, padded_labels = corpus.pad_unreachable(g, labels, rng)
        bounded = abelianization_equal(g, padded, labels, padded_labels)
        reference = corpus.series_reference(g, padded, labels, padded_labels)
        assert bounded == reference == (True, None), (g, moduli)
    _report(8, "bounded equality matched the full streams on 290 pairs")


def test_criterion_09_group_laws_hold():
    rng = random.Random(SEED + 9)
    for _ in range(100):
        k = rng.choice([2, 3, 4])
        g = corpus.random_invertible(rng, k, max_states=4)
        assert g.compose(g.inverse()).equivalent(corpus.identity_machine(k)), g
    for _ in range(1000):
        k = rng.choice([2, 3, 4])
        f = corpus.random_invertible(rng, k, max_states=4)
        g = corpus.random_invertible(rng, k, max_states=4)
        w = corpus.random_word(rng, k)
        assert f.compose(g).apply(w) == f.apply(g.apply(w)), (f, g, w)
    _report(9, "inverse and composition laws held on 1000 random triples")


def test_criterion_10_round_trip_and_determinism(capsys):
    for path in sorted(FIXTURES.glob("*.aut")):
        parsed = parse_automaton(path.read_text())
        canon = serialize_automaton(parsed.automaton, parsed.initial, parsed.labels)
        reparsed = parse_automaton(canon)
        assert reparsed == parsed, path
        assert (
            serialize_automaton(reparsed.automaton, reparsed.initial, reparsed.labels)
            == canon
        ), path
    for argv in (
        ["validate", ODOMETER],
        ["transitive", ODOMETER],
        ["coeffs", LAMP_B, "--count", "8"],
        ["rational", LAMP_B],
        ["equal-ab", ODOMETER, LAMP_B],
        ["conjugate", LAMP_A, LAMP_B],
        ["dot", ODOMETER],
    ):
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first, argv
    _report(10, "serialization round-trips and repeated outputs are byte-equal")
