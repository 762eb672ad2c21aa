"""Named machines and reproducible random corpora shared by the tests."""

import math
import random

from wreathtree import (
    AbelianLabels,
    InitialAutomaton,
    MealyAutomaton,
    is_spherically_transitive,
    validate_cyclic,
)
from wreathtree.modmath import series_stream


def odometer() -> InitialAutomaton:
    """Binary adding machine: swaps the first letter, carries on 1."""
    return InitialAutomaton(
        MealyAutomaton(2, ("a", "e"), ((1, 0), (1, 1)), ((1, 0), (0, 1))), 0
    )


def decrementer() -> InitialAutomaton:
    """Binary subtracting machine, the inverse map of the odometer."""
    return InitialAutomaton(
        MealyAutomaton(2, ("c", "e"), ((0, 1), (1, 1)), ((1, 0), (0, 1))), 0
    )


def lamplighter_machine() -> MealyAutomaton:
    """Two-state binary machine: a copies, b flips, both move to b on 1."""
    return MealyAutomaton(2, ("a", "b"), ((0, 1), (0, 1)), ((0, 1), (1, 0)))


def lamp_a() -> InitialAutomaton:
    return InitialAutomaton(lamplighter_machine(), 0)


def lamp_b() -> InitialAutomaton:
    return InitialAutomaton(lamplighter_machine(), 1)


def identity_machine(k: int = 2) -> InitialAutomaton:
    return InitialAutomaton(
        MealyAutomaton(k, ("e",), ((0,) * k,), (tuple(range(k)),)), 0
    )


def second_letter_flip() -> InitialAutomaton:
    """Binary machine that flips the second letter only; its series is zero."""
    return InitialAutomaton(
        MealyAutomaton(
            2, ("a", "b", "e"), ((1, 1), (2, 2), (2, 2)), ((0, 1), (1, 0), (0, 1))
        ),
        0,
    )


def chain(k: int, length: int) -> InitialAutomaton:
    """States s0 -> s1 -> ... -> s(length-1) -> z -> z on every letter, all copying.

    With a label only at the last chain state, the series term j is
    k^j times that label at j = length - 1 and zero elsewhere.
    """
    names = tuple(f"s{i}" for i in range(length)) + ("z",)
    delta = tuple((i + 1,) * k for i in range(length)) + ((length,) * k,)
    out = (tuple(range(k)),) * (length + 1)
    return InitialAutomaton(MealyAutomaton(k, names, delta, out), 0)


def tail_flip(length: int) -> InitialAutomaton:
    """Binary chain of ``length`` copying states, then a flip state and a copying sink.

    It moves only the letter at depth ``length``, so no two of its
    states act alike, and Moore refinement needs a round per state.
    """
    names = tuple(f"s{i}" for i in range(length)) + ("t", "z")
    delta = tuple((i + 1, i + 1) for i in range(length)) + ((length + 1,) * 2,) * 2
    out = ((0, 1),) * length + ((1, 0), (0, 1))
    return InitialAutomaton(MealyAutomaton(2, names, delta, out), 0)


def cycle_row(k: int, e: int) -> tuple:
    return tuple((i + e) % k for i in range(k))


def random_cyclic(
    rng: random.Random, k: int, max_states: int = 4, min_states: int = 1
) -> InitialAutomaton:
    """Random machine whose output rows are all powers of the k-cycle."""
    n = rng.randint(min_states, max_states)
    delta = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
    out = tuple(cycle_row(k, rng.randrange(k)) for _ in range(n))
    names = tuple(f"q{i}" for i in range(n))
    machine = MealyAutomaton(k, names, delta, out)
    return InitialAutomaton(machine, rng.randrange(n))


def random_invertible(rng: random.Random, k: int, max_states: int = 4) -> InitialAutomaton:
    """Random machine with arbitrary output permutations."""
    n = rng.randint(1, max_states)
    delta = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
    out = tuple(tuple(rng.sample(range(k), k)) for _ in range(n))
    names = tuple(f"q{i}" for i in range(n))
    machine = MealyAutomaton(k, names, delta, out)
    return InitialAutomaton(machine, rng.randrange(n))


def random_transitive(rng: random.Random, k: int, max_states: int = 4) -> InitialAutomaton:
    """Random spherically transitive machine, found by rejection."""
    for _ in range(10_000):
        g = random_cyclic(rng, k, max_states)
        if is_spherically_transitive(g).transitive:
            return g
    raise AssertionError("no transitive machine found, generator is broken")


def random_labels(rng: random.Random, n_states: int, moduli) -> AbelianLabels:
    return AbelianLabels(
        tuple(moduli),
        tuple(tuple(rng.randrange(m) for m in moduli) for _ in range(n_states)),
    )


def random_word(rng: random.Random, k: int, max_len: int = 8) -> tuple:
    return tuple(rng.randrange(k) for _ in range(rng.randint(0, max_len)))


def pad_unreachable(
    g: InitialAutomaton, labels: AbelianLabels, rng: random.Random, extra: int = 2
):
    """Append states no path from the start can reach.

    The old rows never point at the new states, so the new incidence
    matrix is block triangular and every stream seen from the old start
    is unchanged; labels for the new states are free.  Handy for
    building pairs that are equal without being identical.
    """
    m = g.automaton
    n = m.n_states
    names = m.names + tuple(f"pad{i}" for i in range(extra))
    delta = m.delta + tuple(
        tuple(rng.randrange(n + extra) for _ in range(m.k)) for _ in range(extra)
    )
    out = m.out + tuple(cycle_row(m.k, rng.randrange(m.k)) for _ in range(extra))
    rows = labels.labels + tuple(
        tuple(rng.randrange(mod) for mod in labels.moduli) for _ in range(extra)
    )
    padded = InitialAutomaton(MealyAutomaton(m.k, names, delta, out), g.initial)
    return padded, AbelianLabels(labels.moduli, rows)


def series_reference(f, g, labels_f=None, labels_g=None):
    """(equal, least witness) of two series, read off their full streams.

    Two eventually periodic streams that agree on the first
    max(preperiods) + lcm(periods) terms agree forever, so the first
    difference, if any, lies below that horizon.
    """
    labels_f = labels_f or validate_cyclic(f.automaton)
    labels_g = labels_g or validate_cyclic(g.automaton)
    witnesses = []
    for c in range(len(labels_f.moduli)):
        sf = series_stream(f, labels_f, c)
        sg = series_stream(g, labels_g, c)
        horizon = max(len(sf.preperiod), len(sg.preperiod)) + math.lcm(
            len(sf.period), len(sg.period)
        )
        witnesses += [j for j in range(horizon) if sf.term(j) != sg.term(j)][:1]
    return not witnesses, min(witnesses, default=None)
