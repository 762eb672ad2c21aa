"""Ground truth by direct simulation of the tree action.

Nothing in this module looks at incidence matrices or streams: levels
of the tree are enumerated word by word, which makes these functions
slow but independent cross-checks for the closed-form analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import (
    AbelianLabels,
    AlphabetMismatchError,
    AutomatonError,
    InitialAutomaton,
)
from .modmath import NegativeIndexError, abelian_vector, labels_or_shifts

DEFAULT_WORD_CAP = 10**6


class LevelTooLargeError(AutomatonError):
    """A level enumeration would exceed the word cap."""


@dataclass(frozen=True)
class LevelOrbitReport:
    level: int
    orbit_count: int
    max_orbit: int
    transitive: bool


def _level_tables(g: InitialAutomaton, n: int, max_words: int, with_images: bool):
    """Images and section states for all k^n words, in lexicographic order.

    Words are their base-k indices; level j+1 tables come from level j
    by appending one symbol, so the whole run costs O(k^n).  The image
    of word u followed by a is img[u] followed by out[s][a], where s is
    the state reached at u, so each output row is read whole.
    """
    k = g.k
    if n < 0:
        raise NegativeIndexError(f"level {n} is negative")
    if k**n > max_words:
        raise LevelTooLargeError(
            f"level {n} holds {k ** n} words, above the cap of {max_words}"
        )
    delta, out = g.automaton.delta, g.automaton.out
    img = [0] if with_images else None
    states = [g.initial]
    for _ in range(n):
        if with_images:
            img = [i * k + b for i, s in zip(img, states) for b in out[s]]
        states = [t for s in states for t in delta[s]]
    return img, states


def level_transitive(
    g: InitialAutomaton, n: int, max_words: int = DEFAULT_WORD_CAP
) -> LevelOrbitReport:
    """Orbit structure of g on the k^n words of length n.

    Builds the explicit permutation of the level; every output row is a
    permutation, so the level map is one too and its orbits are its
    cycles.  Walking each cycle once from its least unvisited word
    gives the orbit count and the largest orbit in one linear pass.
    """
    img, _ = _level_tables(g, n, max_words, with_images=True)
    seen = bytearray(len(img))
    count = largest = 0
    start = seen.find(0)
    while start >= 0:
        size = 0
        j = start
        while not seen[j]:
            seen[j] = 1
            j = img[j]
            size += 1
        count += 1
        largest = max(largest, size)
        start = seen.find(0, start + 1)
    return LevelOrbitReport(n, count, largest, count == 1)


def abelian_coefficient_bruteforce(
    g: InitialAutomaton,
    n: int,
    labels: AbelianLabels | None = None,
    component: int = 0,
    max_words: int = DEFAULT_WORD_CAP,
) -> int:
    """Sum of the section labels over all words of length n, mod m.

    Walks the transition table to every word of the level and adds up
    the chosen label component of the states reached there.
    """
    m, residues = abelian_vector(labels_or_shifts(g.automaton, labels), component)
    _, states = _level_tables(g, n, max_words, with_images=False)
    return sum(residues[s] for s in states) % m


def conjugate_by(h: InitialAutomaton, g: InitialAutomaton) -> InitialAutomaton:
    """The conjugate h g h^-1, minimized."""
    if h.k != g.k:
        raise AlphabetMismatchError(f"alphabet sizes differ: {h.k} != {g.k}")
    return h.compose(g).compose(h.inverse()).minimize()
