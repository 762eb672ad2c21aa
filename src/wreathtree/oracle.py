"""Ground truth by direct simulation of the tree action.

Nothing in this module looks at incidence matrices or streams: levels
of the tree are enumerated word by word, which makes these functions
slow but independent cross-checks for the closed-form analysis.
"""

from itertools import chain

from .automaton import AbelianLabels, AutomatonError, InitialAutomaton, labels_or_shifts
from .automaton import _check_index, _Record, _set
from .modmath import abelian_vector

DEFAULT_WORD_CAP = 10**6


class LevelTooLargeError(AutomatonError):
    """A level enumeration would exceed the word cap."""


class LevelOrbitReport(_Record):
    __slots__ = ("level", "orbit_count", "max_orbit", "transitive")

    def __init__(self, level: int, orbit_count: int, max_orbit: int, transitive: bool):
        _set(self, "level", level)
        _set(self, "orbit_count", orbit_count)
        _set(self, "max_orbit", max_orbit)
        _set(self, "transitive", transitive)


def _level_tables(g: InitialAutomaton, n: int, with_images: bool):
    """Images of all k^n words and section states of their parents.

    Words are their base-k indices, in lexicographic order; level j+1
    tables come from level j by appending one symbol, so the whole run
    costs O(k^n); a level of more than ``DEFAULT_WORD_CAP`` words is
    refused before any of it.  The image of word u followed by a is
    img[u] followed by out[s][a], where s is the state reached at u, so
    each output row is read whole.  The states returned are those of the
    k^(n-1) words of level n-1 (of the root at level 0): a level-n word
    is its parent followed by a symbol, so no caller needs level n's.
    """
    k = g.k
    _check_index(n, "level")
    if n > 64 or k**n > DEFAULT_WORD_CAP:
        # 2^64 is far past the cap, so a deeper level is refused without its size
        size = f"{k}^{n}" if n > 64 else k**n
        raise LevelTooLargeError(
            f"level {n} holds {size} words, above the cap of {DEFAULT_WORD_CAP}"
        )
    delta, out = g.automaton.delta, g.automaton.out
    img = [0] if with_images else None
    states = [g.initial]
    for level in range(1, n + 1):
        if with_images:
            img = [i * k + b for i, s in zip(img, states) for b in out[s]]
        if level < n:
            states = [t for s in states for t in delta[s]]
    return img, states


def level_transitive(g: InitialAutomaton, n: int) -> LevelOrbitReport:
    """Orbit structure of g on the k^n words of length n.

    Builds the explicit permutation of the level; every output row is a
    permutation, so the level map is one too and its orbits are its
    cycles.  Walking each cycle once from its least unvisited word
    gives the orbit count and the largest orbit in one linear pass.
    """
    img, _ = _level_tables(g, n, with_images=True)
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
) -> int:
    """Sum of the section labels over all words of length n, mod m.

    Walks the transition table to every parent word of the level.  The
    row of a state s holds the chosen label component at its k children
    (delta[s]) in symbol order, so chaining the rows of the parents in
    word order yields the label of every level-n word once, in order.
    """
    m, residues = abelian_vector(labels_or_shifts(g.automaton, labels), component)
    _, parents = _level_tables(g, n, with_images=False)
    if n == 0:
        return residues[g.initial] % m
    # a list, since list.__getitem__ maps faster than a tuple's slot wrapper
    rows = [tuple(residues[t] for t in children) for children in g.automaton.delta]
    return sum(chain.from_iterable(map(rows.__getitem__, parents))) % m


def conjugate_by(h: InitialAutomaton, g: InitialAutomaton) -> InitialAutomaton:
    """The conjugate h g h^-1, minimized."""
    return h.compose(g).compose(h.inverse()).minimize()
