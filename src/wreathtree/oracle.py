"""Ground truth by direct simulation of the tree action.

Nothing in this module looks at incidence matrices or streams: every
word of a level is enumerated, its label or image read from a table
of its state after the first n - d letters (see ``_depth``), which
makes these functions slow but independent cross-checks for the
closed-form analysis.  A label table is one integer, the labels below
its state in fixed-width lanes, so a level sum adds a whole table with
one big-integer addition per prefix; every label is still added once,
and none is multiplied or summed ahead of time.
"""

from functools import reduce
from itertools import chain
from operator import or_

from .automaton import AbelianLabels, AutomatonError, InitialAutomaton
from .automaton import _check_index, _label_vector, _Record

DEFAULT_WORD_CAP = 10**6


class LevelTooLargeError(AutomatonError):
    """A level enumeration would exceed the word cap."""


class LevelOrbitReport(_Record):
    __slots__ = ("level", "orbit_count", "max_orbit", "transitive")

    def __init__(self, level: int, orbit_count: int, max_orbit: int, transitive: bool):
        super().__init__(level, orbit_count, max_orbit, transitive)


def _below(delta, s: int, depth: int):
    """The states at the k^depth words below state s, in word order, lazily."""
    states = (s,)
    for _ in range(depth):
        states = chain.from_iterable(map(delta.__getitem__, states))
    return states


def _walk(g: InitialAutomaton, s: int, depth: int) -> tuple[list[int], list[int]]:
    """Images (base-k indices) and states of the k^depth words below state s.

    Both lists are in word order; the image of word u followed by a is
    img[u] followed by out[t][a], where t is the state reached at u.
    """
    k, delta, out = g.k, g.automaton.delta, g.automaton.out
    img, states = [0], [s]
    for _ in range(depth):
        img = [i * k + b for i, t in zip(img, states) for b in out[t]]
        states = [u for t in states for u in delta[t]]
    return img, states


def _depth(g: InitialAutomaton, n: int) -> int:
    """The suffix length d at which level n is met in the middle.

    A word of level n is a prefix u of length n - d and a suffix v of
    length d.  Only the k^(n-d) prefixes are walked; each state s has a
    table over its k^d suffixes, and the words below u read the table
    of the state reached at u whole: the label of u v is the label at v
    below s, and the image of u v is the image of u followed by that of
    v under s.  An image table is a list; a label table is one
    integer holding its k^d labels in lanes (see
    ``abelian_coefficient_bruteforce``).  d is n // 2, lowered while
    n_states * k^d exceeds k^(n-d), but never below 1 once n >= 1, so
    the tables hold n_states * k^d <= max(n_states * k, k^(n-d))
    entries.  A negative level, or one of more than
    ``DEFAULT_WORD_CAP`` words, is refused before any work.
    """
    k = g.k
    _check_index(n, "level")
    if n > 64 or k**n > DEFAULT_WORD_CAP:
        # 2^64 is far past the cap, so a deeper level is refused without its size
        size = f"{k}^{n}" if n > 64 else k**n
        raise LevelTooLargeError(
            f"level {n} holds {size} words, above the cap of {DEFAULT_WORD_CAP}"
        )
    d = min(n, max(1, n // 2))
    while d > 1 and g.automaton.n_states * k**d > k ** (n - d):
        d -= 1
    return d


def level_transitive(g: InitialAutomaton, n: int) -> LevelOrbitReport:
    """Orbit structure of g on the k^n words of length n.

    Builds the explicit permutation of the level; every output row is a
    permutation, so the level map is one too and its orbits are its
    cycles.  Walking each cycle once from its least unvisited word
    gives the orbit count and the largest orbit in one linear pass.
    The base-k images are met in the middle (see ``_depth``), so
    besides the k^n images and a visited byte per word, the prefix
    images, the prefix states and the suffix tables hold at most
    max(n_states * k, k^(n-d)) entries each.
    """
    k, d = g.k, _depth(g, n)
    rows = [_walk(g, s, d)[0] for s in range(g.automaton.n_states)]
    img, states = _walk(g, g.initial, n - d)
    # each prefix image is scaled once, not once per word below it
    img = [i + j for i, s in zip(map((k**d).__mul__, img), states) for j in rows[s]]
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

    The labels are read as ``series_stream`` reads them: one component
    of the given labels, or by default each state's shift mod k.

    Each word's label is read from the suffix table of the state
    reached at its prefix (see ``_depth``).  A table is one integer:
    the chosen component's k^d labels below its state, in word order,
    label i in the lane of w = bit_length(k^n * (m - 1)) + 1 bits at
    bit i * w.  The depth-j table of s is the depth-(j - 1) tables of
    its k successors side by side, joined with ``|``, so building it
    adds no two labels.  The prefixes are walked lazily, and one
    big-integer addition per prefix adds its table lane by lane.

    Lane i then holds L_i, the sum of the labels of the k^(n-d) words
    ending in suffix i, at most k^(n-d) * (m - 1) < 2^w, so no lane
    carries into the next and the total is the sum of L_i * 2^(i*w).
    As 2^w = 1 mod 2^w - 1, the total mod 2^w - 1 is the sum of the
    L_i mod 2^w - 1; that sum, of all k^n labels, is at most
    k^n * (m - 1) < 2^(w-1) < 2^w - 1 (m >= 2 makes w >= 2), so the
    fold gives it exactly.  Every label of every level-n word is added
    once, with no list of words and no per-state total.
    """
    m, residues = _label_vector(g.automaton, labels, component)
    k, d, delta = g.k, _depth(g, n), g.automaton.delta
    width = (k**n * (m - 1)).bit_length() + 1
    tables = residues
    for j in range(d):
        step = k**j * width
        tables = [reduce(or_, [tables[t] << a * step for a, t in enumerate(row)]) for row in delta]
    total = sum(map(tables.__getitem__, _below(delta, g.initial, n - d)))
    return total % ((1 << width) - 1) % m


def conjugate_by(h: InitialAutomaton, g: InitialAutomaton) -> InitialAutomaton:
    """The conjugate h g h^-1, minimized."""
    return h.compose(g).compose(h.inverse()).minimize()
