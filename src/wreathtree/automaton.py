"""Invertible Mealy automata acting on the rooted k-ary tree.

An automaton has finitely many states, the alphabet {0, ..., k-1}, a
transition table and, for every state, an output row.  A state rewrites
a word letter by letter: it pushes the first letter through its output
row and hands the remaining letters to the successor state given by the
transition table.  Every output row is a permutation, so a state
computes an automorphism of the rooted k-ary tree whose vertices are
the finite words over the alphabet; sections of that automorphism at
vertices are again states of the same machine.

The module also defines the text format used to store automata on disk
and per-state labels in a product of finite cyclic groups, which the
analysis modules consume.
"""

import re
from itertools import count, starmap
from operator import attrgetter, itemgetter

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_INT_RE = re.compile(r"-?[0-9]+\Z")


class AutomatonError(Exception):
    """Base class for every error raised by this package."""


class ParseError(AutomatonError):
    """Malformed automaton text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class MissingAlphabetError(ParseError):
    """No alphabet directive, or a state declared before it."""


class UnknownStateError(ParseError):
    """A state name is referenced but never declared."""

    def __init__(self, name: str, line: int | None = None):
        self.name = name
        super().__init__(f"unknown state {name!r}", line)


class BadPermutationError(AutomatonError):
    """An output row is not a bijection of the alphabet."""

    def __init__(self, state: str, row):
        self.state = state
        super().__init__(
            f"output row {tuple(row)} of state '{state}' is not a permutation of the alphabet"
        )


class NotCyclicError(AutomatonError):
    """An output permutation is not a power of the cycle 0 -> 1 -> ... -> k-1."""

    def __init__(self, state: str):
        self.state = state
        super().__init__(
            f"output permutation of state '{state}' is not a power of the standard cycle"
        )


class BadSymbolError(AutomatonError):
    """A word contains a symbol outside the alphabet."""

    def __init__(self, position: int, symbol):
        self.position = position
        super().__init__(f"bad symbol {symbol!r} at position {position}")


class AlphabetMismatchError(AutomatonError):
    """Two automata over different alphabets were combined."""


def _check_alphabets(f, g) -> None:
    """Raise AlphabetMismatchError unless f and g share one alphabet size."""
    if f.k != g.k:
        raise AlphabetMismatchError(f"alphabet sizes differ: {f.k} != {g.k}")


class DimensionMismatchError(AutomatonError):
    """Shapes that must agree do not: label rows and states, matrix and vector."""


def _not_integer(role: str, value) -> AutomatonError:
    return AutomatonError(f"{role} {value!r} is not an integer")


def _is_int(value) -> bool:
    """Whether value is an int and not a bool: True is an int, but no index, symbol or residue."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_size(value, role: str) -> None:
    """Raise AutomatonError unless value, an alphabet size or a modulus, is an integer >= 2."""
    if not _is_int(value):
        raise _not_integer(role, value)
    if value < 2:
        raise AutomatonError(f"{role} {value} must be at least 2")


def _check_residues(m: int, role: str, values) -> None:
    """Raise AutomatonError unless m is an integer >= 2 and every value one in 0 .. m-1."""
    _check_size(m, "modulus")
    for v in values:
        if not (_is_int(v) and 0 <= v < m):
            fault = f"out of range mod {m}" if _is_int(v) else "not an integer"
            raise AutomatonError(f"{role} {v!r} is {fault}")


class NegativeIndexError(AutomatonError):
    """An index, count, level or cap below zero was asked for."""


def _check_index(value, role: str, bound: int | None = None, error=NegativeIndexError) -> int:
    """value, once checked to be an integer >= 0 and, given a bound, below it."""
    if not _is_int(value):
        raise _not_integer(role, value)
    if value < 0 or bound is not None and value >= bound:
        raise error(f"{role} {value} is {'negative' if bound is None else 'out of range'}")
    return value


def _check_names(names) -> None:
    """Raise AutomatonError unless every name is letters, digits and underscores."""
    for name in names:
        if not (isinstance(name, str) and _NAME_RE.match(name)):
            raise AutomatonError(f"bad state name {name!r}")


class MissingInitialError(AutomatonError):
    """An operation needs an initial state but none was given."""


class BadComponentError(AutomatonError):
    """A label component index is out of range."""


class _Record:
    """Immutable value type whose fields are the names in ``__slots__``.

    It gives what a frozen dataclass would: equality and hashing over
    the tuple of fields, between instances of the same class only, the
    repr ``Name(field=value, ...)``, fields that cannot be assigned or
    deleted, and pickling and copying through the constructor.  Each
    subclass names two or more fields, and its explicit ``__init__``
    passes their values to ``_Record.__init__``, then checks them.
    Records are checked once, where they enter: a constructor checks
    what it is given, ``parse_automaton`` checks each line as it reads
    it, and the records built from checked parts are built by ``_of``,
    unchecked; ``decide.RationalSeries._of`` is the same for that frozen
    dataclass.

    Frozen dataclasses would do the same, but ``dataclasses`` imports
    ``inspect``, ``ast`` and ``tokenize`` and runs a code generator per
    class, which costs a one-shot CLI process a tenth of its start-up.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)

    @classmethod
    def _of(cls, *values):
        """The record of these final field values, in ``__slots__`` order, unchecked."""
        record = object.__new__(cls)
        _Record.__init__(record, *values)
        return record


_set = object.__setattr__


def _check_permutations(k: int, names, out) -> None:
    """Raise BadPermutationError at the first output row, in state order, that is no permutation."""
    alphabet = list(range(k))
    for name, row in zip(names, out):
        for s in row:
            if not (s.__class__ is int or _is_int(s)):
                raise BadPermutationError(name, row)
        if sorted(row) != alphabet:
            raise BadPermutationError(name, row)


class MealyAutomaton(_Record):
    """A finite Mealy automaton over the alphabet {0, ..., k-1}.

    States are kept in declaration order; ``delta[q][a]`` is the state
    entered after reading symbol ``a`` in state ``q`` and ``out[q][a]``
    the symbol written.  Every output row is a permutation of the
    alphabet, so every machine computes tree automorphisms and has an
    inverse: the constructor raises ``BadPermutationError`` for a row that
    is not one, so ``inverse`` needs no check of its own.  The constructor
    checks each table given to it in one plain pass per rule, and refuses
    a ``bool`` as a transition target or output symbol, as it is refused
    as a residue.  The machines of ``parse_automaton``, which checks them
    as it reads them, and of ``inverse``, ``compose`` and ``minimize``,
    which hold every rule by construction, are not checked again.
    """

    __slots__ = ("k", "names", "delta", "out")

    def __init__(self, k: int, names, delta, out):
        super().__init__(k, tuple(names), tuple(map(tuple, delta)), tuple(map(tuple, out)))
        self._check()

    def _check(self):
        k, names, delta, out = self.k, self.names, self.delta, self.out
        _check_size(k, "alphabet size")
        n = len(names)
        if n == 0:
            raise AutomatonError("an automaton needs at least one state")
        _check_names(names)
        if len(set(names)) != n:  # hashable now: every name is a string
            raise AutomatonError("duplicate state names")
        if len(delta) != n or len(out) != n:
            raise AutomatonError("delta and out need one row per state")
        for name, drow, orow in zip(names, delta, out):
            if len(drow) != k or len(orow) != k:
                raise AutomatonError(f"rows of state '{name}' must have {k} entries")
            for a, t in enumerate(drow):  # a plain int is cleared without the call
                if not (t.__class__ is int or _is_int(t)) or not 0 <= t < n:
                    fault = "out of range" if _is_int(t) else f"not an integer: {t!r}"
                    raise AutomatonError(f"transition of state '{name}' at {a} is {fault}")
        _check_permutations(k, names, out)  # every transition is checked before any row

    @property
    def n_states(self) -> int:
        return len(self.names)


class AbelianLabels(_Record):
    """Per-state values in a product Z/m_1 x ... x Z/m_r of cyclic groups.

    ``labels[q][i]`` is the i-th component of the label of state q,
    stored as the canonical residue 0 <= c < m_i.
    """

    __slots__ = ("moduli", "labels")

    def __init__(self, moduli, labels):
        super().__init__(tuple(moduli), tuple(map(tuple, labels)))
        self._check()

    def _check(self):
        if not self.moduli:
            raise AutomatonError("at least one modulus is required")
        r = len(self.moduli)
        for row in self.labels:
            if len(row) != r:
                raise AutomatonError(f"label {row} must have {r} components")
        for i, m in enumerate(self.moduli):
            _check_residues(m, "label component", [row[i] for row in self.labels])


def _moduli(m: MealyAutomaton, labels: AbelianLabels | None) -> tuple[int, ...]:
    """The moduli of the labels, which need one row per state, or (k,) for the shifts.

    With ``_label_vector`` this is the label rule, written once: every
    series, the simulator's level sums and the CLI read labels here.
    """
    if labels is None:
        return (m.k,)
    if len(labels.labels) != m.n_states:
        raise DimensionMismatchError(f"{len(labels.labels)} label rows for {m.n_states} states")
    return labels.moduli


def abelian_vector(labels: AbelianLabels, component: int) -> tuple[int, tuple[int, ...]]:
    """One chosen component of the per-state labels as (modulus, residues)."""
    _check_index(component, "component", len(labels.moduli), BadComponentError)
    return labels.moduli[component], tuple(row[component] for row in labels.labels)


def _label_vector(m: MealyAutomaton, labels: AbelianLabels | None, component: int):
    """One component of m's labels as (modulus, residues), read by the rule of ``_moduli``.

    With no labels the one component is each state's shift e, where the
    state writes a -> a+e mod k, and the output rows are judged before
    the component.  A row starting with e is cyclic iff it equals the
    one rotation of the alphabet that starts there, so each distinct row
    is judged once, in order of first use, by one tuple comparison; the
    rotation is built per row, as a table of all k rotations would take
    k^2 memory on unbounded alphabets.  The first bad row in that order
    is the row of the first bad state, which ``NotCyclicError`` names.
    """
    moduli = _moduli(m, labels)
    if labels is not None:
        return abelian_vector(labels, component)
    alphabet = tuple(range(m.k))
    for row in dict.fromkeys(m.out):
        e = row[0]
        if row != alphabet[e:] + alphabet[:e]:
            raise NotCyclicError(m.names[m.out.index(row)])
    _check_index(component, "component", len(moduli), BadComponentError)
    return moduli[component], tuple(map(itemgetter(0), m.out))


def validate_cyclic(m: MealyAutomaton) -> AbelianLabels:
    """Derive labels mod k for an automaton whose output rows are shifts.

    Succeeds iff every state writes a -> a+e mod k for some shift e; the
    returned labels hold those shifts, one residue per state, with the
    single modulus k.
    """
    return AbelianLabels._of(_moduli(m, None), tuple((e,) for e in _label_vector(m, None, 0)[1]))


def _read_int(text: str) -> int | None:
    """An optional '-' and ASCII digits as an int, or None for any other text."""
    try:
        return int(text) if _INT_RE.match(text) else None
    except ValueError:  # more digits than the interpreter's limit for int()
        return None


def parse_word(text: str, k: int) -> tuple[int, ...]:
    """Read a word over {0, ..., k-1} from its text form.

    For k <= 10 each character is one symbol, an ASCII digit; larger
    alphabets use comma-separated integers in ASCII digits.  The empty
    string, and for k > 10 a blank one, is the empty word.  A token that
    is not a symbol in 0 .. k-1, a signed one included, raises
    BadSymbolError with the token as typed.
    """
    _check_size(k, "alphabet size")
    if k <= 10:
        tokens = text
    else:
        tokens = [tok.strip() for tok in text.split(",")] if text.strip() else ()
    symbols = []
    for i, tok in enumerate(tokens):
        s = _read_int(tok)
        if s is None or s >= k or tok[0] == "-":  # "-0" too: a symbol has no sign
            raise BadSymbolError(i, tok)
        symbols.append(s)
    return tuple(symbols)


def format_word(symbols, k: int) -> str:
    return ("" if k <= 10 else ",").join(map(str, symbols))


def _coerce_word(word, k: int):
    """Normalize a word argument to (tuple of symbols, came_as_text)."""
    if isinstance(word, str):
        return parse_word(word, k), True
    symbols = tuple(word)
    for i, s in enumerate(symbols):
        if not (_is_int(s) and 0 <= s < k):
            raise BadSymbolError(i, s)
    return symbols, False


def _dedupe_names(bases: list[str]) -> list[str]:
    """The names, each repeat of an earlier one suffixed _2, _3, ... until it is new."""
    used = set()
    names = []
    for base in bases:
        name, i = base, 2
        while name in used:
            name, i = f"{base}_{i}", i + 1
        used.add(name)
        names.append(name)
    return names


def _row_ids(rows) -> tuple[list[int], list[tuple]]:
    """Each row's index among the distinct rows, and those rows in first-seen order."""
    ids = dict(zip(dict.fromkeys(rows), count()))
    return list(map(ids.__getitem__, rows)), list(ids)


def _behavior_classes(delta, out):
    """Partition states by behavior; returns first-appearance class ids.

    Moore refinement (Moore, "Gedanken-experiments on sequential
    machines", 1956): start from the output rows, then key each state by
    its class and the classes of its successors until no class splits,
    or until every state is alone in its class, which no round can split
    again.  Two states land in the same class iff they transform every
    word identically.  A round is whole-list passes: flat keys (class,
    class at 0, ..., class at k-1), numbered by first appearance through
    ``dict.fromkeys``.  Each round costs O(k n), and a round is needed
    per depth at which two states are first told apart, so the worst
    case is O(k n^2): a chain of copying states ending in one flip takes
    a round per state.
    """
    n = len(out)
    columns = list(zip(*delta))
    labels, rows = _row_ids(out)
    classes = len(rows)
    while classes < n:
        at = labels.__getitem__
        keys = list(zip(labels, *[map(at, column) for column in columns]))
        ids = dict(zip(dict.fromkeys(keys), count()))
        if len(ids) == classes:  # no class split, so the numbering is unchanged
            return labels
        classes = len(ids)
        labels = list(map(ids.__getitem__, keys)) if classes < n else list(range(n))
    return labels


class InitialAutomaton(_Record):
    """A Mealy automaton with a distinguished initial state.

    This is the object that acts on the tree: ``apply`` transforms a
    word, ``section`` restricts the action to the subtree below a word,
    and ``inverse``/``compose``/``minimize`` build new machines for the
    inverse map, the composite map and the minimal machine of the same
    map.
    """

    __slots__ = ("automaton", "initial")

    def __init__(self, automaton: MealyAutomaton, initial: int):
        super().__init__(automaton, initial)
        _check_index(initial, "initial state index", automaton.n_states, AutomatonError)

    @property
    def k(self) -> int:
        return self.automaton.k

    def apply(self, word):
        """Image of ``word`` under the tree map computed by this machine.

        Accepts either a sequence of symbols or the text form used by
        ``parse_word`` and answers in the same shape.
        """
        symbols, as_text = _coerce_word(word, self.k)
        delta, out = self.automaton.delta, self.automaton.out
        state = self.initial
        result = []
        for a in symbols:
            result.append(out[state][a])
            state = delta[state][a]
        return format_word(result, self.k) if as_text else tuple(result)

    def section(self, word) -> "InitialAutomaton":
        """The machine acting on the subtree below ``word``: same states, new start."""
        symbols, _ = _coerce_word(word, self.k)
        state = self.initial
        for a in symbols:
            state = self.automaton.delta[state][a]
        return InitialAutomaton._of(self.automaton, state)

    def inverse(self) -> "InitialAutomaton":
        """The machine computing the inverse tree map.

        Labels of the transition diagram swap sides: where a state reads
        a and writes b, the inverse state reads b, writes a and moves to
        the inverse of the original successor at a.  Each distinct output
        row is inverted once; its states share the inverse and one
        ``itemgetter`` that reorders their successor rows, with no sort.
        """
        m = self.automaton
        ids, rows = _row_ids(m.out)
        inverses = [tuple(sorted(range(m.k), key=row.__getitem__)) for row in rows]
        reorder = [itemgetter(*inv) for inv in inverses]
        out = tuple(map(inverses.__getitem__, ids))
        delta = tuple([reorder[i](drow) for i, drow in zip(ids, m.delta)])
        return InitialAutomaton._of(MealyAutomaton._of(m.k, m.names, delta, out), self.initial)

    def compose(self, other: "InitialAutomaton") -> "InitialAutomaton":
        """The machine computing ``self(other(w))``.

        Product construction on the reachable state pairs (p, q), numbered
        breadth-first: the pair writes p's output of q's output and, on
        reading a, moves to (p at q's output of a, q at a).  A pair is keyed
        by the integer p * n_g + q; its output row is shared from a table on
        the ids of p's and q's distinct rows, filled as met, so it holds at
        most min(k!, n_f) * min(k!, n_g) rows (36 at k <= 3) and no more than
        the product's states.  With f's successor rows scaled to key parts
        (times n_g) and g's rows zipped to (output, successor) pairs before
        the walk, a state costs k additions, k small-integer lookups and one
        new tuple.

        The walk's pair index is freed before the names are built.  A pair
        is named p's name, ``_``, then q's name.  Two pairs can read alike
        only when one of f's names is another one, ``_`` and more, so only
        then are the names numbered apart (see ``_dedupe_names``); the test
        reads f's n_f names, not a set of every product name.
        """
        _check_alphabets(self, other)
        f, g = self.automaton, other.automaton
        n_g = g.n_states
        g_ids, g_rows = _row_ids(g.out)
        f_ids = [i * len(g_rows) for i in _row_ids(f.out)[0]]  # + g's row id: a table key
        f_keys = [[t * n_g for t in row] for row in f.delta]
        g_moves = [tuple(zip(orow, drow)) for orow, drow in zip(g.out, g.delta)]
        table = {}
        order = [self.initial * n_g + other.initial]
        index = {order[0]: 0}
        find, meet = index.get, order.append
        delta, out = [], []
        for key in order:
            p, q = divmod(key, n_g)
            f_key = f_keys[p]
            row = []
            for b, t in g_moves[q]:
                pair = f_key[b] + t
                i = find(pair)
                if i is None:
                    i = index[pair] = len(order)
                    meet(pair)
                row.append(i)
            delta.append(tuple(row))
            rows = f_ids[p] + g_ids[q]
            if rows not in table:
                table[rows] = tuple(map(f.out[p].__getitem__, g.out[q]))
            out.append(table[rows])
        del index, find  # the walk is over: free its table before the names are built
        prefixes = [name + "_" for name in f.names]
        names = [prefixes[key // n_g] + g.names[key % n_g] for key in order]
        del order, meet
        known = set(f.names)
        if any(name[:i] in known for name in f.names for i, c in enumerate(name) if c == "_"):
            names = _dedupe_names(names)
        machine = MealyAutomaton._of(self.k, tuple(names), tuple(delta), tuple(out))
        return InitialAutomaton._of(machine, 0)

    def minimize(self) -> "InitialAutomaton":
        """The smallest machine computing the same tree map.

        Keeps only states reachable from the start, then merges states
        that behave identically, by Moore refinement: O(k n^2) in the
        worst case, one round per depth of distinguishability (see
        ``_behavior_classes``).  Merged states take the name of their
        earliest member in breadth-first discovery order.  When the walk
        meets every state in declaration order from the start 0, the
        tables are refined as they are, with no renumbered copy, and a
        machine that is also minimal is returned as it is.
        """
        m = self.automaton
        order = [self.initial]
        pos = {self.initial: 0}
        for q in order:
            for t in m.delta[q]:
                if t not in pos:
                    pos[t] = len(order)
                    order.append(t)
        in_order = order == list(range(m.n_states))
        if in_order:  # already numbered as the walk meets them: refine the tables as they are
            sub_delta, sub_out = m.delta, m.out
        else:
            sub_delta = [tuple(map(pos.__getitem__, m.delta[q])) for q in order]
            sub_out = [m.out[q] for q in order]
        labels = _behavior_classes(sub_delta, sub_out)
        if in_order and labels[-1] == len(labels) - 1:
            return self  # all singletons, no renumbering: the rebuild would equal self
        reps = []
        for i, c in enumerate(labels):
            if c == len(reps):
                reps.append(i)
        names = tuple(m.names[order[r]] for r in reps)
        delta = tuple(tuple(map(labels.__getitem__, sub_delta[r])) for r in reps)
        out = tuple(sub_out[r] for r in reps)
        return InitialAutomaton._of(MealyAutomaton._of(m.k, names, delta, out), labels[0])

    def equivalent(self, other: "InitialAutomaton") -> bool:
        """Whether both machines transform every word identically.

        Hopcroft and Karp's union-find ("A linear algorithm for testing
        equivalence of finite automata", Cornell TR, 1971), with no
        refinement.  One forest holds f's states, then g's; a stack holds
        (state of f, state of g) pairs that must act alike, starting
        with the two initial states.  A pair already in one class is
        skipped; otherwise its output rows must agree, its two classes
        merge and its k successor pairs are pushed.  Each merge removes
        a class, so at most n_f + n_g - 1 pairs push, and with union by
        rank and path halving the cost is O(k (n_f + n_g) α(n_f + n_g)),
        near-linear in the states of both machines, and the first pair
        whose output rows differ ends the search.
        """
        _check_alphabets(self, other)
        f, g = self.automaton, other.automaton
        off = f.n_states
        parent = list(range(off + g.n_states))
        rank = bytearray(len(parent))
        stack = [(self.initial, other.initial)]
        while stack:
            p, q = stack.pop()
            x, y = p, off + q
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x == y:
                continue
            if f.out[p] != g.out[q]:
                return False
            if rank[x] < rank[y]:
                x, y = y, x
            parent[y] = x
            rank[x] += rank[x] == rank[y]
            stack.extend(zip(f.delta[p], g.delta[q]))
        return True


class AutomatonFile(_Record):
    """Parsed contents of an automaton text: machine, start, labels."""

    __slots__ = ("automaton", "initial", "labels")

    def __init__(
        self, automaton: MealyAutomaton, initial: int | None, labels: AbelianLabels | None
    ):
        super().__init__(automaton, initial, labels)
        if initial is not None:
            _check_index(initial, "initial state index", automaton.n_states, AutomatonError)
        _moduli(automaton, labels)  # one label row per state

    def initial_automaton(self) -> InitialAutomaton:
        if self.initial is None:
            raise MissingInitialError("the automaton text declares no initial state")
        return InitialAutomaton._of(self.automaton, self.initial)


def _int_token(tok: str) -> int:
    value = _read_int(tok)
    if value is None:
        raise AutomatonError(f"expected an integer, got {tok!r}")
    return value


def parse_automaton(text: str) -> AutomatonFile:
    """Read an automaton from its text form.

    The format is line oriented; '#' starts a comment and blank lines
    are skipped.  Directives::

        alphabet <k>
        state <name> perm <k output symbols> to <k successor states>
        initial <name>
        abelian <m1> ... <mr>
        label <name> <c1> ... <cr>

    States may refer to states declared later.  When an ``abelian``
    directive is present, every state needs a ``label`` line.  Lines end
    at ``\\n``, ``\\r\\n`` or ``\\r`` only, not at the other breaks of
    ``str.splitlines``, so a form feed in a comment ends no line.  One
    leading byte-order mark (U+FEFF) is dropped.

    Each line is checked as it is read, by the rule its record's
    constructor uses, and one handler raises the fault of a line as a
    ParseError at that line (a state before the alphabet is a
    MissingAlphabetError).  ``alphabet``, ``initial`` and ``abelian``
    may appear once each, and a second one is refused before its
    arguments are read.  The output rows are checked once at the end,
    by the rule of ``MealyAutomaton``; the records are then built
    unchecked.
    """
    k = None
    seen = {}  # state name -> index, in declaration order
    out = []
    targets = []  # (successor names, line) of each state
    initial_ref = None
    moduli = None
    label_rows = {}  # state name -> (residues, line)
    once = set()  # the directives read so far of those that may appear once
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, 1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        head = toks[0]
        if head == "state" and k is None:
            raise MissingAlphabetError("alphabet must be declared before states", lineno)
        try:
            if head in once:
                raise AutomatonError(f"duplicate {head} directive")
            if head in ("alphabet", "initial", "abelian"):
                once.add(head)
            if head == "alphabet":
                if len(toks) != 2:
                    raise AutomatonError("expected: alphabet <k>")
                k = _int_token(toks[1])
                _check_size(k, "alphabet size")
            elif head == "state":
                if len(toks) != 2 * k + 4 or toks[2] != "perm" or toks[3 + k] != "to":
                    raise AutomatonError(
                        f"expected: state <name> perm <{k} symbols> to <{k} states>"
                    )
                name = toks[1]
                _check_names((name,))
                if name in seen:
                    raise AutomatonError(f"duplicate state {name!r}")
                seen[name] = len(out)
                out.append(tuple(map(_int_token, toks[3 : 3 + k])))
                targets.append((toks[4 + k :], lineno))
            elif head == "initial":
                if len(toks) != 2:
                    raise AutomatonError("expected: initial <state>")
                initial_ref = (toks[1:], lineno)
            elif head == "abelian":
                if len(toks) < 2:
                    raise AutomatonError("expected: abelian <m1> ...")
                moduli = AbelianLabels(map(_int_token, toks[1:]), ()).moduli
            elif head == "label":
                if moduli is None:
                    raise AutomatonError("abelian directive must come before labels")
                if len(toks) != 2 + len(moduli):
                    raise AutomatonError(f"expected: label <state> <{len(moduli)} residues>")
                name = toks[1]
                if name in label_rows:
                    raise AutomatonError(f"duplicate label for state {name!r}")
                (row,) = AbelianLabels(moduli, [map(_int_token, toks[2:])]).labels
                label_rows[name] = (row, lineno)
            else:
                raise AutomatonError(f"unknown directive {head!r}")
        except AutomatonError as exc:
            raise ParseError(str(exc), lineno) from None
    if k is None:
        raise MissingAlphabetError("no alphabet declared")
    if not seen:
        raise ParseError("no states declared")

    get = seen.__getitem__

    def resolve(refs, lineno):  # the one lookup of state names, each read on line lineno
        try:
            return tuple(map(get, refs))
        except KeyError as exc:
            raise UnknownStateError(exc.args[0], lineno) from None

    names = tuple(seen)
    delta = tuple(starmap(resolve, targets))
    _check_permutations(k, names, out)  # the lines above checked every other rule
    automaton = MealyAutomaton._of(k, names, delta, tuple(out))
    initial = None if initial_ref is None else resolve(*initial_ref)[0]
    labels = None
    if moduli is not None:
        rows = [None] * len(names)
        for name, (row, lineno) in label_rows.items():
            rows[resolve((name,), lineno)[0]] = row
        if None in rows:
            raise ParseError(f"missing label for state {names[rows.index(None)]!r}")
        labels = AbelianLabels._of(moduli, tuple(rows))
    return AutomatonFile._of(automaton, initial, labels)


def serialize_automaton(
    m: MealyAutomaton,
    initial: int | None = None,
    labels: AbelianLabels | None = None,
) -> str:
    """Emit exactly the text form accepted by ``parse_automaton``."""
    AutomatonFile(m, initial, labels)  # checks the initial state and the label rows
    lines = [f"alphabet {m.k}"]
    for q in range(m.n_states):
        perm = " ".join(str(x) for x in m.out[q])
        tos = " ".join(m.names[t] for t in m.delta[q])
        lines.append(f"state {m.names[q]} perm {perm} to {tos}")
    if initial is not None:
        lines.append(f"initial {m.names[initial]}")
    if labels is not None:
        lines.append("abelian " + " ".join(str(x) for x in labels.moduli))
        for name, row in zip(m.names, labels.labels):
            lines.append(f"label {name} " + " ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def to_dot(m: MealyAutomaton, initial: int | None = None) -> str:
    """Transition diagram in DOT format, edges labelled read|write."""
    AutomatonFile(m, initial, None)  # checks the initial state
    lines = ["digraph automaton {", "  rankdir=LR;"]
    if initial is not None:
        start = "__start"
        while start in m.names:
            start += "_"
        lines.append(f'  "{start}" [shape=point];')
        lines.append(f'  "{start}" -> "{m.names[initial]}";')
    for name in m.names:
        lines.append(f'  "{name}" [shape=circle];')
    for name, drow, orow in zip(m.names, m.delta, m.out):
        for a, (t, b) in enumerate(zip(drow, orow)):
            lines.append(f'  "{name}" -> "{m.names[t]}" [label="{a}|{b}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
