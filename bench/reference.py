"""Independent answers for checking the program's outputs.

Nothing here imports ``wreathtree``.  Machines are plain tuples
``Machine(k, names, delta, out, initial, moduli, labels)``; every check
recomputes its answer from the table with its own, deliberately simple
code, so a wrong answer from the module under test cannot be confirmed
by the same bug.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import itemgetter
from typing import NamedTuple


class Machine(NamedTuple):
    k: int
    names: tuple
    delta: tuple
    out: tuple
    initial: int
    moduli: tuple = ()
    labels: tuple = ()


def cyclic_shifts(m: Machine) -> tuple | None:
    """The shift e of each row a -> a+e mod k, or None if a row is no shift."""
    shifts = []
    for row in m.out:
        e = row[0]
        if any(row[a] != (a + e) % m.k for a in range(m.k)):
            return None
        shifts.append(e)
    return tuple(shifts)


def label_vector(m: Machine, component: int = 0) -> tuple[int, tuple]:
    """(modulus, per-state residues): explicit labels, else the cyclic shifts."""
    if m.moduli:
        return m.moduli[component], tuple(row[component] for row in m.labels)
    return m.k, cyclic_shifts(m)


def orbit(delta, vec, m: int, init: int, cap: int | None = None):
    """Iterate w -> A.w mod m; return (preperiod, period) of coordinate ``init``.

    A.w at state q is the sum of w over the k successors of q.  The
    vector sequence is eventually periodic; the first repeated vector
    fixes both parts.  Returns None once ``cap`` vectors are stored.
    """
    rows = [itemgetter(*row) for row in delta]
    w = tuple(vec)
    seen = {w: 0}
    terms = [w[init]]
    while True:
        w = tuple(sum(row(w)) % m for row in rows)
        if w in seen:
            r = seen[w]
            return tuple(terms[:r]), tuple(terms[r:])
        if cap is not None and len(seen) >= cap:
            return None
        seen[w] = len(terms)
        terms.append(w[init])


def stream_of(m: Machine, component: int = 0, cap: int | None = None):
    mod, vec = label_vector(m, component)
    return orbit(m.delta, vec, mod, m.initial, cap)


def prefix(m: Machine, count: int, component: int = 0) -> list:
    """The first ``count`` series coefficients, by plain iteration."""
    mod, vec = label_vector(m, component)
    rows = [itemgetter(*row) for row in m.delta]
    w, terms = tuple(vec), []
    for _ in range(count):
        terms.append(w[m.initial])
        w = tuple(sum(row(w)) % mod for row in rows)
    return terms


def term(stream, j: int) -> int:
    pre, per = stream
    return pre[j] if j < len(pre) else per[(j - len(pre)) % len(per)]


def first_non_unit(stream, m: int) -> int | None:
    for j, c in enumerate(stream[0] + stream[1]):
        if gcd(c, m) != 1:
            return j
    return None


def series_compare(f: Machine, vf, g: Machine, vg, m: int, cap: int | None = None):
    """(equal, least differing index, vectors stored) of two label series mod m.

    Runs the two machines side by side on one stacked vector until the
    marked coordinates differ or the stacked vector repeats.  Returns
    None once ``cap`` vectors are stored.
    """
    off = len(f.delta)
    delta = tuple(f.delta) + tuple(tuple(t + off for t in row) for row in g.delta)
    rows = [itemgetter(*row) for row in delta]
    w = tuple(vf) + tuple(vg)
    a, b = f.initial, off + g.initial
    seen = {w}
    while True:
        if (w[a] - w[b]) % m:
            return False, len(seen) - 1, len(seen)
        w = tuple(sum(row(w)) % m for row in rows)
        if w in seen:
            return True, None, len(seen)
        if cap is not None and len(seen) >= cap:
            return None
        seen.add(w)


def check_rational(num, den, m: int, s: list, n: int) -> bool:
    """Whether num/den is the series whose first 2n coefficients are ``s``.

    The true series is N0/D0 with deg D0 <= n, deg N0 < n and D0(0) = 1.
    If deg den <= n, deg num < n, den(0) is a unit and den*S = num on
    the first 2n terms, then den*N0 - num*D0 has degree < 2n and
    vanishes mod t^2n, so the two quotients are the same series.
    """
    num, den = list(num), list(den)
    if not den or len(den) - 1 > n or len(num) > n:
        return False
    if any(not 0 <= c < m for c in num + den) or (num and num[-1] == 0) or den[-1] == 0:
        return False
    if gcd(den[0], m) != 1:
        return False
    if len(s) < 2 * n:
        return False
    for j in range(2 * n):
        acc = sum(den[i] * s[j - i] for i in range(min(j, len(den) - 1) + 1))
        if (acc - (num[j] if j < len(num) else 0)) % m:
            return False
    return True


def apply(m: Machine, word, start: int | None = None) -> tuple:
    s = m.initial if start is None else start
    res = []
    for a in word:
        res.append(m.out[s][a])
        s = m.delta[s][a]
    return tuple(res)


def apply_inverse(m: Machine, word) -> tuple:
    """The word u with apply(m, u) == word."""
    s = m.initial
    res = []
    for b in word:
        a = m.out[s].index(b)
        res.append(a)
        s = m.delta[s][a]
    return tuple(res)


def words(k: int, max_len: int):
    for n in range(max_len + 1):
        yield from itertools.product(range(k), repeat=n)


def level_orbits(m: Machine, n: int) -> tuple[int, int]:
    """(orbit count, largest orbit) of the machine on the k^n words of length n."""
    k = m.k
    img = []
    for w in itertools.product(range(k), repeat=n):
        v = 0
        for b in apply(m, w):
            v = v * k + b
        img.append(v)
    visited = bytearray(len(img))
    count = largest = 0
    for i in range(len(img)):
        if not visited[i]:
            size = 0
            j = i
            while not visited[j]:
                visited[j] = 1
                j = img[j]
                size += 1
            count += 1
            largest = max(largest, size)
    return count, largest


def level_label_sum(m: Machine, n: int, component: int = 0) -> int:
    """Sum of the labels of the states reached by all k^n words of length n, mod m."""
    mod, vec = label_vector(m, component)
    states = [m.initial]
    for _ in range(n):
        states = [t for s in states for t in m.delta[s]]
    return sum(vec[s] for s in states) % mod


def equivalent(f: Machine, g: Machine) -> bool:
    """Whether f and g act alike: every reachable state pair has equal outputs."""
    todo = [(f.initial, g.initial)]
    seen = set(todo)
    while todo:
        p, q = todo.pop()
        if f.out[p] != g.out[q]:
            return False
        for a in range(f.k):
            pair = (f.delta[p][a], g.delta[q][a])
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True


def minimal_size(m: Machine) -> int:
    """Number of behaviour classes among the states reachable from the start."""
    reach = [m.initial]
    seen = {m.initial}
    for s in reach:
        for t in m.delta[s]:
            if t not in seen:
                seen.add(t)
                reach.append(t)
    cls = _renumber({s: m.out[s] for s in reach})
    while True:
        sig = _renumber({s: (cls[s], tuple(cls[t] for t in m.delta[s])) for s in reach})
        if len(set(sig.values())) == len(set(cls.values())):
            return len(set(cls.values()))
        cls = sig


def _renumber(keys: dict) -> dict:
    ids: dict = {}
    return {s: ids.setdefault(key, len(ids)) for s, key in keys.items()}


def conjugacy_sound(verdict: str, f: Machine, g: Machine, cap: int | None = None) -> bool:
    """Whether a conjugacy verdict follows from the invariants.

    CONJUGATE needs equal actions, or two transitive elements with equal
    series.  NOT_CONJUGATE needs differing series or differing
    transitivity.  UNDECIDED is sound unless both are transitive, where
    the series decides.
    """
    sf, sg = stream_of(f, cap=cap), stream_of(g, cap=cap)
    tf = first_non_unit(sf, f.k) is None
    tg = first_non_unit(sg, g.k) is None
    equal = series_compare(f, cyclic_shifts(f), g, cyclic_shifts(g), f.k, cap)[0]
    if verdict == "conjugate":
        return (tf and tg and equal) or equivalent(f, g)
    if verdict == "not_conjugate":
        return not equal or tf != tg
    if verdict == "undecided":
        return not (tf and tg)
    return False


def parse_text(text: str) -> Machine:
    """Read the automaton text format (the subset this benchmark writes and reads)."""
    k = None
    rows = []
    initial = None
    moduli = ()
    labels = {}
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "alphabet":
            k = int(toks[1])
        elif toks[0] == "state":
            rows.append((toks[1], tuple(map(int, toks[3 : 3 + k])), toks[4 + k : 4 + 2 * k]))
        elif toks[0] == "initial":
            initial = toks[1]
        elif toks[0] == "abelian":
            moduli = tuple(map(int, toks[1:]))
        elif toks[0] == "label":
            labels[toks[1]] = tuple(map(int, toks[2:]))
        else:
            raise ValueError(f"unexpected line {raw!r}")
    names = tuple(r[0] for r in rows)
    index = {name: i for i, name in enumerate(names)}
    delta = tuple(tuple(index[t] for t in r[2]) for r in rows)
    out = tuple(r[1] for r in rows)
    lab = tuple(labels[name] for name in names) if moduli else ()
    return Machine(k, names, delta, out, index[initial] if initial else 0, moduli, lab)


def write_text(m: Machine, comment: str = "") -> str:
    lines = [f"# {comment}"] if comment else []
    lines.append(f"alphabet {m.k}")
    for q, name in enumerate(m.names):
        perm = " ".join(map(str, m.out[q]))
        tos = " ".join(m.names[t] for t in m.delta[q])
        lines.append(f"state {name} perm {perm} to {tos}")
    lines.append(f"initial {m.names[m.initial]}")
    if m.moduli:
        lines.append("abelian " + " ".join(map(str, m.moduli)))
        for q, name in enumerate(m.names):
            lines.append(f"label {name} " + " ".join(map(str, m.labels[q])))
    return "\n".join(lines) + "\n"


def inverse(m: Machine) -> Machine:
    """The machine of the inverse map: read what m writes, write what it reads."""
    delta, out = [], []
    for q in range(len(m.names)):
        back = [0] * m.k
        for a, b in enumerate(m.out[q]):
            back[b] = a
        out.append(tuple(back))
        delta.append(tuple(m.delta[q][back[b]] for b in range(m.k)))
    return m._replace(delta=tuple(delta), out=tuple(out))


def chain_size(machines: list) -> int:
    """Reachable state tuples of the machine that applies ``machines`` in list order."""
    start = tuple(m.initial for m in machines)
    seen = {start}
    todo = [start]
    k = machines[0].k
    while todo:
        states = todo.pop()
        for a in range(k):
            nxt = []
            for m, s in zip(machines, states):
                nxt.append(m.delta[s][a])
                a = m.out[s][a]
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen)
