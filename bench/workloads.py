"""The four workloads: seeded inputs, the operations on them, and their checks.

Each workload turns a seed into automaton texts (``generate``), which
are all the program ever sees, and then into a list of operations whose
results are checked against ``reference``.  ``generate`` must not import
the program: the same seed gives byte-identical texts.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import gcd, log2

import reference as ref
from harness import Op
from reference import Machine

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "wreathtree", "fixtures")
FIXTURE_NAMES = ("odometer", "lamplighter", "lamplighter_b", "identity")


@dataclass
class Inputs:
    """Generated automaton texts plus the bench-side facts about them."""

    texts: dict = field(default_factory=dict)  # file name -> automaton text
    machines: dict = field(default_factory=dict)  # file name -> reference.Machine
    plan: list = field(default_factory=list)  # workload-specific op descriptions


def _names(n: int, prefix: str = "q") -> tuple:
    return tuple(f"{prefix}{i}" for i in range(n))


def random_cyclic(rng: random.Random, k: int, n: int) -> Machine:
    """Random machine whose output rows are powers of the k-cycle."""
    delta = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
    out = tuple(tuple((a + e) % k for a in range(k)) for e in (rng.randrange(k) for _ in range(n)))
    return Machine(k, _names(n), delta, out, rng.randrange(n))


def random_invertible(rng: random.Random, k: int, n: int) -> Machine:
    delta = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
    out = tuple(tuple(rng.sample(range(k), k)) for _ in range(n))
    return Machine(k, _names(n), delta, out, rng.randrange(n))


def with_labels(m: Machine, moduli: tuple, rng: random.Random) -> Machine:
    labels = tuple(tuple(rng.randrange(q) for q in moduli) for _ in m.names)
    return m._replace(moduli=tuple(moduli), labels=labels)


def pad_unreachable(m: Machine, rng: random.Random, extra: int = 2) -> Machine:
    """Append states that no path from the old states reaches; same series from the start."""
    n, k = len(m.names), m.k
    delta = m.delta + tuple(tuple(rng.randrange(n + extra) for _ in range(k)) for _ in range(extra))
    out = m.out + tuple(tuple((a + e) % k for a in range(k)) for e in (rng.randrange(k) for _ in range(extra)))
    labels = m.labels
    if m.moduli:
        labels += tuple(tuple(rng.randrange(q) for q in m.moduli) for _ in range(extra))
    return m._replace(names=m.names + _names(extra, "pad"), delta=delta, out=out, labels=labels)


def with_duplicates(m: Machine, rng: random.Random) -> Machine:
    """Add a copy of every state, wired so each copy behaves like its original.

    The copies' successors are chosen at random among the original and
    the copy of the same target, and the start moves to the copy, so
    minimizing must merge every pair back.
    """
    n, k = len(m.names), m.k
    twin = lambda t: t + n * rng.randrange(2)  # noqa: E731
    delta = tuple(tuple(twin(t) for t in row) for row in m.delta)
    delta += tuple(tuple(twin(t) for t in row) for row in m.delta)
    return m._replace(names=m.names + _names(n, "c"), delta=delta, out=m.out + m.out, initial=m.initial + n)


def _add(inputs: Inputs, name: str, m: Machine, comment: str = "") -> str:
    inputs.texts[name] = ref.write_text(m, comment)
    inputs.machines[name] = m
    return name


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _as_machine(g) -> Machine:
    """A program InitialAutomaton as a reference Machine (reads only plain fields)."""
    a = g.automaton
    return Machine(a.k, a.names, a.delta, a.out, g.initial)


# --------------------------------------------------------------------------
# cli-fixtures: every command as its own process


CLI_COUNT = 24
CLI_PAIRS = 3  # seeded (k=3 cyclic, labelled) file pairs


def generate_cli(seed: int) -> Inputs:
    """Small seeded files beside the four fixtures; the plan lists every command on each."""
    rng = random.Random(f"cli-fixtures/{seed}")
    inputs = Inputs()
    for name in FIXTURE_NAMES:
        inputs.machines[name] = ref.parse_text(_read(os.path.join(FIXTURES, name + ".aut")))
    files = []
    for i in range(CLI_PAIRS):
        while True:
            m = random_cyclic(rng, 3, rng.randint(4, 6))
            if ref.stream_of(m, cap=200) is not None:
                break
        gen = _add(inputs, f"gen3_{i}", m, f"seeded k=3 cyclic machine, seed {seed}")
        while True:
            m = with_labels(random_invertible(rng, 4, 4), (6, 4), rng)
            if all(ref.stream_of(m, c, cap=200) and series_all(m, m, cap=2000) for c in (0, 1)):
                break
        files.append((gen, _add(inputs, f"labelled_{i}", m, f"seeded k=4 machine with composite labels, seed {seed}")))

    every = FIXTURE_NAMES + tuple(f for pair in files for f in pair)
    cyclic = FIXTURE_NAMES + tuple(gen for gen, _ in files)
    labelled = tuple(lab for _, lab in files)
    plan = [("validate", f) for f in every]
    plan += [("transitive", f) for f in cyclic]
    plan += [("coeffs", f, "0") for f in every] + [("coeffs", f, "1") for f in labelled]
    plan += [("rational", f, "0") for f in every] + [("rational", f, "1") for f in labelled]
    pairs = [("odometer", "lamplighter"), ("lamplighter", "lamplighter_b"), ("odometer", "identity")]
    pairs += [(gen, gen) for gen, _ in files]
    plan += [("equal-ab", a, b) for a, b in pairs + [(f, f) for f in labelled]]
    plan += [("conjugate", a, b) for a, b in pairs + [("odometer", "odometer")]]
    plan += [("orbit", f, "10" if inputs.machines[f].k == 2 else "5") for f in every]
    for f in every:
        k = inputs.machines[f].k
        plan.append(("apply", f, "".join(str(rng.randrange(k)) for _ in range(rng.randint(8, 16)))))
    plan += [("compose", "odometer", "lamplighter"), ("compose", "lamplighter_b", "odometer")]
    plan += [("compose", gen, gen) for gen, _ in files]
    plan += [("inverse", f) for f in ("odometer", "lamplighter") + cyclic[4:] + labelled]
    plan += [("minimize", f) for f in ("lamplighter", "identity") + cyclic[4:] + labelled]
    plan += [("dot", f) for f in ("odometer",) + every[4:]]
    rng.shuffle(plan)  # any prefix of the op list then samples every command
    inputs.plan = plan
    return inputs


def cli_argv(step: tuple, paths: dict) -> list:
    cmd, args = step[0], step[1:]
    if cmd in ("coeffs", "rational"):
        argv = [cmd, paths[args[0]], "--component", args[1]]
        return argv + ["--count", str(CLI_COUNT)] if cmd == "coeffs" else argv
    if cmd == "orbit":
        return [cmd, paths[args[0]], "--level", args[1]]
    if cmd == "apply":
        return [cmd, paths[args[0]], "--word", args[1]]
    return [cmd] + [paths[a] for a in args]


def _doc(stdout: str) -> dict:
    doc = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" = ")
        doc[key] = value
    return doc


def _render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    return str(value)


def cli_check(step: tuple, machines: dict, rng_seed: str):
    """The check for one command's (exit code, stdout, stderr)."""
    cmd, args = step[0], step[1:]
    ms = [machines[a] for a in args if a in machines]

    def check(result) -> bool:
        code, out, err = result
        if code != 0 or err:
            return False
        doc = _doc(out)
        m = ms[0]
        if cmd == "validate":
            return (doc["alphabet"] == str(m.k) and doc["states"] == _render(list(m.names))
                    and doc["invertible"] == "true" and doc["initial"] == m.names[m.initial])
        if cmd in ("transitive", "coeffs"):
            c = int(args[1]) if cmd == "coeffs" else 0
            stream = ref.stream_of(m, c)
            ok = doc["stream.preperiod"] == _render(stream[0]) and doc["stream.period"] == _render(stream[1])
            if cmd == "coeffs":
                return ok and doc["terms"] == _render([ref.term(stream, j) for j in range(CLI_COUNT)])
            bad = ref.first_non_unit(stream, m.k)
            return ok and doc["transitive"] == _render(bad is None) and doc["first_bad_index"] == _render(bad)
        if cmd == "rational":
            c = int(args[1])
            mod = ref.label_vector(m, c)[0]
            num = _ints(doc["numerator"])
            den = _ints(doc["denominator"])
            n = len(m.names)
            return doc["modulus"] == str(mod) and ref.check_rational(num, den, mod, ref.prefix(m, 2 * n, c), n)
        if cmd == "equal-ab":
            equal, witness = series_all(*ms)
            return doc["equal"] == _render(equal) and doc["witness"] == _render(witness)
        if cmd == "conjugate":
            return ref.conjugacy_sound(doc["verdict"], *ms)
        if cmd == "orbit":
            count, largest = ref.level_orbits(m, int(args[1]))
            return doc["orbit_count"] == str(count) and doc["max_orbit"] == str(largest)
        if cmd == "apply":
            word = tuple(int(ch) for ch in args[1])
            return doc["word.output"] == "".join(map(str, ref.apply(m, word)))
        if cmd == "dot":
            lines = set(out.splitlines())
            edges = {
                f'  "{m.names[q]}" -> "{m.names[m.delta[q][a]]}" [label="{a}|{m.out[q][a]}"];'
                for q in range(len(m.names)) for a in range(m.k)
            }
            return out.startswith("digraph") and edges <= lines
        got = ref.parse_text(out)
        return _acts_as(cmd, got, ms, random.Random(rng_seed))

    return check


def series_all(f: Machine, g: Machine, cap: int | None = None):
    """(equal, least witness) over every label component, as ``equal-ab`` reports it."""
    witnesses = []
    for c in range(len(f.moduli) or 1):
        mod, vf = ref.label_vector(f, c)
        found = ref.series_compare(f, vf, g, ref.label_vector(g, c)[1], mod, cap)
        if found is None:
            return None
        if found[1] is not None:
            witnesses.append(found[1])
    return (not witnesses, min(witnesses) if witnesses else None)


def _ints(text: str) -> list:
    inner = text.strip("[]")
    return [int(x) for x in inner.split(",")] if inner else []


def _acts_as(cmd: str, got: Machine, ms: list, rng: random.Random) -> bool:
    """Whether a constructed machine maps sampled words the way ``cmd`` promises."""
    m = ms[0]
    samples = list(ref.words(m.k, 6 if m.k == 2 else 4))
    samples += [tuple(rng.randrange(m.k) for _ in range(24)) for _ in range(64)]
    for w in samples:
        if cmd == "compose" and ref.apply(got, w) != ref.apply(m, ref.apply(ms[1], w)):
            return False
        if cmd == "inverse" and ref.apply(got, ref.apply(m, w)) != w:
            return False
        if cmd == "minimize" and ref.apply(got, w) != ref.apply(m, w):
            return False
        if cmd == "conjugate_by" and ref.apply(got, w) != ref.apply(m, ref.apply(ms[1], ref.apply_inverse(m, w))):
            return False
    if cmd == "minimize":
        return len(got.names) == ref.minimal_size(m)
    return True


def cli_paths(inputs: Inputs, workdir: str) -> dict:
    """Write the generated files; map every input name to its path."""
    paths = {name: os.path.join(FIXTURES, name + ".aut") for name in FIXTURE_NAMES}
    for name, text in inputs.texts.items():
        path = os.path.join(workdir, name + ".aut")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[name] = path
    return paths


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def prepare_cli(inputs: Inputs, workdir: str, in_process: bool = False) -> list[Op]:
    """One op per planned command: a ``python -m wreathtree.cli`` process, or ``cli.main``."""
    paths = cli_paths(inputs, workdir)
    env = cli_env()
    if in_process:
        from wreathtree import cli

    ops = []
    for n, step in enumerate(inputs.plan):
        argv = cli_argv(step, paths)
        if in_process:
            call = lambda argv=argv: _cli_in_process(cli, argv)  # noqa: E731
        else:
            cmd = [sys.executable, "-m", "wreathtree.cli"] + argv
            call = lambda cmd=cmd: _cli_process(cmd, env)  # noqa: E731
        ops.append(Op(step[0], call, cli_check(step, inputs.machines, f"cli/{n}")))
    return ops


def _cli_process(cmd: list, env: dict):
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def _cli_in_process(cli, argv: list):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------------
# series-sweep: the stream kernel and the cycle search, stratified by size

SERIES_K = (2, 3, 4, 5, 6, 7, 8, 9)
SERIES_MAX_STATES = 8
SERIES_MODULI = (4, 6, 8, 9, 10, 12)  # composite, so equality runs the generic cycle search
SERIES_QUOTA = 3  # inputs kept per stratum and pool
SERIES_MAX_CANDIDATES = 40_000
# pool -> log2 of the fewest and most vector entries its ops store; strata are quarter octaves
SERIES_POOLS = {"stream": (4, 13), "twin": (4, 13), "pair": (4, 13), "other": (1, 5)}


def _entries(stream, dim: int) -> int:
    return (len(stream[0]) + len(stream[1])) * dim


def _stratum(entries: int) -> float:
    return int(log2(entries) * 4) / 4


def series_candidates(rng: random.Random, k: int, cap: int) -> list:
    """(pool, vector entries stored, item) for each op one random machine f offers.

    The bench-side reference iteration stores one vector per step; an
    op's size is the number of entries of those vectors, its steps times
    their length.  Pools: the stream of f (``stream``: transitivity and
    coefficients), f against a padded twin under a composite label
    modulus (``twin``), f against an unrelated g (``other``: equality;
    ``pair``: conjugacy, which needs both streams and, when both are
    transitive, the comparison).  A run that would store more than
    ``cap`` entries offers nothing.
    """
    def vectors(dim):
        return cap // dim + 1

    f = random_cyclic(rng, k, rng.randint(1, SERIES_MAX_STATES))
    n = len(f.names)
    offers = []
    sf = ref.stream_of(f, cap=vectors(n))
    if sf is not None:
        offers.append(("stream", _entries(sf, n), dict(f=f, sf=sf)))
    fm = with_labels(f, (SERIES_MODULI[rng.randrange(len(SERIES_MODULI))],), rng)
    twin = pad_unreachable(fm, rng)
    found = ref.series_compare(fm, ref.label_vector(fm)[1], twin, ref.label_vector(twin)[1], fm.moduli[0],
                               vectors(2 * n + 2))
    if found is not None:
        offers.append(("twin", found[2] * (2 * n + 2), dict(fm=fm, twin=twin, eq=found[:2])))
    g = random_cyclic(rng, k, rng.randint(1, SERIES_MAX_STATES))
    ng = len(g.names)
    sg = ref.stream_of(g, cap=vectors(ng))
    other = ref.series_compare(f, ref.cyclic_shifts(f), g, ref.cyclic_shifts(g), k, vectors(n + ng))
    if sf is None or sg is None or other is None:
        return offers
    offers.append(("other", other[2] * (n + ng), dict(f=f, g=g, eq=other[:2])))
    entries = _entries(sf, n) + _entries(sg, ng)
    if ref.first_non_unit(sf, k) is None and ref.first_non_unit(sg, k) is None:
        entries += other[2] * (n + ng)
    offers.append(("pair", entries, dict(f=f, g=g)))
    return offers


def generate_series(seed: int) -> Inputs:
    """Random cyclic machines (k <= 9, <= 8 states), stratified by vector entries stored.

    Each of the four pools of ``series_candidates`` keeps SERIES_QUOTA
    inputs per quarter octave of its ops' size, the first ones the
    seeded stream of machines offers.  Fixing the count per stratum
    keeps throughput and the latency quantiles steady from seed to seed
    while op sizes still span twelve octaves.
    """
    rng = random.Random(f"series-sweep/{seed}")
    pools = {p: {s: [] for s in sorted({_stratum(n) for n in range(2**lo, 2**hi)})}
             for p, (lo, hi) in SERIES_POOLS.items()}
    cap = 2 ** max(hi for _, hi in SERIES_POOLS.values())
    for _ in range(SERIES_MAX_CANDIDATES):
        if all(len(v) == SERIES_QUOTA for strata in pools.values() for v in strata.values()):
            break
        for pool, entries, item in series_candidates(rng, SERIES_K[rng.randrange(len(SERIES_K))], cap):
            stratum = pools[pool].get(_stratum(entries))
            if stratum is not None and len(stratum) < SERIES_QUOTA:
                stratum.append(item)
    else:
        empty = {p: [s for s, v in strata.items() if len(v) < SERIES_QUOTA] for p, strata in pools.items()}
        raise RuntimeError(f"series-sweep: candidate budget exhausted; strata not filled: {empty}")

    inputs = Inputs()
    for pool, strata in pools.items():
        for items in strata.values():
            for item in items:
                tag = f"{pool}{len(inputs.plan)}"
                for role, m in item.items():
                    if isinstance(m, Machine):
                        _add(inputs, f"{tag}_{role}", m)
                inputs.plan.append((pool, tag, item))
    rng.shuffle(inputs.plan)  # any prefix of the op list then samples every pool and stratum
    return inputs


def prepare_series(inputs: Inputs) -> list[Op]:
    import wreathtree as wt

    ops = []
    for pool, tag, item in inputs.plan:
        parsed = {role: wt.parse_automaton(inputs.texts[f"{tag}_{role}"])
                  for role, m in item.items() if isinstance(m, Machine)}
        if pool == "stream":
            f, m, sf = parsed["f"].initial_automaton(), item["f"], item["sf"]
            bad = ref.first_non_unit(sf, m.k)
            ops += [
                Op("transitive", lambda f=f: wt.is_spherically_transitive(f),
                   lambda v, sf=sf, bad=bad, m=m: (v.transitive, v.first_bad_index) == (bad is None, bad)
                   and _stream_ok(v.stream, sf, m) and _levels_ok(v.first_bad_index, m)),
                Op("coeffs", lambda f=f: _coeffs(wt, f), lambda s, sf=sf, m=m: _stream_ok(s, sf, m)),
            ]
        elif pool == "twin":
            f, t = parsed["fm"].initial_automaton(), parsed["twin"].initial_automaton()
            lab_f, lab_t = parsed["fm"].labels, parsed["twin"].labels
            ops.append(Op("equal-twin", lambda f=f, t=t, a=lab_f, b=lab_t: wt.abelianization_equal(f, t, a, b),
                          lambda r, e=item["eq"]: tuple(r) == e))
        elif pool == "other":
            f, g = parsed["f"].initial_automaton(), parsed["g"].initial_automaton()
            ops.append(Op("equal-other", lambda f=f, g=g: wt.abelianization_equal(f, g),
                          lambda r, e=item["eq"]: tuple(r) == e))
        else:
            f, g = parsed["f"].initial_automaton(), parsed["g"].initial_automaton()
            ops.append(Op("conjugate", lambda f=f, g=g: wt.conjugate(f, g),
                          lambda v, a=item["f"], b=item["g"]: ref.conjugacy_sound(v.status.value, a, b)))
    return ops


def _coeffs(wt, g, cap=None):
    """What the ``coeffs`` command computes: the full stream of the cyclic labels."""
    vector = wt.abelian_vector(wt.validate_cyclic(g.automaton), 0)
    return wt.coefficient_stream(wt.incidence_matrix(g.automaton), vector, g.initial, cap or wt.DEFAULT_VISIT_CAP)


SIMULATOR_WORDS = 4096  # largest tree level the checks enumerate word by word
SIMULATOR_ORBIT_WORDS = 1024  # the same for counting orbits, which costs more per word


def _stream_ok(stream, expected, m: Machine) -> bool:
    """Exact (preperiod, period), and the prefix the simulator can reach agrees."""
    if (tuple(stream.preperiod), tuple(stream.period)) != expected:
        return False
    j = 0
    while m.k**j <= SIMULATOR_WORDS:
        if stream.term(j) != ref.level_label_sum(m, j):
            return False
        j += 1
    return True


def _levels_ok(first_bad_index, m: Machine) -> bool:
    """The simulator agrees: level j is one orbit exactly when no bad index lies below j."""
    j = 1
    while m.k**j <= SIMULATOR_ORBIT_WORDS:
        one_orbit = ref.level_orbits(m, j)[0] == 1
        if one_orbit != (first_bad_index is None or first_bad_index >= j):
            return False
        j += 1
    return True


# --------------------------------------------------------------------------
# rational-forms: fraction-free determinants over Z[t]

# states -> machines.  One call costs about states^3.5 (on the reference
# machine ~9 ms at 10 states, ~15 ms at 12, ~45 ms at 17, ~250 ms at 28), and
# machines of one size differ by up to 2x.  Every op runs several times in a
# run and its latency is its mean, so the quantiles move only with the mix of
# ops, which is fixed: the median lies inside the 60-op 12-state band (sorted
# positions 31-90 of 141) and the 90th percentile inside the 34-op 17-state
# band (positions 106-139, with the labelled machines), at least ten ops from
# either edge.
RATIONAL_COUNTS = {10: 30, 12: 60, 14: 15, 17: 32, 24: 1, 28: 1}
RATIONAL_LABELLED = (17, 12, 2)  # states, composite modulus and number of the labelled machines


def generate_rational(seed: int) -> Inputs:
    rng = random.Random(f"rational-forms/{seed}")
    inputs = Inputs()
    for n, count in RATIONAL_COUNTS.items():
        for _ in range(count):
            inputs.plan.append((_add(inputs, f"r{len(inputs.plan)}", random_cyclic(rng, 3, n)), 0))
    n, mod, count = RATIONAL_LABELLED
    for i in range(count):
        inputs.plan.append((_add(inputs, f"labelled{i}", with_labels(random_cyclic(rng, 3, n), (mod,), rng)), 0))
    rng.shuffle(inputs.plan)  # any prefix of the op list then samples every band
    return inputs


def prepare_rational(inputs: Inputs) -> list[Op]:
    import wreathtree as wt

    ops = []
    for name, component in inputs.plan:
        parsed = wt.parse_automaton(inputs.texts[name])
        g, m = parsed.initial_automaton(), inputs.machines[name]
        mod = ref.label_vector(m, component)[0]
        ops.append(Op(
            "rational",
            lambda g=g, lab=parsed.labels, c=component: wt.rational_form(g, lab, c),
            lambda r, m=m, c=component, mod=mod: r.modulus == mod
            and ref.check_rational(r.numerator, r.denominator, mod, ref.prefix(m, 2 * len(m.names), c), len(m.names)),
        ))
    return ops


# --------------------------------------------------------------------------
# tree-ops: product construction, partition refinement, word enumeration

# Machines for the cheap ops (inverse, minimize, equivalent): (k, states).
TREE_SMALL = tuple((k, n) for k in (2, 3) for n in range(30, 141, 5))
# (k, states, typical reachable product size): each op keeps, of TREE_CANDIDATES
# seeded inputs, the one whose product size is nearest the typical one, so
# the construction cost stays steady from seed to seed.
TREE_COMPOSE = ((2, 100, 4200), (2, 115, 5800), (2, 130, 7400), (2, 250, 25900), (3, 60, 2520), (3, 70, 3490),
                (3, 80, 4580), (3, 90, 5600), (3, 100, 7150), (3, 150, 15800), (3, 180, 23000))
TREE_CONJUGATE = ((2, 18, 1180), (3, 15, 1470), (3, 16, 1990), (3, 25, 7560))
TREE_CANDIDATES = 5
# (k, states, levels for level_transitive, levels for the brute-force coefficient)
# of level-transitive machines.
TREE_LEVELS = ((6, 6, (4,), ()), (2, 8, (13, 14), (13, 14, 15, 16)))
# (k, states, level, machines): brute-force sweeps of one level on that many
# machines.  Each costs exactly k^level steps, whatever the machine.
TREE_SWEEPS = (6, 6, 7, 24)
# Every op runs about twenty times in a run and its latency is its mean, so
# the quantiles move only with the mix of ops.  Of the 184 ops, the 138 cheap
# constructions (inverse, minimize and equivalent on 30-140 states, under
# ~3 ms) come first, so the median lies among them; the 24 k=6 level-7 sweeps
# (~30 ms, the same work on any machine) hold the 90th percentile (sorted
# positions about 157-180), with about 18 ops of the smaller products and level
# ops below them and the 4 largest products above.


def _nearest(rng: random.Random, k: int, n: int, target: int, size) -> tuple:
    """Of TREE_CANDIDATES random pairs, the one whose ``size`` is nearest ``target``."""
    pairs = [(random_invertible(rng, k, n), random_invertible(rng, k, n)) for _ in range(TREE_CANDIDATES)]
    return min(pairs, key=lambda p: abs(size(*p) - target))


def generate_tree(seed: int) -> Inputs:
    rng = random.Random(f"tree-ops/{seed}")
    inputs = Inputs()
    for k, n in TREE_SMALL:
        f = _add(inputs, f"f{k}_{n}", random_invertible(rng, k, n))
        d = _add(inputs, f"d{k}_{n}", with_duplicates(inputs.machines[f], rng))
        inputs.plan += [("inverse", f), ("minimize", d), ("equivalent", f, d)]
    for k, n, target in TREE_COMPOSE:
        f, g = _nearest(rng, k, n, target, lambda f, g: ref.chain_size([g, f]))
        inputs.plan.append(("compose", _add(inputs, f"p{k}_{n}", f), _add(inputs, f"q{k}_{n}", g)))
    for k, n, target in TREE_CONJUGATE:
        h, x = _nearest(rng, k, n, target, lambda h, x: ref.chain_size([ref.inverse(h), x, h]))
        inputs.plan.append(("conjugate_by", _add(inputs, f"h{k}_{n}", h), _add(inputs, f"x{k}_{n}", x)))
    for k, n, levels, brute in TREE_LEVELS:
        while True:  # transitive on every level swept, so each level is one orbit
            c = random_cyclic(rng, k, n)
            if all(gcd(t, k) == 1 for t in ref.prefix(c, max(levels))):
                break
        c = _add(inputs, f"c{k}", c)
        inputs.plan += [("level", c, j) for j in levels] + [("bruteforce", c, j) for j in brute]
    k, n, level, count = TREE_SWEEPS
    for i in range(count):
        inputs.plan.append(("bruteforce", _add(inputs, f"s{k}_{i}", random_cyclic(rng, k, n)), level))
    rng.shuffle(inputs.plan)  # any prefix of the op list then samples every band
    return inputs


def prepare_tree(inputs: Inputs) -> list[Op]:
    import wreathtree as wt

    prog = {name: wt.parse_automaton(text).initial_automaton() for name, text in inputs.texts.items()}
    ms = inputs.machines
    ops = []
    for n, (kind, *args) in enumerate(inputs.plan):
        seed = f"tree/{n}"
        if kind == "compose":
            f, g = args
            call = lambda f=prog[f], g=prog[g]: f.compose(g)  # noqa: E731
        elif kind == "inverse":
            call = lambda f=prog[args[0]]: f.inverse()  # noqa: E731
        elif kind == "minimize":
            call = lambda d=prog[args[0]]: d.minimize()  # noqa: E731
        elif kind == "equivalent":
            f, g = args
            call = lambda f=prog[f], g=prog[g]: f.equivalent(g)  # noqa: E731
            expect = ref.equivalent(ms[f], ms[g])
            ops.append(Op(kind, call, lambda r, e=expect: r is e))
            continue
        elif kind == "conjugate_by":
            h, x = args
            call = lambda h=prog[h], x=prog[x]: wt.conjugate_by(h, x)  # noqa: E731
        elif kind == "level":
            c, j = args
            call = lambda c=prog[c], j=j: wt.level_transitive(c, j)  # noqa: E731
            ops.append(Op(kind, call, lambda r, m=ms[c], j=j: (r.orbit_count, r.max_orbit) == ref.level_orbits(m, j)))
            continue
        else:
            c, j = args
            call = lambda c=prog[c], j=j: wt.abelian_coefficient_bruteforce(c, j)  # noqa: E731
            ops.append(Op(kind, call, lambda r, m=ms[c], j=j: r == ref.prefix(m, j + 1)[j]))
            continue
        machines = [ms[a] for a in args]
        ops.append(Op(kind, call, lambda r, kind=kind, machines=machines, seed=seed:
                      _acts_as(kind, _as_machine(r), machines, random.Random(seed))))
    return ops


# --------------------------------------------------------------------------

GENERATORS = {
    "cli-fixtures": generate_cli,
    "series-sweep": generate_series,
    "rational-forms": generate_rational,
    "tree-ops": generate_tree,
}


def prepare(name: str, inputs: Inputs, workdir: str, in_process: bool = False) -> list[Op]:
    if name == "cli-fixtures":
        return prepare_cli(inputs, workdir, in_process)
    return {"series-sweep": prepare_series, "rational-forms": prepare_rational, "tree-ops": prepare_tree}[name](inputs)


# --------------------------------------------------------------------------
# The fixed probe of the traced run: every layer once, on the same inputs in
# every workload, so each per-layer metric has a value on every workload.

PERIOD5 = os.path.join(BENCH_DIR, "period5.aut")
KERNEL_STEPS = 20_000  # period5 stores this many vectors, then hits the cap
KERNEL_OP = 0


def warmup_ops() -> list[Op]:
    """The probe without the kernel run: fixed inputs, so warming up costs the same for every seed."""
    return [op for i, op in enumerate(probe_ops()) if i != KERNEL_OP]


def probe_ops() -> list[Op]:
    import wreathtree as wt
    from wreathtree import cli

    texts = {name: _read(os.path.join(FIXTURES, name + ".aut")) for name in FIXTURE_NAMES}
    texts["period5"] = _read(PERIOD5)
    ms = {name: ref.parse_text(text) for name, text in texts.items()}
    prog = {name: wt.parse_automaton(text).initial_automaton() for name, text in texts.items()}
    p5, odo, lamp_a, lamp_b = prog["period5"], prog["odometer"], prog["lamplighter"], prog["lamplighter_b"]
    m5 = ms["period5"]

    def kernel():
        try:
            _coeffs(wt, p5, KERNEL_STEPS)
        except wt.IterationCapError:
            return "capped"
        return "finished"

    series5 = wt.rational_form(p5)
    twice = lamp_a.compose(lamp_a)
    n5 = len(m5.names)
    ops = [Op("kernel", kernel, lambda r: r == "capped")]
    ops += [Op("parse", lambda t=t: wt.parse_automaton(t), lambda r, m=ms[name]: r.automaton.names == m.names)
            for name, t in texts.items()]
    ops += [
        Op("rational", lambda: wt.rational_form(p5),
           lambda r: ref.check_rational(r.numerator, r.denominator, 5, ref.prefix(m5, 2 * n5), n5)),
        Op("expand", lambda: wt.series_expand(series5, 2 * n5), lambda r: r == ref.prefix(m5, 2 * n5)),
        Op("transitive", lambda: wt.is_spherically_transitive(lamp_a),
           lambda r: r.first_bad_index == ref.first_non_unit(ref.stream_of(ms["lamplighter"]), 2)),
        Op("coeffs", lambda: _coeffs(wt, odo), lambda r: (r.preperiod, r.period) == ref.stream_of(ms["odometer"])),
        Op("equal", lambda: wt.abelianization_equal(lamp_a, lamp_b),
           lambda r: tuple(r) == series_all(ms["lamplighter"], ms["lamplighter_b"])),
        Op("conjugate", lambda: wt.conjugate(lamp_a, lamp_b),
           lambda r: ref.conjugacy_sound(r.status.value, ms["lamplighter"], ms["lamplighter_b"])),
        Op("compose", lambda: odo.compose(lamp_a),
           lambda r: _acts_as("compose", _as_machine(r), [ms["odometer"], ms["lamplighter"]], random.Random(1))),
        Op("inverse", lambda: odo.inverse(),
           lambda r: _acts_as("inverse", _as_machine(r), [ms["odometer"]], random.Random(2))),
        Op("minimize", lambda: twice.minimize(),
           lambda r: _acts_as("minimize", _as_machine(r), [_as_machine(twice)], random.Random(3))),
        Op("equivalent", lambda: odo.equivalent(lamp_a), lambda r: r is ref.equivalent(ms["odometer"], ms["lamplighter"])),
        Op("level", lambda: wt.level_transitive(odo, 12), lambda r: (r.orbit_count, r.max_orbit) == (1, 4096)),
        Op("bruteforce", lambda: wt.abelian_coefficient_bruteforce(odo, 12), lambda r: r == ref.prefix(ms["odometer"], 13)[12]),
        Op("conjugate_by", lambda: wt.conjugate_by(lamp_a, odo),
           lambda r: _acts_as("conjugate_by", _as_machine(r), [ms["lamplighter"], ms["odometer"]], random.Random(4))),
    ]
    for step in (("validate", "odometer"), ("transitive", "lamplighter")):
        argv = cli_argv(step, {name: os.path.join(FIXTURES, name + ".aut") for name in FIXTURE_NAMES})
        ops.append(Op("cli", lambda argv=argv: _cli_in_process(cli, argv), cli_check(step, ms, "probe")))
    return ops
