"""Tests of the benchmark itself: seeded inputs, planted wrong answers, metric names.

Run with ``python -m pytest bench``.
"""

import dataclasses
import json
import os
import re
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import harness  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture
def small_inputs(monkeypatch):
    """Fewer strata and candidates, so inputs generate in a fraction of the time."""
    monkeypatch.setattr(workloads, "SERIES_POOLS", {"stream": (4, 6), "twin": (4, 6), "pair": (4, 6), "other": (1, 3)})
    monkeypatch.setattr(workloads, "TREE_CANDIDATES", 1)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_gives_identical_inputs(workload, small_inputs):
    generate = workloads.GENERATORS[workload]
    first, again, other = generate(7), generate(7), generate(8)
    assert first.texts == again.texts
    assert first.plan == again.plan
    assert first.texts != other.texts


def _first_results_failed(ops, mutate_index, mutate):
    """Failed count when op ``mutate_index`` returns a mutated result."""
    op = ops[mutate_index]
    ops = list(ops)
    ops[mutate_index] = harness.Op(op.kind, lambda: mutate(op.call()), op.check)
    return harness.run_loop(ops, 0.0, count=len(ops)).failed()


def test_honest_rational_results_pass_and_a_mutated_numerator_fails():
    ops = workloads.prepare_rational(workloads.generate_rational(3))[:1]
    assert _first_results_failed(ops, 0, lambda r: r) == 0

    def bump(series):
        num = list(series.numerator) or [0]
        num[0] = (num[0] + 1) % series.modulus
        return dataclasses.replace(series, numerator=tuple(num))

    assert _first_results_failed(ops, 0, bump) == 1


def test_flipped_transitivity_verdict_fails(small_inputs):
    inputs = workloads.generate_series(3)
    inputs.plan = [p for p in inputs.plan if p[0] == "stream"][:2]
    ops = workloads.prepare_series(inputs)
    assert _first_results_failed(ops, 0, lambda v: v) == 0
    flipped = _first_results_failed(ops, 0, lambda v: dataclasses.replace(v, transitive=not v.transitive))
    assert flipped == 1


def test_every_sound_conjugacy_verdict_is_accepted():
    lamp = workloads.ref.parse_text(workloads._read(os.path.join(workloads.FIXTURES, "lamplighter.aut")))
    lamp_b = lamp._replace(initial=1 - lamp.initial)
    assert ref.conjugacy_sound("undecided", lamp, lamp_b)
    assert ref.conjugacy_sound("not_conjugate", lamp, lamp_b)
    assert not ref.conjugacy_sound("conjugate", lamp, lamp_b)


def test_a_result_that_changes_between_runs_fails():
    calls = iter(range(10))
    op = harness.Op("count", lambda: next(calls), lambda r: r == 0)
    loop = harness.run_loop([op], 0.0, count=3)
    assert loop.mismatched == 2 and loop.failed() == 2


def test_latencies_are_per_op_means_of_scaled_runs():
    # op 0 ran once on a host at half speed (factor 0.5): scaled, all its runs take 1 ms
    lat = harness.latency_metrics([0.001, 0.002, 0.001, 0.002, 0.002, 0.002], [0, 0, 0, 1, 1, 1],
                                  [1.0, 0.5, 1.0, 1.0, 1.0, 1.0])
    assert lat["latency_p50_ms"] == pytest.approx(1.5)
    assert lat["ops_per_s"] == pytest.approx(2 / 0.003)
    assert (lat["ops"], lat["fewest_runs"]) == (2, 3)


def test_host_factors_follow_the_calibration_units_around_each_sample():
    half = harness.CALIBRATION_HALF_WINDOW
    unit = harness.PYTHON_UNIT.reference_s
    # units before sample 0 ran at reference speed, those far later at half speed
    calibration = [(0, unit)] + [(1 + j, 2 * unit) for j in range(3 * half)]
    factors = harness.host_factors(calibration, 3 * half, unit)
    assert factors[0] == pytest.approx(1 / (2 - 1 / (half + 1)))
    assert factors[-1] == pytest.approx(0.5)


def test_cli_check_rejects_a_nonzero_exit_and_a_wrong_stream():
    inputs = workloads.generate_cli(1)
    step = ("transitive", "odometer")
    check = workloads.cli_check(step, inputs.machines, "t")
    good = ("command = transitive\nfirst_bad_index = none\nmethod = stream\nmodulus = 2\n"
            "stream.period = [1]\nstream.preperiod = []\ntransitive = true\n")
    assert check((0, good, ""))
    assert not check((2, good, ""))
    assert not check((0, good.replace("transitive = true", "transitive = false"), ""))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = list(e2e) + list(layer) + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in list(e2e.values()) + list(layer.values()):
        assert UNIT.match(unit), unit
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
