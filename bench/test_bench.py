"""Tests of the benchmark itself: seeded inputs, the correctness gate, a smoke run."""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

workloads.import_luroth()

TINY_PENCILS = workloads.PencilSizes(std_ns=(4,), gen_ns=(4,), jump_n=4, pool=2,
                                     chord_lines=2, random_lines=2, lines_per_round=2)
TINY_NODAL = workloads.NodalSizes(quartics=4, per_round=4)
TINY_CLI = ("family-92", "parse-error", "not-a-node")


def tiny(name: str, seed: int):
    if name == "pencil-sweep":
        return workloads.pencil_workload(seed, TINY_PENCILS)
    if name == "nodal-batch":
        return workloads.nodal_workload(seed, TINY_NODAL)
    return workloads.cli_workload(seed, TINY_CLI)


def plan(workload, rounds=2):
    return [(op.kind, op.key) for r in range(rounds) for op in workload.round(r)]


@pytest.mark.parametrize("name", ["pencil-sweep", "nodal-batch"])
def test_generator_is_deterministic_for_a_seed(name):
    a, b, other = tiny(name, 5), tiny(name, 5), tiny(name, 6)
    assert a.input_digest == b.input_digest
    assert plan(a) == plan(b)
    assert a.input_digest != other.input_digest


def test_default_inputs_match_golden_digests():
    golden = workloads.load_golden()
    for name in ("pencil-sweep", "nodal-batch"):
        assert run.build(name, workloads.DEFAULT_SEED).input_digest == golden["inputs"][name]


def corrupt_first(workload, kind_prefix: str, corrupt):
    """Make the first op of a kind return a corrupted result."""
    original = workload.round

    def round_ops(r):
        ops = original(r)
        for i, op in enumerate(ops):
            if op.kind.startswith(kind_prefix):
                ops[i] = dataclasses.replace(op, run=lambda run_=op.run: corrupt(run_()))
                break
        return ops

    workload.round = round_ops
    return workload


def test_corrupted_curve_coefficient_fails():
    from luroth.forms import TernaryForm

    def bump(curve):
        exp = min(curve.terms)
        terms = dict(curve.terms)
        terms[exp] += Fraction(1)
        return TernaryForm(curve.degree, curve.variables, terms)

    m = run.measure(corrupt_first(tiny("pencil-sweep", 3), "curve_ms", bump), rounds=1)
    assert m.failed == 1 and m.failed / m.attempted > 0


def test_corrupted_cli_stdout_line_fails():
    def edit_line(result):
        code, out, err = result
        lines = out.splitlines(keepends=True)
        lines[0] = lines[0].replace("ok", "OK")
        return code, "".join(lines), err

    workload = corrupt_first(workloads.cli_workload(3, ("family-92",)), "family", edit_line)
    m = run.measure(workload, rounds=1)
    assert m.failed == 1 and m.failed / m.attempted > 0
    assert "stdout line 1" in m.reasons[0]


@pytest.mark.parametrize("name", ["pencil-sweep", "nodal-batch", "cli-mix"])
def test_smoke_run_at_tiny_sizes(name):
    m = run.measure(tiny(name, 2), rounds=2)
    assert m.failed == 0, m.reasons
    assert m.attempted > 0 and all(m.samples.values())


def test_input_tail_follows_slow_inputs_not_a_stall():
    keys = [k for _ in range(5) for k in range(20)]
    xs = [1.0 + k / 100 for k in keys]
    xs[0] = 50.0  # one stalled sample of input 0
    value, inputs = run.input_tail(xs, keys)
    assert inputs == 20
    assert 1.18 < value <= 1.19  # between the two slowest inputs' medians


def test_tracer_records_nested_spans_and_restores_the_library():
    from luroth import nodal

    original = nodal.verify_node
    tracer = Tracer()
    tracer.install()
    try:
        m = run.measure(tiny("nodal-batch", 4), rounds=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert nodal.verify_node is original
    assert m.failed == 0 and not tracer.absent
    by_id = {s.id: s for s in tracer.spans}
    inner = [s for s in tracer.spans if s.name == "nodal.verify_node"]
    assert inner and all(by_id[s.parent].name == "nodal.classify" for s in inner)
    assert all(0 <= s.self_time <= s.dur for s in tracer.spans)
    assert tracer.calls_per_op("classify_ms", "nodal.classify") == 1


def test_tracer_reports_a_missing_target_as_absent(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "TARGETS", ("linalg.no_such_function", "nodal.classify"))
    tracer = Tracer()
    tracer.install(checks=("check_that_was_removed",))
    tracer.uninstall()
    assert tracer.absent == ["linalg.no_such_function", "verify.check_that_was_removed"]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
