"""Layered benchmark for luroth.

    python3 bench/run.py                       # all three workloads, then a traced run
    python3 bench/run.py --workload nodal-batch --seed 7 --seconds 25 --trace 0

Each workload runs in a fresh interpreter, single process and single thread,
as a closed loop with one client: the next op starts when the previous one
has returned.  Every op's result is checked outside the timed region.  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run over all three
workloads.  See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from clock import Clock, ProcessClock, pin_to_one_cpu  # noqa: E402
from tracing import VERIFY_CHECKS, Tracer  # noqa: E402
from workloads import ROOT  # noqa: E402

WORKLOADS = ("pencil-sweep", "nodal-batch", "cli-mix")
NPROC = len(os.sched_getaffinity(0))  # before the run pins itself to one core
SETUP_REPEATS = 11
PROBE_REPEATS = 5
MS = 1000.0

# end-to-end metrics every workload reports, with units
END_TO_END = (("geomean_ms", "ms"), ("op_ms", "ms"), ("op_ms.tail", "ms"),
              ("slowest_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


# ---------------------------------------------------------------------------
# the closed loop

@dataclass
class Measured:
    samples: dict[str, list[float]]  # normalized seconds per op, by kind
    raw: dict[str, list[float]]  # wall-clock seconds per op, by kind
    keys: dict[str, list]  # the input of each sample, by kind
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    reasons: list[str] = field(default_factory=list)
    first: dict = field(default_factory=dict)  # (kind, key) -> result of round 0

    def fail(self, reason: str):
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def measure(workload, seconds: float | None = None, rounds: int | None = None,
            tracer: Tracer | None = None) -> Measured:
    """Run whole rounds until ``seconds`` have passed or ``rounds`` are done."""
    def by_kind():
        return {k: [] for k in workload.kinds}

    m = Measured(by_kind(), by_kind(), by_kind())
    perf = time.perf_counter
    deadline = perf() + seconds if seconds is not None else None
    clock = (Clock(probe_inside=tracer is None) if workload.in_process
             else ProcessClock(workloads.child_env()))
    while True:
        for op in workload.round(m.rounds):
            m.attempted += 1
            if tracer:
                tracer.op_begin(op.kind)
            try:
                result = clock.call(op.run)
            except Exception as exc:  # an op that raises is a failed op
                m.fail(f"{op.kind}[{op.key}] raised {exc!r}")
                continue
            finally:
                if tracer:
                    tracer.op_end()
            try:
                op.check(result)
            except Exception as exc:  # a check that fails or raises fails the op
                m.fail(f"{op.kind}[{op.key}] {exc}")
                continue
            raw, normalized = clock.last
            m.samples[op.kind].append(normalized)
            m.raw[op.kind].append(raw)
            m.keys[op.kind].append(op.key)
            if m.rounds == 0:
                m.first[(op.kind, op.key)] = (op, result)
        m.rounds += 1
        if rounds is not None and m.rounds >= rounds:
            return m
        if deadline is not None and perf() >= deadline:
            return m


def output_digest(m: Measured) -> str:
    return workloads.digest(f"{kind}|{key}|{op.canonical(result)}"
                            for (kind, key), (op, result) in sorted(m.first.items()))


def check_golden_digests(workload, m: Measured, seed: int):
    """At the default seed, inputs and round-0 outputs must match this commit's."""
    if seed != workloads.DEFAULT_SEED:
        return
    golden = workloads.load_golden()
    for what, got in (("inputs", workload.input_digest), ("outputs", output_digest(m))):
        want = golden[what][workload.name]
        if got != want:
            m.fail(f"{what} digest {got} != golden {want}")


# ---------------------------------------------------------------------------
# statistics

def median(xs):
    return statistics.median(xs) if xs else float("nan")


TAIL_SHARE = 0.05  # a tail is p95 ...
TAIL_BEYOND = 10  # ... or lower, so that at least this many samples lie beyond it


def tail(xs) -> tuple[float, float]:
    """The p95, or the highest percentile with ten samples beyond it if that is lower.

    A higher percentile would report the machine's rare stalls (a
    preempted op, an interrupt) more than the program.
    """
    xs = sorted(xs)
    if len(xs) <= TAIL_BEYOND:
        return (xs[-1] if xs else float("nan")), 100.0
    beyond = max(TAIL_BEYOND, int(len(xs) * TAIL_SHARE))
    return xs[-beyond - 1], 100.0 * (len(xs) - beyond) / len(xs)


def input_tail(xs, keys) -> tuple[float, int]:
    """The p95 of each input's median, and the number of inputs.

    Each input's median sheds the machine's stalls, so this tail follows
    the slow inputs rather than the slow moments.
    """
    by_key: dict = {}
    for x, key in zip(xs, keys):
        by_key.setdefault(key, []).append(x)
    medians = [median(v) for v in by_key.values()]
    if len(medians) < 2:
        return (medians[0] if medians else float("nan")), len(medians)
    return statistics.quantiles(medians, n=20)[-1], len(medians)


def build(name: str, seed: int):
    return workloads.BUILDERS[name](seed)


def time_children(args: list[str], repeats: int, clock, env=None) -> list[float]:
    """Seconds of ``repeats`` child processes, one after another, normalized by ``clock``."""
    times = []
    for _ in range(repeats):
        # pipes, as in ProcessClock, so the wait for the child doesn't poll
        clock.call(lambda: subprocess.run(args, cwd=ROOT, env=env, check=True, timeout=120,
                                          capture_output=True))
        times.append(clock.last[1])
    return times


def setup_seconds(name: str, seed: int) -> list[float]:
    """Fresh interpreters that import the package and build the inputs."""
    return time_children([sys.executable, str(BENCH / "run.py"), "--setup-only",
                          "--workload", name, "--seed", str(seed)], SETUP_REPEATS,
                         ProcessClock())


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli-mix" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def run_record(seed: int, samples: dict) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": NPROC,
        "pinned_cpu": next(iter(cpus)) if len(cpus := os.sched_getaffinity(0)) == 1 else None,
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
        "samples": samples,
        "note": "shared, unpinned sandbox: the run pins itself to one of its cores, but "
                "other tenants share them; compare timings only within one machine and "
                "only as medians of several runs",
    }


def emit(line_tag: str, payload: dict):
    print(f"{line_tag} {json.dumps(payload, sort_keys=True)}")


def show(name: str, value: float, unit: str, note: str = ""):
    print(f"  {name:<48} {value:>12.4f} {unit:<6} {note}")


# ---------------------------------------------------------------------------
# one untraced workload run

def named_timings(name: str, samples: dict[str, list[float]], keys: dict[str, list]
                  ) -> list[tuple]:
    """The workload's named op timings in ms: (name, value, sample count)."""
    med = {k: median(v) * MS for k, v in samples.items()}
    if name == "pencil-sweep":
        return [(k, med[k], len(v)) for k, v in samples.items()]
    if name == "nodal-batch":
        t, inputs = input_tail(samples["classify_ms"], keys["classify_ms"])
        n = len(samples["classify_ms"])
        return [("classify_ms", med["classify_ms"], n),
                (f"classify_ms.tail (p95 of {inputs} inputs)", t * MS, n),
                ("tangent_ms", med["tangent_ms"], len(samples["tangent_ms"]))]
    everything = [x for v in samples.values() for x in v]
    t, pct = tail(everything)
    return [("cli_ms", median(everything) * MS, len(everything)),
            (f"cli_ms.tail (p{pct:.1f})", t * MS, len(everything)),
            ("cli_verify_ms", med["verify"], len(samples["verify"]))]


def run_workload(name: str, seed: int, seconds: float) -> dict:
    workload = build(name, seed)
    print(f"{name}: seed {seed}, input digest {workload.input_digest}")
    gc.collect()
    m = measure(workload, seconds=seconds)
    check_golden_digests(workload, m, seed)
    rss = peak_rss_mb(name)
    setups = setup_seconds(name, seed)

    kind_medians = {k: median(v) * MS for k, v in m.samples.items() if v}
    frequent = (m.samples[workload.op_kind] if workload.op_kind
                else [x for v in m.samples.values() for x in v])
    if workload.tail_by_input:
        op_tail, inputs = input_tail(frequent, m.keys[workload.op_kind])
        tail_note = f"the p95 of the medians of {inputs} inputs"
    else:
        op_tail, pct = tail(frequent)
        tail_note = f"p{pct:.1f}"
    values = {
        "geomean_ms": math.exp(statistics.fmean(math.log(v) for v in kind_medians.values()))
        if kind_medians else float("nan"),
        "op_ms": median(frequent) * MS,
        "op_ms.tail": op_tail * MS,
        "slowest_ms": max(kind_medians.values(), default=float("nan")),
        "setup_s": median(setups),
        "peak_rss_mb": rss,
    }
    named = [(metric, value, "ms", count, raw) for (metric, value, count), (_, raw, _)
             in zip(named_timings(name, m.samples, m.keys),
                    named_timings(name, m.raw, m.keys))]
    named += [("setup_s", values["setup_s"], "s", SETUP_REPEATS, float("nan")),
              ("peak_rss_mb", rss, "MB", 1, rss),
              ("fail_share", m.failed / max(m.attempted, 1), "share", m.attempted, float("nan"))]
    print(f"{name}: {m.rounds} rounds, {m.attempted} ops, {m.failed} failed, "
          f"output digest {output_digest(m)}")
    for reason in m.reasons:
        print(f"  FAILED {reason}")
    print("end-to-end metrics (times normalized by the reference loop; raw wall clock after):")
    for metric, value, unit, count, raw in named:
        show(metric, value, unit, f"n={count}" + (f"  raw {raw:.4f}" if raw == raw else ""))
    print(f"  (op_ms and its tail report {workload.op_kind or 'every op'}; tail is {tail_note})")
    samples = {k: len(v) for k, v in m.samples.items()}
    samples.update(setup_s=SETUP_REPEATS, op_ms=len(frequent))
    emit("record", run_record(seed, samples))
    emit("detail", {"workload": name, "named": named, "values": values})
    return {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END}}


# ---------------------------------------------------------------------------
# the traced run: fixed work on every workload, untraced then traced

TRACE_ROUNDS = {"pencil-sweep": 1, "nodal-batch": 4, "cli-in-process": 3}
STD_LAYERS = ("poncelet.poncelet_matrix", "forms.TernaryForm.lex_normalized",
              "forms.parse_form")
CLASSIFY_LAYERS = ("nodal.verify_node", "nodal.normalize_at_node", "nodal.associated_conic",
                   "nodal.koszul_solve", "linalg.solve_linear", "linalg.conic_det3",
                   "linalg.conic_kernel_point")
TANGENT_LAYERS = ("nodal.tangent_map", "linalg.invert")


def traced_pair(make, rounds: int, tally):
    """The same ops untraced, then traced, each on a fresh build of the workload.

    The untraced pass gets a tracer that wraps nothing, so both passes run
    the same loop and the same clock.  Returns the untraced workload and
    measurement, the traced measurement and the tracer; ``tally`` counts the
    ops of both.
    """
    workload = make()
    plain = measure(workload, rounds=rounds, tracer=Tracer())
    tracer = Tracer()
    fresh = make()
    tracer.install()
    try:
        traced = measure(fresh, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    tally(plain)
    tally(traced)
    return workload, plain, traced, tracer


def per_op_ms(tracer: Tracer, kind: str, name: str, field_: str = "self_time") -> float:
    values = tracer.per_op(kind, name, field_)
    return statistics.fmean(values) * MS if values else 0.0


def total_ms(m: Measured) -> float:
    return sum(x for v in m.samples.values() for x in v) * MS


def pencil_layers(seed: int, out: dict, tally) -> Tracer:
    sizes = workloads.PencilSizes()
    workload, plain, traced, tracer = traced_pair(
        lambda: workloads.pencil_workload(seed, sizes), TRACE_ROUNDS["pencil-sweep"], tally)
    for conic_name, ns in (("std", sizes.std_ns), ("gen", sizes.gen_ns)):
        for n in ns:
            kind = f"curve_ms.{conic_name}.n{n}"
            out[f"linalg.PolyMatrix.determinant.self_ms.{conic_name}.n{n}"] = per_op_ms(
                tracer, kind, "linalg.PolyMatrix.determinant")
            if conic_name == "std":
                for layer in STD_LAYERS:
                    out[f"{layer}.self_ms.n{n}"] = per_op_ms(tracer, kind, layer)
            sizes_of(workload, plain, kind, n, out)
    big = f"curve_ms.std.n{max(sizes.std_ns)}"
    if traced.raw[big]:
        out[f"linalg.PolyMatrix.determinant.share.std.n{max(sizes.std_ns)}"] = (
            sum(tracer.per_op(big, "linalg.PolyMatrix.determinant")) / sum(traced.raw[big]))
    jump, singular = f"jump_ms.n{sizes.jump_n}", f"singular_jump_ms.n{sizes.jump_n}"
    out["linalg.rank.self_ms"] = per_op_ms(tracer, jump, "linalg.rank")
    out["calls.rank.per_jump"] = tracer.calls_per_op(jump, "linalg.rank")
    out["linalg.sylvester_resultant.self_ms"] = per_op_ms(
        tracer, singular, "linalg.sylvester_resultant")
    out["calls.sylvester_resultant.per_singular_jump"] = tracer.calls_per_op(
        singular, "linalg.sylvester_resultant")
    out["trace.overhead_ms.pencil-sweep"] = total_ms(traced) - total_ms(plain)
    return tracer


def sizes_of(workload, m: Measured, kind: str, n: int, out: dict):
    """Exact sizes of the first input of a curve kind, measured from outside."""
    from luroth import poncelet
    from luroth.forms import parse_form
    from luroth.poncelet import PARAM_VARS

    conic_name, _, pool = workload.details["pools"][kind]
    conic, pencil = workload.details["conics"][conic_name], pool[0]
    _, curve = m.first.get((kind, 0), (None, None))
    if curve is None:
        return  # the op failed, and the failure is counted
    out[f"curve.terms.{conic_name}.n{n}"] = len(curve.terms)
    out[f"curve.coeff_bits.{conic_name}.n{n}"] = max(
        max(c.numerator.bit_length(), c.denominator.bit_length()) for c in curve.terms.values())
    if not hasattr(poncelet, "poncelet_matrix"):
        return  # reported as absent
    matrix = poncelet.poncelet_matrix(conic, poncelet.PonceletPencil(
        parse_form(pencil.gamma1, PARAM_VARS), parse_form(pencil.gamma2, PARAM_VARS)))
    out[f"matrix.dim.n{n}"] = matrix.rows
    out[f"matrix.nonzero.{conic_name}.n{n}"] = sum(not e.is_zero() for e in matrix.entries)


def nodal_layers(seed: int, out: dict, tally) -> Tracer:
    _, plain, traced, tracer = traced_pair(
        lambda: workloads.nodal_workload(seed), TRACE_ROUNDS["nodal-batch"], tally)
    layer = "forms.TernaryForm.substitute_linear"
    out[f"{layer}.self_ms"] = per_op_ms(tracer, "classify_ms", layer)
    out["calls.substitute_linear.per_classify"] = tracer.calls_per_op("classify_ms", layer)
    for layer in CLASSIFY_LAYERS:
        out[f"{layer}.self_ms"] = per_op_ms(tracer, "classify_ms", layer)
    for layer in TANGENT_LAYERS:
        out[f"{layer}.self_ms"] = per_op_ms(tracer, "tangent_ms", layer)
    out["trace.overhead_ms.nodal-batch"] = total_ms(traced) - total_ms(plain)
    return tracer


def cli_layers(seed: int, out: dict, tally) -> Tracer:
    env = workloads.child_env()
    workloads.warm_bytecode()
    # the reference loop, not a reference process: that would read the
    # interpreter start as a constant
    clock = Clock(probe_inside=False)
    interp = time_children([sys.executable, "-c", "pass"], PROBE_REPEATS, clock, env)
    imports = time_children([sys.executable, "-c", "import luroth.cli"], PROBE_REPEATS, clock,
                            env)
    out["cli.interpreter_ms"] = median(interp) * MS
    out["cli.import_ms"] = (median(imports) - median(interp)) * MS
    _, plain, traced, tracer = traced_pair(
        lambda: workloads.cli_inprocess_workload(seed), TRACE_ROUNDS["cli-in-process"], tally)
    for sub in sorted(set(workloads.CLI_SUBCOMMAND.values())):
        out[f"cli.main.{sub}.ms"] = median(plain.samples[f"cli.main.{sub}"]) * MS
    out["verify.run_checks.self_ms"] = per_op_ms(tracer, "cli.main.verify", "verify.run_checks")
    for name in VERIFY_CHECKS:
        out[f"verify.{name}.ms"] = per_op_ms(tracer, "cli.main.verify", f"verify.{name}", "dur")
    out["trace.overhead_ms.cli-mix"] = total_ms(traced) - total_ms(plain)
    return tracer


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit, in order."""
    sizes = workloads.PencilSizes()
    names = []
    for conic_name, ns in (("std", sizes.std_ns), ("gen", sizes.gen_ns)):
        for n in ns:
            names.append((f"linalg.PolyMatrix.determinant.self_ms.{conic_name}.n{n}", "ms"))
            if conic_name == "std":
                names += [(f"{layer}.self_ms.n{n}", "ms") for layer in STD_LAYERS]
                names.append((f"matrix.dim.n{n}", "count"))
            names += [(f"matrix.nonzero.{conic_name}.n{n}", "count"),
                      (f"curve.terms.{conic_name}.n{n}", "count"),
                      (f"curve.coeff_bits.{conic_name}.n{n}", "bits")]
    names += [(f"linalg.PolyMatrix.determinant.share.std.n{max(sizes.std_ns)}", "share"),
              ("linalg.rank.self_ms", "ms"), ("calls.rank.per_jump", "count"),
              ("linalg.sylvester_resultant.self_ms", "ms"),
              ("calls.sylvester_resultant.per_singular_jump", "count"),
              ("forms.TernaryForm.substitute_linear.self_ms", "ms"),
              ("calls.substitute_linear.per_classify", "count")]
    names += [(f"{layer}.self_ms", "ms") for layer in CLASSIFY_LAYERS + TANGENT_LAYERS]
    names += [("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms")]
    names += [(f"cli.main.{sub}.ms", "ms") for sub in sorted(set(workloads.CLI_SUBCOMMAND.values()))]
    names.append(("verify.run_checks.self_ms", "ms"))
    names += [(f"verify.{check}.ms", "ms") for check in VERIFY_CHECKS]
    names += [(f"trace.overhead_ms.{w}", "ms") for w in WORKLOADS]
    return names


def run_traced(seed: int) -> dict:
    out: dict[str, float] = {}
    totals = {"attempted": 0, "failed": 0}
    reasons: list[str] = []

    def tally(m: Measured):
        totals["attempted"] += m.attempted
        totals["failed"] += m.failed
        reasons.extend(m.reasons)

    tracers = {"pencil-sweep": pencil_layers(seed, out, tally),
               "nodal-batch": nodal_layers(seed, out, tally),
               "cli-mix": cli_layers(seed, out, tally)}
    declared = dict(per_layer_names())
    undeclared = set(out) - set(declared)
    if undeclared:
        raise RuntimeError(f"per-layer metrics missing from per_layer_names: {undeclared}")
    absent = sorted({a for t in tracers.values() for a in t.absent} | (set(declared) - set(out)))
    print(f"traced run: seed {seed}, {totals['attempted']} ops, {totals['failed']} failed")
    for reason in reasons:
        print(f"  FAILED {reason}")
    if absent:
        print(f"  absent, so not measured (metrics read 0): {', '.join(absent)}")
    print("per-layer metrics:")
    metrics = {}
    for name, unit in declared.items():
        value = out.get(name, 0.0)
        show(name, value, unit)
        metrics[name] = {"value": value, "unit": unit}
    write_spans(seed, tracers)
    emit("record", run_record(seed, {"spans": sum(len(t.spans) for t in tracers.values()),
                                     "ops": totals["attempted"]}))
    return {"correct": totals["failed"] == 0, "attempted": totals["attempted"],
            "failed": totals["failed"], "metrics": metrics}


def write_spans(seed: int, tracers: dict):
    """Spans with parent ids, one JSON object a line, for a closer look."""
    path = BENCH / "results" / f"spans-seed{seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as f:
        for workload, tracer in tracers.items():
            for s in tracer.spans:
                if s.op is None:
                    continue
                f.write(json.dumps({"workload": workload, "op": tracer.op_kinds[s.op],
                                    "op_index": s.op, "id": s.id, "parent": s.parent,
                                    "name": s.name, "start": s.start, "dur": s.dur,
                                    "self": s.self_time}) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


# ---------------------------------------------------------------------------
# everything from one command

def run_all(seed: int, seconds: float) -> dict:
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    details = []
    for name, trace in [(w, 0) for w in WORKLOADS] + [("pencil-sweep", 1)]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{name} (trace {trace}) exited {proc.returncode}")
        sub = json.loads(lines[-1])
        print("\n".join(line for line in lines[:-1] if not line.startswith("detail ")))
        details += [json.loads(line[len("detail "):]) for line in lines
                    if line.startswith("detail ")]
        result["correct"] &= sub["correct"]
        result["attempted"] += sub["attempted"]
        result["failed"] += sub["failed"]
        prefix = "trace" if trace else name
        for key, metric in sub["metrics"].items():
            result["metrics"][f"{prefix}.{key}"] = metric
    print("\nsummary: the named end-to-end metrics of every workload")
    for d in details:
        for metric, value, unit, count, _ in d["named"]:
            show(f"{d['workload']}: {metric}", value, unit, f"n={count}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit (times setup_s)")
    args = parser.parse_args(argv)
    try:
        workloads.import_luroth()
    except (workloads.SourceMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        build(args.workload, args.seed)
        return 0
    cpu = pin_to_one_cpu()
    print(f"pinned to cpu {cpu}" if cpu is not None else "not pinned: the system refused")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    elif args.trace:
        result = run_traced(args.seed)
    else:
        result = run_workload(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
