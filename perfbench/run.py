"""qstruct benchmark: one seeded workload, closed loop, one caller.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. `--trace 0` reports the end-to-end metrics; `--trace 1`
makes a separate traced run and reports the per-layer metrics, writing the
spans to `.bench_out/trace-<workload>-seed<seed>.jsonl`. `--smoke` shrinks
every workload to its smallest size (used by test_smoke.py).

Every op's output is checked (see workloads.check); a wrong answer, an
unexpected exit code or an exception counts as failed. The workloads and the
reason for each are listed in BENCHMARK.json; README.md in this directory has
the layer-to-metric table.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

WORKLOADS = ("roundtrip", "reject", "verify", "cli")
SETUP_REPS = 3
SETUP_REF_SAMPLES = 3  # host-speed samples after each set-up that set its speed
MODULES = ("scalar", "poly", "awops", "families", "structure", "characterize", "cli")
ENTRY_SPAN = {
    "roundtrip": "characterize.classify",
    "reject": "characterize.classify",
    "verify": "cli.main",
    "cli": "cli.process",
}
# Percentile reported as op_tail_s: fixed per workload, so that it does not
# change with the op count, and the highest that leaves about ten samples
# beyond it in a run of run_seconds (see README.md).
TAIL = {"roundtrip": 0.85, "reject": 0.8, "verify": 0.5, "cli": 0.85}
# Span names whose median duration per op is a per-layer metric "<name>_s".
LAYER_SPANS = (
    "families.ttrr", "families.ops", "families.moments",
    "poly.to_cheb", "poly.from_cheb", "awops.dq", "awops.sq",
    "structure.fit_deg0", "structure.fit_deg1", "structure.fit_deg2",
    "structure.verify", "structure.five_term",
    "characterize.aux", "characterize.pearson", "characterize.recover",
    "characterize.system", "characterize.classify",
)


def import_program() -> SimpleNamespace:
    """Import (or import afresh) every qstruct layer from the checkout."""
    for name in [m for m in sys.modules if m == "qstruct" or m.startswith("qstruct.")]:
        del sys.modules[name]
    Q = SimpleNamespace(**{m: importlib.import_module(f"qstruct.{m}") for m in MODULES})
    if not os.path.abspath(Q.cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"qstruct imported from {Q.cli.__file__}, not from {SRC}")
    return Q


def setup(args, work: str, started: float, host: HostSpeed):
    """Import, generate the inputs, and run one untimed warm-up op. Returns
    the set-up time measured and scaled to the reference speed."""
    Q = import_program()
    ops = wl.build(Q, args.workload, args.seed, work, args.smoke)
    runner = wl.Runner(Q, args.workload, ROOT, SRC, work)
    warm = ops[-1]
    out = runner(warm)
    runner.collect(warm, out)
    elapsed = perf_counter() - started
    refs = [host.sample() for _ in range(SETUP_REF_SAMPLES)]
    return Q, ops, runner, elapsed, elapsed * host.scale(refs), wl.check(Q, warm, out)


def timed_op(runner, op):
    t0 = perf_counter()
    out = runner(op)
    elapsed = perf_counter() - t0
    runner.collect(op, out)
    return out, elapsed


def tail(latencies: list[float], p: float) -> tuple[float, str]:
    """The p-quantile, interpolated between the closest ranks, and a note
    giving the sample count and how many samples lie beyond it."""
    xs = sorted(latencies)
    h = (len(xs) - 1) * p
    lo = math.floor(h)
    value = xs[lo] + (h - lo) * (xs[min(lo + 1, len(xs) - 1)] - xs[lo])
    beyond = sum(x > value for x in xs)
    return value, f"p{100 * p:.0f} of {len(xs)} samples, {beyond} beyond it"


def untraced(args, Q, ops, runner, host):
    """Each op is followed, outside its timing, by one host-speed sample;
    op times are reported scaled to the reference speed (see hostspeed)."""
    latencies, problems = [], []
    first = len(host.samples)
    start = perf_counter()
    while perf_counter() - start < args.seconds:
        op = ops[len(latencies) % len(ops)]
        out, elapsed = timed_op(runner, op)
        latencies.append(elapsed)
        problems.append(wl.check(Q, op, out))
        host.sample()
    scaled = [t * s for t, s in zip(latencies, host.scales(first))]
    if args.workload == "cli":
        rss_kib = runner.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_s, tail_note = tail(scaled, TAIL[args.workload])
    metrics = {
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    info = {
        "ops": len(latencies),
        "op_tail_s": tail_note,
        "measured": {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail(latencies, TAIL[args.workload])[0],
        },
    }
    return metrics, problems, info


def traced(args, Q, ops, runner, work, host):
    """Per op: the untraced entry point, then the traced op (layer spans,
    then the entry point), then a host-speed sample. Probes follow the ops.
    Per-layer times are reported as measured, not scaled."""
    tr = layers.Tracer()
    counter = layers.ImageCounter(Q)
    entry = ENTRY_SPAN[args.workload]
    classify_sibling = entry != "characterize.classify"
    untraced_s, problems = [], []
    start = perf_counter()
    while perf_counter() - start < args.seconds:
        k = len(untraced_s)
        op = ops[k % len(ops)]
        out, elapsed = timed_op(runner, op)
        untraced_s.append(elapsed)
        tr.op = k
        before = counter.count
        with tr.span("op"):
            counts = layers.replay(Q, tr, counter, op, classify_sibling)
            with counter.active(), tr.span(entry):
                traced_out = runner(op)
        runner.collect(op, traced_out)
        counts["images"] = counter.count - before
        tr.counts.append({"op": k, "slot": op.idx, "counts": counts})
        problems.append(wl.check(Q, op, out) or wl.check(Q, op, traced_out))
        host.sample()

    per_op = [rec["counts"] for rec in tr.counts]
    attempts = sum(c["fit_attempts"] for c in per_op)
    metrics = {
        f"{name}_s": (statistics.median(tr.durations(name)), "s") for name in LAYER_SPANS
    }
    metrics.update({
        "op.entry_s": (statistics.median(tr.durations(entry)), "s"),
        "families.coeff_bits_max": (statistics.median(c["coeff_bits"] for c in per_op), "count"),
        "awops.images": (statistics.median(c["images"] for c in per_op), "count"),
        "structure.fit_attempts": (statistics.median(c["fit_attempts"] for c in per_op), "count"),
        "structure.fit_exact_ratio": (sum(c["fit_exact"] for c in per_op) / attempts, "ratio"),
        "structure.dq_needed_share": (statistics.median(c["dq_needed_share"] for c in per_op), "ratio"),
        "trace.overhead_ratio": (sum(tr.durations("op")) / sum(untraced_s), "ratio"),
    })
    probe, wrong_probe = layers.fixed_point_probe(Q, tr)
    cli, wrong_cli = layers.cli_probe(Q, tr, ROOT, runner.env, work)
    metrics.update(probe)
    metrics.update(cli)
    problems += ["fixed-point probe misclassified"] * wrong_probe
    problems += ["CLI probe output wrong"] * wrong_cli
    tr.finish()
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-seed{args.seed}.jsonl")
    tr.write(path)
    info = {"ops": len(untraced_s), "trace": os.path.relpath(path, ROOT), "layer_errors": tr.errors()}
    return metrics, problems, info


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest size of every workload")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qstruct", "__init__.py")):
        print(f"error: no qstruct sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".bench_out", f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    host = HostSpeed(args.workload)
    try:
        setups, scaled_setups, started = [], [], PROCESS_START
        for _ in range(SETUP_REPS):
            Q, ops, runner, elapsed, scaled, warm_problem = setup(args, work, started, host)
            setups.append(elapsed)
            scaled_setups.append(scaled)
            started = perf_counter()
        if args.trace:
            metrics, problems, info = traced(args, Q, ops, runner, work, host)
            metrics["failed_ratio"] = (sum(map(bool, problems)) / len(problems), "ratio")
        else:
            metrics, problems, info = untraced(args, Q, ops, runner, host)
            metrics["setup_s"] = (statistics.median(scaled_setups), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems.append(warm_problem)
    failed = [p for p in problems if p]
    info.update(workload=args.workload, seed=args.seed, inputs=wl.digest(ops),
                setup_reps=[round(s, 4) for s in setups],
                host_ref_ms=round(1000 * statistics.median(host.samples), 3),
                host_scale=round(host.scale(host.samples), 4))
    for key, value in info.items():
        print(f"# {key}: {value}")
    for reason in sorted(set(failed))[:10]:
        print(f"# failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(problems),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
