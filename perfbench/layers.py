"""Benchmark-side tracing: spans around calls into each layer of qstruct.

The package carries no instrumentation of its own. In a traced run every op
gets an `op` span; under it the benchmark times the public function of each
layer on that op's input as sibling spans, then the op's entry point as a
further child. Spans stay in memory and are written as JSON lines when the
run ends, each with its name, start, end, parent, op id and self time.

Two probes follow the ops in every traced run: the fixed-point probe
(continuous q-Jacobi p_a = 1/4, p_b = 1/16, t = 1/2 at N = 10, 16, 24, 32,
the inputs of the North-star baseline) and a CLI probe that times bare
interpreter start, the import, and one generate / classify / verify process.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction as F
from time import perf_counter

from workloads import coeff_bits, run_child

PROBE_SIZES = (10, 16, 24, 32)
CLI_PROBE_ROUNDS = 3


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[dict] = []  # each op's exact counts, written beside the spans
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def attempt(self, name: str, fn, *args):
        """Time fn(*args) in a span. fn None means the layer is not reached
        on this input (the span is then empty). A layer that refuses the
        input raises; that is recorded on the span, not propagated."""
        with self.span(name) as rec:
            if fn is None:
                return None
            try:
                return fn(*args)
            except Exception as exc:
                rec["error"] = type(exc).__name__
                return None

    def finish(self) -> None:
        """Self time: a span's duration minus the time its children cover
        (children of one span never overlap)."""
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        for s in self.spans:
            s["self"] = s["end"] - s["start"] - covered[s["id"]]

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def errors(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            if "error" in s:
                out[f"{s['name']}:{s['error']}"] += 1
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
            for rec in self.counts:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


class ImageCounter:
    """Counts calls of awops.dq_apply and awops.sq_apply while active, by
    swapping every qstruct module attribute bound to one of them for a
    counting wrapper, and restoring it afterwards."""

    def __init__(self, Q):
        self.targets = (Q.awops.dq_apply, Q.awops.sq_apply)
        self.count = 0

    def _wrap(self, fn):
        def counted(*args, **kwargs):
            self.count += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def active(self):
        swapped = []
        for name, mod in list(sys.modules.items()):
            if name == "qstruct" or name.startswith("qstruct."):
                for attr, val in vars(mod).items():
                    if any(val is t for t in self.targets):
                        swapped.append((mod, attr, val))
        for mod, attr, val in swapped:
            setattr(mod, attr, self._wrap(val))
        try:
            yield
        finally:
            for mod, attr, val in swapped:
                setattr(mod, attr, val)


def replay(Q, tr: Tracer, counter: ImageCounter, op, classify_sibling: bool) -> dict:
    """Time each layer's public function on the op's input, as the entry
    point would use it. Returns the op's exact counts."""
    fam, st, ch = Q.families, Q.structure, Q.characterize
    with tr.span("families.ttrr"):
        ctx, ttrr = fam.ttrr_from_json(op.doc)
    n = op.n
    order = min(n, ttrr.n_max - 2)  # the Pearson order classify and verify use
    with tr.span("families.ops"):
        table = fam.generate_ops(ttrr, min(n + 2, ttrr.n_max))
    tr.attempt("families.moments", fam.moments, ttrr, order + 2)
    polys = table.polys[: n + 1]
    chebs = tr.attempt("poly.to_cheb", lambda: [Q.poly.to_cheb(p) for p in polys])
    tr.attempt("poly.from_cheb", lambda: [Q.poly.from_cheb(c) for c in chebs])
    tr.attempt("awops.dq", lambda: [Q.awops.dq_apply(ctx, p) for p in polys])
    tr.attempt("awops.sq", lambda: [Q.awops.sq_apply(ctx, p) for p in polys])
    fits = [
        tr.attempt(f"structure.fit_deg{d}", st.fit_structure, ctx, table, d, n)
        for d in (0, 1, 2)
    ]
    deg = next((d for d, f in enumerate(fits) if f is not None and f.is_exact), None)
    tried = [f for f in (fits if deg is None else fits[: deg + 1]) if f is not None]
    fit = None if deg is None else fits[deg]

    aux = tr.attempt("characterize.aux", ch.aux_sequences if fit else None, ctx, ttrr, fit)

    def pearson():
        pd = ch.pearson_data(ctx, ttrr, fit)
        ch.pearson_check(ctx, ttrr, pd, order)
        return pd

    pd = tr.attempt("characterize.pearson", pearson if fit else None)

    def recover():
        for inverse in (False, True):
            try:
                if deg == 1:
                    return ch.recover_asc_params(ctx, ttrr, fit, inverse=inverse)
                return ch.recover_qjacobi_params(ctx, ttrr, fit, aux, pd, inverse=inverse)
            except (ch.ConstraintViolated, ch.IrrationalRoots):
                continue
        return None

    reachable = deg == 1 or (deg == 2 and aux is not None and pd is not None)
    tr.attempt("characterize.recover", recover if reachable else None)
    system = ch.verify_difference_system if aux else None
    tr.attempt("characterize.system", system, ctx, ttrr, fit, aux)
    tr.attempt("structure.verify", st.verify_structure if fit else None, ctx, table, fit)
    tr.attempt("structure.five_term", st.five_term if fit else None, ctx, table, fit)
    if classify_sibling:
        with counter.active():
            tr.attempt("characterize.classify", lambda: ch.classify(*fam.ttrr_from_json(op.doc), n))
    needed = max(
        ((f.failure_n if f.failure_n is not None else n) + 1 for f in tried), default=0
    )
    return {
        "coeff_bits": coeff_bits(c for p in table.polys for c in p.coeffs),
        "fit_attempts": len(tried),
        "fit_exact": int(fit is not None),
        "dq_needed_share": needed / (n + 1),
    }


def fixed_point_probe(Q, tr: Tracer) -> tuple[dict, int]:
    """Classify and D_q timings at the North-star baseline point. Returns
    the metrics and the number of wrong classifications (0 or more)."""
    fam = Q.families
    ctx = Q.scalar.QContext(F(1, 2))
    metrics, wrong = {}, 0
    tr.op = "probe"
    for n in PROBE_SIZES:
        ttrr = fam.ttrr_cq_jacobi(ctx, F(1, 4), F(1, 16), n_max=n)
        doc = fam.ttrr_to_json(ctx, ttrr, n)
        with tr.span(f"probe.classify_n{n}") as rec:
            result = Q.characterize.classify(*fam.ttrr_from_json(doc), n)
        metrics[f"characterize.classify_n{n}_s"] = (rec["end"] - rec["start"], "s")
        if result.family != "continuous-q-jacobi" or result.params != {"p_a": F(1, 4), "p_b": F(1, 16)}:
            wrong += 1
        table = fam.generate_ops(ttrr, n)
        with tr.span(f"probe.dq_n{n}") as rec:
            for p in table.polys:
                Q.awops.dq_apply(ctx, p)
        metrics[f"awops.dq_n{n}_s"] = (rec["end"] - rec["start"], "s")
        bits = coeff_bits(c for p in table.polys for c in p.coeffs)
        metrics[f"families.coeff_bits_n{n}"] = (bits, "count")
    return metrics, wrong


def cli_probe(Q, tr: Tracer, root: str, env: dict, work: str) -> tuple[dict, int]:
    """Whole-process CLI timings at N = 10 (one child at a time). Returns the
    metrics and the number of wrong outputs."""
    fam = Q.families
    ctx = Q.scalar.QContext(F(1, 2))
    doc = fam.ttrr_to_json(ctx, fam.ttrr_cq_jacobi(ctx, F(1, 4), F(1, 16), n_max=12), 12)
    src_path = os.path.join(work, "probe-in.json")
    out_path = os.path.join(work, "probe-out.json")
    err_path = os.path.join(work, "probe-err.txt")
    with open(src_path, "w") as fh:
        json.dump(doc, fh)
    py = [sys.executable]
    cli = py + ["-m", "qstruct.cli"]
    steps = {  # argv, and the check on the JSON report (None: no report)
        "interp": (py + ["-c", "pass"], None),
        "import": (py + ["-c", "import qstruct.cli"], None),
        "generate": (
            cli + ["generate", "--family", "continuous-q-jacobi", "--p-a", "1/4",
                   "--p-b", "1/16", "--q-quarter", "1/2", "-N", "12", "--out", out_path],
            lambda report: report == doc,
        ),
        "classify": (
            cli + ["classify", src_path, "-N", "10", "--out", out_path],
            lambda report: report["family"] == "continuous-q-jacobi",
        ),
        "verify": (
            cli + ["verify", src_path, "-N", "10", "--out", out_path],
            lambda report: report["ok"] is True,
        ),
    }
    times: dict[str, list[float]] = defaultdict(list)
    wrong, out_bytes = 0, []
    tr.op = "cli-probe"
    for _ in range(CLI_PROBE_ROUNDS):
        written = 0
        for step, (argv, ok) in steps.items():
            with tr.span(f"cli.{step}") as rec:
                code, _ = run_child(argv, root, env, err_path)
            times[step].append(rec["end"] - rec["start"])
            if ok is None:
                wrong += code != 0
                continue
            try:
                with open(out_path, "rb") as fh:
                    text = fh.read()
                os.remove(out_path)
                written += len(text)
                wrong += not (code == 0 and ok(json.loads(text)))
            except (OSError, ValueError, KeyError, TypeError):  # no or malformed report
                wrong += 1
        out_bytes.append(written)
    med = {k: statistics.median(v) for k, v in times.items()}
    metrics = {f"cli.{k}_s": (v, "s") for k, v in med.items() if k != "import"}
    metrics["cli.import_s"] = (med["import"] - med["interp"], "s")
    metrics["cli.out_bytes"] = (statistics.median(out_bytes), "bytes")
    return metrics, wrong
