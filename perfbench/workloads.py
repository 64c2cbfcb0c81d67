"""Seeded inputs, ops and per-op oracles for the four benchmark workloads.

Every workload is a fixed cyclic list of *slots* (family, base, horizon,
context, op kind). The slot structure is the same for every seed, so any
window of consecutive ops has the same mix of sizes and families on every
run; the seed draws the instance inside each slot (family parameters,
perturbation index and amount, random coefficients, fresh contexts), so it
cannot change the mix of sizes and families that a run of tens of ops holds.

The program under test only ever receives the generated TTRR JSON documents
(and, for the `cli` workload, the `generate` arguments).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import gcd
from random import Random

FAMILIES = ("q-hermite", "alsalam-chihara", "chebyshev-t", "continuous-q-jacobi")
BASES = ("q", "q-inverse")
COMBOS = tuple((fam, base) for fam in FAMILIES for base in BASES)
NOT_CHARACTERIZED = "not-characterized"

# The three contexts `roundtrip`, `verify` and `cli` share, so that anything
# keyed on the context repeats there.
SHARED_CONTEXTS = (F(1, 2), F(1, 3), F(2, 3))
# Al-Salam-Chihara points satisfy c/d = q**(+-1/2); d = t**k with k drawn
# from ASC_POWERS, so their coefficient heights follow the slot's context.
ASC_POWERS = (0, 1, 2, 3)
# Continuous q-Jacobi p_a = q**(a/2) and p_b = q**(b/2) are drawn from these
# small rationals. Powers of t would make every inverse-base point irregular.
# The two sets are disjoint, so p_a != p_b, and every point is asymmetric
# (B_n != 0). Symmetric points cost about half as much, so mixing them in
# would let the seed move the cost of a window. Staying inside (0, 1) keeps
# every point away from Chebyshev-T (p_a = p_b = q**(-1/4)).
JACOBI_PA = (F(1, 3), F(1, 5))
JACOBI_PB = (F(2, 5), F(3, 5), F(2, 3))


def fr(x: F) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def spread_order(lo: int, hi: int) -> list[int]:
    """lo..hi in the bit-reversed order of their offsets from lo (10, 18, 14,
    22, 12, 20, ... for 10..24): every prefix covers the range evenly, its
    top included, so the mix of a run's ops hardly depends on how many ops
    the run completes."""
    width = (hi - lo).bit_length()
    return sorted(range(lo, hi + 1), key=lambda n: int(f"{n - lo:0{width}b}"[::-1], 2))


def coeff_bits(values) -> int:
    return max(
        (max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


@dataclass
class Op:
    """One closed-loop operation and what its oracle expects."""

    idx: int
    doc: dict  # TTRR JSON document the program receives
    n: int  # classify / verify horizon
    family: str  # generating family, or "random"
    base: str
    perturbed: bool = False
    kind: str = "classify"  # cli: generate | classify | verify
    argv: list = field(default_factory=list)  # cli.main / CLI arguments
    out_path: str = ""


@dataclass
class Outcome:
    """What one op produced: an exception, a Classification, or a CLI exit
    code together with the JSON report the command wrote."""

    error: str = ""
    result: object = None
    code: int | None = None
    report: dict | None = None


# ---------------------------------------------------------------- drawing


def family_ttrr(Q, rng: Random, fam: str, base: str, t: F, n_max: int):
    """A regular family point. Redrawing happens only when the generator
    raises IrregularParameters (input validation, never on a result)."""
    ctx = Q.scalar.QContext(t)
    for _ in range(100):
        if fam == "alsalam-chihara":
            d = t ** rng.choice(ASC_POWERS)
            c = d * t**2 if rng.random() < 0.5 else d / t**2
            params = (("c", c), ("d", d))
        elif fam == "continuous-q-jacobi":
            params = (("p_a", rng.choice(JACOBI_PA)), ("p_b", rng.choice(JACOBI_PB)))
        else:
            params = ()
        spec = Q.families.FamilySpec(fam, params, base)
        try:
            return ctx, spec, spec.to_ttrr(ctx, n_max=n_max)
        except Q.families.IrregularParameters:
            continue
    raise RuntimeError(f"no regular {fam} point at t = {t}")


def family_doc(Q, rng, fam, base, t, n_max) -> dict:
    ctx, _, ttrr = family_ttrr(Q, rng, fam, base, t, n_max)
    return Q.families.ttrr_to_json(ctx, ttrr, n_max)


def perturbed_doc(Q, rng, fam, base, t, n_max) -> dict:
    """A family recurrence with one B_k or C_k, k in 2..n_max, moved by +-j/1000."""
    doc = family_doc(Q, rng, fam, base, t, n_max)
    k = rng.randint(2, n_max)
    while True:
        delta = F(rng.choice((-1, 1)) * rng.randint(1, 9), 1000)
        if rng.random() < 0.5:
            doc["B"][k] = fr(F(doc["B"][k]) + delta)
            return doc
        new_c = F(doc["C"][k - 1]) + delta
        if new_c != 0:  # keep the recurrence regular
            doc["C"][k - 1] = fr(new_c)
            return doc


def random_doc(rng: Random, t: F, n_max: int) -> dict:
    """A random regular TTRR with small-height coefficients and C_n > 0."""
    return {
        "q_quarter": fr(t),
        "B": [fr(F(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(n_max + 1)],
        "C": [fr(F(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(n_max)],
    }


def fresh_contexts(rng: Random, count: int) -> list[F]:
    """`count` distinct contexts a/b (b <= 29). The candidates, sorted by
    height, are cut into strata of eight; slot i takes a context from
    stratum spread_order[i % strata], and the seed only picks which one of
    the eight. Every window of slots then holds the same spread of heights."""
    cands = sorted(
        (F(a, b) for b in range(3, 30) for a in range(1, b) if gcd(a, b) == 1),
        key=lambda x: (x.numerator.bit_length() + x.denominator.bit_length(), x),
    )
    strata = count // 8
    size = len(cands) // strata
    if size < 8:
        raise ValueError("not enough distinct contexts")
    pools = [cands[s * size : (s + 1) * size] for s in range(strata)]
    for pool in pools:
        rng.shuffle(pool)
    order = spread_order(0, strata - 1)
    return [pools[order[i % strata]].pop() for i in range(count)]


# --------------------------------------------------------------- workloads


def write_doc(work: str, name: str, doc: dict) -> str:
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def build_roundtrip(Q, rng: Random, sizes: list[int]) -> list[Op]:
    ops = []
    for i in range(240):
        fam, base = COMBOS[i % len(COMBOS)]
        t = SHARED_CONTEXTS[(i // len(COMBOS)) % len(SHARED_CONTEXTS)]
        n = sizes[i % len(sizes)]
        ops.append(Op(i, family_doc(Q, rng, fam, base, t, n), n, fam, base))
    return ops


def build_reject(Q, rng: Random, sizes: list[int]) -> list[Op]:
    count = 240
    contexts = fresh_contexts(rng, count)
    ops = []
    for i in range(count):
        n, t = sizes[i % len(sizes)], contexts[i]
        if i % 2:
            ops.append(Op(i, random_doc(rng, t, n), n, "random", "", perturbed=True))
        else:
            fam, base = COMBOS[(i // 2) % len(COMBOS)]
            doc = perturbed_doc(Q, rng, fam, base, t, n)
            ops.append(Op(i, doc, n, fam, base, perturbed=True))
    return ops


def build_verify(Q, rng: Random, work: str, smoke: bool) -> list[Op]:
    ops = []
    for i in range(24):
        fam, base = COMBOS[i % len(COMBOS)]
        block = i // len(COMBOS)
        t = SHARED_CONTEXTS[block % len(SHARED_CONTEXTS)]
        # each combo takes its family's three horizons over the three contexts
        n = SIZES["verify"][0] if smoke else VERIFY_N[fam] + (block + i % len(COMBOS)) % 3
        doc = family_doc(Q, rng, fam, base, t, n + 2)  # verify needs N + 2
        path = write_doc(work, f"verify-in-{i}.json", doc)
        op = Op(i, doc, n, fam, base, kind="verify")
        op.out_path = os.path.join(work, "verify-out.json")
        op.argv = ["verify", path, "-N", str(n), "--checks", "all", "--out", op.out_path]
        ops.append(op)
    return ops


def build_cli(Q, rng: Random, sizes: list[int], work: str) -> list[Op]:
    ops = []
    for i in range(144):
        kind = ("generate", "classify", "verify")[i % 3]
        fam, base = COMBOS[(i // 3) % len(COMBOS)]
        t = SHARED_CONTEXTS[(i // 24) % len(SHARED_CONTEXTS)]
        n = sizes[(i // 3) % len(sizes)]
        out = os.path.join(work, "cli-out.json")
        if kind == "generate":
            ctx, spec, ttrr = family_ttrr(Q, rng, fam, base, t, n)
            op = Op(i, Q.families.ttrr_to_json(ctx, ttrr, n), n, fam, base, kind=kind)
            op.argv = ["generate", "--family", fam, "--base", base, "--q-quarter", fr(t), "-N", str(n)]
            for key, value in spec.params:
                op.argv += ["--" + key.replace("_", "-"), fr(value)]
        else:
            perturbed = kind == "classify" and (i // 3) % 5 == 4
            n_max = n + 2 if kind == "verify" else n
            make = perturbed_doc if perturbed else family_doc
            op = Op(i, make(Q, rng, fam, base, t, n_max), n, fam, base, perturbed, kind)
            op.argv = [kind, write_doc(work, f"cli-in-{i}.json", op.doc), "-N", str(n)]
        op.out_path = out
        op.argv += ["--out", out]
        ops.append(op)
    return ops


SIZES = {
    "roundtrip": (10, 24),
    "reject": (16, 24),
    "verify": (24, 32),
    "cli": (10, 12),
}
# Lowest of the three `verify` horizons of each family. The costlier the
# family, the lower its horizons, so that every verify op costs within a
# factor of about two of the others: the median of the 16-20 ops a run holds
# then hardly depends on which slots it covers.
VERIFY_N = {"q-hermite": 30, "chebyshev-t": 28, "alsalam-chihara": 25, "continuous-q-jacobi": 24}


def build(Q, workload: str, seed: int, work: str, smoke: bool) -> list[Op]:
    lo, hi = SIZES[workload]
    sizes = [lo] if smoke else spread_order(lo, hi)
    rng = Random(f"{workload}:{seed}")
    if workload == "roundtrip":
        return build_roundtrip(Q, rng, sizes)
    if workload == "reject":
        return build_reject(Q, rng, sizes)
    if workload == "verify":
        return build_verify(Q, rng, work, smoke)
    return build_cli(Q, rng, sizes, work)


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.kind, op.n, op.argv[:1], op.doc], sort_keys=True).encode())
    return h.hexdigest()[:16]


# --------------------------------------------------------------- running


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def run_child(argv: list[str], cwd: str, env: dict, err_path: str) -> tuple[int, int]:
    """Run one child to completion; returns (exit code, peak RSS in KiB)."""
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class Runner:
    """Executes ops of one workload against one import of the program."""

    def __init__(self, Q, workload: str, root: str, src: str, work: str):
        self.Q, self.workload, self.root = Q, workload, root
        self.env = child_env(src)
        self.err_path = os.path.join(work, "child-stderr.txt")
        self.child_rss_kib = 0

    def __call__(self, op: Op) -> Outcome:
        try:
            if self.workload in ("roundtrip", "reject"):
                ctx, ttrr = self.Q.families.ttrr_from_json(op.doc)
                return Outcome(result=self.Q.characterize.classify(ctx, ttrr, op.n))
            if self.workload == "verify":
                with contextlib.redirect_stderr(io.StringIO()):
                    return Outcome(code=self.Q.cli.main(op.argv))
            argv = [sys.executable, "-m", "qstruct.cli"] + op.argv
            code, rss = run_child(argv, self.root, self.env, self.err_path)
            self.child_rss_kib = max(self.child_rss_kib, rss)
            return Outcome(code=code)
        except Exception as exc:  # an op that raises counts as failed
            return Outcome(error=f"{type(exc).__name__}: {exc}")

    def collect(self, op: Op, out: Outcome) -> None:
        """Outside the timed region: take the op's JSON report and remove the
        file, so a command that writes nothing cannot pass on a stale one."""
        if op.out_path and os.path.exists(op.out_path):
            with open(op.out_path) as fh:
                out.report = json.load(fh)
            os.remove(op.out_path)


# ---------------------------------------------------------------- oracles


def regenerates(Q, doc: dict, n: int, family: str, params: dict, base: str) -> bool:
    """Regenerating (family, params, base) reproduces the input up to n."""
    try:
        ctx, given = Q.families.ttrr_from_json(doc)
        spec = Q.families.FamilySpec(family, tuple(sorted(params.items())), base)
        regen = spec.to_ttrr(ctx, n_max=n)
    except (ValueError, KeyError):
        return False
    return Q.families.ttrr_equal(given, regen, n) is None


def _classification_ok(Q, op: Op, family, params, base) -> bool:
    if op.perturbed:
        return family == NOT_CHARACTERIZED or regenerates(Q, op.doc, op.n, family, params, base)
    return family == op.family and regenerates(Q, op.doc, op.n, family, params, base)


def check(Q, op: Op, out: Outcome) -> str:
    """Empty string when the op's output is correct, else the reason."""
    if out.error:
        return out.error
    if out.result is not None:  # a Classification
        r = out.result
        if _classification_ok(Q, op, r.family, r.params, r.base):
            return ""
        return f"classified as {r.family} {r.base} {r.params}"
    if op.kind == "verify":
        ok = out.code == 0 and isinstance(out.report, dict) and out.report.get("ok") is True
        return "" if ok else f"verify exit {out.code}"
    if op.kind == "generate":
        if out.code == 0 and out.report == op.doc:
            return ""
        return f"generate exit {out.code} or wrong document"
    # cli classify: exit code and the family in the JSON report
    want = 3 if op.perturbed else 0
    if out.code != want or out.report is None:
        return f"classify exit {out.code}, want {want}"
    rep = out.report
    try:
        params = {k: F(v) for k, v in rep["params"].items()}
        family, base = rep["family"], rep["base"]
    except (AttributeError, KeyError, TypeError, ValueError):
        return "malformed classify report"
    if _classification_ok(Q, op, family, params, base):
        return ""
    return f"classified as {family}"
