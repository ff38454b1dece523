"""relq benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload dense-kernels --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics (see bench/README.md).  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
A full record, with run metadata, goes to ``.bench_work/results/``.
"""

import os

# single-threaded numerics for the bench and every child it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
TRACE_REFERENCE_SHARE = 0.25  # of a traced run spent on the untraced reference pass

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.solve.ms": "ms",
    "cli.optimize.ms": "ms",
    "cli.learn.ms": "ms",
    "cli.compose.ms": "ms",
    "cli.demo.ms": "ms",
    "grades.scalar_calls": "count",
    "relations.compose.ms": "ms",
    "relations.compose.maxmin.ms": "ms",
    "relations.compose.maxproduct.ms": "ms",
    "relations.compose.supt.ms": "ms",
    "relations.compose.infimpl.ms": "ms",
    "relations.compose.mcell_per_s": "Mcell/s",
    "relations.compose.peak_mb": "MB",
    "relations.compose.calls": "count",
    "relations.compose.us_per_call": "us",
    "solve.max_solution.ms": "ms",
    "solve.binding_sets.ms": "ms",
    "solve.gavalec_certificate.ms": "ms",
    "solve.gavalec_certificate.cell_touches": "count",
    "solve.greatest_solution_relation.ms": "ms",
    "solve.solve.pattern.ms": "ms",
    "solve.solve.lambda.ms": "ms",
    "solve.solve.archimedean.ms": "ms",
    "solve.solve.minimals": "count",
    "solve.solve.capped": "count",
    "optimize.optimize_linear.ms": "ms",
    "optimize.optimize_nonlinear_ga.ms": "ms",
    "optimize.optimize_multiobjective.ms": "ms",
    "optimize.ga.fitness_evals": "count",
    "optimize.ga.gap": "cost",
    "optimize.pareto.archive_size": "count",
    "learn.delta_rule_K.ms": "ms",
    "learn.delta_rule_B.ms": "ms",
    "neutro.neutro_compose.ms": "ms",
    "products.triangle_product_subjects.ms": "ms",
    "trace.overhead_frac": "ratio",
}
# span names the ".ms" layer metrics sum (a name covers its sub-labels)
SPAN_MS = {k[:-3]: k for k in PER_LAYER
           if k.endswith(".ms") and not k.startswith("cli.")}
# counts read from the outputs of these calls
SPAN_OF = {"optimize.ga": "optimize.optimize_nonlinear_ga",
           "optimize.pareto": "optimize.optimize_multiobjective"}
CLI_COMMANDS = ("solve", "optimize", "learn", "compose", "demo")


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def timed_setup(workload, seed, work):
    """Median of SETUP_REPEATS fresh set-ups, each in its own interpreter:
    import relq, generate the inputs and write them (timed by the child)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(work)],
            capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def judge(op, out, err):
    """(status, counts, message): ok, capped (CapExceeded), error or mismatch."""
    if err is not None:
        status = "capped" if type(err).__name__ == "CapExceeded" else "error"
        return status, {}, f"{type(err).__name__}: {err}"
    try:
        return "ok", op.check(out) or {}, ""
    except Exception as exc:  # a malformed output fails its check, never the run
        return "mismatch", {}, f"{op.name}: {type(exc).__name__}: {exc}"


def run_ops(ops, seconds, tracer=None):
    """Run ops in cycle order, at least one, until their summed latency
    reaches ``seconds``.  Latency covers the op only; checks are off the clock."""
    recs, busy, i = [], 0.0, 0
    while not recs or busy < seconds:
        op = ops[i % len(ops)]
        if tracer:
            tracer.begin_op(i, op.name)
        err = out = None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # recorded as a failed op; the loop goes on
            err = exc
        finally:
            lat = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
        busy += lat
        status, counts, msg = judge(op, out, err)
        recs.append({"op": i, "name": op.name, "lat": lat, "status": status,
                     "counts": counts, "msg": msg})
        i += 1
    return recs


def summed(recs, key):
    return sum(r["counts"].get(key, 0) for r in recs)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(wl, recs, setup_s):
    lat = np.array([r["lat"] for r in recs])
    ok = sum(r["status"] == "ok" for r in recs)
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(r["counts"].get("child_rss_kb", 0) for r in recs)
    return {
        "ops_per_s": ok / lat.sum(),
        "op_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(lat, 90)),
        "ok_frac": ok / len(recs),
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(wl, tracer, recs, reference, extra):
    """Per-layer metrics of a traced run, and the reasons for any left at 0.

    Times are per op over the traced ops.  Counts that must repeat exactly
    use the first ``wl.exact_ops`` traced ops, whose inputs a seed fixes."""
    n = len(recs)
    ex = recs[:min(wl.exact_ops, n)]
    totals = tracer.totals()

    def span_sum(prefix, field):
        return sum(v[field] for k, v in totals.items()
                   if k == prefix or k.startswith(prefix + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    m = dict.fromkeys(PER_LAYER, 0.0)
    for prefix, key in SPAN_MS.items():
        m[key] = 1e3 * span_sum(prefix, 1) / n
    compose_s = span_sum("relations.compose", 1)
    compose_calls = span_sum("relations.compose", 0)
    m["relations.compose.mcell_per_s"] = ratio(span_sum("relations.compose", 3), compose_s) / 1e6
    m["relations.compose.us_per_call"] = 1e6 * ratio(compose_s, compose_calls)
    m["relations.compose.calls"] = ratio(tracer.calls_before("relations.compose.", len(ex)),
                                         len(ex))
    m["grades.scalar_calls"] = ratio(sum(tracer.op_scalar_calls[r["op"]] for r in ex), len(ex))
    m["solve.gavalec_certificate.cell_touches"] = ratio(summed(ex, "cell_touches"),
                                                        summed(ex, "certificates"))
    m["solve.solve.minimals"] = ratio(summed(ex, "minimals"), summed(ex, "solve_calls"))
    m["solve.solve.capped"] = ratio(sum(r["status"] == "capped" for r in recs), n)
    m["optimize.ga.fitness_evals"] = ratio(summed(ex, "fitness_evals"), summed(ex, "ga_calls"))
    gaps = [r["counts"]["ga_gap"] for r in ex if "ga_gap" in r["counts"]]
    m["optimize.ga.gap"] = float(np.mean(gaps)) if gaps else 0.0
    m["optimize.pareto.archive_size"] = ratio(summed(ex, "archive_size"),
                                              summed(ex, "multi_calls"))
    k = min(len(reference), n)
    m["trace.overhead_frac"] = ratio(sum(r["lat"] for r in recs[:k]),
                                     sum(r["lat"] for r in reference[:k])) - 1.0
    m.update(extra)
    for cmd in CLI_COMMANDS:
        lat = [r["lat"] for r in recs if r["name"] == f"cli.{cmd}"]
        if lat:
            m[f"cli.{cmd}.ms"] = 1e3 * float(np.median(lat))
    unmeasured = {}
    for key, value in m.items():
        # a zero is a measurement when the layer it comes from ran
        source = key[:-3] if key.endswith(".ms") else key.rsplit(".", 1)[0]
        if value == 0.0 and span_sum(SPAN_OF.get(source, source), 0) == 0:
            if key.startswith("cli."):
                unmeasured[key] = ("no such command ran in the traced ops" if not wl.in_process
                                   else "CLI processes run only in cli-casestudy")
            elif not wl.in_process:
                unmeasured[key] = "runs inside CLI child processes, which are timed only whole"
            else:
                unmeasured[key] = "not exercised by this workload"
    return m, unmeasured, {k: {"calls": v[0], "incl_ms": 1e3 * v[1], "self_ms": 1e3 * v[2]}
                           for k, v in sorted(totals.items())}


def compose_peak_mb(tracer):
    """tracemalloc peak of the largest composition the traced ops made."""
    work, call = tracer.largest_compose
    if not work:
        return {}
    args, kwargs = call
    compose = workloads.import_relq()["relations"].compose
    tracemalloc.start()
    try:
        compose(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"relations.compose.peak_mb": peak / 2 ** 20}


# ---------------------------------------------------------------------------
# metadata and output
# ---------------------------------------------------------------------------

def metadata(args, digest):
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    loc = sum(1 for f in sorted((ROOT / "src" / "relq").glob("*.py"))
              for line in f.read_text(encoding="utf-8").splitlines() if line.strip())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cap": workloads.ENUM_CAP, "git_sha": sha,
        "src_relq_loc": loc, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(), "input_digest": digest,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "relq" / "__init__.py").is_file():
        print(f"error: no relq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        setup_s = timed_setup(args.workload, args.seed, work)
        digest = inputs.digest(work)
        wl = workloads.WORKLOADS[args.workload](work, args.seed)
        warm = []
        if wl.in_process:  # let first-call costs pass before timing
            warm = run_ops(wl.ops, 0.0)
        if not args.trace:
            recs = run_ops(wl.ops, args.seconds)
            everything = warm + recs
            metrics, unmeasured, layers = end_to_end(wl, recs, setup_s), {}, {}
        else:
            reference = run_ops(wl.ops, TRACE_REFERENCE_SHARE * args.seconds)
            extra = {} if wl.in_process else wl.probe()
            tracer = Tracer()
            if wl.in_process:
                tracer.install()
            try:
                recs = run_ops(wl.ops, (1 - TRACE_REFERENCE_SHARE) * args.seconds, tracer)
            finally:
                tracer.uninstall()
            extra.update(compose_peak_mb(tracer))
            everything = warm + reference + recs
            metrics, unmeasured, layers = per_layer(wl, tracer, recs, reference, extra)
            tracer.write(WORK / f"spans-{args.workload}-s{args.seed}.tsv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in everything if r["status"] != "ok"]
    correct = all(r["status"] in ("ok", "capped") for r in everything)
    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "meta": metadata(args, digest),
        "correct": correct,
        "attempted": len(everything),
        "failed": len(failed),
        "fail_frac": len(failed) / len(everything),
        "failures": [f"op {r['op']} {r['status']}: {r['msg']}" for r in failed[:20]],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "unmeasured": unmeasured,
        "layers": layers,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("meta " + json.dumps(record["meta"]))
    print(f"ops {len(everything)} attempted, {len(failed)} failed "
          f"(fail_frac {record['fail_frac']:.4f})")
    for line in record["failures"][:5]:
        print("  " + line)
    for k in units:
        print(f"  {k:42s} {metrics[k]:14.6g} {units[k]}")
    for k, why in unmeasured.items():
        print(f"  not measured: {k}: {why}")
    print(json.dumps({"correct": correct, "attempted": len(everything),
                      "failed": len(failed), "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
