"""The three benchmark workloads: their operations and output checks.

A workload loads the inputs written by ``inputs.py`` and exposes ``ops``, a
fixed cycle of ``Op``.  ``Op.run`` does the timed work; ``Op.check`` judges
its output against ``reference`` (never against relq) and returns counts to
record, or raises ``Mismatch``.  In-process ops call relq through module
attributes looked up at call time, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One cap for every enumeration call: the slowest method (lambda) spends
# about 30 µs per binding combination here, so no enumeration takes more
# than about half a second.  lambda runs only on the instances whose
# combination count, from the reference, is within the cap: a few percent
# of the tie-heavy instances have far more (up to 10^9), and on those it
# could only raise CapExceeded.
ENUM_CAP = 10_000
GA_POPULATION, GA_GENERATIONS = 20, 30
CHILD_TIMEOUT_S = 60
LEARN_ETA, LEARN_TOL = 0.1, 1e-6


class Mismatch(AssertionError):
    """An op's output disagrees with the reference."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def close(a, b, what, atol=1e-9):
    a, b = np.asarray(a, float), np.asarray(b, float)
    expect(a.shape == b.shape and np.allclose(a, b, rtol=0.0, atol=atol), what)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]


def import_relq():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {m: importlib.import_module(f"relq.{m}")
            for m in ("grades", "relations", "solve", "optimize", "learn",
                      "neutro", "products", "datasets")}


# ---------------------------------------------------------------------------
# cli-casestudy: one `python -m relq.cli` child at a time
# ---------------------------------------------------------------------------

def run_child(argv, cwd):
    """Run a child to completion; return (exit code, stdout, stderr, peak RSS in KB).

    The child is reaped with wait4 to read its own peak RSS (its return code
    is then set on the Popen so it does not wait again).  Its outputs are
    small, so reading stdout then stderr cannot fill a pipe and block.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    p = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    watchdog.start()
    try:
        out = p.stdout.read()
        err = p.stderr.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        watchdog.cancel()
        p.stdout.close()
        p.stderr.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out.decode(), err.decode(), usage.ru_maxrss


class CliCasestudy:
    in_process = False
    exact_ops = 0

    def __init__(self, work, seed):
        self.work = Path(work)
        datasets = import_relq()["datasets"]
        load = lambda name: json.loads((self.work / name).read_text())  # noqa: E731
        ops = []
        for method, fname in (("lambda", "solve-mm.json"), ("pattern", "solve-mm.json"),
                              ("archimedean", "solve-mp.json"),
                              ("lambda", "solve-infeasible.json")):
            ops.append(self._op("solve", ["solve", fname, "--method", method],
                                self._solve_check(load(fname))))
        ops.append(self._op("optimize", ["optimize", "optimize.json"],
                            self._optimize_check(load("optimize.json"))))
        training = load("learn.json")
        for rule in ("K", "B", "basic"):
            ops.append(self._op("learn", ["learn", "learn.json", "--rule", rule,
                                          "--eta", str(LEARN_ETA), "--tol", str(LEARN_TOL)],
                                self._learn_check(training, rule)))
        for prefix, comp in (("mm", "max-min"), ("mp", "max-product")):
            P = np.loadtxt(self.work / f"{prefix}-left.csv", delimiter=",", ndmin=2)
            Q = np.loadtxt(self.work / f"{prefix}-right.csv", delimiter=",", ndmin=2)
            ops.append(self._op("compose", ["compose", f"{prefix}-left.csv",
                                            f"{prefix}-right.csv", "--comp", comp],
                                self._compose_check(ref.COMPOSE[comp](P, Q))))
        sides = [self._read_neutro(self.work / f"neutro-{s}.csv") for s in ("left", "right")]
        ops.append(self._op("compose", ["compose", "neutro-left.csv", "neutro-right.csv",
                                        "--mode", "graded"],
                            self._neutro_check(ref.neutro_compose("graded", *sides[0],
                                                                  *sides[1]))))
        for name in datasets.DEMO_NAMES:
            ops.append(self._op("demo", ["demo", name], self._demo_check(name)))
        self.ops = ops

    def _op(self, cmd, args, check):
        argv = ["-m", "relq.cli", *args, "--format", "json"]
        return Op(f"cli.{cmd}", lambda: run_child(argv, self.work), check)

    @staticmethod
    def _read_neutro(path):
        rows = [line.split(",") for line in path.read_text().splitlines()
                if line and not line.startswith("#")]
        indet = np.array([[tok.endswith("I") for tok in row] for row in rows])
        coeff = np.array([[float(tok.rstrip("I") or 1.0) for tok in row] for row in rows])
        return indet, coeff

    @staticmethod
    def _completed(out, code):
        rc, stdout, stderr, rss = out
        expect(rc == code, f"exit code {rc}, expected {code}: {stderr.strip()[-200:]}")
        return stdout, {"child_rss_kb": rss}

    def _solve_check(self, prob):
        A, b, comp = np.array(prob["A"]), np.array(prob["b"]), prob["composition"]
        minimals = ref.minimal_solutions(comp, A, b)

        def check(out):
            stdout, counts = self._completed(out, 2 if minimals is None else 0)
            data = json.loads(stdout)
            expect(data["feasible"] == (minimals is not None), "feasibility flag")
            if minimals is not None:
                close(data["x_hat"], ref.greatest(comp, A, b), "x_hat")
                expect(ref.canon(data["minimals"]) == ref.canon(minimals),
                       "minimal solution set")
            return counts
        return check

    def _optimize_check(self, prob):
        A, b, comp, c = (np.array(prob["A"]), np.array(prob["b"]), prob["composition"],
                         np.array(prob["c"]))
        z = ref.linear_optimum(c, ref.minimal_solutions(comp, A, b), ref.greatest(comp, A, b))

        def check(out):
            stdout, counts = self._completed(out, 0)
            data = json.loads(stdout)
            expect(ref.is_solution(comp, np.array(data["x_star"]), A, b), "x_star solves")
            close(data["Z"], z, "optimal cost")
            return counts
        return check

    def _learn_check(self, training, rule):
        X, Y = np.array(training["inputs"]), np.array(training["targets"])
        W_hat = ref.learned_greatest("max-min", X, Y)

        def check(out):
            stdout, counts = self._completed(out, 0)
            data = json.loads(stdout)
            W = np.array(data["W"])
            expect(data["converged"], "converged")
            if rule == "basic":
                # the online rule stops lowering a weight once its output is
                # within tol of the target, and may undershoot the targets by
                # at most one eta-scaled step
                out_ = ref.maxmin(X, W)
                expect(np.all(W <= W_hat + LEARN_TOL), "W below the greatest solution")
                expect(np.all(out_ <= Y + LEARN_TOL), "X∘W never exceeds Y")
                expect(np.all(Y - out_ <= LEARN_ETA + 1e-9), "undershoot within eta")
            else:
                close(W, W_hat, "greatest W")
            return counts
        return check

    def _compose_check(self, expected):
        def check(out):
            stdout, counts = self._completed(out, 0)
            close(json.loads(stdout)["cells"], expected, "composition")
            return counts
        return check

    def _neutro_check(self, expected):
        kind, coeff = expected

        def check(out):
            stdout, counts = self._completed(out, 0)
            cells = json.loads(stdout)["cells"]
            expect(np.array_equal([[isinstance(v, dict) for v in row] for row in cells], kind),
                   "neutrosophic kinds")
            close([[v["I"] if isinstance(v, dict) else v for v in row] for row in cells],
                  coeff, "neutrosophic coefficients")
            return counts
        return check

    def _demo_check(self, name):
        def check(out):
            stdout, counts = self._completed(out, 0)
            expect(stdout.strip(), f"demo {name} printed nothing")
            docs = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
            if name == "compat-graph":  # documented as reflexive and symmetric
                G = np.array(docs[0]["cells"])
                expect(np.all(np.diag(G) == 1.0) and np.array_equal(G, G.T),
                       "compatibility graph reflexive and symmetric")
            return counts
        return check

    def probe(self):
        """Floors a CLI op cannot go below: interpreter start, and import relq."""
        timings = {}
        for key, argv in (("cli.interp_ms", ["-c", "pass"]),
                          ("cli.import_ms", ["-c", "import relq"])):
            samples = []
            for _ in range(5):
                t0 = time.perf_counter()
                rc, _, err, _ = run_child(argv, self.work)
                samples.append(1e3 * (time.perf_counter() - t0))
                if rc != 0:
                    raise RuntimeError(f"{argv} failed: {err.strip()}")
            timings[key] = float(np.median(samples))
        return timings


# ---------------------------------------------------------------------------
# dense-kernels: one op = the fixed task below on one instance set
# ---------------------------------------------------------------------------

class DenseKernels:
    in_process = True
    exact_ops = inputs.DENSE_SETS

    def __init__(self, work, seed):
        self.m = import_relq()
        G, R, S, L, N = (self.m[k] for k in ("grades", "relations", "solve", "learn", "neutro"))
        # Hamacher product from its generator, with no closed-form inverse,
        # so relq evaluates it by scalar bisection
        self.hamacher = G.GeneratorTNorm(lambda x: (1.0 - x) / x, name="hamacher")
        self.sets, self.expected = [], []
        for k in range(inputs.DENSE_SETS):
            with np.load(Path(work) / f"dense-{k}.npz") as z:
                d = {key: z[key] for key in z.files}
            d["fre_mm"] = S.FreProblem(d["fmm_A"], d["fmm_b"], R.MaxMin())
            d["fre_mp"] = S.FreProblem(d["fmp_A"], d["fmp_b"], R.MaxProduct())
            d["ts_min"] = L.TrainingSet(d["learn_X"], d["learn_Ymin"])
            d["ts_prod"] = L.TrainingSet(d["learn_X"], d["learn_Yprod"])
            for key in ("neu_P", "neu_Q"):
                d[key] = N.NeutroRelation(
                    [[N.I(c) if i else N.R(c) for i, c in zip(irow, crow)]
                     for irow, crow in zip(d[f"{key}_indet"], d[f"{key}_coeff"])])
            self.sets.append(d)
            self.expected.append(self._reference(d))
        self.ops = [Op("dense", lambda d=d: self._task(d),
                       lambda out, e=e: self._check(out, e))
                    for d, e in zip(self.sets, self.expected)]

    def _task(self, d):
        G, R, S, L, N, P = (self.m[k] for k in ("grades", "relations", "solve", "learn",
                                                "neutro", "products"))
        out = {
            "maxmin": R.compose(R.MaxMin(), d["mm_P"], d["mm_Q"]).cells,
            "maxproduct": R.compose(R.MaxProduct(), d["mp_P"], d["mp_Q"]).cells,
            "supt": R.compose(R.SupT(G.LUKASIEWICZ), d["luk_P"], d["luk_Q"]).cells,
            "infimpl": R.compose(R.InfImplication(G.godel), d["inf_P"], d["inf_Q"]).cells,
            "generator": R.compose(R.SupT(self.hamacher), d["gen_P"], d["gen_Q"]).cells,
        }
        for key in ("fre_mm", "fre_mp"):
            x = S.max_solution(d[key])
            out[key] = (x, S.binding_sets(d[key], x))
        out["gav"] = S.gavalec_certificate(d["gav_A"], d["gav_b"])
        out["gsr"] = S.greatest_solution_relation(d["gsr_R"], d["gsr_T"])
        out["K_min"] = L.delta_rule_K(d["ts_min"], G.MIN)
        out["K_prod"] = L.delta_rule_K(d["ts_prod"], G.PRODUCT)
        out["B"] = L.delta_rule_B(d["ts_min"])
        out["neu_graded"] = N.neutro_compose("graded", d["neu_P"], d["neu_Q"])
        out["neu_absorbing"] = N.neutro_compose("absorbing", d["neu_P"], d["neu_Q"])
        out["tri"] = P.triangle_product_subjects(d["tri_R"], G.godel).cells
        return out

    @staticmethod
    def _reference(d):
        e = {
            "maxmin": ref.maxmin(d["mm_P"], d["mm_Q"]),
            "maxproduct": ref.maxproduct(d["mp_P"], d["mp_Q"]),
            "supt": ref.sup_lukasiewicz(d["luk_P"], d["luk_Q"]),
            "infimpl": ref.inf_godel(d["inf_P"], d["inf_Q"]),
            "generator": ref.sup_hamacher(d["gen_P"], d["gen_Q"]),
            "gav": ref.greatest_column(d["gav_A"], d["gav_b"]),
            "gsr": ref.godel_left_division(d["gsr_R"], d["gsr_T"]),
            "K_min": ref.learned_greatest("max-min", d["learn_X"], d["learn_Ymin"]),
            "K_prod": ref.learned_greatest("max-product", d["learn_X"], d["learn_Yprod"]),
            "tri": ref.triangle_subjects(d["tri_R"]),
        }
        for key, src, comp in (("fre_mm", "fmm", "max-min"), ("fre_mp", "fmp", "max-product")):
            A, b = d[f"{src}_A"], d[f"{src}_b"]
            x = ref.greatest(comp, A, b)
            e[key] = (x, ref.binding_sets(comp, A, b, x))
        for mode in ("graded", "absorbing"):
            e[f"neu_{mode}"] = ref.neutro_compose(mode, d["neu_P_indet"], d["neu_P_coeff"],
                                                  d["neu_Q_indet"], d["neu_Q_coeff"])
        return e

    @staticmethod
    def _check(out, e):
        for key in ("maxmin", "maxproduct", "supt", "infimpl", "generator", "tri"):
            close(out[key], e[key], key, atol=1e-12 if key != "generator" else 1e-9)
        for key in ("fre_mm", "fre_mp"):
            expect(out[key][0] is not None, f"{key}: feasible system reported infeasible")
            close(out[key][0], e[key][0], f"{key} greatest solution", atol=1e-12)
            expect([list(s) for s in out[key][1]] == e[key][1], f"{key} binding sets")
        cert = out["gav"]
        expect(cert.solvable, "certificate: solvable system reported unsolvable")
        close(cert.x_bar, e["gav"], "certificate x_bar", atol=1e-12)
        expect(out["gsr"] is not None, "greatest_solution_relation: reported infeasible")
        close(out["gsr"].cells, e["gsr"], "greatest relation", atol=1e-12)
        for key in ("K_min", "K_prod", "B"):
            res = out[key]
            expect(res.converged, f"{key} converged")
            close(res.W, e["K_min" if key == "B" else key], f"{key} weights", atol=1e-12)
        for mode in ("graded", "absorbing"):
            rel, (kind, coeff) = out[f"neu_{mode}"], e[f"neu_{mode}"]
            expect(np.array_equal([[g.is_indet for g in row] for row in rel.cells], kind),
                   f"neutro {mode} kinds")
            close([[g.coeff for g in row] for row in rel.cells], coeff,
                  f"neutro {mode} coefficients", atol=1e-12)
        return {"cell_touches": cert.cell_touches, "certificates": 1}


# ---------------------------------------------------------------------------
# enum-optimize: one op = one library call on one tie-heavy instance
# ---------------------------------------------------------------------------

@dataclass
class Instance:
    key: tuple
    comp: str
    problem: object
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    x_hat: np.ndarray

    @property
    def lambda_fits(self):
        """Whether lambda's full enumeration is within the cap, by the reference."""
        sets = ref.binding_sets(self.comp, self.A, self.b, self.x_hat)
        return ref.combinations(sets) <= ENUM_CAP


class EnumOptimize:
    in_process = True

    def __init__(self, work, seed):
        self.m = import_relq()
        R, S = self.m["relations"], self.m["solve"]
        spec = {"max-min": R.MaxMin, "max-product": R.MaxProduct}
        self.minimals = {}   # instance key -> minimal solutions, first method to finish
        self.optimum = {}    # instance key -> exact linear optimum
        self.seed = seed
        fams = []
        for name, comp, _, _ in inputs.ENUM_FAMILIES:
            with np.load(Path(work) / f"enum-{name}.npz") as z:
                fams.append([Instance((name, k), comp, S.FreProblem(A, b, spec[comp]()),
                                      A, b, c, d, ref.greatest(comp, A, b))
                             for k, (A, b, c, d) in enumerate(zip(z["A"], z["b"], z["c"], z["d"]))])
        self.instances = [inst for triple in zip(*fams) for inst in triple]
        self.ops = []
        for k, triple in enumerate(zip(*fams)):
            if k == 8:
                self.exact_ops = len(self.ops)  # the first eight instance triples
            for inst in triple:
                methods = ["lambda", "pattern"] if inst.lambda_fits else ["pattern"]
                if inst.comp == "max-product":  # archimedean needs an Archimedean t-norm
                    methods.append("archimedean")
                for method in methods:
                    self.ops.append(Op(f"solve.{method}",
                                       lambda i=inst, m=method: self._solve(i, m),
                                       lambda out, i=inst: self._check_solve(i, out)))
                for cost in ("c", "d"):
                    self.ops.append(Op("optimize_linear",
                                       lambda i=inst, w=cost: self._linear(i, w),
                                       lambda out, i=inst, w=cost: self._check_linear(i, w, out)))
                if inst.comp == "max-min":  # the GA operators are defined for max-min only
                    self.ops.append(Op("optimize_nonlinear_ga", lambda i=inst: self._ga(i),
                                       lambda out, i=inst: self._check_ga(i, out)))
                    self.ops.append(Op("optimize_multiobjective",
                                       lambda i=inst: self._multi(i),
                                       lambda out, i=inst: self._check_multi(i, out)))

    def _solve(self, inst, method):
        return self.m["solve"].solve(inst.problem, method, cap=ENUM_CAP)

    def _linear(self, inst, cost):
        O = self.m["optimize"]
        return O.optimize_linear(O.LinearFreProblem(inst.problem, getattr(inst, cost)))

    def _ga_config(self, inst):
        return self.m["optimize"].GaConfig(population_size=GA_POPULATION,
                                           generations=GA_GENERATIONS,
                                           rng_seed=self.seed * 1000 + inst.key[1])

    def _ga(self, inst):
        evals = [0]

        def cost(x):
            evals[0] += 1
            return float(inst.c @ x)
        x, fx = self.m["optimize"].optimize_nonlinear_ga(inst.problem, cost,
                                                         self._ga_config(inst))
        return x, fx, evals[0]

    def _multi(self, inst):
        fs = [lambda x, w=w: float(w @ x) for w in (inst.c, inst.d)]
        return self.m["optimize"].optimize_multiobjective(inst.problem, fs,
                                                          self._ga_config(inst))

    def _solves(self, inst, x):
        return ref.is_solution(inst.comp, np.asarray(x, float), inst.A, inst.b)

    def _check_solve(self, inst, res):
        expect(res.feasible, "feasible system reported infeasible")
        close(res.x_hat, inst.x_hat, "x_hat")
        expect(len(res.minimals) > 0, "no minimal solution")
        for m in res.minimals:
            expect(self._solves(inst, m), "minimal solution solves")
            expect(np.all(np.asarray(m) <= inst.x_hat + ref.TOL), "minimal below x_hat")
        expect(ref.pairwise_incomparable(res.minimals), "minimal solutions incomparable")
        first = self.minimals.setdefault(inst.key, res.minimals)
        expect(ref.canon(first) == ref.canon(res.minimals), "methods disagree on the minimal set")
        return {"minimals": len(res.minimals), "solve_calls": 1}

    def _check_linear(self, inst, cost, out):
        x, z = out
        w = getattr(inst, cost)
        expect(self._solves(inst, x), "x_star solves")
        close(z, w @ np.asarray(x), "Z = c·x_star")
        minimals = self.minimals.get(inst.key)
        if minimals is None:  # every enumeration of this instance hit the cap
            return {"linear_unchecked": 1}
        best = ref.linear_optimum(w, minimals, inst.x_hat)
        close(z, best, "linear optimum")
        if cost == "c":
            self.optimum[inst.key] = best
        return {}

    def _check_ga(self, inst, out):
        x, fx, evals = out
        expect(self._solves(inst, x), "GA best solves")
        close(fx, inst.c @ x, "GA value = c·x")
        counts = {"fitness_evals": evals, "ga_calls": 1}
        if inst.key in self.optimum:
            gap = fx - self.optimum[inst.key]
            expect(gap >= -1e-9, "GA beat the exact optimum")
            counts["ga_gap"] = gap
        return counts

    def _check_multi(self, inst, archive):
        pts = archive.points
        expect(len(pts) > 0, "empty Pareto archive")
        for x, z in pts:
            expect(self._solves(inst, x), "archived point solves")
            close(z, [inst.c @ x, inst.d @ x], "archived objective values")
        zs = [z for _, z in pts]
        # relq's own dominance test: <= everywhere and < somewhere, slack 1e-12
        expect(ref.pairwise_incomparable(zs, tol=1e-12), "archive holds a dominated point")
        return {"archive_size": len(pts), "multi_calls": 1}


WORKLOADS = {
    "cli-casestudy": CliCasestudy,
    "dense-kernels": DenseKernels,
    "enum-optimize": EnumOptimize,
}
