"""Command-line front end.

Subcommands: compose, solve, optimize, learn, diagnose, demo.  Each returns
one document (a dict) and an exit code, and ``_emit`` prints the document:
``--format json`` as one JSON object (the canonical machine format), table
or csv one rule per entry: a 2-d array as a matrix block under ``key:``
(comma-separated in csv, aligned columns in a table), a vector or list
space-joined after ``key: ``, a nested dict one ``  key: value`` line per
entry, and anything else as ``key: value``.  A document with one entry
whose value is text, a vector or a matrix prints that value alone.
``--round N`` rounds every real grade half up to N decimals, in JSON too.
Only two commands read ``--format`` themselves, and the rest must not:
neutrosophic ``compose`` keeps its file codec form (``# mode:`` line in
csv), which ``NeutroRelation.from_json``/``from_csv`` read back, and the
``demo pallavan`` table keeps its ``block …: peak at hour ending …`` lines.
Exit codes: 0 success, 2 infeasible system, 1 any other error.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys

import numpy as np

from . import datasets
from .grades import check_integer, godel, kleene_dienes, tnorm_by_name
from .learn import (TrainerConfig, TrainingSet, delta_rule_B, delta_rule_J,
                    delta_rule_K, delta_rule_basic, smooth_derivative_train)
from .neutro import NeutroRelation, neutro_compose, neutro_format
from .optimize import LinearFreProblem, optimize_linear
from .products import (DiagnosisKnowledge, checklist_product, diagnose,
                       triangle_product_criteria, triangle_product_subjects)
from .relations import MaxMin, Relation, alpha_cut, compose, composition_by_name
from .solve import FreProblem, InfeasibleError, gavalec_certificate, solve


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _fmt(x, nround=None):
    if nround is not None:
        q = decimal.Decimal(10) ** -nround
        d = decimal.Decimal(repr(float(x))).quantize(q, rounding=decimal.ROUND_HALF_UP)
        return str(d)
    return f"{float(x):.9g}"


def _text(v, nround):
    """One value as a table prints it: reals through _fmt, the rest as str."""
    return _fmt(v, nround) if isinstance(v, float) else str(v)


def _json(val, nround=None):
    """val ready for json.dumps: arrays and tuples as lists, numpy scalars as
    Python ones, floats rounded as the tables round them."""
    if isinstance(val, dict):
        return {key: _json(v, nround) for key, v in val.items()}
    if isinstance(val, (list, tuple, np.ndarray)):
        return [_json(v, nround) for v in val]
    if isinstance(val, np.generic):
        val = val.item()
    if isinstance(val, float) and nround is not None:
        return float(_fmt(val, nround))
    return val


def _emit(doc, args):
    """Print doc by the rule in the module docstring."""
    nround = getattr(args, "round", None)
    if args.format == "json":
        print(json.dumps(_json(doc, nround)))
        return
    for key, val in doc.items():
        bare = len(doc) == 1 and isinstance(val, (str, list, np.ndarray))
        if isinstance(val, np.ndarray) and val.ndim == 2:
            cells = [[_text(v, nround) for v in row] for row in val]
            width = max(len(s) for row in cells for s in row)
            sep, pad = (",", 0) if args.format == "csv" else ("  ", width)
            block = [sep.join(s.rjust(pad) for s in row) for row in cells]
        elif isinstance(val, dict):
            block = [f"  {k}: {_text(v, nround)}" for k, v in val.items()]
        else:
            if isinstance(val, (list, np.ndarray)):
                val = " ".join(_text(v, nround) for v in val)
            print(_text(val, nround) if bare else f"{key}: {_text(val, nround)}")
            continue
        if not bare:
            print(f"{key}:")
        for line in block:
            print(line)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def _read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_matrix(path):
    """Real matrix from .csv or .json."""
    text = _read_text(path)
    if path.endswith(".json"):
        data = json.loads(text)
        if isinstance(data, dict):
            data = data.get("cells", data.get("A"))
        return Relation(data)
    return Relation.from_csv(text)


def _load_neutro(path, mode):
    read = NeutroRelation.from_json if path.endswith(".json") else NeutroRelation.from_csv
    return read(_read_text(path), mode)[0]


def _problem_from_file(path, args):
    data = json.loads(_read_text(path))
    comp = composition_by_name(data.get("composition", args.comp))
    return FreProblem(data["A"], data["b"], comp), data


# ---------------------------------------------------------------------------
# subcommands: each returns (document, exit code)
# ---------------------------------------------------------------------------

def cmd_compose(args):
    mode = args.mode
    load = _load_matrix if mode is None else lambda path: _load_neutro(path, mode)
    P, Q = load(args.left), load(args.right)
    if P.cols != Q.rows:
        raise ValueError(f"cannot compose {P.rows}x{P.cols} with {Q.rows}x{Q.cols}")
    if mode is None:
        return {"cells": compose(composition_by_name(args.comp), P, Q).cells}, 0
    R = neutro_compose(mode, P, Q)
    if args.format == "json":
        return json.loads(R.to_json(mode)), 0
    if args.format == "csv":
        return {"csv": R.to_csv(mode).rstrip("\n")}, 0
    return {"cells": np.array(R.tokens())}, 0


def cmd_solve(args):
    p, _ = _problem_from_file(args.problem, args)
    try:
        res = solve(p, method=args.method, cap=args.cap)
        doc = {"feasible": True, "x_hat": res.x_hat, "minimals": np.array(res.minimals)}
    except InfeasibleError:
        doc = {"feasible": False, "x_hat": None, "minimals": []}
    doc["certificates"] = {}
    if isinstance(p.composition, MaxMin):
        cert = gavalec_certificate(p.A.T, p.b)
        doc["certificates"] = {"solvable": cert.solvable, "unique": cert.unique}
    return doc, 0 if doc["feasible"] else 2


def cmd_optimize(args):
    p, data = _problem_from_file(args.problem, args)
    c = data["c"] if args.c is None else [float(v) for v in args.c.split(",")]
    try:
        x_star, z_star = optimize_linear(LinearFreProblem(p, np.asarray(c, float)))
    except InfeasibleError:
        return {"feasible": False}, 2
    return {"feasible": True, "x_star": x_star, "Z": z_star, "certificate": "exact-ip"}, 0


_LEARNERS = {
    "basic": delta_rule_basic,
    "J": delta_rule_J,
    "B": lambda ts, cfg: delta_rule_B(ts),
    "K": lambda ts, cfg: delta_rule_K(ts, cfg.tnorm),
    "smooth": smooth_derivative_train,
}


def cmd_learn(args):
    data = json.loads(_read_text(args.training))
    ts = TrainingSet(data["inputs"], data["targets"])
    cfg = TrainerConfig(eta=args.eta, epsilon=args.tol, tnorm=tnorm_by_name(args.tnorm))
    if args.rule == "B" and cfg.tnorm.name != "min":  # Goedel's residuum, the min rule
        raise ValueError("the B rule is defined for the min t-norm")
    res = _LEARNERS[args.rule](ts, cfg)
    return {"W": res.W, "converged": res.converged, "epochs": res.epochs,
            "error_trace": res.error_trace}, 0


def cmd_diagnose(args):
    data = json.loads(_read_text(args.knowledge))
    k = DiagnosisKnowledge(
        disorders=list(data["disorders"]),
        manifestations=list(data["manifestations"]),
        certain={d: set(v) for d, v in data.get("certain", {}).items()},
        forbidden={d: set(v) for d, v in data.get("forbidden", {}).items()},
        observed_present=set(data.get("observed_present", ())),
        observed_absent=set(data.get("observed_absent", ())),
    )
    return diagnose(k), 0


def _demo_doc(name, args):
    """The result of demo ``name`` as one document."""
    if name == "pallavan":
        partition = {3: "fives", 4: "arbitrary", 5: "threes"}.get(args.blocks)
        if partition is None:
            raise ValueError("--blocks must be 3, 4, or 5")
        blocks = datasets.estimate_block_relations(datasets.pallavan_series(partition))
        if args.format != "json":
            return {"peaks": "\n".join(
                f"block {b['block']}: peak at hour ending {b['peak_label']} "
                f"(scaled {_fmt(b['peak_value'], args.round)})" for b in blocks)}
        return {"partition": partition, "peaks": [
            {"block": b["block"], "peak_hour": b["peak_label"], "peak_value": b["peak_value"]}
            for b in blocks]}
    if name == "chemical-flow":
        res = datasets.demo_chemical_flow()
        return {"trained weights": res["weights"], "outputs": res["outputs"],
                "converged": res["converged"]}
    if name.startswith("bonded-labor-") and name[-1].isdigit():
        expert = int(name[-1])
        return {d: datasets.demo_bonded_labor(expert, d) for d in ("forward", "inverse")}
    if name == "hiv-checklist":
        return {"cells": checklist_product(datasets.HIV_CHECKLIST_MARKS, kleene_dienes).cells}
    if name == "hiv-triangle":
        U = triangle_product_subjects(datasets.HIV_MARKS, godel)
        V = triangle_product_criteria(datasets.HIV_MARKS, godel)
        return {"U (subject implies subject)": U.cells, "V (criterion implies criterion)": V.cells,
                **{f"alpha-cut of U at {a}": alpha_cut(U, a).cells for a in args.alpha}}
    if name.endswith("-nre"):
        out = (datasets.demo_bonded_labor_nre() if name == "bonded-labor-nre"
               else datasets.demo_medical_nre())
        return {"grades": [neutro_format(g) for g in out]}
    return {"cells": datasets.COMPAT_GRAPH.cells}  # compat-graph


def cmd_demo(args):
    if args.name not in datasets.DEMO_NAMES:
        raise ValueError("unknown demo; available: " + ", ".join(datasets.DEMO_NAMES))
    return _demo_doc(args.name, args), 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(sp, *shared):
    """--format, plus those of --round and --comp named in shared."""
    sp.add_argument("--format", choices=("table", "csv", "json"), default="table")
    if "round" in shared:
        sp.add_argument("--round", type=int, default=None)
    if "comp" in shared:
        sp.add_argument("--comp", default="max-min")


def build_parser():
    ap = argparse.ArgumentParser(prog="relq",
                                 description="fuzzy relational equation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("compose", help="compose two relations")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--mode", choices=("graded", "absorbing"), default=None)
    _add_common(sp, "round", "comp")
    sp.set_defaults(func=cmd_compose)

    sp = sub.add_parser("solve", help="solve x∘A=b")
    sp.add_argument("problem")
    sp.add_argument("--method", choices=("lambda", "pattern", "archimedean"),
                    default="lambda")
    sp.add_argument("--cap", type=int, default=None,
                    help="cap on the minimal solutions emitted, or for lambda on the "
                         "binding-row combinations (default: RELQ_CAP or 10^6)")
    _add_common(sp, "round", "comp")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("optimize", help="minimize a linear cost over solutions")
    sp.add_argument("problem")
    sp.add_argument("--c", default=None, help="comma-separated cost row")
    _add_common(sp, "round", "comp")
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("learn", help="learn W from training samples")
    sp.add_argument("training")
    sp.add_argument("--rule", choices=tuple(_LEARNERS), default="K")
    sp.add_argument("--tnorm", default="min")
    sp.add_argument("--eta", type=float, default=0.1)
    sp.add_argument("--tol", type=float, default=TrainerConfig.epsilon)
    _add_common(sp, "round")
    sp.set_defaults(func=cmd_learn)

    sp = sub.add_parser("diagnose", help="diagnosis sets from knowledge JSON")
    sp.add_argument("knowledge")
    _add_common(sp)
    sp.set_defaults(func=cmd_diagnose)

    sp = sub.add_parser("demo", help="run an embedded dataset demo")
    sp.add_argument("name")
    sp.add_argument("--blocks", type=int, default=5)
    sp.add_argument("--alpha", type=float, action="append", default=None)
    _add_common(sp, "round")
    sp.set_defaults(func=cmd_demo)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if getattr(args, "alpha", None) is None and args.command == "demo":
        args.alpha = [1.0]
    try:
        if getattr(args, "round", None) is not None:
            check_integer("--round", args.round, 0)
        doc, code = args.func(args)
        _emit(doc, args)
        return code
    except BrokenPipeError:
        return 1
    except Exception as exc:  # stable error contract: anything else is exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
