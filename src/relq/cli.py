"""Command-line front end.

Subcommands: compose, solve, optimize, learn, diagnose, demo.  JSON is the
canonical machine format; aligned text tables are for humans.  Exit codes:
0 success, 2 infeasible system, 1 any other error.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys

import numpy as np

from . import datasets
from .grades import godel, kleene_dienes, tnorm_by_name
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


def _json(val, nround=None):
    """val ready for json.dumps: arrays as nested lists, floats rounded as
    the tables round them."""
    if isinstance(val, np.ndarray):
        return [_json(v, nround) for v in val]
    if isinstance(val, float):
        return float(_fmt(val, nround)) if nround is not None else float(val)
    return val


def _emit_matrix(grid, args):
    grid = np.atleast_2d(np.asarray(grid, float))
    nround = getattr(args, "round", None)
    if args.format == "json":
        print(json.dumps({"cells": _json(grid, nround)}))
    elif args.format == "csv":
        for row in grid:
            print(",".join(_fmt(v, nround) for v in row))
    else:
        cols = [[_fmt(v, nround) for v in row] for row in grid]
        width = max(len(s) for row in cols for s in row)
        for row in cols:
            print("  ".join(s.rjust(width) for s in row))


def _emit_neutro(rel: NeutroRelation, args, mode):
    if args.format == "json":
        print(rel.to_json(mode))
    elif args.format == "csv":
        sys.stdout.write(rel.to_csv(mode))
    else:
        cells = [[neutro_format(g) for g in row] for row in rel.cells]
        width = max(len(s) for row in cells for s in row)
        for row in cells:
            print("  ".join(s.rjust(width) for s in row))


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


def _load_neutro(path, expect_mode=None):
    text = _read_text(path)
    if path.endswith(".json"):
        rel, mode = NeutroRelation.from_json(text, expect_mode)
    else:
        rel, mode = NeutroRelation.from_csv(text, expect_mode)
    return rel, mode


def _composition_of(data, flag):
    comp = data.get("composition", flag)
    if isinstance(comp, dict):
        kind = comp.get("sup-t", {}).get("kind", "min")
        comp = f"sup-t:{kind}"
    return composition_by_name(comp)


def _problem_from_file(path, args):
    data = json.loads(_read_text(path))
    spec = _composition_of(data, args.comp)
    return FreProblem(data["A"], data["b"], spec), data


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_compose(args):
    if args.mode is not None:
        P, _ = _load_neutro(args.left, args.mode)
        Q, _ = _load_neutro(args.right, args.mode)
        if P.cols != Q.rows:
            print(f"error: cannot compose {P.rows}x{P.cols} with {Q.rows}x{Q.cols}",
                  file=sys.stderr)
            return 1
        _emit_neutro(neutro_compose(args.mode, P, Q), args, args.mode)
        return 0
    P = _load_matrix(args.left)
    Q = _load_matrix(args.right)
    if P.shape[1] != Q.shape[0]:
        print(f"error: cannot compose {P.shape[0]}x{P.shape[1]} with "
              f"{Q.shape[0]}x{Q.shape[1]}", file=sys.stderr)
        return 1
    _emit_matrix(compose(composition_by_name(args.comp), P, Q).cells, args)
    return 0


def cmd_solve(args):
    p, _ = _problem_from_file(args.problem, args)
    try:
        res = solve(p, method=args.method, cap=args.cap)
    except InfeasibleError:
        from .solve import SolutionSet
        res = SolutionSet(False, None, [], [])
    payload = {"feasible": bool(res.feasible)}
    if res.feasible:
        payload["x_hat"] = [float(v) for v in res.x_hat]
        payload["minimals"] = [[float(v) for v in m] for m in res.minimals]
    else:
        payload["x_hat"] = None
        payload["minimals"] = []
    if isinstance(p.composition, MaxMin):
        cert = gavalec_certificate(p.A.T, p.b)
        payload["certificates"] = {
            "solvable": bool(cert.solvable), "unique": bool(cert.unique),
        }
    else:
        payload["certificates"] = {}
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print("feasible:", payload["feasible"])
        if res.feasible:
            print("x_hat:", " ".join(_fmt(v, args.round) for v in res.x_hat))
            for m in res.minimals:
                print("minimal:", " ".join(_fmt(v, args.round) for v in m))
    return 0 if res.feasible else 2


def cmd_optimize(args):
    p, data = _problem_from_file(args.problem, args)
    if args.c is not None:
        c = np.array([float(v) for v in args.c.split(",")])
    else:
        c = np.asarray(data["c"], float)
    lp = LinearFreProblem(p, c)
    try:
        x_star, z_star = optimize_linear(lp)
    except InfeasibleError:
        print(json.dumps({"feasible": False}))
        return 2
    payload = {
        "feasible": True,
        "x_star": [float(v) for v in x_star],
        "Z": float(z_star),
        "certificate": "exact-ip",
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print("x_star:", " ".join(_fmt(v, args.round) for v in x_star))
        print("Z:", _fmt(z_star, args.round))
    return 0


def cmd_learn(args):
    data = json.loads(_read_text(args.training))
    ts = TrainingSet(data["inputs"], data["targets"])
    t = tnorm_by_name(args.tnorm)
    cfg = TrainerConfig(eta=args.eta, epsilon=args.tol, tnorm=t)
    if args.rule == "basic":
        res = delta_rule_basic(ts, cfg)
    elif args.rule == "J":
        res = delta_rule_J(ts, cfg)
    elif args.rule == "B":
        res = delta_rule_B(ts)
    elif args.rule == "K":
        res = delta_rule_K(ts, t)
    elif args.rule == "smooth":
        res = smooth_derivative_train(ts, cfg)
    payload = {
        "W": [[float(v) for v in row] for row in res.W],
        "converged": bool(res.converged),
        "epochs": int(res.epochs),
        "error_trace": [float(e) for e in res.error_trace],
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        _emit_matrix(res.W, args)
        print("converged:", payload["converged"], " epochs:", payload["epochs"])
    return 0


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
    out = diagnose(k)
    if args.format == "json":
        print(json.dumps(out))
    else:
        for key, val in out.items():
            print(f"{key}: {', '.join(map(str, val)) if val else '-'}")
    return 0


def _demo_pallavan(args):
    partition = {3: "fives", 4: "arbitrary", 5: "threes"}.get(args.blocks)
    if partition is None:
        print("error: --blocks must be 3, 4, or 5", file=sys.stderr)
        return 1
    series = datasets.pallavan_series(partition)
    blocks = datasets.estimate_block_relations(series)
    rows = [
        {"block": list(b["block"]), "peak_hour": int(b["peak_label"]),
         "peak_value": float(b["peak_value"])}
        for b in blocks
    ]
    if args.format == "json":
        print(json.dumps({"partition": partition, "peaks": rows}))
    else:
        for b in blocks:
            print(f"block {b['block']}: peak at hour ending "
                  f"{b['peak_label']} (scaled {_fmt(b['peak_value'], args.round)})")
    return 0


def _demo_doc(name, args):
    """The result of demo ``name`` (not pallavan) as one dict for _emit_demo."""
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


def _emit_demo(doc, args):
    """One JSON object, or per entry a table: a 2-d array under a "key:"
    line, anything else after "key: "; a one-entry dict prints its value
    alone."""
    if args.format == "json":
        print(json.dumps({key: _json(val, args.round) for key, val in doc.items()}))
        return
    for key, val in doc.items():
        if isinstance(val, np.ndarray) and val.ndim == 2:
            if len(doc) > 1:
                print(f"{key}:")
            _emit_matrix(val, args)
            continue
        if isinstance(val, (list, np.ndarray)):
            val = " ".join(v if isinstance(v, str) else _fmt(v, args.round) for v in val)
        print(f"{key}: {val}" if len(doc) > 1 else val)


def cmd_demo(args):
    name = args.name
    if name not in datasets.DEMO_NAMES:
        print("error: unknown demo; available: " + ", ".join(datasets.DEMO_NAMES),
              file=sys.stderr)
        return 1
    if name == "pallavan":
        return _demo_pallavan(args)
    _emit_demo(_demo_doc(name, args), args)
    return 0


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
                    help="cap on enumerated combinations (default: RELQ_CAP or 10^6)")
    _add_common(sp, "round", "comp")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("optimize", help="minimize a linear cost over solutions")
    sp.add_argument("problem")
    sp.add_argument("--c", default=None, help="comma-separated cost row")
    _add_common(sp, "round", "comp")
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("learn", help="learn W from training samples")
    sp.add_argument("training")
    sp.add_argument("--rule", choices=("basic", "J", "B", "K", "smooth"),
                    default="K")
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
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # stable error contract: anything else is exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
