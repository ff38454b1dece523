"""Seeded inputs of the relq benchmark workloads.

Run as a script, this is one set-up of a benchmark run: it imports relq,
generates one workload's inputs from the seed, writes them to a directory
and prints the seconds that took as its last line.

    python3 bench/inputs.py --workload dense-kernels --seed 1 --out DIR

The same seed always gives the same inputs (see ``digest``).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-casestudy", "dense-kernels", "enum-optimize")

# dense-kernels: number of instance sets an op cycles through
DENSE_SETS = 8
# enum-optimize: (name, composition, size, grid steps); instances per family
ENUM_FAMILIES = (
    ("mm01", "max-min", 10, 10),        # 0.1 grid, many ties
    ("mpq", "max-product", 10, 4),      # {0, .25, .5, .75, 1}
    ("mp001", "max-product", 16, 100),  # 0.01 grid
)
ENUM_INSTANCES = 160


def _grid(rng, shape, steps):
    return rng.integers(0, steps + 1, shape) / steps


def _mixed_costs(rng, n):
    """Integer costs in ±[1, 5] with at least one of each sign."""
    c = rng.integers(1, 6, n) * rng.choice([-1.0, 1.0], n)
    c[0], c[1] = abs(c[0]), -abs(c[1])
    return c


def _feasible(rng, comp, m, n, steps):
    A = _grid(rng, (m, n), steps)
    x = _grid(rng, m, steps)
    return A, ref.image(comp, x, A)


def _neutro(rng, n, share_indet=0.3):
    coeff = _grid(rng, (n, n), 10)
    indet = (rng.random((n, n)) < share_indet) & (coeff > 0)
    return indet, coeff


def _csv(rows):
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def _neutro_csv(indet, coeff):
    lines = ["# mode: graded"]
    for krow, crow in zip(indet, coeff):
        lines.append(",".join(f"{c:g}I" if k else f"{c:g}" for k, c in zip(krow, crow)))
    return "\n".join(lines) + "\n"


def cli_inputs(rng, out):
    def problem(comp, steps):
        m, n = (int(v) for v in rng.integers(3, 7, 2))
        A, b = _feasible(rng, comp, m, n, steps)
        return {"A": A.tolist(), "b": b.tolist(), "composition": comp}

    files = {
        "solve-mm.json": problem("max-min", 10),
        "solve-mp.json": problem("max-product", 4),
    }
    # every cell of A is at most 0.5, so a right-hand side of 0.9 is unreachable
    A = rng.integers(0, 6, (3, 3)) / 10
    b = _grid(rng, 3, 10)
    b[rng.integers(3)] = 0.9
    files["solve-infeasible.json"] = {"A": A.tolist(), "b": b.tolist(),
                                      "composition": "max-min"}
    opt = problem("max-min", 10)
    opt["c"] = _mixed_costs(rng, len(opt["A"])).tolist()
    files["optimize.json"] = opt
    p, n, m = (int(v) for v in rng.integers(3, 7, 3))
    X, W0 = _grid(rng, (p, n), 10), _grid(rng, (n, m), 10)
    files["learn.json"] = {"inputs": X.tolist(), "targets": ref.maxmin(X, W0).tolist()}
    for name, f in files.items():
        (out / name).write_text(json.dumps(f))
    for prefix, steps in (("mm", 10), ("mp", 4)):
        r, s, t = (int(v) for v in rng.integers(3, 7, 3))
        (out / f"{prefix}-left.csv").write_text(_csv(_grid(rng, (r, s), steps)))
        (out / f"{prefix}-right.csv").write_text(_csv(_grid(rng, (s, t), steps)))
    for side in ("left", "right"):
        (out / f"neutro-{side}.csv").write_text(_neutro_csv(*_neutro(rng, 4)))


def dense_set(rng):
    g = lambda *shape: rng.random(shape)  # noqa: E731
    d = {}
    for key, size in (("mm", 192), ("mp", 192), ("luk", 96), ("inf", 20), ("gen", 8)):
        d[f"{key}_P"], d[f"{key}_Q"] = g(size, size), g(size, size)
    for key, comp in (("fmm", "max-min"), ("fmp", "max-product")):
        A, x = g(96, 96), g(96)
        d[f"{key}_A"], d[f"{key}_b"] = A, ref.image(comp, x, A)
    A, x = g(96, 96), g(96)
    d["gav_A"], d["gav_b"] = A, ref.maxmin(A, x[:, None])[:, 0]
    R = g(32, 32)
    d["gsr_R"], d["gsr_T"] = R, ref.maxmin(R, g(32, 32))
    X, W0 = g(20, 30), g(30, 20)
    d["learn_X"] = X
    d["learn_Ymin"], d["learn_Yprod"] = ref.maxmin(X, W0), ref.maxproduct(X, W0)
    for key in ("neu_P", "neu_Q"):
        d[f"{key}_indet"], d[f"{key}_coeff"] = _neutro(rng, 12)
    d["tri_R"] = g(20, 30)
    return d


def dense_inputs(rng, out):
    for k in range(DENSE_SETS):
        np.savez(out / f"dense-{k}.npz", **dense_set(rng))


def enum_inputs(rng, out):
    for name, comp, n, steps in ENUM_FAMILIES:
        As, bs, cs, ds = [], [], [], []
        for _ in range(ENUM_INSTANCES):
            A, b = _feasible(rng, comp, n, n, steps)
            As.append(A)
            bs.append(b)
            cs.append(_mixed_costs(rng, n))
            ds.append(_mixed_costs(rng, n))
        np.savez(out / f"enum-{name}.npz", A=np.array(As), b=np.array(bs),
                 c=np.array(cs), d=np.array(ds))


_GENERATORS = {
    "cli-casestudy": cli_inputs,
    "dense-kernels": dense_inputs,
    "enum-optimize": enum_inputs,
}


def generate(workload, seed, out):
    """Write the inputs of ``workload`` for ``seed`` into directory ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    salt = WORKLOADS.index(workload)
    _GENERATORS[workload](np.random.default_rng([seed, salt]), out)


def digest(out):
    """SHA-256 of the inputs' contents (npz members by name, so archive
    timestamps do not count)."""
    h = hashlib.sha256()
    for path in sorted(Path(out).iterdir()):
        h.update(path.name.encode())
        if path.suffix == ".npz":
            with np.load(path) as z:
                for key in sorted(z.files):
                    arr = np.ascontiguousarray(z[key])
                    h.update(f"{key}{arr.dtype}{arr.shape}".encode())
                    h.update(arr.tobytes())
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import relq  # noqa: F401  (set-up time includes importing the library)

    generate(args.workload, args.seed, args.out)
    print(f"{time.perf_counter() - _T0:.6f}")


if __name__ == "__main__":
    main()
