"""Tests of the benchmark itself: python3 -m pytest -q bench"""

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import inputs
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture
def scratch(request):
    path = run.WORK / "tests" / request.node.name.replace("[", "-").rstrip("]")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(result["metrics"][m["name"]]["value"])


def test_refuses_to_run_without_sources(scratch):
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(run.BENCH, scratch / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-kernels", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_same_seed_same_inputs(workload, scratch):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs.generate(workload, seed, scratch / name)
    a, b, c = (inputs.digest(scratch / name) for name in "abc")
    assert a == b
    assert a != c


def test_lambda_runs_exactly_where_it_fits_the_cap(scratch):
    inputs.generate("enum-optimize", 4, scratch)
    wl = workloads.EnumOptimize(scratch, 4)
    over = [inst for inst in wl.instances if not inst.lambda_fits]
    assert 0 < len(over) < len(wl.instances) / 10
    for inst in over[:5]:  # relq counts the combinations as the reference does
        with pytest.raises(wl.m["solve"].CapExceeded):
            wl.m["solve"].solve(inst.problem, "lambda", cap=workloads.ENUM_CAP)
    n_lambda = sum(op.name == "solve.lambda" for op in wl.ops)
    assert n_lambda == len(wl.instances) - len(over)
    assert sum(op.name == "solve.pattern" for op in wl.ops) == len(wl.instances)


def _perturb_dense(out):
    out["maxmin"] = out["maxmin"].copy()
    out["maxmin"][3, 5] += 0.01
    return out


def _perturb_enum(res):
    res.minimals[0] = res.minimals[0] * 0.5
    return res


def _perturb_cli(out):
    rc, stdout, stderr, rss = out
    data = json.loads(stdout)
    data["x_hat"][0] -= 0.1
    return rc, json.dumps(data), stderr, rss


@pytest.mark.parametrize("workload, perturb", [
    ("dense-kernels", _perturb_dense),
    ("enum-optimize", _perturb_enum),
    ("cli-casestudy", _perturb_cli),
])
def test_perturbed_output_is_a_failure(workload, perturb, scratch):
    inputs.generate(workload, 4, scratch)
    op = workloads.WORKLOADS[workload](scratch, 4).ops[0]
    out = op.run()
    assert run.judge(op, out, None)[0] == "ok"
    assert run.judge(op, perturb(out), None)[0] == "mismatch"


def test_failures_are_counted_and_the_loop_goes_on():
    def nap(value=None):
        time.sleep(0.001)
        return value

    def boom():
        nap()
        raise RuntimeError("op failed")

    ops = [workloads.Op("boom", boom, lambda out: {}),
           workloads.Op("wrong", nap, lambda out: workloads.expect(False, "wrong")),
           workloads.Op("fine", lambda: nap(1), lambda out: {"seen": out})]
    recs = run.run_ops(ops, 0.05)
    assert len(recs) >= 6
    assert [r["status"] for r in recs[:3]] == ["error", "mismatch", "ok"]
    assert run.summed(recs[:3], "seen") == 1
