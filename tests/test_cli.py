import json

import numpy as np
import pytest

from relq import datasets
from relq.cli import main


@pytest.fixture
def problem_file(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({
        "A": [[0.5, 0.3], [0.7, 0.3]],
        "b": [0.5, 0.3],
        "composition": "max-min",
    }))
    return str(f)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_feasible(capsys, problem_file):
    code, out, _ = run(capsys, ["solve", problem_file, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["feasible"]
    assert data["x_hat"] == [1.0, 0.5]
    mins = sorted(tuple(m) for m in data["minimals"])
    assert mins == [(0.0, 0.5), (0.5, 0.0)]


@pytest.mark.parametrize("method", ["lambda", "pattern"])
def test_solve_methods_agree(capsys, problem_file, method):
    code, out, _ = run(capsys, ["solve", problem_file, "--method", method,
                                "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert sorted(tuple(m) for m in data["minimals"]) == [(0.0, 0.5), (0.5, 0.0)]


def test_solve_infeasible_exit_2(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"A": [[0.1]], "b": [0.9]}))
    code, out, _ = run(capsys, ["solve", str(f), "--format", "json"])
    assert code == 2
    assert not json.loads(out)["feasible"]


def test_solve_parse_error_exit_1(capsys, tmp_path):
    f = tmp_path / "garbage.json"
    f.write_text("{not json")
    code, _, err = run(capsys, ["solve", str(f)])
    assert code == 1
    assert "error" in err


def test_optimize(capsys, problem_file):
    code, out, _ = run(capsys, ["optimize", problem_file, "--c", "2,1",
                                "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["Z"] == pytest.approx(0.5)
    assert data["certificate"] == "exact-ip"


def test_compose(capsys, tmp_path):
    p = tmp_path / "P.csv"
    q = tmp_path / "Q.csv"
    p.write_text("0.8,0.0\n0.2,0.9\n")
    q.write_text("0.6\n0.5\n")
    code, out, _ = run(capsys, ["compose", str(p), str(q), "--format", "csv"])
    assert code == 0
    vals = [float(line.split(",")[0]) for line in out.strip().splitlines()]
    assert vals == [0.6, 0.5]


def test_compose_dim_mismatch(capsys, tmp_path):
    p = tmp_path / "P.csv"
    q = tmp_path / "Q.csv"
    p.write_text("0.8,0.0\n")
    q.write_text("0.6\n")
    code, _, err = run(capsys, ["compose", str(p), str(q)])
    assert code == 1
    assert "1x2" in err and "1x1" in err
    p.write_text("# mode: graded\n0.3,I\n")
    q.write_text("# mode: graded\n0.1\n")
    assert run(capsys, ["compose", str(p), str(q), "--mode", "graded"]) == (
        1, "", "error: cannot compose 1x2 with 1x1\n")


def test_compose_ragged_csv(capsys, tmp_path):
    p = tmp_path / "P.csv"
    q = tmp_path / "Q.csv"
    p.write_text("0.8,0.0\n0.2\n0.1,0.3\n")
    q.write_text("0.6\n0.5\n")
    code, out, err = run(capsys, ["compose", str(p), str(q)])
    assert code == 1 and out == ""
    assert "ragged grid: row 0 has length 2 but row 1 has length 1" in err


def test_compose_neutro(capsys, tmp_path):
    p = tmp_path / "P.csv"
    q = tmp_path / "Q.csv"
    p.write_text("# mode: absorbing\n0.3,I,1\n0,0.9,0.2\n0.7,0,0.4\n")
    q.write_text("# mode: absorbing\n0.1\nI\n0\n")
    code, out, _ = run(capsys, ["compose", str(p), str(q),
                                "--mode", "absorbing", "--format", "csv"])
    assert code == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert lines == ["I", "I", "0.1"]


def test_learn_rule_k(capsys, tmp_path):
    f = tmp_path / "t.json"
    f.write_text(json.dumps({"inputs": [[0.5, 0.7]], "targets": [[0.5, 0.3]]}))
    code, out, _ = run(capsys, ["learn", str(f), "--rule", "K",
                                "--tnorm", "product", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["converged"]
    W = np.array(data["W"])
    img = np.array([max(W[k, j] * [0.5, 0.7][k] for k in range(2))
                    for j in range(2)])
    assert np.allclose(img, [0.5, 0.3])


def test_diagnose(capsys, tmp_path):
    f = tmp_path / "k.json"
    f.write_text(json.dumps({
        "disorders": ["d1", "d2"],
        "manifestations": ["m1", "m2"],
        "certain": {"d1": ["m1"], "d2": ["m2"]},
        "forbidden": {"d1": [], "d2": []},
        "observed_present": ["m1"],
        "observed_absent": ["m2"],
    }))
    code, out, _ = run(capsys, ["diagnose", str(f), "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["D_hat"] == ["d1"]


def test_demo_unknown_lists_names(capsys):
    code, _, err = run(capsys, ["demo", "nope"])
    assert code == 1
    assert "pallavan" in err


def test_demo_pallavan_blocks_3(capsys):
    code, out, _ = run(capsys, ["demo", "pallavan", "--blocks", "3"])
    assert code == 0
    hours = [int(line.split("hour ending ")[1].split()[0])
             for line in out.strip().splitlines()]
    assert hours == [10, 16, 20]


@pytest.mark.parametrize("name", datasets.DEMO_NAMES)
def test_demo_json_is_one_object(capsys, name):
    code, out, _ = run(capsys, ["demo", name, "--format", "json"])
    assert code == 0
    assert isinstance(json.loads(out), dict) and out.count("\n") == 1


def test_demo_tables_print_a_lone_entry_bare(capsys):
    assert run(capsys, ["demo", "bonded-labor-nre"])[1] == "0.6 0.8I 0.4 0.4I 0.6 0.9\n"
    assert run(capsys, ["demo", "bonded-labor-1"])[1] == (
        "forward: 0.6 0.6 0.4 0.1 0.6 0.5\ninverse: 0.6 0.4 0.4 0.6\n")


def test_demo_deterministic(capsys):
    code1, out1, _ = run(capsys, ["demo", "hiv-triangle", "--round", "2"])
    code2, out2, _ = run(capsys, ["demo", "hiv-triangle", "--round", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_round_flag_half_up(capsys, tmp_path):
    p = tmp_path / "P.csv"
    q = tmp_path / "Q.csv"
    p.write_text("0.625\n")
    q.write_text("1.0\n")
    code, out, _ = run(capsys, ["compose", str(p), str(q),
                                "--format", "csv", "--round", "2"])
    assert code == 0
    assert out.strip() == "0.63"


GOOD = {"A": [[0.5, 0.3], [0.7, 0.3]], "b": [0.5, 0.3]}
TRAINING = {"inputs": [[0.5, 0.7]], "targets": [[0.5, 0.3]]}
KNOWLEDGE = {"disorders": ["d1"], "manifestations": ["m1"], "certain": {"d1": ["m1"]},
             "observed_present": ["m1"]}


@pytest.mark.parametrize("argv, problem, env, code, out_has, err_has", [
    # bad grades are errors (exit 1), never "infeasible"
    (["solve"], {"A": [[float("nan"), 0.5], [0.3, 0.2]], "b": [0.5, 0.3]}, None,
     1, "", "must be finite and lie in [0, 1]"),
    (["solve"], {"A": [[2.0, 0.5], [0.3, 0.2]], "b": [0.5, 0.3]}, None,
     1, "", "must be finite and lie in [0, 1]"),
    (["optimize", "--c", "1,1"], {"A": [[0.5], [0.2]], "b": [float("inf")]}, None,
     1, "", "must be finite and lie in [0, 1]"),
    # a non-finite cost is an error, not an arithmetic failure
    (["optimize", "--c", "nan,1"], GOOD, None, 1, "", "cost vector must be finite, got nan"),
    (["optimize", "--c", "inf,1"], GOOD, None, 1, "", "cost vector must be finite, got inf"),
    # an unsupported composition is an error, an unsolvable system exit 2
    (["optimize", "--c", "2,1", "--comp", "sup-t:drastic"], GOOD, None,
     1, "", "continuous t-norm"),
    (["optimize", "--c", "1"], {"A": [[0.1]], "b": [0.9]}, None,
     2, '"feasible": false', ""),
    # RELQ_CAP is read when no --cap is given, and a malformed one is an error
    (["solve"], GOOD, "abc", 1, "", "RELQ_CAP must be a positive integer"),
    (["solve", "--cap", "5"], GOOD, "abc", 0, '"feasible": true', ""),
    (["solve"], {"A": [[0.5] * 3] * 3, "b": [0.5] * 3}, "27", 0, '"feasible": true', ""),
    (["solve"], {"A": [[0.5] * 3] * 3, "b": [0.5] * 3}, "26", 1, "", "exceed cap 26"),
    # --cap is checked as RELQ_CAP is
    (["solve", "--cap", "0"], GOOD, None, 1, "", "cap must be a positive integer, got 0"),
    # a ragged A is named as such
    (["solve"], {"A": [[0.5, 0.3], [0.7]], "b": [0.5, 0.3]}, None,
     1, "", "ragged grid: row 0 has length 2 but row 1 has length 1"),
    # removed options are rejected by the parser
    (["solve", "--seed", "3"], GOOD, None, 1, "", ""),
    (["demo", "pallavan", "--mode", "graded"], None, None, 1, "", ""),
    (["solve", "--tol", "0.5"], GOOD, None, 1, "", ""),
    (["optimize", "--c", "2,1", "--cap", "5"], GOOD, None, 1, "", ""),
    # --comp only where a composition is read, --round only where grades print
    (["learn"], TRAINING, None, 0, '"W"', ""),
    (["learn", "--comp", "sup-t:drastic"], TRAINING, None, 1, "", ""),
    (["diagnose"], KNOWLEDGE, None, 0, '"D_hat"', ""),
    (["diagnose", "--comp", "max-min"], KNOWLEDGE, None, 1, "", ""),
    (["diagnose", "--round", "2"], KNOWLEDGE, None, 1, "", ""),
    (["demo", "pallavan", "--comp", "max-min"], None, None, 1, "", ""),
    # an alpha outside [0, 1] is an error, not an empty or a full cut
    (["demo", "hiv-triangle", "--alpha", "nan"], None, None, 1, "",
     "error: alpha must be finite and lie in [0, 1], got nan"),
    (["demo", "hiv-triangle", "--alpha", "-1"], None, None, 1, "",
     "error: alpha must be finite and lie in [0, 1], got -1.0"),
    # rule B is Goedel's residuum: like basic, it takes only min
    (["learn", "--rule", "B", "--tnorm", "product"], TRAINING, None, 1, "",
     "error: the B rule is defined for the min t-norm"),
    (["learn", "--rule", "basic", "--tnorm", "product"], TRAINING, None, 1, "",
     "error: the basic rule is defined for the min t-norm"),
    # a composition is a string: no dict form, no number
    (["solve"], {**GOOD, "composition": {"max-product": {}}}, None, 1, "",
     "error: unknown composition {'max-product': {}}"),
    (["solve"], {**GOOD, "composition": 5}, None, 1, "", "error: unknown composition 5"),
    (["demo", "compat-graph", "--round", "-1"], None, None, 1, "",
     "error: --round must be an integer of at least 0, got -1"),
], ids=["solve-nan-in-A", "solve-A-above-1", "optimize-inf-in-b", "optimize-nan-cost",
        "optimize-inf-cost", "optimize-drastic",
        "optimize-infeasible", "solve-bad-env-cap", "solve-flag-cap-wins",
        "solve-env-cap-fits", "solve-env-cap-exceeded", "solve-flag-cap-0", "solve-ragged-A", "no-seed-option",
        "no-demo-mode-option", "no-solve-tol-option", "no-optimize-cap-option",
        "learn-ok", "no-learn-comp-option", "diagnose-ok", "no-diagnose-comp-option",
        "no-diagnose-round-option", "no-demo-comp-option", "demo-alpha-nan",
        "demo-alpha-negative", "learn-B-product", "learn-basic-product",
        "solve-dict-composition", "solve-number-composition", "demo-round-negative"])
def test_error_contract(capsys, monkeypatch, tmp_path, argv, problem, env, code,
                        out_has, err_has):
    if env is None:
        monkeypatch.delenv("RELQ_CAP", raising=False)
    else:
        monkeypatch.setenv("RELQ_CAP", env)
    if problem is not None:
        f = tmp_path / "p.json"
        f.write_text(json.dumps(problem))
        argv = [argv[0], str(f), *argv[1:]]
    got, out, err = run(capsys, [*argv, "--format", "json"])
    assert got == code
    assert out_has in out and err_has in err
    if code == 1:
        assert out == ""


def _shown(v):
    """A JSON scalar as the tables print it."""
    return f"{v:.9g}" if isinstance(v, float) else str(v)


TINY = {"A": [[0.7]], "b": [0.3], "composition": "max-product", "c": [1.0]}


@pytest.mark.parametrize("argv, payload", [
    (["solve"], GOOD),
    (["solve"], {"A": [[0.1]], "b": [0.9]}),
    (["optimize", "--c", "2,1"], GOOD),
    (["learn", "--rule", "K", "--tnorm", "product"], TRAINING),
    (["diagnose"], {**KNOWLEDGE, "disorders": ["d1", "d2"],
                    "certain": {"d1": ["m1"], "d2": ["m1"]}}),
], ids=["solve", "solve-infeasible", "optimize", "learn", "diagnose"])
def test_table_names_every_json_key(capsys, tmp_path, argv, payload):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(payload))
    argv = [argv[0], str(f), *argv[1:]]
    doc = json.loads(run(capsys, [*argv, "--format", "json"])[1])
    lines = run(capsys, argv)[1].splitlines()
    assert len(doc) > 1
    for key, val in doc.items():
        if isinstance(val, dict):  # a "key:" line, then one line per entry
            want = [f"{key}:", *(f"  {k}: {_shown(v)}" for k, v in val.items())]
        elif isinstance(val, list) and val and isinstance(val[0], list):  # a matrix
            want = [f"{key}:"]
        elif isinstance(val, list):
            want = [f"{key}: " + " ".join(map(_shown, val))]
        else:
            want = [f"{key}: {_shown(val)}"]
        assert set(want) <= set(lines)


@pytest.mark.parametrize("argv, payload", [
    (["solve"], TINY),
    (["optimize"], TINY),
    (["learn", "--rule", "K", "--tnorm", "product"], TRAINING),
    (["demo", "pallavan"], None),
], ids=["solve", "optimize", "learn", "demo-pallavan"])
def test_round_applies_to_json(capsys, tmp_path, argv, payload):
    if payload is not None:
        f = tmp_path / "in.json"
        f.write_text(json.dumps(payload))
        argv = [argv[0], str(f), *argv[1:]]
    out = run(capsys, [*argv, "--format", "json", "--round", "2"])[1]
    floats = []
    json.loads(out, parse_float=lambda s: floats.append(s) or float(s))
    assert floats and all(len(s.partition(".")[2]) <= 2 for s in floats)
