import numpy as np
import pytest

from relq import datasets
from relq.neutro import I, R

from .oracles import chemical_flow_loops, estimate_block_relations_loops


def test_bonded_labor_forward_all_experts():
    expect = {
        1: [0.6, 0.6, 0.4, 0.1, 0.6, 0.5],
        2: [0.6, 0.6, 0.3, 0.1, 0.6, 0.5],
        3: [0.6, 0.5, 0.3, 0.2, 0.6, 0.5],
    }
    for e, vals in expect.items():
        assert np.allclose(datasets.demo_bonded_labor(e, "forward"), vals)


def test_bonded_labor_inverse_all_experts():
    expect = {
        1: [0.6, 0.4, 0.4, 0.6],
        2: [0.6, 0.2, 0.4, 0.6],
        3: [0.6, 0.3, 0.4, 0.6],
    }
    for e, vals in expect.items():
        assert np.allclose(datasets.demo_bonded_labor(e, "inverse"), vals)
    with pytest.raises(ValueError):
        datasets.demo_bonded_labor(1, "sideways")


def test_pallavan_partitions():
    s3 = datasets.pallavan_series("threes")
    assert len(s3.blocks) == 5 and all(len(b) == 3 for b in s3.blocks)
    s5 = datasets.pallavan_series("fives")
    assert len(s5.blocks) == 3 and all(len(b) == 5 for b in s5.blocks)
    sa = datasets.pallavan_series("arbitrary")
    assert [len(b) for b in sa.blocks] == [3, 5, 2, 6]
    with pytest.raises(ValueError):
        datasets.pallavan_series("sixes")


def test_pallavan_peaks():
    peaks = {
        "threes": [8, 10, 13, 16, 20],
        "fives": [10, 16, 20],
        "arbitrary": [8, 10, 14, 16],
    }
    for part, hours in peaks.items():
        series = datasets.pallavan_series(part)
        blocks = datasets.estimate_block_relations(series)
        assert [b["peak_label"] for b in blocks] == hours


def test_pallavan_composition_identity():
    series = datasets.pallavan_series("threes")
    for blk in datasets.estimate_block_relations(series):
        qs = series.q[list(blk["block"])]
        rs = series.r[list(blk["block"])]
        P = blk["P"].cells
        out = np.max(P * qs[None, :], axis=1)
        assert np.allclose(out, rs, atol=1e-9)


def test_partitioned_series_disjoint_blocks():
    with pytest.raises(ValueError):
        datasets.PartitionedSeries((1, 2), [0.1, 0.2], [0.1, 0.2],
                                   [(0, 1), (1,)])


def test_estimate_unattainable_row():
    s = datasets.PartitionedSeries((1, 2), [0.1, 0.1], [0.9, 0.1], [(0, 1)])
    with pytest.raises(ValueError, match="row 0"):
        datasets.estimate_block_relations(s)


def test_block_relations_match_loops():
    # all 12 blocks of the three partitions, bit for bit, and a block whose
    # first target equals its largest input
    tie = datasets.PartitionedSeries((1, 2), [0.5, 0.3], [0.5, 0.3], [(0, 1)])
    for series in [datasets.pallavan_series(p) for p in ("threes", "fives", "arbitrary")] + [tie]:
        got = datasets.estimate_block_relations(series)
        want = estimate_block_relations_loops(series)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g["block"] == w["block"] and g["peak_index"] == w["peak_index"]
            assert g["peak_value"] == w["peak_value"]
            assert np.array_equal(g["P"].cells, w["P"])


def chemical_flow_cases():
    """The default case, 60 seeded cases (half with targets reachable from
    random masked weights, half with random targets) and an unreachable
    target."""
    x0 = np.array([0.20, 0.30, 0.25, 0.15, 0.40])
    yield x0, np.max(np.where(datasets.CHEMICAL_FLOW_MASK, 0.6, 0.0) * x0, axis=1)
    rng = np.random.default_rng(5)
    for k in range(60):
        x = rng.random(5)
        if k % 2:
            yield x, rng.random(5) * 0.8
        else:
            yield x, np.max(datasets.CHEMICAL_FLOW_MASK * rng.random((5, 5)) * x, axis=1)
    yield x0, np.array([2.0, 0.1, 0.1, 0.1, 0.1])


def test_chemical_flow_matches_loops():
    for x, r in chemical_flow_cases():
        res = datasets.demo_chemical_flow(x, r, max_iter=500)
        W, y, it = chemical_flow_loops(x, r, datasets.CHEMICAL_FLOW_MASK, max_iter=500)
        assert np.array_equal(res["weights"], W) and np.array_equal(res["outputs"], y)
        assert res["iterations"] == it


def test_chemical_flow_consistent():
    res = datasets.demo_chemical_flow()
    assert res["converged"]
    assert res["residual"] < 1e-6
    # masked-zero weights never change
    assert np.all(res["weights"][~datasets.CHEMICAL_FLOW_MASK] == 0.0)


def test_chemical_flow_inconsistent_flagged():
    # target exceeding anything reachable from the inputs
    bad = np.array([2.0, 0.1, 0.1, 0.1, 0.1])
    res = datasets.demo_chemical_flow(targets=bad)
    assert not res["converged"]
    assert res["residual"] > 0.5


def test_hiv_shapes():
    assert datasets.HIV_MARKS.shape == (8, 10)
    assert set(np.unique(datasets.HIV_MARKS.cells)) <= {0.0, 1.0}
    assert datasets.HIV_CHECKLIST_MARKS.shape == (5, 5)


def test_compat_graph_properties():
    from relq.relations import relation_properties
    props = relation_properties(datasets.COMPAT_GRAPH)
    assert props["reflexive"] and props["symmetric"]


def test_nre_vectors():
    assert datasets.demo_bonded_labor_nre() == [
        R(0.6), I(0.8), R(0.4), I(0.4), R(0.6), R(0.9)]
    assert datasets.demo_medical_nre() == [
        I(0.5), R(0.3), R(0.3), R(0.3), I(0.5),
        R(0.0), R(0.7), R(0.3), R(0.7), R(0.6)]


def test_demo_names():
    assert len(set(datasets.DEMO_NAMES)) == len(datasets.DEMO_NAMES)
    assert "pallavan" in datasets.DEMO_NAMES
