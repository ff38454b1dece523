"""Embedded demo datasets and the applied procedures built on them.

Includes the surveyed expert matrices for the bonded-labor study, the
partitioned transport peak-hour series, the HIV checklist/triangle data,
the chemical plant flow structure, a compatibility graph, and two
neutrosophic systems.  The per-block transport relations are returned as
row-wise greatest solutions; the checkable facts are the composition
identity and the peak indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grades import PRODUCT, STOP_TOL, TOL, as_grades
from .neutro import NeutroRelation, neutro_compose
from .relations import Relation, sup_t_compose


# ---------------------------------------------------------------------------
# Bonded-labor expert matrices (6 concepts × 4 attributes)
# ---------------------------------------------------------------------------

BONDED_LABOR_EXPERTS = {
    1: Relation([
        [0.8, 0.0, 0.0, 0.0],
        [0.8, 0.3, 0.3, 0.0],
        [0.1, 0.2, 0.3, 0.4],
        [0.0, 0.1, 0.1, 0.1],
        [0.8, 0.1, 0.2, 0.4],
        [0.2, 0.4, 0.4, 0.9],
    ]),
    2: Relation([
        [0.7, 0.1, 0.0, 0.0],
        [0.9, 0.2, 0.3, 0.0],
        [0.0, 0.1, 0.2, 0.3],
        [0.0, 0.0, 0.1, 0.1],
        [0.9, 0.0, 0.1, 0.4],
        [0.1, 0.2, 0.4, 0.7],
    ]),
    3: Relation([
        [0.9, 0.0, 0.0, 0.0],
        [0.5, 0.3, 0.4, 0.1],
        [0.2, 0.2, 0.2, 0.3],
        [0.0, 0.0, 0.1, 0.2],
        [0.7, 0.2, 0.2, 0.4],
        [0.2, 0.3, 0.3, 0.8],
    ]),
}

BONDED_LABOR_Q = np.array([0.6, 0.5, 0.7, 0.5])
BONDED_LABOR_R = np.array([0.6, 0.4, 0.5, 0.4, 0.2, 0.6])


def demo_bonded_labor(expert, direction):
    """Forward: P ∘ Q with the survey weights.  Inverse: Pᵀ ∘ R."""
    from .relations import MaxMin, compose, transpose

    P = BONDED_LABOR_EXPERTS[expert]
    if direction == "forward":
        out = compose(MaxMin(), P, BONDED_LABOR_Q.reshape(-1, 1))
    elif direction == "inverse":
        out = compose(MaxMin(), transpose(P), BONDED_LABOR_R.reshape(-1, 1))
    else:
        raise ValueError("direction must be forward/inverse")
    return out.cells[:, 0]


# ---------------------------------------------------------------------------
# Transport peak-hour series
# ---------------------------------------------------------------------------

PALLAVAN_HOURS = list(range(6, 23))          # hour endings 6..22
PALLAVAN_PASSENGERS = [
    96, 71, 222, 269, 300, 220, 241, 265, 249, 114, 381, 288, 356, 189,
    376, 182, 67,
]
PALLAVAN_Q_SCALE = 1e-2
PALLAVAN_R_SCALE = 1e-4


@dataclass(frozen=True)
class PartitionedSeries:
    labels: tuple
    q: np.ndarray
    r: np.ndarray
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "q", as_grades(self.q, None, "q"))
        object.__setattr__(self, "r", as_grades(self.r, self.q.size, "r", "entries of q"))
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        seen = set()
        for k, blk in enumerate(self.blocks):
            if not all(0 <= i < self.q.size for i in blk):
                raise ValueError(f"block {k} {blk} has an index outside the series "
                                 f"of {self.q.size} points")
            if seen & set(blk):
                raise ValueError("blocks must be pairwise disjoint")
            seen |= set(blk)


def pallavan_series(partition="threes"):
    """The surveyed series under one of the three partition schemes:
    'threes' = five blocks of three (first 15 hours), 'fives' = three
    blocks of five (drops the first and last hour), 'arbitrary' = sizes
    3, 5, 2, 6 over the first 16 hours."""
    hours = PALLAVAN_HOURS
    q = np.array(hours, float) * PALLAVAN_Q_SCALE
    r = np.array(PALLAVAN_PASSENGERS, float) * PALLAVAN_R_SCALE
    if partition == "threes":
        blocks = [tuple(range(s, s + 3)) for s in range(0, 15, 3)]
    elif partition == "fives":
        blocks = [tuple(range(s, s + 5)) for s in range(1, 16, 5)]
    elif partition == "arbitrary":
        blocks = [(0, 1, 2), (3, 4, 5, 6, 7), (8, 9), (10, 11, 12, 13, 14, 15)]
    else:
        raise ValueError("partition must be threes/fives/arbitrary")
    return PartitionedSeries(hours, q, r, blocks)


def estimate_block_relations(series: PartitionedSeries):
    """Per block: the greatest max-product relation reproducing the block's
    outputs, plus the peak position (argmax of r, ties to the smallest
    index).  Raises when a row's output is unattainable."""
    out = []
    for blk in series.blocks:
        qs = series.q[list(blk)]
        rs = series.r[list(blk)]
        short = np.flatnonzero(np.max(qs) < rs - TOL)
        if short.size:
            ridx = blk[short[0]]
            raise ValueError(f"row {ridx} target {series.r[ridx]} unattainable from inputs")
        # row k: the residua of the inputs at rs[k], checked by composing back
        P = PRODUCT.apply_residuum(qs[None, :], rs[:, None])
        off = np.flatnonzero(np.abs(sup_t_compose(PRODUCT, P, qs[:, None])[:, 0] - rs) > TOL)
        if off.size:
            raise ValueError(f"composition identity failed at block row {off[0]}")
        peak_pos = int(np.argmax(rs))
        peak_idx = blk[peak_pos]
        out.append({
            "block": blk,
            "P": Relation(P),
            "peak_index": peak_idx,
            "peak_label": series.labels[peak_idx],
            "peak_value": rs[peak_pos],
        })
    return out


# ---------------------------------------------------------------------------
# Chemical plant flow structure (5 nodes, masked weights)
# ---------------------------------------------------------------------------

CHEMICAL_FLOW_MASK = np.array([
    [1, 1, 0, 0, 0],
    [0, 1, 1, 0, 0],
    [0, 0, 1, 1, 0],
    [1, 0, 0, 0, 1],
    [0, 0, 0, 0, 1],
], dtype=bool)


def demo_chemical_flow(inputs=None, targets=None, eta=0.5, max_iter=10_000,
                       tol=STOP_TOL):
    """Train the masked node weights so max_j w_ij x_j matches each target
    (clipped linear activation); masked-zero weights never change."""
    if inputs is None:
        inputs = np.array([0.20, 0.30, 0.25, 0.15, 0.40])
    if targets is None:
        W0 = np.where(CHEMICAL_FLOW_MASK, 0.6, 0.0)
        targets = np.max(W0 * np.asarray(inputs)[None, :], axis=1)
    x = np.asarray(inputs, float)
    r = np.asarray(targets, float)
    W = np.where(CHEMICAL_FLOW_MASK, 1.0, 0.0)
    it = 0
    for it in range(1, max_iter + 1):
        y = np.clip(np.max(W * x[None, :], axis=1), 0.0, 1.0)
        if float(np.max(np.abs(y - r))) < tol:
            break
        # lower each unmasked weight of an overshooting node whose term exceeds r
        fire = CHEMICAL_FLOW_MASK & (y > r + tol / 10)[:, None] & (W * x > r[:, None])
        W[fire] = np.maximum(0.0, W - eta * (y - r)[:, None])[fire]
    y = np.clip(np.max(W * x[None, :], axis=1), 0.0, 1.0)
    residual = float(np.max(np.abs(y - r)))
    return {
        "weights": W,
        "mask": CHEMICAL_FLOW_MASK,
        "inputs": x,
        "targets": r,
        "outputs": y,
        "residual": residual,
        "converged": residual < tol,
        "iterations": it,
    }


# ---------------------------------------------------------------------------
# HIV observation data (8 criteria × 10 subjects, binary)
# ---------------------------------------------------------------------------

HIV_CRITERIA = tuple(f"C{i}" for i in range(1, 9))
HIV_SUBJECTS = tuple(f"P{i}" for i in range(1, 11))

HIV_MARKS = Relation([
    [0, 0, 1, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    [1, 1, 1, 0, 1, 0, 1, 0, 1, 0],
    [0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 1, 1, 0, 0, 0, 0, 1],
    [1, 0, 1, 0, 1, 0, 0, 1, 1, 0],
    [1, 1, 0, 1, 0, 0, 1, 0, 0, 0],
])

# checklist study: 5 items (rows) × 5 subjects (columns) in the source
# table; stored here subjects × items
HIV_CHECKLIST_MARKS = Relation(np.array([
    [0, 0, 0, 0, 1],
    [1, 1, 1, 1, 1],
    [1, 1, 0, 0, 1],
    [1, 0, 1, 1, 0],
    [0, 1, 0, 0, 0],
]).T)


# ---------------------------------------------------------------------------
# Compatibility graph (8×8, reflexive and symmetric)
# ---------------------------------------------------------------------------

COMPAT_GRAPH = Relation([
    [1.0, 0.3, 0.0, 0.0, 0.4, 0.0, 0.0, 0.6],
    [0.3, 1.0, 0.5, 0.3, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.5, 1.0, 0.0, 0.0, 0.7, 0.6, 0.8],
    [0.0, 0.3, 0.0, 1.0, 0.2, 0.0, 0.7, 0.5],
    [0.4, 0.0, 0.0, 0.2, 1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.7, 0.0, 0.0, 1.0, 0.2, 0.0],
    [0.0, 0.0, 0.6, 0.7, 0.0, 0.2, 1.0, 0.8],
    [0.6, 0.0, 0.8, 0.5, 0.0, 0.0, 0.8, 1.0],
])


# ---------------------------------------------------------------------------
# Neutrosophic systems
# ---------------------------------------------------------------------------

# bonded-labor attributes with indeterminate survey cells; the ".I" cell of
# the source is encoded as 0.8I (forced by the published output vector)
BONDED_LABOR_NRE_P = NeutroRelation([
    ["0.6", "0",    "0.3I", "0"],
    ["0.7", "0.4",  "0.3",  "0.8I"],
    ["0.3", "0.4",  "0.3",  "0.3"],
    ["0.3I", "0",   "0.3",  "0.4I"],
    ["0.8", "0.4I", "0.2",  "0.4"],
    ["0",   "0.4",  "0.5",  "0.9"],
])
BONDED_LABOR_NRE_Q = ["0.6", "0.5", "0.7", "0.9"]

# medical symptom matrix (8 symptoms × 10 findings).  Two cells are
# reconstructed from the published output vector: S6,c3 is read as 1.0 and
# column 6 is zero except S5 (the printed .2/.3/.9 entries contradict the
# published zero output at position 6).
MEDICAL_NRE_P = NeutroRelation([
    ["0",    "0",    "0.2I", "0.5",  "0",    "0", "0.6",  "0.7", "0",    "0.5I"],
    ["0",    "0",    "0",    "0",    "0",    "0", "1",    "0",   "0.9",  "0.6"],
    ["0.5I", "0",    "0",    "0",    "0.9",  "0", "0",    "0",   "0",    "0"],
    ["0.7",  "0",    "0",    "0.8I", "0",    "0", "0",    "0.8", "0",    "0"],
    ["0",    "0.8I", "0.3",  "0",    "0.7",  "1", "0",    "0.3", "0.7I", "0.7"],
    ["0.3",  "0.7",  "1.0",  "0.3",  "0",    "0", "0",    "1",   "1",    "0"],
    ["0.9",  "0.4",  "0",    "0",    "0.8I", "0", "0",    "0",   "0",    "0.4"],
    ["0.2I", "0",    "0",    "0",    "0",    "0", "0.7I", "0",   "0.2",  "0.3"],
])
MEDICAL_NRE_Q = ["0.3", "0.7", "0.5I", "0.3", "0", "0.3", "0.2", "0.3I"]


def demo_bonded_labor_nre():
    Q = NeutroRelation([[v] for v in BONDED_LABOR_NRE_Q])
    return [row[0] for row in neutro_compose("graded", BONDED_LABOR_NRE_P, Q).cells]


def demo_medical_nre():
    return list(neutro_compose("graded", NeutroRelation(MEDICAL_NRE_Q), MEDICAL_NRE_P).cells[0])


# ---------------------------------------------------------------------------
# Demo registry (CLI entry points)
# ---------------------------------------------------------------------------

DEMO_NAMES = (
    "pallavan", "chemical-flow", "bonded-labor-1", "bonded-labor-2",
    "bonded-labor-3", "hiv-checklist", "hiv-triangle", "bonded-labor-nre",
    "medical-nre", "compat-graph",
)
