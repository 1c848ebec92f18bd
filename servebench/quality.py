"""Answer quality under the paper's filtered protocol.

Served answers arrive as ranked entity lists.  When a list covers the
whole vocabulary, the filtered rank of a hard answer is one plus the
number of non-answer entities listed before it, which is the rank
``repro.core.evaluation`` computes from a distance row (minus its
half-credit for exact distance ties, which float64 arcs do not produce
on these graphs).
"""

from __future__ import annotations

import numpy as np

from repro.core import evaluate
from repro.queries import build_workloads
from repro.queries.sampler import GroundedQuery

#: the paper's 16 query structures (EPFO, difference, negation)
PAPER_STRUCTURES = ("1p", "2p", "3p", "2i", "3i", "ip", "pi", "2u", "up",
                    "2d", "3d", "dp", "2in", "3in", "pin", "pni")


def fixed_test_workload(splits, per_structure: int = 15):
    """The FB237 test queries the checkpoint's recorded quality refers to."""
    return build_workloads(splits, train_structures=(),
                           eval_structures=PAPER_STRUCTURES,
                           eval_queries_per_structure=per_structure,
                           seed=0).test


def test_quality(model, workload) -> tuple[float, float]:
    """Filtered MRR and Hits@3 averaged over structures (paper tables)."""
    rows = evaluate(model, workload, ks=(3,))
    mrr = float(np.mean([row.mrr for row in rows.values()]))
    hits3 = float(np.mean([row.hits[3] for row in rows.values()]))
    return mrr, hits3


def ranked_list_quality(ranked: list[int],
                        query: GroundedQuery) -> tuple[float, float]:
    """Filtered reciprocal rank and Hits@3 of one full ranked list."""
    answers = query.all_answers
    targets = query.hard_answers or query.easy_answers
    rr, hits = [], []
    others_before = 0
    for entity in ranked:
        if entity in targets:
            rank = 1 + others_before
            rr.append(1.0 / rank)
            hits.append(1.0 if rank <= 3 else 0.0)
        elif entity not in answers:
            others_before += 1
    if len(rr) != len(targets):
        raise ValueError("ranked list does not cover every answer")
    return float(np.mean(rr)), float(np.mean(hits))


def served_quality(per_structure: dict[str, list[tuple[float, float]]]
                   ) -> tuple[float, float]:
    """Mean over structures of the per-query (rr, hits3) means."""
    mrr = [np.mean([rr for rr, _ in rows]) for rows in per_structure.values()]
    hits = [np.mean([h for _, h in rows]) for rows in per_structure.values()]
    return float(np.mean(mrr)), float(np.mean(hits))
