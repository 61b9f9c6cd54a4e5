"""Ablations of this reproduction's own design choices.

Beyond the paper's ablations (Fig 2), three substrate-level decisions of
this reproduction are worth quantifying:

* the negative-sample ratio ``r`` of the decomposed contrastive loss
  (Sec III-D.1): at miniature scale the alignment-dominant setting must
  win, which is why the repo defaults to r = 0;
* the structure prior that anchors the augmentor to observed edges: it
  prevents the empty-view degenerate optimum;
* the higher-order candidate budget feeding the augmentor.
"""

import pytest

from repro.core import GraphAug

from harness import (BENCH_MODEL_CONFIG, fmt, format_table, get_dataset,
                     once, run_model)
from repro.train import TrainConfig

DATASET = "retail_rocket"
TRAIN = TrainConfig(epochs=40, batch_size=512, eval_every=20)


def build_with_class_overrides(**class_attrs):
    def builder(dataset, config, seed=0):
        model = GraphAug(dataset, config, seed=seed)
        for key, value in class_attrs.items():
            setattr(model, key, value)
        if "higher_order_budget" in class_attrs:
            # the candidate set is built in __init__, so rebuild it
            from repro.core import build_candidate_edges
            model.candidates = build_candidate_edges(
                dataset.train, model.aug_rng,
                higher_order_budget=model.higher_order_budget)
        return model
    return builder


def run_ablation():
    results = {}
    # negative-sample ratio sweep
    for r in (0.0, 0.1, 1.0):
        config = BENCH_MODEL_CONFIG.with_overrides(negative_weight=r)
        run = run_model("graphaug", DATASET, model_config=config,
                        train_config=TRAIN,
                        cache_key_extra=("design-r", r))
        results[("negative_weight", r)] = run.metrics["recall@20"]
    # structure prior on/off
    for weight in (0.0, 0.2):
        run = run_model(f"graphaug-prior{weight}", DATASET,
                        model_config=BENCH_MODEL_CONFIG,
                        train_config=TRAIN,
                        builder=build_with_class_overrides(
                            prior_weight=weight),
                        cache_key_extra=("design-prior", weight))
        results[("prior_weight", weight)] = run.metrics["recall@20"]
    # higher-order candidate budget
    for budget in (0.0, 0.5):
        run = run_model(f"graphaug-budget{budget}", DATASET,
                        model_config=BENCH_MODEL_CONFIG,
                        train_config=TRAIN,
                        builder=build_with_class_overrides(
                            higher_order_budget=budget),
                        cache_key_extra=("design-budget", budget))
        results[("higher_order_budget", budget)] = run.metrics["recall@20"]
    return results


@pytest.mark.benchmark(group="ablation")
def test_design_choice_ablations(benchmark):
    results = once(benchmark, run_ablation)
    rows = [[knob, value, fmt(recall)]
            for (knob, value), recall in results.items()]
    print()
    print(format_table(["knob", "value", "Recall@20"], rows,
                       title=f"Design-choice ablations ({DATASET})"))

    # alignment-dominant contrast must beat plain InfoNCE at this scale
    assert results[("negative_weight", 0.0)] > \
        results[("negative_weight", 1.0)]
