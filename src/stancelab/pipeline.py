"""End-to-end plumbing: per-topic training, prediction, evaluation."""

from __future__ import annotations

from typing import Mapping, Sequence

from .corpus import Dataset, StanceLabel
from .features import (
    FeatureSetSelector,
    build_feature_space,
    extract_features,
    vectorize,
)
from .linsvm import LinearModel, TrainConfig, predict, train_ovr
from .scoring import EvalReport, score_semeval


def train_topic_models(
    train: Dataset,
    selector: FeatureSetSelector,
    mode: str,
    config: TrainConfig,
    min_df: int = 1,
) -> dict[str, LinearModel]:
    """One model per topic, with a feature space built on that topic's
    training instances only."""
    models: dict[str, LinearModel] = {}
    for topic in train.topics:
        instances = [i for i in train.instances if i.topic == topic]
        feature_sets = [
            extract_features(inst, train.profile_for(inst.author_id), selector)
            for inst in instances
        ]
        space = build_feature_space(feature_sets, selector, min_df=min_df)
        vectors = [vectorize(fs, space) for fs in feature_sets]
        labels = [inst.label for inst in instances]
        models[topic] = train_ovr(
            vectors, labels, mode, config, space, topic=topic
        )
    return models


def predict_dataset(
    models: Mapping[str, LinearModel], dataset: Dataset
) -> list[StanceLabel]:
    """Predict every instance with its topic's model."""
    predictions: list[StanceLabel] = []
    for inst in dataset.instances:
        model = models.get(inst.topic)
        if model is None:
            raise ValueError(f"no model for topic {inst.topic!r}")
        features = extract_features(
            inst, dataset.profile_for(inst.author_id), model.space.selector
        )
        predictions.append(predict(model, vectorize(features, model.space)))
    return predictions


def run_cell(
    train: Dataset,
    test: Dataset,
    selector: FeatureSetSelector,
    mode: str,
    config: TrainConfig,
    min_df: int = 1,
) -> tuple[dict[str, LinearModel], EvalReport, list[StanceLabel]]:
    """Train one (selector, mode) cell and evaluate it on the test split."""
    models = train_topic_models(train, selector, mode, config, min_df=min_df)
    predictions = predict_dataset(models, test)
    gold = [inst.label for inst in test.instances]
    topics = [inst.topic for inst in test.instances]
    return models, score_semeval(gold, predictions, topics), predictions
