"""End-to-end plumbing: per-topic training, prediction, evaluation.

Training and prediction build index rows with the same batch vectorizer,
``features.index_rows``, BATCH_SIZE instances at a time, and pass them
straight to ``linsvm.train_ovr`` and ``linsvm.predict``. Training finds
each topic's vocabulary from the feature strings of its instances, read one
instance at a time, and drops the topic's rows once its model is fit;
prediction never builds feature strings. Prediction groups instances by
topic and predicts each batch with one call, so predictions equal those of
``predict`` on the set-based rows of ``tests/vectorize_reference.py``,
instance for instance. The batch size bounds the character kernel's
arrays, which grow with the batch's total text length.

``predict_stream`` is the streaming form that ``predict`` uses: it joins
and predicts STREAM_CHUNK instances at a time, so that only one chunk of
instances is held, whatever the size of the tweets file. Each row is
vectorized and predicted on its own, so how the chunks and batches are cut
changes no prediction. ``predict`` reads its tweets file twice, once for
the authors and topics and once for the chunks, so that file must be a
regular file, not a pipe.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

from .corpus import Dataset, LabeledInstance, ProfileTable, StanceLabel, join
from .features import (
    FeatureSetSelector,
    build_feature_space,
    extract_features,
    index_rows,
)
from .linsvm import LinearModel, TrainConfig, predict, train_ovr
from .scoring import EvalReport, score_semeval

BATCH_SIZE = 128
# Instances that predict_stream joins and predicts at a time. On a
# 20,160-tweet corpus, predict's peak RSS read 40.8 MB with 1024 and 41.9 MB
# with 4096, and wall time was within run-to-run noise.
STREAM_CHUNK = 8 * BATCH_SIZE

T = TypeVar("T")


def _batches(items: Sequence[T]) -> Iterator[Sequence[T]]:
    for start in range(0, len(items), BATCH_SIZE):
        yield items[start : start + BATCH_SIZE]


def train_topic_models(
    train: Dataset,
    selector: FeatureSetSelector,
    mode: str,
    config: TrainConfig,
) -> dict[str, LinearModel]:
    """One model per topic, with a feature space built on that topic's
    training instances only, keeping the features of at least
    config.min_df of them. An empty training set raises ValueError."""
    if not train.instances:
        raise ValueError("no training instances")
    models: dict[str, LinearModel] = {}
    for topic in train.topics:
        instances = [i for i in train.instances if i.topic == topic]
        space = build_feature_space(
            (extract_features(inst, train.profiles, selector) for inst in instances),
            selector,
            min_df=config.min_df,
        )
        rows = [
            row for batch in _batches(instances) for row in index_rows(space, batch, train)
        ]
        labels = [inst.label for inst in instances]
        models[topic] = train_ovr(rows, labels, mode, config, space, topic=topic)
        del rows
    return models


def check_topics(models: Mapping[str, LinearModel], topics: Iterable[str]) -> None:
    """Raise ValueError naming the first topic that has no model."""
    for topic in topics:
        if topic not in models:
            raise ValueError(f"no model for topic {topic!r}")


def predict_dataset(
    models: Mapping[str, LinearModel], dataset: Dataset
) -> list[StanceLabel]:
    """Predict every instance with its topic's model."""
    by_topic: dict[str, list[int]] = {}
    for pos, inst in enumerate(dataset.instances):
        by_topic.setdefault(inst.topic, []).append(pos)
    check_topics(models, by_topic)
    predictions: list[StanceLabel] = [StanceLabel.NONE] * len(dataset.instances)
    for topic, positions in by_topic.items():
        model = models[topic]
        for batch in _batches(positions):
            instances = [dataset.instances[pos] for pos in batch]
            rows = index_rows(model.space, instances, dataset)
            for pos, label in zip(batch, predict(model, rows)):
                predictions[pos] = label
    return predictions


def predict_stream(
    models: Mapping[str, LinearModel],
    instances: Iterable[LabeledInstance],
    profiles: ProfileTable,
    require_profile: bool,
) -> Iterator[tuple[LabeledInstance, StanceLabel]]:
    """Each instance that joins with profiles (see corpus.join), with its
    prediction. Instances are read, joined and predicted STREAM_CHUNK at a
    time, so only one chunk is held."""
    instances = iter(instances)
    while chunk := list(islice(instances, STREAM_CHUNK)):
        dataset, _ = join(chunk, profiles, require_profile=require_profile)
        yield from zip(dataset.instances, predict_dataset(models, dataset))


def run_cell(
    train: Dataset,
    test: Dataset,
    selector: FeatureSetSelector,
    mode: str,
    config: TrainConfig,
) -> tuple[dict[str, LinearModel], EvalReport, list[StanceLabel]]:
    """Train one (selector, mode) cell and evaluate it on the test split."""
    models = train_topic_models(train, selector, mode, config)
    predictions = predict_dataset(models, test)
    gold = [inst.label for inst in test.instances]
    topics = [inst.topic for inst in test.instances]
    return models, score_semeval(gold, predictions, topics), predictions
