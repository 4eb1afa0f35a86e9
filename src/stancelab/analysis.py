"""Post-hoc analyses: network overlap, influential features, user consistency."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Dataset, ProfileTable, StanceLabel, write_csv
from .linsvm import LinearModel


def jaccard(a: Iterable, b: Iterable) -> float:
    """|a n b| / |a u b|, with 0.0 for two empty sets."""
    sa, sb = set(a), set(b)
    union = len(sa | sb)
    if union == 0:
        return 0.0
    return len(sa & sb) / union


# Width, in percentage points, of the overlap histogram's bins.
OVERLAP_BIN_WIDTH = 5.0


@dataclass(frozen=True)
class OverlapDistribution:
    """Per-user Jaccard scores between two profile sets."""

    values: tuple[float, ...]
    excluded: int  # users with both sets empty

    def histogram(self) -> list[tuple[float, float, int]]:
        """(bin_low, bin_high, count) over percentage bins of [0, 100]."""
        n_bins = round(100.0 / OVERLAP_BIN_WIDTH)
        counts = [0] * n_bins
        for value in self.values:
            pct = value * 100.0
            counts[min(int(pct // OVERLAP_BIN_WIDTH), n_bins - 1)] += 1
        return [
            (i * OVERLAP_BIN_WIDTH, (i + 1) * OVERLAP_BIN_WIDTH, count)
            for i, count in enumerate(counts)
        ]


def network_overlap(profiles: ProfileTable, pair: tuple[str, str]) -> OverlapDistribution:
    """Per-user Jaccard similarity between two named profile sets.

    Every family numbers its members in the table's one vocabulary, so
    member ids are compared. Users with both sets empty are excluded from
    the distribution and counted separately.
    """
    if not profiles:
        raise ValueError("no profiles to analyze")
    field_a, field_b = pair
    values: list[float] = []
    excluded = 0
    for user_id in sorted(profiles):
        set_a, set_b = profiles.members(field_a, user_id), profiles.members(field_b, user_id)
        if not len(set_a) and not len(set_b):
            excluded += 1
            continue
        values.append(jaccard(set_a, set_b))
    return OverlapDistribution(values=tuple(values), excluded=excluded)


@dataclass(frozen=True)
class RankedFeatures:
    label: StanceLabel
    topic: str
    entries: tuple[tuple[str, float], ...]  # weight desc, then feature asc


def top_features(
    model: LinearModel, cls: StanceLabel, topic: str, n: int
) -> RankedFeatures:
    """Top n features by signed weight toward the class, ties by name.

    One stable argsort of the negated weights over the columns in name
    order; spaces from build_feature_space index their names in that order
    already. The weights must be finite (load_bundle checks them).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if cls not in model.classes:
        raise ValueError(f"class {cls.value} not in model classes")
    names = list(model.space.index_of)
    cols = list(model.space.index_of.values())
    if any(a > b for a, b in zip(names, names[1:])):
        names, cols = map(list, zip(*sorted(zip(names, cols))))
    weights = model.class_rows()[0][model.classes.index(cls)][cols]
    top = np.argsort(-weights, kind="stable")[:n]
    entries = zip([names[i] for i in top.tolist()], weights[top].tolist())
    return RankedFeatures(label=cls, topic=topic, entries=tuple(entries))


def _strip_namespace(feature: str) -> str:
    return feature.split(":", 1)[1] if ":" in feature else feature


def topn_overlap_curve(
    ranked_a: RankedFeatures, ranked_b: RankedFeatures, n_max: int = 1000
) -> list[tuple[int, float]]:
    """Jaccard of the two rankings' top-N feature sets for N = 1..n_max.

    Feature namespaces are stripped first, so rankings from different
    families compare raw account/domain strings.

    The top-N sets grow by one entry per ranking per step and keep their
    intersection count, so the cost is O(n_max).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not ranked_a.entries or not ranked_b.entries:
        raise ValueError("empty ranking")
    names_a, names_b = ([_strip_namespace(f) for f, _ in r.entries]
                        for r in (ranked_a, ranked_b))
    top_a: set[str] = set()
    top_b: set[str] = set()
    inter = 0
    curve: list[tuple[int, float]] = []
    for n in range(1, n_max + 1):
        if n <= len(names_a) and names_a[n - 1] not in top_a:
            top_a.add(names_a[n - 1])
            inter += names_a[n - 1] in top_b
        if n <= len(names_b) and names_b[n - 1] not in top_b:
            top_b.add(names_b[n - 1])
            inter += names_b[n - 1] in top_a
        curve.append((n, inter / (len(top_a) + len(top_b) - inter)))
    return curve


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-author prediction uniformity, over authors with >= 2 instances
    on one topic. Buckets mirror the fixed / fixed-polarized-plus-none /
    mixed split."""

    uniform: int
    polarized_plus_none: int
    mixed: int
    groups: dict[tuple[str, str], str]  # (author, topic) -> bucket

    @property
    def total(self) -> int:
        return self.uniform + self.polarized_plus_none + self.mixed


def user_consistency(
    dataset: Dataset, predictions: Sequence[StanceLabel]
) -> ConsistencyReport:
    if len(predictions) != len(dataset.instances):
        raise ValueError("predictions not aligned with dataset instances")
    by_group: dict[tuple[str, str], list[StanceLabel]] = defaultdict(list)
    for inst, pred in zip(dataset.instances, predictions):
        by_group[(inst.author_id, inst.topic)].append(pred)
    uniform = polarized_plus_none = mixed = 0
    groups: dict[tuple[str, str], str] = {}
    for key, preds in by_group.items():
        if len(preds) < 2:
            continue
        distinct = set(preds)
        if len(distinct) == 1:
            bucket = "uniform"
            uniform += 1
        elif StanceLabel.FAVOR in distinct and StanceLabel.AGAINST in distinct:
            bucket = "mixed"
            mixed += 1
        else:
            bucket = "polarized_plus_none"
            polarized_plus_none += 1
        groups[key] = bucket
    return ConsistencyReport(
        uniform=uniform,
        polarized_plus_none=polarized_plus_none,
        mixed=mixed,
        groups=groups,
    )


# ---------------------------------------------------------------------------
# CSV emitters.


def write_overlap_csv(dist: OverlapDistribution, path: str | Path) -> None:
    write_csv(path, ["bin_low", "bin_high", "count"],
              ([f"{lo:g}", f"{hi:g}", count] for lo, hi, count in dist.histogram()))


def write_curves_csv(
    curves: Mapping[str, Sequence[tuple[int, float]]], path: str | Path
) -> None:
    """Rows (N, pair, jaccard), one block per named curve."""
    write_csv(path, ["N", "pair", "jaccard"],
              ([n, pair, f"{value:.6f}"]
               for pair in sorted(curves) for n, value in curves[pair]))


def write_rankings_csv(
    rankings: Sequence[RankedFeatures], path: str | Path
) -> None:
    write_csv(path, ["rank", "feature", "weight", "class", "topic"],
              ([rank, feature, f"{weight:.6f}", ranking.label.value, ranking.topic]
               for ranking in rankings
               for rank, (feature, weight) in enumerate(ranking.entries, start=1)))


def write_consistency_csv(
    reports: Mapping[str, ConsistencyReport], path: str | Path
) -> None:
    write_csv(path, ["model", "groups", "uniform", "polarized_plus_none", "mixed"],
              ([name, r.total, r.uniform, r.polarized_plus_none, r.mixed]
               for name, r in sorted(reports.items())))
