"""The per-cell output writers before their numpy paths, kept as oracles.

``top_features`` ranks through ``class_weights``, a name -> weight map of
every column, and a sort of all of them, as ``analysis.top_features`` did;
``write_weights`` writes a bundle's weights.tsv element by element: a line
per column, its name and then each fit's weight, each after a tab. The
program's versions must give the same rankings, float bits included, and
the same bytes. A binary model's
Against weights are its Favor row negated, as ``train_ovr`` once stored
them.
"""

from __future__ import annotations

from pathlib import Path

from stancelab.analysis import RankedFeatures
from stancelab.corpus import StanceLabel
from stancelab.linsvm import MODE_FITS, LinearModel


def class_weights(model: LinearModel, cls: StanceLabel) -> dict[str, float]:
    """Feature-string -> weight map for one class."""
    if cls not in model.classes:
        raise ValueError(f"class {cls.value} not in model classes")
    if model.mode == "binary" and cls is StanceLabel.AGAINST:
        row = -model.weights[0]
    else:
        row = model.weights[MODE_FITS[model.mode].index(cls)]
    return {name: float(row[idx]) for idx, name in enumerate(model.space.names)}


def top_features(
    model: LinearModel, cls: StanceLabel, topic: str, n: int
) -> RankedFeatures:
    """Top n features by signed weight toward the class, ties by name."""
    if n < 1:
        raise ValueError("n must be >= 1")
    weights = class_weights(model, cls)
    ordered = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    return RankedFeatures(label=cls, topic=topic, entries=tuple(ordered[:n]))


def write_weights(path: Path, model: LinearModel) -> None:
    """A bundle's weights.tsv: a line per column, its name, then each fit's
    weight after a tab."""
    with path.open("w", encoding="utf-8") as fh:
        for col, name in enumerate(model.space.names):
            fh.write(name)
            for row in model.weights:
                fh.write(f"\t{float(row[col])!r}")
            fh.write("\n")

