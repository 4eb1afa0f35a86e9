"""The per-cell output writers before their numpy paths, kept as oracles.

``top_features`` ranks through ``class_weights``, a name -> weight map of
every column, and a sort of all of them, as ``analysis.top_features`` did;
``write_weights`` writes one bundle weights file element by element, as
``linsvm.save_bundle`` did. The program's versions must give the same
rankings, float bits included, and the same bytes. A binary model's
Against weights are its Favor row negated, as ``train_ovr`` once stored
them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

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


def write_weights(path: Path, row: np.ndarray, bias: float) -> None:
    """One weights file: a line per non-zero weight, then the bias."""
    with path.open("w", encoding="utf-8") as fh:
        for idx in np.nonzero(row)[0]:
            fh.write(f"{int(idx)}\t{float(row[idx])!r}\n")
        fh.write(f"bias\t{float(bias)!r}\n")

