"""Linear SVM training by dual coordinate descent, with inspectable weights.

A row is what ``features.index_rows`` returns: the sorted int64 column
indices of one example's active boolean features. The trainer solves the
L2-regularized SVM dual over such rows, one coordinate at a time, over a
bias-augmented representation (a constant feature appended to every row,
so the bias is regularized like any other weight). Hinge (L1) and
squared-hinge (L2) losses are supported; with U the upper box bound and D
the diagonal shift, hinge uses U=C, D=0 and squared hinge uses U=inf,
D=1/(2C).

The solver shrinks its active set (Hsieh et al., ICML 2008, section 3.3;
LIBLINEAR does the same): a coordinate at a bound whose gradient points
out of the box by more than the previous epoch's largest violation is
left out of later epochs. Once the shrunk set meets the stopping rule,
all coordinates come back, and the solver stops only after an epoch over
all of them meets it. Its iterates equal those of the plain loop in
``tests/dcd_reference.py`` bit for bit.

``train_ovr`` is the one fit entry point: one-vs-rest over the canonical
class order, or in binary mode a single Against-vs-Favor separator, fit
without the None class, whose margin sign picks the class. A model holds
one weight row, one bias and the solver epochs of each fit.
``decision_values`` and ``predict`` score a batch of rows. Each of the
three checks its batch once: every row strictly increasing, inside the
space.

A bundle is a directory holding ``metadata.json`` and ``weights.tsv``.
``weights.tsv`` holds one line per column, in column order: the feature
name and then, after a tab each, its weight in every fit of
MODE_FITS[mode] (a binary bundle's one Favor fit), written with ``repr``.
The metadata is one JSON object whose keys are ``format`` (BUNDLE_FORMAT),
``mode``, ``selector``, ``topic``, ``config`` (every TrainConfig field,
``min_df`` included, so a bundle records how it was built), ``dimension``
(the line count of ``weights.tsv``), ``epochs`` and ``biases`` (one per
fit). ``load_bundle`` refuses any other format, or none, with one message:
retrain the bundle.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CANONICAL_LABELS, CorpusError, StanceLabel, input_lines, output_file
from .corpus import utf8_encodable
from .features import FeatureSetSelector, FeatureSpace
from .order import check_seed, seeded_order

LOSSES = ("hinge", "squared_hinge")

# The metadata format of the bundles save_bundle writes and load_bundle reads.
BUNDLE_FORMAT = 3

# Each mode and the classes its models hold, in order.
MODE_CLASSES: dict[str, tuple[StanceLabel, ...]] = {
    "ternary": CANONICAL_LABELS,
    "binary": (StanceLabel.AGAINST, StanceLabel.FAVOR),
}
# Each mode and the class of each solver fit, in order: binary mode fits
# one Favor-vs-Against separator.
MODE_FITS: dict[str, tuple[StanceLabel, ...]] = {
    "ternary": CANONICAL_LABELS,
    "binary": (StanceLabel.FAVOR,),
}


@dataclass(frozen=True)
class TrainConfig:
    C: float = 1.0
    tol: float = 1e-4
    max_iter: int = 1000
    seed: int = 0
    loss: str = "hinge"
    # Read by the feature space build, not by the solver.
    min_df: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.C < math.inf:
            raise ValueError("C must be positive and finite")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if type(self.max_iter) is not int:
            raise ValueError(f"max_iter must be an integer, not {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, not {self.seed!r}")
        check_seed(self.seed)
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")
        if type(self.min_df) is not int:
            raise ValueError(f"min_df must be an integer, not {self.min_df!r}")
        if self.min_df < 1:
            raise ValueError("min_df must be >= 1")


_ROW_CHECK_CHUNK = 256


def _check_rows(rows: Sequence[np.ndarray], dim: int) -> None:
    """Raise ValueError unless every row is strictly increasing in 0..dim-1.

    The rows are checked _ROW_CHECK_CHUNK at a time, so the batch is never
    concatenated whole. Within a chunk a step between neighbours of the
    concatenated rows must rise unless it lands on a row start. Empty rows
    may sit anywhere.
    """
    for first in range(0, len(rows), _ROW_CHECK_CHUNK):
        chunk = rows[first : first + _ROW_CHECK_CHUNK]
        flat = np.concatenate(chunk)
        if not flat.size:
            continue
        if flat.min() < 0 or flat.max() >= dim:
            raise ValueError(f"row index out of range: the space has {dim} columns")
        row_start = np.zeros(flat.size, dtype=bool)
        starts = np.cumsum(np.fromiter(map(len, chunk[:-1]), np.int64, len(chunk) - 1))
        row_start[starts[starts < flat.size]] = True
        if not np.all((flat[1:] > flat[:-1]) | row_start[1:]):
            raise ValueError("row indices must be strictly increasing")


def dual_coordinate_descent(
    rows: Sequence[np.ndarray],
    y: np.ndarray,
    dim: int,
    config: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Core solver. Returns (augmented weights, dual coefficients, epochs).

    ``rows[i]`` holds the active column indices of example i, each in
    0..dim-1, and ``y[i]`` its +1/-1 label. The augmented weight vector is
    a float64 array of length dim+1 whose last slot is the bias; the dual
    coefficients are a float64 array of length n; epochs is an int.
    Deterministic for a given config.seed.

    Shrinking: each epoch walks its active coordinates in seeded order
    and drops, until the next reset, one at alpha=0 whose gradient lies
    above the previous epoch's largest signed projected gradient, or one
    at alpha=U below its smallest. Those bounds are +-inf in the first
    epoch, after a reset, and when their sign is wrong. When an epoch's
    largest projected-gradient violation falls below config.tol on a
    shrunk set, all n coordinates come back and the bounds reset; the
    solver returns only after an epoch that visited all n and dropped
    none meets that rule, the stopping rule of a loop without shrinking.
    It also stops after config.max_iter epochs, shrunk ones included.
    So config.tol bounds the projected gradients as the final epoch saw
    them, each when its coordinate was visited, not the violation at the
    returned point: later steps of that epoch move them, and recomputed
    there they exceeded tol in 11 of 2,000 converged random problems, by
    up to 1.57 times.

    Bitwise contract: the weights, the dual coefficients and the epoch
    count equal, bit for bit, those of the reference loop in
    ``tests/dcd_reference.py``, so bundles, predictions and master.csv do
    not depend on how this loop is written. Per-coordinate state lives in
    Python floats, which round exactly as float64 numpy scalars do, so
    only the floating-point operations, their order and the visiting
    order matter. Epoch e (counted from 1) visits its active coordinates
    in ``order.seeded_order(config.seed, e, active)``, sorted by a 64-bit
    key of (seed, epoch, coordinate), so the order in which the previous
    epoch kept them does not matter. The margin must stay one 1-D
    ``np.add.reduce`` over the row's weights (numpy's pairwise sum) plus
    the bias: ``np.dot``, ``math.fsum``, a Python ``sum`` and a 2-D
    ``W[:, idx].sum(axis=1)`` each round differently.
    """
    n = len(rows)
    if config.loss == "hinge":
        upper, diag = float(config.C), 0.0
    else:
        upper, diag = math.inf, 1.0 / (2.0 * config.C)
    # ||x_i||^2 is the active count plus 1 for the bias feature.
    qii = [len(r) + 1 + diag for r in rows]
    labels = np.asarray(y, dtype=np.float64).tolist()
    w = np.zeros(dim + 1, dtype=np.float64)
    alpha = [0.0] * n
    bias = 0.0
    reduce = np.add.reduce
    everything = list(range(n))
    active = everything
    # Shrinking bounds from the previous epoch's projected gradients.
    shrink_above, shrink_below = math.inf, -math.inf
    epochs = 0
    for _ in range(config.max_iter):
        epochs += 1
        # The largest and smallest signed projected gradient of the epoch;
        # the violation is max(pg_max, -pg_min).
        pg_max = pg_min = 0.0
        kept = []
        for i in seeded_order(config.seed, epochs, active).tolist():
            kept.append(i)
            idx = rows[i]
            yi = labels[i]
            ai = alpha[i]
            wi = w[idx]
            g = yi * (float(reduce(wi)) + bias) - 1.0 + diag * ai
            # The projected gradient is min(g, 0) at the lower bound,
            # max(g, 0) at the upper bound and g between; a zero one skips
            # the step. These comparisons, and the clip of new_alpha to
            # [0, upper], give exactly what the min/max builtins would,
            # -0.0 included, without their call overhead.
            if ai <= 0.0:
                if g >= 0.0:
                    if g > shrink_above:
                        kept.pop()  # shrunk until the next reset
                    continue
                if g < pg_min:
                    pg_min = g
            elif ai >= upper:
                if g <= 0.0:
                    if g < shrink_below:
                        kept.pop()
                    continue
                if g > pg_max:
                    pg_max = g
            elif g == 0.0:
                continue
            elif g > pg_max:
                pg_max = g
            elif g < pg_min:
                pg_min = g
            new_alpha = ai - g / qii[i]
            if new_alpha < 0.0:
                new_alpha = 0.0
            elif new_alpha > upper:
                new_alpha = upper
            delta = (new_alpha - ai) * yi
            if delta != 0.0:
                wi += delta  # w[idx] += delta, reusing the gathered copy
                w[idx] = wi
                bias += delta
            alpha[i] = new_alpha
        if pg_max < config.tol and -pg_min < config.tol:
            if len(kept) == n:
                break
            active = everything
            shrink_above, shrink_below = math.inf, -math.inf
            continue
        active = kept
        shrink_above = pg_max if pg_max > 0.0 else math.inf
        shrink_below = pg_min if pg_min < 0.0 else -math.inf
    w[dim] = bias
    return w, np.array(alpha, dtype=np.float64), epochs


@dataclass(frozen=True)
class LinearModel:
    """One weight row and one bias per solver fit over a frozen feature
    space; rows, biases and epochs align with MODE_FITS[mode]. A bundle of
    it holds metadata.json and weights.tsv."""

    weights: np.ndarray  # shape (len(MODE_FITS[mode]), space.size)
    biases: np.ndarray  # shape (len(MODE_FITS[mode]),)
    mode: str  # "ternary" | "binary"
    space: FeatureSpace
    config: TrainConfig
    # Solver epochs of each fit; empty for a model built by hand, not by
    # train_ovr.
    epochs: tuple[int, ...] = ()

    @property
    def classes(self) -> tuple[StanceLabel, ...]:
        return MODE_CLASSES[self.mode]

    def class_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights and biases per class: binary (w, b) gives [-w, w], [-b, b]."""
        w, b = self.weights, self.biases
        if self.mode == "binary":
            return np.vstack([-w, w]), np.concatenate([-b, b])
        return w, b


def train_ovr(
    rows: Sequence[np.ndarray],
    labels: Sequence[StanceLabel],
    mode: str,
    config: TrainConfig,
    space: FeatureSpace,
    topic: str = "",
) -> LinearModel:
    """One-vs-rest ternary model, or a single polarized binary separator.

    ``rows[i]`` holds the active columns of example i in ``space``, as
    ``features.index_rows`` returns them. Binary mode removes None-labeled
    training instances before fitting and never predicts None.
    """
    if mode not in MODE_CLASSES:
        raise ValueError(f"unknown mode {mode!r}")
    if len(rows) != len(labels):
        raise ValueError("labels and rows differ in length")
    dim = space.size
    _check_rows(rows, dim)
    classes, fitted = MODE_CLASSES[mode], MODE_FITS[mode]
    if mode == "binary":
        kept = [i for i, lab in enumerate(labels) if lab is not StanceLabel.NONE]
        rows, labels = [rows[i] for i in kept], [labels[i] for i in kept]
    where = f" for topic {topic!r}" if topic else ""
    for cls in classes:
        if not any(lab is cls for lab in labels):
            raise ValueError(f"no {cls.value} examples{where}")
    weights = np.empty((len(fitted), dim), dtype=np.float64)
    biases = np.empty(len(fitted), dtype=np.float64)
    epochs = []
    for ci, cls in enumerate(fitted):
        y = np.array([1.0 if lab is cls else -1.0 for lab in labels])
        w, _, fit_epochs = dual_coordinate_descent(rows, y, dim, config)
        weights[ci] = w[:dim]
        biases[ci] = w[dim]
        epochs.append(fit_epochs)
    return LinearModel(
        weights=weights,
        biases=biases,
        mode=mode,
        space=space,
        config=config,
        epochs=tuple(epochs),
    )


def decision_values(model: LinearModel, rows: Sequence[np.ndarray]) -> np.ndarray:
    """Per-class scores <w_c, x> + b_c of each row in model.space, shape
    (len(rows), len(model.classes)), columns aligned with model.classes."""
    weights, biases = model.class_rows()
    _check_rows(rows, model.space.size)
    scores = np.empty((len(rows), len(model.classes)), dtype=np.float64)
    for i, idx in enumerate(rows):
        # One 2-D gather and row sum per row: np.add.reduceat or a batched
        # matrix product would round differently and could flip a near-tie.
        scores[i] = weights[:, idx].sum(axis=1) + biases
    return scores


def predict(model: LinearModel, rows: Sequence[np.ndarray]) -> list[StanceLabel]:
    """Argmax class of each row; exact ties resolve to the earliest
    canonical class."""
    classes = model.classes
    best = np.argmax(decision_values(model, rows), axis=1)
    return [classes[ci] for ci in best.tolist()]


# ---------------------------------------------------------------------------
# Model bundle: a directory that round-trips predictions bitwise.

_METADATA = "metadata.json"
_WEIGHTS = "weights.tsv"


def _weights_line(name: str, weights: list[float]) -> str:
    if "\n" in name or "\r" in name or not utf8_encodable(name):
        raise CorpusError(
            f"feature {name!r}: cannot write a line break or a character UTF-8 "
            "cannot encode; load_bundle could not read it back"
        )
    return "\t".join([name, *map(repr, weights)]) + "\n"


def save_bundle(model: LinearModel, path: str | Path, topic: str = "") -> None:
    """Write weights.tsv and then, last, metadata.json, so that a directory
    holding metadata.json is a whole bundle (see the module docstring).

    A weight or bias that is not finite raises CorpusError naming its class
    before the directory is touched, since load_bundle refuses it. A feature
    name that weights.tsv cannot hold, one with "\\n" or "\\r" or a
    character UTF-8 cannot encode, raises CorpusError naming the feature
    before any file in the directory changes.
    """
    for cls, row, bias in zip(MODE_FITS[model.mode], model.weights, model.biases):
        if not (np.isfinite(row).all() and math.isfinite(bias)):
            raise CorpusError(f"class {cls.value}: cannot write a weight or bias that is "
                              "not finite; load_bundle could not read it back")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    names, weights = model.space.names, model.weights
    with output_file(path / _WEIGHTS) as fh:
        # 1024 lines per write: building the whole file first peaked at 5.1
        # MB, not 0.4 MB, on a ternary bundle of 13,700 columns.
        for start in range(0, len(names), 1024):
            chunk = slice(start, start + 1024)
            fh.write("".join(map(_weights_line, names[chunk], weights[:, chunk].T.tolist())))
        # Once no name can be refused: an earlier bundle's metadata must not
        # vouch for these weights.
        (path / _METADATA).unlink(missing_ok=True)
    meta = {
        "format": BUNDLE_FORMAT,
        "mode": model.mode,
        "selector": str(model.space.selector),
        "topic": topic,
        "config": asdict(model.config),
        "dimension": model.space.size,
        "epochs": list(model.epochs),
        "biases": model.biases.tolist(),
    }
    with output_file(path / _METADATA) as fh:
        fh.write(json.dumps(meta, indent=2) + "\n")


def _read_weights(weights_path: Path, fits: int) -> tuple[list[str], np.ndarray]:
    """The feature names of a weights file of fits weights per line, and its
    weights, shape (fits, lines)."""
    names: list[str] = []
    seen: set[str] = set()
    weights = array("d")
    with input_lines(weights_path) as lines:
        for line in lines:
            # From the right, so that a name may hold tabs.
            name, *values = line.rsplit("\t", fits)
            numbers = list(map(float, values))
            if len(numbers) != fits or not all(map(math.isfinite, numbers)):
                raise ValueError(f"expected a feature and {fits} finite weights, "
                                 "each after a tab")
            if name in seen:
                raise ValueError(f"feature {name!r} appears twice")
            seen.add(name)
            names.append(name)
            weights.extend(numbers)
    return names, np.frombuffer(weights).reshape(len(names), fits).T.copy()


def load_bundle(path: str | Path) -> tuple[LinearModel, dict]:
    """Load a bundle directory (metadata.json and weights.tsv); returns the
    model and its metadata.

    Metadata whose format is not the JSON integer BUNDLE_FORMAT, or that
    has none, raises CorpusError with one message that names metadata.json
    and says to retrain the bundle. Metadata that is not JSON, lacks a key
    or holds a bad value (such as a selector that is not a flag string, a
    topic that is not a string, an unknown config field, a config value
    that TrainConfig refuses, a dimension that is not an integer, a mode
    that is not a key of MODE_CLASSES, epochs other than a list of one
    integer per fit of the mode or an empty one, or biases other than a
    list of one finite float per fit), a weights line other than a feature,
    then a tab and a finite number per fit, a feature on two lines, and a
    weights file of more or fewer lines than the dimension (as a write cut
    short leaves it), raise CorpusError naming the file and, where there is
    one, the line.
    """
    path = Path(path)
    meta_path = path / _METADATA
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        fmt = meta.get("format") if isinstance(meta, dict) else None
        # 2.0 == 2 and True == 1, so the type is compared as well.
        if (type(fmt), fmt) != (int, BUNDLE_FORMAT):
            raise CorpusError(f"{meta_path}: not a bundle of format {BUNDLE_FORMAT}; "
                              "retrain it with this version of stancelab")
        if not isinstance(meta["selector"], str):
            raise TypeError("selector is not a string")
        if not isinstance(meta["topic"], str):
            raise TypeError("topic is not a string")
        selector = FeatureSetSelector.parse(meta["selector"])
        config = TrainConfig(**meta["config"])
        dimension, mode, epochs = meta["dimension"], meta["mode"], meta["epochs"]
        biases = meta["biases"]
        if type(dimension) is not int:
            raise TypeError(f"dimension {dimension!r} is not an integer")
        if not isinstance(mode, str) or mode not in MODE_CLASSES:
            raise ValueError(f"mode {mode!r} is not one of {list(MODE_CLASSES)}")
        fits = len(MODE_FITS[mode])
        if not isinstance(epochs, list) or epochs and (
            len(epochs) != fits or not all(type(e) is int for e in epochs)
        ):
            raise ValueError(f"epochs {epochs!r} are not one integer per fit")
        if not isinstance(biases, list) or len(biases) != fits or not all(
            type(b) is float and math.isfinite(b) for b in biases
        ):
            raise ValueError(f"biases {biases!r} are not one finite float per fit")
    except CorpusError:
        raise
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CorpusError(
            f"{meta_path}: bad metadata ({type(exc).__name__}: {exc})"
        ) from None
    weights_path = path / _WEIGHTS
    names, weights = _read_weights(weights_path, fits)
    if len(names) != dimension:
        raise CorpusError(f"{weights_path}: {len(names)} lines where {_METADATA} gives "
                          f"dimension {dimension}; the file may be cut short")
    model = LinearModel(
        weights=weights,
        biases=np.array(biases),
        mode=mode,
        space=FeatureSpace(names=tuple(names), selector=selector),
        config=config,
        epochs=tuple(epochs),
    )
    return model, meta
