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
one weight row, one bias and the solver epochs of each fit, and
``capped_fits`` names the fits that stopped at the epoch cap instead of
the tolerance. ``decision_values`` and ``predict`` score a batch of rows.
Each of the three checks its batch once: every row strictly increasing,
inside the space.

A bundle is a directory holding ``metadata.json``, ``space.tsv`` and one
``weights_<CLASS>.tsv`` per fit: a binary bundle has ``weights_FAVOR.tsv``
only. Binary bundles written before that also hold ``weights_AGAINST.tsv``;
they still load if that file is the exact negation of the Favor one.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CANONICAL_LABELS, CorpusError, StanceLabel, input_file, output_file
from .features import FeatureSetSelector, FeatureSpace
from .features import read_feature_space, write_feature_space

LOSSES = ("hinge", "squared_hinge")

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")


def _check_rows(rows: Sequence[np.ndarray], dim: int) -> None:
    """Raise ValueError unless every row is strictly increasing in 0..dim-1.

    One pass over the whole batch: a step between neighbours of the
    concatenated rows must rise unless it lands on a row start. Empty rows
    may sit anywhere.
    """
    if not rows:
        return
    flat = np.concatenate(rows)
    if not flat.size:
        return
    if flat.min() < 0 or flat.max() >= dim:
        raise ValueError(f"row index out of range: the space has {dim} columns")
    row_start = np.zeros(flat.size, dtype=bool)
    starts = np.cumsum(np.fromiter(map(len, rows[:-1]), np.int64, len(rows) - 1))
    row_start[starts[starts < flat.size]] = True
    if not np.all((np.diff(flat) > 0) | row_start[1:]):
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
    Deterministic for a given config.seed (the per-epoch permutation
    stream).

    Shrinking: each epoch walks a permutation of the active coordinates
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
    only the floating-point operations, their order and the permutation
    stream matter: each epoch draws ``rng.permutation(active)``, with the
    active list in the order the previous epoch kept it. The margin must
    stay one 1-D ``np.add.reduce`` over the row's weights (numpy's
    pairwise sum) plus the bias: ``np.dot``, ``math.fsum``, a Python
    ``sum`` and a 2-D ``W[:, idx].sum(axis=1)`` each round differently.
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
    rng = np.random.default_rng(config.seed)
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
        for i in rng.permutation(active).tolist():
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
    it holds metadata.json, space.tsv and one weights file per fit; an
    older binary bundle, with a negated Against file as well, still loads."""

    weights: np.ndarray  # shape (len(MODE_FITS[mode]), space.size)
    biases: np.ndarray  # shape (len(MODE_FITS[mode]),)
    mode: str  # "ternary" | "binary"
    space: FeatureSpace
    config: TrainConfig
    # Solver epochs of each fit; empty for a model loaded from a bundle
    # that does not record them.
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


def capped_fits(model: LinearModel) -> list[tuple[StanceLabel, int]]:
    """(class, epochs) of each fit that stopped at config.max_iter epochs."""
    return [
        (cls, epochs)
        for cls, epochs in zip(MODE_FITS[model.mode], model.epochs)
        if epochs >= model.config.max_iter
    ]


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
_SPACE = "space.tsv"


def _weights_file(cls: StanceLabel) -> str:
    return f"weights_{cls.value}.tsv"


def save_bundle(model: LinearModel, path: str | Path, topic: str = "") -> None:
    """Write the feature space, one weights file per fit and, last, the
    metadata, so that a directory holding metadata.json is a whole bundle:
    metadata.json, space.tsv and weights_<CLASS>.tsv for each class of
    MODE_FITS[mode]. A binary bundle holds weights_FAVOR.tsv only; the
    weights_AGAINST.tsv of an older binary bundle there is removed.

    A weight or bias that is not finite raises CorpusError naming its class
    before the directory is touched, since load_bundle refuses it. A feature
    name the space file cannot hold raises CorpusError before any file in
    the directory changes (see write_feature_space).
    """
    for cls, row, bias in zip(MODE_FITS[model.mode], model.weights, model.biases):
        if not (np.isfinite(row).all() and math.isfinite(bias)):
            raise CorpusError(f"class {cls.value}: cannot write a weight or bias that is "
                              "not finite; load_bundle could not read it back")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    write_feature_space(path / _SPACE, model.space)  # first: it may refuse
    # An earlier bundle's metadata must not vouch for these weights, nor an
    # older binary bundle's Against file be checked against them.
    (path / _METADATA).unlink(missing_ok=True)
    if model.mode == "binary":
        (path / _weights_file(StanceLabel.AGAINST)).unlink(missing_ok=True)
    for ci, cls in enumerate(MODE_FITS[model.mode]):
        row = model.weights[ci]
        nz = np.flatnonzero(row)
        with output_file(path / _weights_file(cls)) as fh:
            # 1024 weights per write: one string for the whole file raised
            # the experiment's peak memory by about 0.4 MB.
            for start in range(0, nz.size, 1024):
                idx = nz[start : start + 1024]
                fh.write("".join(
                    f"{i}\t{w!r}\n" for i, w in zip(idx.tolist(), row[idx].tolist())
                ))
            fh.write(f"bias\t{float(model.biases[ci])!r}\n")
    meta = {
        "mode": model.mode,
        "selector": str(model.space.selector),
        "topic": topic,
        "classes": [cls.value for cls in model.classes],
        "config": asdict(model.config),
        "dimension": model.space.size,
        "epochs": list(model.epochs),
    }
    with output_file(path / _METADATA) as fh:
        fh.write(json.dumps(meta, indent=2) + "\n")


def _read_weights(weights_path: Path, dim: int) -> tuple[np.ndarray, float]:
    """One weights file's row over dim columns, and its bias."""
    row = np.zeros(dim, dtype=np.float64)
    seen: set[int] = set()
    bias = None
    with input_file(weights_path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("\t")
            try:
                number = float(value)
                idx = None if key == "bias" else int(key)
            except ValueError:
                idx = -1
            if idx is not None and not 0 <= idx < dim:
                raise CorpusError(
                    f"{weights_path}: line {line_no}: expected an index "
                    f"in 0..{dim - 1} or 'bias', a tab and a weight"
                )
            if not math.isfinite(number):
                raise CorpusError(
                    f"{weights_path}: line {line_no}: weight {value} "
                    "is not finite"
                )
            if bias is not None:
                raise CorpusError(f"{weights_path}: line {line_no}: follows "
                                  "the bias line, which must be the last")
            if idx in seen:
                raise CorpusError(
                    f"{weights_path}: line {line_no}: index {idx} appears twice"
                )
            if idx is None:
                bias = number
            else:
                seen.add(idx)
                row[idx] = number
    if bias is None:
        raise CorpusError(f"{weights_path}: no bias line; the file may be cut short")
    return row, bias


def load_bundle(path: str | Path) -> tuple[LinearModel, dict]:
    """Load a bundle directory (metadata.json, space.tsv and one weights
    file per fit); returns the model and its metadata.

    Metadata that is not JSON, lacks a key or holds a bad value (such as a
    selector that is not a flag string, a topic that is not a string, an
    unknown config field, a config value that TrainConfig refuses, a
    dimension that is not an integer, a mode other than those of
    MODE_CLASSES or classes other than that mode's, or epochs other than
    one integer per fit of the mode),
    a weight line other than an index in 0..dimension-1 (or "bias"), a
    tab and a finite number, an index on two lines, and a weights file
    whose last line is not its one bias line (as a write cut short leaves
    it), raise CorpusError naming the file and, where there is one, the
    line. An older binary bundle also holds weights_AGAINST.tsv; it loads
    if that file is the exact negation of weights_FAVOR.tsv, and raises
    CorpusError naming it otherwise.
    """
    path = Path(path)
    meta_path = path / _METADATA
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if not isinstance(meta["selector"], str):
            raise TypeError("selector is not a string")
        if not isinstance(meta.get("topic", ""), str):
            raise TypeError("topic is not a string")
        selector = FeatureSetSelector.parse(meta["selector"])
        classes = tuple(StanceLabel(value) for value in meta["classes"])
        config = TrainConfig(**meta["config"])
        dimension, mode = meta["dimension"], meta["mode"]
        if type(dimension) is not int:
            raise TypeError(f"dimension {dimension!r} is not an integer")
        if MODE_CLASSES.get(mode) != classes:
            raise ValueError(
                f"classes {[c.value for c in classes]} do not fit mode {mode!r}"
            )
        # Bundles written before the solver epochs were recorded lack them.
        epochs = meta.get("epochs", [])
        if not isinstance(epochs, list) or epochs and (
            len(epochs) != len(MODE_FITS[mode])
            or not all(type(e) is int for e in epochs)
        ):
            raise ValueError(f"epochs {epochs!r} are not one integer per fit")
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusError(
            f"{meta_path}: bad metadata ({type(exc).__name__}: {exc})"
        ) from None
    space = read_feature_space(path / _SPACE, selector)
    dim = space.size
    if dim != dimension:
        raise ValueError(
            f"bundle {path}: space has {dim} features, "
            f"metadata says {dimension}"
        )
    fits = [_read_weights(path / _weights_file(cls), dim) for cls in MODE_FITS[mode]]
    older = path / _weights_file(StanceLabel.AGAINST)
    if mode == "binary" and older.exists():
        against, bias = _read_weights(older, dim)
        if not (np.array_equal(against, -fits[0][0]) and bias == -fits[0][1]):
            raise CorpusError(f"{older}: not the negation of the Favor weights")
    model = LinearModel(
        weights=np.array([row for row, _ in fits]),
        biases=np.array([bias for _, bias in fits]),
        mode=mode,
        space=space,
        config=config,
        epochs=tuple(epochs),
    )
    return model, meta
