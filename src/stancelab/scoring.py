"""Official-style scoring, confusion matrices, folds, significance tests.

The headline metric is the macro-average of the Favor and Against F1
scores; None participates in the confusion matrix (and hurts precision when
mispredicted) but its own F1 is excluded from the average. Overall scores
pool all instances; the breakdown scores each group that shares a key: a
topic, or a fold number when `evaluate --compare` pairs systems by fold.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import combinations, zip_longest
from pathlib import Path
from typing import Hashable, Iterable, Sequence

import numpy as np

from .corpus import CANONICAL_LABELS, CorpusError, LabeledInstance, StanceLabel
from .corpus import input_lines, output_file, utf8_encodable, write_csv
from .order import seeded_order

_LABEL_INDEX = {label: i for i, label in enumerate(CANONICAL_LABELS)}


@dataclass(frozen=True)
class TopicScores:
    f_favor: float
    f_against: float

    @property
    def f_avg(self) -> float:
        return (self.f_favor + self.f_against) / 2.0


@dataclass(frozen=True)
class EvalReport:
    per_topic: dict[Hashable, TopicScores]  # by topic, or by fold
    overall: TopicScores
    confusion: np.ndarray  # 3x3 ints, [gold][pred] in canonical order
    counts: dict[Hashable, int]


def _label_cube(
    gold: Sequence[StanceLabel], pred: Sequence[StanceLabel], group: Sequence[int]
) -> np.ndarray:
    """[group][gold][pred] counts from one bincount of 9*group + 3*gold + pred."""
    if not (len(gold) == len(pred) == len(group)):
        raise ValueError("gold, pred, and keys differ in length")
    code = np.fromiter((9 * k + 3 * _LABEL_INDEX[g] + _LABEL_INDEX[p]
                        for k, g, p in zip(group, gold, pred)),
                       dtype=np.int64, count=len(gold))
    return np.bincount(code, minlength=9 * max(group, default=0) + 9).reshape(-1, 3, 3)


def confusion(
    gold: Sequence[StanceLabel], pred: Sequence[StanceLabel]
) -> np.ndarray:
    """3x3 count matrix, [gold][pred], canonical order on both axes."""
    return _label_cube(gold, pred, [0] * len(gold))[0]


def _f1(matrix: np.ndarray, label: StanceLabel) -> float:
    i = _LABEL_INDEX[label]
    tp = float(matrix[i, i])
    predicted = float(matrix[:, i].sum())
    actual = float(matrix[i, :].sum())
    precision = tp / predicted if predicted > 0 else 0.0
    recall = tp / actual if actual > 0 else 0.0
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _scores(matrix: np.ndarray) -> TopicScores:
    return TopicScores(
        f_favor=_f1(matrix, StanceLabel.FAVOR),
        f_against=_f1(matrix, StanceLabel.AGAINST),
    )


def score_semeval(
    gold: Sequence[StanceLabel],
    pred: Sequence[StanceLabel],
    topics: Sequence[Hashable],
) -> EvalReport:
    """Score predictions: pooled overall plus a breakdown by key (a topic,
    or a fold number), each group scored from its own counts alone."""
    keys: dict[Hashable, int] = {}
    cube = _label_cube(gold, pred, [keys.setdefault(t, len(keys)) for t in topics])
    if not keys:
        raise ValueError("nothing to score")
    pooled = cube.sum(axis=0)
    return EvalReport(
        per_topic={key: _scores(matrix) for key, matrix in zip(keys, cube)},
        overall=_scores(pooled),
        confusion=pooled,
        counts={key: int(matrix.sum()) for key, matrix in zip(keys, cube)},
    )


def minority_recall_flags(matrix: np.ndarray) -> list[StanceLabel]:
    """Polarized classes present in gold but never correctly predicted."""
    collapsed = []
    for label in (StanceLabel.AGAINST, StanceLabel.FAVOR):
        i = _LABEL_INDEX[label]
        if matrix[i, :].sum() > 0 and matrix[i, i] == 0:
            collapsed.append(label)
    return collapsed


def kfold(n: int, k: int, seed: int) -> tuple[int, ...]:
    """Fold per instance: instances 0..n-1 in ``order.seeded_order(seed,
    0, ...)`` are dealt round-robin, so fold sizes differ by <= 1. Epoch 0
    is one that no solver fit uses; a seed must be in 0..2**64-1."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError(f"cannot split {n} instances into {k} folds")
    folds = np.empty(n, dtype=np.int64)
    folds[seeded_order(seed, 0, range(n))] = np.arange(n) % k
    return tuple(folds.tolist())


# ---------------------------------------------------------------------------
# Significance tests.


def student_t_two_sided_p(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with an integer dof >= 1: the finite
    sums of Abramowitz & Stegun 26.7.3 (odd dof) and 26.7.4 (even dof) in
    theta = atan(|t| / sqrt(dof)), with sin and cos from one hypot so that
    neither a subnormal nor a huge t overflows."""
    dof = operator.index(dof)
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if math.isinf(t):
        return 0.0
    root = math.sqrt(dof)
    radius = math.hypot(t, root)
    sin, cos = abs(t) / radius, root / radius
    odd = dof % 2
    term, total = 1.0, 0.0
    for k in range(dof // 2):
        total += term
        term *= cos * cos * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    if odd:
        p = 2.0 * (math.atan2(root, abs(t)) - sin * cos * total) / math.pi
    else:
        p = 1.0 - sin * total
    return max(p, 0.0)  # the sums cancel to as low as -1e-15; NaN stays NaN


def paired_t_test(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-tailed paired Student t-test p-value on per-unit differences."""
    if len(a) != len(b):
        raise ValueError("samples differ in length")
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 pairs")
    diffs = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    # t does not change with the scale of the differences. Scaling them by a
    # power of two to at most 1 in magnitude is exact, and keeps their
    # squares out of the subnormal range: unscaled, differences (0, 0,
    # 7e-161), whose t is exactly 1, gave p 0.42234 for 0.42265.
    peak = float(np.abs(diffs).max())
    if 0.0 < peak < math.inf:
        diffs = np.ldexp(diffs, -math.frexp(peak)[1])
    sd = float(diffs.std(ddof=1))
    if sd == 0.0:
        raise ValueError("degenerate difference vector")
    t = float(diffs.mean()) / (sd / math.sqrt(n))
    return student_t_two_sided_p(t, n - 1)


@dataclass(frozen=True)
class UTestResult:
    p_value: float
    u: float
    method: str  # "exact" | "normal"


def _midranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> UTestResult:
    """Two-sided Mann-Whitney U test.

    When both samples have at most 8 values, the p-value is exact: the
    share of all C(n1+n2, n1) assignments of the pooled midranks to `a`
    whose |U - n1*n2/2| is at least the observed one. Otherwise a
    tie-corrected normal approximation.
    """
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("samples must be non-empty")
    pooled = list(a) + list(b)
    ranks = _midranks(pooled)
    mu = n1 * n2 / 2.0
    u1 = sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0
    if max(n1, n2) <= 8:
        # With ties this is not twice the one-sided p, which scipy's
        # mannwhitneyu with PermutationMethod() gives: for a=[0.5, 0.7] and
        # b=[0.5, 1, 1, 1, 1] this gives 3/21 and that 6/21.
        observed = abs(u1 - mu)
        hits = 0
        total = 0
        base = n1 * (n1 + 1) / 2.0
        for subset in combinations(range(n1 + n2), n1):
            u = sum(ranks[i] for i in subset) - base
            total += 1
            if abs(u - mu) >= observed - 1e-9:
                hits += 1
        return UTestResult(p_value=hits / total, u=u1, method="exact")
    n = n1 + n2
    tie_term = 0.0
    seen: dict[float, int] = {}
    for v in pooled:
        seen[v] = seen.get(v, 0) + 1
    for count in seen.values():
        tie_term += count**3 - count
    sigma_sq = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma_sq <= 0.0:
        return UTestResult(p_value=1.0, u=u1, method="normal")
    z = (u1 - mu) / math.sqrt(sigma_sq)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return UTestResult(p_value=min(p, 1.0), u=u1, method="normal")


# ---------------------------------------------------------------------------
# Prediction files and report rendering.


PREDICTIONS_HEADER = "ID\tTarget\tGold\tPred"


def write_predictions(
    path: str | Path,
    instances: Iterable[LabeledInstance],
    predictions: Iterable[StanceLabel],
) -> None:
    """TSV with columns ID, Target, Gold, Pred.

    Reads instances and predictions in lockstep, one row at a time, so
    either may be a stream. Refuses, with a CorpusError naming the tweet id
    and leaving the file as it was, a row that read_predictions could not
    read back: a tab, "\\n" or "\\r" in the ID or Target, or a character
    UTF-8 cannot encode. Each row is checked as it is written; if one
    iterable ends before the other, the file is left as it was too.
    """
    with output_file(path) as fh:
        fh.write(PREDICTIONS_HEADER + "\n")
        for inst, pred in zip_longest(instances, predictions):
            if inst is None or pred is None:
                raise ValueError("instances and predictions differ in length")
            key = f"{inst.tweet_id}\t{inst.topic}"
            if (key.count("\t") != 1 or "\n" in key or "\r" in key
                    or not utf8_encodable(key)):
                raise CorpusError(
                    f"tweet {inst.tweet_id!r}: cannot write a tab or line break in the ID "
                    "or Target, or a character UTF-8 cannot encode; the predictions "
                    "file could not read it back"
                )
            fh.write(f"{key}\t{inst.label.value}\t{pred.value}\n")


def read_predictions(
    path: str | Path,
) -> tuple[list[str], list[str], list[StanceLabel], list[StanceLabel]]:
    """Read a predictions TSV; returns (ids, topics, gold, pred). Line 1 must
    be the header write_predictions writes, so that a file without it does
    not lose its first row. An ID may appear only once, as in the tweets
    file the predictions were made for."""
    ids: list[str] = []
    topics: list[str] = []
    gold: list[StanceLabel] = []
    pred: list[StanceLabel] = []
    seen: set[str] = set()
    with input_lines(path) as lines:
        header = next(lines, "")
        if header != PREDICTIONS_HEADER:
            raise ValueError(f"expected the header {PREDICTIONS_HEADER!r}, got {header!r}")
        for line in lines:
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError("expected 4 fields")
            g = StanceLabel.parse(fields[2])
            p = StanceLabel.parse(fields[3])
            if fields[0] in seen:
                raise ValueError(f"duplicate ID {fields[0]!r}")
            seen.add(fields[0])
            ids.append(fields[0])
            topics.append(fields[1])
            gold.append(g)
            pred.append(p)
    return ids, topics, gold, pred


def read_label_lines(path: str | Path) -> list[StanceLabel]:
    """Parallel predictions-only file: one stance label per line, so line n
    holds the label of the n-th gold instance. Blank lines may only end the
    file: a blank line before a label would shift every later label."""
    labels: list[StanceLabel] = []
    blank = False  # whether a blank line has been read
    with input_lines(path) as lines:
        for line in lines:
            text = line.strip()
            if not text:
                blank = True
                continue
            if blank:
                raise ValueError("blank line before this label; "
                                 "each line holds the next instance's label")
            labels.append(StanceLabel.parse(text))
    return labels


def render_report(report: EvalReport, title: str = "") -> str:
    """Fixed-width table: per-topic rows then the pooled overall row."""
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'Topic':<32}{'N':>6}{'F_favor':>10}{'F_against':>11}{'F_avg':>9}")
    for topic, scores in report.per_topic.items():
        lines.append(
            f"{topic:<32}{report.counts[topic]:>6}"
            f"{scores.f_favor:>10.4f}{scores.f_against:>11.4f}{scores.f_avg:>9.4f}"
        )
    total = int(report.confusion.sum())
    o = report.overall
    lines.append(
        f"{'Overall':<32}{total:>6}{o.f_favor:>10.4f}{o.f_against:>11.4f}{o.f_avg:>9.4f}"
    )
    lines.append("")
    lines.append("Confusion (rows gold, cols pred): "
                 + " ".join(label.value for label in CANONICAL_LABELS))
    for i, label in enumerate(CANONICAL_LABELS):
        row = " ".join(f"{int(v):>6}" for v in report.confusion[i])
        lines.append(f"{label.value:>8} {row}")
    return "\n".join(lines) + "\n"


def write_report_csv(report: EvalReport, path: str | Path) -> None:
    write_csv(path, ["topic", "f_favor", "f_against", "f_avg"],
              ([topic, f"{s.f_favor:.4f}", f"{s.f_against:.4f}", f"{s.f_avg:.4f}"]
               for topic, s in [*report.per_topic.items(), ("OVERALL", report.overall)]))


def write_confusion_csv(matrix: np.ndarray, path: str | Path) -> None:
    names = [label.value for label in CANONICAL_LABELS]
    with output_file(path) as fh:
        fh.write("gold_pred," + ",".join(names) + "\n")
        for i, name in enumerate(names):
            fh.write(name + "," + ",".join(str(int(v)) for v in matrix[i]) + "\n")
