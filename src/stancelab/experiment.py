"""The experiment engine: trains and scores every (selector, mode) cell on
one train/test split, then compares the cells. run_experiment writes this
tree under CellContext.out, where NAME is SELECTOR__MODE:

- ``cells/NAME/``: ``report.txt``, ``report.csv``, ``confusion.csv`` and
  ``predictions.tsv``; ``bundles/NAME/SLUG/``: one bundle per topic;
- ``analysis/``: ``top_features__NAME.csv`` per cell, ``overlap__A__B.csv``
  per pair of COMPARED_FAMILIES (with profiles), ``user_consistency.csv``
  and ``topn_curves__MODE.csv``, whose joint curve of a group of three
  families is the mean of the group's pairwise curves at each N;
- ``master.csv``: one row per cell, with its status and scores. A failed
  cell writes nothing else.

A cell sends back to the coordinator its report, its predictions, its
capped-fit lines and only the rankings the curves read: a cell whose
selector is one family of COMPARED_FAMILIES returns the CURVE_CLASSES
rankings of each topic, max(--top-n, --curve-max) deep; every other cell
returns none and ranks only --top-n deep, for its CSV.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from array import array
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from .analysis import (
    RankedFeatures, network_overlap, top_features, topn_overlap_curve, user_consistency,
    write_consistency_csv, write_curves_csv, write_overlap_csv, write_rankings_csv,
)
from .corpus import Dataset, ProfileTable, StanceLabel, output_file, write_csv
from .features import NETWORK_FLAG_SOURCES, FeatureSetSelector
from .linsvm import MODE_FITS, LinearModel, TrainConfig, save_bundle
from .pipeline import run_cell
from .scoring import (
    EvalReport, minority_recall_flags, render_report, write_confusion_csv,
    write_predictions, write_report_csv,
)
from .synth import topic_slug

# The network families the analyses compare, in groups of one kind: the
# account networks, then the domain networks. Each pair within a group is
# compared by the overlap of users' profile sets and by the top-N curves of
# its single-family models; a group of three also gets its joint curve.
COMPARED_FAMILIES = (("IN_AT", "PN_AT", "CN_FR"), ("IN_DM", "PN_DM"))
# The classes whose rankings the top-N curves compare.
CURVE_CLASSES = (StanceLabel.FAVOR, StanceLabel.AGAINST)


@dataclass(frozen=True)
class CellContext:
    """What every cell of one experiment shares."""

    train: Dataset
    test: Dataset
    config: TrainConfig
    out: Path
    top_n: int
    curve_max: int


@dataclass(frozen=True)
class CellResult:
    """One cell's outcome; report is None when the cell failed."""

    selector: FeatureSetSelector
    mode: str
    report: EvalReport | None = None
    predictions: list[StanceLabel] | None = None
    # (topic, class) -> RankedFeatures of max(--top-n, --curve-max) entries
    # for each of CURVE_CLASSES, if the selector is one family of
    # COMPARED_FAMILIES; empty for every other cell.
    rankings: dict = field(default_factory=dict)
    capped_fits: list[str] = field(default_factory=list)
    error: str = ""


def unique_slugs(topics: Sequence[str]) -> dict[str, str]:
    """A distinct slug per topic for file names: a repeated slug gets 2, 3..."""
    slugs: dict[str, str] = {}
    used: set[str] = set()
    for topic in topics:
        slug = topic_slug(topic)
        candidate, i = slug, 2
        while candidate in used:
            candidate = f"{slug}{i}"
            i += 1
        used.add(candidate)
        slugs[topic] = candidate
    return slugs


def capped_fit_lines(models: Iterable[tuple[str, LinearModel]]) -> list[str]:
    """One line per fit of the (topic, model) pairs that stopped at
    --max-iter instead of --tol."""
    return [
        f"topic {topic!r}: the {cls.value} fit stopped at --max-iter "
        f"({epochs} epochs) before reaching --tol"
        for topic, model in models
        for cls, epochs in zip(MODE_FITS[model.mode], model.epochs)
        if epochs >= model.config.max_iter
    ]


def model_rankings(
    models: Iterable[tuple[str, LinearModel]], n: int
) -> list[RankedFeatures]:
    """The top n features of every class of every (topic, model)."""
    return [
        top_features(model, cls, topic, n)
        for topic, model in models
        for cls in model.classes
    ]


def write_report_dir(report: EvalReport, out: Path, title: str = "") -> str:
    """Writes report.txt, report.csv and confusion.csv; returns the text."""
    text = render_report(report, title=title)
    out.mkdir(parents=True, exist_ok=True)
    with output_file(out / "report.txt") as fh:
        fh.write(text)
    write_report_csv(report, out / "report.csv")
    write_confusion_csv(report.confusion, out / "confusion.csv")
    return text


# The running experiment's context in a worker process, set by _load_context.
_WORKER_CONTEXT: CellContext | None = None


def _load_context(path: str) -> None:
    """Worker initializer: reads the context that _run_cells pickled."""
    global _WORKER_CONTEXT
    with open(path, "rb") as fh:
        _WORKER_CONTEXT = pickle.load(fh)


def _cell_cost(cell: tuple[FeatureSetSelector, str]) -> tuple[bool, int]:
    """A sort key that is larger for a costlier cell: text rows are about
    ten times denser than network rows, and each fit is one solve."""
    selector, mode = cell
    return selector.uses_text, len(MODE_FITS[mode])


def _run_experiment_cell(
    context: CellContext, cell: tuple[FeatureSetSelector, str]
) -> CellResult:
    """Trains and scores one cell, then writes its cell directory, bundles
    and top-features CSV under the experiment's output directory."""
    train, test, out = context.train, context.test, context.out
    selector, mode = cell
    try:
        models, report, predictions = run_cell(train, test, selector, mode, context.config)
    except Exception as exc:  # cell failures are recorded, not fatal
        return CellResult(selector, mode, error=f"{type(exc).__name__}: {exc}")
    name = f"{selector}__{mode}"
    cell_dir = out / "cells" / name
    write_report_dir(report, cell_dir, title=name)
    write_predictions(cell_dir / "predictions.tsv", test.instances, predictions)
    slugs = unique_slugs(train.topics)
    for topic, model in models.items():
        save_bundle(model, out / "bundles" / name / slugs[topic], topic=topic)
    # The curves read the rankings of the single-family cells they compare.
    # A ranking is a sorted prefix, so the one computed for the curves also
    # gives the --top-n CSV.
    compared = any(str(selector) in group for group in COMPARED_FAMILIES)
    rankings = model_rankings(
        models.items(), max(context.top_n, context.curve_max) if compared else context.top_n)
    write_rankings_csv(
        [replace(r, entries=r.entries[:context.top_n]) for r in rankings],
        out / "analysis" / f"top_features__{name}.csv",
    )
    return CellResult(
        selector, mode, report, predictions,
        rankings={(r.topic, r.label): r for r in rankings
                  if compared and r.label in CURVE_CLASSES},
        capped_fits=capped_fit_lines(models.items()),
    )


def _run_worker_cell(cell: tuple[FeatureSetSelector, str]) -> CellResult:
    return _run_experiment_cell(_WORKER_CONTEXT, cell)


def _run_cells(
    cells: Sequence[tuple[FeatureSetSelector, str]], jobs: int, context: CellContext
) -> list[CellResult]:
    """Runs the cells in this process, or in `jobs` worker processes; the
    results come back in the order of `cells`, and every output is
    identical to that of --jobs 1. A result holds only what the
    coordinator's analyses read (see CellResult.rankings).

    The workers get the path of a file that holds the pickled context, not
    the context itself: a spawned worker reads its start-up arguments only
    after it has imported the program, so arguments larger than a pipe
    buffer would block this process and start the workers one after the
    other. The cells are submitted costliest first (Graham's
    longest-processing-time rule), so that no worker idles while the last
    large cell runs.
    """
    if jobs <= 1:
        return [_run_experiment_cell(context, cell) for cell in cells]
    # Imported here so that the other commands do not pay for it at start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    order = sorted(range(len(cells)), key=lambda i: _cell_cost(cells[i]),
                   reverse=True)
    fd, path = tempfile.mkstemp(prefix="stancelab-cells-", suffix=".pickle")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(context, fh)
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(cells)),
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_load_context,
            initargs=(path,),
        ) as pool:
            ordered = pool.map(_run_worker_cell, [cells[i] for i in order])
            done = dict(zip(order, ordered))
    finally:
        os.unlink(path)
    return [done[i] for i in range(len(cells))]


def write_overlap_csvs(profiles: ProfileTable, out_dir: Path) -> None:
    """Writes overlap__A__B.csv for each pair within a COMPARED_FAMILIES group."""
    for group in COMPARED_FAMILIES:
        for flags in combinations(group, 2):
            field_a, field_b = (NETWORK_FLAG_SOURCES[flag][1] for flag in flags)
            dist = network_overlap(profiles, (field_a, field_b))
            write_overlap_csv(dist, out_dir / f"overlap__{field_a}__{field_b}.csv")


def _master_row(result: CellResult, topics: Sequence[str]) -> list[str]:
    report = result.report
    if report is None:
        return [f"failed: {result.error}"] + [""] * (len(topics) + 4)
    per_topic = [report.per_topic.get(topic) for topic in topics]
    o = report.overall
    return (["ok"] + [f"{s.f_avg:.4f}" if s else "" for s in per_topic]
            + [f"{v:.4f}" for v in (o.f_favor, o.f_against, o.f_avg)]
            + ["+".join(c.value for c in minority_recall_flags(report.confusion))])


def _write_master_csv(
    path: Path, results: Sequence[CellResult], topics: Sequence[str]
) -> None:
    write_csv(path, ["selector", "mode", "status"] + [f"f_avg[{t}]" for t in topics]
              + ["f_favor", "f_against", "f_avg", "collapsed_classes"],
              ([str(r.selector), r.mode, *_master_row(r, topics)] for r in results))


def _experiment_curves(
    results: dict[tuple[str, str], CellResult],
    mode: str,
    topics: Sequence[str],
    n_max: int,
) -> dict[str, array]:
    """Top-N overlap curves across the single-family models of each group
    of COMPARED_FAMILIES whose every family has a non-empty ranking. Each
    curve is the array of its values at N = 1..n_max."""
    curves: dict[str, array] = {}
    for topic in topics:
        for cls in CURVE_CLASSES:
            for group in COMPARED_FAMILIES:
                ranked = [(f, results[f, mode].rankings.get((topic, cls)))
                          for f in group if (f, mode) in results]
                if len(ranked) < len(group) or not all(r and r.entries for _, r in ranked):
                    continue
                pairwise = []
                for (name_l, left), (name_r, right) in combinations(ranked, 2):
                    key = f"{name_l} vs {name_r} | {cls.value} | {topic}"
                    curves[key] = array("d", (value for _, value in
                                              topn_overlap_curve(left, right, n_max=n_max)))
                    pairwise.append(curves[key])
                if len(group) == 3:
                    key = f"{'+'.join(group)} | {cls.value} | {topic}"
                    curves[key] = array("d", ((ab + ac + bc) / 3.0
                                              for ab, ac, bc in zip(*pairwise)))
    return curves


def run_experiment(context: CellContext, selectors: Sequence[FeatureSetSelector],
                   modes: Sequence[str], jobs: int = 1) -> list[CellResult]:
    """Runs every (selector, mode) cell on `jobs` processes, writes the whole
    output tree under context.out and returns the results sorted by cell."""
    out, train, test = context.out, context.train, context.test
    analysis_dir = out / "analysis"
    analysis_dir.mkdir(parents=True, exist_ok=True)
    cells = [(sel, mode) for sel in selectors for mode in modes]
    results = _run_cells(cells, jobs, context)
    results.sort(key=lambda r: (str(r.selector), r.mode))
    by_key = {(str(r.selector), r.mode): r for r in results}

    consistency = {
        f"{r.selector}__{r.mode}": user_consistency(test, r.predictions)
        for r in results
        if r.report is not None
    }
    if train.profiles:
        write_overlap_csvs(train.profiles, analysis_dir)
    if consistency:
        write_consistency_csv(consistency, analysis_dir / "user_consistency.csv")
    for mode in modes:
        curves = _experiment_curves(by_key, mode, train.topics, context.curve_max)
        if curves:
            write_curves_csv({pair: enumerate(values, 1) for pair, values in curves.items()},
                             analysis_dir / f"topn_curves__{mode}.csv")
        # Written, so not held while the next mode's curves are built.
        del curves

    _write_master_csv(out / "master.csv", results, train.topics)
    return results
