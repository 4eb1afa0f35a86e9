"""The benchmark's workloads: how each sets up, what it times, and how its
outputs are checked.

All corpora come from ``stancelab synth`` with the "unsaturated" flags
below. At synth's defaults every network-only ternary cell scores F_avg
1.0000, so a loss of accuracy would not show; with these flags the best
cell stays below 0.9.

Each workload loads a different part of the program:

* ``matrix`` runs the paper's whole selector x mode grid with its analyses.
  It is the only workload where the top-N curves, the cell executor and
  the duplicate-row structure of network-only cells matter.
* ``train`` fits one ternary text+network model on a larger corpus and
  scores it. The dual-coordinate-descent solve dominates; there are no
  duplicate rows and no analyses.
* ``score`` is the read path: load bundles, ingest a large labelling
  corpus, extract, vectorize and predict tweet by tweet, then score. It
  does no solver work.
"""

from __future__ import annotations

import csv
import hashlib
import statistics
from dataclasses import dataclass, field
from pathlib import Path

SYNTH_FLAGS = ("--homophily", "0.4", "--text-signal", "0.3", "--items-per-set", "8")
SELECTORS = ("TXT", "IN_AT", "IN_DM", "PN_AT", "PN_DM", "CN_FR", "CN_FL", "TXT+IN_AT+IN_DM")
MODES = ("ternary", "binary")
MODEL_SELECTOR = "TXT+IN_AT+IN_DM"
MATRIX_JOBS = 2
CURVE_MAX = 500

# Users per topic of each corpus. Sized so that one timed iteration takes a
# few seconds on a 2-vCPU machine and a run holds several iterations.
MATRIX_USERS = 100
TRAIN_USERS = 400
SCORE_USERS = 2400
SCORE_TWEETS_PER_USER = 4


@dataclass
class Outcome:
    """What the checks found in one iteration's outputs."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    f_avg: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)


def synth(out: Path, seed: int, users: int, prior: str | None, *extra: str) -> list[str]:
    argv = ["synth", "--out", str(out), "--seed", str(seed),
            "--users-per-topic", str(users), *SYNTH_FLAGS, *extra]
    if prior is not None:
        argv += ["--prior", prior]
    return argv


def count_rows(path: Path) -> int:
    """Data rows of a TSV with one header line."""
    with path.open(encoding="utf-8") as fh:
        return max(sum(1 for _ in fh) - 1, 0)


def topics_of(path: Path) -> set[str]:
    with path.open(encoding="utf-8") as fh:
        return {row["Target"] for row in csv.DictReader(fh, delimiter="\t")}


def sha256_files(paths: list[Path], base: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(base)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def tree_digest(root: Path) -> str:
    return sha256_files([p for p in root.rglob("*") if p.is_file()], root)


def overall_f_avg(report_csv: Path) -> float:
    with report_csv.open(encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["topic"] == "OVERALL":
                return float(row["f_avg"])
    raise ValueError(f"{report_csv}: no OVERALL row")


def confusion_total(confusion_csv: Path) -> int:
    with confusion_csv.open(encoding="utf-8") as fh:
        next(fh)
        return sum(int(v) for line in fh for v in line.strip().split(",")[1:])


def bundles_load(bundle_dirs: list[Path]) -> list[str]:
    """Problems found loading each bundle back; empty when all load."""
    from stancelab.linsvm import load_bundle

    problems = []
    for bundle in bundle_dirs:
        try:
            load_bundle(bundle)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"bundle {bundle.name} does not load: {exc}")
    return problems


def check_exit_codes(codes: list[int], outcome: Outcome) -> None:
    for step, code in enumerate(codes):
        if code != 0:
            outcome.problems.append(f"timed command {step} exited with {code}")


def check_evaluation(out: Path, expected_rows: int, outcome: Outcome) -> None:
    """An ``evaluate`` output directory scores every expected row."""
    report, confusion = out / "report.csv", out / "confusion.csv"
    if not report.is_file() or not confusion.is_file():
        outcome.problems.append(f"{out.name}: no evaluation report")
        return
    scored = confusion_total(confusion)
    if scored != expected_rows:
        outcome.problems.append(f"{out.name}: scored {scored} rows, expected {expected_rows}")
    outcome.f_avg = overall_f_avg(report)


class Matrix:
    name = "matrix"

    def __init__(self, users: int | None, prior: str | None) -> None:
        self.users = users or MATRIX_USERS
        self.prior = prior

    def setup(self, ws: Path, seed: int) -> list[list[str]]:
        return [synth(ws / "corpus", seed, self.users, self.prior)]

    def timed(self, ws: Path, out: Path, traced: bool) -> list[list[str]]:
        corpus = ws / "corpus"
        return [[
            "experiment",
            "--tweets", str(corpus / "train.tsv"),
            "--test", str(corpus / "test.tsv"),
            "--profiles", str(corpus / "profiles.jsonl"),
            "--selectors", ",".join(SELECTORS),
            "--modes", ",".join(MODES),
            # Traced runs keep every call in the traced process.
            "--jobs", "1" if traced else str(MATRIX_JOBS),
            "--curve-max", str(CURVE_MAX),
            "--out", str(out / "experiment"),
        ]]

    def check(self, ws: Path, out: Path, codes: list[int]) -> Outcome:
        outcome = Outcome(attempted=len(SELECTORS) * len(MODES))
        check_exit_codes(codes, outcome)
        root = out / "experiment"
        master = root / "master.csv"
        if not master.is_file():
            outcome.failed = outcome.attempted
            outcome.problems.append("no master.csv")
            return outcome
        test_rows = count_rows(ws / "corpus" / "test.tsv")
        with master.open(encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != outcome.attempted:
            outcome.problems.append(f"master.csv has {len(rows)} cells")
        scores = []
        for row in rows:
            cell = f"{row['selector']}__{row['mode']}"
            if row["status"] != "ok":
                outcome.failed += 1
                outcome.problems.append(f"{cell}: {row['status']}")
                continue
            predictions = root / "cells" / cell / "predictions.tsv"
            predicted = count_rows(predictions) if predictions.is_file() else 0
            bundles = sorted((root / "bundles" / cell).glob("*"))
            cell_problems = bundles_load(bundles) if bundles else ["no bundles"]
            if predicted != test_rows:
                cell_problems.append(f"{predicted} prediction rows for {test_rows} tweets")
            if cell_problems:
                outcome.failed += 1
                outcome.problems += [f"{cell}: {p}" for p in cell_problems]
            # A cell at 1.0000 means the corpus no longer hides accuracy losses.
            if row["f_avg"] == "1.0000":
                outcome.problems.append(f"{cell}: F_avg 1.0000, the corpus saturates")
            scores.append(float(row["f_avg"]))
        outcome.f_avg = statistics.fmean(scores) if scores else 0.0
        outcome.digests = {
            "master.csv": sha256_files([master], root),
            "predictions": sha256_files(list(root.glob("cells/*/predictions.tsv")), root),
            "bundles": tree_digest(root / "bundles") if (root / "bundles").is_dir() else "",
        }
        return outcome


class Train:
    name = "train"

    def __init__(self, users: int | None, prior: str | None) -> None:
        self.users = users or TRAIN_USERS
        self.prior = prior

    def setup(self, ws: Path, seed: int) -> list[list[str]]:
        return [synth(ws / "corpus", seed, self.users, self.prior)]

    def timed(self, ws: Path, out: Path, traced: bool) -> list[list[str]]:
        corpus = ws / "corpus"
        return [
            ["train", "--tweets", str(corpus / "train.tsv"),
             "--profiles", str(corpus / "profiles.jsonl"),
             "--selector", MODEL_SELECTOR, "--mode", "ternary",
             "--out", str(out / "bundles")],
            ["evaluate", "--bundles", str(out / "bundles"),
             "--tweets", str(corpus / "test.tsv"),
             "--profiles", str(corpus / "profiles.jsonl"),
             "--out", str(out / "eval")],
        ]

    def check(self, ws: Path, out: Path, codes: list[int]) -> Outcome:
        topics = topics_of(ws / "corpus" / "train.tsv")
        outcome = Outcome(attempted=len(topics))
        check_exit_codes(codes, outcome)
        bundles = sorted((out / "bundles").glob("*"))
        load_problems = bundles_load(bundles)
        outcome.problems += load_problems
        outcome.failed = max(len(topics) - len(bundles), 0) + len(load_problems)
        check_evaluation(out / "eval", count_rows(ws / "corpus" / "test.tsv"), outcome)
        if bundles:
            outcome.digests = {"bundles": tree_digest(out / "bundles")}
        return outcome


class Score:
    name = "score"

    def __init__(self, users: int | None, prior: str | None) -> None:
        self.model_users = users or MATRIX_USERS
        self.label_users = users or SCORE_USERS
        self.prior = prior

    def setup(self, ws: Path, seed: int) -> list[list[str]]:
        corpus = ws / "model_corpus"
        return [
            synth(corpus, seed, self.model_users, self.prior),
            ["train", "--tweets", str(corpus / "train.tsv"),
             "--profiles", str(corpus / "profiles.jsonl"),
             "--selector", MODEL_SELECTOR, "--mode", "ternary",
             "--out", str(ws / "bundles")],
            synth(ws / "labelling", seed + 1, self.label_users, self.prior,
                  "--tweets-per-user", str(SCORE_TWEETS_PER_USER)),
        ]

    def timed(self, ws: Path, out: Path, traced: bool) -> list[list[str]]:
        labelling = ws / "labelling"
        return [
            ["predict", "--bundles", str(ws / "bundles"),
             "--tweets", str(labelling / "train.tsv"),
             "--profiles", str(labelling / "profiles.jsonl"),
             "--out", str(out / "predictions.tsv")],
            ["evaluate", "--predictions", str(out / "predictions.tsv"),
             "--out", str(out / "eval")],
        ]

    def check(self, ws: Path, out: Path, codes: list[int]) -> Outcome:
        tweets = count_rows(ws / "labelling" / "train.tsv")
        outcome = Outcome(attempted=tweets)
        check_exit_codes(codes, outcome)
        predictions = out / "predictions.tsv"
        predicted = count_rows(predictions) if predictions.is_file() else 0
        if predicted != tweets:
            outcome.problems.append(f"{predicted} prediction rows for {tweets} tweets")
        outcome.failed = tweets if codes[0] != 0 else abs(tweets - predicted)
        outcome.problems += bundles_load(sorted((ws / "bundles").glob("*")))
        check_evaluation(out / "eval", tweets, outcome)
        if predictions.is_file():
            outcome.digests = {"predictions": sha256_files([predictions], out)}
        return outcome


WORKLOADS = {w.name: w for w in (Matrix, Train, Score)}
