"""End-to-end tests of the stancelab command line on a tiny synth corpus."""

import argparse
import concurrent.futures
import csv
import json
import math
import os
import pickle
import random
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

import stancelab
from stancelab import cli, pipeline
from stancelab.analysis import top_features, topn_overlap_curve, write_rankings_csv
from stancelab.cli import EXIT_CELL, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from stancelab.corpus import (
    StanceLabel, join, load_network_profiles, load_semeval_tsv, write_semeval_tsv,
)
from stancelab.experiment import CellContext, run_experiment
from stancelab.features import FeatureSetSelector
from stancelab.linsvm import TrainConfig, load_bundle
from stancelab.pipeline import predict_dataset, run_cell
from stancelab.scoring import write_predictions, write_report_csv
from stancelab.synth import SynthConfig

SELECTORS = "TXT,IN_AT,IN_DM,PN_AT,PN_DM,CN_FR,CN_FL,TXT+IN_AT+IN_DM"


def synth(out, *extra):
    code = main(["synth", "--out", str(out), "--seed", "3",
                 "--users-per-topic", "20", *extra])
    assert code == EXIT_OK
    return out


def experiment(corpus, out, jobs, *extra, selectors=SELECTORS):
    return main([
        "experiment", "--tweets", str(corpus / "train.tsv"),
        "--test", str(corpus / "test.tsv"),
        "--profiles", str(corpus / "profiles.jsonl"),
        "--selectors", selectors, "--out", str(out), "--jobs", str(jobs), *extra,
    ])


def load_split(corpus, name):
    profiles, _ = load_network_profiles(corpus / "profiles.jsonl")
    return join(load_semeval_tsv(corpus / name), profiles)[0]


def tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return synth(tmp_path_factory.mktemp("corpus"))


class TestExperiment:
    def test_jobs_output_identical_to_serial(self, corpus, tmp_path, capsys):
        assert experiment(corpus, tmp_path / "serial", 1) == EXIT_OK
        assert experiment(corpus, tmp_path / "pool", 2) == EXIT_OK
        serial, pool = tree(tmp_path / "serial"), tree(tmp_path / "pool")
        assert "master.csv" in serial
        assert any(name.startswith("analysis/topn_curves__") for name in serial)
        assert sorted(pool) == sorted(serial)
        assert not [name for name in serial if name.endswith(".tmp")]
        for name in serial:
            assert pool[name] == serial[name], name

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_cells_exit_3_and_are_recorded(self, tmp_path, jobs, capsys):
        one_class = synth(tmp_path / "corpus", "--prior", "1,0,0")
        assert experiment(one_class, tmp_path / "out", jobs) == EXIT_CELL
        with (tmp_path / "out" / "master.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        for row in rows:
            assert row["status"].startswith("failed:"), row
        assert "cell failed:" in capsys.readouterr().err

    def test_empty_training_set_fails_every_cell(self, corpus, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        train.write_text((corpus / "train.tsv").read_text().splitlines()[0] + "\n")
        out = tmp_path / "out"
        assert main(["experiment", "--tweets", str(train),
                     "--test", str(corpus / "test.tsv"), "--selectors", "TXT",
                     "--out", str(out)]) == EXIT_CELL
        with (out / "master.csv").open(newline="") as fh:
            statuses = [row["status"] for row in csv.DictReader(fh)]
        assert statuses == ["failed: ValueError: no training instances"] * 2

    @pytest.mark.parametrize("top_n, curve_max", [(30, 10), (5, 500)])
    def test_top_features_csv_ranks_the_saved_bundles(self, corpus, tmp_path,
                                                      top_n, curve_max):
        # The cells rank once at max(--top-n, --curve-max): the CSV must hold
        # the top --top-n entries per class, the curves the top --curve-max.
        out = tmp_path / "out"
        assert experiment(corpus, out, 1, "--top-n", str(top_n),
                          "--curve-max", str(curve_max),
                          selectors="TXT,IN_AT,PN_AT,CN_FR") == EXIT_OK
        topics = load_split(corpus, "train.tsv").topics
        cells = sorted((out / "bundles").iterdir())
        assert len(cells) == 8
        models = {}
        for cell in cells:
            for bundle in cell.iterdir():
                model, meta = load_bundle(bundle)
                models[cell.name, meta["topic"]] = model
            write_rankings_csv(
                [top_features(models[cell.name, topic], cls, topic, top_n)
                 for topic in topics for cls in models[cell.name, topic].classes],
                tmp_path / "expected.csv",
            )
            written = out / "analysis" / f"top_features__{cell.name}.csv"
            assert written.read_bytes() == (tmp_path / "expected.csv").read_bytes()

        # The curves rebuilt from the bundles: IN_AT vs PN_AT, and the joint
        # curve as the mean of the three pairwise curves at each N.
        expected = {}
        for topic in topics:
            for cls in (StanceLabel.FAVOR, StanceLabel.AGAINST):
                in_at, pn_at, cn_fr = (
                    top_features(models[f"{flag}__ternary", topic], cls, topic,
                                 curve_max)
                    for flag in ("IN_AT", "PN_AT", "CN_FR")
                )
                ab, ac, bc = (topn_overlap_curve(left, right, n_max=curve_max)
                              for left, right in ((in_at, pn_at), (in_at, cn_fr),
                                                  (pn_at, cn_fr)))
                joint = [(n, (x + y + z) / 3.0)
                         for (n, x), (_, y), (_, z) in zip(ab, ac, bc)]
                for name, curve in (("IN_AT vs PN_AT", ab), ("IN_AT+PN_AT+CN_FR", joint)):
                    pair = f"{name} | {cls.value} | {topic}"
                    expected[pair] = [[str(n), pair, f"{value:.6f}"]
                                      for n, value in curve]
        with (out / "analysis" / "topn_curves__ternary.csv").open(newline="") as fh:
            rows = [row for row in csv.reader(fh) if row[1] in expected]
        assert rows == [row for pair in sorted(expected) for row in expected[pair]]

    def test_analyze_ranks_bundles_as_the_experiment_did(self, tmp_path, capsys):
        # Few users leave zero weights in the top 30, whose Against sign
        # (-0.0) a bundle must give back.
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus), "--users-per-topic", "5"]) == EXIT_OK
        out = tmp_path / "out"
        assert experiment(corpus, out, 1, "--modes", "binary",
                          selectors="IN_AT,TXT") == EXIT_OK
        # A binary bundle holds one weight per feature: its Favor fit's.
        weights = list((out / "bundles").rglob("weights.tsv"))
        assert weights and all(line.count("\t") == 1 for path in weights
                               for line in path.read_text(encoding="utf-8").splitlines())
        assert main(["analyze", "--bundles", str(out / "bundles" / "IN_AT__binary"),
                     "--out", str(tmp_path / "a")]) == EXIT_OK
        ranked = (out / "analysis" / "top_features__IN_AT__binary.csv").read_bytes()
        assert b"-0.000000" in ranked
        assert (tmp_path / "a" / "top_features.csv").read_bytes() == ranked

    @pytest.mark.parametrize("selectors, curves", [
        ("IN_AT,PN_AT,CN_FR,IN_DM,PN_DM",
         ["IN_AT+PN_AT+CN_FR", "IN_AT vs PN_AT", "IN_AT vs CN_FR",
          "PN_AT vs CN_FR", "IN_DM vs PN_DM"]),
        # A group with a family missing gets no curves at all.
        ("IN_AT,PN_AT,IN_DM,PN_DM", ["IN_DM vs PN_DM"]),
    ], ids=["all-families", "no-CN_FR"])
    def test_compared_families(self, corpus, tmp_path, selectors, curves):
        # The comparisons the paper's analysis makes: profile-set overlap of
        # IN/PN/CN accounts and IN/PN domains, and the top-N curves of the
        # single-family models, for every topic and polarized class.
        out = tmp_path / "out"
        assert experiment(corpus, out, 1, "--modes", "ternary", "--curve-max", "5",
                          selectors=selectors) == EXIT_OK
        analysis = out / "analysis"
        assert sorted(path.name for path in analysis.glob("overlap__*")) == [
            "overlap__in_domains__pn_domains.csv",
            "overlap__in_mentions__cn_friends.csv",
            "overlap__in_mentions__pn_mentions.csv",
            "overlap__pn_mentions__cn_friends.csv",
        ]
        with (analysis / "topn_curves__ternary.csv").open(newline="") as fh:
            pairs = {row["pair"] for row in csv.DictReader(fh)}
        assert pairs == {
            f"{curve} | {cls} | {topic}"
            for curve in curves
            for cls in ("FAVOR", "AGAINST")
            for topic in load_split(corpus, "train.tsv").topics
        }

    def test_no_overlap_files_without_profiles(self, corpus, tmp_path):
        out = tmp_path / "out"
        assert main(["experiment", "--tweets", str(corpus / "train.tsv"),
                     "--test", str(corpus / "test.tsv"), "--selectors", "TXT",
                     "--modes", "binary", "--out", str(out)]) == EXIT_OK
        assert (out / "analysis" / "user_consistency.csv").exists()
        assert not list((out / "analysis").glob("overlap__*"))

    @pytest.mark.parametrize("case", ["not-in-file", "dropped"])
    def test_test_topic_without_training_tweets(self, corpus, tmp_path, case, capsys):
        # No cell could score such a topic: the run stops before any output,
        # also when --require-profile drops the topic's training tweets.
        train, profiles = tmp_path / "train.tsv", tmp_path / "profiles.jsonl"
        lines = (corpus / "train.tsv").read_text().splitlines(keepends=True)
        gamma_authors = {line.rstrip("\n").split("\t")[4] for line in lines[1:]
                         if line.split("\t")[1] == "gamma"}
        extra = []
        if case == "not-in-file":
            train.write_text("".join(line for line in lines
                                     if line.split("\t")[1] != "gamma"))
            profiles.write_bytes((corpus / "profiles.jsonl").read_bytes())
        else:
            train.write_text("".join(lines))
            profiles.write_text("".join(
                line for line in (corpus / "profiles.jsonl").read_text().splitlines(True)
                if json.loads(line)["user_id"] not in gamma_authors))
            extra = ["--require-profile"]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["experiment", "--tweets", str(train),
                     "--test", str(corpus / "test.tsv"), "--profiles", str(profiles),
                     "--selectors", "TXT,IN_AT", "--out", str(out), *extra]) == EXIT_DATA
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"stancelab: --test {corpus / 'test.tsv'}: topic 'gamma' has no "
            f"tweets in --tweets {train}")
        assert not out.exists()

    @pytest.mark.parametrize("prior", [None, "1,0,0"], ids=["ok", "failing"])
    def test_engine_runs_in_process(self, corpus, tmp_path, prior, capsys):
        # run_experiment needs no argparse: a CellContext built from the
        # loaded split writes what the command writes.
        if prior:
            corpus = synth(tmp_path / "corpus", "--prior", prior)
        selectors = "TXT,IN_AT,PN_AT,CN_FR"
        code = experiment(corpus, tmp_path / "cli", 1, selectors=selectors)
        assert code == (EXIT_CELL if prior else EXIT_OK)
        profiles, _ = load_network_profiles(corpus / "profiles.jsonl")
        train, test = (join(load_semeval_tsv(corpus / name), profiles)[0]
                       for name in ("train.tsv", "test.tsv"))
        context = CellContext(train, test, TrainConfig(), out=tmp_path / "engine",
                              top_n=20, curve_max=200)
        results = run_experiment(
            context, [FeatureSetSelector.parse(s) for s in selectors.split(",")],
            ["ternary", "binary"])
        assert tree(tmp_path / "engine") == tree(tmp_path / "cli")
        with (tmp_path / "cli" / "master.csv").open(newline="") as fh:
            rows = [(row["selector"], row["mode"], row["status"])
                    for row in csv.DictReader(fh)]
        assert [(str(r.selector), r.mode,
                 "ok" if r.report else f"failed: {r.error}") for r in results] == rows
        assert rows == sorted(rows) and len(rows) == 8

    @pytest.mark.parametrize("curve_max", [8, 100_000])
    def test_cells_return_only_the_rankings_the_curves_read(self, corpus, tmp_path,
                                                            curve_max):
        # The curves read the Favor and Against rankings of the single-family
        # cells of COMPARED_FAMILIES; every other cell sends back none.
        profiles, _ = load_network_profiles(corpus / "profiles.jsonl")
        train, test = (join(load_semeval_tsv(corpus / name), profiles)[0]
                       for name in ("train.tsv", "test.tsv"))
        out = tmp_path / "out"
        context = CellContext(train, test, TrainConfig(), out=out, top_n=3,
                              curve_max=curve_max)
        selectors = ["TXT", "CN_FL", "IN_AT+IN_DM", "IN_AT"]
        results = run_experiment(context, [FeatureSetSelector.parse(s) for s in selectors],
                                 ["ternary", "binary"], jobs=1)
        assert all(r.report is not None for r in results)
        returned = {(str(r.selector), r.mode): r.rankings for r in results}
        for cell, rankings in returned.items():
            if cell[0] != "IN_AT":
                assert rankings == {}, cell
        polarized = (StanceLabel.FAVOR, StanceLabel.AGAINST)
        for mode in ("ternary", "binary"):
            rankings = returned["IN_AT", mode]
            assert set(rankings) == {(topic, cls) for topic in train.topics
                                     for cls in polarized}
            bundles = list((out / "bundles" / f"IN_AT__{mode}").iterdir())
            assert len(bundles) == len(train.topics)
            for bundle in bundles:
                model, meta = load_bundle(bundle)
                topic = meta["topic"]
                for cls in polarized:
                    ranking = rankings[topic, cls]
                    assert ranking == top_features(model, cls, topic, curve_max)
                    assert len(ranking.entries) == min(curve_max, model.space.size)


class TestCellPool:
    """experiment --jobs N hands its workers the path of a pickled context
    file and submits the costliest cells first."""

    @pytest.fixture()
    def handoff_dir(self, tmp_path, monkeypatch):
        handoff = tmp_path / "tmp"
        handoff.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(handoff))
        return handoff

    @pytest.fixture()
    def pools(self, monkeypatch):
        """The keyword arguments and the submitted cells of each pool."""
        made = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, **kwargs):
                made.append({"kwargs": kwargs})
                super().__init__(**kwargs)

            def map(self, fn, cells):
                made[-1]["cells"] = [(str(sel), mode) for sel, mode in cells]
                return super().map(fn, cells)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        return made

    def test_network_first_selectors_match_serial(self, corpus, tmp_path,
                                                  handoff_dir, pools):
        selectors = "IN_AT,IN_DM,PN_AT,PN_DM,CN_FR,CN_FL,TXT+IN_AT+IN_DM,TXT"
        for jobs in (1, 2):
            assert experiment(corpus, tmp_path / f"jobs{jobs}", jobs,
                              selectors=selectors) == EXIT_OK
        assert tree(tmp_path / "jobs2") == tree(tmp_path / "jobs1")
        assert not list(handoff_dir.iterdir())
        [pool] = pools
        # A path, not the pickled datasets: it fits any pipe buffer.
        assert len(pickle.dumps(pool["kwargs"]["initargs"])) < 4096
        assert pool["cells"][:4] == [
            ("IN_AT+IN_DM+TXT", "ternary"), ("TXT", "ternary"),
            ("IN_AT+IN_DM+TXT", "binary"), ("TXT", "binary"),
        ]
        assert len(pool["cells"]) == 16

    def test_failed_cells_leave_no_handoff_file(self, tmp_path, handoff_dir,
                                                 capsys):
        one_class = synth(tmp_path / "corpus", "--prior", "1,0,0")
        assert experiment(one_class, tmp_path / "out", 2) == EXIT_CELL
        assert not list(handoff_dir.iterdir())


class TestProfilesReadOnce:
    """Each command reads the --profiles file once, however many inputs it
    joins with it, and each tweets file once, but for predict, which reads
    its --tweets twice (TestStreamedPredict)."""

    @pytest.fixture(scope="class")
    def scored(self, corpus, tmp_path_factory):
        root = tmp_path_factory.mktemp("scored")
        assert main(["train", "--tweets", str(corpus / "train.tsv"),
                     "--profiles", str(corpus / "profiles.jsonl"),
                     "--selector", "IN_AT", "--mode", "binary",
                     "--out", str(root / "bundles")]) == EXIT_OK
        assert main(["predict", "--bundles", str(root / "bundles"),
                     "--tweets", str(corpus / "test.tsv"),
                     "--profiles", str(corpus / "profiles.jsonl"),
                     "--out", str(root / "predictions.tsv")]) == EXIT_OK
        return root

    @pytest.mark.parametrize("command", [
        "train", "predict", "experiment", "analyze", "evaluate"])
    def test_one_read_per_command(self, corpus, scored, tmp_path, monkeypatch,
                                  command, capsys):
        reads = []

        def counting(path, **kwargs):
            reads.append(path)
            return load_network_profiles(path, **kwargs)

        monkeypatch.setattr(cli, "load_network_profiles", counting)
        profiles = ["--profiles", str(corpus / "profiles.jsonl")]
        test = ["--tweets", str(corpus / "test.tsv")]
        out = ["--out", str(tmp_path / "out")]
        argv = {
            "train": ["train", "--tweets", str(corpus / "train.tsv"),
                      "--selector", "IN_AT", "--mode", "binary"],
            "predict": ["predict", "--bundles", str(scored / "bundles"), *test],
            "experiment": ["experiment", "--tweets", str(corpus / "train.tsv"),
                           "--test", str(corpus / "test.tsv"),
                           "--selectors", "IN_AT", "--modes", "binary"],
            "analyze": ["analyze", "--predictions",
                        str(scored / "predictions.tsv"), *test],
            "evaluate": ["evaluate", "--bundles", str(scored / "bundles"),
                         "--compare", str(scored / "bundles"), *test],
        }[command]
        assert main([*argv, *profiles, *out]) == EXIT_OK
        assert len(reads) == 1

    def test_evaluate_joins_the_tweets_once(self, corpus, scored, tmp_path,
                                            monkeypatch, capsys):
        # Both bundles directories score the one joined --tweets dataset.
        assert main(["train", "--tweets", str(corpus / "train.tsv"),
                     "--selector", "TXT", "--mode", "binary",
                     "--out", str(tmp_path / "text")]) == EXIT_OK
        calls = []
        for name in ("load_semeval_tsv", "join"):
            def counting(*args, _fn=getattr(cli, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, counting)
        assert main(["evaluate", "--bundles", str(scored / "bundles"),
                     "--compare", str(tmp_path / "text"),
                     "--tweets", str(corpus / "test.tsv"),
                     "--profiles", str(corpus / "profiles.jsonl"),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert sorted(calls) == ["join", "load_semeval_tsv"]
        assert (tmp_path / "out" / "significance.txt").exists()

    @pytest.mark.parametrize("repeats", [0, 1])
    def test_repeated_user_ids_are_counted_on_stderr(self, corpus, scored, tmp_path,
                                                     repeats, capsys):
        # The loader keeps the last record of each user_id.
        lines = (corpus / "profiles.jsonl").read_text().splitlines(keepends=True)
        profiles = tmp_path / "profiles.jsonl"
        profiles.write_text("".join(lines + lines[:repeats]))
        line = (f"stancelab: --profiles {profiles}: 1 records repeat an earlier "
                "user_id; the last of each is used")
        capsys.readouterr()
        assert main(["predict", "--bundles", str(scored / "bundles"),
                     "--tweets", str(corpus / "test.tsv"), "--profiles", str(profiles),
                     "--out", str(tmp_path / "predictions.tsv")]) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [line] * repeats
        assert main(["experiment", "--tweets", str(corpus / "train.tsv"),
                     "--test", str(corpus / "test.tsv"), "--profiles", str(profiles),
                     "--selectors", "IN_AT", "--modes", "binary",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        err = capsys.readouterr().err
        assert err.splitlines().count(line) == repeats
        assert repeats or "repeat an earlier user_id" not in err


class TestFilteredRead:
    """train, predict and evaluate read of --profiles only the families and
    the authors they use, and write what a full read gives."""

    @staticmethod
    def run(corpus, profiles, out, extra):
        test = ["--tweets", str(corpus / "test.tsv"), "--profiles", str(profiles)]
        for selector in ("IN_AT", "IN_DM"):
            assert main(["train", "--tweets", str(corpus / "train.tsv"),
                         "--profiles", str(profiles), "--selector", selector,
                         "--mode", "binary", "--out", str(out / selector),
                         *extra]) == EXIT_OK
        assert main(["predict", "--bundles", str(out / "IN_AT"), *test,
                     "--out", str(out / "predictions.tsv"), *extra]) == EXIT_OK
        # Each side reads a family the other does not use.
        assert main(["evaluate", "--bundles", str(out / "IN_AT"),
                     "--compare", str(out / "IN_DM"), *test,
                     "--out", str(out / "evaluation")]) == EXIT_OK

    @pytest.mark.parametrize("extra", [[], ["--require-profile"]])
    def test_outputs_equal_a_full_read(self, corpus, tmp_path, monkeypatch,
                                       extra, capsys):
        half = tmp_path / "half.jsonl"
        lines = (corpus / "profiles.jsonl").read_text().splitlines(keepends=True)
        half.write_text("".join(lines[::2]))
        reads = []

        def recording(path, **kwargs):
            reads.append(kwargs)
            return load_network_profiles(path, **kwargs)

        monkeypatch.setattr(cli, "load_network_profiles", recording)
        self.run(corpus, half, tmp_path / "filtered", extra)
        filtered_err = capsys.readouterr().err
        assert [sorted(r["fields"]) for r in reads] == [
            ["in_mentions"], ["in_domains"], ["in_mentions"],
            ["in_domains", "in_mentions"]]
        monkeypatch.setattr(cli, "load_network_profiles",
                            lambda path, **_: load_network_profiles(path))
        self.run(corpus, half, tmp_path / "full", extra)
        assert capsys.readouterr().err == filtered_err
        filtered, full = tree(tmp_path / "filtered"), tree(tmp_path / "full")
        assert "evaluation/significance.txt" in full
        assert filtered == full


class TestAligner:
    """Each paired input is checked against its reference in one place:
    evaluate aligns every side but a bundles directory with the joined
    --tweets or, without it, --compare with the first side; --pred-labels
    pairs with --gold by position; analyze aligns --predictions with
    --tweets. A file cut short, reordered or made for another Target exits
    2 before any output and names the first row that differs or the
    counts."""

    @pytest.mark.parametrize("case", [
        "cut", "reordered", "other-target", "labels-short", "compare",
        "analyze-other-target"])
    def test_misaligned_input_refused(self, corpus, tmp_path, case, capsys):
        tweets = corpus / "test.tsv"
        instances = list(load_split(corpus, "test.tsv").instances)
        keys = [(i.tweet_id, i.topic) for i in instances]
        n = len(instances)
        good, bad = tmp_path / "good.tsv", tmp_path / "bad.tsv"
        write_predictions(good, instances, [i.label for i in instances])
        rows = {
            "cut": instances[:19],
            "reordered": instances[:3] + [instances[4], instances[3]] + instances[5:],
            "other-target": [replace(i, topic="zeta") for i in instances],
        }
        rows["compare"] = rows["reordered"]
        rows["analyze-other-target"] = rows["other-target"]
        if case in rows:
            write_predictions(bad, rows[case], [i.label for i in rows[case]])
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"{i.label.value}\n" for i in instances[:-1]))
        evaluate = ["evaluate", "--predictions", str(bad), "--tweets", str(tweets)]
        argv, message = {
            "cut": (evaluate, f"--predictions {bad}: 19 rows, where --tweets has {n}"),
            "reordered": (evaluate, f"--predictions {bad}: row 4 is {keys[4]}, "
                          f"where --tweets has {keys[3]}"),
            "other-target": (evaluate, f"--predictions {bad}: row 1 is "
                             f"{(keys[0][0], 'zeta')}, where --tweets has {keys[0]}"),
            "labels-short": (["evaluate", "--gold", str(tweets),
                              "--pred-labels", str(labels)],
                             f"--pred-labels {labels}: {n - 1} rows, where --gold "
                             f"has {n}"),
            "compare": (["evaluate", "--predictions", str(good), "--compare", str(bad)],
                        f"--compare {bad}: row 4 is {keys[4]}, where --predictions "
                        f"has {keys[3]}"),
            "analyze-other-target": (
                ["analyze", "--predictions", str(bad), "--tweets", str(tweets)],
                f"--predictions {bad}: row 1 is {(keys[0][0], 'zeta')}, where "
                f"--tweets has {keys[0]}"),
        }[case]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr() == ("", f"stancelab: {message}\n")
        assert not out.exists()

    def test_aligned_sides_score_as_without_tweets(self, corpus, tmp_path, capsys):
        instances = load_split(corpus, "test.tsv").instances
        predictions = tmp_path / "predictions.tsv"
        write_predictions(predictions, instances, [i.label for i in instances])
        argv = ["evaluate", "--predictions", str(predictions),
                "--compare", str(predictions)]
        assert main([*argv, "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main([*argv, "--tweets", str(corpus / "test.tsv"),
                     "--out", str(tmp_path / "b")]) == EXIT_OK
        assert tree(tmp_path / "a") == tree(tmp_path / "b")


class TestRequireProfile:
    """The predictions of predict --require-profile can be evaluated against
    bundles and analyzed, when those join --tweets the same way."""

    def test_evaluate_and_analyze_join_as_predict_did(self, corpus, tmp_path, capsys):
        half = tmp_path / "half.jsonl"
        lines = (corpus / "profiles.jsonl").read_text().splitlines(keepends=True)
        half.write_text("".join(lines[::2]))
        test = ["--tweets", str(corpus / "test.tsv"), "--profiles", str(half)]
        assert main(["train", "--tweets", str(corpus / "train.tsv"),
                     "--profiles", str(corpus / "profiles.jsonl"), "--selector", "IN_AT",
                     "--mode", "binary", "--out", str(tmp_path / "bundles")]) == EXIT_OK
        predictions = tmp_path / "predictions.tsv"
        assert main(["predict", "--bundles", str(tmp_path / "bundles"), *test,
                     "--out", str(predictions), "--require-profile"]) == EXIT_OK
        kept = len(predictions.read_text().splitlines()) - 1
        assert 0 < kept < len((corpus / "test.tsv").read_text().splitlines()) - 1
        evaluate = ["evaluate", "--predictions", str(predictions),
                    "--compare", str(tmp_path / "bundles"), *test]
        analyze = ["analyze", "--predictions", str(predictions), *test]
        # Joined over every tweet, neither lines up with the predictions.
        assert main([*evaluate, "--out", str(tmp_path / "v0")]) == EXIT_DATA
        assert main([*analyze, "--out", str(tmp_path / "a0")]) == EXIT_DATA
        capsys.readouterr()
        assert main([*evaluate, "--out", str(tmp_path / "v"),
                     "--require-profile"]) == EXIT_OK
        assert "t_test_p=" in (tmp_path / "v" / "significance.txt").read_text()
        confusion = (tmp_path / "v" / "confusion.csv").read_text().splitlines()[1:]
        assert sum(int(v) for row in confusion for v in row.split(",")[1:]) == kept
        assert main([*analyze, "--out", str(tmp_path / "a"), "--require-profile"]) == EXIT_OK
        assert (tmp_path / "a" / "user_consistency.csv").exists()
        # --predictions alone is aligned with --tweets joined the same way.
        evaluate = ["evaluate", "--predictions", str(predictions), *test]
        capsys.readouterr()
        assert main([*evaluate, "--out", str(tmp_path / "p0")]) == EXIT_DATA
        assert f"--predictions {predictions}: row " in capsys.readouterr().err
        assert not (tmp_path / "p0").exists()
        assert main([*evaluate, "--out", str(tmp_path / "p"),
                     "--require-profile"]) == EXIT_OK
        assert ((tmp_path / "p" / "report.csv").read_bytes()
                == (tmp_path / "v" / "report.csv").read_bytes())


class TestStreamedPredict:
    """predict reads --tweets twice, first for the authors and topics, then
    to join and predict pipeline.STREAM_CHUNK tweets at a time, and writes
    what predicting the whole file at once writes."""

    @pytest.fixture(scope="class")
    def streamed(self, corpus, tmp_path_factory):
        root = tmp_path_factory.mktemp("streamed")
        assert main(["train", "--tweets", str(corpus / "train.tsv"),
                     "--profiles", str(corpus / "profiles.jsonl"),
                     "--selector", "TXT+IN_AT", "--mode", "ternary",
                     "--out", str(root / "bundles")]) == EXIT_OK
        # The topics take turns, so that one chunk spans them all.
        by_topic = {}
        for inst in load_semeval_tsv(corpus / "test.tsv"):
            by_topic.setdefault(inst.topic, []).append(inst)
        turns = [inst for rank in range(max(map(len, by_topic.values())))
                 for rows in by_topic.values() for inst in rows[rank:rank + 1]]
        write_semeval_tsv(root / "tweets.tsv", turns)
        half = root / "half.jsonl"
        lines = (corpus / "profiles.jsonl").read_text().splitlines(keepends=True)
        half.write_text("".join(lines[::2]))
        return root / "bundles", root / "tweets.tsv", half

    @staticmethod
    def predict(bundles, tweets, profiles, out, *extra):
        return main(["predict", "--bundles", str(bundles), "--tweets", str(tweets),
                     "--profiles", str(profiles), "--out", str(out), *extra])

    @pytest.mark.parametrize("extra", [[], ["--require-profile"]])
    def test_chunks_write_what_one_pass_writes(self, streamed, tmp_path, monkeypatch,
                                               extra, capsys):
        bundles, tweets, half = streamed
        instances = load_semeval_tsv(tweets)
        assert len({inst.topic for inst in instances[:7]}) == 3
        dataset, dropped = join(instances, load_network_profiles(half)[0],
                                require_profile=bool(extra))
        assert dropped or not extra
        expected = tmp_path / "expected.tsv"
        write_predictions(expected, dataset.instances,
                          predict_dataset(cli._load_models(str(bundles)), dataset))
        sizes = []

        def recording(models, dataset):
            sizes.append(len(dataset.instances))
            return predict_dataset(models, dataset)

        monkeypatch.setattr(pipeline, "STREAM_CHUNK", 7)
        monkeypatch.setattr(pipeline, "predict_dataset", recording)
        capsys.readouterr()
        out = tmp_path / "predictions.tsv"
        assert self.predict(bundles, tweets, half, out, *extra) == EXIT_OK
        assert out.read_bytes() == expected.read_bytes()
        assert capsys.readouterr().err == (
            f"dropped {dropped} instances without profiles\n" if extra else "")
        assert len(sizes) == math.ceil(len(instances) / 7)
        assert max(sizes) <= 7 and sum(sizes) == len(dataset.instances)

    def test_malformed_line_past_the_first_chunk(self, streamed, tmp_path, monkeypatch,
                                                 capsys):
        # The first pass finds it, before --profiles is read.
        bundles, tweets, half = streamed
        lines = tweets.read_text(encoding="utf-8").splitlines(keepends=True)
        bad = tmp_path / "tweets.tsv"
        bad.write_text("".join(lines[:19] + ["short\tline\n"] + lines[19:]),
                       encoding="utf-8")
        reads = []
        monkeypatch.setattr(cli, "load_network_profiles",
                            lambda *args, **kwargs: reads.append(args))
        monkeypatch.setattr(pipeline, "STREAM_CHUNK", 7)
        capsys.readouterr()
        assert self.predict(bundles, bad, half, tmp_path / "out.tsv") == EXIT_DATA
        assert capsys.readouterr().err == (
            f"stancelab: {bad}: line 20: expected 4 or 5 tab-separated fields, got 2\n")
        assert not reads
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tweets.tsv"]

    def test_topic_without_a_bundle(self, streamed, tmp_path, monkeypatch, capsys):
        # The first pass finds it too, before --profiles is read.
        bundles, tweets, half = streamed
        bundle = sorted(bundles.iterdir())[0]
        _, meta = load_bundle(bundle)
        missing = next(inst.topic for inst in load_semeval_tsv(tweets)
                       if inst.topic != meta["topic"])
        reads = []
        monkeypatch.setattr(cli, "load_network_profiles",
                            lambda *args, **kwargs: reads.append(args))
        capsys.readouterr()
        assert self.predict(bundle, tweets, half, tmp_path / "out.tsv") == EXIT_DATA
        assert capsys.readouterr().err == f"stancelab: no model for topic {missing!r}\n"
        assert not reads
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("change", ["grown", "cut", "malformed"])
    def test_file_changed_between_the_passes(self, streamed, tmp_path, monkeypatch,
                                             change, capsys):
        # Rows of earlier chunks are written by the time the second pass
        # fails; the predictions file is left as it was.
        bundles, tweets, half = streamed
        moving = tmp_path / "tweets.tsv"
        moving.write_bytes(tweets.read_bytes())
        lines = tweets.read_text(encoding="utf-8").splitlines(keepends=True)
        topic = lines[1].split("\t")[1]
        changed = {
            "grown": lines + [f"extra\t{topic}\ttext\tNONE\textra\n"],
            "cut": lines[:-1],
            "malformed": lines + ["short\tline\n"],
        }[change]

        def changing(path, **kwargs):
            moving.write_text("".join(changed), encoding="utf-8")
            return load_network_profiles(path, **kwargs)

        monkeypatch.setattr(cli, "load_network_profiles", changing)
        monkeypatch.setattr(pipeline, "STREAM_CHUNK", 7)
        out = tmp_path / "predictions.tsv"
        out.write_text("old\n", encoding="utf-8")
        capsys.readouterr()
        assert self.predict(bundles, moving, half, out) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"stancelab: {moving}: line {len(changed)}: expected 4 or 5 tab-separated "
            "fields, got 2\n" if change == "malformed"
            else f"stancelab: --tweets {moving}: the file changed while predict read it\n")
        assert out.read_text(encoding="utf-8") == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [out.name, moving.name]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_refused(self, streamed, tmp_path, capsys):
        # A pipe would read empty the second time. Opening one without a
        # writer blocks, so the alarm fails the test rather than hang it.
        bundles, _, half = streamed
        fifo = tmp_path / "tweets.fifo"
        os.mkfifo(fifo)

        def opened(signum, frame):
            pytest.fail("predict opened the pipe")

        previous = signal.signal(signal.SIGALRM, opened)
        signal.alarm(20)
        try:
            code = self.predict(bundles, fifo, half, tmp_path / "out.tsv")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"stancelab: --tweets {fifo}: not a regular file; predict reads it twice\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [fifo.name]

    def test_memory_does_not_grow_with_the_tweets(self, tmp_path, monkeypatch, capsys):
        # The same users with 1 and with 8 tweets each. Holding every
        # instance cost 570 B of traced peak per added tweet; with chunks
        # of 7 it measured 121-129 B, most of it the set of tweet IDs that
        # the reader checks for repeats.
        corpus = synth(tmp_path / "corpus", "--users-per-topic", "50",
                       "--tweets-per-user", "8")
        bundles = tmp_path / "bundles"
        assert main(["train", "--tweets", str(corpus / "train.tsv"),
                     "--profiles", str(corpus / "profiles.jsonl"),
                     "--selector", "IN_AT", "--mode", "ternary",
                     "--out", str(bundles)]) == EXIT_OK
        instances = load_semeval_tsv(corpus / "train.tsv")
        first = {}
        for inst in instances:
            first.setdefault(inst.author_id, inst)
        write_semeval_tsv(tmp_path / "one.tsv", first.values())
        monkeypatch.setattr(pipeline, "STREAM_CHUNK", 7)
        peaks = {}
        for name in ("warm-up", "one.tsv", "train.tsv"):
            tweets = corpus / name if name == "train.tsv" else tmp_path / "one.tsv"
            tracemalloc.start()
            try:
                assert self.predict(bundles, tweets, corpus / "profiles.jsonl",
                                    tmp_path / "out.tsv") == EXIT_OK
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        added = len(instances) - len(first)
        assert added >= 6 * len(first)
        assert (peaks["train.tsv"] - peaks["one.tsv"]) / added < 200


def test_experiment_notes_authors_in_both_splits(corpus, tmp_path, capsys):
    note = "pairs are in both --tweets and --test"
    argv = ["experiment", "--tweets", str(corpus / "train.tsv"),
            "--profiles", str(corpus / "profiles.jsonl"),
            "--selectors", "IN_AT", "--modes", "binary"]
    # synth splits by user, so its splits share no author.
    assert main([*argv, "--test", str(corpus / "test.tsv"),
                 "--out", str(tmp_path / "split")]) == EXIT_OK
    split = capsys.readouterr()
    assert note not in split.err
    assert main([*argv, "--test", str(corpus / "train.tsv"),
                 "--out", str(tmp_path / "shared")]) == EXIT_OK
    shared = capsys.readouterr()
    pairs = {(i.author_id, i.topic) for i in load_semeval_tsv(corpus / "train.tsv")}
    assert shared.err.count(note) == 1
    assert (f"stancelab: {len(pairs)} (author, topic) {note}; network cells "
            "can memorize their authors\n") in shared.err
    assert shared.out == split.out.replace("split", "shared")


@pytest.mark.parametrize("selector, mode", [("TXT+IN_AT+IN_DM", "ternary"),
                                            ("IN_AT", "binary")])
def test_train_predict_evaluate_equal_run_cell(corpus, tmp_path, selector, mode,
                                               capsys):
    profiles = str(corpus / "profiles.jsonl")
    assert main(["train", "--tweets", str(corpus / "train.tsv"),
                 "--profiles", profiles, "--selector", selector, "--mode", mode,
                 "--seed", "5", "--out", str(tmp_path / "bundles")]) == EXIT_OK
    assert main(["predict", "--bundles", str(tmp_path / "bundles"),
                 "--tweets", str(corpus / "test.tsv"), "--profiles", profiles,
                 "--out", str(tmp_path / "predictions.tsv")]) == EXIT_OK
    assert main(["evaluate", "--predictions", str(tmp_path / "predictions.tsv"),
                 "--out", str(tmp_path / "evaluation")]) == EXIT_OK

    test = load_split(corpus, "test.tsv")
    _, report, predictions = run_cell(
        load_split(corpus, "train.tsv"), test, FeatureSetSelector.parse(selector),
        mode, TrainConfig(seed=5),
    )
    write_predictions(tmp_path / "expected.tsv", test.instances, predictions)
    write_report_csv(report, tmp_path / "expected.csv")
    assert ((tmp_path / "predictions.tsv").read_bytes()
            == (tmp_path / "expected.tsv").read_bytes())
    assert ((tmp_path / "evaluation" / "report.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())


class TestUsageErrors:
    # Each exits 1 before anything is written.
    @pytest.mark.parametrize("extra", [
        ["--modes", "ternary,unary"],
        ["--top-n", "0"],
        ["--curve-max", "0"],
        ["--min-df", "0"],
        ["--max-iter", "0"],
        ["--selectors", ","],
        ["--selectors", "TXT,TXT"],
        ["--selectors", "TXT+IN_AT,IN_AT+TXT"],
        ["--modes", "ternary,ternary"],
        ["--seed", "-1"],
        ["--jobs", "0"],
        ["--jobs", "-1"],
        ["--C", "nan"],
        ["--C", "inf"],
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--seed", str(2**64)],
    ])
    def test_bad_experiment_flag(self, corpus, tmp_path, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            experiment(corpus, tmp_path / "out", 1, *extra)
        assert exc.value.code == EXIT_USAGE
        assert not (tmp_path / "out").exists()

    # The tweets file does not exist: a flag read after the input would give
    # the data error instead.
    @pytest.mark.parametrize("extra,message", [
        (["--C", "0"], "C must be positive"),
        (["--tol", "0"], "tol must be positive"),
        (["--max-iter", "0"], "max_iter must be >= 1"),
        (["--selector", "FOO"], "unknown selector flags"),
        (["--seed", "-1"], "--seed: must be >= 0"),
        (["--C", "nan"], "C must be positive and finite"),
        (["--C", "inf"], "C must be positive and finite"),
        (["--tol", "nan"], "tol must be positive and finite"),
        (["--tol", "inf"], "tol must be positive and finite"),
        (["--seed", str(2**64)], "--seed: must be < 2**64"),
    ], ids=["C", "tol", "max-iter", "selector", "seed", "C-nan", "C-inf",
            "tol-nan", "tol-inf", "seed-2**64"])
    def test_bad_train_flag(self, tmp_path, extra, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--tweets", str(tmp_path / "missing.tsv"),
                  "--selector", "TXT", "--mode", "binary",
                  "--out", str(tmp_path / "out"), *extra])
        assert exc.value.code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra,message", [
        (["--prior", "1,2"], "three comma-separated weights"),
        (["--homophily", "2"], "homophily must be in [0, 1]"),
        (["--users-per-topic", "0"], "users_per_topic"),
        (["--topics", ","], "at least one topic"),
        (["--vocab", "0"], "generic_vocab_size must be >= 1"),
        (["--tokens-per-tweet", "-1"], "tokens_per_tweet must be >= 0"),
        (["--topics", "a,a"], "topics need distinct slugs"),
        (["--topics", "a b,ab"], "topics need distinct slugs"),
        (["--seed", "-1"], "--seed: must be >= 0"),
        (["--prior", "nan,1,1"], "invalid stance prior"),
        (["--prior", "inf,1,1"], "invalid stance prior"),
        (["--prior", "1e308,1e308,1"], "invalid stance prior"),
    ], ids=["prior", "homophily", "users-per-topic", "topics", "vocab",
            "tokens-per-tweet", "repeated-topic", "repeated-slug", "seed",
            "prior-nan", "prior-inf", "prior-sum-overflows"])
    def test_bad_synth_flag(self, tmp_path, extra, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "out"), *extra])
        assert exc.value.code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fold_pairing_needs_two_folds(self, corpus, tmp_path, capsys):
        test = load_split(corpus, "test.tsv")
        predictions = tmp_path / "predictions.tsv"
        write_predictions(predictions, test.instances,
                          [inst.label for inst in test.instances])
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--predictions", str(predictions),
                  "--compare", str(predictions), "--pair-unit", "fold",
                  "--folds", "1", "--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_USAGE
        assert "--folds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_evaluate_seed(self, corpus, tmp_path, capsys):
        test = load_split(corpus, "test.tsv")
        predictions = tmp_path / "predictions.tsv"
        write_predictions(predictions, test.instances,
                          [inst.label for inst in test.instances])
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--predictions", str(predictions),
                  "--compare", str(predictions), "--pair-unit", "fold",
                  "--seed", "-1", "--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_USAGE
        assert "--seed: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_evaluate_seed_beyond_64_bits(self, corpus, tmp_path, capsys):
        # The fold order takes a 64-bit seed: a larger one exits 1 from the
        # parser, as in train and experiment.
        test = load_split(corpus, "test.tsv")
        predictions = tmp_path / "predictions.tsv"
        write_predictions(predictions, test.instances,
                          [inst.label for inst in test.instances])
        argv = ["evaluate", "--predictions", str(predictions),
                "--compare", str(predictions), "--pair-unit", "fold"]
        assert main([*argv, "--seed", str(2**64 - 1),
                     "--out", str(tmp_path / "largest")]) == EXIT_OK
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", str(2**64), "--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.endswith(f"--seed: must be < 2**64, got {2**64}\n")
        assert not captured.out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("other", ["bundles", "gold"])
    def test_evaluate_takes_one_source(self, corpus, tmp_path, other, capsys):
        # Each pair used to score --predictions alone and ignore the other.
        test = load_split(corpus, "test.tsv")
        predictions = tmp_path / "predictions.tsv"
        write_predictions(predictions, test.instances,
                          [inst.label for inst in test.instances])
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"{i.label.value}\n" for i in test.instances),
                          encoding="utf-8")
        bundles = tmp_path / "bundles"
        assert main(["train", "--tweets", str(corpus / "train.tsv"),
                     "--selector", "TXT", "--mode", "binary",
                     "--out", str(bundles)]) == EXIT_OK
        capsys.readouterr()
        extra = {
            "bundles": ["--bundles", str(bundles), "--tweets", str(corpus / "test.tsv"),
                        "--profiles", str(corpus / "profiles.jsonl")],
            "gold": ["--gold", str(corpus / "test.tsv"), "--pred-labels", str(labels)],
        }[other]
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--predictions", str(predictions), *extra,
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_USAGE
        assert "give only one of --predictions" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["nothing", "predictions-without-tweets"])
    def test_bad_analyze_flags(self, corpus, tmp_path, case, capsys):
        # With --profiles the overlap files would be the first output.
        extra, message = {
            "nothing": ([], "nothing to analyze"),
            "predictions-without-tweets": (
                ["--profiles", str(corpus / "profiles.jsonl"),
                 "--predictions", str(tmp_path / "predictions.tsv")],
                "--predictions needs --tweets",
            ),
        }[case]
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--out", str(tmp_path / "out"), *extra])
        assert exc.value.code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_network_selector_without_profiles(self, corpus, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--tweets", str(corpus / "train.tsv"),
                  "--test", str(corpus / "test.tsv"), "--selectors", "TXT,IN_AT",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_USAGE
        assert "network selectors require --profiles" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        "train", "predict", "evaluate", "analyze", "experiment"])
    def test_require_profile_needs_profiles(self, corpus, tmp_path, command, capsys):
        # Without profiles every author lacks one: predict wrote a header
        # only, train found no instances and experiment failed every cell.
        train, test = str(corpus / "train.tsv"), str(corpus / "test.tsv")
        instances = load_split(corpus, "test.tsv").instances
        predictions = tmp_path / "predictions.tsv"
        write_predictions(predictions, instances, [i.label for i in instances])
        bundles = str(tmp_path / "bundles")
        if command == "predict":
            assert main(["train", "--tweets", train, "--selector", "TXT",
                         "--mode", "binary", "--out", bundles]) == EXIT_OK
        argv = {
            "train": ["train", "--tweets", train, "--selector", "TXT",
                      "--mode", "binary"],
            "predict": ["predict", "--bundles", bundles, "--tweets", test],
            "evaluate": ["evaluate", "--predictions", str(predictions),
                         "--tweets", test],
            "analyze": ["analyze", "--predictions", str(predictions), "--tweets", test],
            "experiment": ["experiment", "--tweets", train, "--test", test,
                           "--selectors", "TXT", "--modes", "binary"],
        }[command]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--require-profile", "--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.endswith("--require-profile needs --profiles\n")
        assert not captured.out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_network_bundles_without_profiles(self, corpus, tmp_path, command,
                                              capsys):
        bundles = str(tmp_path / "bundles")
        assert main(["train", "--tweets", str(corpus / "train.tsv"),
                     "--profiles", str(corpus / "profiles.jsonl"),
                     "--selector", "IN_AT", "--mode", "binary",
                     "--out", bundles]) == EXIT_OK
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([command, "--bundles", bundles, "--tweets", str(corpus / "test.tsv"),
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == EXIT_USAGE
        assert "network selectors require --profiles" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _type_name(kind):
    """None, "int" or "float", or "int>=N" for an int type with a floor."""
    if kind is None or kind in (int, float):
        return getattr(kind, "__name__", None)

    def accepts(text):
        try:
            kind(text)
        except (ValueError, argparse.ArgumentTypeError):
            return False
        return True

    return f"int>={next(n for n in range(-1, 3) if accepts(str(n)))}"


def _options(parser):
    """Per subcommand, in --help order: (option strings, metavar shown in
    --help, default, type, choices, required) of each option."""
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [
            (tuple(a.option_strings), a.metavar or a.dest.upper() if a.nargs != 0 else None,
             a.default, _type_name(a.type), list(a.choices) if a.choices else None,
             a.required)
            for a in command._actions if not isinstance(a, argparse._HelpAction)
        ]
        for name, command in sub.choices.items()
    }


# The options of every subcommand as the command line has offered them;
# a change here changes what scripts may pass.
PARSER_CONTRACT = {
    "synth": [
        (("--out",), "OUT", None, None, None, True),
        (("--seed",), "SEED", 0, "int>=0", None, False),
        (("--topics",), "TOPICS", "alpha,beta,gamma", None, None, False),
        (("--users-per-topic",), "USERS_PER_TOPIC", 200, "int", None, False),
        (("--tweets-per-user",), "TWEETS_PER_USER", 3, "int", None, False),
        (("--prior",), "PRIOR", "0.4,0.4,0.2", None, None, False),
        (("--homophily",), "HOMOPHILY", 0.9, "float", None, False),
        (("--text-signal",), "TEXT_SIGNAL", 0.5, "float", None, False),
        (("--silent-fraction",), "SILENT_FRACTION", 0.0, "float", None, False),
        (("--community-pool",), "COMMUNITY_POOL", 60, "int", None, False),
        (("--shared-pool",), "SHARED_POOL", 120, "int", None, False),
        (("--items-per-set",), "ITEMS_PER_SET", 12, "int", None, False),
        (("--tokens-per-tweet",), "TOKENS_PER_TWEET", 8, "int", None, False),
        (("--vocab",), "VOCAB", 200, "int", None, False),
    ],
    "train": [
        (("--tweets",), "TWEETS", None, None, None, True),
        (("--profiles",), "PROFILES", None, None, None, False),
        (("--selector",), "SELECTOR", None, None, None, True),
        (("--mode",), "MODE", None, None, ["ternary", "binary"], True),
        (("--out",), "OUT", None, None, None, True),
        (("--seed",), "SEED", 0, "int>=0", None, False),
        (("--require-profile",), None, False, None, None, False),
        (("--C",), "C", 1.0, "float", None, False),
        (("--tol",), "TOL", 0.0001, "float", None, False),
        (("--max-iter",), "MAX_ITER", 1000, "int", None, False),
        (("--loss",), "LOSS", "hinge", None, ["hinge", "squared_hinge"], False),
        (("--min-df",), "MIN_DF", 1, "int>=1", None, False),
    ],
    "predict": [
        (("--bundles",), "BUNDLES", None, None, None, True),
        (("--tweets",), "TWEETS", None, None, None, True),
        (("--profiles",), "PROFILES", None, None, None, False),
        (("--out",), "OUT", None, None, None, True),
        (("--require-profile",), None, False, None, None, False),
    ],
    "evaluate": [
        (("--predictions",), "PREDICTIONS", None, None, None, False),
        (("--gold",), "GOLD", None, None, None, False),
        (("--pred-labels",), "PRED_LABELS", None, None, None, False),
        (("--bundles",), "BUNDLES", None, None, None, False),
        (("--tweets",), "TWEETS", None, None, None, False),
        (("--profiles",), "PROFILES", None, None, None, False),
        (("--out",), "OUT", None, None, None, True),
        (("--compare",), "COMPARE", None, None, None, False),
        (("--pair-unit",), "PAIR_UNIT", "topic", None, ["topic", "fold"], False),
        (("--folds",), "FOLDS", 5, "int>=2", None, False),
        (("--seed",), "SEED", 0, "int>=0", None, False),
        (("--require-profile",), None, False, None, None, False),
    ],
    "experiment": [
        (("--tweets",), "TWEETS", None, None, None, True),
        (("--test",), "TEST", None, None, None, True),
        (("--profiles",), "PROFILES", None, None, None, False),
        (("--selectors",), "SELECTORS", None, None, None, True),
        (("--modes",), "MODES", "ternary,binary", None, None, False),
        (("--out",), "OUT", None, None, None, True),
        (("--seed",), "SEED", 0, "int>=0", None, False),
        (("--jobs",), "JOBS", 1, "int>=1", None, False),
        (("--top-n",), "TOP_N", 20, "int>=1", None, False),
        (("--curve-max",), "CURVE_MAX", 200, "int>=1", None, False),
        (("--require-profile",), None, False, None, None, False),
        (("--C",), "C", 1.0, "float", None, False),
        (("--tol",), "TOL", 0.0001, "float", None, False),
        (("--max-iter",), "MAX_ITER", 1000, "int", None, False),
        (("--loss",), "LOSS", "hinge", None, ["hinge", "squared_hinge"], False),
        (("--min-df",), "MIN_DF", 1, "int>=1", None, False),
    ],
    "analyze": [
        (("--profiles",), "PROFILES", None, None, None, False),
        (("--bundles",), "BUNDLES", None, None, None, False),
        (("--predictions",), "PREDICTIONS", None, None, None, False),
        (("--tweets",), "TWEETS", None, None, None, False),
        (("--out",), "OUT", None, None, None, True),
        (("--top-n",), "TOP_N", 20, "int>=1", None, False),
        (("--require-profile",), None, False, None, None, False),
    ],
}


class TestParserContract:
    def test_every_option_as_offered(self):
        options = _options(cli.build_parser())
        assert options == PARSER_CONTRACT
        # 1 == 1.0 above: an int default in place of a float one would still
        # change the config that bundles record.
        assert {name: [type(row[2]) for row in rows] for name, rows in options.items()} == {
            name: [type(row[2]) for row in rows] for name, rows in PARSER_CONTRACT.items()
        }

    def test_defaults_are_the_config_defaults(self):
        defaults = {name: {row[0][0]: row[2] for row in rows}
                    for name, rows in _options(cli.build_parser()).items()}
        synth = {
            "--users-per-topic": "users_per_topic", "--tweets-per-user": "tweets_per_user",
            "--homophily": "homophily", "--text-signal": "text_signal",
            "--silent-fraction": "silent_fraction",
            "--community-pool": "community_pool_size", "--shared-pool": "shared_pool_size",
            "--items-per-set": "items_per_set", "--tokens-per-tweet": "tokens_per_tweet",
            "--vocab": "generic_vocab_size", "--seed": "seed",
        }
        for flag, name in synth.items():
            assert defaults["synth"][flag] == getattr(SynthConfig, name), flag
        prior = cli._parse_prior(defaults["synth"]["--prior"])
        assert prior == SynthConfig.stance_prior
        train = {"--C": "C", "--tol": "tol", "--max-iter": "max_iter", "--seed": "seed",
                 "--loss": "loss", "--min-df": "min_df"}
        for command in ("train", "experiment"):
            for flag, name in train.items():
                assert defaults[command][flag] == getattr(TrainConfig, name), flag


class TestDataErrors:
    """A malformed input exits 2 with one line naming it; a bug in the
    program is not reported as a data error."""

    @pytest.fixture()
    def bundle(self, corpus, tmp_path):
        assert main(["train", "--tweets", str(corpus / "train.tsv"),
                     "--selector", "TXT", "--mode", "binary",
                     "--out", str(tmp_path / "bundles")]) == EXIT_OK
        return sorted((tmp_path / "bundles").iterdir())[0]

    @pytest.fixture()
    def ternary_bundle(self, corpus, tmp_path):
        assert main(["train", "--tweets", str(corpus / "train.tsv"),
                     "--selector", "TXT", "--mode", "ternary",
                     "--out", str(tmp_path / "ternary")]) == EXIT_OK
        return sorted((tmp_path / "ternary").iterdir())[0]

    def predict_error(self, bundle, tweets, capsys):
        capsys.readouterr()
        code = main(["predict", "--bundles", str(bundle), "--tweets", str(tweets),
                     "--out", str(bundle.parent / "predictions.tsv")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("stancelab: ") and err.count("\n") == 1, err
        return err

    def test_unknown_config_field(self, bundle, corpus, capsys):
        meta = json.loads((bundle / "metadata.json").read_text())
        meta["config"]["gamma"] = 1
        (bundle / "metadata.json").write_text(json.dumps(meta))
        err = self.predict_error(bundle, corpus / "test.tsv", capsys)
        assert "metadata.json" in err and "gamma" in err

    @pytest.mark.parametrize("case", ["cut", "extra"])
    def test_weights_lines_number_the_dimension(self, bundle, corpus, case, capsys):
        # save_bundle writes a line per column, so a file of fewer lines was
        # cut short at a line boundary, and one of more was added to.
        weights = bundle / "weights.tsv"
        lines = weights.read_text(encoding="utf-8").splitlines(keepends=True)
        dimension = json.loads((bundle / "metadata.json").read_text())["dimension"]
        assert len(lines) == dimension
        lines = lines[:-1] if case == "cut" else [*lines, "extra:x\t9.5\n"]
        weights.write_text("".join(lines), encoding="utf-8")
        err = self.predict_error(bundle, corpus / "test.tsv", capsys)
        assert (f"weights.tsv: {len(lines)} lines where metadata.json gives dimension "
                f"{dimension}; the file may be cut short") in err

    @pytest.mark.parametrize("C", [math.nan, math.inf])
    def test_non_finite_config_value(self, bundle, corpus, C, capsys):
        # json writes and reads these as the non-standard NaN and Infinity.
        meta = json.loads((bundle / "metadata.json").read_text())
        meta["config"]["C"] = C
        (bundle / "metadata.json").write_text(json.dumps(meta))
        err = self.predict_error(bundle, corpus / "test.tsv", capsys)
        assert "metadata.json" in err and "C must be positive and finite" in err

    def test_missing_metadata_key(self, bundle, corpus, capsys):
        original = (bundle / "metadata.json").read_text()
        for key in ("dimension", "epochs", "topic", "biases"):
            meta = json.loads(original)
            del meta[key]
            (bundle / "metadata.json").write_text(json.dumps(meta))
            err = self.predict_error(bundle, corpus / "test.tsv", capsys)
            assert "metadata.json" in err and f"KeyError: '{key}'" in err

    def test_bundle_of_another_format(self, bundle, corpus, capsys):
        # The metadata as bundles held it before they recorded a format.
        meta_path = bundle / "metadata.json"
        meta = json.loads(meta_path.read_text())
        del meta["format"], meta["config"]["min_df"]
        meta["classes"] = ["AGAINST", "FAVOR"]
        meta_path.write_text(json.dumps(meta))
        err = self.predict_error(bundle, corpus / "test.tsv", capsys)
        assert err == (f"stancelab: {meta_path}: not a bundle of format 3; "
                       "retrain it with this version of stancelab\n")

    def test_bundle_of_format_2(self, bundle, corpus, capsys):
        # Format 2 kept the weights in other files and no biases in the
        # metadata; the refusal comes before any weights are read.
        meta_path = bundle / "metadata.json"
        meta = json.loads(meta_path.read_text())
        del meta["biases"]
        meta["format"] = 2
        meta_path.write_text(json.dumps(meta))
        (bundle / "weights.tsv").unlink()
        err = self.predict_error(bundle, corpus / "test.tsv", capsys)
        assert err == (f"stancelab: {meta_path}: not a bundle of format 3; "
                       "retrain it with this version of stancelab\n")

    @pytest.mark.parametrize("biases", [[1], ["0.5"], [None], [math.nan], [math.inf],
                                        [0.5, 0.5], [], 0.5],
                             ids=["integer", "string", "null", "nan", "inf",
                                  "two", "none", "not-a-list"])
    def test_biases_are_one_finite_float_per_fit(self, bundle, corpus, biases, capsys):
        meta = json.loads((bundle / "metadata.json").read_text())
        meta["biases"] = biases
        (bundle / "metadata.json").write_text(json.dumps(meta))
        err = self.predict_error(bundle, corpus / "test.tsv", capsys)
        assert "metadata.json: bad metadata" in err
        assert "are not one finite float per fit" in err

    def test_selector_not_a_string(self, bundle, corpus, capsys):
        meta = json.loads((bundle / "metadata.json").read_text())
        meta["selector"] = 1
        (bundle / "metadata.json").write_text(json.dumps(meta))
        err = self.predict_error(bundle, corpus / "test.tsv", capsys)
        assert "metadata.json" in err and "selector" in err

    def test_topic_not_a_string(self, bundle, corpus, capsys):
        meta = json.loads((bundle / "metadata.json").read_text())
        meta["topic"] = [1]
        (bundle / "metadata.json").write_text(json.dumps(meta))
        err = self.predict_error(bundle, corpus / "test.tsv", capsys)
        assert "metadata.json" in err and "topic" in err

    @pytest.mark.parametrize("mode", ["foo", "Binary", ["binary"], 1],
                             ids=["unknown", "capitalized", "list", "integer"])
    def test_unknown_mode_is_refused(self, bundle, corpus, mode, capsys):
        meta = json.loads((bundle / "metadata.json").read_text())
        meta["mode"] = mode
        (bundle / "metadata.json").write_text(json.dumps(meta))
        err = self.predict_error(bundle, corpus / "test.tsv", capsys)
        assert "metadata.json" in err and f"mode {mode!r} is not one of" in err

    @pytest.mark.parametrize("epochs", [[1.5], [1, 1], "1", None])
    def test_epochs_not_one_integer_per_fit(self, bundle, corpus, epochs, capsys):
        meta = json.loads((bundle / "metadata.json").read_text())
        meta["epochs"] = epochs
        (bundle / "metadata.json").write_text(json.dumps(meta))
        err = self.predict_error(bundle, corpus / "test.tsv", capsys)
        assert "metadata.json" in err and "epochs" in err

    @pytest.mark.parametrize("field, value", [("max_iter", 2.5), ("seed", "x"),
                                              ("seed", -1)])
    def test_config_value_of_wrong_type(self, bundle, corpus, field, value, capsys):
        meta = json.loads((bundle / "metadata.json").read_text())
        meta["config"][field] = value
        (bundle / "metadata.json").write_text(json.dumps(meta))
        err = self.predict_error(bundle, corpus / "test.tsv", capsys)
        assert "metadata.json" in err and field in err

    @pytest.mark.parametrize("kind", [str, float, bool])
    def test_dimension_not_an_integer(self, bundle, corpus, kind, capsys):
        meta = json.loads((bundle / "metadata.json").read_text())
        meta["dimension"] = kind(meta["dimension"])
        (bundle / "metadata.json").write_text(json.dumps(meta))
        err = self.predict_error(bundle, corpus / "test.tsv", capsys)
        assert "metadata.json" in err and "dimension" in err

    def test_malformed_feature_space_line(self, bundle, corpus, capsys):
        # The space's names are the first column of weights.tsv.
        weights = bundle / "weights.tsv"
        lines = weights.read_text().count("\n")
        with weights.open("a") as fh:
            fh.write("no tab line\n")
        err = self.predict_error(bundle, corpus / "test.tsv", capsys)
        assert f"weights.tsv: line {lines + 1}:" in err and bundle.name in err

    def test_tweets_path_is_a_directory(self, bundle, corpus, capsys):
        self.predict_error(bundle, corpus, capsys)

    @pytest.mark.parametrize("where, reason", [
        ("missing/p.tsv", "[Errno 2] No such file or directory"),
        ("a_directory", "[Errno 21] Is a directory"),
    ])
    def test_output_error_names_the_given_path(self, bundle, corpus, tmp_path,
                                               where, reason, capsys):
        # The predictions go to a temporary file first; the error names --out.
        (tmp_path / "a_directory").mkdir()
        out = tmp_path / where
        code = main(["predict", "--bundles", str(bundle.parent),
                     "--tweets", str(corpus / "test.tsv"), "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"stancelab: {reason}: '{out}'\n"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_evaluate_bundles_must_be_a_directory(self, corpus, tmp_path, capsys):
        instances = load_split(corpus, "test.tsv").instances
        predictions = tmp_path / "predictions.tsv"
        write_predictions(predictions, instances, [i.label for i in instances])
        code = main(["evaluate", "--bundles", str(predictions),
                     "--tweets", str(corpus / "test.tsv"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert str(predictions) in captured.err and not captured.out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("compare_rows,compare_topic,extra,message", [
        (slice(0, 3), None, ["--pair-unit", "fold", "--folds", "5"],
         "cannot split 3 instances into 5 folds"),
        (slice(3, 6), None, [], "b.tsv: row 1 is ("),
        # The same ids under another Target: the topics would not pair.
        (slice(0, 3), "zeta", [], "'zeta'), where --predictions has ("),
    ], ids=["too-few-for-folds", "ids-differ", "topics-differ"])
    def test_compare_checked_before_any_output(
        self, corpus, tmp_path, compare_rows, compare_topic, extra, message, capsys
    ):
        test = load_split(corpus, "test.tsv")
        paths = {}
        for name, rows, topic in (("a", slice(0, 3), None),
                                  ("b", compare_rows, compare_topic)):
            instances = [replace(i, topic=topic or i.topic)
                         for i in test.instances[rows]]
            paths[name] = tmp_path / f"{name}.tsv"
            write_predictions(paths[name], instances, [i.label for i in instances])
        code = main(["evaluate", "--predictions", str(paths["a"]),
                     "--compare", str(paths["b"]), *extra,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out
        assert not (tmp_path / "out").exists()

    def test_predictions_error_names_the_path(self, corpus, tmp_path, capsys):
        # Two inputs of one base name: the message says which one is at fault.
        instances = load_split(corpus, "test.tsv").instances
        a, b = (tmp_path / side / "predictions.tsv" for side in "ab")
        for path in (a, b):
            path.parent.mkdir()
            write_predictions(path, instances, [i.label for i in instances])
        with b.open("a", encoding="utf-8") as fh:
            fh.write("short\tline\n")
        code = main(["evaluate", "--predictions", str(a), "--compare", str(b),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        line = len(instances) + 2
        assert capsys.readouterr().err == (
            f"stancelab: {b}: line {line}: expected 4 fields\n"
        )

    def test_tweets_error_names_the_path(self, corpus, tmp_path, capsys):
        a, b = (tmp_path / side / "tweets.tsv" for side in "ab")
        for path in (a, b):
            path.parent.mkdir()
            path.write_bytes((corpus / "test.tsv").read_bytes())
        with b.open("a", encoding="utf-8") as fh:
            fh.write("short\tline\n")
        code = main(["experiment", "--tweets", str(a), "--test", str(b),
                     "--selectors", "TXT", "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        line = len(load_semeval_tsv(a)) + 2
        assert capsys.readouterr().err == (
            f"stancelab: {b}: line {line}: expected 4 or 5 tab-separated fields, "
            "got 2\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, message", [
        ("txtw:zz\t0.5\t0.5", "expected a feature and 3 finite weights"),
        ("txtw:zz\tnan\t0.5\t0.5", "expected a feature and 3 finite weights"),
        ("txtw:zz\t0.5\tinf\t0.5", "expected a feature and 3 finite weights"),
        ("txtw:zz\t0.5\t0.5\t-inf", "expected a feature and 3 finite weights"),
        ("txtw:zz\t0.5\tone\t0.5", "could not convert string to float: 'one'"),
    ], ids=["two-weights", "nan", "inf", "minus-inf", "not-a-number"])
    def test_weights_line_holds_a_finite_weight_per_fit(self, ternary_bundle, corpus,
                                                        line, message, capsys):
        weights = ternary_bundle / "weights.tsv"
        lines = weights.read_text(encoding="utf-8").splitlines()
        lines[1] = line
        weights.write_text("\n".join(lines) + "\n", encoding="utf-8")
        err = self.predict_error(ternary_bundle, corpus / "test.tsv", capsys)
        assert f"weights.tsv: line 2: {message}" in err

    def test_repeated_feature(self, ternary_bundle, corpus, capsys):
        weights = ternary_bundle / "weights.tsv"
        lines = weights.read_text(encoding="utf-8").splitlines()
        name = lines[0].rsplit("\t", 3)[0]
        lines[2] = lines[0]
        weights.write_text("\n".join(lines) + "\n", encoding="utf-8")
        err = self.predict_error(ternary_bundle, corpus / "test.tsv", capsys)
        assert f"weights.tsv: line 3: feature {name!r} appears twice" in err

    @pytest.mark.parametrize("case", ["header-only", "no-profiles"])
    def test_empty_training_set(self, corpus, tmp_path, case, capsys):
        # Every instance is gone before training: the file holds none, or
        # --require-profile drops them all.
        tweets, profiles = tmp_path / "train.tsv", tmp_path / "profiles.jsonl"
        header = (corpus / "train.tsv").read_text().splitlines(keepends=True)[0]
        tweets.write_text(header)
        profiles.write_text("")
        if case == "no-profiles":
            tweets.write_bytes((corpus / "train.tsv").read_bytes())
        capsys.readouterr()
        code = main(["train", "--tweets", str(tweets), "--profiles", str(profiles),
                     "--require-profile", "--selector", "TXT", "--mode", "binary",
                     "--out", str(tmp_path / "bundles")])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.splitlines()[-1] == "stancelab: no training instances"
        assert len(captured.err.splitlines()) == (1 if case == "header-only" else 2)
        assert not (tmp_path / "bundles").exists()

    @pytest.mark.parametrize("case", ["no-bundles", "misaligned-predictions"])
    def test_analyze_reads_every_input_before_writing(self, corpus, bundle,
                                                      tmp_path, case, capsys):
        instances = load_split(corpus, "test.tsv").instances
        predictions = tmp_path / "predictions.tsv"
        write_predictions(predictions, instances[1:], [i.label for i in instances[1:]])
        bundles = {"no-bundles": tmp_path / "nosuchdir",
                   "misaligned-predictions": bundle}[case]
        out = tmp_path / "out"
        code = main(["analyze", "--profiles", str(corpus / "profiles.jsonl"),
                     "--bundles", str(bundles), "--predictions", str(predictions),
                     "--tweets", str(corpus / "test.tsv"), "--out", str(out)])
        assert code == EXIT_DATA
        assert not out.exists()

    @pytest.mark.parametrize("case", ["shuffled", "row-missing"])
    def test_analyze_predictions_align_with_tweets_by_id(self, corpus, tmp_path,
                                                         case, capsys):
        # Consistency groups predictions by the author of the tweet in the
        # same row, so rows of the right count in another order are wrong.
        instances = list(load_split(corpus, "test.tsv").instances)
        if case == "shuffled":
            random.Random(3).shuffle(instances)
        else:
            del instances[len(instances) // 2]
        predictions = tmp_path / "predictions.tsv"
        write_predictions(predictions, instances, [i.label for i in instances])
        out = tmp_path / "out"
        code = main(["analyze", "--predictions", str(predictions),
                     "--tweets", str(corpus / "test.tsv"), "--out", str(out)])
        assert code == EXIT_DATA
        tweets = load_split(corpus, "test.tsv").instances
        row = next(n for n, (a, b) in enumerate(zip(instances, tweets)) if a != b)
        assert capsys.readouterr().err == (
            f"stancelab: --predictions {predictions}: row {row + 1} is "
            f"{(instances[row].tweet_id, instances[row].topic)}, where --tweets has "
            f"{(tweets[row].tweet_id, tweets[row].topic)}\n")
        assert not out.exists()

    def run_script(self, *args):
        """Runs stancelab as a program, so that stderr is what a user sees."""
        src = Path(stancelab.__file__).resolve().parents[1]
        return subprocess.run(
            [sys.executable, "-m", "stancelab", *map(str, args)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )

    def test_deeply_nested_profile_record(self, corpus, tmp_path):
        # json.loads raises RecursionError on it, which is not a ValueError.
        profiles = tmp_path / "profiles.jsonl"
        first = (corpus / "profiles.jsonl").read_text().splitlines()[0]
        profiles.write_text(first + "\n" + "[" * 100_000 + "\n")
        done = self.run_script("train", "--tweets", corpus / "train.tsv",
                               "--profiles", profiles, "--selector", "IN_AT",
                               "--mode", "binary", "--out", tmp_path / "bundles")
        err = done.stderr
        assert done.returncode == EXIT_DATA, err
        assert err.startswith(f"stancelab: {profiles}: line 2: unparseable record: ")
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert not (tmp_path / "bundles").exists()

    def test_deeply_nested_metadata(self, bundle, corpus, tmp_path):
        (bundle / "metadata.json").write_text("[" * 100_000)
        done = self.run_script("predict", "--bundles", bundle,
                               "--tweets", corpus / "test.tsv",
                               "--out", tmp_path / "predictions.tsv")
        err = done.stderr
        assert done.returncode == EXIT_DATA, err
        assert err.startswith(f"stancelab: {bundle / 'metadata.json'}: bad metadata "
                              "(RecursionError: ")
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert not (tmp_path / "predictions.tsv").exists()

    def test_program_bug_is_not_a_data_error(self, tmp_path, monkeypatch):
        def broken(config, out):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "write_corpus", broken)
        with pytest.raises(KeyError):
            main(["synth", "--out", str(tmp_path / "corpus")])


def test_importing_the_cli_loads_no_executor():
    # Only experiment --jobs N > 1 needs one; the other commands should not
    # pay for importing it at start-up.
    src = Path(stancelab.__file__).resolve().parents[1]
    code = ("import sys, stancelab.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('concurrent', 'multiprocessing'))))")
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"


def test_only_synth_imports_numpy_random(corpus, tmp_path):
    # Importing numpy.random costs about 5.5 MB of RSS. The solver's epochs
    # and the evaluation folds follow the package's own seeded order, so no
    # command but synth needs it. The corpus was written by this process.
    src = Path(stancelab.__file__).resolve().parents[1]
    code = """import sys
from stancelab.cli import main
c, out = sys.argv[1:]
profiles = ["--profiles", f"{c}/profiles.jsonl"]
for argv in (
    ["train", "--tweets", f"{c}/train.tsv", *profiles, "--selector", "TXT+IN_AT",
     "--mode", "ternary", "--out", f"{out}/b"],
    ["predict", "--bundles", f"{out}/b", "--tweets", f"{c}/test.tsv", *profiles,
     "--out", f"{out}/p.tsv"],
    ["experiment", "--tweets", f"{c}/train.tsv", "--test", f"{c}/test.tsv",
     *profiles, "--selectors", "IN_AT", "--modes", "ternary", "--jobs", "1",
     "--out", f"{out}/e"],
    ["evaluate", "--predictions", f"{out}/p.tsv", "--compare",
     f"{out}/e/cells/IN_AT__ternary/predictions.tsv", "--pair-unit", "fold",
     "--out", f"{out}/v"],
):
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.startswith("numpy.random")), file=sys.stderr)
"""
    done = subprocess.run(
        [sys.executable, "-c", code, str(corpus), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert (tmp_path / "v" / "significance.txt").exists()
    assert done.stderr.splitlines()[-1] == "[]"


class TestProfileControlCharacters:
    def test_handle_with_newline_rejected_before_training(self, corpus, tmp_path,
                                                          capsys):
        # Such a handle used to give a bundle whose feature names predict
        # could not read back.
        profiles = tmp_path / "profiles.jsonl"
        lines = (corpus / "profiles.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["in_mentions"] = ["a\nb"]
        lines[0] = json.dumps(record)
        profiles.write_text("\n".join(lines) + "\n")
        code = main([
            "train", "--tweets", str(corpus / "train.tsv"),
            "--profiles", str(profiles), "--selector", "IN_AT",
            "--mode", "ternary", "--out", str(tmp_path / "bundles"),
        ])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "profiles.jsonl: line 1: field 'in_mentions'" in err
        assert not (tmp_path / "bundles").exists()


class TestEpochCap:
    """A fit that stops at --max-iter instead of --tol is named on stderr;
    stdout and the written outputs are those of any other run."""

    def test_train_reports_every_capped_fit(self, corpus, tmp_path, capsys):
        code = main(["train", "--tweets", str(corpus / "train.tsv"),
                     "--selector", "TXT", "--mode", "ternary", "--max-iter", "1",
                     "--out", str(tmp_path / "bundles")])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        topics = load_split(corpus, "train.tsv").topics
        assert captured.out.count("bundle: ") == len(topics)
        expected = [
            f"stancelab: topic {topic!r}: the {cls} fit stopped at --max-iter "
            "(1 epochs) before reaching --tol"
            for topic in topics for cls in ("AGAINST", "FAVOR", "NONE")
        ]
        assert captured.err.splitlines() == expected
        for bundle in (tmp_path / "bundles").iterdir():
            assert load_bundle(bundle)[0].epochs == (1, 1, 1)

    def test_converged_train_prints_no_warning(self, corpus, tmp_path, capsys):
        assert main(["train", "--tweets", str(corpus / "train.tsv"),
                     "--selector", "TXT", "--mode", "binary",
                     "--out", str(tmp_path / "bundles")]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_experiment_reports_capped_fits_per_cell(self, corpus, tmp_path, jobs,
                                                     capsys):
        assert experiment(corpus, tmp_path / "out", jobs, "--max-iter", "1",
                          selectors="IN_AT") == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == f"master: {tmp_path / 'out' / 'master.csv'}\n"
        topics = load_split(corpus, "train.tsv").topics
        expected = [
            f"stancelab: cell IN_AT {mode}: topic {topic!r}: the {cls} fit "
            "stopped at --max-iter (1 epochs) before reaching --tol"
            for mode, classes in (("binary", ("FAVOR",)),
                                  ("ternary", ("AGAINST", "FAVOR", "NONE")))
            for topic in topics for cls in classes
        ]
        assert captured.err.splitlines() == expected


class TestBundleFormat:
    """A bundle records its format and every training setting."""

    def test_train_records_min_df_and_predict_loads_it(self, corpus, tmp_path):
        profiles = ["--profiles", str(corpus / "profiles.jsonl")]
        assert main(["train", "--tweets", str(corpus / "train.tsv"), *profiles,
                     "--selector", "TXT+IN_AT", "--mode", "ternary", "--min-df", "2",
                     "--out", str(tmp_path / "bundles")]) == EXIT_OK
        bundles = sorted((tmp_path / "bundles").iterdir())
        assert len(bundles) == len(load_split(corpus, "train.tsv").topics)
        for bundle in bundles:
            meta = json.loads((bundle / "metadata.json").read_text())
            assert meta["format"] == 3 and meta["config"]["min_df"] == 2
            assert load_bundle(bundle)[0].config == TrainConfig(min_df=2)
        assert main(["predict", "--bundles", str(tmp_path / "bundles"),
                     "--tweets", str(corpus / "test.tsv"), *profiles,
                     "--out", str(tmp_path / "predictions.tsv")]) == EXIT_OK
