"""Every subcommand run as a program, one test per stage.

The other tests call cli.main in this process. These run stancelab as a
separate program: by default ``python -m stancelab`` with this checkout's
``src`` on PYTHONPATH; with STANCELAB_COMMAND set (say to ``stancelab``, the
[project.scripts] entry point of an installed package), that command, split
as a shell would, and the environment as it is.

train and predict read one family of the profiles; experiment --jobs 2
spawns workers that import the engine anew; evaluate (predictions paired by
fold, bundles by topic, predictions aligned with their tweets) and analyze
read what those wrote. A second corpus, of mostly distinct profile members,
holds the profile table's vocabularies at their largest, read by predict and
pickled into spawned workers. Every output is written to a temporary file
and then renamed, so none of those may be left behind.

The stages share their corpora and outputs through module fixtures, each
made once, in the order the stages need them.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import stancelab


def command_env() -> tuple[list[str], dict[str, str]]:
    """The command prefix that runs stancelab, and its environment."""
    named = os.environ.get("STANCELAB_COMMAND")
    if named:
        return shlex.split(named), dict(os.environ)
    src = str(Path(stancelab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "stancelab"], {**os.environ, "PYTHONPATH": path}


PREFIX, ENV = command_env()


def run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([*PREFIX, *map(str, args)], env=ENV, capture_output=True,
                          text=True, timeout=300)


def stancelab_ok(*args) -> subprocess.CompletedProcess:
    done = run(*args)
    assert done.returncode == 0, (args, done.stderr)
    return done


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("console")


@pytest.fixture(scope="module")
def corpus(work):
    stancelab_ok("synth", "--out", work / "c", "--users-per-topic", "5")
    return work / "c"


@pytest.fixture(scope="module")
def bundles(work, corpus):
    stancelab_ok("train", "--tweets", corpus / "train.tsv",
                 "--profiles", corpus / "profiles.jsonl",
                 "--selector", "IN_AT", "--mode", "binary", "--out", work / "b")
    return work / "b"


@pytest.fixture(scope="module")
def predictions(work, corpus, bundles):
    stancelab_ok("predict", "--bundles", bundles, "--tweets", corpus / "test.tsv",
                 "--profiles", corpus / "profiles.jsonl", "--out", work / "p.tsv")
    return work / "p.tsv"


@pytest.fixture(scope="module")
def experiment(work, corpus):
    stancelab_ok("experiment", "--tweets", corpus / "train.tsv",
                 "--test", corpus / "test.tsv", "--profiles", corpus / "profiles.jsonl",
                 "--selectors", "IN_AT,PN_AT,CN_FR,TXT", "--modes", "binary",
                 "--jobs", "2", "--out", work / "e")
    return work / "e"


@pytest.fixture(scope="module")
def evaluations(work, corpus, bundles, predictions, experiment):
    stancelab_ok("evaluate", "--predictions", predictions,
                 "--compare", experiment / "cells" / "TXT__binary" / "predictions.tsv",
                 "--pair-unit", "fold", "--folds", "2", "--out", work / "v")
    stancelab_ok("evaluate", "--bundles", bundles,
                 "--compare", experiment / "bundles" / "TXT__binary",
                 "--tweets", corpus / "test.tsv",
                 "--profiles", corpus / "profiles.jsonl", "--out", work / "v2")
    stancelab_ok("evaluate", "--predictions", predictions,
                 "--tweets", corpus / "test.tsv", "--out", work / "v3")
    return [work / "v", work / "v2", work / "v3"]


@pytest.fixture(scope="module")
def analyses(work, corpus, bundles, predictions, experiment):
    stancelab_ok("analyze", "--predictions", predictions, "--tweets", corpus / "test.tsv",
                 "--profiles", corpus / "profiles.jsonl", "--bundles", bundles,
                 "--out", work / "a")
    stancelab_ok("analyze", "--bundles", experiment / "bundles" / "IN_AT__binary",
                 "--out", work / "a2")
    return work / "a", work / "a2"


@pytest.fixture(scope="module")
def distinct(work, bundles):
    """A corpus whose profile members are 95% distinct, and the predictions,
    bundles and experiment made from it."""
    corpus = work / "d"
    stancelab_ok("synth", "--out", corpus, "--community-pool", "200000",
                 "--shared-pool", "200000")
    stancelab_ok("predict", "--bundles", bundles, "--tweets", corpus / "test.tsv",
                 "--profiles", corpus / "profiles.jsonl", "--out", work / "dp.tsv")
    # A ternary train with --min-df 2 counts the feature sets it reads one
    # at a time. (The 5-user corpus is too small for ternary: a topic has no
    # None tweets.)
    stancelab_ok("train", "--tweets", corpus / "train.tsv",
                 "--profiles", corpus / "profiles.jsonl",
                 "--selector", "TXT+IN_AT+IN_DM", "--mode", "ternary", "--min-df", "2",
                 "--out", work / "db")
    stancelab_ok("predict", "--bundles", work / "db", "--tweets", corpus / "test.tsv",
                 "--profiles", corpus / "profiles.jsonl", "--out", work / "dp2.tsv")
    stancelab_ok("experiment", "--tweets", corpus / "train.tsv",
                 "--test", corpus / "test.tsv", "--profiles", corpus / "profiles.jsonl",
                 "--selectors", "IN_AT,CN_FL", "--modes", "binary", "--jobs", "2",
                 "--out", work / "de")
    return work / "db", work / "de"


@pytest.fixture(scope="module")
def malformed(work):
    bad = work / "bad.tsv"
    bad.write_text("ID\tTarget\tTweet\tStance\n1\tA\thi\tNONE\nshort\tline\n")
    return run("train", "--tweets", bad, "--selector", "TXT", "--mode", "binary",
               "--out", work / "xb")


def test_help():
    stancelab_ok("--help")


def test_synth(corpus):
    assert sorted(p.name for p in corpus.iterdir()) == [
        "manifest.csv", "profiles.jsonl", "test.tsv", "train.tsv"]


def test_train(bundles):
    assert list(bundles.glob("*/metadata.json"))


def test_predict(predictions):
    assert predictions.is_file()


def test_experiment(experiment):
    # The top-N curves include the joint curve of the account networks.
    curves = (experiment / "analysis" / "topn_curves__binary.csv").read_text(encoding="utf-8")
    assert ",IN_AT+PN_AT+CN_FR |" in curves


def test_evaluate(evaluations):
    assert all(out.is_dir() for out in evaluations)


def test_analyze(analyses, bundles, experiment):
    _, a2 = analyses
    # Each line of a binary bundle's weights.tsv holds a name and one
    # weight, its Favor fit's.
    files = [p for root in (bundles, experiment / "bundles") for p in root.rglob("weights.tsv")]
    lines = [line for p in files for line in p.read_text(encoding="utf-8").splitlines()]
    assert files and all(line.count("\t") == 1 for line in lines), \
        "a binary bundle holds more than its Favor weights"
    # analyze ranks the experiment's binary bundles as the experiment did.
    assert ((a2 / "top_features.csv").read_bytes()
            == (experiment / "analysis" / "top_features__IN_AT__binary.csv").read_bytes())


def test_distinct_members(distinct, bundles, experiment):
    ternary, distinct_experiment = distinct
    metas = [json.loads(p.read_text()) for p in ternary.glob("*/metadata.json")]
    assert metas and all(m["format"] == 3 and m["config"]["min_df"] == 2
                         and len(m["biases"]) == 3 for m in metas), metas
    # No bundle holds a file of format 2 (space.tsv, weights_<CLASS>.tsv).
    old = [p for root in (bundles, experiment / "bundles", ternary,
                          distinct_experiment / "bundles")
           for p in root.rglob("*") if p.name == "space.tsv" or p.name.startswith("weights_")]
    assert not old, f"files of bundle format 2: {old}"


def test_malformed_tweets_exit_2(malformed):
    assert malformed.returncode == 2 and ": line 3: expected 4 or 5 tab-separated fields" \
        in malformed.stderr, f"a malformed tweets line did not exit 2 naming line 3: " \
        f"{malformed.stderr}"


@pytest.mark.usefixtures("evaluations", "analyses", "distinct", "malformed")
def test_no_temporary_files_left(work):
    left = list(work.rglob(".*.tmp"))
    assert not left, f"temporary output files were left behind: {left}"
