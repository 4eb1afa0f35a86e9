"""End-to-end tests of the stancelab command line on a tiny synth corpus."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stancelab
from stancelab.cli import EXIT_CELL, EXIT_DATA, EXIT_OK, main

SELECTORS = "TXT,IN_AT,IN_DM,PN_AT,PN_DM,CN_FR,CN_FL,TXT+IN_AT+IN_DM"


def synth(out, *extra):
    code = main(["synth", "--out", str(out), "--seed", "3",
                 "--users-per-topic", "20", *extra])
    assert code == EXIT_OK
    return out


def experiment(corpus, out, jobs):
    return main([
        "experiment", "--tweets", str(corpus / "train.tsv"),
        "--test", str(corpus / "test.tsv"),
        "--profiles", str(corpus / "profiles.jsonl"),
        "--selectors", SELECTORS, "--out", str(out), "--jobs", str(jobs),
    ])


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


class TestProfileControlCharacters:
    def test_handle_with_newline_rejected_before_training(self, corpus, tmp_path,
                                                          capsys):
        # Such a handle used to give a bundle whose space.tsv predict could
        # not read back.
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
        assert "profiles.jsonl: field 'in_mentions' at line 1" in err
        assert not (tmp_path / "bundles").exists()
