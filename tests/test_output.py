"""Every file stancelab writes is complete or absent: corpus.output_file
writes a temporary file beside the target and replaces the target only when
the write finished, so a write that fails part way leaves a new target
absent and an existing one as it was."""

import builtins
import csv
import errno
import io
import math
import os
from pathlib import Path

import pytest

from stancelab.analysis import (
    network_overlap, top_features, topn_overlap_curve, user_consistency,
    write_consistency_csv, write_curves_csv, write_overlap_csv, write_rankings_csv,
)
from stancelab.corpus import (
    output_file, write_csv, write_network_profiles, write_semeval_tsv,
)
from stancelab.features import FeatureSetSelector
from stancelab.linsvm import TrainConfig, load_bundle, save_bundle
from stancelab.pipeline import train_topic_models
from stancelab.scoring import (
    score_semeval, write_confusion_csv, write_predictions, write_report_csv,
)
from stancelab.synth import SynthConfig, generate, write_corpus

REAL_OPEN = builtins.open


class CutWrites:
    """Stands in for open: a text file opened for writing under root takes
    `budget` characters in all, then its next write writes what still fits
    and raises OSError(ENOSPC), as a full disk would. `sizes` holds the
    characters written to each such file, in the order they were opened."""

    def __init__(self, root, budget=math.inf):
        self.root, self.budget, self.written, self.sizes = str(root), budget, 0, []

    def __call__(self, file, mode="r", *args, **kwargs):
        fh = REAL_OPEN(file, mode, *args, **kwargs)
        if ("w" not in mode or "b" in mode or not isinstance(file, (str, os.PathLike))
                or not os.fspath(file).startswith(self.root)):
            return fh
        self.sizes.append(0)
        return _Budgeted(fh, self)

    def install(self, monkeypatch):
        # pathlib.Path.open calls io.open, and open is the builtin.
        monkeypatch.setattr(builtins, "open", self)
        monkeypatch.setattr(io, "open", self)


class _Budgeted:
    def __init__(self, fh, cut):
        self.fh, self.cut = fh, cut

    def write(self, text):
        room = self.cut.budget - self.cut.written
        if len(text) > room:
            self.fh.write(text[:room])
            self.fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.cut.written += len(text)
        self.cut.sizes[-1] += len(text)
        return self.fh.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)


def tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }


def leftovers(root):
    return sorted(str(path) for path in Path(root).rglob(".*.tmp"))


CONFIG = SynthConfig(topics=("alpha", "beta"), users_per_topic=20, seed=4)


@pytest.fixture(scope="module")
def made():
    """One value of every kind the writers take."""
    train, test = generate(CONFIG)
    model = train_topic_models(train, FeatureSetSelector.parse("TXT+IN_AT"), "ternary",
                               TrainConfig())["alpha"]
    gold = [inst.label for inst in test.instances]
    pred = gold[1:] + gold[:1]
    rankings = [top_features(model, cls, "alpha", 6) for cls in model.classes]
    return {
        "train": train, "test": test, "model": model, "pred": pred, "rankings": rankings,
        "report": score_semeval(gold, pred, [inst.topic for inst in test.instances]),
    }


# name -> writer(made, target path); every one writes at least one file.
WRITERS = {
    "write_predictions": lambda m, p: write_predictions(p, m["test"].instances, m["pred"]),
    "write_semeval_tsv": lambda m, p: write_semeval_tsv(p, m["train"].instances),
    "write_network_profiles": lambda m, p: write_network_profiles(p, m["train"].profiles),
    "save_bundle": lambda m, p: save_bundle(m["model"], p, topic="alpha"),
    "write_corpus": lambda m, p: write_corpus(CONFIG, p),
    "write_report_csv": lambda m, p: write_report_csv(m["report"], p),
    "write_confusion_csv": lambda m, p: write_confusion_csv(m["report"].confusion, p),
    "write_overlap_csv": lambda m, p: write_overlap_csv(
        network_overlap(m["train"].profiles, ("in_mentions", "pn_mentions")), p),
    "write_curves_csv": lambda m, p: write_curves_csv(
        {"FAVOR vs AGAINST": topn_overlap_curve(*m["rankings"][:2], n_max=6)}, p),
    "write_rankings_csv": lambda m, p: write_rankings_csv(m["rankings"], p),
    "write_consistency_csv": lambda m, p: write_consistency_csv(
        {"cell": user_consistency(m["test"], m["pred"])}, p),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("share", [0, 0.5])
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_cut_write_leaves_the_old_state(made, tmp_path, monkeypatch, name, share,
                                          existing):
    write = WRITERS[name]
    whole = CutWrites(tmp_path)
    (tmp_path / "whole").mkdir()
    with monkeypatch.context() as patch:
        whole.install(patch)
        write(made, tmp_path / "whole" / "out")
    written = tree(tmp_path / "whole")
    target = tmp_path / "target"
    for rel in written if existing else ():
        (target / rel).parent.mkdir(parents=True, exist_ok=True)
        (target / rel).write_bytes(b"old\n")
    target.mkdir(exist_ok=True)
    before = tree(target)

    # The first file the writer opens is cut at `share` of its length.
    cut = CutWrites(tmp_path, budget=int(whole.sizes[0] * share))
    with monkeypatch.context() as patch:
        cut.install(patch)
        with pytest.raises(OSError, match="No space left"):
            write(made, target / "out")
    assert tree(target) == before
    assert leftovers(tmp_path) == []
    write(made, target / "out")
    assert tree(target) == written


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_bundle_cut_inside_its_metadata_has_none(made, tmp_path, monkeypatch,
                                                   existing):
    # A cut inside weights.tsv, the first file written, leaves the directory
    # as it was (test_a_cut_write_leaves_the_old_state); the old metadata
    # goes before weights.tsv replaces the old weights.
    bundle = tmp_path / "bundle"
    whole = CutWrites(tmp_path)
    with monkeypatch.context() as patch:
        whole.install(patch)
        save_bundle(made["model"], tmp_path / "whole", topic="alpha")
    if existing:
        save_bundle(made["model"], bundle, topic="alpha")
    cut = CutWrites(tmp_path, budget=whole.sizes[0] + whole.sizes[1] // 2)
    with monkeypatch.context() as patch:
        cut.install(patch)
        with pytest.raises(OSError, match="No space left"):
            save_bundle(made["model"], bundle, topic="alpha")
    assert (bundle / "weights.tsv").read_bytes() == (
        tmp_path / "whole" / "weights.tsv").read_bytes()
    assert not (bundle / "metadata.json").exists()
    assert leftovers(tmp_path) == []
    with pytest.raises(FileNotFoundError, match="metadata.json"):
        load_bundle(bundle)


class TestOutputFile:
    def test_a_clean_exit_replaces_the_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with output_file(path) as fh:
            fh.write("new\r\n")
            assert path.read_text() == "old\n"
        assert path.read_bytes() == b"new\r\n"
        assert leftovers(tmp_path) == []

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_an_exception_keeps_the_old_state(self, tmp_path, existing):
        path = tmp_path / "out.txt"
        if existing:
            path.write_text("old\n")
        with pytest.raises(KeyboardInterrupt):
            with output_file(path) as fh:
                fh.write("new\n")
                raise KeyboardInterrupt
        assert tree(tmp_path) == ({"out.txt": b"old\n"} if existing else {})

    @pytest.mark.parametrize("where, error", [
        ("missing/out.txt", FileNotFoundError),
        ("a_directory", IsADirectoryError),
        ("a_file/out.txt", NotADirectoryError),
    ])
    def test_an_error_names_the_target(self, tmp_path, where, error):
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "a_file").write_text("")
        path = tmp_path / where
        with pytest.raises(error) as caught:
            with output_file(path) as fh:
                fh.write("x")
        assert caught.value.filename == str(path)
        assert str(caught.value).endswith(f": {str(path)!r}")
        assert leftovers(tmp_path) == []

    def test_write_csv_writes_what_csv_writer_does(self, tmp_path):
        header, rows = ["a", "b"], [[1, "x,y"], ["q\"r", ""], ["line\nbreak", 2.5]]
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows(rows)
        write_csv(tmp_path / "out.csv", header, iter(rows))
        assert (tmp_path / "out.csv").read_bytes() == expected.getvalue().encode()
