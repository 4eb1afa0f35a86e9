"""The per-cell output writers against their oracles: rankings equal to the
float bit, a bundle's weights.tsv equal to the byte and its biases to the
float bit."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stancelab.analysis import top_features
from stancelab.corpus import StanceLabel
from stancelab.features import FeatureSetSelector, FeatureSpace
from stancelab.linsvm import (
    MODE_CLASSES, MODE_FITS, LinearModel, TrainConfig, save_bundle,
)

import output_reference as reference

A, F, N = StanceLabel.AGAINST, StanceLabel.FAVOR, StanceLabel.NONE

# Weights that tie often, both zeros, the smallest subnormals, and any
# other finite float.
WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 5e-324, -5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)
NAMES = st.text(alphabet="ab:é\t ", min_size=1, max_size=4).map("txtw:".__add__)


def make_model(names, weights, biases, mode):
    return LinearModel(
        weights=np.array(weights, dtype=np.float64),
        biases=np.array(biases, dtype=np.float64),
        mode=mode,
        space=FeatureSpace(tuple(names), FeatureSetSelector.of("TXT")),
        config=TrainConfig(),
    )


@st.composite
def models(draw):
    """Models over spaces in name order, as build_feature_space makes them,
    and over spaces whose columns are shuffled."""
    names = sorted(draw(st.sets(NAMES, min_size=1, max_size=12)))
    dim = len(names)
    if draw(st.booleans()):
        names = draw(st.permutations(names))
    mode = draw(st.sampled_from(sorted(MODE_CLASSES)))
    k = len(MODE_FITS[mode])
    row = st.lists(WEIGHTS, min_size=dim, max_size=dim)
    return make_model(
        names,
        draw(st.lists(row, min_size=k, max_size=k)),
        draw(st.lists(WEIGHTS, min_size=k, max_size=k)),
        mode,
    )


def bits(entries):
    return [(name, type(w), struct.pack("<d", w)) for name, w in entries]


# Names out of column order, a three-way tie and both zeros: the Favor
# row, whose negation the Against ranking reads.
TIES = make_model(
    ("txtw:c", "txtw:a", "txtw:d", "txtw:b", "txtw:e"),
    [[-0.5, -0.5, 0.0, -0.5, -0.0]],
    [0.0],
    "binary",
)

# More non-zero weights than save_bundle writes at once, a third of them
# zeros of either sign.
_rng = np.random.default_rng(5)
_big = _rng.standard_normal((3, 2500)) * (_rng.random((3, 2500)) < 0.7)
_big[_rng.random(_big.shape) < 0.05] = -0.0
LARGE = make_model(
    [f"txtw:f{i:04d}" for i in range(2500)], _big, [0.25, -0.0, 1e-300],
    "ternary",
)


class TestTopFeatures:
    @settings(max_examples=300, deadline=None)
    @given(model=models(), n=st.integers(1, 14))
    @example(model=TIES, n=5)
    @example(model=LARGE, n=3000)
    def test_equals_reference_to_the_bit(self, model, n):
        for cls in model.classes:
            got = top_features(model, cls, "t", n)
            want = reference.top_features(model, cls, "t", n)
            assert (got.label, got.topic) == (want.label, want.topic)
            assert bits(got.entries) == bits(want.entries)

    def test_ties_rank_by_name_whatever_the_column_order(self):
        assert bits(top_features(TIES, A, "t", 5).entries) == bits([
            ("txtw:a", 0.5), ("txtw:b", 0.5), ("txtw:c", 0.5),
            ("txtw:d", -0.0), ("txtw:e", 0.0),
        ])
        assert bits(top_features(TIES, F, "t", 5).entries) == bits([
            ("txtw:d", 0.0), ("txtw:e", -0.0), ("txtw:a", -0.5),
            ("txtw:b", -0.5), ("txtw:c", -0.5),
        ])


class TestWeightsFiles:
    @settings(max_examples=100, deadline=None)
    @given(model=models())
    @example(model=TIES)
    @example(model=LARGE)
    def test_equal_reference_bytes(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_bundle(model, tmp / "bundle")
            assert sorted(p.name for p in (tmp / "bundle").iterdir()) == [
                "metadata.json", "weights.tsv"]
            reference.write_weights(tmp / "expected.tsv", model)
            written = (tmp / "bundle" / "weights.tsv").read_bytes()
            assert written == (tmp / "expected.tsv").read_bytes()
            biases = json.loads((tmp / "bundle" / "metadata.json").read_text())["biases"]
            assert bits(enumerate(biases)) == bits(enumerate(model.biases.tolist()))
