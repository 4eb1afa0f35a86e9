"""The batch vectorizer against the set-based oracle, row for row."""

import json
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancelab import pipeline
from stancelab.corpus import Dataset, LabeledInstance, ProfileTable, StanceLabel
from stancelab.corpus import load_network_profiles
from stancelab.features import (
    ALL_FLAGS,
    NETWORK_FLAG_SOURCES,
    FeatureSetSelector,
    FeatureSpace,
    build_feature_space,
    extract_features,
    index_rows,
    tokenize,
)
from stancelab.linsvm import LinearModel, TrainConfig, predict
from stancelab.synth import SynthConfig, generate

from profile_reference import load_profile_sets
from vectorize_reference import reference_tokenize, vectorize

# A few characters that collide often, plus the awkward ones: NUL, a
# character whose lowercase form has two characters, a final sigma,
# whitespace that is not a space, and punctuation tokenize strips.
DENSE = "ab İΣσς\0\t\x85.,#@"
TEXTS = st.one_of(
    st.text(alphabet=DENSE, max_size=40),
    st.text(max_size=30),
    st.sampled_from(["", "\0", "İİ", "see https://t.co/x now", "ab ab ab"]),
)
AUTHORS = st.sampled_from(["u1", "u2", "u3", "nobody"])
ITEMS = st.lists(st.sampled_from(["a", "b", "ab", "x.example"]), max_size=3)
SELECTORS = st.sets(st.sampled_from(ALL_FLAGS), min_size=1).map(
    lambda flags: FeatureSetSelector(frozenset(flags))
)


@st.composite
def datasets(draw, max_size=12):
    profiles = ProfileTable.from_sets({
        user: {field: draw(ITEMS) for _, field in NETWORK_FLAG_SOURCES.values()}
        for user in ("u1", "u2", "u3")
    })
    instances = tuple(
        LabeledInstance(str(i), draw(AUTHORS), "A", draw(TEXTS), StanceLabel.NONE)
        for i in range(draw(st.integers(1, max_size)))
    )
    return Dataset(instances, profiles, ("A",))


def features_of(dataset, selector):
    return [
        extract_features(inst, dataset.profiles, selector)
        for inst in dataset.instances
    ]


@st.composite
def built_spaces(draw, dataset):
    """A space as training builds it, on part of the data."""
    selector = draw(SELECTORS)
    sets = features_of(dataset, selector)
    sets = sets[: draw(st.integers(1, len(sets)))]
    try:
        space = build_feature_space(sets, selector, min_df=draw(st.integers(1, 3)))
    except ValueError:  # every feature fell below min_df
        space = FeatureSpace((), selector)
    return space


NAME_PREFIXES = ["txtw:", "txtc:", "inat:", "indm:", "pnat:", "pndm:", "cnfr:",
                 "cnfl:", "zzzz:", "txtc", "txt", ""]


@st.composite
def hand_spaces(draw, dataset):
    """A hand-edited space: arbitrary names, not prefix-closed, columns in
    any order, under a selector that may disagree with its names."""
    emitted = sorted(set().union(*features_of(dataset, FeatureSetSelector(frozenset(ALL_FLAGS)))))
    names = set(draw(st.lists(st.sampled_from(emitted), max_size=40))) if emitted else set()
    names |= {
        prefix + suffix
        for prefix, suffix in draw(st.lists(st.tuples(
            st.sampled_from(NAME_PREFIXES), st.text(alphabet=DENSE, max_size=7)
        ), max_size=15))
    }
    # Drop every prefix of some txtc: names, so the space is not prefix-closed.
    if draw(st.booleans()):
        names = {n for n in names if not any(
            m != n and m.startswith(n) and n.startswith("txtc:") for m in names)}
    order = draw(st.permutations(sorted(names)))
    return FeatureSpace(tuple(order), draw(SELECTORS))


def assert_rows_match(space, dataset, instances):
    rows = index_rows(space, instances, dataset)
    assert len(rows) == len(instances)
    for inst, row in zip(instances, rows):
        features = extract_features(inst, dataset.profiles, space.selector)
        expected = vectorize(features, space)
        assert row.dtype == expected.dtype == np.int64
        assert np.array_equal(row, expected), inst.text


class TestIndexRows:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_on_built_spaces(self, data):
        dataset = data.draw(datasets())
        space = data.draw(built_spaces(dataset))
        assert_rows_match(space, dataset, dataset.instances)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_on_hand_built_spaces(self, data):
        dataset = data.draw(datasets())
        space = data.draw(hand_spaces(dataset))
        assert_rows_match(space, dataset, dataset.instances)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_a_row_does_not_depend_on_its_batch(self, data):
        dataset = data.draw(datasets())
        space = data.draw(built_spaces(dataset))
        whole = index_rows(space, dataset.instances, dataset)
        for i, inst in enumerate(dataset.instances):
            (alone,) = index_rows(space, [inst], dataset)
            assert np.array_equal(alone, whole[i])

    def test_windows_do_not_cross_tweet_ends(self):
        # "ab" and "ba" are in the space; only the join of the two tweets
        # would hold "ba".
        space = FeatureSpace(("txtc:ab", "txtc:ba"), FeatureSetSelector.of("TXT"))
        dataset = Dataset(
            (LabeledInstance("1", "u", "A", "ab", StanceLabel.NONE),
             LabeledInstance("2", "u", "A", "ab", StanceLabel.NONE)), ProfileTable.from_sets({}), ("A",))
        rows = index_rows(space, dataset.instances, dataset)
        assert [r.tolist() for r in rows] == [[0], [0]]

    def test_space_that_is_not_prefix_closed(self):
        space = FeatureSpace(("txtc:abcde", "txtc:x", "txtc:abcdef"),
                             FeatureSetSelector.of("TXT"))
        dataset = Dataset(
            (LabeledInstance("1", "u", "A", "xABCDEF", StanceLabel.NONE),), ProfileTable.from_sets({}), ("A",))
        assert [r.tolist() for r in index_rows(space, dataset.instances, dataset)] == [[0]]

    def test_empty_batch_and_empty_space(self):
        space = FeatureSpace((), FeatureSetSelector.of("TXT"))
        inst = LabeledInstance("1", "u", "A", "text", StanceLabel.NONE)
        dataset = Dataset((inst,), ProfileTable.from_sets({}), ("A",))
        assert index_rows(space, [], dataset) == []
        (row,) = index_rows(space, [inst], dataset)
        assert row.dtype == np.int64 and row.size == 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_network_columns_match_the_frozenset_profiles(self, data):
        # Rows from the table's ids equal the set-based rows of the
        # frozenset profiles loaded from the same file, with members the
        # space does not hold and authors the file does not hold.
        members = st.lists(st.sampled_from(["a", "@B", "b", "ab", "x.example",
                                            "https://www.y.example/z", ""]), max_size=4)
        records = [{"user_id": user, **{field: data.draw(members)
                                        for _, field in NETWORK_FLAG_SOURCES.values()}}
                   for user in data.draw(st.lists(st.sampled_from(["u1", "u2", "u3"])))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
            table, _ = load_network_profiles(path)
            sets, _ = load_profile_sets(path)
        names = data.draw(st.sets(st.sampled_from([
            prefix + name for prefix, _ in NETWORK_FLAG_SOURCES.values()
            for name in ["a", "b", "ab", "x.example", "y.example", "zz"]])))
        flags = data.draw(st.sets(st.sampled_from(sorted(NETWORK_FLAG_SOURCES)), min_size=1))
        space = FeatureSpace(tuple(data.draw(st.permutations(sorted(names)))),
                             FeatureSetSelector(frozenset(flags)))
        instances = tuple(
            LabeledInstance(str(i), data.draw(AUTHORS), "A", "", StanceLabel.NONE)
            for i in range(data.draw(st.integers(1, 12))))
        rows = index_rows(space, instances, Dataset(instances, table, ("A",)))
        for inst, row in zip(instances, rows):
            profile = sets.get(inst.author_id)
            expected = vectorize({
                prefix + member
                for prefix, field in map(NETWORK_FLAG_SOURCES.get, flags)
                for member in (getattr(profile, field) if profile else ())
            }, space)
            assert np.array_equal(row, expected), inst.author_id

    def test_columns_follow_each_tables_ids(self):
        # One space with two tables that number the same names apart.
        space = FeatureSpace(("inat:a", "inat:b"), FeatureSetSelector.of("IN_AT"))
        inst = LabeledInstance("1", "u", "A", "", StanceLabel.NONE)
        for names, expected in ((["a", "b", "c"], [0, 1]), (["c", "b"], [1]), (["a"], [0])):
            table = ProfileTable.from_sets({"u": {"in_mentions": names}})
            (row,) = index_rows(space, [inst], Dataset((inst,), table, ("A",)))
            assert row.tolist() == expected

    @pytest.mark.parametrize("train_sets, predict_sets", [
        # The vocabulary is mostly cn_followers names, far more than the few
        # ids in_mentions holds, and some in_mentions names are also followers.
        ({"t": {"in_mentions": ["m0", "f1"], "cn_followers": ["f0", "m1"]}},
         {**{f"u{i}": {"in_mentions": [f"m{i % 3}", f"f{i}"],
                       "cn_followers": [f"f{j}" for j in range(i, 2000, 7)]}
             for i in range(6)}, "u9": {"cn_followers": ["m0"]}}),
        # The space's inat: block holds "a" and "b"; the predicting table
        # holds "a" only as a follower and "b" only as a friend.
        ({"t": {"in_mentions": ["a", "b", "c"], "cn_followers": ["a"]}},
         {"u0": {"cn_followers": ["a"], "cn_friends": ["b"], "in_mentions": ["c"]},
          "u1": {"in_mentions": ["d"], "cn_followers": ["a", "c"]}}),
    ])
    def test_network_columns_follow_the_predicting_tables_families(
            self, train_sets, predict_sets):
        for flags in (("IN_AT",), ("CN_FL",), ("IN_AT", "CN_FL", "CN_FR")):
            selector = FeatureSetSelector(frozenset(flags))
            train_table = ProfileTable.from_sets(train_sets)
            (feature_set,) = features_of(Dataset(
                (LabeledInstance("0", "t", "A", "", StanceLabel.NONE),),
                train_table, ("A",)), selector)
            space = build_feature_space([feature_set], selector)
            instances = tuple(LabeledInstance(str(i), author, "A", "", StanceLabel.NONE)
                              for i, author in enumerate([*predict_sets, "nobody"]))
            dataset = Dataset(instances, ProfileTable.from_sets(predict_sets), ("A",))
            assert_rows_match(space, dataset, instances)

    def test_blocks_are_built_once_per_space(self):
        space = FeatureSpace(("txtc:ab",), FeatureSetSelector.of("TXT"))
        assert space.blocks is space.blocks


@settings(max_examples=300)
@given(st.one_of(TEXTS, st.text(alphabet=st.characters(max_codepoint=127), max_size=40)))
def test_tokenize_matches_the_character_loop(text):
    assert tokenize(text) == reference_tokenize(text)


class TrackedSet(set):
    __hash__ = object.__hash__  # so a WeakSet can hold it


class TestTrainTopicModels:
    @pytest.mark.parametrize("min_df", [1, 2])
    def test_holds_a_bounded_number_of_feature_sets(self, min_df):
        train, _ = generate(SynthConfig(topics=("alpha", "beta"), users_per_topic=40, seed=2))
        selector = FeatureSetSelector.parse("TXT+IN_AT")
        alive: weakref.WeakSet = weakref.WeakSet()
        most = calls = 0

        def tracked(inst, profiles, sel):
            nonlocal most, calls
            feature_set = TrackedSet(extract_features(inst, profiles, sel))
            alive.add(feature_set)
            most, calls = max(most, len(alive)), calls + 1
            return feature_set

        config = TrainConfig(min_df=min_df)
        expected = pipeline.train_topic_models(train, selector, "ternary", config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "extract_features", tracked)
            models = pipeline.train_topic_models(train, selector, "ternary", config)
        assert calls == len(train.instances) > 100
        assert most <= 2
        for topic, model in models.items():
            assert model.space == expected[topic].space
            assert np.array_equal(model.weights, expected[topic].weights)


class TestPredictDataset:
    @pytest.mark.parametrize("batch_size", [1, 3, 256])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_predict_on_oracle_vectors(self, batch_size, data):
        dataset = data.draw(datasets(max_size=20))
        topics = ("A", "B")
        instances = tuple(
            LabeledInstance(inst.tweet_id, inst.author_id, data.draw(st.sampled_from(topics)),
                            inst.text, inst.label)
            for inst in dataset.instances
        )
        dataset = Dataset(instances, dataset.profiles, topics)
        models = {}
        for topic in topics:
            space = data.draw(built_spaces(dataset))
            # Small integer weights, so exact ties between classes are common.
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            weights = rng.integers(-3, 4, size=(3, space.size)).astype(np.float64)
            models[topic] = LinearModel(
                weights=weights, biases=np.zeros(3), mode="ternary",
                space=space, config=TrainConfig(),
            )
        expected = [
            predict(models[inst.topic], [vectorize(extract_features(
                inst, dataset.profiles, models[inst.topic].space.selector,
            ), models[inst.topic].space)])[0]
            for inst in dataset.instances
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "BATCH_SIZE", batch_size)
            assert pipeline.predict_dataset(models, dataset) == expected

    def test_missing_topic_is_named(self):
        inst = LabeledInstance("1", "u", "B", "text", StanceLabel.NONE)
        with pytest.raises(ValueError, match="'B'"):
            pipeline.predict_dataset({}, Dataset((inst,), ProfileTable.from_sets({}), ("B",)))
