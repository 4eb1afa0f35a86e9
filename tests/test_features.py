import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stancelab.corpus import CorpusError, LabeledInstance, ProfileTable, StanceLabel
from stancelab.features import (
    FeatureSetSelector,
    FeatureSpace,
    build_feature_space,
    char_ngrams,
    extract_features,
    tokenize,
    word_ngrams,
)
from stancelab.linsvm import LinearModel, TrainConfig, load_bundle, save_bundle
from vectorize_reference import vectorize

TOKENS = st.lists(st.sampled_from(["a", "bb", "ccc", "@x", "#y"]), max_size=8)


def saved_and_loaded(space, path):
    """The space of a ternary bundle over it, saved to path and loaded."""
    weights = np.arange(3.0 * space.size).reshape(3, space.size)
    save_bundle(LinearModel(weights, np.zeros(3), "ternary", space, TrainConfig()), path)
    loaded = load_bundle(path)[0]
    assert np.array_equal(loaded.weights, weights)
    return loaded.space


def instance(text):
    return LabeledInstance("1", "u1", "A", text, StanceLabel.NONE)


def profile_table(user_id, **sets):
    """A table of one user's sets."""
    return ProfileTable.from_sets({user_id: sets})


class TestSelector:
    def test_string_form_sorts_flags(self):
        sel = FeatureSetSelector.parse("IN_DM+IN_AT")
        assert str(sel) == "IN_AT+IN_DM"
        assert str(FeatureSetSelector.parse("TXT+IN_AT")) == "IN_AT+TXT"

    def test_equality_is_flag_set_equality(self):
        assert FeatureSetSelector.parse("TXT+IN_AT") == FeatureSetSelector.parse(
            "in_at+txt"
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FeatureSetSelector.parse("")

    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError, match="XX"):
            FeatureSetSelector.parse("TXT+XX")

    def test_profile_and_text_queries(self):
        assert FeatureSetSelector.parse("TXT").uses_text is True
        assert FeatureSetSelector.parse("TXT").uses_profiles is False
        assert FeatureSetSelector.parse("CN_FR+CN_FL").uses_text is False
        assert FeatureSetSelector.parse("TXT+PN_DM").uses_profiles is True


class TestTokenize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Gods plan, trust Him!", ["gods", "plan", "trust", "him"]),
            ("@god_stupid is #Atheist", ["@god_stupid", "is", "#atheist"]),
            ("see https://t.co/x", ["see", "<url>"]),
            ("", []),
            ("...", []),
            ("(@who)", ["@who"]),
            ("HTTP://T.CO/X", ["<url>"]),
        ],
    )
    def test_examples(self, text, expected):
        assert tokenize(text) == expected

    @given(st.text(max_size=60))
    def test_tokens_are_lowercase_and_nonempty(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()


class TestNgrams:
    def test_word_enumeration(self):
        assert word_ngrams(["i", "love", "cats"], {1, 2}) == {
            "i", "love", "cats", "i love", "love cats",
        }

    def test_word_empty_input(self):
        assert word_ngrams([], {1, 2, 3}) == set()

    def test_word_too_short(self):
        assert word_ngrams(["hi"], {2}) == set()

    @given(tokens=TOKENS, n=st.integers(1, 4))
    def test_word_window_count_before_collapse(self, tokens, n):
        # |tokens| - n + 1 windows per order, before set collapse.
        windows = [
            " ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)
        ]
        assert word_ngrams(tokens, {n}) == set(windows)

    def test_char_enumeration(self):
        assert char_ngrams("cat", {2, 3}) == {"ca", "at", "cat"}

    def test_char_duplicates_collapse(self):
        assert char_ngrams("aaa", {2}) == {"aa"}

    def test_char_includes_spaces(self):
        assert char_ngrams("ab cd", {2}) == {"ab", "b ", " c", "cd"}

    def test_char_lowercases(self):
        assert char_ngrams("AB", {2}) == {"ab"}

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            word_ngrams(["a"], {0})
        with pytest.raises(ValueError):
            char_ngrams("a", {0})


class TestExtractFeatures:
    def test_network_family_passthrough(self):
        profile = profile_table("u1", in_mentions=["foxnews"])
        out = extract_features(
            instance("ignored"), profile, FeatureSetSelector.of("IN_AT")
        )
        assert out == {"inat:foxnews"}

    def test_empty_text_contributes_nothing(self):
        profile = profile_table("u1", in_mentions=["cnn"])
        out = extract_features(
            instance(""), profile, FeatureSetSelector.parse("TXT+IN_AT")
        )
        assert out == {"inat:cnn"}

    def test_namespaces_keep_families_distinct(self):
        profile = profile_table(
            "u1", cn_friends=["a"], cn_followers=["a"]
        )
        out = extract_features(
            instance(""), profile, FeatureSetSelector.parse("CN_FR+CN_FL")
        )
        assert out == {"cnfr:a", "cnfl:a"}

    def test_txt_combines_word_and_char_grams(self):
        out = extract_features(
            instance("hi yo"), profile_table("u1"),
            FeatureSetSelector.of("TXT"),
        )
        assert "txtw:hi" in out
        assert "txtw:hi yo" in out
        assert "txtc:hi y" in out
        assert all(f.startswith(("txtw:", "txtc:")) for f in out)

    def test_pure_function(self):
        profile = profile_table("u1", pn_domains=["x.example"])
        sel = FeatureSetSelector.parse("TXT+PN_DM")
        inst = instance("same text @here")
        assert extract_features(inst, profile, sel) == extract_features(
            inst, profile, sel
        )

    def test_namespacing_injectivity_across_families(self):
        # The same raw string lands in disjoint namespaced features.
        profile = profile_table(
            "u1",
            in_mentions=["same"], pn_mentions=["same"],
            cn_friends=["same"], cn_followers=["same"],
            in_domains=["same.example"], pn_domains=["same.example"],
        )
        sel = FeatureSetSelector(frozenset(
            ["IN_AT", "IN_DM", "PN_AT", "PN_DM", "CN_FR", "CN_FL"]
        ))
        out = extract_features(instance(""), profile, sel)
        assert len(out) == 6

    def test_network_only_constant_per_author(self):
        # Identical profiles give identical features whatever the text.
        profile = profile_table("u1", cn_friends=["a", "b"])
        sel = FeatureSetSelector.of("CN_FR")
        texts = ["first tweet", "second!", ""]
        outs = [extract_features(instance(t), profile, sel) for t in texts]
        assert outs[0] == outs[1] == outs[2]


class TestFeatureSpace:
    def test_lexicographic_indexing(self):
        space = build_feature_space(
            [{"a"}, {"a", "b"}], FeatureSetSelector.of("TXT"), min_df=1
        )
        assert space.names == ("a", "b")

    def test_min_df_filters(self):
        space = build_feature_space(
            [{"a"}, {"a", "b"}], FeatureSetSelector.of("TXT"), min_df=2
        )
        assert space.names == ("a",)

    def test_empty_space_is_an_error(self):
        with pytest.raises(ValueError, match="empty feature space"):
            build_feature_space([set()], FeatureSetSelector.of("TXT"))

    def test_no_sets_is_an_error(self):
        with pytest.raises(ValueError, match="no training feature sets"):
            build_feature_space([], FeatureSetSelector.of("TXT"))
        with pytest.raises(ValueError, match="no training feature sets"):
            build_feature_space(iter([]), FeatureSetSelector.of("TXT"))

    def test_min_df_is_checked_before_a_set_is_read(self):
        sets = iter([{"a"}, {"b"}])
        with pytest.raises(ValueError, match="min_df"):
            build_feature_space(sets, FeatureSetSelector.of("TXT"), min_df=0)
        assert next(sets) == {"a"}

    @given(
        sets=st.lists(
            st.sets(st.text(alphabet="abcdef", min_size=1, max_size=3)),
            max_size=6,
        ),
        min_df=st.integers(1, 3),
    )
    def test_a_one_shot_iterator_gives_the_space_of_the_list(self, sets, min_df):
        selector = FeatureSetSelector.of("TXT")

        def build(feature_sets):
            try:
                return build_feature_space(feature_sets, selector, min_df=min_df)
            except ValueError as exc:
                return str(exc)

        assert build(iter(sets)) == build(sets)

    @given(
        sets=st.lists(
            st.sets(st.text(alphabet="abcdef", min_size=1, max_size=3)),
            min_size=1, max_size=6,
        )
    )
    def test_bijection(self, sets):
        if not set().union(*sets):
            return
        space = build_feature_space(sets, FeatureSetSelector.of("TXT"))
        index_of = {name: idx for idx, name in enumerate(space.names)}
        indices = sorted(index_of.values())
        assert indices == list(range(space.size))

    def test_serialization_round_trip(self, tmp_path):
        # A space is saved as the name column of a bundle's weights.tsv.
        sel = FeatureSetSelector.of("TXT")
        space = build_feature_space([{"b", "a", "c"}], sel)
        assert saved_and_loaded(space, tmp_path / "bundle") == space

    # Any text, with the characters a line reader might split or drop: tabs,
    # NEL, the line and paragraph separators, CR, LF, lone surrogates.
    @settings(max_examples=300, deadline=None)
    @given(names=st.lists(st.one_of(
        st.text(),
        st.text(alphabet=st.sampled_from(
            ["a", " ", "\t", "\x85", "\u2028", "\u2029", "\x0b", "\x1c", "\ufeff",
             "\ud800", "\udfff", "\r", "\n"]), max_size=4),
    ), unique=True, max_size=6))
    @example(names=["", "txtw:a"])
    @example(names=["a\t0", "a\t", "\t"])
    def test_any_names_read_back_or_are_refused(self, names):
        space = FeatureSpace(tuple(names), FeatureSetSelector.of("TXT"))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bundle"
            try:
                loaded = saved_and_loaded(space, path)
            except CorpusError as exc:
                assert "could not read it back" in str(exc)
                assert not list(path.iterdir())
                return
            assert loaded.names == tuple(names)


class TestVectorize:
    def _space(self):
        return build_feature_space([{"a", "b"}], FeatureSetSelector.of("TXT"))

    def test_oov_dropped(self):
        assert vectorize({"a", "z"}, self._space()).tolist() == [0]

    def test_empty_set(self):
        assert vectorize(set(), self._space()).tolist() == []

    def test_sorted_output(self):
        assert vectorize({"b", "a"}, self._space()).tolist() == [0, 1]

    @given(
        present=st.sets(st.text(alphabet="abcdef", min_size=1, max_size=2)),
        extra=st.sets(st.text(alphabet="xyz", min_size=1, max_size=2)),
    )
    def test_indices_strictly_increasing_and_in_range(self, present, extra):
        vocabulary = {"a", "b", "c", "d", "e", "f"}
        space = build_feature_space([vocabulary], FeatureSetSelector.of("TXT"))
        idx = vectorize(present | extra, space)
        assert np.all(np.diff(idx) > 0) if idx.size > 1 else True
        assert all(0 <= i < space.size for i in idx.tolist())
