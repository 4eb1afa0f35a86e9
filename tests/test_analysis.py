from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stancelab.analysis import (
    jaccard,
    network_overlap,
    top_features,
    topn_overlap_curve,
    user_consistency,
    RankedFeatures,
)
from stancelab.corpus import (
    NETWORK_FIELDS,
    Dataset,
    LabeledInstance,
    ProfileTable,
    StanceLabel,
)
from stancelab.experiment import CellResult, _experiment_curves
from stancelab.features import FeatureSetSelector, FeatureSpace
from stancelab.linsvm import LinearModel, TrainConfig

A, F, N = StanceLabel.AGAINST, StanceLabel.FAVOR, StanceLabel.NONE

SMALL_SETS = st.sets(st.integers(0, 12), max_size=8)

# Profiles of up to four users drawn from a few names, so that families of
# both kinds share names; user "both" always holds "a" as an account and as
# a domain.
PROFILES = st.dictionaries(
    st.sampled_from(["u1", "u2", "u3", "u4"]),
    st.fixed_dictionaries({
        field: st.lists(st.sampled_from(["a", "b", "c", "x.example"]), max_size=3)
        for field in NETWORK_FIELDS
    }),
).map(lambda sets: {**sets, "both": {"cn_followers": ["a"], "pn_domains": ["a", "b"]}})


def model_from_weights(named_weights, mode="ternary"):
    names = sorted(named_weights)
    space = FeatureSpace(tuple(names), FeatureSetSelector.of("TXT"))
    w = np.array([named_weights[name] for name in names], dtype=np.float64)
    if mode == "binary":
        weights = w[None, :]
    else:
        weights = np.vstack([np.zeros_like(w), w, np.zeros_like(w)])
    return LinearModel(
        weights=weights, biases=np.zeros(len(weights)), mode=mode,
        space=space, config=TrainConfig(),
    )


class TestJaccard:
    def test_identity(self):
        assert jaccard({"x"}, {"x"}) == 1.0

    def test_enumerated_third(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert jaccard(set(), set()) == 0.0

    @given(a=SMALL_SETS, b=SMALL_SETS)
    def test_symmetry_and_bounds(self, a, b):
        assert jaccard(a, b) == jaccard(b, a)
        assert 0.0 <= jaccard(a, b) <= 1.0
        if a:
            assert jaccard(a, a) == 1.0

    @given(a=SMALL_SETS, b=SMALL_SETS, new=st.integers(100, 120))
    def test_adding_common_element_never_decreases(self, a, b, new):
        before = jaccard(a, b)
        after = jaccard(a | {new}, b | {new})
        assert after >= before - 1e-12

    @given(a=SMALL_SETS, b=SMALL_SETS)
    def test_matches_double_loop_oracle(self, a, b):
        inter = sum(1 for x in a for y in b if x == y)
        union_count = len(a) + len(b) - inter
        expected = inter / union_count if union_count else 0.0
        assert jaccard(a, b) == expected


class TestNetworkOverlap:
    def _profiles(self, **kwargs):
        return ProfileTable.from_sets({"u1": kwargs})

    def test_identical_sets(self):
        dist = network_overlap(
            self._profiles(in_mentions=["a"], pn_mentions=["a"]),
            ("in_mentions", "pn_mentions"),
        )
        assert dist.values == (1.0,)
        assert dist.excluded == 0

    def test_disjoint_sets(self):
        dist = network_overlap(
            self._profiles(in_mentions=["a"], pn_mentions=["b"]),
            ("in_mentions", "pn_mentions"),
        )
        assert dist.values == (0.0,)

    def test_both_empty_excluded(self):
        dist = network_overlap(
            self._profiles(cn_friends=["a"]), ("in_mentions", "pn_mentions")
        )
        assert dist.values == ()
        assert dist.excluded == 1

    def test_families_of_two_kinds_compare_names(self):
        # "b" is u2's account and domain alike: one name, one id.
        profiles = ProfileTable.from_sets({"u1": {"in_mentions": ["a"], "in_domains": ["b"]},
                                           "u2": {"in_mentions": ["b"], "in_domains": ["b"]}})
        dist = network_overlap(profiles, ("in_mentions", "in_domains"))
        assert dist.values == (0.0, 1.0)

    @given(PROFILES)
    def test_ids_give_the_jaccard_of_the_names(self, profiles):
        table = ProfileTable.from_sets(profiles)
        for user, sets in profiles.items():
            for field in NETWORK_FIELDS:
                assert set(table.member_names(field, user)) == set(sets.get(field, ()))
        for pair in product(NETWORK_FIELDS, repeat=2):
            names = [[table.member_names(field, user) for field in pair]
                     for user in sorted(profiles)]
            dist = network_overlap(table, pair)
            assert dist.values == tuple(jaccard(a, b) for a, b in names if a or b)
            assert dist.excluded == sum(1 for a, b in names if not a and not b)

    def test_invalid_field(self):
        with pytest.raises(ValueError, match="unknown network field"):
            network_overlap(self._profiles(), ("in_mentions", "nope"))

    def test_no_profiles(self):
        with pytest.raises(ValueError):
            network_overlap(ProfileTable.from_sets({}), ("in_mentions", "pn_mentions"))

    def test_histogram_bins(self):
        profiles = ProfileTable.from_sets({
            "u1": {"in_mentions": ["a", "b"], "pn_mentions": ["b", "c"]},  # 1/3 = 33.3%
            "u2": {"in_mentions": ["x"], "pn_mentions": ["x"]},  # 100%
        })
        dist = network_overlap(profiles, ("in_mentions", "pn_mentions"))
        hist = dist.histogram()
        assert len(hist) == 20
        assert sum(count for _, _, count in hist) == 2
        by_bin = {(lo, hi): count for lo, hi, count in hist}
        assert by_bin[(30.0, 35.0)] == 1
        assert by_bin[(95.0, 100.0)] == 1  # 100% lands in the last bin


class TestTopFeatures:
    def test_signed_ranking(self):
        model = model_from_weights({"txtw:a": 0.5, "txtw:b": -0.9, "txtw:c": 0.1})
        ranked = top_features(model, F, "t", 2)
        assert ranked.entries == (("txtw:a", 0.5), ("txtw:c", 0.1))

    def test_binary_against_is_most_negative_favor_weight(self):
        model = model_from_weights(
            {"txtw:a": 0.5, "txtw:b": -0.9, "txtw:c": 0.1}, mode="binary"
        )
        ranked = top_features(model, A, "t", 1)
        assert ranked.entries == (("txtw:b", 0.9),)

    def test_n_larger_than_space_returns_everything(self):
        model = model_from_weights({"txtw:a": 0.5, "txtw:b": -0.9})
        ranked = top_features(model, F, "t", 10)
        assert len(ranked.entries) == 2

    def test_ties_break_by_feature_name(self):
        model = model_from_weights({"txtw:b": 0.5, "txtw:a": 0.5})
        ranked = top_features(model, F, "t", 2)
        assert [f for f, _ in ranked.entries] == ["txtw:a", "txtw:b"]

    def test_unknown_class(self):
        model = model_from_weights({"txtw:a": 0.5}, mode="binary")
        with pytest.raises(ValueError):
            top_features(model, N, "t", 1)

    def test_weights_non_increasing(self):
        model = model_from_weights(
            {f"txtw:{c}": w for c, w in zip("abcdef", [3, -1, 2, 0, 5, -4])}
        )
        ranked = top_features(model, F, "t", 6)
        weights = [w for _, w in ranked.entries]
        assert weights == sorted(weights, reverse=True)


def ranked(topic, *features):
    return RankedFeatures(
        label=F, topic=topic,
        entries=tuple((f, 1.0 - 0.01 * i) for i, f in enumerate(features)),
    )


def bruteforce_topn_curve(ranked_a, ranked_b, n_max=1000):
    """Oracle: rebuild both top-N sets anew for each N."""
    curve = []
    for n in range(1, n_max + 1):
        top_a, top_b = (
            {f.split(":", 1)[1] if ":" in f else f for f, _ in r.entries[:n]}
            for r in (ranked_a, ranked_b)
        )
        curve.append((n, jaccard(top_a, top_b)))
    return curve


# Distinct namespaced features; one stripped name may appear under several
# namespaces of one ranking, as in a multi-family model.
RANKING_FEATURES = st.lists(
    st.tuples(st.sampled_from(["inat:", "pnat:", "cnfr:", ""]),
              st.sampled_from(["a", "b", "c", "d", "e", "f", "x:y"])),
    min_size=1, max_size=12, unique=True,
).map(lambda pairs: [ns + name for ns, name in pairs])


class TestTopnOverlapCurve:
    def test_identical_rankings_constant_one(self):
        a = ranked("t", "inat:x", "inat:y", "inat:z")
        b = ranked("t", "pnat:x", "pnat:y", "pnat:z")
        curve = topn_overlap_curve(a, b, n_max=3)
        assert curve == [(1, 1.0), (2, 1.0), (3, 1.0)]

    def test_disjoint_rankings_constant_zero(self):
        a = ranked("t", "inat:x", "inat:y")
        b = ranked("t", "pnat:p", "pnat:q")
        assert topn_overlap_curve(a, b, n_max=2) == [(1, 0.0), (2, 0.0)]

    def test_enumerated_third_at_n2(self):
        a = ranked("t", "inat:x", "inat:y")
        b = ranked("t", "pnat:y", "pnat:z")
        curve = topn_overlap_curve(a, b, n_max=2)
        assert curve[1] == (2, pytest.approx(1 / 3))

    def test_three_way_is_mean_of_pairwise(self):
        # The experiment's joint curve of a group of three families. On
        # topic "u" a float sum in any other order than ab + ac + bc gives
        # another value at some N.
        features = {
            "t": {"IN_AT": "xy", "PN_AT": "yz", "CN_FR": "xy"},
            "u": {"IN_AT": "abdhi", "PN_AT": "cdhif", "CN_FR": "fecdi"},
        }
        results = {
            (name, "binary"): CellResult(FeatureSetSelector.of(name), "binary", rankings={
                (topic, F): ranked(topic, *(f"{name.lower()}:{c}" for c in by_name[name]))
                for topic, by_name in features.items()
            })
            for name in ("IN_AT", "PN_AT", "CN_FR")
        }
        curves = _experiment_curves(results, "binary", ["t", "u"], n_max=5)
        for topic in ("t", "u"):
            pairwise = []
            for left, right in combinations(("IN_AT", "PN_AT", "CN_FR"), 2):
                values = curves[f"{left} vs {right} | {F.value} | {topic}"]
                assert values.typecode == "d"
                assert list(values) == [v for _, v in topn_overlap_curve(
                    results[left, "binary"].rankings[topic, F],
                    results[right, "binary"].rankings[topic, F], n_max=5)]
                pairwise.append(values)
            curve = curves[f"IN_AT+PN_AT+CN_FR | {F.value} | {topic}"]
            # Bit for bit: the mean is taken in the order ab, ac, bc.
            assert list(curve) == [(ab + ac + bc) / 3.0 for ab, ac, bc in zip(*pairwise)]
        assert curves[f"IN_AT+PN_AT+CN_FR | {F.value} | t"][1] == (1 / 3 + 1.0 + 1 / 3) / 3.0

    def test_empty_ranking_rejected(self):
        a = ranked("t", "inat:x")
        empty = RankedFeatures(label=F, topic="t", entries=())
        with pytest.raises(ValueError, match="empty ranking"):
            topn_overlap_curve(a, empty, n_max=1)

    @given(
        n_a=st.integers(1, 10), n_b=st.integers(1, 10), n_max=st.integers(1, 12)
    )
    def test_values_in_unit_interval(self, n_a, n_b, n_max):
        a = ranked("t", *[f"inat:a{i}" for i in range(n_a)])
        b = ranked("t", *[f"pnat:b{i}" for i in range(0, 2 * n_b, 2)])
        for _, value in topn_overlap_curve(a, b, n_max=n_max):
            assert 0.0 <= value <= 1.0

    @given(features_a=RANKING_FEATURES, features_b=RANKING_FEATURES,
           n_max=st.integers(1, 16))
    @example(features_a=["inat:x", "pnat:x", "inat:y"], features_b=["cnfr:y", "cnfr:x"],
             n_max=5)
    @example(features_a=["inat:x", "pnat:x"], features_b=["pnat:y", "inat:x"],
             n_max=4)
    def test_matches_bruteforce_oracle(self, features_a, features_b, n_max):
        a, b = ranked("t", *features_a), ranked("t", *features_b)
        expected = bruteforce_topn_curve(a, b, n_max=n_max)
        assert topn_overlap_curve(a, b, n_max=n_max) == expected


class TestUserConsistency:
    def _dataset(self, authors):
        instances = tuple(
            LabeledInstance(str(i), author, "t", "", N)
            for i, author in enumerate(authors)
        )
        return Dataset(
            instances,
            ProfileTable.from_sets({a: {} for a in set(authors)}),
            ("t",),
        )

    def test_buckets(self):
        dataset = self._dataset(
            ["u1", "u1", "u2", "u2", "u2", "u3", "u3", "u4"]
        )
        predictions = [F, F, F, N, F, F, A, F]
        report = user_consistency(dataset, predictions)
        assert report.uniform == 1  # u1: F,F
        assert report.polarized_plus_none == 1  # u2: F,N,F
        assert report.mixed == 1  # u3: F,A
        assert report.total == 3  # u4 has a single instance
        assert report.groups[("u1", "t")] == "uniform"
        assert report.groups[("u2", "t")] == "polarized_plus_none"
        assert report.groups[("u3", "t")] == "mixed"

    def test_all_none_counts_as_uniform(self):
        dataset = self._dataset(["u1", "u1"])
        report = user_consistency(dataset, [N, N])
        assert report.uniform == 1

    def test_alignment_check(self):
        dataset = self._dataset(["u1", "u1"])
        with pytest.raises(ValueError):
            user_consistency(dataset, [F])

    def test_same_author_different_topics_are_separate_groups(self):
        instances = (
            LabeledInstance("1", "u1", "t1", "", N),
            LabeledInstance("2", "u1", "t1", "", N),
            LabeledInstance("3", "u1", "t2", "", N),
            LabeledInstance("4", "u1", "t2", "", N),
        )
        dataset = Dataset(
            instances, ProfileTable.from_sets({"u1": {}}), ("t1", "t2")
        )
        report = user_consistency(dataset, [F, F, A, A])
        assert report.uniform == 2
        assert report.mixed == 0
