import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from stancelab.corpus import CANONICAL_LABELS, CorpusError, LabeledInstance, StanceLabel
from stancelab.scoring import (
    confusion,
    kfold,
    mann_whitney_u,
    minority_recall_flags,
    paired_t_test,
    read_label_lines,
    read_predictions,
    score_semeval,
    student_t_two_sided_p,
    write_predictions,
)

from golden_scoring import (
    GOLDEN_CASES,
    POOLING_EXPECTED,
    POOLING_GOLD,
    POOLING_PRED,
    POOLING_TOPICS,
)

A, F, N = StanceLabel.AGAINST, StanceLabel.FAVOR, StanceLabel.NONE

LABELS = st.sampled_from([A, F, N])
LABEL_LISTS = st.lists(LABELS, min_size=1, max_size=30)


class TestScoreSemeval:
    @pytest.mark.parametrize("gold,pred,f_favor,f_against,f_avg", GOLDEN_CASES)
    def test_golden_fixtures(self, gold, pred, f_favor, f_against, f_avg):
        report = score_semeval(gold, pred, ["t"] * len(gold))
        assert round(report.overall.f_favor, 4) == f_favor
        assert round(report.overall.f_against, 4) == f_against
        assert round(report.overall.f_avg, 4) == f_avg

    def test_overall_pools_across_topics(self):
        report = score_semeval(POOLING_GOLD, POOLING_PRED, POOLING_TOPICS)
        assert round(report.per_topic["t1"].f_avg, 4) == POOLING_EXPECTED["t1"]
        assert round(report.per_topic["t2"].f_avg, 4) == POOLING_EXPECTED["t2"]
        f_favor, f_against, f_avg = POOLING_EXPECTED["overall"]
        assert round(report.overall.f_favor, 4) == f_favor
        assert round(report.overall.f_against, 4) == f_against
        assert round(report.overall.f_avg, 4) == f_avg

    def test_counts_per_topic(self):
        report = score_semeval(POOLING_GOLD, POOLING_PRED, POOLING_TOPICS)
        assert report.counts == {"t1": 3, "t2": 1}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score_semeval([F], [F, A], ["t", "t"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            score_semeval([], [], [])

    @given(gold=LABEL_LISTS)
    def test_perfect_predictions(self, gold):
        report = score_semeval(gold, gold, ["t"] * len(gold))
        has_favor = F in gold
        has_against = A in gold
        assert report.overall.f_favor == (1.0 if has_favor else 0.0)
        assert report.overall.f_against == (1.0 if has_against else 0.0)

    @given(gold=LABEL_LISTS, data=st.data())
    def test_f_avg_is_mean_of_components(self, gold, data):
        pred = data.draw(st.lists(LABELS, min_size=len(gold), max_size=len(gold)))
        report = score_semeval(gold, pred, ["t"] * len(gold))
        assert report.overall.f_avg == (
            report.overall.f_favor + report.overall.f_against
        ) / 2.0
        assert 0.0 <= report.overall.f_favor <= 1.0
        assert 0.0 <= report.overall.f_against <= 1.0

    @given(gold=LABEL_LISTS, data=st.data(), seed=st.integers(0, 2**16))
    def test_joint_permutation_invariance(self, gold, data, seed):
        pred = data.draw(st.lists(LABELS, min_size=len(gold), max_size=len(gold)))
        topics = data.draw(
            st.lists(st.sampled_from(["t1", "t2"]), min_size=len(gold),
                     max_size=len(gold))
        )
        order = np.random.default_rng(seed).permutation(len(gold))
        report_a = score_semeval(gold, pred, topics)
        report_b = score_semeval(
            [gold[i] for i in order], [pred[i] for i in order],
            [topics[i] for i in order],
        )
        assert report_a.per_topic == report_b.per_topic
        assert report_a.overall == report_b.overall
        assert np.array_equal(report_a.confusion, report_b.confusion)


class TestGroupedScores:
    @given(gold=LABEL_LISTS, data=st.data())
    def test_each_group_scores_as_its_subset(self, gold, data):
        # evaluate --compare pairs by fold through this: one grouped call
        # must give each fold exactly what scoring the fold alone gives.
        size = len(gold)
        pred = data.draw(st.lists(LABELS, min_size=size, max_size=size))
        keys = data.draw(st.lists(
            st.one_of(st.integers(0, 4), st.sampled_from(["t1", "t2"])),
            min_size=size, max_size=size))
        report = score_semeval(gold, pred, keys)
        assert list(report.per_topic) == list(dict.fromkeys(keys))
        for key, scores in report.per_topic.items():
            idx = [i for i, k in enumerate(keys) if k == key]
            alone = score_semeval([gold[i] for i in idx], [pred[i] for i in idx],
                                  [key] * len(idx))
            assert scores == alone.overall
            assert report.counts[key] == len(idx)
        assert np.array_equal(report.confusion, confusion(gold, pred))


class TestConfusion:
    def test_single_miss(self):
        matrix = confusion([A], [F])
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[0, 1] = 1  # gold Against, predicted Favor
        assert np.array_equal(matrix, expected)

    def test_diagonal(self):
        matrix = confusion([A, F, N], [A, F, N])
        assert np.array_equal(matrix, np.eye(3, dtype=np.int64))

    def test_empty(self):
        assert np.array_equal(confusion([], []), np.zeros((3, 3), dtype=np.int64))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([A], [])

    @given(gold=LABEL_LISTS, data=st.data())
    def test_row_and_column_sums(self, gold, data):
        pred = data.draw(st.lists(LABELS, min_size=len(gold), max_size=len(gold)))
        matrix = confusion(gold, pred)
        assert matrix.sum() == len(gold)
        pairs = list(zip(gold, pred))  # the counting loop, as reference
        for i, g in enumerate(CANONICAL_LABELS):
            for j, p in enumerate(CANONICAL_LABELS):
                assert matrix[i, j] == pairs.count((g, p))
        for i, label in enumerate(CANONICAL_LABELS):
            assert matrix[i, :].sum() == sum(1 for g in gold if g is label)
            assert matrix[:, i].sum() == sum(1 for p in pred if p is label)

    def test_minority_recall_flags(self):
        matrix = confusion([A, A, F], [F, F, F])
        assert minority_recall_flags(matrix) == [A]
        assert minority_recall_flags(confusion([A, F], [A, F])) == []


class TestKfold:
    def test_balanced(self):
        folds = kfold(10, 5, seed=1)
        assert [folds.count(f) for f in range(5)] == [2, 2, 2, 2, 2]

    def test_remainder(self):
        folds = kfold(11, 5, seed=1)
        assert sorted(folds.count(f) for f in range(5)) == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        assert kfold(20, 4, seed=7) == kfold(20, 4, seed=7)
        # Frozen: a change here changes every fold-paired significance file.
        # The order of dcd_reference.epoch_order(1, 0, range(10)) dealt
        # round-robin gives the same folds.
        assert kfold(10, 5, seed=1) == (4, 1, 0, 3, 4, 2, 2, 1, 0, 3)

    def test_n_less_than_k(self):
        with pytest.raises(ValueError):
            kfold(3, 5, seed=0)
        with pytest.raises(ValueError):
            kfold(10, 1, seed=0)

    @pytest.mark.parametrize("seed,message", [
        (-1, "seed must be >= 0"), (2**64, r"seed must be < 2\*\*64")])
    def test_seed_out_of_range(self, seed, message):
        with pytest.raises(ValueError, match=message):
            kfold(10, 5, seed)

    def test_largest_seed(self):
        folds = kfold(10, 5, 2**64 - 1)
        assert [folds.count(f) for f in range(5)] == [2, 2, 2, 2, 2]

    @given(n=st.integers(5, 60), k=st.integers(2, 5), seed=st.integers(0, 99))
    def test_partition_properties(self, n, k, seed):
        folds = kfold(n, k, seed)
        assert len(folds) == n
        assert all(type(f) is int for f in folds)
        sizes = [folds.count(f) for f in range(k)]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1


class TestPairedT:
    def test_frozen_reference_value(self):
        # Independent oracle: scipy.stats.ttest_rel on the same data gives
        # t=0.4200840252, p=0.7026969439 (frozen).
        p = paired_t_test([1.0, 2.0, 3.0, 4.0], [1.1, 1.8, 3.2, 3.7])
        assert p == pytest.approx(0.7026969438943622, abs=1e-4)

    def test_zero_differences_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_constant_nonzero_differences_degenerate(self):
        # sd of the differences is 0, so the statistic is undefined.
        with pytest.raises(ValueError, match="degenerate"):
            paired_t_test([2.0, 4.0, 6.0], [1.0, 3.0, 5.0])

    def test_length_checks(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])

    @given(
        diffs=st.lists(
            st.floats(-5, 5, allow_nan=False), min_size=3, max_size=12
        ),
        base=st.lists(st.floats(-5, 5, allow_nan=False), min_size=12, max_size=12),
    )
    @example(diffs=[0.0, 0.0, 7.020478540921222e-161], base=[0.0] * 12)
    def test_matches_scipy_within_1e6(self, diffs, base):
        a = [b + d for b, d in zip(base, diffs)]
        b = base[: len(diffs)]
        d = np.asarray(a) - np.asarray(b)
        if np.std(d, ddof=1) == 0:
            return
        # scipy squares the differences as they are, and squares of ones
        # near 1e-161 are subnormal (it gave p 0.42292 where t is exactly 1
        # and p 0.42265). t does not change when the differences are scaled
        # by a power of two, which is exact, so scipy is given them scaled.
        scaled = np.ldexp(d, -math.frexp(float(np.abs(d).max()))[1])
        expected = stats.ttest_rel(scaled, np.zeros_like(scaled)).pvalue
        assert paired_t_test(a, b) == pytest.approx(expected, abs=1e-6)

    @given(t=st.floats(-30, 30), dof=st.integers(1, 40))
    @example(t=2**-24, dof=5)
    @example(t=7.44e-9, dof=1)
    @example(t=0.0, dof=2)
    @example(t=-0.0, dof=3)
    @example(t=math.inf, dof=1)
    @example(t=-math.inf, dof=4)
    @example(t=1e200, dof=3)  # t * t overflows
    @example(t=2.2250738585e-313, dof=3)  # sqrt(dof) / t overflows
    def test_t_sf_matches_scipy(self, t, dof):
        # At dof=1, 2 * scipy's t.sf is off by up to 4.7e-9 for |t| from
        # about 1e-9 to 1e-7 (t.sf gives exactly 0.5 at 7.44e-9). Student's
        # t with one degree of freedom is the Cauchy distribution, whose sf
        # scipy computes exactly, so that is the oracle there.
        if dof == 1:
            expected = 2.0 * stats.cauchy.sf(abs(t))
        else:
            expected = 2.0 * stats.t.sf(abs(t), dof)
        assert student_t_two_sided_p(t, dof) == pytest.approx(expected, abs=1e-9)

    @given(t=st.floats(-40, 40), dof=st.integers(41, 20_000))
    def test_t_sf_matches_scipy_at_large_dof(self, t, dof):
        expected = 2.0 * stats.t.sf(abs(t), dof)
        assert student_t_two_sided_p(t, dof) == pytest.approx(expected, abs=1e-9)

    def test_dof_must_be_a_positive_integer(self):
        with pytest.raises(TypeError):
            student_t_two_sided_p(1.0, 2.5)
        with pytest.raises(ValueError):
            student_t_two_sided_p(1.0, 0)


class TestMannWhitney:
    def test_identical_samples_exact_p_one(self):
        result = mann_whitney_u([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.method == "exact"
        assert result.p_value == pytest.approx(1.0, abs=1e-9)

    def test_separated_pairs_exact(self):
        # U=0; 2 of the C(4,2)=6 arrangements are as extreme (frozen from
        # scipy.stats.mannwhitneyu exact mode: p=0.3333333333).
        result = mann_whitney_u([1.0, 2.0], [10.0, 11.0])
        assert result.method == "exact"
        assert result.u == 0.0
        assert result.p_value == pytest.approx(2.0 / 6.0, abs=1e-9)

    def test_large_samples_take_normal_branch(self):
        a = [float(x) for x in range(1, 12)]
        b = [x + 0.5 for x in range(1, 10)]
        result = mann_whitney_u(a, b)
        assert result.method == "normal"
        # Frozen from scipy asymptotic mode without continuity correction.
        assert result.u == 54.0
        assert result.p_value == pytest.approx(0.7324398999038724, abs=1e-9)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    @given(
        a=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=8),
        b=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=8),
    )
    def test_two_sided_symmetry(self, a, b):
        assert mann_whitney_u(a, b).p_value == pytest.approx(
            mann_whitney_u(b, a).p_value, abs=1e-12
        )

    @given(
        a=st.lists(st.integers(0, 30).map(float), min_size=2, max_size=8),
        b=st.lists(st.integers(0, 30).map(float), min_size=2, max_size=8),
    )
    def test_exact_mode_matches_scipy_when_tie_free(self, a, b):
        if len(set(a) | set(b)) != len(a) + len(b):
            return  # scipy's exact mode assumes no ties
        expected = stats.mannwhitneyu(
            a, b, alternative="two-sided", method="exact"
        ).pvalue
        assert mann_whitney_u(a, b).p_value == pytest.approx(expected, abs=1e-9)

    @given(
        a=st.lists(st.floats(0, 20, allow_nan=False), min_size=9, max_size=14),
        b=st.lists(st.floats(0, 20, allow_nan=False), min_size=3, max_size=14),
    )
    def test_normal_mode_matches_scipy(self, a, b):
        result = mann_whitney_u(a, b)
        if result.method != "normal":
            return
        if len(set(a) | set(b)) == 1:
            # All pooled values tie: scipy yields NaN, this package pins 1.0.
            assert result.p_value == 1.0
            return
        expected = stats.mannwhitneyu(
            a, b, alternative="two-sided", method="asymptotic",
            use_continuity=False,
        ).pvalue
        assert result.p_value == pytest.approx(float(expected), abs=1e-9)

    @given(
        a=st.lists(st.integers(0, 4).map(lambda v: v / 2.0), min_size=2, max_size=8),
        b=st.lists(st.integers(0, 4).map(lambda v: v / 2.0), min_size=2, max_size=8),
    )
    @example(a=[0.5, 0.7], b=[0.5, 1.0, 1.0, 1.0, 1.0])
    def test_exact_mode_with_ties_is_the_permutation_test_of_u_distance(self, a, b):
        # The exact p is the share of all splits of the pooled sample whose
        # |U - n1*n2/2| is at least the observed one. scipy's mannwhitneyu
        # with PermutationMethod() doubles the one-sided p instead, which
        # differs with ties (6/21 against 3/21 in the example).
        mu = len(a) * len(b) / 2.0

        def distance(x, y, axis):
            u = stats.mannwhitneyu(x, y, axis=axis, method="asymptotic").statistic
            return np.abs(u - mu)

        expected = stats.permutation_test(
            (a, b), distance, permutation_type="independent", vectorized=True,
            n_resamples=np.inf, alternative="greater",
        ).pvalue
        result = mann_whitney_u(a, b)
        assert result.method == "exact"
        assert result.p_value == expected


FIELDS = st.text(st.one_of(st.characters(), st.sampled_from("\t\r\n\x85\u2028\ud800")),
                 max_size=4)


def _reads_back(field: str) -> bool:
    """Whether a predictions ID or Target would be read back as written."""
    if any(c in field for c in "\t\r\n"):
        return False
    try:
        field.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class TestPredictionFiles:
    def test_round_trip(self, tmp_path):
        from stancelab.corpus import LabeledInstance

        instances = [
            LabeledInstance("1", "u1", "topic a", "hi", F),
            LabeledInstance("2", "u2", "topic b", "", N),
        ]
        path = tmp_path / "preds.tsv"
        write_predictions(path, instances, [A, N])
        ids, topics, gold, pred = read_predictions(path)
        assert ids == ["1", "2"]
        assert topics == ["topic a", "topic b"]
        assert gold == [F, N]
        assert pred == [A, N]

    # Any text, with the characters a line reader might split on: tabs, CR,
    # LF, NEL, the line separator, and a lone surrogate.
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(FIELDS, FIELDS), max_size=4,
                         unique_by=lambda row: row[0]))
    @example(rows=[("1\t2", "t")])
    def test_round_trips_or_refuses(self, rows):
        readable = all(_reads_back(field) for row in rows for field in row)
        event("written" if readable else "refused")
        instances = [LabeledInstance(i, "u", t, "", F) for i, t in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "preds.tsv"
            if not readable:
                with pytest.raises(CorpusError, match="could not read it back"):
                    write_predictions(path, instances, [A] * len(rows))
                assert not path.exists()
                return
            write_predictions(path, instances, [A] * len(rows))
            assert read_predictions(path) == (
                [i for i, _ in rows], [t for _, t in rows], [F] * len(rows), [A] * len(rows))

    @pytest.mark.parametrize("tweet_id, topic", [
        ("1\t2", "t"), ("1\n", "t"), ("1", "t\r"), ("1", "\udc80"),
    ], ids=["tab-in-id", "lf-in-id", "cr-in-target", "surrogate-in-target"])
    def test_unreadable_row_refused_naming_the_tweet(self, tmp_path, tweet_id, topic):
        path = tmp_path / "preds.tsv"
        path.write_text("old\n", encoding="utf-8")
        instances = [LabeledInstance("0", "u", "t", "", F),
                     LabeledInstance(tweet_id, "u", topic, "", F)]
        with pytest.raises(CorpusError, match=re.escape(f"tweet {tweet_id!r}: cannot write")):
            write_predictions(path, instances, [A, A])
        assert path.read_text(encoding="utf-8") == "old\n"

    @pytest.mark.parametrize("n_pred", [1, 3])
    def test_length_mismatch_leaves_the_file(self, tmp_path, n_pred):
        # Both sides are read one row at a time, so either may be a stream.
        path = tmp_path / "preds.tsv"
        path.write_text("old\n", encoding="utf-8")
        instances = (LabeledInstance(str(i), "u", "t", "", F) for i in range(2))
        with pytest.raises(ValueError, match="^instances and predictions differ in length$"):
            write_predictions(path, instances, iter([A] * n_pred))
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["preds.tsv"]

    def test_streams_are_written_as_lists(self, tmp_path):
        instances = [LabeledInstance(str(i), "u", "t", "", F) for i in range(3)]
        write_predictions(tmp_path / "lists.tsv", instances, [A, N, F])
        write_predictions(tmp_path / "streams.tsv", iter(instances), iter([A, N, F]))
        assert ((tmp_path / "lists.tsv").read_bytes()
                == (tmp_path / "streams.tsv").read_bytes())

    def test_repeated_id_rejected(self, tmp_path):
        path = tmp_path / "preds.tsv"
        path.write_text("ID\tTarget\tGold\tPred\n1\tt\tFAVOR\tFAVOR\n"
                        "2\tt\tNONE\tNONE\n1\tt\tFAVOR\tAGAINST\n",
                        encoding="utf-8")
        with pytest.raises(CorpusError,
                           match=f"^{re.escape(str(path))}: line 4: duplicate ID '1'$"):
            read_predictions(path)

    @pytest.mark.parametrize("header", ["", "1\tt\tNONE\tFAVOR\n",
                                        "ID\tTarget\tGold\tPred\tExtra\n",
                                        "id\ttarget\tgold\tpred\n"])
    def test_header_required(self, tmp_path, header):
        # Without the header check a file without one loses its first row.
        path = tmp_path / "preds.tsv"
        path.write_text(header + "2\tt\tFAVOR\tFAVOR\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 1: expected "
                           r"the header 'ID\\tTarget\\tGold\\tPred', got"):
            read_predictions(path)

    def test_label_lines(self, tmp_path):
        # Line n holds the n-th label; blank lines may only end the file.
        path = tmp_path / "labels.txt"
        path.write_text("FAVOR\nagainst\nNONE\n\n \n", encoding="utf-8")
        assert read_label_lines(path) == [F, A, N]

    def test_blank_line_before_a_label_rejected(self, tmp_path):
        # Skipping it would score every later label against the wrong tweet.
        path = tmp_path / "labels.txt"
        path.write_text("FAVOR\nagainst\n\n\nNONE\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 5: blank "
                           "line before this label; each line holds the next "
                           "instance's label$"):
            read_label_lines(path)
