import hashlib
from collections import Counter

import pytest
from scipy import stats

from stancelab.analysis import jaccard
from stancelab.corpus import NETWORK_FIELDS, StanceLabel, load_semeval_tsv
from stancelab.synth import SynthConfig, generate, write_corpus

A, F, N = StanceLabel.AGAINST, StanceLabel.FAVOR, StanceLabel.NONE


def profile_union(profiles, user_id):
    return {
        f"{field}:{item}"
        for field in NETWORK_FIELDS
        for item in profiles.member_names(field, user_id)
    }


def small_config(**overrides):
    base = dict(
        topics=("alpha", "beta"),
        users_per_topic=40,
        tweets_per_user=2,
        stance_prior=(0.45, 0.45, 0.1),
        homophily=0.9,
        text_signal=0.5,
        community_pool_size=30,
        shared_pool_size=60,
        items_per_set=8,
        seed=11,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfigValidation:
    def test_bad_probability(self):
        with pytest.raises(ValueError):
            small_config(homophily=1.5)

    def test_bad_prior(self):
        with pytest.raises(ValueError):
            small_config(stance_prior=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            small_config(stance_prior=(-1.0, 1.0, 0.0))

    def test_empty_topics(self):
        with pytest.raises(ValueError):
            small_config(topics=())


class TestGenerate:
    def test_author_disjoint_split(self):
        train, test = generate(small_config())
        train_authors = {i.author_id for i in train.instances}
        test_authors = {i.author_id for i in test.instances}
        assert train_authors.isdisjoint(test_authors)

    def test_split_fractions(self):
        train, test = generate(small_config())
        assert len({i.author_id for i in train.instances}) == 2 * 28  # 70% of 40
        assert len({i.author_id for i in test.instances}) == 2 * 12

    def test_labels_fixed_per_user(self):
        train, test = generate(small_config())
        for dataset in (train, test):
            by_author = {}
            for inst in dataset.instances:
                by_author.setdefault(inst.author_id, set()).add(inst.label)
            assert all(len(labels) == 1 for labels in by_author.values())

    def test_label_marginals_match_prior(self):
        # Chi-square sanity check on >= 500 users per the prior.
        config = small_config(
            topics=("alpha",), users_per_topic=600, tweets_per_user=1,
            stance_prior=(0.5, 0.3, 0.2), seed=3,
        )
        train, test = generate(config)
        labels = [i.label for i in train.instances + test.instances]
        counts = Counter(labels)
        observed = [counts[A], counts[F], counts[N]]
        result = stats.chisquare(observed, [600 * 0.5, 600 * 0.3, 600 * 0.2])
        assert result.pvalue > 1e-3

    def test_silent_users_have_empty_texts_but_full_profiles(self):
        config = small_config(silent_fraction=1.0)
        train, _ = generate(config)
        assert all(i.text == "" for i in train.instances)
        assert all(
            profile_union(train.profiles, i.author_id)
            for i in train.instances
        )

    def test_nonsilent_users_have_text(self):
        train, _ = generate(small_config(silent_fraction=0.0))
        assert all(i.text for i in train.instances)

    def test_h1_pools_disjoint_by_stance(self):
        # With full homophily, polarized users draw only community items.
        config = small_config(homophily=1.0)
        train, test = generate(config)
        assert test.profiles is train.profiles
        label_of = {
            i.author_id: i.label for i in train.instances + test.instances
        }
        favor_items = set()
        against_items = set()
        for user_id in train.profiles:
            if label_of[user_id] is F:
                favor_items |= profile_union(train.profiles, user_id)
            elif label_of[user_id] is A:
                against_items |= profile_union(train.profiles, user_id)
        assert favor_items
        assert against_items
        assert favor_items.isdisjoint(against_items)

    def test_h0_draws_only_shared_pool(self):
        train, _ = generate(small_config(homophily=0.0))
        for user_id in train.profiles:
            assert all("shared" in item for item in profile_union(train.profiles, user_id))

    def test_one_nearest_neighbor_ceiling_at_h1(self):
        # Independent of the SVM path: with h=1 and disjoint pools a 1-NN
        # Jaccard vote over profile sets must label every test user.
        config = small_config(homophily=1.0, users_per_topic=60)
        train, test = generate(config)
        label_of = {i.author_id: i.label for i in train.instances}
        for topic in test.topics:
            train_users = {
                i.author_id for i in train.instances if i.topic == topic
            }
            test_users = {
                (i.author_id, i.label)
                for i in test.instances
                if i.topic == topic
            }
            for user_id, expected in test_users:
                target = profile_union(test.profiles, user_id)
                best = max(
                    train_users,
                    key=lambda u: jaccard(target, profile_union(train.profiles, u)),
                )
                assert label_of[best] is expected

    def test_text_signal_zero_keeps_stance_terms_out(self):
        train, test = generate(small_config(text_signal=0.0))
        for inst in train.instances + test.instances:
            assert "term" not in inst.text

    def test_text_signal_one_salts_polarized_tweets(self):
        train, _ = generate(small_config(text_signal=1.0, silent_fraction=0.0))
        for inst in train.instances:
            if inst.label is not N:
                assert "term" in inst.text
            else:
                assert "term" not in inst.text


# sha256 of the four write_corpus files of two small configs, recorded
# before corpus.NETWORK_FIELDS drove the draws: a reordered draw, a renamed
# pool item or a changed profile order fails them.
GOLDEN_CONFIGS = {
    "silent": dict(topics=("alpha", "beta"), users_per_topic=12, tweets_per_user=2,
                   stance_prior=(0.5, 0.5, 0.0), silent_fraction=0.4,
                   community_pool_size=10, shared_pool_size=20, items_per_set=5,
                   seed=3),
    "none_users": dict(topics=("alpha",), users_per_topic=15, tweets_per_user=2,
                       stance_prior=(0.3, 0.3, 0.4), homophily=0.6,
                       community_pool_size=10, shared_pool_size=20,
                       items_per_set=5, seed=4),
}
GOLDEN_SHA256 = {
    "silent": {
        "train": "5100f11e05b38f3add8763909c9ddef7a9e319a6b0064cd50e5b9f2d8b99941d",
        "test": "19b89fa7148351342f66117c6a4a1912347f2337849ac1019e25b525817f023f",
        "profiles": "fa85148d0bbe97b871b2b7408b86862b66725e9c7f9777a59648d74c8585a198",
        "manifest": "1a7dbfde54c30afc3916545d368c18f433a63d9e08b764a04879ce2a892e3d54",
    },
    "none_users": {
        "train": "881548dac40c0a428c3add5a875e089a1d64b6d09489f1b7d69e838d3b06d6a4",
        "test": "cdfa966f1198f8d6b09e57077afccff1fb359684ae2c891cc23d4d194f7324bc",
        "profiles": "3db109d507eff08da11284532614231040da376ca9a4533a07014be9f2b3a314",
        "manifest": "5dd9db4f00ab444c4246291defdc1ab980129252968401f47139c3d43fe92894",
    },
}


class TestWriteCorpus:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_golden_digests(self, tmp_path, name):
        config = SynthConfig(**GOLDEN_CONFIGS[name])
        train, test = generate(config)
        labels = {i.label for i in train.instances + test.instances}
        silent = {i.author_id for i in train.instances if not i.text}
        # Each config covers what it is named for.
        assert silent if name == "silent" else N in labels
        paths = write_corpus(config, tmp_path)
        digests = {
            key: hashlib.sha256(path.read_bytes()).hexdigest()
            for key, path in paths.items()
        }
        assert digests == GOLDEN_SHA256[name]

    def test_byte_identical_across_runs(self, tmp_path):
        config = small_config()
        paths_a = write_corpus(config, tmp_path / "one")
        paths_b = write_corpus(config, tmp_path / "two")
        for name in paths_a:
            assert paths_a[name].read_bytes() == paths_b[name].read_bytes()

    def test_different_seed_differs(self, tmp_path):
        paths_a = write_corpus(small_config(seed=1), tmp_path / "one")
        paths_b = write_corpus(small_config(seed=2), tmp_path / "two")
        assert paths_a["train"].read_bytes() != paths_b["train"].read_bytes()

    def test_files_load_back(self, tmp_path):
        config = small_config()
        paths = write_corpus(config, tmp_path / "corpus")
        train, test = generate(config)
        assert load_semeval_tsv(paths["train"]) == list(train.instances)
        assert load_semeval_tsv(paths["test"]) == list(test.instances)

    def test_manifest_covers_every_user(self, tmp_path):
        config = small_config()
        paths = write_corpus(config, tmp_path / "corpus")
        lines = paths["manifest"].read_text().strip().splitlines()
        assert lines[0] == "user_id,topic,latent_stance"
        assert len(lines) - 1 == 2 * 40
