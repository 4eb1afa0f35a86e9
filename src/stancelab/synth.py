"""Deterministic synthetic corpora with planted homophily.

Each topic gets a population of users; each user draws a latent stance and
one profile set per network family of ``corpus.NETWORK_FIELDS``, the one
table of the families. A family draws from the universe of its kind,
accounts or domains: with probability ``homophily`` an item is drawn from
the user's stance-community pool, otherwise from a pool common to everyone.
None-stance users draw from the common pool only. Tweets are generic-token
noise, optionally salted with a stance-indicative token with probability
``text_signal``; silent users keep full profiles but post empty texts.

Train/test splits are 70/30 by user, so no author appears on both sides.
All randomness flows from one seed: identical configs give byte-identical
output files.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import (
    CANONICAL_LABELS,
    NETWORK_FIELDS,
    Dataset,
    LabeledInstance,
    ProfileTable,
    StanceLabel,
    output_file,
    write_network_profiles,
    write_semeval_tsv,
)

TRAIN_FRACTION = 0.7

# Stance-indicative tokens per polarized stance and topic.
STANCE_TOKEN_COUNT = 6

# The network fields in the order each user draws them: the account fields,
# then the domain fields, each in table order (sorted is stable). The draws
# consume the seeded stream in this order, so changing it changes every
# synthetic corpus.
_DRAW_ORDER = sorted(NETWORK_FIELDS, key=NETWORK_FIELDS.get)

# Each kind of network string and the form of its pool items.
_POOL_ITEM = {
    "account": "{slug}_{tag}_acct{i:03d}",
    "domain": "{slug}-{tag}-{i:03d}.example",
}

# Prior tuples follow the canonical label order: (against, favor, none).
Prior = tuple[float, float, float]


def topic_slug(topic: str) -> str:
    """Lowercase alphanumeric form of a topic name, for file names."""
    return re.sub(r"[^a-z0-9]+", "", topic.lower()) or "topic"


@dataclass(frozen=True)
class SynthConfig:
    topics: tuple[str, ...]
    users_per_topic: int = 200
    tweets_per_user: int = 3
    stance_prior: Prior = (0.4, 0.4, 0.2)
    homophily: float = 0.9
    text_signal: float = 0.5
    community_pool_size: int = 60
    shared_pool_size: int = 120
    items_per_set: int = 12
    silent_fraction: float = 0.0
    tokens_per_tweet: int = 8
    generic_vocab_size: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.topics:
            raise ValueError("need at least one topic")
        slugs = [topic_slug(topic) for topic in self.topics]
        if len(set(slugs)) < len(slugs):
            raise ValueError(f"topics need distinct slugs (ids use them): {slugs}")
        if self.users_per_topic < 1 or self.tweets_per_user < 1:
            raise ValueError("users_per_topic and tweets_per_user must be >= 1")
        for name in ("homophily", "text_signal", "silent_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if min(self.community_pool_size, self.shared_pool_size) < 1:
            raise ValueError("pool sizes must be >= 1")
        if self.items_per_set < 1:
            raise ValueError("items_per_set must be >= 1")
        if self.generic_vocab_size < 1:
            raise ValueError("generic_vocab_size must be >= 1")
        if self.tokens_per_tweet < 0:
            raise ValueError("tokens_per_tweet must be >= 0")
        prior = self.stance_prior
        if (len(prior) != 3 or not all(0 <= p < math.inf for p in prior)
                or not 0 < sum(prior) < math.inf):
            raise ValueError(
                f"invalid stance prior {prior!r}: need three finite weights"
                " >= 0 with a positive, finite sum"
            )


_COMMUNITY_TAG = {
    StanceLabel.FAVOR: "fav",
    StanceLabel.AGAINST: "agn",
}


def _draw_set(
    rng: np.random.Generator,
    pools: Mapping[str, Sequence[str]],
    tag: str | None,
    count: int,
    homophily: float,
) -> list[str]:
    """count draws from one kind's pools, which the profile table makes a
    set: each from the community pool ``tag`` with probability homophily,
    else from the shared pool; with no tag, from the shared pool only."""
    from_community = (
        rng.random(count) < homophily if tag else np.zeros(count, dtype=bool)
    )
    draws = []
    for take_community in from_community:
        pool = pools[tag] if take_community else pools["shared"]
        draws.append(pool[int(rng.integers(len(pool)))])
    return draws


def generate(config: SynthConfig) -> tuple[Dataset, Dataset]:
    """Generate (train, test) datasets; deterministic per config.seed. Both
    hold one profile table of every user."""
    rng = np.random.default_rng(config.seed)
    vocab = [f"word{i:03d}" for i in range(config.generic_vocab_size)]
    train_instances: list[LabeledInstance] = []
    test_instances: list[LabeledInstance] = []
    profiles: dict[str, dict[str, list[str]]] = {}
    prior = np.asarray(config.stance_prior, dtype=np.float64)
    prior = prior / prior.sum()
    for topic in config.topics:
        slug = topic_slug(topic)
        pool_sizes = {
            "fav": config.community_pool_size,
            "agn": config.community_pool_size,
            "shared": config.shared_pool_size,
        }
        pools = {  # kind -> tag -> items
            kind: {
                tag: [form.format(slug=slug, tag=tag, i=i) for i in range(size)]
                for tag, size in pool_sizes.items()
            }
            for kind, form in _POOL_ITEM.items()
        }
        stance_tokens = {
            label: [f"{slug}_{tag}_term{i}" for i in range(STANCE_TOKEN_COUNT)]
            for label, tag in _COMMUNITY_TAG.items()
        }
        n_users = config.users_per_topic
        n_train = int(round(n_users * TRAIN_FRACTION))
        in_train = np.zeros(n_users, dtype=bool)
        in_train[rng.permutation(n_users)[:n_train]] = True
        for u in range(n_users):
            user_id = f"{slug}_u{u:04d}"
            stance = CANONICAL_LABELS[int(rng.choice(3, p=prior))]
            silent = bool(rng.random() < config.silent_fraction)
            tag = _COMMUNITY_TAG.get(stance)
            profiles[user_id] = {
                field: _draw_set(rng, pools[NETWORK_FIELDS[field]], tag,
                                 config.items_per_set, config.homophily)
                for field in _DRAW_ORDER
            }
            instances = train_instances if in_train[u] else test_instances
            for k in range(config.tweets_per_user):
                token_ids = rng.integers(len(vocab), size=config.tokens_per_tweet)
                tokens = [vocab[int(i)] for i in token_ids]
                if tag is not None and rng.random() < config.text_signal:
                    term = stance_tokens[stance][int(rng.integers(STANCE_TOKEN_COUNT))]
                    tokens.insert(int(rng.integers(len(tokens) + 1)), term)
                text = "" if silent else " ".join(tokens)
                instances.append(
                    LabeledInstance(
                        tweet_id=f"{user_id}-t{k}",
                        author_id=user_id,
                        topic=topic,
                        text=text,
                        label=stance,
                    )
                )
    topics = tuple(config.topics)
    table = ProfileTable.from_sets(profiles)
    train = Dataset(tuple(train_instances), table, topics)
    test = Dataset(tuple(test_instances), table, topics)
    return train, test


def write_corpus(config: SynthConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write train.tsv, test.tsv, profiles.jsonl, and manifest.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, test = generate(config)
    paths = {
        "train": out / "train.tsv",
        "test": out / "test.tsv",
        "profiles": out / "profiles.jsonl",
        "manifest": out / "manifest.csv",
    }
    write_semeval_tsv(paths["train"], train.instances)
    write_semeval_tsv(paths["test"], test.instances)
    write_network_profiles(paths["profiles"], train.profiles)
    truth: dict[tuple[str, str], StanceLabel] = {}
    for inst in train.instances + test.instances:
        truth[(inst.topic, inst.author_id)] = inst.label
    with output_file(paths["manifest"]) as fh:
        fh.write("user_id,topic,latent_stance\n")
        for (topic, user_id), label in sorted(truth.items()):
            fh.write(f"{user_id},{topic},{label.value}\n")
    return paths
