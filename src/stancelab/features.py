"""Boolean feature extraction and vectorization.

Features are namespaced strings: tweet text contributes word n-grams
("txtw:") and character n-grams ("txtc:"), and each network family
contributes its profile set under its own prefix. A FeatureSpace maps the
namespaced strings seen in training data to dense column indices; vectors
are sorted index lists with presence/absence semantics only.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import CorpusError, LabeledInstance, UserNetworkProfile

# Flag name -> (namespace prefix, profile field); TXT is handled separately.
NETWORK_FLAG_SOURCES: dict[str, tuple[str, str]] = {
    "IN_AT": ("inat:", "in_mentions"),
    "IN_DM": ("indm:", "in_domains"),
    "PN_AT": ("pnat:", "pn_mentions"),
    "PN_DM": ("pndm:", "pn_domains"),
    "CN_FR": ("cnfr:", "cn_friends"),
    "CN_FL": ("cnfl:", "cn_followers"),
}

ALL_FLAGS: tuple[str, ...] = ("TXT",) + tuple(NETWORK_FLAG_SOURCES)

WORD_NGRAM_ORDERS = frozenset({1, 2, 3})
CHAR_NGRAM_ORDERS = frozenset({2, 3, 4, 5})

URL_SENTINEL = "<url>"


@dataclass(frozen=True)
class FeatureSetSelector:
    """A non-empty subset of the seven feature families."""

    flags: frozenset[str]

    def __post_init__(self) -> None:
        if not self.flags:
            raise ValueError("selector needs at least one flag")
        unknown = self.flags - set(ALL_FLAGS)
        if unknown:
            raise ValueError(f"unknown selector flags: {sorted(unknown)}")

    @classmethod
    def of(cls, *flags: str) -> "FeatureSetSelector":
        return cls(frozenset(flags))

    @classmethod
    def parse(cls, text: str) -> "FeatureSetSelector":
        """Parse a '+'-joined flag list such as "TXT+IN_AT+IN_DM"."""
        return cls(frozenset(part.strip().upper() for part in text.split("+") if part.strip()))

    @property
    def uses_text(self) -> bool:
        return "TXT" in self.flags

    @property
    def uses_profiles(self) -> bool:
        return bool(self.flags - {"TXT"})

    @property
    def network_only(self) -> bool:
        return not self.uses_text

    def __str__(self) -> str:
        return "+".join(sorted(self.flags))


def tokenize(text: str) -> list[str]:
    """Lowercase and split a tweet into tokens.

    URLs collapse to the "<url>" sentinel; leading/trailing punctuation is
    stripped except a leading '@' or '#'; empty tokens are dropped.
    """
    tokens: list[str] = []
    for raw in text.lower().split():
        if raw.startswith(("http://", "https://")):
            tokens.append(URL_SENTINEL)
            continue
        start, end = 0, len(raw)
        while end > start and unicodedata.category(raw[end - 1]).startswith("P"):
            end -= 1
        while (
            start < end
            and raw[start] not in "@#"
            and unicodedata.category(raw[start]).startswith("P")
        ):
            start += 1
        token = raw[start:end]
        if token:
            tokens.append(token)
    return tokens


def word_ngrams(tokens: Sequence[str], orders: Iterable[int]) -> set[str]:
    """All contiguous n-token windows, space-joined, for each order n."""
    grams: set[str] = set()
    for n in orders:
        if n < 1:
            raise ValueError("n-gram orders must be >= 1")
        for i in range(len(tokens) - n + 1):
            grams.add(" ".join(tokens[i : i + n]))
    return grams


def char_ngrams(text: str, orders: Iterable[int]) -> set[str]:
    """Character windows over the lowercased raw text, spaces included."""
    lowered = text.lower()
    grams: set[str] = set()
    for n in orders:
        if n < 1:
            raise ValueError("n-gram orders must be >= 1")
        for i in range(len(lowered) - n + 1):
            grams.add(lowered[i : i + n])
    return grams


def extract_features(
    instance: LabeledInstance,
    profile: UserNetworkProfile,
    selector: FeatureSetSelector,
) -> set[str]:
    """Namespaced feature set for one instance under the given selector."""
    features: set[str] = set()
    if selector.uses_text:
        for gram in word_ngrams(tokenize(instance.text), WORD_NGRAM_ORDERS):
            features.add("txtw:" + gram)
        for gram in char_ngrams(instance.text, CHAR_NGRAM_ORDERS):
            features.add("txtc:" + gram)
    for flag in selector.flags - {"TXT"}:
        prefix, field_name = NETWORK_FLAG_SOURCES[flag]
        for item in getattr(profile, field_name):
            features.add(prefix + item)
    return features


@dataclass(frozen=True)
class FeatureSpace:
    """Frozen bijection from namespaced feature string to column index."""

    index_of: Mapping[str, int]
    selector: FeatureSetSelector

    @property
    def size(self) -> int:
        return len(self.index_of)


def build_feature_space(
    train_feature_sets: Sequence[set[str]],
    selector: FeatureSetSelector,
    min_df: int = 1,
) -> FeatureSpace:
    """Index every feature appearing in at least min_df training sets.

    Columns are assigned in lexicographic order of the namespaced string,
    so the space is deterministic across runs.
    """
    if not train_feature_sets:
        raise ValueError("no training feature sets")
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    if min_df == 1:
        vocabulary = set().union(*train_feature_sets)
    else:
        counts: dict[str, int] = {}
        for feature_set in train_feature_sets:
            for feature in feature_set:
                counts[feature] = counts.get(feature, 0) + 1
        vocabulary = {f for f, c in counts.items() if c >= min_df}
    if not vocabulary:
        raise ValueError("empty feature space")
    index_of = {name: idx for idx, name in enumerate(sorted(vocabulary))}
    return FeatureSpace(index_of=index_of, selector=selector)


@dataclass(frozen=True, eq=False)
class SparseBooleanVector:
    """Strictly increasing active column indices in a space of given size."""

    indices: np.ndarray
    dimension: int

    def __post_init__(self) -> None:
        idx = self.indices
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.dimension:
                raise ValueError("vector index out of range")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("vector indices must be strictly increasing")


def vectorize(feature_set: Iterable[str], space: FeatureSpace) -> SparseBooleanVector:
    """Map a feature set onto the space; unseen features are dropped."""
    index_of = space.index_of
    hits = [index_of[f] for f in feature_set if f in index_of]
    hits.sort()
    return SparseBooleanVector(
        indices=np.asarray(hits, dtype=np.int64), dimension=space.size
    )


def write_feature_space(path: str | Path, space: FeatureSpace) -> None:
    """One "feature<TAB>index" line per column."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for name, idx in sorted(space.index_of.items(), key=lambda kv: kv[1]):
            fh.write(f"{name}\t{idx}\n")


def read_feature_space(path: str | Path, selector: FeatureSetSelector) -> FeatureSpace:
    """Read a space written by write_feature_space.

    Non-blank lines hold the indices 0, 1, 2, ... in order. A line other
    than a feature name, a tab and an integer index, a duplicate name, and
    an index other than the next one (a duplicate, a gap or a reordering)
    raise CorpusError naming the file and the line.
    """
    index_of: dict[str, int] = {}
    with Path(path).open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            name, _, field = line.rpartition("\t")
            try:
                idx = int(field) if name else None
            except ValueError:
                idx = None
            if idx is None:
                problem = "expected a feature, a tab and an index"
            elif name in index_of:
                problem = f"duplicate feature {name!r}"
            elif idx != len(index_of):
                problem = f"index {idx} where {len(index_of)} was expected"
            else:
                index_of[name] = idx
                continue
            raise CorpusError(f"{path}: line {line_no}: {problem}")
    return FeatureSpace(index_of=index_of, selector=selector)
