"""Boolean feature extraction and vectorization.

Features are namespaced strings: tweet text contributes word n-grams
("txtw:") and character n-grams ("txtc:"), and each network family
contributes its profile set under its own prefix. A FeatureSpace maps the
namespaced strings seen in training data to dense column indices; a row
is a sorted int64 array of column indices with presence/absence semantics
only, the one row type from here through ``linsvm`` training and scoring.

``extract_features`` builds the string set of one instance; training uses
it to find the vocabulary. ``index_rows`` maps a batch of instances straight
to column indices, for training rows and for prediction alike, without
building namespaced strings:

* Family blocks. Every prefix is five characters long, so a space splits
  into one dict per family keyed by the name without its prefix. The split
  and the n-gram tables below are built once per space and cached on it.
* Network families map member ids to columns with one ``col_of_id`` array
  per (space, family): the column of each id of the profile table's
  vocabulary, -1 for a name the block does not hold. It is built on first
  use and cached on the space's blocks, and ``np.take`` maps the batch's
  ids of a family at once.
* N-grams go through one numpy kernel: character n-grams over the batch's
  lowered texts, word n-grams over its tokens, each sequence a list of
  symbol ranks with a dead rank after every tweet, so no window crosses a
  tweet end. At level k a window's key is the rank of its (k-1)-prefix
  times the number of symbols plus the rank of its k-th symbol;
  ``searchsorted`` finds the key among the sorted keys of the prefix
  closure of the block's names, and the rank found feeds level k+1. The
  closure makes the walk exact for any space, including a hand-edited one
  whose names are not prefix-closed; only names of the orders extraction
  emits (CHAR_NGRAM_ORDERS, WORD_NGRAM_ORDERS) give columns.
* Duplicates (a gram repeated in a tweet) go by sorting the batch's
  (row, column) keys as int64 and masking equal neighbours. ``np.unique``
  gives the same, but with numpy 2.4 on a 2-vCPU Xeon it took 0.8 s on
  1.9M such keys, about 30 times as long as this sort.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import CorpusError, Dataset, LabeledInstance, ProfileTable
from .corpus import input_file, output_file, utf8_encodable

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

    def __str__(self) -> str:
        return "+".join(sorted(self.flags))


# ASCII punctuation (Unicode category P), for stripping ASCII tokens with
# str.strip; '@' and '#' survive at the start of a token.
_ASCII_PUNCT = "".join(
    c for c in map(chr, range(128)) if unicodedata.category(c).startswith("P")
)
_ASCII_PUNCT_LEAD = _ASCII_PUNCT.replace("@", "").replace("#", "")


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
        if raw.isascii():
            token = raw.rstrip(_ASCII_PUNCT).lstrip(_ASCII_PUNCT_LEAD)
        else:
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
    profiles: ProfileTable,
    selector: FeatureSetSelector,
) -> set[str]:
    """Namespaced feature set for one instance under the given selector; its
    author's member names come from the profile table."""
    features: set[str] = set()
    if selector.uses_text:
        for gram in word_ngrams(tokenize(instance.text), WORD_NGRAM_ORDERS):
            features.add("txtw:" + gram)
        for gram in char_ngrams(instance.text, CHAR_NGRAM_ORDERS):
            features.add("txtc:" + gram)
    for flag in selector.flags - {"TXT"}:
        prefix, field_name = NETWORK_FLAG_SOURCES[flag]
        for item in profiles.member_names(field_name, instance.author_id):
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

    @cached_property
    def blocks(self) -> "FamilyBlocks":
        """The space split into family blocks, built on first use."""
        return FamilyBlocks(self.index_of)


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class NgramTable:
    """Kernel tables for the n-grams of one family block.

    Built from the block's names as symbol sequences: their ranks in
    0..width-1, concatenated, each name's length and its column. Only
    names whose length is one of ``orders`` enter. ``levels[k - 1]``
    holds the sorted keys of the length-k entries of the prefix closure,
    each ``rank of the (k-1)-prefix * width + rank of the k-th symbol``,
    and the column each emits, or -1 for a prefix that is not itself an
    n-gram of the block.
    """

    def __init__(
        self,
        ranks: np.ndarray,
        lengths: np.ndarray,
        cols: np.ndarray,
        width: int,
        orders: frozenset[int],
    ) -> None:
        self.width = width
        self.levels: list[tuple[np.ndarray, np.ndarray]] = []
        starts = np.cumsum(lengths) - lengths
        grams = np.flatnonzero(np.isin(lengths, list(orders)))
        state = np.zeros(grams.size, dtype=np.int64)
        for k in range(1, max(orders) + 1):
            longer = lengths[grams] >= k
            grams, state = grams[longer], state[longer]
            key = state * width + ranks[starts[grams] + (k - 1)]
            keys = _distinct_sorted(key)
            state = np.searchsorted(keys, key)
            emits = np.full(keys.size, -1, dtype=np.int64)
            ends = lengths[grams] == k
            emits[state[ends]] = cols[grams[ends]]
            self.levels.append((keys, emits))

    def hits(self, ranks: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(owner, column) of every n-gram occurrence in a symbol sequence.

        ``ranks`` holds symbol ranks, -1 for a symbol outside the table;
        every text of the batch ends in a -1, so no window crosses a text
        end. ``owner`` gives the text of each position.
        """
        starts = np.flatnonzero(ranks >= 0)
        state = np.zeros(starts.size, dtype=np.int64)
        hit_owner = [np.empty(0, np.int64)]
        hit_cols = [np.empty(0, np.int64)]
        for k, (keys, cols) in enumerate(self.levels):
            nxt = ranks[starts + k]
            alive = nxt >= 0
            starts = starts[alive]
            if not (starts.size and keys.size):
                break
            key = state[alive] * self.width + nxt[alive]
            found = np.minimum(np.searchsorted(keys, key), keys.size - 1)
            alive = keys[found] == key
            starts, state = starts[alive], found[alive]
            emitted = cols[state]
            hit = emitted >= 0
            hit_owner.append(owner[starts[hit]])
            hit_cols.append(emitted[hit])
        return np.concatenate(hit_owner), np.concatenate(hit_cols)


def _owners(lengths: Sequence[int]) -> np.ndarray:
    """Text number of each position of texts of the given lengths, joined."""
    return np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)


def _codes(text: str) -> np.ndarray:
    """Code points of text as int64 (lone surrogates included)."""
    raw = text.encode("utf-32-le", "surrogatepass")
    return np.frombuffer(raw, dtype="<u4").astype(np.int64)


class FamilyBlocks:
    """A space's columns split by family.

    ``family[prefix]`` maps a name without its five-character prefix to
    its column, for every prefix but the text ones. ``words`` is the
    n-gram table of the "txtw:" block over tokens, ranked by
    ``word_rank``; ``chars`` that of the "txtc:" block over characters,
    ranked by their position in ``char_codes``. Only n-grams of the orders
    extraction emits enter the tables.
    """

    def __init__(self, index_of: Mapping[str, int]) -> None:
        family: dict[str, dict[str, int]] = {}
        for name, idx in index_of.items():
            family.setdefault(name[:5], {})[name[5:]] = idx
        words = family.pop("txtw:", {})
        chars = family.pop("txtc:", {})
        self.family = family
        self._col_of_id: dict[str, tuple[tuple[str, ...], np.ndarray]] = {}

        tokens = [g.split(" ") for g in words]
        flat = list(chain.from_iterable(tokens))
        self.word_rank = {token: r for r, token in enumerate(sorted(set(flat)))}
        self.words = NgramTable(
            np.fromiter(map(self.word_rank.__getitem__, flat), np.int64, len(flat)),
            np.fromiter(map(len, tokens), np.int64, len(tokens)),
            np.fromiter(words.values(), np.int64, len(words)),
            len(self.word_rank),
            WORD_NGRAM_ORDERS,
        )

        codes = _codes("".join(chars))
        self.char_codes = _distinct_sorted(codes)
        self.chars = NgramTable(
            np.searchsorted(self.char_codes, codes),
            np.fromiter(map(len, chars), np.int64, len(chars)),
            np.fromiter(chars.values(), np.int64, len(chars)),
            self.char_codes.size,
            CHAR_NGRAM_ORDERS,
        )

    def col_of_id(self, prefix: str, vocabulary: tuple[str, ...]) -> np.ndarray:
        """The column of each name of vocabulary in the prefix's block, -1
        for a name it does not hold; cached for the last vocabulary."""
        cached = self._col_of_id.get(prefix)
        if cached is None or cached[0] is not vocabulary:
            block = self.family.get(prefix, {})
            cols = np.fromiter((block.get(name, -1) for name in vocabulary),
                               np.int32, len(vocabulary))
            cached = self._col_of_id[prefix] = (vocabulary, cols)
        return cached[1]

    def char_hits(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """(text number, column) of every character n-gram in lowered texts."""
        codes = self.char_codes
        lengths = [len(t) + 1 for t in texts]
        chars = _codes("\0".join(texts) + "\0")
        ranks = np.minimum(np.searchsorted(codes, chars), codes.size - 1)
        ranks[codes[ranks] != chars] = -1
        ranks[np.cumsum(lengths) - 1] = -1  # the separator after each text
        return self.chars.hits(ranks, _owners(lengths))


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


def index_rows(
    space: FeatureSpace,
    instances: Sequence[LabeledInstance],
    dataset: Dataset,
) -> list[np.ndarray]:
    """Sorted int64 column indices of each instance under space.selector.

    Row i equals the sorted columns of ``extract_features(instances[i],
    dataset.profiles, space.selector)`` that the space holds;
    see the module docstring for how it gets there. Meant for batches of a
    few hundred instances: the kernel's arrays grow with the batch's total
    text length.
    """
    if not instances:
        return []
    blocks = space.blocks
    selector = space.selector
    table = dataset.profiles
    parts = [(np.empty(0, np.int64), np.empty(0, np.int64))]  # (owner, column)
    for flag, (prefix, field_name) in NETWORK_FLAG_SOURCES.items():
        if flag in selector.flags:
            members = [table.members(field_name, inst.author_id) for inst in instances]
            cols = np.take(blocks.col_of_id(prefix, table.vocabulary), np.concatenate(members))
            hit = cols >= 0
            parts.append((_owners([m.size for m in members])[hit], cols[hit]))
    word_rank = blocks.word_rank if selector.uses_text else {}
    if word_rank:
        word_ranks: list[int] = []  # each tweet's token ranks, then a -1
        word_lengths: list[int] = []
        for inst in instances:
            tokens = tokenize(inst.text)
            word_ranks += [word_rank.get(t, -1) for t in tokens]
            word_ranks.append(-1)
            word_lengths.append(len(tokens) + 1)
        parts.append(blocks.words.hits(
            np.array(word_ranks, dtype=np.int64), _owners(word_lengths)
        ))
    if selector.uses_text and blocks.char_codes.size:
        parts.append(blocks.char_hits([inst.text.lower() for inst in instances]))
    stride = max(space.size, 1)
    keys = _distinct_sorted(np.concatenate([owner * stride + col for owner, col in parts]))
    rows_of = keys // stride
    counts = np.bincount(rows_of, minlength=len(instances))
    return np.split(keys - rows_of * stride, np.cumsum(counts)[:-1])


def write_feature_space(path: str | Path, space: FeatureSpace) -> None:
    """One "feature<TAB>index" line per column.

    Refuses, with a CorpusError naming the feature and leaving the file as
    it was, a name that read_feature_space would not read back: one
    holding "\\n" or "\\r", or a character UTF-8 cannot encode.
    """
    lines = []
    for name, idx in sorted(space.index_of.items(), key=lambda kv: kv[1]):
        if "\n" in name or "\r" in name or not utf8_encodable(name):
            raise CorpusError(
                f"feature {name!r}: cannot write a line break or a character "
                f"UTF-8 cannot encode; the space file could not read it back"
            )
        lines.append(f"{name}\t{idx}\n")
    with output_file(path) as fh:
        fh.writelines(lines)


def read_feature_space(path: str | Path, selector: FeatureSetSelector) -> FeatureSpace:
    """Read a space written by write_feature_space.

    Non-blank lines hold the indices 0, 1, 2, ... in order. A line other
    than a feature name, a tab and an integer index, a duplicate name, and
    an index other than the next one (a duplicate, a gap or a reordering)
    raise CorpusError naming the file and the line.
    """
    index_of: dict[str, int] = {}
    with input_file(path) as fh:
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
