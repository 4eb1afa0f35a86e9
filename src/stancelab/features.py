"""Boolean feature extraction and vectorization.

Features are namespaced strings: tweet text contributes word n-grams
("txtw:") and character n-grams ("txtc:"), and each network family
contributes its profile set under its own prefix. A FeatureSpace is the
tuple of the namespaced strings seen in training data, in column order,
so a name's column is its position; a row is a sorted int64 array of
column indices with presence/absence semantics only, the one row type from
here through ``linsvm`` training and scoring.

``extract_features`` builds the string set of one instance; training reads
those sets into ``build_feature_space`` one at a time to find the
vocabulary, so it holds one instance's strings at once. ``index_rows`` maps
a batch of instances straight to column indices, for training rows and for
prediction alike, without building namespaced strings:

* Family blocks. Every prefix is five characters long, so one pass over a
  space's names splits them by family. Network families keep a dict keyed
  by the name without its prefix; the text families keep only the n-gram
  tables below, built without a second copy of their names. The blocks
  are built once per space and cached on it.
* Network families map member ids to columns with one ``col_of_id`` array
  per (space, family): the column of each id of the profile table's
  vocabulary, -1 for a name the block does not hold. Only the ids the
  family holds in the table (``ProfileTable.held_ids``) are looked up; the
  rest stay -1, since no member of the family carries them. It is built on
  first use and cached on the space's blocks, and ``np.take`` maps the
  batch's ids of a family at once.
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
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .corpus import Dataset, LabeledInstance, ProfileTable, distinct_sorted

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
    """The distinct namespaced feature strings of a space in column order:
    a name's column is its position in ``names``."""

    names: tuple[str, ...]
    selector: FeatureSetSelector

    @property
    def size(self) -> int:
        return len(self.names)

    @cached_property
    def blocks(self) -> "FamilyBlocks":
        """The space split into family blocks, built on first use."""
        return FamilyBlocks(self.names)


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
            keys = distinct_sorted(key)
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
    """A space's columns split by family, in one pass over its names, which
    need not be sorted.

    ``family[prefix]`` maps a name without its five-character prefix to
    its column, for every prefix but the text ones. The text blocks keep
    no names: ``words`` is the n-gram table of the "txtw:" block over
    tokens, ranked by ``word_rank``; ``chars`` that of the "txtc:" block
    over characters, ranked by their position in ``char_codes``. Only
    n-grams of the orders extraction emits enter the tables.
    """

    def __init__(self, names: Sequence[str]) -> None:
        family: dict[str, dict[str, int]] = {}
        word_cols, char_cols = array("q"), array("q")
        for col, name in enumerate(names):
            prefix = name[:5]
            if prefix == "txtw:":
                word_cols.append(col)
            elif prefix == "txtc:":
                char_cols.append(col)
            else:
                family.setdefault(prefix, {})[name[5:]] = col
        self.family = family
        self._col_of_id: dict[str, tuple[ProfileTable, np.ndarray]] = {}

        # Word n-grams, 1024 at a time so that no token string outlives its
        # chunk: each distinct token's id in order of first sight, and each
        # n-gram's token ids and count of blanks.
        token_id: defaultdict[str, int] = defaultdict()
        token_id.default_factory = token_id.__len__
        ids, blanks = array("q"), array("q")
        for first in range(0, len(word_cols), 1024):
            grams = [names[col][5:] for col in word_cols[first : first + 1024]]
            blanks.extend(map(str.count, grams, repeat(" ")))
            ids.extend(map(token_id.__getitem__, " ".join(grams).split(" ")))
        vocabulary = sorted(token_id)
        self.word_rank = dict(zip(vocabulary, range(len(vocabulary))))
        rank_of_id = np.fromiter(map(self.word_rank.__getitem__, token_id),
                                 np.int64, len(token_id))
        self.words = NgramTable(
            rank_of_id[np.frombuffer(ids, np.int64)],
            np.frombuffer(blanks, np.int64) + 1,
            np.frombuffer(word_cols, np.int64),
            len(vocabulary),
            WORD_NGRAM_ORDERS,
        )

        # Char n-grams: the prefixed names joined, less each one's prefix.
        chars = list(map(names.__getitem__, char_cols))
        lengths = np.fromiter(map(len, chars), np.int64, len(chars))
        codes = _codes("".join(chars))
        keep = np.ones(codes.size, dtype=bool)
        keep[(np.cumsum(lengths) - lengths)[:, None] + np.arange(5)] = False
        codes = codes[keep]
        self.char_codes = distinct_sorted(codes)
        self.chars = NgramTable(
            np.searchsorted(self.char_codes, codes),
            lengths - 5,
            np.frombuffer(char_cols, np.int64),
            self.char_codes.size,
            CHAR_NGRAM_ORDERS,
        )

    def col_of_id(self, prefix: str, table: ProfileTable, family: str) -> np.ndarray:
        """The column in the prefix's block of each id of table's vocabulary
        that family holds, -1 for a name the block does not hold and for
        every id family does not hold (no member of family carries one);
        cached for the last table."""
        cached = self._col_of_id.get(prefix)
        if cached is None or cached[0] is not table:
            block = self.family.get(prefix, {})
            held = table.held_ids(family)
            names = map(table.vocabulary.__getitem__, memoryview(held))
            cols = np.full(len(table.vocabulary), -1, dtype=np.int32)
            cols[held] = np.fromiter(map(block.get, names, repeat(-1)), np.int32, held.size)
            cached = self._col_of_id[prefix] = (table, cols)
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
    train_feature_sets: Iterable[set[str]],
    selector: FeatureSetSelector,
    min_df: int = 1,
) -> FeatureSpace:
    """Index every feature appearing in at least min_df training sets.

    The sets are read once, one at a time, so a generator of them is never
    held whole; min_df is checked before the first is read. Columns are
    assigned in lexicographic order of the namespaced string, so the space
    is deterministic across runs.
    """
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    read = 0
    if min_df == 1:
        vocabulary: set[str] = set()
        for read, feature_set in enumerate(train_feature_sets, start=1):
            vocabulary |= feature_set
    else:
        counts: dict[str, int] = {}
        for read, feature_set in enumerate(train_feature_sets, start=1):
            for feature in feature_set:
                counts[feature] = counts.get(feature, 0) + 1
        vocabulary = {f for f, c in counts.items() if c >= min_df}
    if not read:
        raise ValueError("no training feature sets")
    if not vocabulary:
        raise ValueError("empty feature space")
    return FeatureSpace(names=tuple(sorted(vocabulary)), selector=selector)


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
            cols = np.take(blocks.col_of_id(prefix, table, field_name), np.concatenate(members))
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
    keys = distinct_sorted(np.concatenate([owner * stride + col for owner, col in parts]))
    rows_of = keys // stride
    cols = keys - rows_of * stride
    ends = np.cumsum(np.bincount(rows_of, minlength=len(instances))).tolist()
    return [cols[start:end] for start, end in zip([0, *ends], ends)]
