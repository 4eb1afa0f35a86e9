"""Corpus ingestion: labeled tweets, user network profiles, and their join.

Two file formats are owned by this module:

* Tweets file: UTF-8 TSV whose header line must name the columns
  ``ID, Target, Tweet, Stance[, AuthorID]``.  Tabs and line breaks inside a
  field are not supported (they end the field or the line), and the writer
  refuses them.  When the optional AuthorID column is absent each tweet is
  treated as its own author.
* Profiles file: UTF-8, one JSON object per line with a ``user_id`` key and
  up to six array-of-string keys, one per network family. ``NETWORK_FIELDS``
  is the one table of those families and of their kinds (account or domain).
  Absent keys mean empty sets.

``load_network_profiles`` reads the profiles into one ``ProfileTable``. A
member is an integer id into one vocabulary, every name once in first-seen
order whatever family uses it (kinds only pick the normalizer); each read
family is a CSR pair over the authors (int64 offsets, then int32 ids sorted
and distinct per author). The loader numbers each member with one dict
``setdefault`` as it reads and sorts each family once at the end.
``ProfileTable.members(family, author)`` is the one accessor: it gives the
author's ids, none for an author the table does not hold, and raises
UnreadFamilyError for a family that was not read, so that one never passes
for an empty set.

The loader can leave out what a command does not use: ``fields`` names the
families to read and ``authors`` the users to keep. Every line is still
parsed and type-checked, duplicates are counted over all records, and a
line that trips the control-character screen (a backslash, a DEL or a
non-ASCII character) is checked in full, whoever its author.
"""

from __future__ import annotations

import csv
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import count
from pathlib import Path
from typing import Collection, Container, Iterable, Iterator, Mapping, Sequence, TextIO
from urllib.parse import urlsplit

import numpy as np


class CorpusError(ValueError):
    """Raised for malformed corpus files or inconsistent records."""


# Line 1 of a tweets TSV, optionally followed by "\tAuthorID".
TWEETS_HEADER = "ID\tTarget\tTweet\tStance"

# Unicode category Cc. Feature strings are written one per line into
# tab-separated bundle files, so a set member holding one cannot be read back.
_UNWRITABLE_CHAR = re.compile("[\x00-\x1f\x7f-\x9f\ud800-\udfff]")


class StanceLabel(Enum):
    AGAINST = "AGAINST"
    FAVOR = "FAVOR"
    NONE = "NONE"

    @classmethod
    def parse(cls, raw: str) -> "StanceLabel":
        """Parse a stance string, case-insensitively and whitespace-trimmed."""
        name = raw.strip().upper()
        try:
            return cls[name]
        except KeyError:
            raise CorpusError(f"unknown stance {raw.strip()!r}") from None

    def __str__(self) -> str:
        return self.value


# Tie-breaking and confusion-matrix axis order everywhere in the package.
CANONICAL_LABELS: tuple[StanceLabel, ...] = (
    StanceLabel.AGAINST,
    StanceLabel.FAVOR,
    StanceLabel.NONE,
)

@dataclass(frozen=True)
class LabeledInstance:
    """One (tweet, topic, stance) record keyed by tweet id and author id."""

    tweet_id: str
    author_id: str
    topic: str
    text: str
    label: StanceLabel


def normalize_account(raw: str) -> str:
    """Lowercase an account handle and strip any leading '@' and whitespace.

    Idempotent: ``normalize_account(normalize_account(s))`` equals
    ``normalize_account(s)`` for every string.
    """
    s = raw.strip()
    while s.startswith("@"):
        s = s[1:].lstrip()
    return s.lower()


def normalize_domain(raw: str) -> str:
    """Reduce a domain or URL to a lowercase hostname.

    Scheme, path, port, userinfo and surrounding whitespace are dropped;
    every leading "www." label is stripped ("www.www.x" gives "x");
    remaining subdomains are kept ("news.bbc.co.uk" stays distinct from
    "bbc.co.uk"). Any string gives a result, and the function is
    idempotent: ``normalize_domain(normalize_domain(s))`` equals
    ``normalize_domain(s)``.
    """
    s = raw.strip().lower()
    if "://" in s:
        try:
            s = urlsplit(s).netloc
        except ValueError:  # e.g. an unbalanced "[" in the host
            s = s.split("://", 1)[1].split("/", 1)[0]
    else:
        s = s.split("/", 1)[0]
    s = s.rsplit("@", 1)[-1].split(":", 1)[0].strip()
    while s.startswith("www."):
        s = s[4:].lstrip()
    return s


# The one table of the six network families: each profile set field, in
# serialization order, and the kind of string it holds.
NETWORK_FIELDS: dict[str, str] = {
    "in_mentions": "account",
    "in_domains": "domain",
    "pn_mentions": "account",
    "pn_domains": "domain",
    "cn_friends": "account",
    "cn_followers": "account",
}
NORMALIZERS = {"account": normalize_account, "domain": normalize_domain}


class UnreadFamilyError(LookupError):
    """A network family was used that load_network_profiles did not read."""


_NO_IDS = np.empty(0, dtype=np.int32)
_NO_IDS.flags.writeable = False


class ProfileTable:
    """Network profiles: the members of each read family for each author, as
    integer ids.

    ``vocabulary`` holds every member name once, in first-seen order, and a
    name's id is its position there, whatever family uses it, so the ids of
    any two families compare. Each read family is one CSR pair over the
    authors in order of first appearance: ``indptr`` (int64) and ``ids``
    (int32), each author's ids sorted and distinct.
    ``len``, ``in`` and iteration go over the authors.
    """

    def __init__(
        self,
        rows: dict[str, int],
        vocabulary: tuple[str, ...],
        families: dict[str, tuple[np.ndarray, np.ndarray]],
    ) -> None:
        self._rows = rows
        self.vocabulary = vocabulary
        self._families = families

    @classmethod
    def from_sets(cls, profiles: Mapping[str, Mapping[str, Iterable[str]]]) -> "ProfileTable":
        """A table of every family from user -> family -> member names, kept
        as given; absent families are empty."""
        builder = _TableBuilder(NETWORK_FIELDS)
        for user_id, sets in profiles.items():
            unknown = sets.keys() - NETWORK_FIELDS.keys()
            if unknown:
                raise TypeError(f"unknown network fields: {sorted(unknown)}")
            builder.add(user_id, sets, normalize=False)
        return builder.table()

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __contains__(self, author: object) -> bool:
        return author in self._rows

    def _csr(self, family: str) -> tuple[np.ndarray, np.ndarray]:
        csr = self._families.get(family)
        if csr is None:
            if family not in NETWORK_FIELDS:
                raise ValueError(f"unknown network field {family!r}")
            raise UnreadFamilyError(
                f"network family {family!r} was not read from the profiles file"
            )
        return csr

    def members(self, family: str, author: str) -> np.ndarray:
        """The sorted ids of author's members of family, none for an author
        the table does not hold. A family that was not read raises
        UnreadFamilyError, so it never passes for an empty set."""
        indptr, ids = self._csr(family)
        row = self._rows.get(author)
        if row is None:
            return _NO_IDS
        return ids[indptr[row]:indptr[row + 1]]

    def member_names(self, family: str, author: str) -> list[str]:
        """The names of author's members of family, in id order."""
        return list(map(self.vocabulary.__getitem__, self.members(family, author).tolist()))

    def _sorted_names(self) -> Iterator[tuple[str, dict[str, list[str]]]]:
        """(family, author -> member names sorted) for all six families; the
        writer's bulk form of member_names. The vocabulary is ranked once,
        and one sort of (row << 32 | rank) keys per family orders every
        author's members."""
        csrs = {family: self._csr(family) for family in NETWORK_FIELDS}
        vocabulary = self.vocabulary
        by_name = sorted(range(len(vocabulary)), key=vocabulary.__getitem__)
        rank = np.empty(len(by_name), dtype=np.int64)
        rank[by_name] = np.arange(len(by_name))
        for family, (indptr, ids) in csrs.items():
            rows = np.repeat(np.arange(len(self._rows), dtype=np.int64), np.diff(indptr))
            ranks = np.sort(rows << 32 | rank[ids]) & 0xFFFFFFFF
            names = [vocabulary[by_name[r]] for r in ranks.tolist()]
            bounds = indptr.tolist()
            yield family, {author: names[bounds[row]:bounds[row + 1]]
                           for author, row in self._rows.items()}

    def _sets(self) -> dict[str, dict[str, frozenset[str]]]:
        return {family: {author: frozenset(self.member_names(family, author))
                         for author in self._rows}
                for family in self._families}

    def __eq__(self, other: object) -> bool:
        """The same authors, read families and member names; ids may differ."""
        if not isinstance(other, ProfileTable):
            return NotImplemented
        return self._rows.keys() == other._rows.keys() and self._sets() == other._sets()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ProfileTable({len(self)} authors, families {sorted(self._families)})"


class _TableBuilder:
    """Gathers profiles one record at a time into a ProfileTable.

    A member is first numbered by the position, among all members, at which
    its name was first seen: ``setdefault`` on the one name -> position
    dict, with the next value of a counter as the default, is one C call
    per member under ``map``. The numbers go into a list per family
    (on a corpus of 95% distinct members, extending an array('i') from the
    map took 12% longer), with one length per record; table() renumbers
    them densely in first-seen order. A repeated author's last record wins.
    """

    def __init__(self, families: Iterable[str]) -> None:
        self.first: dict[str, int] = {}  # name -> the position it was first seen at
        self.counter = count()
        self.families = {family: (NORMALIZERS[NETWORK_FIELDS[family]], [], [])
                         for family in families}
        self.record_of: dict[str, int] = {}  # author -> its last record
        self.records = 0

    def add(self, user_id: str, sets: Mapping[str, Iterable[str]], normalize: bool,
            plain: bool = False) -> None:
        """Adds one record; with ``normalize``, each member is normalized
        for its kind and empty results are dropped. ``plain`` says that the
        normalizers reduce to strip() and lower() on every member (see
        _plain)."""
        self.record_of[user_id] = self.records
        self.records += 1
        for family, (normalizer, ids, lengths) in self.families.items():
            values = sets.get(family, ())
            if normalize:
                values = filter(None, map(str.lower, map(str.strip, values)) if plain
                                else map(normalizer, values))
            start = len(ids)
            ids.extend(map(self.first.setdefault, values, self.counter))
            lengths.append(len(ids) - start)

    def table(self) -> ProfileTable:
        """Each family's ids sorted and deduplicated per author by one sort
        of (row << 32 | id) keys, which took 0.5 ms where a two-key lexsort
        took 8 ms on 57,600 members; the records that a later one replaced
        are dropped."""
        dense = np.empty(next(self.counter), dtype=np.int32)
        dense[np.fromiter(self.first.values(), np.int64, len(self.first))] = np.arange(
            len(self.first), dtype=np.int32)
        n = len(self.record_of)
        row_of_record = np.full(self.records, -1, dtype=np.int64)
        row_of_record[np.fromiter(self.record_of.values(), np.int64, n)] = np.arange(n)
        families = {}
        for family, (_, ids, lengths) in self.families.items():
            rows = np.repeat(row_of_record, np.array(lengths, dtype=np.int64))
            keys = rows << 32 | dense[np.array(ids, dtype=np.int64)]
            if n < self.records:
                keys = keys[rows >= 0]
            keys = np.sort(keys)
            first = np.ones(keys.size, dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            keys = keys[first]
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(keys >> 32, minlength=n), out=indptr[1:])
            families[family] = (indptr, (keys & 0xFFFFFFFF).astype(np.int32))
        rows_of = {author: row for row, author in enumerate(self.record_of)}
        return ProfileTable(rows_of, tuple(self.first), families)


@dataclass(frozen=True)
class Dataset:
    """Joined corpus: instances, the loaded profile table and the topics in
    order of first appearance. An author need not be in ``profiles``, whose
    members() gives such an author no members."""

    instances: tuple[LabeledInstance, ...]
    profiles: ProfileTable
    topics: tuple[str, ...]


def load_semeval_tsv(path: str | Path) -> list[LabeledInstance]:
    """Read a tweets TSV into instances.

    Line 1 must be the header ID, Target, Tweet, Stance[, AuthorID], so
    that a file without it does not lose its first tweet. Each data line
    must have 4 or 5 tab-separated fields in that order. When the author
    column is absent the tweet id doubles as the author id.
    """
    path = Path(path)
    instances: list[LabeledInstance] = []
    seen_ids: set[str] = set()
    with input_file(path) as fh:
        header = fh.readline().rstrip("\n")
        if header not in (TWEETS_HEADER, TWEETS_HEADER + "\tAuthorID"):
            raise CorpusError(f"{path}: expected the header {TWEETS_HEADER!r}, "
                              f"optionally with AuthorID, at line 1, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) not in (4, 5):
                raise CorpusError(
                    f"{path}: expected 4 or 5 tab-separated fields, "
                    f"got {len(fields)} at line {lineno}"
                )
            tweet_id, topic, text = fields[0].strip(), fields[1].strip(), fields[2]
            if not topic:
                raise CorpusError(f"{path}: empty topic at line {lineno}")
            if tweet_id in seen_ids:
                raise CorpusError(
                    f"{path}: duplicate tweet id {tweet_id!r} at line {lineno}"
                )
            seen_ids.add(tweet_id)
            try:
                label = StanceLabel.parse(fields[3])
            except CorpusError as exc:
                raise CorpusError(f"{path}: {exc} at line {lineno}") from None
            author_id = fields[4].strip() if len(fields) == 5 else tweet_id
            instances.append(
                LabeledInstance(
                    tweet_id=tweet_id,
                    author_id=author_id or tweet_id,
                    topic=topic,
                    text=text,
                    label=label,
                )
            )
    return instances


def _reject_unwritable_chars(
    sets: Mapping[str, list[str]], path: Path, lineno: int
) -> None:
    for name, kind in NETWORK_FIELDS.items():
        bad = [v for v in map(NORMALIZERS[kind], sets[name]) if _UNWRITABLE_CHAR.search(v)]
        if bad:
            raise CorpusError(
                f"{path}: field {name!r} at line {lineno} holds "
                f"a control character or lone surrogate in {min(bad)!r}"
            )


def _plain(line: str, record: dict) -> bool:
    """Whether both normalizers reduce to strip() and lower() on every member
    of a line the control-character screen passes (ASCII with no backslash,
    so each string is as written): no member holds an "@", a "/", a ":" or a
    "www." in any case. The line holds one ":" per key of the record, and
    one more for a repeated key or for one inside a string."""
    return ("@" not in line and "/" not in line and line.count(":") == len(record)
            and "www." not in line.lower())


def load_network_profiles(
    path: str | Path,
    fields: Collection[str] | None = None,
    authors: Container[str] | None = None,
) -> tuple[ProfileTable, int]:
    """Read a profiles JSONL file.

    Returns the profile table plus the number of duplicate user_id records
    in the file (last record wins). A set member that holds a control
    character or a lone surrogate (neither can be written to a bundle's
    feature space) after normalization is rejected, and so is a user id
    that holds a lone surrogate (UTF-8 cannot write it back).

    Two filters leave out what the caller does not use. ``fields`` names the
    families to read (all six by default); the table raises
    UnreadFamilyError for the others. ``authors`` names the users to keep
    (all by default); the others are left out of the table. Whatever the
    filters, every line is parsed, every field of every record is
    type-checked and duplicates are counted over all records. A line that
    may hold a control character or a lone surrogate (screened by a
    backslash, a DEL or a non-ASCII character in it) is normalized and
    checked in full, whoever its author. So the filters change neither
    which files load, nor any error message, nor the duplicate count.
    """
    path = Path(path)
    wanted = NETWORK_FIELDS.keys() if fields is None else set(fields)
    unknown = wanted - NETWORK_FIELDS.keys()
    if unknown:
        raise ValueError(f"unknown network fields: {sorted(unknown)}")
    builder = _TableBuilder(name for name in NETWORK_FIELDS if name in wanted)
    skipped: set[str] = set()
    duplicates = 0
    with input_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(
                    f"{path}: unparseable record at line {lineno}: {exc.msg}"
                ) from None
            if not isinstance(record, dict):
                raise CorpusError(
                    f"{path}: record at line {lineno} is not an object"
                )
            user_id = record.get("user_id")
            if not isinstance(user_id, str) or not user_id:
                raise CorpusError(
                    f"{path}: missing user_id at line {lineno}"
                )
            sets: dict[str, list[str]] = {}
            for name in NETWORK_FIELDS:
                values = record.get(name, [])
                if not isinstance(values, list) or not all(map(str.__instancecheck__, values)):
                    raise CorpusError(
                        f"{path}: field {name!r} at line {lineno} "
                        "is not an array of strings"
                    )
                sets[name] = values
            # json.loads refuses raw U+0000..U+001F in strings, so a control
            # character arrives escaped, as a raw DEL or as raw non-ASCII,
            # and a lone surrogate (UTF-8 cannot hold one) only escaped; a
            # line with none of these needs no scan of its members.
            screened = "\\" in line or "\x7f" in line or not line.isascii()
            if screened:
                if not utf8_encodable(user_id):
                    raise CorpusError(
                        f"{path}: field 'user_id' at line {lineno} holds a lone surrogate"
                    )
                _reject_unwritable_chars(sets, path, lineno)
            if user_id in builder.record_of or user_id in skipped:
                duplicates += 1
            if authors is None or user_id in authors:
                builder.add(user_id, sets, normalize=True,
                            plain=not screened and _plain(line, record))
            else:
                skipped.add(user_id)
    return builder.table(), duplicates


def join(
    instances: Iterable[LabeledInstance],
    profiles: ProfileTable,
    require_profile: bool = False,
) -> tuple[Dataset, int]:
    """Join instances with author profiles into a Dataset that holds
    ``profiles`` itself, not a copy.

    With ``require_profile`` set, instances whose author has no profile are
    dropped (the paper's treatment of deleted users); the drop count is
    returned. Otherwise they are kept, and the table gives their authors
    no members.
    """
    kept: list[LabeledInstance] = []
    dropped = 0
    for inst in instances:
        if require_profile and inst.author_id not in profiles:
            dropped += 1
        else:
            kept.append(inst)
    topics = tuple(dict.fromkeys(inst.topic for inst in kept))
    return Dataset(tuple(kept), profiles, topics), dropped


@contextmanager
def input_file(path: str | Path) -> Iterator[TextIO]:
    """Opens path for UTF-8 text with universal newlines, the reading twin
    of output_file: bytes that are not UTF-8 raise CorpusError naming path
    and the first line that holds them."""
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        # The text reader decodes ahead of the line it yields, so the line
        # is found again from the bytes, split as universal newlines split.
        for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CorpusError(f"{path}: line {lineno} is not UTF-8") from None
        raise


@contextmanager
def output_file(path: str | Path) -> Iterator[TextIO]:
    """Opens path for UTF-8 text, untranslated, so that every file stancelab
    writes ends complete or as it was: a temporary file beside path replaces
    it on a clean exit and is removed on an exception; OSErrors name path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = None
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="")
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if fh is not None:
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Writes header and rows as CSV, with CRLF line ends, via output_file."""
    with output_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def utf8_encodable(text: str) -> bool:
    """Whether UTF-8 can encode text: false if it holds a lone surrogate."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _unreadable(inst: LabeledInstance, line: str, seen_ids: set[str]) -> str:
    """Why load_semeval_tsv would not read ``line`` back as ``inst``, or ""."""
    tweet_id, topic, author_id = inst.tweet_id, inst.topic, inst.author_id
    if line.count("\t") != 4 or "\n" in line or "\r" in line:
        return "a tab or line break in a field"
    if (tweet_id != tweet_id.strip() or topic != topic.strip()
            or author_id != author_id.strip()):
        return "surrounding whitespace in the ID, Target or AuthorID"
    if not topic:
        return "an empty Target"
    if not author_id and tweet_id:
        return "an empty AuthorID"
    if tweet_id in seen_ids:
        return "a repeated ID"
    if not utf8_encodable(line):
        return "a character UTF-8 cannot encode"
    return ""


def write_semeval_tsv(path: str | Path, instances: Iterable[LabeledInstance]) -> None:
    """Write instances in the tweets TSV format (with the AuthorID column).

    Refuses, with a CorpusError naming the tweet id and leaving the file as
    it was, any instance that load_semeval_tsv would not read back equal:
    a tab, "\\n" or "\\r" in a field; surrounding whitespace in the ID,
    Target or AuthorID; an empty Target; an empty AuthorID with a
    non-empty ID (it would read back as the ID); a repeated ID; or a
    character UTF-8 cannot encode.
    """
    lines = [TWEETS_HEADER + "\tAuthorID\n"]
    seen_ids: set[str] = set()
    for inst in instances:
        line = (f"{inst.tweet_id}\t{inst.topic}\t{inst.text}\t"
                f"{inst.label.value}\t{inst.author_id}")
        problem = _unreadable(inst, line, seen_ids)
        if problem:
            raise CorpusError(
                f"tweet {inst.tweet_id!r}: cannot write {problem}; "
                f"the tweets TSV could not read it back"
            )
        seen_ids.add(inst.tweet_id)
        lines.append(line + "\n")
    with output_file(path) as fh:
        fh.writelines(lines)


def _unreadable_member(member: str, kind: str) -> str:
    """Why load_network_profiles would not read ``member`` back into a
    field of ``kind``, or ""."""
    if not member:
        return "an empty member, which is dropped on load"
    if _UNWRITABLE_CHAR.search(member):
        return "a control character or lone surrogate"
    normalized = NORMALIZERS[kind](member)
    if normalized != member:
        return f"a member that would read back as {normalized!r}"
    return ""


def write_network_profiles(path: str | Path, profiles: ProfileTable) -> None:
    """Write profiles as JSONL, one user per line, set members sorted.

    Refuses, with a CorpusError naming the user and the field and leaving
    the file as it was, any profile that load_network_profiles would not
    read back equal: an empty user id or one UTF-8 cannot encode; a set
    member that is empty, holds a control character or a lone surrogate,
    or is not already normalized for its field's kind (such as "@A" for an
    account, read back as "a"). Each vocabulary name is checked once per kind.
    """
    sorted_names = dict(profiles._sorted_names())
    bad = {kind: {name for name in profiles.vocabulary if _unreadable_member(name, kind)}
           for kind in NORMALIZERS}
    lines = []
    for user_id in sorted(profiles):
        problem = ""
        if not user_id:
            problem = "an empty id"
        elif not utf8_encodable(user_id):
            problem = "a character UTF-8 cannot encode"
        if problem:
            raise CorpusError(
                f"user {user_id!r}: field 'user_id' holds {problem}; "
                "the profiles file could not read it back"
            )
        record: dict[str, object] = {"user_id": user_id}
        for name, kind in NETWORK_FIELDS.items():
            members = record[name] = sorted_names[name][user_id]
            if bad[kind] and not bad[kind].isdisjoint(members):
                member = min(bad[kind].intersection(members))
                raise CorpusError(
                    f"user {user_id!r}: field {name!r} holds "
                    f"{_unreadable_member(member, kind)}, "
                    f"{member!r}; the profiles file could not read it back"
                )
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    with output_file(path) as fh:
        fh.writelines(lines)
