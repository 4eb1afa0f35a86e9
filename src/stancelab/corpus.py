"""Corpus ingestion: labeled tweets, user network profiles, and their join.

Two file formats are owned by this module:

* Tweets file: UTF-8 TSV with a header line and columns
  ``ID, Target, Tweet, Stance[, AuthorID]``.  Tabs and line breaks inside a
  field are not supported (they end the field or the line), and the writer
  refuses them.  When the optional AuthorID column is absent each tweet is
  treated as its own author.
* Profiles file: UTF-8, one JSON object per line with a ``user_id`` key and
  up to six array-of-string keys, one per network family. ``NETWORK_FIELDS``
  is the one table of those families and of their kinds (account or domain).
  Absent keys mean empty sets.

``load_network_profiles`` can leave out what a command does not use:
``fields`` names the families to read and ``authors`` the users to keep.
Every line is still parsed and type-checked, duplicates are counted over all
records, and a line that trips the control-character screen (a backslash, a
DEL or a non-ASCII character) is checked in full, whoever its author. An
unread family raises UnreadFamilyError when used, so it never passes for an
empty set.
"""

from __future__ import annotations

import csv
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Collection, Container, Iterable, Iterator, Mapping, Sequence, TextIO
from urllib.parse import urlsplit


class CorpusError(ValueError):
    """Raised for malformed corpus files or inconsistent records."""


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


def _normalized_set(values: Iterable[str], normalize) -> frozenset[str]:
    return frozenset(v for v in (normalize(x) for x in values) if v)


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


class _Unread:
    """The value of a family that load_network_profiles did not read: any
    use as a set raises, so it never passes for an empty set."""

    __slots__ = ("field_name",)

    def __init__(self, field_name: str) -> None:
        self.field_name = field_name

    def refuse(self, *_):
        raise UnreadFamilyError(
            f"network family {self.field_name!r} was not read from the profiles file"
        )

    __iter__ = __len__ = __bool__ = __contains__ = refuse


_UNREAD = {name: _Unread(name) for name in NETWORK_FIELDS}


@dataclass(frozen=True)
class UserNetworkProfile:
    """The six account/domain sets describing one user's networks.

    Sets may be empty (silent or passive users). Account strings are
    lowercase with no leading '@'; domain strings are lowercase hostnames
    with no scheme, path, or port. A family that load_network_profiles was
    told not to read raises UnreadFamilyError when used.
    """

    user_id: str
    in_mentions: frozenset[str] = frozenset()
    in_domains: frozenset[str] = frozenset()
    pn_mentions: frozenset[str] = frozenset()
    pn_domains: frozenset[str] = frozenset()
    cn_friends: frozenset[str] = frozenset()
    cn_followers: frozenset[str] = frozenset()

    @classmethod
    def from_raw(cls, user_id: str, **sets: Iterable[str]) -> "UserNetworkProfile":
        """Build a profile, normalizing each member by its field's kind."""
        unknown = sets.keys() - NETWORK_FIELDS.keys()
        if unknown:
            raise TypeError(f"unknown network fields: {sorted(unknown)}")
        return cls(user_id, **{
            name: _normalized_set(values, NORMALIZERS[NETWORK_FIELDS[name]])
            for name, values in sets.items()
        })

    @classmethod
    def empty(cls, user_id: str) -> "UserNetworkProfile":
        return cls(user_id=user_id)

    def set_for(self, field_name: str) -> frozenset[str]:
        if field_name not in NETWORK_FIELDS:
            raise ValueError(f"unknown network field {field_name!r}")
        members = getattr(self, field_name)
        if isinstance(members, _Unread):
            members.refuse()
        return members


@dataclass(frozen=True)
class Dataset:
    """Joined corpus: instances, the loaded profile table and the topics in
    order of first appearance. An author need not be in ``profiles``;
    profile_for is the one place that gives such an author an empty
    profile."""

    instances: tuple[LabeledInstance, ...]
    profiles: Mapping[str, UserNetworkProfile]
    topics: tuple[str, ...]

    def profile_for(self, author_id: str) -> UserNetworkProfile:
        profile = self.profiles.get(author_id)
        if profile is None:
            return UserNetworkProfile.empty(author_id)
        return profile


def load_semeval_tsv(path: str | Path) -> list[LabeledInstance]:
    """Read a tweets TSV into instances.

    The first line is a header. Each data line must have 4 or 5
    tab-separated fields: ID, Target, Tweet, Stance[, AuthorID]. When the
    author column is absent the tweet id doubles as the author id.
    """
    path = Path(path)
    instances: list[LabeledInstance] = []
    seen_ids: set[str] = set()
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1:
                continue
            line = line.rstrip("\n").rstrip("\r")
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
    profile: UserNetworkProfile, path: Path, lineno: int
) -> None:
    for name in NETWORK_FIELDS:
        bad = [v for v in profile.set_for(name) if _UNWRITABLE_CHAR.search(v)]
        if bad:
            raise CorpusError(
                f"{path}: field {name!r} at line {lineno} holds "
                f"a control character or lone surrogate in {min(bad)!r}"
            )


def load_network_profiles(
    path: str | Path,
    fields: Collection[str] | None = None,
    authors: Container[str] | None = None,
) -> tuple[dict[str, UserNetworkProfile], int]:
    """Read a profiles JSONL file.

    Returns the user_id -> profile mapping plus the number of duplicate
    user_id records in the file (last record wins). A set member that holds
    a control character or a lone surrogate (neither can be written to a
    bundle's feature space) after normalization is rejected.

    Two filters leave out what the caller does not use. ``fields`` names the
    families to read (all six by default); the others hold a stand-in that
    raises UnreadFamilyError when used. ``authors`` names the users to keep
    (all by default); the others are left out of the mapping. Whatever the
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
    normalizers = {
        name: NORMALIZERS[kind] for name, kind in NETWORK_FIELDS.items() if name in wanted
    }
    unread = {name: _UNREAD[name] for name in NETWORK_FIELDS if name not in wanted}
    profiles: dict[str, UserNetworkProfile] = {}
    skipped: set[str] = set()
    duplicates = 0
    with path.open(encoding="utf-8") as fh:
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
                if not isinstance(values, list) or not all(
                    isinstance(v, str) for v in values
                ):
                    raise CorpusError(
                        f"{path}: field {name!r} at line {lineno} "
                        "is not an array of strings"
                    )
                sets[name] = values
            keep = authors is None or user_id in authors
            # json.loads refuses raw U+0000..U+001F in strings, so a control
            # character arrives escaped, as a raw DEL or as raw non-ASCII,
            # and a lone surrogate (UTF-8 cannot hold one) only escaped; a
            # line with none of these needs no scan of its members.
            if "\\" in line or "\x7f" in line or not line.isascii():
                profile = UserNetworkProfile.from_raw(user_id, **sets)
                _reject_unwritable_chars(profile, path, lineno)
                if keep and unread:
                    profile = replace(profile, **unread)
            elif keep:
                profile = UserNetworkProfile(user_id, **unread, **{
                    name: _normalized_set(sets[name], normalize)
                    for name, normalize in normalizers.items()
                })
            if user_id in profiles or user_id in skipped:
                duplicates += 1
            if keep:
                profiles[user_id] = profile
            else:
                skipped.add(user_id)
    return profiles, duplicates


def join(
    instances: Iterable[LabeledInstance],
    profiles: Mapping[str, UserNetworkProfile],
    require_profile: bool = False,
) -> tuple[Dataset, int]:
    """Join instances with author profiles into a Dataset that holds
    ``profiles`` itself, not a copy.

    With ``require_profile`` set, instances whose author has no profile are
    dropped (the paper's treatment of deleted users); the drop count is
    returned. Otherwise they are kept, and Dataset.profile_for gives their
    authors empty profiles.
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
    lines = ["ID\tTarget\tTweet\tStance\tAuthorID\n"]
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


def write_network_profiles(
    path: str | Path, profiles: Mapping[str, UserNetworkProfile]
) -> None:
    """Write profiles as JSONL, one user per line, set members sorted.

    Refuses, with a CorpusError naming the user and the field and leaving
    the file as it was, any profile that load_network_profiles would not
    read back equal: a key other than the profile's user_id; an empty user
    id or one UTF-8 cannot encode; a set member that is empty, holds a
    control character or a lone surrogate, or is not already normalized
    for its field's kind (such as "@A" for an account, read back as "a").
    Each distinct member is checked once per call.
    """
    checked: dict[str, set[str]] = {kind: set() for kind in NORMALIZERS}
    lines = []
    for user_id in sorted(profiles):
        profile = profiles[user_id]
        problem = ""
        if profile.user_id != user_id:
            problem = f"{profile.user_id!r}, not the key it is stored under"
        elif not user_id:
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
            members = getattr(profile, name)
            record[name] = sorted(members)
            if members <= checked[kind]:
                continue
            for member in sorted(members - checked[kind]):
                problem = _unreadable_member(member, kind)
                if problem:
                    raise CorpusError(
                        f"user {user_id!r}: field {name!r} holds {problem}, "
                        f"{member!r}; the profiles file could not read it back"
                    )
            checked[kind].update(members)
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    with output_file(path) as fh:
        fh.writelines(lines)
