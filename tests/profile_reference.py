"""The frozenset profile layout, kept as the oracle for corpus.ProfileTable.

``load_profile_sets`` is the profiles loader from before members became
integer ids: one frozen ``ProfileSets`` per kept author, holding one
frozenset of normalized member strings per family (None for a family that
was not read), each profile with its own copy of every member string. It
accepts and refuses the same files with the same messages and the same
duplicate count, so the table is checked against it member for member, and
what it holds in memory is the yardstick for what the table holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Container

from stancelab.corpus import (
    _UNWRITABLE_CHAR, NETWORK_FIELDS, NORMALIZERS, CorpusError, ProfileTable,
    utf8_encodable,
)


@dataclass(frozen=True)
class ProfileSets:
    user_id: str
    in_mentions: frozenset[str] | None = frozenset()
    in_domains: frozenset[str] | None = frozenset()
    pn_mentions: frozenset[str] | None = frozenset()
    pn_domains: frozenset[str] | None = frozenset()
    cn_friends: frozenset[str] | None = frozenset()
    cn_followers: frozenset[str] | None = frozenset()


def _normalized(values, kind: str) -> frozenset[str]:
    return frozenset(v for v in map(NORMALIZERS[kind], values) if v)


def load_profile_sets(
    path: str | Path,
    fields: Collection[str] | None = None,
    authors: Container[str] | None = None,
) -> tuple[dict[str, ProfileSets], int]:
    path = Path(path)
    wanted = NETWORK_FIELDS.keys() if fields is None else set(fields)
    profiles: dict[str, ProfileSets] = {}
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
                    f"{path}: line {lineno}: unparseable record: {exc.msg}"
                ) from None
            except RecursionError as exc:
                raise CorpusError(f"{path}: line {lineno}: unparseable record: {exc}") from None
            if not isinstance(record, dict):
                raise CorpusError(f"{path}: line {lineno}: record is not an object")
            user_id = record.get("user_id")
            if not isinstance(user_id, str) or not user_id:
                raise CorpusError(f"{path}: line {lineno}: missing user_id")
            sets = {}
            for name in NETWORK_FIELDS:
                values = record.get(name, [])
                if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
                    raise CorpusError(
                        f"{path}: line {lineno}: field {name!r} is not an array of strings"
                    )
                sets[name] = values
            if not utf8_encodable(user_id):
                raise CorpusError(
                    f"{path}: line {lineno}: field 'user_id' holds a lone surrogate"
                )
            for name, kind in NETWORK_FIELDS.items():
                bad = [v for v in _normalized(sets[name], kind) if _UNWRITABLE_CHAR.search(v)]
                if bad:
                    raise CorpusError(
                        f"{path}: line {lineno}: field {name!r} holds "
                        f"a control character or lone surrogate in {min(bad)!r}"
                    )
            if user_id in profiles or user_id in skipped:
                duplicates += 1
            if authors is None or user_id in authors:
                profiles[user_id] = ProfileSets(user_id, **{
                    name: _normalized(sets[name], kind) if name in wanted else None
                    for name, kind in NETWORK_FIELDS.items()
                })
            else:
                skipped.add(user_id)
    return profiles, duplicates


def table_sets(table: ProfileTable, fields: Collection[str] = NETWORK_FIELDS):
    """author -> family -> frozenset of member names, for the given families."""
    return {author: {name: frozenset(table.member_names(name, author)) for name in fields}
            for author in table}


def reference_sets(profiles: dict[str, ProfileSets], fields: Collection[str] = NETWORK_FIELDS):
    return {author: {name: getattr(profile, name) for name in fields}
            for author, profile in profiles.items()}
