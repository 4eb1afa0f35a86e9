"""The set-based vectorizer, kept as the oracle for features.index_rows.

``vectorize(extract_features(inst, profile, space.selector), space)`` is
how every row was built before the batch vectorizer; it returns the row
``index_rows`` must return, array for array. ``reference_tokenize``
is the tokenizer before its ASCII fast path, character by character.
"""

from __future__ import annotations

import unicodedata
from typing import Iterable

import numpy as np

from stancelab.features import URL_SENTINEL, FeatureSpace


def vectorize(feature_set: Iterable[str], space: FeatureSpace) -> np.ndarray:
    """Sorted int64 columns of a feature set; unseen features are dropped."""
    index_of = {name: idx for idx, name in enumerate(space.names)}
    hits = [index_of[f] for f in feature_set if f in index_of]
    hits.sort()
    return np.asarray(hits, dtype=np.int64)


def reference_tokenize(text: str) -> list[str]:
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
