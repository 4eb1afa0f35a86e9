"""The dict-based family-block build, kept as the oracle for
features.FamilyBlocks.

``ReferenceBlocks(index_of)`` is how a space's blocks were built when a
space was a name -> column dict: one dict per family keyed by the name
without its prefix, text families included, and a list of token strings
per word n-gram. The one-pass build over a space's names must give the same
``family``, ``word_rank``, ``char_codes`` and kernel tables, and what this
build allocates is the yardstick for what the one-pass build allocates.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping

import numpy as np

from stancelab.features import (
    CHAR_NGRAM_ORDERS,
    WORD_NGRAM_ORDERS,
    NgramTable,
    _codes,
)
from stancelab.corpus import distinct_sorted


class ReferenceBlocks:
    def __init__(self, index_of: Mapping[str, int]) -> None:
        family: dict[str, dict[str, int]] = {}
        for name, idx in index_of.items():
            family.setdefault(name[:5], {})[name[5:]] = idx
        words = family.pop("txtw:", {})
        chars = family.pop("txtc:", {})
        self.family = family

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
        self.char_codes = distinct_sorted(codes)
        self.chars = NgramTable(
            np.searchsorted(self.char_codes, codes),
            np.fromiter(map(len, chars), np.int64, len(chars)),
            np.fromiter(chars.values(), np.int64, len(chars)),
            self.char_codes.size,
            CHAR_NGRAM_ORDERS,
        )
