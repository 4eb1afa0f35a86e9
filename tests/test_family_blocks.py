"""FamilyBlocks against the dict-based build, and what building a space's
blocks and writing a bundle of it allocate."""

import random
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stancelab.features import FamilyBlocks, FeatureSetSelector, FeatureSpace
from stancelab.linsvm import LinearModel, TrainConfig, save_bundle

from blocks_reference import ReferenceBlocks

# Non-BMP characters and lone surrogates besides plain ones, NUL and a space.
CHARS = st.one_of(
    st.sampled_from("ab \0é"),
    st.characters(min_codepoint=0x10000),
    st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff"]),
)
TOKENS = st.sampled_from(["a", "b", "ab", "é", "\U0001d538", "\udc00", "\0", ""])
# Orders 1-4: extraction never emits order 4, so those names give no column.
WORD_NAMES = st.lists(TOKENS, min_size=1, max_size=4).map(lambda t: "txtw:" + " ".join(t))
CHAR_NAMES = st.text(alphabet=CHARS, min_size=1, max_size=6).map("txtc:".__add__)
OTHER_NAMES = st.builds(
    str.__add__,
    st.sampled_from(["inat:", "indm:", "pnat:", "cnfl:", "zzzz:", "txtc", "txtw", "txt", ""]),
    st.text(alphabet=CHARS, max_size=4),
)


@st.composite
def space_names(draw):
    """Distinct names of every kind, in any order, either text block
    possibly empty."""
    names = draw(st.sets(st.one_of(WORD_NAMES, CHAR_NAMES, OTHER_NAMES), max_size=40))
    return tuple(draw(st.permutations(sorted(names))))


def assert_same_blocks(names):
    got = FamilyBlocks(names)
    want = ReferenceBlocks({name: col for col, name in enumerate(names)})
    assert got.family == want.family
    assert got.word_rank == want.word_rank
    assert got.char_codes.dtype == want.char_codes.dtype
    assert np.array_equal(got.char_codes, want.char_codes)
    for table in ("words", "chars"):
        new, old = getattr(got, table), getattr(want, table)
        assert new.width == old.width
        assert len(new.levels) == len(old.levels)
        for (keys, emits), (want_keys, want_emits) in zip(new.levels, old.levels):
            assert keys.dtype == want_keys.dtype and emits.dtype == want_emits.dtype
            assert np.array_equal(keys, want_keys)
            assert np.array_equal(emits, want_emits)


class TestAgainstTheDictBuild:
    @settings(max_examples=300, deadline=None)
    @given(names=space_names())
    @example(names=())
    @example(names=("txtw:", "txtc:", "txtw", "txtc", ""))
    @example(names=("txtw:b a", "inat:x", "txtw:a", "txtc:\ud800\U0001d538", "txtw:a  b c d"))
    def test_equal_tables(self, names):
        assert_same_blocks(names)

    def test_more_word_ngrams_than_one_chunk(self):
        names = sorted({"txtw:" + " ".join([f"w{i % 97}", f"w{i // 97}", f"w{i % 7}"][: 1 + i % 3])
                        for i in range(3000)})
        random.Random(1).shuffle(names)
        assert len(names) > 2048
        assert_same_blocks(tuple(names))


def large_space() -> tuple[str, ...]:
    """About 14,000 names shaped like one topic of a TXT+IN_AT+IN_DM train:
    11,000 word n-grams over 220 tokens, 2,200 char n-grams and 500 network
    names, sorted as build_feature_space sorts them."""
    rng = random.Random(0)
    letters = "abcdefghijklmnopqrstuvwxyz"
    vocabulary = ["".join(rng.choices(letters, k=rng.randint(2, 9))) for _ in range(220)]
    words: set[str] = set()
    while len(words) < 11_000:
        words.add(" ".join(rng.choices(vocabulary, k=rng.choice((1, 2, 2, 3, 3, 3)))))
    chars: set[str] = set()
    while len(chars) < 2_200:
        chars.add("".join(rng.choices(letters + " ", k=rng.randint(2, 5))))
    network = {f"{prefix}{rng.randrange(10**6)}" for prefix in ("inat:", "indm:")
               for _ in range(250)}
    return tuple(sorted({"txtw:" + w for w in words} | {"txtc:" + c for c in chars} | network))


def traced_peak_mb(fn, *args) -> float:
    """Peak of the memory Python allocates while fn(*args) runs, in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestMemory:
    """Python 3.11, numpy 2.4: FamilyBlocks peaks at 1.52 MB on this space
    and the dict-based build at 5.94 MB; save_bundle of a ternary model
    over it at 0.40 MB, and 5.13 MB when it built every line of weights.tsv
    before writing any."""

    def test_blocks_make_no_copy_per_name(self):
        names = large_space()
        assert traced_peak_mb(FamilyBlocks, names) < 2.5
        assert traced_peak_mb(ReferenceBlocks, dict(zip(names, range(len(names))))) > 2.5

    def test_the_weights_file_is_written_in_chunks(self, tmp_path):
        space = FeatureSpace(large_space(), FeatureSetSelector.of("TXT"))
        weights = np.random.default_rng(0).standard_normal((3, space.size))
        model = LinearModel(weights, np.zeros(3), "ternary", space, TrainConfig())
        assert traced_peak_mb(save_bundle, model, tmp_path / "bundle") < 0.5
        lines = (tmp_path / "bundle" / "weights.tsv").read_text(encoding="utf-8")
        assert lines.splitlines()[-1] == "\t".join(
            [space.names[-1], *map(repr, weights[:, -1].tolist())])
