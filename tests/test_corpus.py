import json
import re
import tempfile
import tracemalloc
import unicodedata
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from stancelab.corpus import (
    CorpusError,
    LabeledInstance,
    NETWORK_FIELDS,
    ProfileTable,
    StanceLabel,
    UnreadFamilyError,
    join,
    load_network_profiles,
    load_semeval_tsv,
    normalize_account,
    normalize_domain,
    read_semeval_tsv,
    write_network_profiles,
    write_semeval_tsv,
)
from stancelab.features import (
    FeatureSetSelector,
    FeatureSpace,
    extract_features,
    index_rows,
)
from stancelab.linsvm import _read_weights
from stancelab.scoring import read_label_lines, read_predictions
from stancelab.synth import SynthConfig, write_corpus

from profile_reference import load_profile_sets, reference_sets, table_sets


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestStanceLabel:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("FAVOR", StanceLabel.FAVOR),
            ("against", StanceLabel.AGAINST),
            ("  None ", StanceLabel.NONE),
            ("Favor", StanceLabel.FAVOR),
        ],
    )
    def test_parse(self, raw, expected):
        assert StanceLabel.parse(raw) is expected

    def test_unknown_rejected(self):
        with pytest.raises(CorpusError, match="MAYBE"):
            StanceLabel.parse("MAYBE")


class TestLoadTweets:
    def test_basic_line(self, tmp_path):
        path = write(
            tmp_path, "t.tsv",
            "ID\tTarget\tTweet\tStance\tAuthorID\n"
            "101\tAtheism\tgod is a myth\tFAVOR\tu1\n",
        )
        (inst,) = load_semeval_tsv(path)
        assert inst == LabeledInstance("101", "u1", "Atheism", "god is a myth",
                                       StanceLabel.FAVOR)

    def test_author_defaults_to_tweet_id(self, tmp_path):
        path = write(
            tmp_path, "t.tsv",
            "ID\tTarget\tTweet\tStance\n101\tAtheism\thello\tNONE\n",
        )
        (inst,) = load_semeval_tsv(path)
        assert inst.author_id == "101"

    def test_header_only_gives_empty_list(self, tmp_path):
        path = write(tmp_path, "t.tsv", "ID\tTarget\tTweet\tStance\n")
        assert load_semeval_tsv(path) == []

    @pytest.mark.parametrize("header", [
        "",  # missing: the first tweet would be skipped as the header
        "ID\tTweet\tTarget\tStance\n",
        "ID\tTarget\tTweet\tStance\tUserID\n",
        "ID\tTarget\tTweet\tStance\tAuthorID\tExtra\n",
    ], ids=["missing", "reordered", "wrong-fifth", "sixth"])
    def test_tweets_header_required(self, tmp_path, header):
        path = write(tmp_path, "t.tsv",
                     header + "1\tA\thi\tNONE\tu1\n2\tA\tyo\tFAVOR\tu2\n")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 1: expected "
                           r"the header 'ID\\tTarget\\tTweet\\tStance', optionally with "
                           "AuthorID, got"):
            load_semeval_tsv(path)

    def test_unknown_stance_names_value_and_line(self, tmp_path):
        path = write(
            tmp_path, "t.tsv",
            "ID\tTarget\tTweet\tStance\n1\tA\thi\tMAYBE\n",
        )
        with pytest.raises(CorpusError, match="line 2: unknown stance 'MAYBE'"):
            load_semeval_tsv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = write(
            tmp_path, "t.tsv",
            "ID\tTarget\tTweet\tStance\n1\tA\thi\n",
        )
        with pytest.raises(CorpusError, match="line 2"):
            load_semeval_tsv(path)

    def test_duplicate_tweet_id_rejected(self, tmp_path):
        path = write(
            tmp_path, "t.tsv",
            "ID\tTarget\tTweet\tStance\n1\tA\thi\tNONE\n1\tA\tyo\tFAVOR\n",
        )
        with pytest.raises(CorpusError, match="duplicate tweet id"):
            load_semeval_tsv(path)

    def test_empty_topic_rejected(self, tmp_path):
        path = write(
            tmp_path, "t.tsv",
            "ID\tTarget\tTweet\tStance\n1\t\thi\tNONE\n",
        )
        with pytest.raises(CorpusError, match="empty topic"):
            load_semeval_tsv(path)

    def test_empty_text_allowed(self, tmp_path):
        path = write(
            tmp_path, "t.tsv",
            "ID\tTarget\tTweet\tStance\n1\tA\t\tNONE\n",
        )
        (inst,) = load_semeval_tsv(path)
        assert inst.text == ""

    def test_round_trip(self, tmp_path):
        instances = [
            LabeledInstance("1", "u1", "A", "hello world", StanceLabel.FAVOR),
            LabeledInstance("2", "u2", "B", "", StanceLabel.NONE),
        ]
        path = tmp_path / "out.tsv"
        write_semeval_tsv(path, instances)
        assert load_semeval_tsv(path) == instances

    def test_reader_yields_each_instance_as_it_reads(self, tmp_path):
        # The instances before a malformed line come out before its error,
        # and each pass over the file checks the IDs afresh.
        path = write(tmp_path, "t.tsv",
                     "ID\tTarget\tTweet\tStance\n1\tA\thi\tNONE\n1\tA\tyo\tFAVOR\n")
        first, second = read_semeval_tsv(path), read_semeval_tsv(path)
        assert next(first) == next(second) == LabeledInstance(
            "1", "1", "A", "hi", StanceLabel.NONE)
        for tweets in (first, second):
            with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 3: "
                               "duplicate tweet id '1'$"):
                next(tweets)


FIELD_TEXT = st.text(
    alphabet=st.sampled_from("ab1 \t\n\r\x0b\x1c\x85\u2028") | st.characters(),
    max_size=5,
)
INSTANCES = st.lists(
    st.builds(
        LabeledInstance,
        tweet_id=FIELD_TEXT,
        author_id=FIELD_TEXT,
        topic=FIELD_TEXT,
        text=FIELD_TEXT,
        label=st.sampled_from(list(StanceLabel)),
    ),
    max_size=4,
)


def reads_back(instances):
    """Do the instances, written with no checks, load back equal?"""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.tsv"
        try:
            with path.open("w", encoding="utf-8") as fh:
                fh.write("ID\tTarget\tTweet\tStance\tAuthorID\n")
                for inst in instances:
                    fh.write(f"{inst.tweet_id}\t{inst.topic}\t{inst.text}\t"
                             f"{inst.label.value}\t{inst.author_id}\n")
            return load_semeval_tsv(path) == instances
        except (UnicodeEncodeError, CorpusError):
            return False


class TestWriteTweets:
    @given(instances=INSTANCES)
    @example(instances=[LabeledInstance("1", "u", "A", "x\ry", StanceLabel.FAVOR)])
    @example(instances=[LabeledInstance("", "", "A", "", StanceLabel.NONE)])
    @example(instances=[LabeledInstance("1", "", "A", "", StanceLabel.NONE)])
    @example(instances=[LabeledInstance("1", "u", "A", "\ud800", StanceLabel.NONE)])
    def test_round_trips_or_refuses(self, instances):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.tsv"
            try:
                write_semeval_tsv(path, instances)
            except CorpusError:
                assert not path.exists()
                assert not reads_back(instances)
                return
            assert load_semeval_tsv(path) == instances

    @pytest.mark.parametrize(
        "tweet_id,author,topic,text",
        [
            ("7", "u", "A", "a\tb"),
            ("7", "u", "A", "a\nb"),
            ("7", "u", "A\r", "x"),
            ("7", " u", "A", "x"),
            ("7 ", "u", "A", "x"),
            ("7", "u", " A", "x"),
            ("7", "u", "", "x"),
            ("7", "", "A", "x"),
        ],
    )
    def test_refusal_names_the_tweet(self, tmp_path, tweet_id, author, topic, text):
        inst = LabeledInstance(tweet_id, author, topic, text, StanceLabel.FAVOR)
        ok = LabeledInstance("1", "u", "A", "fine", StanceLabel.NONE)
        with pytest.raises(CorpusError, match=f"tweet {tweet_id!r}"):
            write_semeval_tsv(tmp_path / "t.tsv", [ok, inst])

    def test_repeated_id_refused(self, tmp_path):
        inst = LabeledInstance("1", "u", "A", "x", StanceLabel.NONE)
        with pytest.raises(CorpusError, match="tweet '1'.*repeated"):
            write_semeval_tsv(tmp_path / "t.tsv", [inst, inst])


class TestNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("@FoxNews", "foxnews"),
            ("foxnews", "foxnews"),
            ("@@Shout", "shout"),
            (" @Mixed_Case ", "mixed_case"),
        ],
    )
    def test_account(self, raw, expected):
        assert normalize_account(raw) == expected

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("https://www.bbc.co.uk/news/x", "bbc.co.uk"),
            ("http://News.BBC.co.uk:8080/a", "news.bbc.co.uk"),
            ("www.example.com", "example.com"),
            ("example.com/path", "example.com"),
            ("Example.COM", "example.com"),
        ],
    )
    def test_domain(self, raw, expected):
        assert normalize_domain(raw) == expected

    @given(st.text(min_size=1, max_size=30))
    @example("@\x850")
    @example("@ @x")
    def test_account_normalization_idempotent(self, raw):
        once = normalize_account(raw)
        assert normalize_account(once) == once

    @given(st.text(min_size=1, max_size=30))
    @example("0 /")
    @example("0\r/")
    @example("u@ www.x")
    @example("www.www.x")
    @example("www. x")
    @example("a://[x")
    def test_domain_normalization_idempotent(self, raw):
        once = normalize_domain(raw)
        assert normalize_domain(once) == once


# Each field's normalizer, written out field by field: the oracle for the
# table-driven normalization of ProfileTable.from_sets.
PER_FIELD_NORMALIZER = {
    "in_mentions": normalize_account,
    "in_domains": normalize_domain,
    "pn_mentions": normalize_account,
    "pn_domains": normalize_domain,
    "cn_friends": normalize_account,
    "cn_followers": normalize_account,
}

RAW_MEMBERS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["@FoxNews", " @@a ", "https://www.BBC.co.uk/x", "www.x:80", ""]),
)


class TestFromRaw:
    """Raw members as the loader normalizes them, and tables built by hand."""

    @given(st.dictionaries(st.sampled_from(sorted(PER_FIELD_NORMALIZER)),
                           st.lists(RAW_MEMBERS, max_size=5)))
    def test_matches_the_per_field_normalizers(self, sets):
        expected = {name: {normalize(v) for v in sets.get(name, [])} - {""}
                    for name, normalize in PER_FIELD_NORMALIZER.items()}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.jsonl"
            path.write_text(json.dumps({"user_id": "u1", **sets}) + "\n", encoding="utf-8")
            if any(unicodedata.category(ch) in ("Cc", "Cs")
                   for members in expected.values() for member in members for ch in member):
                with pytest.raises(CorpusError, match="control character"):
                    load_network_profiles(path)
                return
            table, _ = load_network_profiles(path)
        assert list(table) == ["u1"]
        for name in PER_FIELD_NORMALIZER:
            ids = table.members(name, "u1").tolist()
            assert ids == sorted(set(ids))
            assert set(table.member_names(name, "u1")) == expected[name]

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="in_mention"):
            ProfileTable.from_sets({"u1": {"in_mention": ["a"]}})


class TestLoadProfiles:
    def test_normalizes_and_collapses(self, tmp_path):
        path = write(
            tmp_path, "p.jsonl",
            '{"user_id": "u1", "in_mentions": ["@FoxNews", "foxnews"], '
            '"in_domains": ["https://www.bbc.co.uk/news/x"]}\n',
        )
        profiles, dupes = load_network_profiles(path)
        assert dupes == 0
        assert profiles.member_names("in_mentions", "u1") == ["foxnews"]
        assert profiles.member_names("in_domains", "u1") == ["bbc.co.uk"]
        assert profiles.members("cn_friends", "u1").size == 0

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "p.jsonl", "")
        profiles, dupes = load_network_profiles(path)
        assert len(profiles) == 0 and dupes == 0
        assert profiles == ProfileTable.from_sets({})

    def test_duplicate_user_last_wins_and_counted(self, tmp_path):
        path = write(
            tmp_path, "p.jsonl",
            '{"user_id": "u1", "in_mentions": ["a"]}\n'
            '{"user_id": "u1", "in_mentions": ["b"]}\n',
        )
        profiles, dupes = load_network_profiles(path)
        assert dupes == 1
        assert list(profiles) == ["u1"]
        assert profiles.member_names("in_mentions", "u1") == ["b"]

    def test_unparseable_line_names_line(self, tmp_path):
        path = write(tmp_path, "p.jsonl", '{"user_id": "u1"}\nnot json\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_network_profiles(path)

    def test_missing_user_id(self, tmp_path):
        path = write(tmp_path, "p.jsonl", '{"in_mentions": ["a"]}\n')
        with pytest.raises(CorpusError, match="user_id"):
            load_network_profiles(path)

    @pytest.mark.parametrize("authors", [None, {"u1"}], ids=["all", "filtered-out"])
    def test_lone_surrogate_user_id_rejected(self, tmp_path, authors):
        # write_network_profiles could not write such an id back.
        path = write(tmp_path, "p.jsonl",
                     '{"user_id": "u1"}\n{"user_id": "\\ud800", "in_mentions": ["a"]}\n')
        with pytest.raises(CorpusError, match=re.escape(
                f"{path}: line 2: field 'user_id' holds a lone surrogate")):
            load_network_profiles(path, authors=authors)

    def test_bad_field_type(self, tmp_path):
        path = write(
            tmp_path, "p.jsonl", '{"user_id": "u1", "in_mentions": "a"}\n'
        )
        with pytest.raises(CorpusError, match="in_mentions"):
            load_network_profiles(path)

    @pytest.mark.parametrize(
        "member",
        ["a\\nb", "a\\tb", "@x\\u0085y", "a\\u007fb", "a\x7fb", "@x\x85y", "\\ud800x"],
    )
    def test_control_character_rejected_with_file_line_field(
        self, tmp_path, member
    ):
        path = write(
            tmp_path, "p.jsonl",
            '{"user_id": "u1"}\n'
            f'{{"user_id": "u2", "cn_friends": ["ok", "{member}"]}}\n',
        )
        with pytest.raises(
            CorpusError, match=r"p\.jsonl: line 2: field 'cn_friends'"
        ):
            load_network_profiles(path)

    @given(
        members=st.lists(st.text(st.characters(), max_size=6), max_size=4),
        ascii_only=st.booleans(),
    )
    def test_rejected_iff_a_normalized_member_holds_a_control_character(
        self, members, ascii_only
    ):
        # A lone surrogate (category Cs) can reach the file only escaped.
        ascii_only = ascii_only or any(
            unicodedata.category(ch) == "Cs" for member in members for ch in member
        )
        record = {"user_id": "u1", "in_mentions": members}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.jsonl"
            path.write_text(
                json.dumps(record, ensure_ascii=ascii_only) + "\n", encoding="utf-8"
            )
            if any(
                unicodedata.category(ch) in ("Cc", "Cs")
                for member in members
                for ch in normalize_account(member)
            ):
                with pytest.raises(CorpusError, match="line 1: field 'in_mentions'"):
                    load_network_profiles(path)
            else:
                profiles, _ = load_network_profiles(path)
                assert set(profiles.member_names("in_mentions", "u1")) == {
                    normalize_account(m) for m in members
                } - {""}

    def test_control_characters_stripped_by_normalization_accepted(self, tmp_path):
        path = write(
            tmp_path, "p.jsonl",
            '{"user_id": "u1", "in_mentions": ["\\n@A\\t"], '
            '"in_domains": ["https://x.example/a\\nb"]}\n',
        )
        profiles, _ = load_network_profiles(path)
        assert profiles.member_names("in_mentions", "u1") == ["a"]
        assert profiles.member_names("in_domains", "u1") == ["x.example"]

    @settings(max_examples=300, deadline=None)
    @given(records=st.lists(st.dictionaries(
               st.sampled_from(sorted(NETWORK_FIELDS)),
               st.lists(st.lists(st.sampled_from(
                   ["a", "B", " ", "-", ".x", "www.", "wWw.", "@", "/", ":"]),
                   max_size=4).map("".join), max_size=2)),
               min_size=1, max_size=4),
           extra=st.sampled_from(["", ', "note": {"a": 1}', ', "user_id": "u:9"']))
    @example(records=[{"in_mentions": [" @A"]}], extra="")
    @example(records=[{"in_domains": ["a/b"]}], extra="")
    @example(records=[{"in_domains": ["a:b"]}], extra="")
    @example(records=[{"pn_domains": ["WwW.a"]}], extra="")
    def test_members_read_as_the_normalizers_give_them(self, records, extra):
        # A line whose members hold no "@", "/", ":" or "www." is read with
        # strip() and lower() in place of the normalizers, to the same sets.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.jsonl"
            path.write_text("".join(
                json.dumps({"user_id": f"u{i}", **record})[:-1] + extra + "}\n"
                for i, record in enumerate(records)), encoding="utf-8")
            table, duplicates = load_network_profiles(path)
            sets, reference_duplicates = load_profile_sets(path)
        assert duplicates == reference_duplicates
        assert table_sets(table) == reference_sets(sets)

    def test_round_trip(self, tmp_path):
        profiles = ProfileTable.from_sets({
            "u1": {"in_mentions": ["a", "b"], "pn_domains": ["x.example"]},
            "u2": {},
        })
        path = tmp_path / "out.jsonl"
        write_network_profiles(path, profiles)
        loaded, _ = load_network_profiles(path)
        assert loaded == profiles

    def test_held_ids_are_the_distinct_ids_a_family_holds(self):
        table = ProfileTable.from_sets({
            "u1": {"in_mentions": ["a", "b"], "cn_followers": ["z", "a"]},
            "u2": {"in_mentions": ["c", "b"]},
        })
        for family in ("in_mentions", "cn_followers", "pn_domains"):
            ids = {i for author in table for i in table.members(family, author).tolist()}
            assert table.held_ids(family).tolist() == sorted(ids)

    @pytest.mark.parametrize("key, sets, field", [
        ("u", {"in_mentions": ["a\x01b"]}, "in_mentions"),
        ("u", {"in_mentions": ["@A"]}, "in_mentions"),
        ("u", {"pn_domains": ["www.x.example"]}, "pn_domains"),
        ("u", {"cn_followers": [""]}, "cn_followers"),
        ("", {}, "user_id"),
        ("a\ud800", {}, "user_id"),
    ], ids=["control", "unnormalized-account", "unnormalized-domain", "empty",
            "empty-id", "surrogate-id"])
    def test_write_refuses_what_load_reads_back_differently(
        self, tmp_path, key, sets, field
    ):
        path = tmp_path / "out.jsonl"
        profiles = ProfileTable.from_sets({"a": {}, key: sets})
        message = re.escape(f"user {key!r}: field {field!r}")
        with pytest.raises(CorpusError, match=message):
            write_network_profiles(path, profiles)
        assert not path.exists()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_written_profiles_read_back_equal_or_are_refused(self, data):
        clean = st.lists(st.sampled_from(["a", "b", "b.example", "x.b.example"]),
                         max_size=3)
        keys = data.draw(st.lists(st.sampled_from(["u", "v", " u", "İ"]),
                                  min_size=1, max_size=3, unique=True))
        sets = {key: {name: data.draw(clean) for name in NETWORK_FIELDS}
                for key in keys}
        # At most one change, which may or may not stop a read-back.
        key = data.draw(st.sampled_from(keys))
        change = data.draw(st.sampled_from(["none", "member", "key"]))
        event(change)
        if change == "member":
            name = data.draw(st.sampled_from(sorted(NETWORK_FIELDS)))
            member = data.draw(st.one_of(
                st.text(st.characters(), max_size=4),
                st.sampled_from(["", "@a", "A", " a", "www.b.example",
                                 "b.example/x", "a\x01", "\ud800", "a", "b.example"]),
            ))
            sets[key][name] = sets[key][name] + [member]
        elif change == "key":
            new_key = data.draw(st.sampled_from(["w", "", "u\ud800"]))
            sets[new_key] = sets.pop(key)
        profiles = ProfileTable.from_sets(sets)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.jsonl"
            try:
                write_network_profiles(path, profiles)
            except CorpusError:
                event("refused")
                assert not path.exists()
                return
            event("written")
            assert load_network_profiles(path) == (profiles, 0)

    @settings(max_examples=200, deadline=None)
    @given(
        sets=st.dictionaries(
            st.sampled_from(["u", "v", "w", "İ", "x y"]),
            st.dictionaries(st.sampled_from(sorted(NETWORK_FIELDS)),
                            st.lists(st.one_of(
                                st.sampled_from(["a", "b", "b.example", "é.example"]),
                                st.text(st.characters(), min_size=1, max_size=5)),
                                max_size=4)),
            max_size=4),
        fields=st.none() | st.sets(st.sampled_from(sorted(NETWORK_FIELDS))),
        authors=st.none() | st.sets(st.sampled_from(["u", "v", "w", "z"])),
    )
    def test_filtered_read_back_equals_the_filtered_table(self, sets, fields, authors):
        profiles = ProfileTable.from_sets(sets)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.jsonl"
            try:
                write_network_profiles(path, profiles)
            except CorpusError:
                event("refused")
                return
            event("written")
            assert load_network_profiles(path) == (profiles, 0)
            kept, duplicates = load_network_profiles(path, fields=fields, authors=authors)
        read = sorted(NETWORK_FIELDS if fields is None else fields)
        assert duplicates == 0
        assert table_sets(kept, read) == {
            user: members for user, members in table_sets(profiles, read).items()
            if authors is None or user in authors
        }
        for name in NETWORK_FIELDS.keys() - set(read):
            with pytest.raises(UnreadFamilyError):
                kept.members(name, "u")

    def test_held_table_is_a_quarter_of_the_frozenset_layout(self, tmp_path):
        # On a fixed synth corpus (600 users, 12 draws per family), all six
        # families and the two of IN_AT+IN_DM.
        paths = write_corpus(SynthConfig(topics=("a", "b", "c"), users_per_topic=200,
                                         seed=3), tmp_path)

        def held(load, **kwargs):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                loaded = load(paths["profiles"], **kwargs)
                return tracemalloc.get_traced_memory()[0] - before, loaded
            finally:
                tracemalloc.stop()

        for fields in (None, {"in_mentions", "in_domains"}):
            table_bytes, (table, _) = held(load_network_profiles, fields=fields)
            sets_bytes, (sets, _) = held(load_profile_sets, fields=fields)
            read = NETWORK_FIELDS if fields is None else fields
            assert table_sets(table, read) == reference_sets(sets, read)
            assert table_bytes * 4 <= sets_bytes, (fields, table_bytes, sets_bytes)


# Members that pass the screen unseen, members that trip it (a backslash
# escape, a raw DEL, raw non-ASCII, a control character or a lone surrogate
# after normalization), and values that are not arrays of strings.
FILTER_MEMBERS = st.sampled_from(
    ["a", "@B", " www.c.example/x ", "d\\e", "é", "\n@J\t", ""] * 16
    + ["f\x7fg", "h\ni", "\x85", "\ud800k"]
)
FILTER_USERS = ["u0", "u1", "u2", "u3"]


@st.composite
def profile_lines(draw):
    """One line of a profiles file, valid or not."""
    kind = draw(st.sampled_from(["record"] * 38 + ["unparseable", "array"]))
    if kind == "unparseable":
        return "{not json"
    if kind == "array":
        return "[1]"
    record: dict = {}
    if draw(st.integers(0, 39)):
        record["user_id"] = draw(st.sampled_from(FILTER_USERS))
    else:
        record["user_id"] = draw(st.sampled_from([5, "", None, "u\ud800"]))
    for name in NETWORK_FIELDS:
        if draw(st.booleans()):
            record[name] = draw(st.lists(FILTER_MEMBERS, max_size=3))
            if not draw(st.integers(0, 59)):
                record[name] = draw(st.sampled_from(["a", [1], None]))
    surrogate = "\ud800" in json.dumps(record, ensure_ascii=False)
    return json.dumps(record, ensure_ascii=surrogate or draw(st.booleans()))


class TestFilteredLoad:
    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(profile_lines(), max_size=6),
        fields=st.none() | st.sets(st.sampled_from(sorted(NETWORK_FIELDS))),
        authors=st.none() | st.sets(st.sampled_from(FILTER_USERS + ["u9"])),
    )
    def test_filters_change_no_outcome(self, lines, fields, authors):
        # Both loads accept the file or both raise the same message; the
        # filtered one keeps the filtered authors and families of the full
        # one. The frozenset loader it replaced gives the same outcomes.
        outcomes = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.jsonl"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            for kwargs in ({}, {"fields": fields, "authors": authors}):
                for load in (load_network_profiles, load_profile_sets):
                    try:
                        outcomes.append(load(path, **kwargs))
                    except CorpusError as exc:
                        outcomes.append(str(exc))
        full, full_sets, filtered, filtered_sets = outcomes
        if isinstance(full, str):
            event("rejected")
            assert filtered == full_sets == filtered_sets == full
            return
        event("accepted")
        (every, duplicates), (kept, kept_duplicates) = full, filtered
        assert kept_duplicates == duplicates == full_sets[1] == filtered_sets[1]
        assert sorted(kept) == sorted(
            u for u in every if authors is None or u in authors)
        read = sorted(NETWORK_FIELDS if fields is None else fields)
        assert table_sets(every) == reference_sets(full_sets[0])
        assert table_sets(kept, read) == reference_sets(filtered_sets[0], read)
        for user_id in kept:
            for name in read:
                assert (sorted(kept.member_names(name, user_id))
                        == sorted(every.member_names(name, user_id)))
            for name in NETWORK_FIELDS.keys() - set(read):
                with pytest.raises(UnreadFamilyError):
                    kept.members(name, user_id)

    def test_unread_family_raises_when_used(self, tmp_path):
        path = write(tmp_path, "p.jsonl",
                     '{"user_id": "u1", "in_mentions": ["a"], "pn_mentions": ["b"]}\n')
        profiles, _ = load_network_profiles(path, fields={"in_mentions"})
        inst = LabeledInstance("t1", "u1", "A", "", StanceLabel.NONE)
        dataset, _ = join([inst], profiles)
        read, both = FeatureSetSelector.of("IN_AT"), FeatureSetSelector.of("IN_AT", "PN_AT")
        space = FeatureSpace(("inat:a", "pnat:b"), both)
        # The family that was read works as usual.
        assert profiles.member_names("in_mentions", "u1") == ["a"]
        assert extract_features(inst, profiles, read) == {"inat:a"}
        assert [r.tolist() for r in index_rows(FeatureSpace(("inat:a",), read),
                                               [inst], dataset)] == [[0]]
        # An author the file does not hold has no members of it.
        assert profiles.members("in_mentions", "u2").size == 0
        # The unread one never passes for an empty set, whoever the author.
        message = "was not read from the profiles file"
        for use in (lambda: profiles.members("pn_mentions", "u1"),
                    lambda: profiles.members("pn_mentions", "u2"),
                    lambda: profiles.member_names("pn_mentions", "u1"),
                    lambda: extract_features(inst, profiles, both),
                    lambda: index_rows(space, [inst], dataset),
                    lambda: write_network_profiles(tmp_path / "out.jsonl", profiles)):
            with pytest.raises(UnreadFamilyError, match=message):
                use()
        assert not (tmp_path / "out.jsonl").exists()

    def test_unknown_field_rejected(self, tmp_path):
        path = write(tmp_path, "p.jsonl", "")
        with pytest.raises(ValueError, match="in_mention"):
            load_network_profiles(path, fields={"in_mention"})


# Each reader of a text file, with lines it reads. The lines end in "\n",
# "\r\n" and "\r", which a universal-newline reader all counts as line ends.
READERS = {
    "tweets": (load_semeval_tsv,
               ["ID\tTarget\tTweet\tStance\n", "1\tA\thi\tNONE\r\n", "2\tA\tyo\tFAVOR\r"]),
    "profiles": (load_network_profiles,
                 ['{"user_id": "u1"}\n', '{"user_id": "u2"}\r\n', '{"user_id": "u3"}\r']),
    "predictions": (read_predictions,
                    ["ID\tTarget\tGold\tPred\n", "1\tA\tNONE\tNONE\r\n",
                     "2\tA\tFAVOR\tNONE\r"]),
    "labels": (read_label_lines, ["FAVOR\n", "NONE\r\n", "AGAINST\r"]),
    "weights": (lambda path: _read_weights(path, 1),
                ["inat:a\t0.5\n", "inat:b\t0.25\r\n", "inat:c\t1\r"]),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_input_that_is_not_utf8_names_file_and_line(tmp_path, reader):
    load, lines = READERS[reader]
    path = tmp_path / "input"
    path.write_bytes("".join(lines).encode() + b"3\t\xff\n" + "".join(lines).encode())
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line 4 is not UTF-8$"):
        load(path)


# Each reader with a file whose line N is malformed, counting blank lines,
# and N; a header that is missing or wrong, also in an empty file, is line 1.
MALFORMED = {
    "tweets": (load_semeval_tsv, "ID\tTarget\tTweet\tStance\n1\tA\thi\tNONE\n\n2\tA\n", 4),
    "tweets-header": (load_semeval_tsv, "ID\tTweet\n1\thi\n", 1),
    "tweets-empty": (load_semeval_tsv, "", 1),
    "profiles": (load_network_profiles, '{"user_id": "u1"}\n\n{"user_id": 1}\n', 3),
    "predictions": (read_predictions,
                    "ID\tTarget\tGold\tPred\n1\tA\tNONE\tNONE\n\n2\tA\tMAYBE\tNONE\n", 4),
    "predictions-header": (read_predictions, "1\tA\tNONE\tNONE\n", 1),
    "predictions-empty": (read_predictions, "", 1),
    "labels": (read_label_lines, "FAVOR\n\nNONE\n", 3),
    "labels-stance": (read_label_lines, "FAVOR\nMAYBE\n", 2),
    "weights": (READERS["weights"][0], "inat:a\t0.5\ninat:b\t1\ninat:a\t1\n", 3),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_line_names_file_and_line(tmp_path, case):
    load, text, lineno = MALFORMED[case]
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}: line {lineno}: "):
        load(path)
    with pytest.raises(FileNotFoundError):  # an OSError, not a line of the file
        load(tmp_path / "missing")


class TestJoin:
    def _instances(self):
        return [
            LabeledInstance(str(i), f"u{i}", "A", "t", StanceLabel.NONE)
            for i in range(3)
        ]

    def _profiles(self):
        return ProfileTable.from_sets({"u0": {}, "u1": {}})

    def test_require_profile_drops_and_counts(self):
        dataset, dropped = join(self._instances(), self._profiles(),
                                require_profile=True)
        assert len(dataset.instances) == 2
        assert dropped == 1
        assert all(i.author_id in dataset.profiles for i in dataset.instances)

    def test_missing_profiles_filled_with_empty_sets(self):
        dataset, dropped = join(self._instances(), self._profiles(),
                                require_profile=False)
        assert len(dataset.instances) == 3
        assert dropped == 0
        assert "u2" not in dataset.profiles
        assert all(dataset.profiles.members(f, "u2").size == 0 for f in (
            "in_mentions", "in_domains", "pn_mentions", "pn_domains",
            "cn_friends", "cn_followers"))

    def test_holds_the_callers_profiles(self):
        profiles = self._profiles()
        for require_profile in (False, True):
            dataset, _ = join(self._instances(), profiles, require_profile)
            assert dataset.profiles is profiles
        assert sorted(profiles) == ["u0", "u1"]

    def test_empty_input(self):
        dataset, dropped = join([], ProfileTable.from_sets({}), require_profile=True)
        assert dataset.instances == ()
        assert dataset.topics == ()
        assert dropped == 0

    def test_topics_in_first_appearance_order(self):
        instances = [
            LabeledInstance("1", "u1", "B", "", StanceLabel.NONE),
            LabeledInstance("2", "u2", "A", "", StanceLabel.NONE),
            LabeledInstance("3", "u3", "B", "", StanceLabel.NONE),
        ]
        dataset, _ = join(instances, ProfileTable.from_sets({}))
        assert dataset.topics == ("B", "A")

    def test_load_join_deterministic(self, tmp_path):
        tweets = write(
            tmp_path, "t.tsv",
            "ID\tTarget\tTweet\tStance\tAuthorID\n"
            "1\tA\thello there\tFAVOR\tu1\n"
            "2\tA\tbye now\tAGAINST\tu2\n",
        )
        profs = write(
            tmp_path, "p.jsonl",
            '{"user_id": "u1", "cn_friends": ["x", "y"]}\n',
        )
        def build():
            profiles, _ = load_network_profiles(profs)
            return join(load_semeval_tsv(tweets), profiles, require_profile=True)
        assert build() == build()
