import json
import re
import tempfile
from dataclasses import replace
import unicodedata
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from stancelab.corpus import (
    CorpusError,
    LabeledInstance,
    NETWORK_FIELDS,
    StanceLabel,
    UnreadFamilyError,
    UserNetworkProfile,
    join,
    load_network_profiles,
    load_semeval_tsv,
    normalize_account,
    normalize_domain,
    write_network_profiles,
    write_semeval_tsv,
)
from stancelab.features import (
    FeatureSetSelector,
    FeatureSpace,
    extract_features,
    index_rows,
)


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

    def test_unknown_stance_names_value_and_line(self, tmp_path):
        path = write(
            tmp_path, "t.tsv",
            "ID\tTarget\tTweet\tStance\n1\tA\thi\tMAYBE\n",
        )
        with pytest.raises(CorpusError, match="'MAYBE' at line 2"):
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
# table-driven from_raw.
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
    @given(st.dictionaries(st.sampled_from(sorted(PER_FIELD_NORMALIZER)),
                           st.lists(RAW_MEMBERS, max_size=5)))
    def test_matches_the_per_field_normalizers(self, sets):
        profile = UserNetworkProfile.from_raw("u1", **sets)
        assert profile.user_id == "u1"
        for name, normalize in PER_FIELD_NORMALIZER.items():
            expected = {normalize(v) for v in sets.get(name, [])} - {""}
            assert profile.set_for(name) == expected

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="in_mention"):
            UserNetworkProfile.from_raw("u1", in_mention=["a"])


class TestLoadProfiles:
    def test_normalizes_and_collapses(self, tmp_path):
        path = write(
            tmp_path, "p.jsonl",
            '{"user_id": "u1", "in_mentions": ["@FoxNews", "foxnews"], '
            '"in_domains": ["https://www.bbc.co.uk/news/x"]}\n',
        )
        profiles, dupes = load_network_profiles(path)
        assert dupes == 0
        assert profiles["u1"].in_mentions == {"foxnews"}
        assert profiles["u1"].in_domains == {"bbc.co.uk"}
        assert profiles["u1"].cn_friends == frozenset()

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "p.jsonl", "")
        profiles, dupes = load_network_profiles(path)
        assert profiles == {} and dupes == 0

    def test_duplicate_user_last_wins_and_counted(self, tmp_path):
        path = write(
            tmp_path, "p.jsonl",
            '{"user_id": "u1", "in_mentions": ["a"]}\n'
            '{"user_id": "u1", "in_mentions": ["b"]}\n',
        )
        profiles, dupes = load_network_profiles(path)
        assert dupes == 1
        assert profiles["u1"].in_mentions == {"b"}

    def test_unparseable_line_names_line(self, tmp_path):
        path = write(tmp_path, "p.jsonl", '{"user_id": "u1"}\nnot json\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_network_profiles(path)

    def test_missing_user_id(self, tmp_path):
        path = write(tmp_path, "p.jsonl", '{"in_mentions": ["a"]}\n')
        with pytest.raises(CorpusError, match="user_id"):
            load_network_profiles(path)

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
            CorpusError, match=r"p\.jsonl: field 'cn_friends' at line 2"
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
                with pytest.raises(CorpusError, match="'in_mentions' at line 1"):
                    load_network_profiles(path)
            else:
                profiles, _ = load_network_profiles(path)
                assert profiles["u1"].in_mentions == {
                    normalize_account(m) for m in members
                } - {""}

    def test_control_characters_stripped_by_normalization_accepted(self, tmp_path):
        path = write(
            tmp_path, "p.jsonl",
            '{"user_id": "u1", "in_mentions": ["\\n@A\\t"], '
            '"in_domains": ["https://x.example/a\\nb"]}\n',
        )
        profiles, _ = load_network_profiles(path)
        assert profiles["u1"].in_mentions == {"a"}
        assert profiles["u1"].in_domains == {"x.example"}

    def test_round_trip(self, tmp_path):
        profiles = {
            "u1": UserNetworkProfile.from_raw(
                "u1", in_mentions=["@A", "b"], pn_domains=["x.example"]
            ),
            "u2": UserNetworkProfile.empty("u2"),
        }
        path = tmp_path / "out.jsonl"
        write_network_profiles(path, profiles)
        loaded, _ = load_network_profiles(path)
        assert loaded == profiles

    @pytest.mark.parametrize("key, profile, field", [
        ("u", UserNetworkProfile.from_raw("u", in_mentions=["a\x01b"]),
         "in_mentions"),
        ("u", UserNetworkProfile("u", in_mentions=frozenset({"@A"})),
         "in_mentions"),
        ("u", UserNetworkProfile("u", pn_domains=frozenset({"www.x.example"})),
         "pn_domains"),
        ("u", UserNetworkProfile("u", cn_followers=frozenset({""})),
         "cn_followers"),
        ("x", UserNetworkProfile("y"), "user_id"),
        ("", UserNetworkProfile(""), "user_id"),
        ("a\ud800", UserNetworkProfile("a\ud800"), "user_id"),
    ], ids=["control", "unnormalized-account", "unnormalized-domain", "empty",
            "other-key", "empty-id", "surrogate-id"])
    def test_write_refuses_what_load_reads_back_differently(
        self, tmp_path, key, profile, field
    ):
        path = tmp_path / "out.jsonl"
        profiles = {"a": UserNetworkProfile.empty("a"), key: profile}
        message = re.escape(f"user {key!r}: field {field!r}")
        with pytest.raises(CorpusError, match=message):
            write_network_profiles(path, profiles)
        assert not path.exists()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_written_profiles_read_back_equal_or_are_refused(self, data):
        clean = st.lists(st.sampled_from(["a", "b", "b.example", "x.b.example"]),
                         max_size=3).map(frozenset)
        keys = data.draw(st.lists(st.sampled_from(["u", "v", " u", "İ"]),
                                  min_size=1, max_size=3, unique=True))
        profiles = {
            key: UserNetworkProfile(key, **{
                name: data.draw(clean) for name in NETWORK_FIELDS
            })
            for key in keys
        }
        # At most one change, which may or may not stop a read-back.
        key = data.draw(st.sampled_from(keys))
        change = data.draw(st.sampled_from(["none", "member", "user_id", "key"]))
        event(change)
        if change == "member":
            name = data.draw(st.sampled_from(sorted(NETWORK_FIELDS)))
            member = data.draw(st.one_of(
                st.text(st.characters(), max_size=4),
                st.sampled_from(["", "@a", "A", " a", "www.b.example",
                                 "b.example/x", "a\x01", "\ud800", "a", "b.example"]),
            ))
            profiles[key] = replace(
                profiles[key], **{name: getattr(profiles[key], name) | {member}}
            )
        elif change == "user_id":
            user_id = data.draw(st.sampled_from(["u", "w", "", "u\ud800"]))
            profiles[key] = replace(profiles[key], user_id=user_id)
        elif change == "key":
            new_key = data.draw(st.sampled_from(["w", "", "u\ud800"]))
            profiles[new_key] = replace(profiles.pop(key), user_id=new_key)
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
        record["user_id"] = draw(st.sampled_from([5, "", None]))
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
        # filtered one keeps the filtered authors and families of the full one.
        outcomes = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.jsonl"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            for kwargs in ({}, {"fields": fields, "authors": authors}):
                try:
                    outcomes.append(load_network_profiles(path, **kwargs))
                except CorpusError as exc:
                    outcomes.append(str(exc))
        full, filtered = outcomes
        if isinstance(full, str):
            event("rejected")
            assert filtered == full
            return
        event("accepted")
        (every, duplicates), (kept, kept_duplicates) = full, filtered
        assert kept_duplicates == duplicates
        assert sorted(kept) == sorted(
            u for u in every if authors is None or u in authors)
        for user_id, profile in kept.items():
            assert profile.user_id == user_id
            for name in NETWORK_FIELDS:
                if fields is None or name in fields:
                    assert profile.set_for(name) == every[user_id].set_for(name)
                else:
                    with pytest.raises(UnreadFamilyError):
                        profile.set_for(name)

    def test_unread_family_raises_when_used(self, tmp_path):
        path = write(tmp_path, "p.jsonl",
                     '{"user_id": "u1", "in_mentions": ["a"], "pn_mentions": ["b"]}\n')
        profiles, _ = load_network_profiles(path, fields={"in_mentions"})
        profile = profiles["u1"]
        inst = LabeledInstance("t1", "u1", "A", "", StanceLabel.NONE)
        dataset, _ = join([inst], profiles)
        read, both = FeatureSetSelector.of("IN_AT"), FeatureSetSelector.of("IN_AT", "PN_AT")
        space = FeatureSpace({"inat:a": 0, "pnat:b": 1}, both)
        # The family that was read works as usual.
        assert profile.set_for("in_mentions") == {"a"}
        assert extract_features(inst, profile, read) == {"inat:a"}
        assert [r.tolist() for r in index_rows(FeatureSpace({"inat:a": 0}, read),
                                               [inst], dataset)] == [[0]]
        # The unread one never passes for an empty set.
        message = "was not read from the profiles file"
        for use in (lambda: profile.set_for("pn_mentions"),
                    lambda: len(profile.pn_mentions),
                    lambda: "b" in profile.pn_mentions,
                    lambda: extract_features(inst, profile, both),
                    lambda: index_rows(space, [inst], dataset),
                    lambda: write_network_profiles(tmp_path / "out.jsonl", profiles)):
            with pytest.raises(UnreadFamilyError, match=message):
                use()
        assert not (tmp_path / "out.jsonl").exists()
        # An author the file does not hold still has empty sets.
        assert dataset.profile_for("u2").set_for("pn_mentions") == frozenset()

    def test_unknown_field_rejected(self, tmp_path):
        path = write(tmp_path, "p.jsonl", "")
        with pytest.raises(ValueError, match="in_mention"):
            load_network_profiles(path, fields={"in_mention"})


class TestJoin:
    def _instances(self):
        return [
            LabeledInstance(str(i), f"u{i}", "A", "t", StanceLabel.NONE)
            for i in range(3)
        ]

    def _profiles(self):
        return {
            "u0": UserNetworkProfile.empty("u0"),
            "u1": UserNetworkProfile.empty("u1"),
        }

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
        profile = dataset.profile_for("u2")
        assert profile.user_id == "u2"
        assert all(not getattr(profile, f) for f in (
            "in_mentions", "in_domains", "pn_mentions", "pn_domains",
            "cn_friends", "cn_followers"))

    def test_holds_the_callers_profiles(self):
        profiles = self._profiles()
        for require_profile in (False, True):
            dataset, _ = join(self._instances(), profiles, require_profile)
            assert dataset.profiles is profiles
        assert sorted(profiles) == ["u0", "u1"]

    def test_empty_input(self):
        dataset, dropped = join([], {}, require_profile=True)
        assert dataset.instances == ()
        assert dataset.topics == ()
        assert dropped == 0

    def test_topics_in_first_appearance_order(self):
        instances = [
            LabeledInstance("1", "u1", "B", "", StanceLabel.NONE),
            LabeledInstance("2", "u2", "A", "", StanceLabel.NONE),
            LabeledInstance("3", "u3", "B", "", StanceLabel.NONE),
        ]
        dataset, _ = join(instances, {})
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
