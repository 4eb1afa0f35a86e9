"""Command-line entry points: synth, train, predict, evaluate, experiment,
analyze.

The CLI parses flags, loads the inputs they name, calls the library and
prints; the experiment grid itself runs in stancelab.experiment. Every
command is reproducible from its flags plus --seed. Exit codes: 0 success;
1 usage error, before any output is written; 2 data error, an unreadable or
malformed input reported in one line (a malformed line of an input file as
``stancelab: PATH: line N: problem``); 3 experiment-cell failure. Any other
exception is a program bug and prints its traceback.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields
from itertools import tee
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .analysis import user_consistency, write_consistency_csv, write_rankings_csv
from .corpus import (
    CorpusError, Dataset, LabeledInstance, ProfileTable, join,
    load_network_profiles, load_semeval_tsv, output_file, read_semeval_tsv,
)
from .experiment import (
    CellContext, capped_fit_lines, model_rankings, run_experiment, unique_slugs,
    write_overlap_csvs, write_report_dir,
)
from .features import NETWORK_FLAG_SOURCES, FeatureSetSelector
from .linsvm import LOSSES, MODE_CLASSES, LinearModel, TrainConfig
from .linsvm import load_bundle, save_bundle
from .order import check_seed
from .pipeline import check_topics, predict_dataset, predict_stream, train_topic_models
from .scoring import (
    kfold, mann_whitney_u, paired_t_test, read_label_lines, read_predictions,
    score_semeval, write_predictions,
)
from .synth import SynthConfig, write_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CELL = 3

# The synth flags that each set one SynthConfig field, in --help order; the
# field's default is the flag's default.
_SYNTH_FLAGS = {
    "--users-per-topic": "users_per_topic", "--tweets-per-user": "tweets_per_user",
    "--homophily": "homophily", "--text-signal": "text_signal",
    "--silent-fraction": "silent_fraction", "--community-pool": "community_pool_size",
    "--shared-pool": "shared_pool_size", "--items-per-set": "items_per_set",
    "--tokens-per-tweet": "tokens_per_tweet", "--vocab": "generic_vocab_size",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@contextmanager
def _flag_values(parser: argparse.ArgumentParser) -> Iterator[None]:
    """Reports a ValueError of the block as a usage error. The block builds
    configs and selectors from flags, so it runs before any input is read
    (a CorpusError is a ValueError too)."""
    try:
        yield
    except ValueError as exc:
        parser.error(str(exc))


def _parse_list(text: str, parse: Callable[[str], object], noun: str) -> list:
    """The comma-separated values of a list flag; blank entries are skipped."""
    values = [parse(part) for part in map(str.strip, text.split(",")) if part]
    if not values:
        raise ValueError(f"no {noun}s given")
    if len(set(values)) < len(values):
        raise ValueError(f"repeated {noun} in {text!r}")
    return values


def _parse_mode(mode: str) -> str:
    if mode not in MODE_CLASSES:
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def _parse_prior(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("prior needs three comma-separated weights")
    return parts[0], parts[1], parts[2]


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})


def _load_profiles(path: str | None, **filters) -> ProfileTable:
    """The profiles of a --profiles file, every family of every profile
    unless filters narrow them, or none without one. Each command reads the
    file at most once, and says on stderr how many records repeat a user."""
    if not path:
        return ProfileTable.from_sets({})
    profiles, duplicates = load_network_profiles(path, **filters)
    if duplicates:
        print(f"stancelab: --profiles {path}: {duplicates} records repeat an earlier "
              "user_id; the last of each is used", file=sys.stderr)
    return profiles


def _join(
    instances: Sequence[LabeledInstance],
    profiles: ProfileTable,
    require_profile: bool,
) -> Dataset:
    dataset, dropped = join(instances, profiles, require_profile=require_profile)
    _report_dropped(dropped)
    return dataset


def _report_dropped(dropped: int) -> None:
    if dropped:
        print(f"dropped {dropped} instances without profiles", file=sys.stderr)


def _families(selectors: Iterable[FeatureSetSelector]) -> set[str]:
    """The profile families the selectors use."""
    return {NETWORK_FLAG_SOURCES[flag][1] for s in selectors for flag in s.flags - {"TXT"}}


def _load_dataset_for(
    selectors: Iterable[FeatureSetSelector],
    tweets_path: str,
    profiles_path: str | None,
    require_profile: bool,
) -> Dataset:
    """Reads --tweets, then only what the selectors use of --profiles: their
    families, of the tweets' authors."""
    instances = load_semeval_tsv(tweets_path)
    profiles = _load_profiles(profiles_path, fields=_families(selectors),
                              authors={inst.author_id for inst in instances})
    return _join(instances, profiles, require_profile)


def _check_profiles_flag(
    parser: argparse.ArgumentParser,
    selectors: Sequence[FeatureSetSelector],
    profiles_path: str | None,
) -> None:
    if any(s.uses_profiles for s in selectors) and not profiles_path:
        parser.error("network selectors require --profiles")


def _align(flag: str, path: str, rows: Sequence, name: str, ref: Sequence) -> None:
    """The one check of a paired input: its rows, (id, topic) pairs or
    positions, are ref's in order, or the error names the first that differs."""
    if rows != ref:
        n = next((n for n, (a, b) in enumerate(zip(rows, ref)) if a != b), None)
        raise CorpusError(f"{flag} {path}: " + (
            f"{len(rows)} rows, where {name} has {len(ref)}" if n is None
            else f"row {n + 1} is {rows[n]}, where {name} has {ref[n]}"))


def _load_models(bundles_dir: str) -> dict[str, LinearModel]:
    root = Path(bundles_dir)
    models: dict[str, LinearModel] = {}
    candidates = [root] if (root / "metadata.json").exists() else sorted(root.iterdir())
    for entry in candidates:
        if not entry.is_dir() or not (entry / "metadata.json").exists():
            continue
        model, meta = load_bundle(entry)
        topic = meta["topic"]
        if topic in models:
            raise CorpusError(f"duplicate bundle for topic {topic!r} in {root}")
        models[topic] = model
    if not models:
        raise CorpusError(f"no model bundles found under {bundles_dir}")
    return models


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_synth(args: argparse.Namespace) -> int:
    with _flag_values(args.parser):
        config = SynthConfig(
            topics=tuple(t.strip() for t in args.topics.split(",") if t.strip()),
            stance_prior=_parse_prior(args.prior),
            seed=args.seed,
            **{name: getattr(args, name) for name in _SYNTH_FLAGS.values()},
        )
    paths = write_corpus(config, args.out)
    for name in ("train", "test", "profiles", "manifest"):
        print(f"{name}: {paths[name]}")
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    with _flag_values(args.parser):
        selector = FeatureSetSelector.parse(args.selector)
        config = _train_config(args)
    _check_profiles_flag(args.parser, [selector], args.profiles)
    train = _load_dataset_for(
        [selector], args.tweets, args.profiles, args.require_profile
    )
    models = train_topic_models(train, selector, args.mode, config)
    slugs = unique_slugs(train.topics)
    out = Path(args.out)
    for topic, model in models.items():
        bundle_dir = out / f"{slugs[topic]}__{selector}__{args.mode}"
        save_bundle(model, bundle_dir, topic=topic)
        print(f"bundle: {bundle_dir}")
    for line in capped_fit_lines(models.items()):
        print(f"stancelab: {line}", file=sys.stderr)
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace) -> int:
    models = _load_models(args.bundles)
    selectors = [model.space.selector for model in models.values()]
    _check_profiles_flag(args.parser, selectors, args.profiles)
    tweets = args.tweets
    if not stat.S_ISREG(os.stat(tweets).st_mode):
        raise CorpusError(f"--tweets {tweets}: not a regular file; predict reads it twice")
    # Pass 1 reads the authors and topics, so that a malformed line or a
    # topic without a bundle exits before --profiles is read.
    tweets_of: Counter[str] = Counter()
    topics: dict[str, None] = {}
    for inst in read_semeval_tsv(tweets):
        tweets_of[inst.author_id] += 1
        topics.setdefault(inst.topic)
    check_topics(models, topics)
    profiles = _load_profiles(args.profiles, fields=_families(selectors),
                              authors=tweets_of)
    if args.require_profile:
        _report_dropped(sum(n for author, n in tweets_of.items() if author not in profiles))

    def second_pass() -> Iterator[LabeledInstance]:
        read = 0
        for read, inst in enumerate(read_semeval_tsv(tweets), start=1):
            yield inst
        if read != tweets_of.total():
            raise CorpusError(f"--tweets {tweets}: the file changed while predict read it")

    # Pass 2 predicts one chunk at a time. write_predictions reads the two
    # views of the rows in lockstep, so tee buffers only a few dozen rows.
    left, right = tee(predict_stream(models, second_pass(), profiles,
                                     args.require_profile))
    write_predictions(args.out, (inst for inst, _ in left),
                      (label for _, label in right))
    print(f"predictions: {args.out}")
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if sum(map(bool, (args.predictions, args.gold or args.pred_labels,
                      args.bundles))) > 1:
        args.parser.error("give only one of --predictions, --gold with "
                          "--pred-labels, or --bundles")
    if args.predictions or (args.gold and args.pred_labels):
        primary, bundles = args.predictions, None
    elif args.bundles:
        primary = bundles = args.bundles
        if not Path(bundles).is_dir():
            raise CorpusError(f"--bundles {bundles}: not a directory of bundles")
    else:
        args.parser.error(
            "provide --predictions, or --gold with --pred-labels, or --bundles"
        )
    # Both sides' bundles load before --tweets, so that --profiles is read
    # once, with every family either side uses.
    bundle_dirs = [s for s in (bundles, args.compare) if s and Path(s).is_dir()]
    if bundle_dirs and not args.tweets:
        args.parser.error("scoring a bundles directory requires --tweets")
    model_sets = {source: _load_models(source) for source in bundle_dirs}
    selectors = [m.space.selector for ms in model_sets.values() for m in ms.values()]
    _check_profiles_flag(args.parser, selectors, args.profiles)
    dataset = (_load_dataset_for(selectors, args.tweets, args.profiles,
                                 args.require_profile)
               if args.tweets else None)

    def predictions_from(source: str | None):
        """(ids, topics, gold, pred) from a predictions TSV, from a bundles
        directory scored on --tweets and --profiles, or, for no source, from
        --gold and --pred-labels, which pair by position."""
        if source is None:
            instances = load_semeval_tsv(args.gold)
            pred = read_label_lines(args.pred_labels)
            _align("--pred-labels", args.pred_labels, range(len(pred)), "--gold",
                   range(len(instances)))
        elif source in model_sets:
            instances = dataset.instances
            pred = predict_dataset(model_sets[source], dataset)
        else:
            return read_predictions(source)
        return ([i.tweet_id for i in instances], [i.topic for i in instances],
                [i.label for i in instances], pred)

    # Each side aligns with the joined --tweets or, without it, the first side.
    first = "--bundles" if bundles else "--predictions" if primary else "--gold"
    ids, topics, gold, pred = predictions_from(primary)
    reference = (("--tweets", [(i.tweet_id, i.topic) for i in dataset.instances])
                 if dataset else (first, list(zip(ids, topics))))
    _align(first, primary or args.gold, list(zip(ids, topics)), *reference)
    report = score_semeval(gold, pred, topics)
    # Everything that can fail comes before the first file is written.
    significance = ""
    if args.compare:
        cmp_ids, cmp_topics, cmp_gold, cmp_pred = predictions_from(args.compare)
        _align("--compare", args.compare, list(zip(cmp_ids, cmp_topics)), *reference)
        units = (topics if args.pair_unit == "topic"
                 else kfold(len(gold), args.folds, args.seed))
        reports = [score_semeval(gold, pred, units),
                   score_semeval(cmp_gold, cmp_pred, units)]
        a, b = ([r.per_topic[u].f_avg for u in sorted(r.per_topic)] for r in reports)
        lines = [f"pair_unit={args.pair_unit}", f"n_units={len(a)}"]
        lines.append("f_avg_a=" + ",".join(f"{v:.4f}" for v in a))
        lines.append("f_avg_b=" + ",".join(f"{v:.4f}" for v in b))
        try:
            lines.append(f"t_test_p={paired_t_test(a, b):.6f}")
        except ValueError as exc:
            lines.append(f"t_test_p=n/a ({exc})")
        u = mann_whitney_u(a, b)
        lines.append(f"u_test_p={u.p_value:.6f} ({u.method})")
        significance = "\n".join(lines) + "\n"
    out = Path(args.out)
    print(write_report_dir(report, out), end="")
    if significance:
        with output_file(out / "significance.txt") as fh:
            fh.write(significance)
        print(significance, end="")
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    with _flag_values(args.parser):
        selectors = _parse_list(args.selectors, FeatureSetSelector.parse, "selector")
        config = _train_config(args)
        modes = _parse_list(args.modes, _parse_mode, "mode")
    _check_profiles_flag(args.parser, selectors, args.profiles)
    profiles = _load_profiles(args.profiles)
    train = _join(load_semeval_tsv(args.tweets), profiles, args.require_profile)
    test = _join(load_semeval_tsv(args.test), profiles, args.require_profile)
    # Every cell would fail on a test topic with no model. Without any
    # training tweets they fail as they are, with "no training instances".
    missing = [t for t in test.topics if t not in train.topics]
    if train.topics and missing:
        raise CorpusError(f"--test {args.test}: topic {missing[0]!r} has no "
                          f"tweets in --tweets {args.tweets}")
    # A network row depends only on its author, so a network cell can
    # memorize an author whose tweets are on both sides.
    shared = ({(i.author_id, i.topic) for i in train.instances}
              & {(i.author_id, i.topic) for i in test.instances})
    if shared:
        print(f"stancelab: {len(shared)} (author, topic) pairs are in both "
              "--tweets and --test; network cells can memorize their authors",
              file=sys.stderr)
    context = CellContext(train, test, config, Path(args.out), args.top_n,
                          args.curve_max)
    results = run_experiment(context, selectors, modes, args.jobs)
    print(f"master: {context.out / 'master.csv'}")
    for result in results:
        for line in result.capped_fits:
            print(f"stancelab: cell {result.selector} {result.mode}: {line}",
                  file=sys.stderr)
    failed = [r for r in results if r.report is None]
    for result in failed:
        print(
            f"cell failed: {result.selector} {result.mode}: {result.error}",
            file=sys.stderr,
        )
    return EXIT_CELL if failed else EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    if not (args.profiles or args.bundles or args.predictions):
        args.parser.error("nothing to analyze: pass --profiles, --bundles, "
                          "or --predictions")
    if args.predictions and not args.tweets:
        args.parser.error("--predictions needs --tweets for author grouping")
    # Everything that can fail comes before the first file is written.
    profiles = _load_profiles(args.profiles)
    if args.profiles and not profiles:
        raise CorpusError(f"{args.profiles}: no profiles")
    models = _load_models(args.bundles) if args.bundles else {}
    if args.predictions:
        dataset = _join(load_semeval_tsv(args.tweets), profiles, args.require_profile)
        ids, topics, _, pred = read_predictions(args.predictions)
        _align("--predictions", args.predictions, list(zip(ids, topics)), "--tweets",
               [(i.tweet_id, i.topic) for i in dataset.instances])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if profiles:
        write_overlap_csvs(profiles, out)
    if models:
        rankings = model_rankings(sorted(models.items()), args.top_n)
        write_rankings_csv(rankings, out / "top_features.csv")
    if args.predictions:
        report = user_consistency(dataset, pred)
        write_consistency_csv({"predictions": report}, out / "user_consistency.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring.


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer of at least low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _seed(text: str) -> int:
    """An argparse type: a seed, an integer in 0..2**64-1 (order.check_seed)."""
    value = int(text)
    try:
        check_seed(value)
    except ValueError as exc:  # "seed must be ...", after "argument --seed: "
        raise argparse.ArgumentTypeError(
            f"{str(exc).removeprefix('seed ')}, got {value}") from None
    return value


_seed.__name__ = "int"  # as in _int_at_least


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--C", type=float, default=TrainConfig.C, help="SVM cost parameter")
    parser.add_argument("--tol", type=float, default=TrainConfig.tol,
                        help="dual stopping tolerance: bounds the projected "
                        "gradients seen during the final epoch, not the "
                        "violation at the returned model")
    parser.add_argument("--max-iter", type=int, default=TrainConfig.max_iter,
                        help="epoch cap")
    parser.add_argument("--loss", choices=LOSSES, default=TrainConfig.loss)
    parser.add_argument("--min-df", type=_int_at_least(1), default=TrainConfig.min_df,
                        help="minimum training document frequency per feature")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stancelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=SynthConfig.seed)
    p.add_argument("--topics", default="alpha,beta,gamma")
    for flag, name in _SYNTH_FLAGS.items():
        if flag == "--homophily":  # --prior keeps its place in --help
            p.add_argument("--prior", help="against,favor,none weights",
                           default=",".join(map(str, SynthConfig.stance_prior)))
        default = getattr(SynthConfig, name)
        p.add_argument(flag, dest=name, metavar=flag[2:].upper().replace("-", "_"),
                       type=type(default), default=default)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train per-topic models into bundles")
    p.add_argument("--tweets", required=True)
    p.add_argument("--profiles")
    p.add_argument("--selector", required=True,
                   help="e.g. TXT or IN_AT+IN_DM or TXT+IN_AT+IN_DM")
    p.add_argument("--mode", choices=MODE_CLASSES, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=TrainConfig.seed)
    p.add_argument("--require-profile", action="store_true",
                   help="drop instances whose author has no profile")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict with saved bundles")
    p.add_argument("--bundles", required=True)
    p.add_argument("--tweets", required=True,
                   help="tweets TSV to label; it is read twice, so it must be a "
                   "regular file, not a pipe")
    p.add_argument("--profiles")
    p.add_argument("--out", required=True)
    p.add_argument("--require-profile", action="store_true")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions the official way")
    p.add_argument("--predictions", help="TSV with ID, Target, Gold, Pred; "
                   "without --tweets, a file cut at a line boundary is "
                   "scored as it stands")
    p.add_argument("--gold", help="gold tweets TSV (with --pred-labels)")
    p.add_argument("--pred-labels", help="one predicted label per line")
    p.add_argument("--bundles", help="bundle directory to score (with --tweets)")
    p.add_argument("--tweets", help="tweets the --bundles are scored on and every "
                   "other side is aligned with")
    p.add_argument("--profiles")
    p.add_argument("--out", required=True)
    p.add_argument("--compare",
                   help="second predictions TSV or bundles dir for significance tests")
    p.add_argument("--pair-unit", choices=("topic", "fold"), default="topic")
    p.add_argument("--folds", type=_int_at_least(2), default=5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--require-profile", action="store_true",
                   help="score bundles on the --tweets whose author has a "
                   "profile, as predict --require-profile does")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="run the full selector/mode matrix")
    p.add_argument("--tweets", required=True, help="training tweets TSV")
    p.add_argument("--test", required=True, help="test tweets TSV")
    p.add_argument("--profiles")
    p.add_argument("--selectors", required=True, help="comma-separated selector list")
    p.add_argument("--modes", default="ternary,binary")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=TrainConfig.seed)
    p.add_argument("--jobs", type=_int_at_least(1), default=1,
                   help="worker processes for experiment cells, which start "
                   "together and take the costliest cells first; "
                   "output is identical to --jobs 1")
    p.add_argument("--top-n", type=_int_at_least(1), default=20,
                   help="rows per class in each top_features CSV")
    p.add_argument("--curve-max", type=_int_at_least(1), default=200,
                   help="largest N of the top-N overlap curves, which are read "
                   "from the single-flag cells of the compared families")
    p.add_argument("--require-profile", action="store_true")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("analyze", help="overlap, rankings, consistency reports")
    p.add_argument("--profiles")
    p.add_argument("--bundles")
    p.add_argument("--predictions")
    p.add_argument("--tweets")
    p.add_argument("--out", required=True)
    p.add_argument("--top-n", type=_int_at_least(1), default=20,
                   help="rows per class in top_features.csv")
    p.add_argument("--require-profile", action="store_true",
                   help="group --predictions over the --tweets whose author "
                   "has a profile, as predict --require-profile does")
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.parser = parser
    if getattr(args, "require_profile", False) and not args.profiles:
        parser.error("--require-profile needs --profiles")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"stancelab: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
