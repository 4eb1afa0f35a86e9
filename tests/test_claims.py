"""The paper's claims as executable checks on synthetic corpora.

Each check runs on five generator seeds. A margin comes from the spread
measured over those seeds; it is not to be loosened to get a pass.

The corpora have three topics of 60 users, text signal 0.3 and 8 items per
profile set; the cells train IN_AT ternary models with the default config.
IN_AT F_avg measured at homophily 0.2 / 0.4 / 0.6:

    seed 0: 0.528 0.703 0.892
    seed 1: 0.488 0.714 0.851
    seed 2: 0.553 0.713 0.895
    seed 3: 0.440 0.696 0.859
    seed 4: 0.558 0.741 0.900

Claim 2(e), margin half: the planted community accounts lead each class's
ranking. The worst precision@10 of ``top_features`` against the class's
own community pool (``_fav_`` for FAVOR, ``_agn_`` for AGAINST) over the
three topics and both polarized classes, at homophily 0.2 / 0.4 / 0.6
(the pools are 60 of a topic's 240 accounts, so chance is 0.25):

    seed 0: 0.2 0.5 0.9
    seed 1: 0.1 0.4 0.7
    seed 2: 0.2 0.5 0.7
    seed 3: 0.2 0.5 0.7
    seed 4: 0.1 0.5 0.8

Claim 2(c), privacy: silent users (who post empty texts) are profiled from
their network as well as posting users are. Three topics of 200 users,
30% of them silent, homophily 0.4, text signal 0.3, 8 items per set,
ternary; F_avg of the posting and of the silent test tweets:

    seed   IN_AT posting silent   TXT posting silent
    0            0.817   0.805        0.550   0.288
    1            0.784   0.830        0.553   0.381
    2            0.849   0.836        0.547   0.000
    3            0.772   0.715        0.582   0.404
    4            0.847   0.862        0.593   0.332

IN_AT's two scores differ by at most 0.057; TXT drops by 0.172 or more.
"""

import pytest

from stancelab.analysis import top_features, user_consistency
from stancelab.corpus import StanceLabel
from stancelab.features import FeatureSetSelector
from stancelab.linsvm import TrainConfig
from stancelab.pipeline import run_cell
from stancelab.scoring import score_semeval
from stancelab.synth import SynthConfig, generate

SEEDS = range(5)
HOMOPHILY = (0.2, 0.4, 0.6)
# Each homophily step above raised F_avg by 0.138 to 0.256; a step must keep
# at least half of the smallest of them.
MIN_STEP = 0.06
# The worst precision@10 at homophily 0.6 was 0.7 or more, and it rose by
# 0.5 to 0.7 from homophily 0.2.
MIN_PRECISION_AT_10 = 0.5
MIN_PRECISION_RISE = 0.3
COMMUNITY_TAG = {StanceLabel.FAVOR: "_fav_", StanceLabel.AGAINST: "_agn_"}
# IN_AT's posting and silent F_avg differed by at most 0.057, and TXT's
# silent F_avg fell below its posting one by at least 0.172.
MAX_NETWORK_GAP = 0.1
MIN_TEXT_DROP = 0.1


@pytest.fixture(scope="module")
def network_cells():
    """(seed, homophily) -> (test split, report, predictions, models) of
    IN_AT."""
    cells = {}
    for seed in SEEDS:
        for homophily in HOMOPHILY:
            train, test = generate(SynthConfig(
                topics=("alpha", "beta", "gamma"), users_per_topic=60,
                homophily=homophily, text_signal=0.3, items_per_set=8,
                seed=seed,
            ))
            models, report, predictions = run_cell(
                train, test, FeatureSetSelector.parse("IN_AT"), "ternary",
                TrainConfig(),
            )
            cells[seed, homophily] = test, report, predictions, models
    return cells


@pytest.mark.parametrize("seed", SEEDS)
def test_network_signal_follows_homophily(network_cells, seed):
    f_avg = [network_cells[seed, h][1].overall.f_avg for h in HOMOPHILY]
    steps = [high - low for low, high in zip(f_avg, f_avg[1:])]
    assert min(steps) >= MIN_STEP, f_avg


@pytest.mark.parametrize("seed", SEEDS)
def test_network_only_cells_predict_one_label_per_author(network_cells, seed):
    # Every tweet of an author carries the author's one network row, so a
    # network-only model must give all of them the same label.
    for homophily in HOMOPHILY:
        test, _, predictions, _ = network_cells[seed, homophily]
        groups = user_consistency(test, predictions).groups
        assert groups and set(groups.values()) == {"uniform"}, homophily


def worst_community_precision(models) -> float:
    """The lowest share of a class's community pool in its top 10 features,
    over every topic and both polarized classes."""
    return min(
        sum(tag in feature for feature, _ in top_features(model, cls, topic, 10).entries) / 10
        for topic, model in models.items()
        for cls, tag in COMMUNITY_TAG.items()
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_community_accounts_lead_the_rankings(network_cells, seed):
    low, high = (worst_community_precision(network_cells[seed, h][3]) for h in (0.2, 0.6))
    assert high >= MIN_PRECISION_AT_10, high
    assert high - low >= MIN_PRECISION_RISE, (low, high)


@pytest.fixture(scope="module")
def posting_and_silent():
    """(selector, seed) -> F_avg of the posting and of the silent test tweets."""
    scores = {}
    for seed in SEEDS:
        train, test = generate(SynthConfig(
            topics=("alpha", "beta", "gamma"), users_per_topic=200,
            homophily=0.4, text_signal=0.3, items_per_set=8,
            silent_fraction=0.3, seed=seed,
        ))
        gold = [inst.label for inst in test.instances]
        keys = ["posting" if inst.text else "silent" for inst in test.instances]
        for selector in ("IN_AT", "TXT"):
            _, _, predictions = run_cell(
                train, test, FeatureSetSelector.parse(selector), "ternary", TrainConfig()
            )
            by_key = score_semeval(gold, predictions, keys).per_topic
            scores[selector, seed] = by_key["posting"].f_avg, by_key["silent"].f_avg
    return scores


@pytest.mark.parametrize("seed", SEEDS)
def test_silent_users_are_profiled_from_their_network(posting_and_silent, seed):
    posting, silent = posting_and_silent["IN_AT", seed]
    assert abs(posting - silent) <= MAX_NETWORK_GAP, (posting, silent)
    posting, silent = posting_and_silent["TXT", seed]
    assert posting - silent >= MIN_TEXT_DROP, (posting, silent)
