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
"""

import pytest

from stancelab.analysis import user_consistency
from stancelab.features import FeatureSetSelector
from stancelab.linsvm import TrainConfig
from stancelab.pipeline import run_cell
from stancelab.synth import SynthConfig, generate

SEEDS = range(5)
HOMOPHILY = (0.2, 0.4, 0.6)
# Each homophily step above raised F_avg by 0.138 to 0.256; a step must keep
# at least half of the smallest of them.
MIN_STEP = 0.06


@pytest.fixture(scope="module")
def network_cells():
    """(seed, homophily) -> (test split, report, predictions) of IN_AT."""
    cells = {}
    for seed in SEEDS:
        for homophily in HOMOPHILY:
            train, test = generate(SynthConfig(
                topics=("alpha", "beta", "gamma"), users_per_topic=60,
                homophily=homophily, text_signal=0.3, items_per_set=8,
                seed=seed,
            ))
            _, report, predictions = run_cell(
                train, test, FeatureSetSelector.parse("IN_AT"), "ternary",
                TrainConfig(),
            )
            cells[seed, homophily] = test, report, predictions
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
        test, _, predictions = network_cells[seed, homophily]
        groups = user_consistency(test, predictions).groups
        assert groups and set(groups.values()) == {"uniform"}, homophily
