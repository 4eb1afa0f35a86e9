import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancelab.order import SEED_LIMIT, check_seed, seeded_order, splitmix64

from dcd_reference import epoch_order

SEEDS = st.one_of(st.sampled_from([0, SEED_LIMIT - 1]), st.integers(0, SEED_LIMIT - 1))


def test_splitmix64_known_answers():
    # The first two outputs of the reference splitmix64 generator seeded 0.
    assert splitmix64(0, np.arange(2)).tolist() == [0xE220A8397B1DCDAF,
                                                    0x6E789E6AA1B965F4]


@pytest.mark.parametrize("seed,message", [
    (-1, "seed must be >= 0"), (SEED_LIMIT, r"seed must be < 2\*\*64")])
def test_seed_out_of_range(seed, message):
    with pytest.raises(ValueError, match=message):
        check_seed(seed)
    with pytest.raises(ValueError, match=message):
        seeded_order(seed, 1, [0, 1])


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, epoch=st.integers(0, 1000), data=st.data(),
       active=st.sets(st.integers(0, 10**6), max_size=50))
def test_order_is_a_permutation_fixed_by_the_set(seed, epoch, data, active):
    # Warnings are errors here: a uint64 scalar overflow would fail this.
    listed = data.draw(st.permutations(sorted(active)))
    order = seeded_order(seed, epoch, listed)
    assert order.dtype == np.int64
    assert sorted(order.tolist()) == sorted(active)
    assert order.tolist() == seeded_order(seed, epoch, sorted(active)).tolist()
    assert order.tolist() == [int(i) for i in epoch_order(seed, epoch, listed)]

