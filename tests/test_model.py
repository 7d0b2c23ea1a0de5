"""Unit tests for the closed-form mining quantities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeauction import (
    BidderProfile,
    BlockchainParams,
    MarketConfig,
    NetworkEffectParams,
    block_win_probability,
    ex_ante_valuation,
    ex_post_valuation,
    general_social_welfare,
    hash_power,
    network_effect,
    orphan_probability,
)
from edgeauction.auction import AuctionConfig, welfare_of_set

from conftest import DEFAULT_BLOCKCHAIN, DEFAULT_NETWORK, sample_default_instance


class TestFrozenValues:
    """Hand-computed reference values, frozen before the implementation."""

    def test_hash_power_two_miners(self):
        g = hash_power([40.0, 60.0], [1, 1], 1.2)
        assert g[0] == pytest.approx(0.3807047188569014, abs=1e-12)
        assert g[1] == pytest.approx(0.6192952811430985, abs=1e-12)

    def test_orphan_probability_at_mean_interval(self):
        p = orphan_probability(600.0, DEFAULT_BLOCKCHAIN)
        assert p == pytest.approx(0.6321205588285577, abs=1e-12)

    def test_block_win_probability(self):
        p = block_win_probability(0.5, 600.0, DEFAULT_BLOCKCHAIN)
        assert p == pytest.approx(0.18393972058572117, abs=1e-12)

    def test_network_effect_small_counts(self):
        assert network_effect(1.0, DEFAULT_NETWORK) == pytest.approx(
            0.003330550935575458, abs=1e-15
        )
        assert network_effect(2.0, DEFAULT_NETWORK) == pytest.approx(
            0.006655518672981823, abs=1e-15
        )
        assert network_effect(3.0, DEFAULT_NETWORK) == pytest.approx(
            0.009974875782324633, abs=1e-15
        )
        assert network_effect(200.0, DEFAULT_NETWORK) == pytest.approx(
            0.5339127895091091, abs=1e-12
        )

    def test_ex_ante_valuation(self):
        v = ex_ante_valuation(500.0, DEFAULT_BLOCKCHAIN)
        assert v == pytest.approx(2.6075892510424694, abs=1e-12)

    def test_ex_post_valuation_two_symmetric_winners(self):
        profiles = [
            BidderProfile(id=0, tx_size=500.0, demand=1.0, bid=1.0),
            BidderProfile(id=1, tx_size=500.0, demand=1.0, bid=1.0),
        ]
        v = ex_post_valuation(0, profiles, [1, 1], DEFAULT_BLOCKCHAIN, DEFAULT_NETWORK, 1.2)
        assert v == pytest.approx(0.008677429475889922, abs=1e-12)
        assert v == ex_post_valuation(
            1, profiles, [1, 1], DEFAULT_BLOCKCHAIN, DEFAULT_NETWORK, 1.2
        )


class TestValidation:
    def test_blockchain_params_reject_bad_values(self):
        with pytest.raises(ValueError):
            BlockchainParams(-0.1, 0.007, 600.0, 1.0)
        with pytest.raises(ValueError):
            BlockchainParams(2.5, -0.007, 600.0, 1.0)
        with pytest.raises(ValueError):
            BlockchainParams(2.5, 0.007, 0.0, 1.0)
        with pytest.raises(ValueError):
            BlockchainParams(2.5, 0.007, 600.0, -1.0)

    def test_network_params_require_positive_shape(self):
        with pytest.raises(ValueError):
            NetworkEffectParams(mu=0.0, nu=0.005)
        with pytest.raises(ValueError):
            NetworkEffectParams(mu=0.5, nu=0.0)

    def test_market_config_capacity_is_integer(self):
        with pytest.raises(ValueError):
            MarketConfig(unit_cost=0.02, capacity=0, hash_exponent=1.2)
        with pytest.raises(ValueError):
            MarketConfig(unit_cost=0.02, capacity=2.0, hash_exponent=1.2)
        with pytest.raises(ValueError):
            MarketConfig(unit_cost=0.02, capacity=True, hash_exponent=1.2)

    def test_bidder_profile_rejects_nonpositive_demand(self):
        with pytest.raises(ValueError):
            BidderProfile(id=0, tx_size=1.0, demand=0.0, bid=1.0)
        with pytest.raises(ValueError):
            BidderProfile(id=0, tx_size=-1.0, demand=1.0, bid=1.0)
        with pytest.raises(ValueError):
            BidderProfile(id=0, tx_size=1.0, demand=1.0, bid=-1.0)

    @pytest.mark.parametrize(
        "cls, valid",
        [
            (BlockchainParams, dict(fixed_bonus=2.5, fee_rate=0.007,
                                    mean_block_interval=600.0, propagation_coeff=1.0)),
            (NetworkEffectParams, dict(mu=0.5, nu=0.005)),
            (MarketConfig, dict(unit_cost=0.02, capacity=3, hash_exponent=1.2)),
            (BidderProfile, dict(id=0, tx_size=1.0, demand=1.0, bid=1.0)),
        ],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_numeric_field_rejects_non_finite_values(self, cls, valid, bad):
        cls(**valid)
        for name, value in valid.items():
            if isinstance(value, float):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    cls(**dict(valid, **{name: bad}))

    def test_non_finite_market_network_and_bids_are_refused(self):
        # unchecked, a NaN cost lets every bidder win with NaN welfare and
        # NaN payments, and NaN slips past every comparison-based check
        with pytest.raises(ValueError, match="unit_cost must be finite"):
            MarketConfig(unit_cost=math.nan, capacity=50, hash_exponent=1.2)
        with pytest.raises(ValueError, match="tx_size must be finite"):
            BidderProfile(id=0, tx_size=math.nan, demand=1.0, bid=math.inf)
        with pytest.raises(ValueError, match="bid must be finite"):
            BidderProfile(id=0, tx_size=1.0, demand=1.0, bid=math.inf)
        with pytest.raises(ValueError, match="mu must be finite"):
            NetworkEffectParams(mu=math.inf, nu=0.005)

    def test_hash_power_requires_a_served_miner(self):
        with pytest.raises(ValueError, match="no allocated miners"):
            hash_power([1.0, 2.0], [0, 0], 1.2)

    def test_hash_power_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hash_power([1.0, 2.0], [1, 2], 1.2)
        with pytest.raises(ValueError):
            hash_power([1.0], [1, 0], 1.2)
        with pytest.raises(ValueError):
            hash_power([1.0, -2.0], [1, 1], 1.2)
        with pytest.raises(ValueError):
            hash_power([1.0, 2.0], [1, 1], 0.0)

    def test_block_win_probability_rejects_gamma_outside_unit_interval(self):
        with pytest.raises(ValueError):
            block_win_probability(1.5, 100.0, DEFAULT_BLOCKCHAIN)
        with pytest.raises(ValueError):
            block_win_probability(-0.1, 100.0, DEFAULT_BLOCKCHAIN)


@given(
    demands=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=8),
    alpha=st.floats(0.2, 3.0),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_hash_power_shares_sum_to_one(demands, alpha, data):
    allocation = data.draw(
        st.lists(st.sampled_from([0, 1]), min_size=len(demands), max_size=len(demands))
    )
    if not any(allocation):
        allocation[data.draw(st.integers(0, len(demands) - 1))] = 1
    g = hash_power(demands, allocation, alpha)
    assert float(g.sum()) == pytest.approx(1.0, abs=1e-12)
    for share, x in zip(g, allocation):
        if x == 0:
            assert share == 0.0
        else:
            assert share > 0.0


@given(
    demands=st.lists(st.floats(0.1, 100.0), min_size=2, max_size=8),
    alpha=st.floats(0.2, 3.0),
    scale=st.floats(0.01, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_hash_power_is_scale_invariant(demands, alpha, scale):
    allocation = [1] * len(demands)
    base = hash_power(demands, allocation, alpha)
    scaled = hash_power([scale * d for d in demands], allocation, alpha)
    assert np.allclose(base, scaled, atol=1e-9)


@given(
    q=st.floats(0.0, 900.0),
    gap=st.floats(0.1, 100.0),
    mu=st.floats(0.05, 20.0),
    nu=st.floats(0.001, 0.005),
)
@settings(max_examples=200, deadline=None)
def test_network_effect_strictly_increases(q, gap, mu, nu):
    # nu * q stays <= 5 here, far from the saturation plateau where the
    # float difference could underflow to zero.
    params = NetworkEffectParams(mu=mu, nu=nu)
    assert network_effect(q + gap, params) > network_effect(q, params)


def test_network_effect_boundaries():
    assert network_effect(0.0, DEFAULT_NETWORK) == 0.0
    assert network_effect(1e7, DEFAULT_NETWORK) == pytest.approx(1.0, abs=1e-12)
    # An array goes through np.exp, as the clearing kernel and the exhaustive
    # oracle evaluate it; a float keeps math.exp.
    mu, nu = DEFAULT_NETWORK.mu, DEFAULT_NETWORK.nu
    q = np.array([0.0, 1.0, 2.0, 3.0, 200.0, 7486.0, 1e7])
    u = np.exp(-nu * q)
    assert network_effect(q, DEFAULT_NETWORK).tobytes() == ((1.0 - u) / (1.0 + mu * u)).tobytes()
    for x in q.tolist():
        v = math.exp(-nu * x)
        got = network_effect(x, DEFAULT_NETWORK)
        assert type(got) is float and got == (1.0 - v) / (1.0 + mu * v)
    for negative in (-1.0, np.array([3.0, 0.0, -1e-300])):
        with pytest.raises(ValueError, match="total_allocated must be >= 0"):
            network_effect(negative, DEFAULT_NETWORK)


@given(
    gamma=st.floats(0.0, 1.0),
    tx_size=st.floats(0.0, 1000.0),
    interval=st.floats(10.0, 5000.0),
)
@settings(max_examples=200, deadline=None)
def test_win_probability_composes_share_and_orphan_risk(gamma, tx_size, interval):
    params = BlockchainParams(
        fixed_bonus=2.5, fee_rate=0.007, mean_block_interval=interval, propagation_coeff=1.0
    )
    lhs = block_win_probability(gamma, tx_size, params)
    rhs = gamma * (1.0 - orphan_probability(tx_size, params))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_ex_ante_valuation_is_unimodal_in_size():
    # (T + r s) exp(-s/lam) peaks at s = lam - T/r ~ 242.86 for the
    # reference parameters; the sign of the finite difference must flip
    # exactly once over an integer scan.
    values = [ex_ante_valuation(float(s), DEFAULT_BLOCKCHAIN) for s in range(1001)]
    diffs = [b - a for a, b in zip(values, values[1:])]
    flips = sum(
        1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0)
    )
    assert flips == 1
    peak = max(range(len(values)), key=values.__getitem__)
    assert peak in (242, 243)


@given(
    sizes=st.lists(st.floats(0.0, 1000.0), max_size=64),
    bonus=st.floats(0.0, 5.0),
    fee_rate=st.floats(0.001, 0.009),
    interval=st.floats(100.0, 1800.0),
)
@settings(max_examples=300, deadline=None)
def test_array_of_sizes_gives_the_scalar_bids_bit_for_bit(sizes, bonus, fee_rate, interval):
    # The parameters span the default sweep grids; both ends of the size range are always in.
    params = BlockchainParams(
        fixed_bonus=bonus, fee_rate=fee_rate, mean_block_interval=interval, propagation_coeff=1.0
    )
    sizes = [0.0, *sizes, 1000.0]
    bids = ex_ante_valuation(np.array(sizes), params)
    scalar = np.array([ex_ante_valuation(s, params) for s in sizes])
    assert bids.tobytes() == scalar.tobytes()


def test_ex_ante_valuation_refuses_a_negative_size():
    with pytest.raises(ValueError, match="tx_size"):
        ex_ante_valuation(-1.0, DEFAULT_BLOCKCHAIN)
    with pytest.raises(ValueError, match="tx_size"):
        ex_ante_valuation(np.array([3.0, -1.0]), DEFAULT_BLOCKCHAIN)


def test_general_welfare_matches_set_form_on_unit_demands():
    rng = np.random.default_rng(4711)
    for _ in range(50):
        roster, config = sample_default_instance(rng, lo=1, hi=12)
        allocation = [int(b) for b in rng.integers(0, 2, size=len(roster))]
        expected = (
            welfare_of_set([p.bid for p, x in zip(roster, allocation) if x], config)
            if any(allocation)
            else 0.0
        )
        got = general_social_welfare(
            roster, allocation, DEFAULT_BLOCKCHAIN, config.network, config.market
        )
        assert got == pytest.approx(expected, abs=1e-9)


def test_general_welfare_of_empty_allocation_is_zero():
    roster = [BidderProfile(id=0, tx_size=10.0, demand=2.0, bid=3.0)]
    market = MarketConfig(unit_cost=0.02, capacity=5, hash_exponent=1.2)
    s = general_social_welfare(roster, [0], DEFAULT_BLOCKCHAIN, DEFAULT_NETWORK, market)
    assert s == 0.0


def test_ex_post_valuation_of_unserved_miner_is_zero():
    profiles = [
        BidderProfile(id=0, tx_size=500.0, demand=1.0, bid=1.0),
        BidderProfile(id=1, tx_size=500.0, demand=1.0, bid=1.0),
    ]
    v = ex_post_valuation(1, profiles, [1, 0], DEFAULT_BLOCKCHAIN, DEFAULT_NETWORK, 1.2)
    assert v == 0.0


def test_general_welfare_with_non_unit_demands():
    # hand-computed: d = (2, 3), both served, alpha = 1.2, s = (100, 400)
    blockchain = DEFAULT_BLOCKCHAIN
    network = DEFAULT_NETWORK
    market = MarketConfig(unit_cost=0.02, capacity=10, hash_exponent=1.2)
    profiles = [
        BidderProfile(id=0, tx_size=100.0, demand=2.0, bid=0.0),
        BidderProfile(id=1, tx_size=400.0, demand=3.0, bid=0.0),
    ]
    g = hash_power([2.0, 3.0], [1, 1], 1.2)
    w = network_effect(5.0, network)
    expected = (
        g[0] * w * ex_ante_valuation(100.0, blockchain)
        + g[1] * w * ex_ante_valuation(400.0, blockchain)
        - 0.02 * 5.0
    )
    got = general_social_welfare(profiles, [1, 1], blockchain, network, market)
    assert got == pytest.approx(expected, abs=1e-12)
