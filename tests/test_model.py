"""Unit tests for the closed-form mining quantities."""

import dataclasses
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
from edgeauction import model, run_auction
from edgeauction.auction import AuctionConfig, welfare_of_set
from edgeauction.experiments import generate_instance
from edgeauction.model import _profile_in_bounds

from conftest import DEFAULT_BLOCKCHAIN, DEFAULT_NETWORK, compensated_sum, sample_default_instance


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

    @pytest.mark.parametrize("index", [-1, 2])
    def test_ex_post_valuation_refuses_an_index_out_of_range(self, index):
        profiles = [BidderProfile(id=i, tx_size=500.0, demand=1.0, bid=1.0) for i in range(2)]
        with pytest.raises(ValueError, match="bidder_index out of range"):
            ex_post_valuation(index, profiles, [1, 1], DEFAULT_BLOCKCHAIN, DEFAULT_NETWORK, 1.2)


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

    def test_a_slotted_profile_acts_as_a_frozen_value(self):
        # slots drop each profile's __dict__; assignment, equality, hashing
        # and dataclasses.replace act as on the unslotted frozen class
        profile = BidderProfile(id=3, tx_size=1.0, demand=1.0, bid=2.0)
        assert not hasattr(profile, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.bid = 3.0
        # a name that is no field: no slot holds it (CPython 3.11's slotted
        # frozen __setattr__ raises TypeError there, not FrozenInstanceError)
        with pytest.raises((AttributeError, TypeError)):
            profile.note = "x"
        twin = BidderProfile(id=3, tx_size=1.0, demand=1.0, bid=2.0)
        assert profile == twin and hash(profile) == hash(twin) and len({profile, twin}) == 1
        assert profile != BidderProfile(id=4, tx_size=1.0, demand=1.0, bid=2.0)
        assert dataclasses.replace(profile, bid=5.0) == BidderProfile(id=3, tx_size=1.0, demand=1.0, bid=5.0)
        assert profile.bid == 2.0
        with pytest.raises(ValueError, match="bid must be >= 0"):
            dataclasses.replace(profile, bid=-1.0)

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

    def test_the_bounds_over_columns_accept_what_each_profile_accepts(self):
        values = [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 5e-324, 1.0, 1.7976931348623157e308]
        for field in ("tx_size", "demand", "bid"):
            for value in values:
                fields = {"tx_size": 1.0, "demand": 1.0, "bid": 1.0, field: value}
                try:
                    BidderProfile(id=0, **fields)
                    accepted = True
                except ValueError:
                    accepted = False
                # the odd value between two good rows
                columns = [np.array([1.0, fields[f], 1.0]) for f in ("tx_size", "demand", "bid")]
                assert all(ok.all() for ok in _profile_in_bounds(*columns)) == accepted

    def test_hash_power_requires_a_served_miner(self):
        with pytest.raises(ValueError, match="no allocated miners"):
            hash_power([1.0, 2.0], [0, 0], 1.2)

    def test_hash_power_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            hash_power([1.0, 2.0], [1, 2], 1.2)
        with pytest.raises(ValueError):
            hash_power([1.0], [1, 0], 1.2)
        # NaN fails every comparison, so it is refused as a demand <= 0 would be
        for demands in ([1.0, -2.0], [1.0, math.nan], np.array([math.nan, 2.0])):
            with pytest.raises(ValueError, match="demands must be > 0"):
                hash_power(demands, [1, 1], 1.2)
        for alpha in (0.0, math.nan):
            with pytest.raises(ValueError, match="alpha must be > 0"):
                hash_power([1.0, 2.0], [1, 1], alpha)
        with pytest.raises(ValueError, match="demands must be finite"):
            hash_power([1.0, math.inf], [1, 1], 1.2)
        with pytest.raises(ValueError, match="alpha must be finite"):
            hash_power([1.0, 2.0], [1, 1], math.inf)
        # powers that floats cannot hold, served or not; a served one at 0
        # would win no share, and two would leave none defined
        for demands, allocation, alpha, reason in [
            ([1e300, 1.0], [1, 1], 1.2, "a power overflows"),
            ([1e300, 1.0], [0, 1], 1.2, "a power overflows"),
            ([1e308, 1e308], [1, 1], 1.0, "the sum of the powers overflows"),
            ([1e-300, 1e-300], [1, 1], 1.2, "a power underflows to 0"),
            ([1e-300, 1.0], [1, 1], 1.2, "a power underflows to 0"),
        ]:
            with pytest.raises(ValueError, match=f"at alpha {alpha!r}: {reason}"):
                hash_power(demands, allocation, alpha)

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
    mu, nu = DEFAULT_NETWORK.mu, DEFAULT_NETWORK.nu
    for x in (0.0, 1.0, 2.0, 3.0, 200.0, 7486.0, 1e7):
        v = math.exp(-nu * x)
        got = network_effect(x, DEFAULT_NETWORK)
        assert type(got) is float and got == (1.0 - v) / (1.0 + mu * v)
    for bad in (-1.0, math.nan, np.array([3.0, 0.0, -1e-300]), np.array([3.0, math.nan])):
        with pytest.raises(ValueError, match="total_allocated must be >= 0"):
            network_effect(bad, DEFAULT_NETWORK)


def test_network_effect_of_an_array_gives_the_scalar_calls_bit_for_bit():
    # The clearing kernel reads w(k) for k = 1..limit as one array; plain
    # np.exp on an AVX-512 CPU would differ at 20 of these k (_NETWORK_EFFECT_BITS).
    k = np.arange(1.0, 1001.0)
    array = network_effect(k, DEFAULT_NETWORK)
    scalar = np.array([network_effect(x, DEFAULT_NETWORK) for x in k.tolist()])
    assert array.tobytes() == scalar.tobytes(), (
        f"w(k) differs at k = {k[array != scalar].astype(int).tolist()}"
    )


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


@pytest.mark.parametrize("interval", [100.0, 1800.0])
def test_array_of_many_sizes_gives_the_scalar_bids_bit_for_bit(interval):
    # The ends of the block-interval grid, where -s/lam spans [-10, 0] and
    # [-0.56, 0]. The count of plain np.exp misses in the message shows the
    # array path is not matched by luck; it depends on the CPU, so it is
    # not asserted.
    params = dataclasses.replace(DEFAULT_BLOCKCHAIN, mean_block_interval=interval)
    sizes = np.random.default_rng(260).uniform(0.0, 1000.0, size=200_000)
    bids = ex_ante_valuation(sizes, params)
    scalar = np.array([ex_ante_valuation(s, params) for s in sizes.tolist()])
    exponent = -(params.propagation_coeff * sizes) / interval
    libm = np.fromiter(map(math.exp, exponent.tolist()), float, sizes.size)
    plain_misses = int(np.count_nonzero(np.exp(exponent) != libm))
    assert bids.tobytes() == scalar.tobytes(), (
        f"{np.count_nonzero(bids != scalar)} of {sizes.size} array bids differ from their "
        f"scalar calls; plain np.exp differs from math.exp on {plain_misses} of the exponents"
    )


# math.exp(-(1.0 * s) / lam) at sweep sizes s on [0, 1000] and block
# intervals lam of the default grid, as float.hex. At the first four sizes of
# each interval, numpy's AVX-512 exp gives a different last bit.
_LIBM_EXP_BITS = {
    100.0: (
        (946.82, "0x1.44186d4fc2b2cp-14"),
        (695.995, "0x1.f19ff4903e71bp-11"),
        (494.83, "0x1.d10214cc105f7p-8"),
        (281.613, "0x1.ea2f6b76eac07p-5"),
        (178.935, "0x1.5628213bd0831p-3"),
        (1000.0, "0x1.7cd79b5647c9bp-15"),
    ),
    312.5: (
        (258.859, "0x1.bf409adb418bap-2"),
        (454.641, "0x1.de133848406f6p-3"),
        (794.53, "0x1.423b423839568p-4"),
        (725.188, "0x1.924959429f335p-4"),
        (854.826, "0x1.09b0259ee1060p-4"),
        (1000.0, "0x1.4dec899fffb47p-5"),
    ),
    600.0: (
        (274.34, "0x1.441cd9d754b4dp-1"),
        (161.357, "0x1.8744f68988ec0p-1"),
        (127.291, "0x1.9e208a5a96141p-1"),
        (121.391, "0x1.a2382dca9edc2p-1"),
        (450.355, "0x1.e36ad0786dbb4p-2"),
        (1000.0, "0x1.82d1364998ceap-3"),
    ),
    1162.5: (
        (623.251, "0x1.2b86287d29416p-1"),
        (889.628, "0x1.dc5f656af0173p-2"),
        (147.951, "0x1.c2d0658e125fdp-1"),
        (958.733, "0x1.c0e13d88072ddp-2"),
        (774.775, "0x1.06eba27861185p-1"),
        (1000.0, "0x1.b1398c3535b4cp-2"),
    ),
    1800.0: (
        (314.883, "0x1.add47677b1cf6p-1"),
        (772.887, "0x1.4d44440183d5ep-1"),
        (157.772, "0x1.d5087e8987735p-1"),
        (26.078, "0x1.f8a2bf5ddccd2p-1"),
        (525.288, "0x1.7e6969b7d7a38p-1"),
        (1000.0, "0x1.25c3022412203p-1"),
    ),
}


@pytest.mark.parametrize("interval", sorted(_LIBM_EXP_BITS))
def test_libm_exp_gives_the_recorded_bits_at_sweep_exponents(interval):
    # A canary for the sweep digests: if they fail on another machine and
    # this fails too, its libm rounds exp differently from the recording.
    sizes, bits = zip(*_LIBM_EXP_BITS[interval])
    params = dataclasses.replace(DEFAULT_BLOCKCHAIN, mean_block_interval=interval)
    scalar = [math.exp(-(params.propagation_coeff * s) / interval).hex() for s in sizes]
    array = [x.hex() for x in model._not_orphaned(np.array(sizes), params).tolist()]
    # An array of one element does not overlap its output by itself.
    alone = [model._not_orphaned(np.array([s]), params)[0].hex() for s in sizes]
    assert scalar == list(bits), "math.exp: this libm differs from the recorded bits"
    assert array == list(bits), "the array path differs from the recorded libm bits"
    assert alone == list(bits), "the array path differs from the recorded bits on one size"


# w(k) under the default network, as float.hex, at the k = 1..1000 where
# numpy's AVX-512 exp gives e^(-nu k) a different last bit from libm's.
_NETWORK_EFFECT_BITS = (
    (2, "0x1.b42d1309d2e51p-8"),
    (9, "0x1.e7c783262bb0ap-6"),
    (14, "0x1.79bb736074525p-5"),
    (25, "0x1.4df106ee703bap-4"),
    (48, "0x1.39a17b11280a1p-3"),
    (88, "0x1.13b84a2d40509p-2"),
    (104, "0x1.40114d0ab365ap-2"),
    (127, "0x1.7c853a62267acp-2"),
    (158, "0x1.c7d36a188f697p-2"),
    (170, "0x1.e316716d4bac2p-2"),
    (192, "0x1.093075a4ff8fap-1"),
    (196, "0x1.0d4de5014a669p-1"),
    (201, "0x1.125e924dd3640p-1"),
    (218, "0x1.22f256318fa9ap-1"),
    (222, "0x1.26b45d58fedc0p-1"),
    (240, "0x1.36f58330abaadp-1"),
    (329, "0x1.78d0119cf2bf7p-1"),
    (334, "0x1.7bdd08cffac09p-1"),
    (376, "0x1.931e329cf0722p-1"),
    (586, "0x1.d80eb7100b8e4p-1"),
)


def test_network_effect_gives_the_recorded_bits_where_simd_exp_differs():
    # A canary for the digest and outcome tests: if they fail on another
    # machine and this fails too, its libm or the w formula is the cause.
    k, bits = zip(*_NETWORK_EFFECT_BITS)
    scalar = [network_effect(float(x), DEFAULT_NETWORK).hex() for x in k]
    array = [x.hex() for x in network_effect(np.array(k, dtype=float), DEFAULT_NETWORK).tolist()]
    alone = [network_effect(np.array([float(x)]), DEFAULT_NETWORK)[0].hex() for x in k]
    assert scalar == list(bits), "the scalar w(k) differs from the recorded bits"
    assert array == list(bits), "the array w(k) differs from the recorded bits"
    assert alone == list(bits), "w(k) on an array of one k differs from the recorded bits"


def test_ex_ante_valuation_refuses_a_negative_size():
    with pytest.raises(ValueError, match="tx_size must be >= 0"):
        ex_ante_valuation(-1.0, DEFAULT_BLOCKCHAIN)
    with pytest.raises(ValueError, match="tx_size must be >= 0"):
        ex_ante_valuation(np.array([3.0, -1.0]), DEFAULT_BLOCKCHAIN)


@pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf])
def test_ex_ante_valuation_refuses_a_non_finite_size(size):
    with pytest.raises(ValueError, match="tx_size must be finite"):
        ex_ante_valuation(size, DEFAULT_BLOCKCHAIN)
    with pytest.raises(ValueError, match="tx_size must be finite"):
        ex_ante_valuation(np.array([3.0, size]), DEFAULT_BLOCKCHAIN)
    with pytest.raises(ValueError, match="tx_size must be finite"):
        orphan_probability(size, DEFAULT_BLOCKCHAIN)


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
    # to the bit, the per-miner ex-post valuations less the cost
    per_miner = sum(
        ex_post_valuation(i, profiles, [1, 1], blockchain, network, 1.2) for i in range(2)
    )
    assert got == per_miner - 0.02 * 5.0


@pytest.mark.parametrize("interpreter_sum", ["builtin", "compensated"])
def test_general_welfare_sums_left_to_right_whatever_the_interpreter(monkeypatch, interpreter_sum):
    # Cleared 600-bidder instances of the reference market at unit cost
    # 0.001, each to the digits a left-to-right sum gives. CPython 3.12 and
    # later compensate the builtin sum of floats: with it, these would read
    # 1.758002055543174, 1.7801808617674972 and 1.7535734641496756.
    if interpreter_sum == "compensated":
        monkeypatch.setattr(model, "sum", compensated_sum, raising=False)
    market = MarketConfig(unit_cost=0.001, capacity=600, hash_exponent=1.2)
    config = AuctionConfig(market=market, network=DEFAULT_NETWORK)
    recorded = {0: 1.7580020555431748, 3: 1.7801808617674963, 4: 1.7535734641496747}
    for seed, welfare in recorded.items():
        roster = generate_instance(600, DEFAULT_BLOCKCHAIN, seed)
        allocation = run_auction(roster, config).allocation
        got = general_social_welfare(roster, allocation, DEFAULT_BLOCKCHAIN, DEFAULT_NETWORK, market)
        assert got == welfare
