"""Unit tests for winner selection, pricing and the two oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeauction import (
    AuctionConfig,
    BidderProfile,
    MarketConfig,
    NetworkEffectParams,
    bidder_utility,
    generate_instance,
    network_effect,
    oracle_exhaustive,
    oracle_topk,
    run_auction,
    select_winners_greedy,
    vcg_payment,
    welfare_of_set,
)
from edgeauction import auction
from edgeauction.auction import _clamp_payment, _clear, clear_bids
from edgeauction.experiments import _truthful_bids

from conftest import (
    DEFAULT_BLOCKCHAIN,
    DEFAULT_NETWORK,
    sample_default_instance,
    sample_varied_instance,
)


def _config(unit_cost=0.02, capacity=3, network=DEFAULT_NETWORK):
    market = MarketConfig(unit_cost=unit_cost, capacity=capacity, hash_exponent=1.2)
    return AuctionConfig(market=market, network=network)


def _first_best_prefix(welfare_by_k):
    """Length of the first top-k prefix of largest welfare; 0 if none is positive."""
    best_k, best = 0, 0.0
    for k, s in enumerate(welfare_by_k, start=1):
        if s > best:
            best_k, best = k, s
    return best_k


def _reference_greedy(bids, config):
    """Literal scan over top-k prefixes, kept independent of the vectorized path."""
    order = sorted(range(len(bids)), key=lambda i: (-bids[i], i))
    limit = min(len(bids), config.market.capacity)
    welfare_by_k = [
        welfare_of_set([bids[j] for j in order[:k]], config) for k in range(1, limit + 1)
    ]
    return tuple(order[: _first_best_prefix(welfare_by_k)])


def _reference_clearing(roster, config):
    """Per-winner counterfactual loop, kept literal as run_auction's reference.

    Prices every winner by re-scanning all feasible prefix lengths of the
    roster without it, with full-length arrays: O(n) per winner. Returns
    the payments, the welfare, the winner count and, by rank, each winner's
    counterfactual winner count.
    """
    values = np.array([p.bid for p in roster], dtype=float)
    n = values.size
    order = np.argsort(-values, kind="stable")
    sorted_bids = values[order]
    prefix = np.concatenate(([0.0], np.cumsum(sorted_bids)))
    capacity = config.market.capacity
    cost = config.market.unit_cost

    limit = min(n, capacity)
    kk = np.arange(1, limit + 1, dtype=float)
    u = np.exp(-config.network.nu * kk)
    w = (1.0 - u) / (1.0 + config.network.mu * u)
    welfare_by_k = (w / kk) * prefix[1 : limit + 1] - cost * kk
    m = _first_best_prefix(welfare_by_k.tolist())
    welfare = float(welfare_by_k[m - 1]) if m > 0 else 0.0

    payments = [0.0] * n
    counterfactual_counts = []
    if m > 0:
        limit2 = min(n - 1, capacity)
        kk = np.arange(1, limit2 + 1)
        u = np.exp(-config.network.nu * kk.astype(float))
        w_by_k = (1.0 - u) / (1.0 + config.network.mu * u)
        sum_winners = float(prefix[m])
        q = m - 1
        w_q = network_effect(float(q), config.network) if q > 0 else 0.0
        for t in range(m):
            bid_j = float(sorted_bids[t])
            sums = np.where(kk <= t, prefix[1 : limit2 + 1], prefix[2 : limit2 + 2] - bid_j)
            s2 = (w_by_k / kk) * sums - cost * kk
            m2 = _first_best_prefix(s2.tolist())
            counterfactual_counts.append(m2)
            s_prime = float(s2[m2 - 1]) if m2 > 0 else 0.0
            if q > 0:
                others = (1.0 / q) * w_q * (sum_winners - bid_j) - cost * q
            else:
                others = 0.0
            p = s_prime - others
            payments[int(order[t])] = 0.0 if p < 0.0 else p
    return tuple(payments), welfare, m, counterfactual_counts


# Roster families for the exactness test: (bids, mu, nu, capacity, unit cost)
# drawn from a generator. Each aims at a corner of the pricing kernel.
def _typical(rng):
    n = int(rng.integers(2, 120))
    return rng.exponential(1.0, n), 0.5, 0.005 * 10.0 ** rng.uniform(-1, 1), n, 10.0 ** rng.uniform(-5, -2)


def _s_shaped(rng):
    # mu > 1: w(k)/k rises at first, so counterfactual rows rise from column 1
    n = int(rng.integers(10, 80))
    return rng.uniform(1.0, 2.0, n), 10.0 ** rng.uniform(0.2, 1.0), 10.0 ** rng.uniform(-2, -0.5), n, 1e-4


def _binding_capacity(rng):
    n = int(rng.integers(5, 60))
    return rng.uniform(0.0, 1.0, n), 0.5, 0.05, int(rng.integers(1, n)), 1e-5


def _everyone_wins(rng):
    n = int(rng.integers(1, 30))
    return rng.uniform(1.0, 2.0, n), 0.5, 0.05, n, 1e-6


def _single_bidder(rng):
    return rng.uniform(0.0, 1.0, 1), 0.5, 0.05, 1, 10.0 ** rng.uniform(-4, 0)


def _tied_and_zero(rng):
    n = int(rng.integers(1, 40))
    return rng.integers(0, 3, n).astype(float) * float(rng.integers(0, 2)), 0.5, 0.05, n, 1e-4


def _s_shaped_hard(rng):
    # mu up to 31 and binding capacity: the prefix welfare can fall before it
    # peaks, and a few high bids put counterfactual peaks far from m
    n = int(rng.integers(10, 120))
    bids = rng.uniform(1.0, 2.0, n)
    bids[: int(rng.integers(0, 4))] *= 10.0 ** rng.uniform(0.5, 1.5)
    mu, nu = 10.0 ** rng.uniform(0.5, 1.5), 10.0 ** rng.uniform(-1.5, -0.5)
    return bids, mu, nu, int(rng.integers(1, n + 1)), 10.0 ** rng.uniform(-3, -1)


def _all_equal(rng):
    n = int(rng.integers(1, 60))
    mu, nu = 10.0 ** rng.uniform(-1.3, 1), 10.0 ** rng.uniform(-2, 0)
    return np.full(n, rng.uniform(0.1, 10.0)), mu, nu, n, 10.0 ** rng.uniform(-4, -1)


def _whale(rng):
    # one huge bid among near-equal ones: the whale wins alone, and without
    # it selection admits far more bidders
    n = int(rng.integers(10, 80))
    bids = rng.uniform(1.0, 1.01, n)
    bids[int(rng.integers(0, n))] = 10.0 ** rng.uniform(2, 4)
    return bids, 0.5, 0.05, n, 1e-3


def _two_level_whales(rng):
    # a top whale over a few smaller ones over a crowd of near-equal bids
    n = int(rng.integers(10, 80))
    bids = rng.uniform(1.0, 1.01, n)
    whales = rng.choice(n, int(rng.integers(2, 6)), replace=False)
    bids[whales] = 10.0 ** rng.uniform(1, 2, whales.size)
    bids[whales[0]] = 10.0 ** rng.uniform(2, 4)
    return bids, 0.5, 0.05, n, 1e-3


def _scaled(factor):
    def draw(rng):
        bids, mu, nu, capacity, cost = _typical(rng)
        return bids * factor, mu, nu, capacity, cost * factor
    return draw


_ROSTER_FAMILIES = {
    "typical": _typical,
    "s_shaped": _s_shaped,
    "s_shaped_hard": _s_shaped_hard,
    "binding_capacity": _binding_capacity,
    "everyone_wins": _everyone_wins,
    "single_bidder": _single_bidder,
    "tied_and_zero": _tied_and_zero,
    "all_equal": _all_equal,
    "whale": _whale,
    "two_level_whales": _two_level_whales,
    "scaled_1e-9": _scaled(1e-9),
    "scaled_1e9": _scaled(1e9),
}


@st.composite
def _markets(draw):
    """Bids with ties, mu from 0.05 to 10, capacity that may bind, bids at 1e-12..1e12."""
    n = draw(st.integers(1, 60))
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=n))
    scale = 10.0 ** draw(st.integers(-12, 12))
    bids = [scale * b for b in draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))]
    mu, nu = draw(st.floats(0.05, 10.0)), draw(st.floats(0.005, 1.0))
    capacity = draw(st.integers(1, n))
    cost = scale * 10.0 ** draw(st.floats(-5.0, -1.0))
    return bids, _config(unit_cost=cost, capacity=capacity, network=NetworkEffectParams(mu, nu))


class TestFrozenExamples:
    def test_welfare_of_small_sets(self):
        config = _config()
        assert welfare_of_set([], config) == 0.0
        assert welfare_of_set([10.0], config) == pytest.approx(
            0.013305509355754582, abs=1e-15
        )
        assert welfare_of_set([10.0, 8.0], config) == pytest.approx(
            0.019899668056836406, abs=1e-15
        )
        assert welfare_of_set([10.0, 8.0, 1.0], config) == pytest.approx(
            0.0031742132880560048, abs=1e-15
        )

    def test_selection_takes_the_prefix_of_largest_welfare(self):
        # the top-k prefixes have welfare 0.0133, 0.0199 and 0.0032, so the
        # argmax picks k = 2 (0.0199 > 0.0133 > 0.0032)
        winners = select_winners_greedy([10.0, 8.0, 1.0], _config())
        assert winners == (0, 1)

    def test_single_winner_payment_under_binding_capacity(self):
        roster = [
            BidderProfile(id=7, tx_size=500.0, demand=1.0, bid=10.0),
            BidderProfile(id=3, tx_size=500.0, demand=1.0, bid=8.0),
        ]
        config = _config(capacity=1)
        outcome = run_auction(roster, config)
        assert outcome.winners == (7,)
        assert outcome.allocation == (1, 0)
        assert outcome.payments[0] == pytest.approx(0.006644407484603664, abs=1e-15)
        assert outcome.payments[1] == 0.0
        u = bidder_utility(7, 10.0, outcome, config)
        assert u == pytest.approx(0.02666110187115092, abs=1e-15)


class TestSelection:
    def test_matches_reference_loop_on_varied_instances(self):
        rng = np.random.default_rng(90210)
        nonempty = 0
        for _ in range(300):
            roster, config = sample_varied_instance(rng)
            bids = [p.bid for p in roster]
            got = select_winners_greedy(bids, config)
            assert got == _reference_greedy(bids, config)
            nonempty += bool(got)
        assert nonempty > 100  # the sweep must exercise non-trivial selections

    def test_zero_gain_candidate_is_rejected(self):
        # zero bids at zero cost leave welfare at 0; no strict improvement,
        # nobody is admitted
        assert select_winners_greedy([0.0, 0.0, 0.0], _config(unit_cost=0.0)) == ()

    def test_capacity_caps_admission(self):
        config = _config(unit_cost=1e-6, capacity=2)
        assert select_winners_greedy([10.0, 9.0, 8.0], config) == (0, 1)

    def test_ties_break_toward_earlier_position(self):
        config = _config(unit_cost=1e-6, capacity=1)
        assert select_winners_greedy([5.0, 5.0, 5.0], config) == (0,)

    def test_empty_bid_vector(self):
        assert select_winners_greedy([], _config()) == ()

    def test_s_shaped_curve_clears_at_the_top_k_optimum(self):
        # with a strongly S-shaped curve (mu = 10) the prefix welfare dips
        # below zero before it climbs: a stop at the first decrease would
        # take nobody, while the optimum takes eight of the ten bidders
        config = AuctionConfig(
            market=MarketConfig(unit_cost=0.08, capacity=10, hash_exponent=1.2),
            network=NetworkEffectParams(mu=10.0, nu=0.5),
        )
        bids = [1.0] * 10
        assert welfare_of_set([1.0], config) < 0.0
        assert select_winners_greedy(bids, config) == tuple(range(8))
        assert oracle_topk(bids, config) == (tuple(range(8)), 0.18971648577620126)
        roster = [BidderProfile(id=i, tx_size=0.0, demand=1.0, bid=b) for i, b in enumerate(bids)]
        outcome = run_auction(roster, config)
        assert outcome.welfare == 0.18971648577620126
        for wid in outcome.winners:
            payment = vcg_payment(wid, roster, outcome.winners, config)
            assert outcome.payments[wid] == payment == 0.004845436077795862

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    @pytest.mark.parametrize(
        "check", [welfare_of_set, oracle_topk, select_winners_greedy, clear_bids],
        ids=lambda f: f.__name__,
    )
    def test_rejects_negative_and_non_finite_bids(self, check, bad):
        with pytest.raises(ValueError, match="^bids must be finite and >= 0$"):
            check([1.0, bad], _config())


class TestRunAuction:
    def test_batch_payments_match_naive_counterfactuals(self):
        rng = np.random.default_rng(1311)
        checked = 0
        for _ in range(200):
            roster, config = sample_varied_instance(rng, lo=2, hi=15)
            outcome = run_auction(roster, config)
            for wid in outcome.winners:
                naive = vcg_payment(wid, roster, outcome.winners, config)
                idx = outcome.ids.index(wid)
                assert outcome.payments[idx] == pytest.approx(naive, abs=1e-12)
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("family", sorted(_ROSTER_FAMILIES))
    def test_payments_and_welfare_equal_the_literal_loop(self, family):
        rng = np.random.default_rng(sorted(_ROSTER_FAMILIES).index(family))
        far_peaks = dips = winners = 0
        for _ in range(60):
            bids, mu, nu, capacity, cost = _ROSTER_FAMILIES[family](rng)
            roster = [
                BidderProfile(id=i, tx_size=0.0, demand=1.0, bid=float(b))
                for i, b in enumerate(bids)
            ]
            config = _config(unit_cost=cost, capacity=capacity, network=NetworkEffectParams(mu, nu))
            outcome = run_auction(roster, config)
            payments, welfare, m, counts = _reference_clearing(roster, config)
            assert outcome.payments == payments
            assert outcome.welfare == welfare
            winners += m
            # some counterfactual peaks well away from the winner count
            far_peaks += any(not m - 4 <= m2 <= m + 3 for m2 in counts)
            # welfare falls somewhere before its peak
            welfare_by_k = _clear(np.asarray(bids), config).welfare_by_k
            dips += bool(np.any(np.diff(welfare_by_k[:m], prepend=0.0) <= 0.0))
        assert winners > 0 or family == "tied_and_zero"
        if family in ("whale", "two_level_whales", "s_shaped_hard"):
            assert far_peaks > 0
        if family == "s_shaped_hard":
            assert dips > 0

    @given(_markets())
    @settings(max_examples=300, deadline=None)
    def test_selection_is_the_top_k_optimum_and_payments_the_literal_loop(self, market):
        bids, config = market
        roster = [BidderProfile(id=i, tx_size=0.0, demand=1.0, bid=b) for i, b in enumerate(bids)]
        outcome = run_auction(roster, config)
        payments, welfare, _, _ = _reference_clearing(roster, config)
        assert outcome.payments == payments
        assert outcome.welfare == welfare
        winners = select_winners_greedy(bids, config)
        _, best = oracle_topk(bids, config)
        magnitude = sum(bids) + config.market.unit_cost * len(bids)
        assert abs(welfare_of_set([bids[i] for i in winners], config) - best) <= 1e-9 * magnitude

    def test_pricing_blocks_past_the_first_equal_the_literal_loop(self):
        # Without the 1e4 bid every prefix of 1.0 bids gains welfare, so every
        # column passes the bound: 800 winners over 800 columns fill three
        # blocks of _CELL_BUDGET // 800 = 327 rows.
        bids = [1e4] + [1.0] * 999
        roster = [BidderProfile(id=i, tx_size=0.0, demand=1.0, bid=b) for i, b in enumerate(bids)]
        config = _config(unit_cost=0.0, capacity=800, network=NetworkEffectParams(0.5, 1e-6))
        outcome = run_auction(roster, config)
        payments, welfare, m, _ = _reference_clearing(roster, config)
        assert m == 800 and all(payments[i] > 0.0 for i in outcome.winners)
        assert outcome.payments == payments
        assert outcome.welfare == welfare

    def test_counterfactual_that_admits_nobody_prices_at_the_vcg_payment(self):
        # without either bidder the lone other one makes negative welfare, so
        # no column of any counterfactual row can reach a positive value
        config = AuctionConfig(
            market=MarketConfig(unit_cost=0.09, capacity=2, hash_exponent=1.2),
            network=NetworkEffectParams(mu=10.0, nu=0.5),
        )
        roster = [BidderProfile(id=i, tx_size=0.0, demand=1.0, bid=1.5) for i in range(2)]
        assert welfare_of_set([1.5], config) < 0.0
        outcome = run_auction(roster, config)
        assert outcome.winners == (0, 1)
        for wid in outcome.winners:
            payment = vcg_payment(wid, roster, outcome.winners, config)
            assert outcome.payments[wid] == payment == 0.006464487093723145

    def test_rejects_bids_whose_sum_overflows(self):
        roster = [
            BidderProfile(id=i, tx_size=0.0, demand=1.0, bid=b)
            for i, b in enumerate([1e308, 1e308, 1.0])
        ]
        with pytest.raises(ValueError, match="overflow"):
            run_auction(roster, _config())
        with pytest.raises(ValueError, match="overflow"):
            select_winners_greedy([p.bid for p in roster], _config())
        # the references refuse them too, rather than price at inf - inf
        with pytest.raises(ValueError, match="overflow"):
            oracle_topk([p.bid for p in roster], _config())
        with pytest.raises(ValueError, match="overflow"):
            vcg_payment(2, roster, (0, 1, 2), _config())

    @pytest.mark.parametrize(
        "bids, nu, winners, welfare",
        [
            ([1.0, 1.0, 1.0], 0.005, (), 0.0),
            ([1.7e308, 1e306, 1e305], 10.0, (0,), 6.998842328070169e307),
        ],
        ids=["nobody_wins", "one_winner"],
    )
    def test_unit_cost_whose_multiples_overflow_reads_as_minus_infinity(
        self, bids, nu, winners, welfare
    ):
        # c*k past the float range makes those prefixes -inf welfare, without
        # a numpy warning, which the test configuration turns into an error
        config = _config(unit_cost=1e308, capacity=3, network=NetworkEffectParams(0.5, nu))
        roster = [BidderProfile(id=i, tx_size=0.0, demand=1.0, bid=b) for i, b in enumerate(bids)]
        outcome = run_auction(roster, config)
        assert outcome.winners == winners
        assert outcome.welfare == welfare
        assert outcome.payments == (0.0, 0.0, 0.0)
        assert oracle_topk(bids, config) == (winners, welfare)
        for wid in winners:
            assert vcg_payment(wid, roster, winners, config) == outcome.payments[wid]

    def test_large_bids_clear_like_the_same_roster_in_small_units(self):
        # Welfare here is about 1.3e10 and its two summation orders differ
        # by about 8e-6, so the consistency checks must scale with the bids.
        roster = generate_instance(300, replace(DEFAULT_BLOCKCHAIN, fixed_bonus=50.0), 2)
        scaled = [replace(p, bid=p.bid * 1e9) for p in roster]
        plain = run_auction(roster, _config(unit_cost=0.02, capacity=300))
        big = run_auction(scaled, _config(unit_cost=0.02e9, capacity=300))
        assert big.winners == plain.winners
        assert len(plain.winners) == 221
        assert big.welfare == pytest.approx(1e9 * plain.welfare, rel=1e-12)
        for a, b in zip(plain.payments, big.payments):
            assert b == pytest.approx(1e9 * a, abs=1e-12 * big.welfare)

    def test_losers_pay_exactly_zero(self):
        rng = np.random.default_rng(1312)
        for _ in range(100):
            roster, config = sample_varied_instance(rng, lo=2, hi=15)
            outcome = run_auction(roster, config)
            winner_ids = set(outcome.winners)
            for bid_id, payment in zip(outcome.ids, outcome.payments):
                if bid_id not in winner_ids:
                    assert payment == 0.0

    def test_welfare_equals_set_form_of_winners(self):
        rng = np.random.default_rng(1313)
        for _ in range(100):
            roster, config = sample_varied_instance(rng)
            outcome = run_auction(roster, config)
            by_id = {p.id: p.bid for p in roster}
            expected = welfare_of_set([by_id[i] for i in outcome.winners], config)
            assert outcome.welfare == pytest.approx(expected, abs=1e-12)

    def test_empty_roster(self):
        outcome = run_auction([], _config())
        assert outcome.winners == ()
        assert outcome.welfare == 0.0
        assert outcome.payments == ()

    def test_rejects_non_unit_demand(self):
        roster = [BidderProfile(id=4, tx_size=1.0, demand=2.0, bid=1.0)]
        with pytest.raises(ValueError, match="bidder 4"):
            run_auction(roster, _config())

    def test_rejects_duplicate_ids(self):
        roster = [
            BidderProfile(id=1, tx_size=1.0, demand=1.0, bid=1.0),
            BidderProfile(id=4, tx_size=2.0, demand=1.0, bid=2.0),
            BidderProfile(id=1, tx_size=3.0, demand=1.0, bid=3.0),
        ]
        clears = (
            run_auction,
            oracle_exhaustive,
            lambda r, config: vcg_payment(4, r, (4,), config),
        )
        for clear in clears:
            with pytest.raises(ValueError, match="duplicate bidder id 1"):
                clear(roster, _config())

    def test_config_type_checks(self):
        with pytest.raises(ValueError):
            AuctionConfig(market=None, network=DEFAULT_NETWORK)
        with pytest.raises(ValueError):
            AuctionConfig(
                market=MarketConfig(unit_cost=0.02, capacity=1, hash_exponent=1.2),
                network=None,
            )


class TestClearBids:
    """The array core under run_auction, as the sweeps call it."""

    @pytest.mark.parametrize(
        "bad, reason", [(math.nan, "finite"), (-math.inf, "finite"), (-1.0, ">= 0")]
    )
    def test_refuses_bids_that_are_not_finite_and_non_negative(self, bad, reason):
        with pytest.raises(ValueError, match=reason):
            clear_bids(np.array([1.0, bad, 2.0]), _config())

    def test_welfare_mismatch_names_the_instance(self, monkeypatch):
        bids = np.array([10.0, 8.0, 1.0])
        _, winners, _ = clear_bids(bids, _config())
        # the consistency check evaluates the set welfare through _welfare; the
        # kernel computes its prefix welfare on its own
        original = auction._welfare
        monkeypatch.setattr(auction, "_welfare", lambda k, total, c: 2.0 * original(k, total, c))
        expected = f"(n=3, m={winners.size}, capacity=3, bids from 1.0 to 10.0)"
        with pytest.raises(RuntimeError, match="welfare mismatch") as exc:
            clear_bids(bids, _config())
        assert str(exc.value).endswith(expected)

    @pytest.mark.parametrize(
        "n, bonus, unit_cost, mu",
        [(1_000, 2.5, 0.001, 0.5), (50_000, 50.0, 0.02, 0.5), (200_000, 2.5, 0.001, 10.0)],
    )
    def test_large_markets_clear_at_the_top_k_optimum(self, n, bonus, unit_cost, mu):
        _, bids = _truthful_bids(n, replace(DEFAULT_BLOCKCHAIN, fixed_bonus=bonus), seed=n)
        config = AuctionConfig(
            market=MarketConfig(unit_cost=unit_cost, capacity=n, hash_exponent=1.2),
            network=NetworkEffectParams(mu=mu, nu=0.005),
        )
        welfare, winners, payments = clear_bids(bids, config)
        best_winners, best = oracle_topk(bids.tolist(), config)
        assert winners.size > 500
        assert tuple(winners.tolist()) == best_winners
        assert welfare == pytest.approx(best, rel=1e-12)
        sampled = int(winners[winners.size // 2])
        roster = [
            BidderProfile(id=i, tx_size=0.0, demand=1.0, bid=b) for i, b in enumerate(bids.tolist())
        ]
        naive = vcg_payment(sampled, roster, best_winners, config)
        assert payments[sampled] == pytest.approx(naive, rel=0.0, abs=1e-12 * max(1.0, welfare))


class TestPayments:
    def test_clamp_accepts_rounding_residue(self):
        assert _clamp_payment(-5e-10) == 0.0
        assert _clamp_payment(0.0) == 0.0
        assert _clamp_payment(1.5) == 1.5
        assert _clamp_payment(-0.5, 1e9) == 0.0

    def test_clamp_refuses_genuinely_negative_payment(self):
        with pytest.raises(RuntimeError, match="negative"):
            _clamp_payment(-2e-9)
        with pytest.raises(RuntimeError, match="negative"):
            _clamp_payment(-2.0, 1e9)

    def test_vcg_payment_validates_ids(self):
        roster = [
            BidderProfile(id=0, tx_size=1.0, demand=1.0, bid=10.0),
            BidderProfile(id=1, tx_size=1.0, demand=1.0, bid=8.0),
        ]
        config = _config(capacity=1)
        outcome = run_auction(roster, config)
        with pytest.raises(ValueError, match="unknown bidder"):
            vcg_payment(99, roster, outcome.winners, config)
        with pytest.raises(ValueError, match="not a winner"):
            vcg_payment(1, roster, outcome.winners, config)


class TestOracles:
    def test_topk_with_all_zero_bids_keeps_nobody(self):
        winners, welfare = oracle_topk([0.0, 0.0], _config(unit_cost=0.0))
        assert winners == ()
        assert welfare == 0.0

    @pytest.mark.parametrize("family", ["s_shaped", "binding_capacity"])
    def test_references_do_not_run_the_clearing_kernel(self, family, monkeypatch):
        # The payments and optimum run_auction produces are checked against
        # vcg_payment and the oracles, so those must reach the same numbers
        # with every step of the kernel unavailable. oracle_exhaustive gets
        # the first 12 bidders of each roster.
        rng = np.random.default_rng(sorted(_ROSTER_FAMILIES).index(family))
        cleared = []
        for _ in range(20):
            bids, mu, nu, capacity, cost = _ROSTER_FAMILIES[family](rng)
            network = NetworkEffectParams(mu, nu)
            for roster_bids, cap in ((bids, capacity), (bids[:12], min(capacity, 12))):
                roster = [
                    BidderProfile(id=i, tx_size=0.0, demand=1.0, bid=float(b))
                    for i, b in enumerate(roster_bids)
                ]
                config = _config(unit_cost=cost, capacity=cap, network=network)
                cleared.append((roster, config, run_auction(roster, config)))

        def unavailable(*args):
            raise AssertionError("a reference ran the clearing kernel")

        monkeypatch.setattr(auction, "_clear", unavailable)
        monkeypatch.setattr(auction, "_counterfactual_welfare", unavailable)
        winners = 0
        for roster, config, outcome in cleared:
            for wid in outcome.winners:
                payment = vcg_payment(wid, roster, outcome.winners, config)
                assert payment == pytest.approx(outcome.payments[wid], rel=0.0, abs=1e-12)
            best_winners, best = oracle_topk([p.bid for p in roster], config)
            assert best_winners == outcome.winners
            assert best == pytest.approx(outcome.welfare, rel=1e-12)
            if len(roster) <= 12:
                allocation, best = oracle_exhaustive(roster, config)
                assert allocation == outcome.allocation
                assert best == pytest.approx(outcome.welfare, rel=1e-12)
            winners += len(outcome.winners)
        assert winners > 0

    def test_topk_agrees_with_exhaustive_on_unit_demands(self):
        rng = np.random.default_rng(777)
        for _ in range(200):
            roster, config = sample_varied_instance(rng, lo=1, hi=10)
            _, s_topk = oracle_topk([p.bid for p in roster], config)
            _, s_exh = oracle_exhaustive(roster, config)
            assert s_exh == pytest.approx(s_topk, abs=1e-9)

    def test_exhaustive_refuses_large_rosters(self):
        roster = [
            BidderProfile(id=i, tx_size=1.0, demand=1.0, bid=1.0) for i in range(21)
        ]
        with pytest.raises(ValueError, match="refused"):
            oracle_exhaustive(roster, _config())

    def test_exhaustive_handles_non_unit_demands(self):
        # hand check over all four subsets of a two-bidder roster with
        # demands 2 and 3
        config = _config(unit_cost=0.001, capacity=10)
        roster = [
            BidderProfile(id=0, tx_size=0.0, demand=2.0, bid=3.0),
            BidderProfile(id=1, tx_size=0.0, demand=3.0, bid=1.0),
        ]
        from edgeauction import hash_power, network_effect

        def subset_welfare(mask):
            members = [i for i in range(2) if mask >> i & 1]
            if not members:
                return 0.0
            demands = [roster[i].demand for i in members]
            g = hash_power(demands, [1] * len(members), 1.2)
            total = sum(demands)
            value = sum(
                float(gi) * roster[i].bid for gi, i in zip(g, members)
            ) * network_effect(total, config.network)
            return value - config.market.unit_cost * total

        best_mask = max(range(4), key=subset_welfare)
        allocation, welfare = oracle_exhaustive(roster, config)
        assert welfare == pytest.approx(subset_welfare(best_mask), abs=1e-12)
        assert allocation == tuple(
            1 if best_mask >> i & 1 else 0 for i in range(2)
        )

    def test_exhaustive_respects_capacity(self):
        config = _config(unit_cost=1e-9, capacity=2)
        roster = [
            BidderProfile(id=i, tx_size=0.0, demand=1.0, bid=10.0) for i in range(3)
        ]
        allocation, _ = oracle_exhaustive(roster, config)
        assert sum(allocation) <= 2

    def test_exhaustive_with_no_profitable_subset_allocates_nothing(self):
        config = _config(unit_cost=100.0)
        roster = [BidderProfile(id=0, tx_size=0.0, demand=1.0, bid=1.0)]
        allocation, welfare = oracle_exhaustive(roster, config)
        assert allocation == (0,)
        assert welfare == 0.0

    def test_exhaustive_tie_break_prefers_smaller_ids(self):
        # identical bidders produce exactly equal welfare either way round
        config = _config(unit_cost=1e-6, capacity=1)
        roster = [
            BidderProfile(id=5, tx_size=0.0, demand=1.0, bid=2.0),
            BidderProfile(id=2, tx_size=0.0, demand=1.0, bid=2.0),
        ]
        allocation, _ = oracle_exhaustive(roster, config)
        assert allocation == (0, 1)  # id 2 is the second roster entry

    def test_exhaustive_empty_roster(self):
        assert oracle_exhaustive([], _config()) == ((), 0.0)


class TestKnownLimitations:
    """Pinned counterexamples; these document behavior rather than aspire."""

    def test_counterfactual_payment_can_underprice_a_pivotal_misreport(self):
        # true value 4 loses against (10, 8): a third winner drags welfare
        # down. Misreporting 7 flips the sign of that marginal effect and
        # wins a seat. The payment is 0 because its "others" term prices the
        # other winners as a set of their own, at w(m-1)/(m-1) and cost
        # c (m-1): that is S({10, 8}) = 0.019899668056836406, which is also
        # the counterfactual welfare S', although the seat the misreport
        # takes lowers what (10, 8) realize. The deviation strictly profits,
        # so the pricing rule is not truthful in general.
        config = _config(capacity=3)
        others = [
            BidderProfile(id=0, tx_size=0.0, demand=1.0, bid=10.0),
            BidderProfile(id=1, tx_size=0.0, demand=1.0, bid=8.0),
        ]
        truthful = run_auction(
            others + [BidderProfile(id=2, tx_size=0.0, demand=1.0, bid=4.0)], config
        )
        assert 2 not in truthful.winners

        misreport = run_auction(
            others + [BidderProfile(id=2, tx_size=0.0, demand=1.0, bid=7.0)], config
        )
        assert 2 in misreport.winners
        idx = misreport.ids.index(2)
        assert misreport.payments[idx] == pytest.approx(0.0, abs=1e-12)
        gain = bidder_utility(2, 4.0, misreport, config)
        assert gain == pytest.approx(0.013299834376432843, abs=1e-14)
        assert gain > 0.0


def test_bidder_utility_of_loser_is_zero():
    roster = [
        BidderProfile(id=0, tx_size=1.0, demand=1.0, bid=10.0),
        BidderProfile(id=1, tx_size=1.0, demand=1.0, bid=8.0),
    ]
    config = _config(capacity=1)
    outcome = run_auction(roster, config)
    assert bidder_utility(1, 8.0, outcome, config) == 0.0
    with pytest.raises(ValueError, match="unknown bidder"):
        bidder_utility(42, 1.0, outcome, config)
