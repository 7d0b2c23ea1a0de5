"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with a short factual detail,
then asserts. The reference market clears nothing, so criteria 2 and 3
draw their default-market instances, and the sweep-trend criteria 7 and 8
run, in the allocating regime (conftest's ALLOCATING_UNIT_COST) with the
reference seeds, grids and instance counts, and so does a companion to
criterion 6 for the user sweep. Criteria 2, 3 and 5 each assert that some
instance has a winner, so none of them can pass on empty winner sets.
There the winner count of the bonus sweep peaks inside its grid, so
criterion 7 fails on that one clause; its detail string gives the peak.
"""

import time
from dataclasses import replace

import numpy as np

from edgeauction import (
    AuctionConfig,
    BlockchainParams,
    HashPowerSample,
    MarketConfig,
    bidder_utility,
    default_sweep_spec,
    emit_results,
    ex_ante_valuation,
    fit_alpha,
    generate_instance,
    network_effect,
    oracle_exhaustive,
    oracle_topk,
    run_auction,
    run_sweep,
    select_winners_greedy,
    stable_instance_seed,
    sweep_metadata,
    welfare_of_set,
)

from conftest import (
    ALLOCATING_UNIT_COST,
    DEFAULT_NETWORK,
    DEFAULT_UNIT_COST,
    sample_default_instance,
    sample_varied_instance,
)

# generate_instance draws transaction sizes uniform on [0, 1000].
_MAX_TX_SIZE = 1000.0


def _break_even_bid(unit_cost: float) -> float:
    """Smallest bid that can win: c / w(1).

    The network curve is concave (mu <= 1), so w(k)/k <= w(1) and a winner
    set whose bids all lie below c / w(1) has negative welfare.
    """
    return unit_cost / network_effect(1.0, DEFAULT_NETWORK)


# 6.005 on the reference market: above the largest truthful bid of every
# default sweep grid, so that market never clears.
_BREAK_EVEN_BID = _break_even_bid(DEFAULT_UNIT_COST)


def _largest_truthful_bid(spec) -> float:
    """Largest truthful bid any instance of a blockchain-parameter sweep can draw.

    v'(s) = (T + r s) exp(-xi s / lam) is single-peaked at s = lam / xi - T / r
    (at s = 0 when r = 0), so its maximum over sizes in [0, _MAX_TX_SIZE] is
    at that peak clipped into the range.
    """
    best = 0.0
    for g in spec.grid:
        bc = replace(spec.blockchain, **{spec.swept_parameter: float(g)})
        peak = (
            bc.mean_block_interval / bc.propagation_coeff - bc.fixed_bonus / bc.fee_rate
            if bc.fee_rate > 0
            else 0.0
        )
        best = max(best, ex_ante_valuation(min(max(peak, 0.0), _MAX_TX_SIZE), bc))
    return best


def _regime_detail() -> str:
    return (
        f"allocating regime unit_cost={ALLOCATING_UNIT_COST:g} (break-even bid "
        f"{_break_even_bid(ALLOCATING_UNIT_COST):.3f}; the reference "
        f"unit_cost={DEFAULT_UNIT_COST:g} needs {_BREAK_EVEN_BID:.3f})"
    )


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _criterion2_instances():
    rng = np.random.default_rng(20240812)
    for _ in range(1000):
        yield sample_default_instance(rng, lo=1, hi=200, unit_cost=ALLOCATING_UNIT_COST)


def _criterion3_instances():
    rng = np.random.default_rng(20240813)
    for _ in range(200):
        yield sample_default_instance(rng, lo=1, hi=12, unit_cost=ALLOCATING_UNIT_COST)


def _criterion4_instances():
    rng = np.random.default_rng(20240814)
    for _ in range(500):
        yield sample_varied_instance(rng, lo=2, hi=30)


def test_criterion_1_exhaustive_oracle_equivalence():
    rng = np.random.default_rng(20240811)
    start = time.perf_counter()
    worst = 0.0
    nonempty = 0
    for _ in range(1000):
        roster, config = sample_varied_instance(rng, lo=1, hi=12)
        _, s_topk = oracle_topk([p.bid for p in roster], config)
        _, s_exh = oracle_exhaustive(roster, config)
        worst = max(worst, abs(s_topk - s_exh))
        nonempty += s_exh > 0.0
    elapsed = time.perf_counter() - start
    _report(
        "oracle equivalence",
        worst <= 1e-9 and elapsed < 10.0,
        f"1000 instances, max |topk - exhaustive| = {worst:.3e}, "
        f"{nonempty} non-empty optima, {elapsed:.1f}s",
    )


def test_criterion_2_greedy_matches_topk_on_default_market():
    start = time.perf_counter()
    worst = 0.0
    nonempty = 0
    mismatches = []
    for roster, config in _criterion2_instances():
        bids = [p.bid for p in roster]
        greedy = select_winners_greedy(bids, config)
        s_greedy = welfare_of_set([bids[i] for i in greedy], config)
        topk, s_topk = oracle_topk(bids, config)
        gap = abs(s_greedy - s_topk)
        worst = max(worst, gap)
        nonempty += bool(greedy)
        if gap > 1e-9:
            mismatches.append(
                f"{len(bids)} bids: {len(greedy)} winners at {s_greedy!r}, "
                f"top-k {len(topk)} at {s_topk!r}"
            )
    elapsed = time.perf_counter() - start
    _report(
        "greedy agreement",
        worst <= 1e-9 and nonempty > 0,
        f"1000 default-market instances in the {_regime_detail()}, "
        f"max gap {worst:.3e}, {elapsed:.1f}s; {nonempty} allocate; "
        f"{len(mismatches)} mismatches {mismatches[:3]}",
    )


def test_criterion_3_truthful_bidding_maximizes_utility():
    rng = np.random.default_rng(20240813)
    start = time.perf_counter()
    violations = 0
    worst_gain = 0.0
    checked = 0
    allocating = 0
    for roster, config in _criterion3_instances():
        truthful = run_auction(roster, config)
        allocating += bool(truthful.winners)
        for i, bidder in enumerate(roster):
            base = bidder_utility(bidder.id, bidder.bid, truthful, config)
            for misreport in rng.uniform(0.0, 2.0 * bidder.bid, size=50):
                twisted = list(roster)
                twisted[i] = replace(bidder, bid=float(misreport))
                outcome = run_auction(twisted, config)
                gain = bidder_utility(bidder.id, bidder.bid, outcome, config) - base
                checked += 1
                if gain > 1e-9:
                    violations += 1
                    worst_gain = max(worst_gain, gain)
    elapsed = time.perf_counter() - start
    _report(
        "truthfulness",
        violations == 0 and allocating > 0 and elapsed < 60.0,
        f"{checked} misreports over 200 default-market instances in the "
        f"{_regime_detail()}, {allocating} allocate when truthful; "
        f"{violations} profitable, worst gain {worst_gain:.3e}, {elapsed:.1f}s; "
        f"the pricing rule is not truthful off this market (pinned in test_auction.py)",
    )


def test_criterion_4_winners_keep_winning_under_bid_raises():
    rng = np.random.default_rng(20240814)
    start = time.perf_counter()
    violations = 0
    raises_checked = 0
    for roster, config in _criterion4_instances():
        outcome = run_auction(roster, config)
        for wid in outcome.winners:
            idx = outcome.ids.index(wid)
            bidder = roster[idx]
            for factor in 1.0 + rng.uniform(0.01, 2.0, size=10):
                twisted = list(roster)
                twisted[idx] = replace(bidder, bid=float(bidder.bid * factor))
                raised = run_auction(twisted, config)
                raises_checked += 1
                if wid not in raised.winners:
                    violations += 1
    elapsed = time.perf_counter() - start
    _report(
        "monotonicity",
        violations == 0 and raises_checked > 500,
        f"{raises_checked} bid raises over 500 varied instances, "
        f"{violations} lost seats, {elapsed:.1f}s",
    )


def test_criterion_5_individual_rationality_and_payment_bounds():
    start = time.perf_counter()
    ir_violations = 0
    negative_payments = 0
    overcharges = 0
    nonzero_loser_payments = 0
    winners_checked = 0
    instances = 0
    allocating = 0
    for source in (_criterion2_instances, _criterion3_instances, _criterion4_instances):
        for roster, config in source():
            instances += 1
            outcome = run_auction(roster, config)
            m = len(outcome.winners)
            allocating += m > 0
            share = (network_effect(float(m), config.network) / m) if m else 0.0
            winner_ids = set(outcome.winners)
            for bidder, payment in zip(roster, outcome.payments):
                if bidder.id in winner_ids:
                    winners_checked += 1
                    if payment < 0.0:
                        negative_payments += 1
                    if payment > share * bidder.bid + 1e-12:
                        overcharges += 1
                    if bidder_utility(bidder.id, bidder.bid, outcome, config) < -1e-9:
                        ir_violations += 1
                else:
                    if payment != 0.0:
                        nonzero_loser_payments += 1
    elapsed = time.perf_counter() - start
    ok = (
        ir_violations == 0
        and negative_payments == 0
        and overcharges == 0
        and nonzero_loser_payments == 0
        and winners_checked > 500
        and allocating > 0
    )
    _report(
        "individual rationality and payment bounds",
        ok,
        f"{instances} instances, {allocating} allocate, {winners_checked} winners: "
        f"{ir_violations} IR violations, {negative_payments} negative payments, "
        f"{overcharges} payments above the allocated bid share, "
        f"{nonzero_loser_payments} paying losers, {elapsed:.1f}s",
    )


def test_criterion_6_welfare_trends_under_user_growth():
    start = time.perf_counter()
    spec = default_sweep_spec("num_users", instances_per_point=100, base_seed=20240817)
    _, means = run_sweep(spec)
    elapsed = time.perf_counter() - start
    s = [m.welfare for m in means]
    w = [m.winner_count for m in means]
    s_nondecreasing = all(b >= a for a, b in zip(s, s[1:]))
    w_nondecreasing = all(b >= a for a, b in zip(w, w[1:]))
    diminishing = (s[-1] - s[-2]) <= 0.5 * (s[1] - s[0])
    ok = s_nondecreasing and w_nondecreasing and diminishing and elapsed < 300.0
    _report(
        "user-growth trend",
        ok,
        f"mean welfare per point {s[0]:.4f}..{s[-1]:.4f}, nondecreasing={s_nondecreasing}, "
        f"winner counts nondecreasing={w_nondecreasing}, diminishing={diminishing}, "
        f"{elapsed:.1f}s; every mean is 0 because no default-market bid reaches "
        f"the {_BREAK_EVEN_BID:.2f} break-even, so the trend holds vacuously",
    )


def test_allocating_user_sweep_welfare_grows_with_diminishing_increments():
    # Criterion 6 at the allocating cost, where the README's user-sweep
    # claim can be seen: every extra 100 users adds welfare, and less each time.
    start = time.perf_counter()
    spec = default_sweep_spec(
        "num_users",
        instances_per_point=100,
        base_seed=20240817,
        unit_cost=ALLOCATING_UNIT_COST,
    )
    _, means = run_sweep(spec)
    elapsed = time.perf_counter() - start
    s = [m.welfare for m in means]
    steps = [b - a for a, b in zip(s, s[1:])]
    increasing = all(d > 0.0 for d in steps)
    diminishing = all(b <= a for a, b in zip(steps, steps[1:]))
    _report(
        "allocating user-growth trend",
        increasing and diminishing,
        f"{_regime_detail()}; mean welfare {s[0]:.4f}..{s[-1]:.4f} "
        f"strictly_increasing={increasing}, increments {steps[0]:.4f}..{steps[-1]:.4f} "
        f"non-increasing={diminishing}, {elapsed:.1f}s",
    )


def test_criterion_7_welfare_trends_under_bonus_and_fee_sweeps():
    details = [_regime_detail()]
    ok = True
    for param in ("fixed_bonus", "fee_rate"):
        spec = default_sweep_spec(
            param,
            instances_per_point=100,
            base_seed=20240817,
            unit_cost=ALLOCATING_UNIT_COST,
        )
        _, means = run_sweep(spec)
        s = [m.welfare for m in means]
        w = [m.winner_count for m in means]
        strictly_increasing = all(b > a for a, b in zip(s, s[1:]))
        w_nondecreasing = all(b >= a for a, b in zip(w, w[1:]))
        w_plateau = (w[-1] - w[-2]) <= (w[1] - w[0])
        ok = ok and strictly_increasing and w_nondecreasing and w_plateau
        peak = max(range(len(w)), key=w.__getitem__)
        details.append(
            f"{param}: largest truthful bid {_largest_truthful_bid(spec):.2f}, "
            f"mean welfare {s[0]:.4f}..{s[-1]:.4f} "
            f"strictly_increasing={strictly_increasing}, winner counts "
            f"{w[0]:.1f}..{w[-1]:.1f} nondecreasing={w_nondecreasing} "
            f"plateau={w_plateau}, peak {w[peak]:.1f} at {param}={spec.grid[peak]:g}"
        )
        if not w_nondecreasing:
            details.append(
                f"the {param} winner count is not monotone; selection is the "
                f"exact top-k optimum by construction, so this is the model's "
                f"optimum, not a selection fault"
            )
    _report("bonus and fee trends", ok, "; ".join(details))


def test_criterion_8_winner_peak_under_block_interval_sweep():
    spec = default_sweep_spec(
        "mean_block_interval",
        instances_per_point=100,
        base_seed=20240817,
        unit_cost=ALLOCATING_UNIT_COST,
    )
    _, means = run_sweep(spec)
    s = [m.welfare for m in means]
    w = [m.winner_count for m in means]
    strictly_increasing = all(b > a for a, b in zip(s, s[1:]))
    peak = max(range(len(w)), key=w.__getitem__)
    interior_peak = 0 < peak < len(w) - 1
    _report(
        "block-interval trend",
        strictly_increasing and interior_peak,
        f"{_regime_detail()}; largest truthful bid {_largest_truthful_bid(spec):.2f}, "
        f"mean welfare {s[0]:.4f}..{s[-1]:.4f} strictly_increasing={strictly_increasing}, "
        f"winner-count peak {w[peak]:.1f} at grid index {peak} "
        f"(mean_block_interval={spec.grid[peak]:g}, interior={interior_peak})",
    )


def test_criterion_9_alpha_recovery_round_trip():
    demands = np.linspace(10.0, 100.0, 20)
    field = (40.0, 60.0)

    def samples(noise=0.0, rng=None):
        out = []
        for d in demands:
            g = float(d**1.2 / (d**1.2 + sum(f**1.2 for f in field)))
            if noise:
                g = float(np.clip(g + rng.normal(0.0, noise), 1e-6, 1.0 - 1e-6))
            out.append(HashPowerSample(float(d), field, g))
        return out

    clean = fit_alpha(samples())
    noisy = fit_alpha(samples(noise=0.01, rng=np.random.default_rng(20240815)))
    clean_err = abs(clean.alpha - 1.2)
    noisy_err = abs(noisy.alpha - 1.2)
    _report(
        "calibration round trip",
        clean_err <= 1e-6 and noisy_err <= 0.05,
        f"noise-free error {clean_err:.2e}, noisy (sigma=0.01) error {noisy_err:.4f}",
    )


def test_criterion_10_thousand_bidder_auction_under_a_minute():
    # a bonus of 50 puts most truthful bids far above break-even, so this
    # exercises a large winner set and the full payment path
    blockchain = BlockchainParams(
        fixed_bonus=50.0, fee_rate=0.007, mean_block_interval=600.0, propagation_coeff=1.0
    )
    roster = generate_instance(1000, blockchain, stable_instance_seed(20240816, 1000.0, 0))
    market = MarketConfig(unit_cost=0.02, capacity=1000, hash_exponent=1.2)
    config = AuctionConfig(market=market, network=DEFAULT_NETWORK)
    start = time.perf_counter()
    outcome = run_auction(roster, config)
    elapsed = time.perf_counter() - start
    ok = (
        elapsed < 60.0
        and len(outcome.winners) > 0
        and all(p >= 0.0 for p in outcome.payments)
    )
    _report(
        "thousand-bidder performance",
        ok,
        f"N=1000 cleared in {elapsed:.3f}s, {len(outcome.winners)} winners, "
        f"welfare {outcome.welfare:.3f}, all payments non-negative",
    )


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    spec = default_sweep_spec("fee_rate", instances_per_point=100, base_seed=20240817)
    names = {}
    for run in ("first", "second"):
        out_dir = tmp_path / run
        out_dir.mkdir()
        points, means = run_sweep(spec)
        written = emit_results(
            points, means, "csv", out_dir / "sweep.csv",
            sweep_param=spec.swept_parameter, metadata=sweep_metadata(spec),
        )
        written += emit_results(
            points, means, "json", out_dir / "sweep.json",
            sweep_param=spec.swept_parameter, metadata=sweep_metadata(spec),
        )
        names[run] = written
    pairs = list(zip(names["first"], names["second"]))
    identical = all(a.read_bytes() == b.read_bytes() for a, b in pairs)
    _report(
        "determinism",
        identical and len(pairs) == 4,
        f"fee sweep re-run: {len(pairs)} output files byte-identical={identical}",
    )
