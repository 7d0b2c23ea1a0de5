"""Winner selection and pricing for renting edge capacity to miners.

Each bidder asks for one resource unit, so an outcome is just a winner set
W. Its welfare, written in terms of the submitted bids, is

    S(W) = (1/|W|) w(|W|) sum_{i in W} b_i - c |W|,     S(empty) = 0,

with w the network-effect curve from the model module. For a fixed size the
highest bids maximise S, so selection takes the top-k prefix of largest
welfare; payments charge each winner the externality it imposes, computed
from a counterfactual run without that winner. The counterfactual without
the highest bid bounds every other one from below, and the prefix welfare
bounds each from above, so all of them are read off the few columns where
the prefix welfare reaches that lower bound.

Two independent oracles are provided for cross-checking selection: an
exact scan over top-k prefixes and an exhaustive subset enumeration (the
latter also evaluates rosters with non-unit demands). vcg_payment takes its
counterfactual from the first, so none of the three runs the clearing kernel.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import (
    BidderProfile,
    MarketConfig,
    NetworkEffectParams,
    network_effect,
)

__all__ = [
    "AuctionConfig",
    "AuctionOutcome",
    "WinnerSet",
    "welfare_of_set",
    "select_winners_greedy",
    "vcg_payment",
    "run_auction",
    "clear_bids",
    "oracle_topk",
    "oracle_exhaustive",
    "bidder_utility",
]

# Positions (or roster ids) of the winners, in admission order.
WinnerSet = tuple[int, ...]

# Consistency checks allow rounding residue up to this fraction of the
# magnitude of the terms compared (floored at 1): payments this close to
# zero from below clamp to zero, anything more negative is refused loudly.
_RELATIVE_TOLERANCE = 1e-9

# The dominance bound of _counterfactual_welfare holds within rounding:
# relatively within this multiple of the magnitude of its cells, which bounds
# their error many times over, and absolutely within a few units of the
# smallest subnormal, where rounding stops being relative.
_BOUND_MARGIN = 64 * np.finfo(float).eps
_SUBNORMAL_MARGIN = 4 * np.finfo(float).smallest_subnormal

# Cells per block of counterfactual rows: about 2 MB per temporary array.
_CELL_BUDGET = 1 << 18

_MAX_EXHAUSTIVE_BIDDERS = 20


@dataclass(frozen=True)
class AuctionConfig:
    market: MarketConfig
    network: NetworkEffectParams

    def __post_init__(self) -> None:
        if not isinstance(self.market, MarketConfig):
            raise ValueError("market must be a MarketConfig")
        if not isinstance(self.network, NetworkEffectParams):
            raise ValueError("network must be a NetworkEffectParams")


@dataclass(frozen=True)
class AuctionOutcome:
    """Everything the provider publishes after clearing one auction."""

    ids: tuple[int, ...]          # bidder ids, in submission order
    allocation: tuple[int, ...]   # x_i in {0, 1}, aligned with ids
    payments: tuple[float, ...]   # p_i >= 0, aligned with ids; losers pay 0
    winners: WinnerSet            # winner ids in admission order
    welfare: float


def _validate_bids(bids: Sequence[float] | np.ndarray) -> np.ndarray:
    values = np.asarray(bids, dtype=float)
    if not (np.isfinite(values).all() and (values >= 0.0).all()):
        raise ValueError("bids must be finite and >= 0")
    return values


def _welfare(k: int, total: float | np.ndarray, config: AuctionConfig) -> float | np.ndarray:
    """Welfare of k winners whose bids sum to total; 0.0 for k = 0.

    total may be an array of such sums, all for the same k.
    """
    if k == 0:
        return 0.0
    w = network_effect(float(k), config.network)
    return (1.0 / k) * w * total - config.market.unit_cost * k


def welfare_of_set(bids_in_w: Iterable[float], config: AuctionConfig) -> float:
    """Welfare of a winner set, given the bids of its members.

    Returns exactly 0.0 for the empty set.
    """
    values = _validate_bids(list(bids_in_w)).tolist()
    return _welfare(len(values), sum(values), config)


@dataclass(frozen=True)
class _Clearing:
    """Clearing of one bid vector, shared by selection and pricing."""

    order: np.ndarray         # positions into the bid vector, highest bid first
    sorted_bids: np.ndarray   # the bids in that order
    prefix: np.ndarray        # prefix[k]: sum of the k highest bids; prefix[0] = 0
    coef: np.ndarray          # w(k) / k for k = 1..min(n, capacity)
    welfare_by_k: np.ndarray  # welfare of the top-k prefix for the same k
    m: int                    # winner count: the first k of largest welfare


# Overflow is silent here: a prefix sum past the float range is refused, and
# a cost c*k past it makes that prefix's welfare -inf, which no argmax picks.
@np.errstate(over="ignore")
def _clear(values: np.ndarray, config: AuctionConfig) -> _Clearing:
    # Stable sort keeps submission order among equal bids.
    order = np.argsort(-values, kind="stable")
    sorted_bids = values[order]
    prefix = np.concatenate(([0.0], np.cumsum(sorted_bids)))
    if not math.isfinite(prefix[-1]):
        raise ValueError("bids overflow: their sum is not finite")
    limit = min(values.size, config.market.capacity)
    kk = np.arange(1, limit + 1, dtype=float)
    coef = network_effect(kk, config.network) / kk
    welfare_by_k = coef * prefix[1 : limit + 1] - config.market.unit_cost * kk
    # Ties go to the smaller k; k = 0 is the empty set, of welfare 0.
    m = int(np.argmax(np.concatenate(([0.0], welfare_by_k))))
    return _Clearing(order, sorted_bids, prefix, coef, welfare_by_k, m)


def select_winners_greedy(bids: Sequence[float], config: AuctionConfig) -> WinnerSet:
    """Select the top-k prefix of largest welfare, k up to capacity.

    Bids are ranked in descending order, ties toward the earlier position.
    Among prefixes of equal welfare the shortest wins, so nobody is admitted
    unless welfare is positive. Returns positions into the bid vector, in
    rank order.
    """
    cleared = _clear(_validate_bids(bids), config)
    return tuple(cleared.order[: cleared.m].tolist())


@np.errstate(over="ignore")  # as in _clear; an infinite scale keeps every column
def _counterfactual_welfare(cleared: _Clearing, config: AuctionConfig) -> np.ndarray:
    """Welfare selection reaches with each winner removed, by rank.

    Each row's value is its largest cell, or 0 if none is positive, and
    every cell is the expression a literal re-run without the winner
    evaluates, so each value is bit-identical to that re-run. Row t's cells
    C_t(k) obey C_0(k) <= C_t(k) <= S(k), with S the top-k prefix welfare:
    row 0 drops the highest bid, and dropping one bid from the top k + 1
    leaves at most the top k. So a positive row maximum sits at a column
    whose S(k) reaches R_0, row 0's maximum floored at 0, and only those
    columns are read: O(n + m |K|) for the set K of them. Blocks of rows
    stay under a fixed cell budget, so memory does not grow with the roster.
    """
    m = cleared.m
    n = cleared.sorted_bids.size
    limit2 = min(n - 1, config.market.capacity)
    if m == 0 or limit2 == 0:
        return np.zeros(m)
    cost = config.market.unit_cost
    coef, prefix, welfare_by_k = cleared.coef, cleared.prefix, cleared.welfare_by_k
    bids = cleared.sorted_bids[:m]

    def row_maxima(rows: np.ndarray, ks: np.ndarray) -> np.ndarray:
        # max(0, S'_t(k)) over the columns ks (all >= 1) for each rank t in rows.
        out = np.zeros(rows.size)
        step = max(1, _CELL_BUDGET // ks.size)
        for i in range(0, rows.size, step):
            t = rows[i : i + step, None]
            shifted = coef[ks - 1] * (prefix[ks + 1] - bids[t]) - cost * ks
            best = np.where(ks <= t, welfare_by_k[ks - 1], shifted).max(axis=1)
            out[i : i + step] = np.where(best > 0.0, best, 0.0)
        return out

    every = np.arange(1, limit2 + 1)
    floor = row_maxima(np.zeros(1, dtype=int), every)[0]
    scale = np.max(coef[:limit2] * prefix[2 : limit2 + 2] + cost * every)
    ks = every[welfare_by_k[:limit2] >= floor - (_BOUND_MARGIN * scale + _SUBNORMAL_MARGIN)]
    if ks.size == 0:
        return np.zeros(m)
    return row_maxima(np.arange(m), ks)


def _roster_ids(roster: Sequence[BidderProfile]) -> tuple[int, ...]:
    """Bidder ids in submission order; refuses a roster that repeats one."""
    ids = tuple(p.id for p in roster)
    if len(set(ids)) != len(ids):
        repeated = next(i for i, count in Counter(ids).items() if count > 1)
        raise ValueError(f"duplicate bidder id {repeated}")
    return ids


def vcg_payment(
    winner_id: int,
    roster: Sequence[BidderProfile],
    winners: WinnerSet,
    config: AuctionConfig,
) -> float:
    """Payment of one winner: welfare the others lose by its presence.

    Takes the counterfactual welfare from oracle_topk on the roster without
    the winner, so no step of the clearing kernel is shared, then subtracts
    the welfare of the remaining winners evaluated as a set of their own.
    """
    _roster_ids(roster)
    by_id = {p.id: p.bid for p in roster}
    if winner_id not in by_id:
        raise ValueError(f"unknown bidder id {winner_id}")
    if winner_id not in winners:
        raise ValueError(f"bidder {winner_id} is not a winner")
    s_prime = oracle_topk([p.bid for p in roster if p.id != winner_id], config)[1]
    others = welfare_of_set([by_id[i] for i in winners if i != winner_id], config)
    return float(_clamp_payment(s_prime - others, abs(s_prime) + abs(others)))


def _tolerance(magnitude):
    return _RELATIVE_TOLERANCE * np.maximum(1.0, magnitude)


def _clamp_payment(p, magnitude=1.0):
    """Clamp payments within rounding residue below zero to zero; refuse the rest.

    The residue allowed scales with the magnitude of the terms the payment
    is the difference of, floored at 1. Works elementwise on arrays.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < -_tolerance(magnitude)):
        raise RuntimeError(
            f"internal consistency failure: payment {float(p.min())} is negative beyond tolerance"
        )
    return np.where(p < 0.0, 0.0, p)


def clear_bids(bids: np.ndarray, config: AuctionConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Clear one bid vector: welfare, winner positions and every payment.

    The array core under run_auction. Winner positions index the bids in
    admission order; payments are aligned with the bids, losers paying 0.
    Bids must be finite and >= 0, and their sum must not overflow.
    Selection and pricing share one descending sort plus prefix sums;
    payments match a literal re-run of the selection for every winner, at
    O(n log n + m |K|) in all, where K is the set of columns the dominance
    bound of _counterfactual_welfare leaves to read.
    """
    values = _validate_bids(bids)
    cleared = _clear(values, config)
    m = cleared.m
    cost = config.market.unit_cost
    welfare = float(cleared.welfare_by_k[m - 1]) if m > 0 else 0.0
    winner_positions = cleared.order[:m]
    winner_bids = cleared.sorted_bids[:m]

    check = _welfare(m, sum(winner_bids.tolist()), config)
    magnitude = float(cleared.coef[m - 1] * cleared.prefix[m]) + cost * m if m > 0 else 0.0
    if abs(check - welfare) > _tolerance(magnitude):
        raise RuntimeError(
            f"internal consistency failure: welfare mismatch: {welfare!r} against {check!r} "
            f"(n={values.size}, m={m}, capacity={config.market.capacity}, "
            f"bids from {float(values.min())!r} to {float(values.max())!r})"
        )

    payments = np.zeros(values.size)
    if m > 0:
        s_prime = _counterfactual_welfare(cleared, config)
        # Welfare of the other winners as a set of their own.
        others = _welfare(m - 1, float(cleared.prefix[m]) - winner_bids, config)
        payments[winner_positions] = _clamp_payment(
            s_prime - others, np.abs(s_prime) + np.abs(others)
        )
    return welfare, winner_positions, payments


def run_auction(roster: Sequence[BidderProfile], config: AuctionConfig) -> AuctionOutcome:
    """Clear one auction: select winners, price every winner, assemble the outcome.

    The roster edge of clear_bids: it refuses repeated ids and non-unit
    demands, for which the rules are not defined, and reports by bidder id.
    """
    ids = _roster_ids(roster)
    for p in roster:
        if p.demand != 1.0:
            raise ValueError(
                f"bidder {p.id} demands {p.demand} units; the auction requires unit demands"
            )
    welfare, winner_positions, payments = clear_bids(
        np.array([p.bid for p in roster], dtype=float), config
    )
    allocation = np.zeros(len(roster), dtype=int)
    allocation[winner_positions] = 1
    return AuctionOutcome(
        ids=ids,
        allocation=tuple(allocation.tolist()),
        payments=tuple(payments.tolist()),
        winners=tuple(ids[i] for i in winner_positions.tolist()),
        welfare=welfare,
    )


def oracle_topk(bids: Sequence[float], config: AuctionConfig) -> tuple[WinnerSet, float]:
    """Exact optimum over top-k prefixes, scanning every feasible k.

    Ties prefer the smaller k. Independent of the clearing kernel: its own sort,
    a running sum of the bids and w(k) from the model for each k.
    """
    values = _validate_bids(bids).tolist()
    n = len(values)
    order = sorted(range(n), key=lambda i: (-values[i], i))
    best_k = 0
    best = 0.0
    total = 0.0
    for k in range(1, min(n, config.market.capacity) + 1):
        total += values[order[k - 1]]
        s = _welfare(k, total, config)
        if s > best:
            best, best_k = s, k
    if not math.isfinite(total):
        raise ValueError("bids overflow: their sum is not finite")
    return tuple(order[:best_k]), best


def oracle_exhaustive(
    roster: Sequence[BidderProfile], config: AuctionConfig
) -> tuple[tuple[int, ...], float]:
    """Brute-force welfare maximum over every subset of the roster.

    Evaluates the bid-valued objective

        (sum_{i in W} d_i^alpha b_i / sum_{i in W} d_i^alpha) w(sum d_i) - c sum d_i

    which reduces to welfare_of_set when all demands are 1, and enumerates
    rosters with arbitrary demands as well. Subsets whose total demand
    exceeds capacity are infeasible. Ties are broken toward the
    lexicographically smallest sorted id list; the empty set attains 0.
    Refuses rosters with more than 20 bidders.
    """
    n = len(roster)
    if n > _MAX_EXHAUSTIVE_BIDDERS:
        raise ValueError(
            f"exhaustive enumeration over {n} bidders refused (limit {_MAX_EXHAUSTIVE_BIDDERS})"
        )
    ids = _roster_ids(roster)
    demands = np.array([p.demand for p in roster], dtype=float)
    bids = np.array([p.bid for p in roster], dtype=float)
    weights = demands ** config.market.hash_exponent

    size = 1 << n
    demand_sum = np.zeros(size)
    weight_sum = np.zeros(size)
    value_sum = np.zeros(size)
    for i in range(n):
        lo = 1 << i
        demand_sum[lo : 2 * lo] = demand_sum[:lo] + demands[i]
        weight_sum[lo : 2 * lo] = weight_sum[:lo] + weights[i]
        value_sum[lo : 2 * lo] = value_sum[:lo] + weights[i] * bids[i]

    w = network_effect(demand_sum, config.network)
    with np.errstate(invalid="ignore", divide="ignore"):
        welfare = (value_sum / weight_sum) * w - config.market.unit_cost * demand_sum
    welfare[0] = 0.0
    welfare[demand_sum > config.market.capacity] = -np.inf

    best = float(welfare.max())
    if best <= 0.0:
        return tuple(0 for _ in range(n)), 0.0

    candidates = np.flatnonzero(welfare == best)

    def id_key(mask: int) -> tuple[int, ...]:
        return tuple(sorted(ids[i] for i in range(n) if mask >> i & 1))

    chosen = min((int(mask) for mask in candidates), key=id_key)
    allocation = tuple(1 if chosen >> i & 1 else 0 for i in range(n))
    return allocation, best


def bidder_utility(
    bidder_id: int, true_value: float, outcome: AuctionOutcome, config: AuctionConfig
) -> float:
    """Quasi-linear utility: realized value share minus payment; losers get 0."""
    if bidder_id not in outcome.ids:
        raise ValueError(f"unknown bidder id {bidder_id}")
    idx = outcome.ids.index(bidder_id)
    if outcome.allocation[idx] == 0:
        return 0.0
    k = len(outcome.winners)
    share = (1.0 / k) * network_effect(float(k), config.network)
    return share * true_value - outcome.payments[idx]
