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
the prefix welfare reaches that lower bound. Those columns are cut into
blocks that hold every winner's cell of each column, so the maximum over
the kept columns runs along contiguous rows.

Two independent oracles are provided for cross-checking selection: an
exact scan over top-k prefixes and an exhaustive subset enumeration (the
latter also evaluates rosters with non-unit demands). vcg_payment takes its
counterfactual from the first, so none of the three runs the clearing kernel.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
    "RosterColumns",
    "clear_roster",
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

# Cells per block of counterfactual welfare: about 2 MB per temporary array.
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
    if values.ndim != 1:
        raise ValueError(f"bids must be one-dimensional, got shape {values.shape}")
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


# A sweep clears at most ten roster sizes under one curve, so all of them stay cached.
@functools.lru_cache(maxsize=16)
def _curve(limit: int, network: NetworkEffectParams) -> tuple[np.ndarray, np.ndarray]:
    """k = 1..limit as floats and w(k)/k, read-only because every clearing shares them."""
    kk = np.arange(1, limit + 1, dtype=float)
    coef = network_effect(kk, network) / kk
    kk.flags.writeable = False
    coef.flags.writeable = False
    return kk, coef


# Overflow is silent here: a prefix sum past the float range is refused, and
# a cost c*k past it makes that prefix's welfare -inf, which no argmax picks.
@np.errstate(over="ignore")
def _clear(values: np.ndarray, config: AuctionConfig) -> _Clearing:
    # Highest bid first, equal bids in submission order. Where no two bids
    # are equal every sort gives that one order, so the default kind (a SIMD
    # quicksort, several times faster) serves; equal neighbours once sorted,
    # -0.0 and 0.0 among them, take the stable sort.
    order = np.argsort(-values)
    sorted_bids = values[order]
    if (sorted_bids[1:] == sorted_bids[:-1]).any():
        order = np.argsort(-values, kind="stable")
        sorted_bids = values[order]
    prefix = np.concatenate(([0.0], np.cumsum(sorted_bids)))
    if not math.isfinite(prefix[-1]):
        raise ValueError("bids overflow: their sum is not finite")
    limit = min(values.size, config.market.capacity)
    kk, coef = _curve(limit, config.network)
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
    """Welfare selection reaches with each winner removed, by rank; needs a winner.

    Each row's value is its largest cell, or 0 if none is positive, and
    every cell is the expression a literal re-run without the winner
    evaluates, so each value is bit-identical to that re-run. Row t's cells
    C_t(k) obey C_0(k) <= C_t(k) <= S(k), with S the top-k prefix welfare:
    row 0 drops the highest bid, and dropping one bid from the top k + 1
    leaves at most the top k. So a positive row maximum sits at a column
    whose S(k) reaches R_0, row 0's maximum floored at 0, and only those
    columns K are read. The cell at column k is w(k)/k times prefix[k] for
    k <= t, where the top k bids are kept, or prefix[k + 1] - b_t for k > t,
    less c k; for k <= t that is S(k) to the bit. O(n + m |K|) in all. K is
    cut into blocks that hold all m rows of each of their columns, under a
    fixed cell budget, so memory does not grow with the roster.
    """
    m = cleared.m
    limit2 = min(cleared.sorted_bids.size - 1, config.market.capacity)
    cost = config.market.unit_cost
    coef, prefix, welfare_by_k = cleared.coef, cleared.prefix, cleared.welfare_by_k
    bids = cleared.sorted_bids[:m]

    # Row 0 has no column k <= 0: every one of its cells drops the highest bid.
    every = np.arange(1, limit2 + 1)
    row0 = coef[:limit2] * (prefix[2 : limit2 + 2] - bids[0]) - cost * every
    floor = row0.max(initial=0.0)
    scale = (coef[:limit2] * prefix[2 : limit2 + 2] + cost * every).max(initial=0.0)
    ks = every[welfare_by_k[:limit2] >= floor - (_BOUND_MARGIN * scale + _SUBNORMAL_MARGIN)]

    best = np.full(m, -np.inf)
    ranks = np.arange(m)
    depth = max(1, _CELL_BUDGET // m)
    for j in range(0, ks.size, depth):
        cols = ks[j : j + depth, None]
        block = prefix[cols + 1] - bids
        # rows before the block's first kept column have no cell with k <= t
        start = int(cols[0, 0])
        np.copyto(block[:, start:], prefix[cols], where=cols <= ranks[start:])
        block *= coef[cols - 1]
        block -= cost * cols
        np.maximum(best, block.max(axis=0), out=best)
    return np.where(best > 0.0, best, 0.0)


def _roster_ids(ids: Iterable[int]) -> tuple[int, ...]:
    """Bidder ids in submission order, as a tuple; refuses a roster that repeats one."""
    ids = tuple(ids)
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
    _roster_ids([p.id for p in roster])
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


def _instance(values: np.ndarray, m: int, config: AuctionConfig) -> str:
    """The instance a consistency failure of clear_bids names, built only to raise."""
    return (
        f"(n={values.size}, m={m}, capacity={config.market.capacity}, "
        f"bids from {float(values.min())!r} to {float(values.max())!r})"
    )


def clear_bids(bids: np.ndarray, config: AuctionConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Clear one bid vector: welfare, winner positions and every payment.

    The array core under clear_roster. Winner positions index the bids in
    admission order; payments are aligned with the bids, losers paying 0.
    Bids must be a one-dimensional vector of values that are finite and
    >= 0, and their sum must not overflow.
    Selection and pricing share one descending order, equal bids in
    submission order, plus prefix sums;
    payments match a literal re-run of the selection for every winner, at
    O(n log n + m |K|) in all, where K is the set of columns the dominance
    bound of _counterfactual_welfare leaves to read; each winner's cell at a
    kept column is the expression its literal re-run evaluates there.
    """
    values = _validate_bids(bids)
    cleared = _clear(values, config)
    m = cleared.m
    winner_positions = cleared.order[:m]
    if m == 0:
        return 0.0, winner_positions, np.zeros(values.size)
    cost = config.market.unit_cost
    welfare = float(cleared.welfare_by_k[m - 1])
    winner_bids = cleared.sorted_bids[:m]

    check = _welfare(m, sum(winner_bids.tolist()), config)
    magnitude = float(cleared.coef[m - 1] * cleared.prefix[m]) + cost * m
    if abs(check - welfare) > _tolerance(magnitude):
        raise RuntimeError(
            f"internal consistency failure: welfare mismatch: {welfare!r} against {check!r} "
            f"{_instance(values, m, config)}"
        )

    s_prime = _counterfactual_welfare(cleared, config)
    # Welfare of the other winners as a set of their own.
    others = _welfare(m - 1, float(cleared.prefix[m]) - winner_bids, config)
    payments = np.zeros(values.size)
    try:
        payments[winner_positions] = _clamp_payment(s_prime - others, np.abs(s_prime) + np.abs(others))
    except RuntimeError as exc:
        raise RuntimeError(f"{exc} {_instance(values, m, config)}") from None
    return welfare, winner_positions, payments


@dataclass(frozen=True, eq=False)
class RosterColumns:
    """A roster held as columns: ids, tx sizes, demands and bids in submission order.

    run_auction clears it through clear_roster without a BidderProfile per
    bidder. It still reads as the roster it holds: its length is the number
    of bidders, and iterating it builds each bidder's profile in turn.
    """

    ids: Sequence[int]
    tx_sizes: Sequence[float] | np.ndarray
    demands: Sequence[float] | np.ndarray
    bids: Sequence[float] | np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[BidderProfile]:
        numbers = (map(float, c) for c in (self.tx_sizes, self.demands, self.bids))
        return map(BidderProfile, self.ids, *numbers)


def clear_roster(
    ids: Sequence[int],
    demands: Sequence[float] | np.ndarray,
    bids: Sequence[float] | np.ndarray,
    config: AuctionConfig,
) -> AuctionOutcome:
    """Clear one auction given as columns: ids, demands and bids in submission order.

    The roster edge of clear_bids: it refuses repeated ids and non-unit
    demands, for which the rules are not defined, and reports by bidder id
    and by the demand as given (an element of a float array prints as a
    float does).
    """
    ids = _roster_ids(ids)
    if not len(ids) == len(demands) == len(bids):
        raise ValueError(
            f"ids, demands and bids must have the same length, "
            f"got {len(ids)}, {len(demands)} and {len(bids)}"
        )
    non_unit = np.flatnonzero(np.asarray(demands, dtype=float) != 1.0)
    if non_unit.size:
        i = int(non_unit[0])
        raise ValueError(
            f"bidder {ids[i]} demands {demands[i]} units; the auction requires unit demands"
        )
    welfare, winner_positions, payments = clear_bids(bids, config)
    allocation = np.zeros(len(ids), dtype=int)
    allocation[winner_positions] = 1
    return AuctionOutcome(
        ids=ids,
        allocation=tuple(allocation.tolist()),
        payments=tuple(payments.tolist()),
        winners=tuple(ids[i] for i in winner_positions.tolist()),
        welfare=welfare,
    )


def run_auction(
    roster: Sequence[BidderProfile] | RosterColumns, config: AuctionConfig
) -> AuctionOutcome:
    """Clear one auction of bidder profiles: clear_roster on the roster's columns.

    A RosterColumns already holds them, so no profile is built for it.
    """
    if isinstance(roster, RosterColumns):
        return clear_roster(roster.ids, roster.demands, roster.bids, config)
    return clear_roster(
        [p.id for p in roster], [p.demand for p in roster], [p.bid for p in roster], config
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
    ids = _roster_ids([p.id for p in roster])
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
