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
the prefix welfare reaches that lower bound. The winners ranked above
those columns read only the one or two of them that can lead at their
bids. The kernel clears rows of bids together, as the sweeps batch their
instances, a shorter row's tail padded with -inf; clear_bids is that
kernel on one row.

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
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .model import (
    BidderProfile,
    MarketConfig,
    NetworkEffectParams,
    _hash_weights,
    _sum,
    _unheld_powers,
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


def _welfare(
    k: int | np.ndarray,
    total: float | np.ndarray,
    config: AuctionConfig,
    share: np.ndarray | None = None,
) -> float | np.ndarray:
    """Welfare of k winners whose bids sum to total >= 0; 0.0 for k = 0.

    total may be an array of such sums, all for the same k. k may be an
    int array instead, broadcast against total, with share the (1.0/k) w(k)
    of _curve: each element is then the scalar call's value to the bit.
    """
    if share is None:
        if k == 0:
            return 0.0
        share = (1.0 / k) * network_effect(float(k), config.network)
    else:
        share = share[k]
    return share * total - config.market.unit_cost * k


def welfare_of_set(bids_in_w: Iterable[float], config: AuctionConfig) -> float:
    """Welfare of a winner set, given the bids of its members.

    Returns exactly 0.0 for the empty set.
    """
    values = _validate_bids(list(bids_in_w)).tolist()
    if not (total := _sum(values)) < math.inf:
        raise ValueError("bids overflow: their sum is not finite")
    return _welfare(len(values), total, config)


class _Clearing(NamedTuple):
    """Clearing of rows of bids, shared by selection and pricing.

    A row shorter than n ends in -inf bids, which sort last and make every
    prefix, welfare and pricing cell past its own bids -inf.
    """

    order: np.ndarray         # (R, n): positions into each row, highest bid first
    sorted_bids: np.ndarray   # (R, n): each row's bids in that order
    prefix: np.ndarray        # (R, n + 1): prefix[r, k] sums row r's k highest bids
    coef: np.ndarray          # w(k) / k for k = 0..min(n, capacity), 0 at k = 0
    share: np.ndarray         # (1.0 / k) w(k) for k = 0..min(n, capacity), 0 at k = 0
    welfare_by_k: np.ndarray  # (R, len(coef)): welfare of each row's top-k prefix, 0 at k = 0
    m: np.ndarray             # (R,): winner counts, each the first k of largest welfare


# A sweep clears at most ten roster sizes under one curve, so all of them stay cached.
@functools.lru_cache(maxsize=16)
def _curve(limit: int, network: NetworkEffectParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k = 0..limit as floats, w(k)/k and _welfare's share (1.0/k) w(k), each indexed by k.

    Both quotients are 0 at k = 0, the empty set; the share is the scalar
    product, in its order. All three are read-only, because every clearing
    shares them.
    """
    kk = np.arange(limit + 1, dtype=float)
    w = network_effect(kk[1:], network)
    coef, share = np.zeros(limit + 1), np.zeros(limit + 1)
    np.divide(w, kk[1:], out=coef[1:])
    np.multiply(1.0 / kk[1:], w, out=share[1:])
    for curve in (kk, coef, share):
        curve.flags.writeable = False
    return kk, coef, share


def _along_rows(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """values[r, index[r, j]] for every row r, as one gather from the flat array."""
    if len(values) == 1:
        return values[0][index[0]][None]
    starts = np.arange(0, values.size, values.shape[1])[:, None]
    return values.ravel()[index + starts]


# Its callers silence overflow: a prefix sum past the float range is refused,
# and a cost c*k past it makes that prefix's welfare -inf, which no argmax picks.
def _clear(values: np.ndarray, config: AuctionConfig) -> _Clearing:
    # Highest bid first, equal bids in submission order. Where no two bids
    # of a row are equal every sort gives that one order, so the default
    # kind (a SIMD quicksort, several times faster) serves; rows with equal
    # neighbours once sorted, -0.0 and 0.0 among them, take the stable sort;
    # a -inf tail ties with itself alone, and sorts last in any order.
    order = np.argsort(-values, axis=1)
    sorted_bids = _along_rows(values, order)
    below = sorted_bids[:, 1:]
    tied = ((below == sorted_bids[:, :-1]) & (below > -np.inf)).any(axis=1)
    if tied.any():
        order[tied] = np.argsort(-values[tied], axis=1, kind="stable")
        sorted_bids = _along_rows(values, order)
    rows, n = values.shape
    prefix = np.empty((rows, n + 1))
    prefix[:, 0] = 0.0
    np.cumsum(sorted_bids, axis=1, out=prefix[:, 1:])
    # A sum past the float range reads +inf, or NaN once a -inf tail adds on.
    if not (prefix[:, -1] < np.inf).all():
        raise ValueError("bids overflow: their sum is not finite")
    limit = min(n, config.market.capacity)
    kk, coef, share = _curve(limit, config.network)
    # In place: a temporary of another shape than coef's is not reused. At
    # k = 0, the empty set, 0.0 * 0.0 - c * 0.0 is 0.0.
    welfare_by_k = prefix[:, : limit + 1] * coef
    welfare_by_k -= config.market.unit_cost * kk
    # Ties go to the smaller k, so with no positive welfare k = 0, the
    # empty set; so does a NaN welfare, which argmax picks first.
    best = welfare_by_k.argmax(axis=1)
    m = np.where(welfare_by_k[np.arange(rows), best] > 0.0, best, 0)
    return _Clearing(order, sorted_bids, prefix, coef, share, welfare_by_k, m)


@np.errstate(over="ignore")  # see _clear
def select_winners_greedy(bids: Sequence[float], config: AuctionConfig) -> WinnerSet:
    """Select the top-k prefix of largest welfare, k up to capacity.

    Bids are ranked in descending order, ties toward the earlier position.
    Among prefixes of equal welfare the shortest wins, so nobody is admitted
    unless welfare is positive. Returns positions into the bid vector, in
    rank order.
    """
    cleared = _clear(_validate_bids(bids)[None], config)
    return tuple(cleared.order[0, : cleared.m[0]].tolist())


# A column that another leads by this many margins at both ends of a row's
# bulk bids is below it at every bulk row; see _counterfactual_welfare.
_LEAD = 4
# Bulk cells below which finding those columns costs more calls than the
# cells it saves: there every winner reads the whole window.
_PRUNE_CELLS = 1 << 15


def _cells(lines: tuple, bids: np.ndarray) -> np.ndarray:
    """(P, W, T): each of a row's W lines (at - b) * slope - charge at each of its T bids b."""
    at, slope, charge = lines
    block = at[:, :, None] - bids[:, None, :]
    block *= slope[:, :, None]
    block -= charge[:, :, None]
    return block


def _cell_max(bids: np.ndarray, lines: tuple, held=None) -> np.ndarray:
    """Each row's largest cell at each of its bids, over its lines; (P, T) for bids (P, T).

    lines holds the at, slope and charge of each column, each (P, W).
    held = (cols, ranks, values), with each row's cols and ranks
    ascending, puts values[p, j] in the cell's place wherever
    cols[p, j] <= ranks[p, i]. Lines and bids are cut into blocks of at
    most _CELL_BUDGET cells.
    """
    rows, width = lines[0].shape
    count = bids.shape[1]
    depth = max(1, min(width, _CELL_BUDGET // (rows * count)))
    span = max(1, min(count, _CELL_BUDGET // (rows * depth)))
    # The columns from the first past every rank of its row on hold lines alone.
    held_width = 0 if held is None else width
    if held_width > depth:
        held_width = int((held[0] <= held[1][:, -1:]).sum(axis=1).max())
    best = np.empty(bids.shape)
    for i in range(0, count, span):
        part = slice(i, i + span)
        for j in range(0, width, depth):
            columns = slice(j, j + depth)
            block = _cells(tuple(x[:, columns] for x in lines), bids[:, part])
            if j < held_width:
                cols, ranks, values = held
                where = cols[:, columns, None] <= ranks[:, None, part]
                np.copyto(block, values[:, columns, None], where=where)
            if j:
                np.maximum(best[:, part], block.max(axis=1), out=best[:, part])
            else:
                block.max(axis=1, out=best[:, part])
    return best


# Run, as _clear is, under _clear_rows's silenced overflow and invalid values,
# and only where some row has a winner.
def _counterfactual_welfare(cleared: _Clearing, config: AuctionConfig) -> np.ndarray:
    """Welfare selection reaches with each winner removed: (R, max m), by rank.

    Entries past a row's winner count are unspecified. Each winner's value
    is its largest cell, or 0 if none is positive, and every cell is the
    expression a literal re-run without the winner evaluates, so each value
    is bit-identical to that re-run. Row t's cells C_t(k) obey
    C_0(k) <= C_t(k) <= S(k), with S the top-k prefix welfare: row 0 drops
    the highest bid, and dropping one bid from the top k + 1 leaves at most
    the top k. So a positive row maximum sits at a column whose S(k)
    reaches R_0, row 0's maximum floored at 0, less a margin; only those
    columns K are read, widened to the window from the least to the
    largest of them, since every column up to min(n - 1, capacity) is a
    cell of the re-run. A row with no kept column (not found) reads column
    1 alone: its floor is 0, so rank 0's cell there is <= 0 and later ranks
    hold S(1) < 0. The cell at column k is w(k)/k times prefix[k] for
    k <= t, where the top k bids are kept, or prefix[k + 1] - b_t for
    k > t, less c k; for k <= t that is S(k) to the bit.

    The winners ranked above the window's first column are its bulk rows,
    about 95 % of the winners of a sweep: each of their cells is the line
    L_k(b) = w(k)/k (prefix[k + 1] - b) - c k at the row's own bid. _cells
    is the one expression of that line: row 0, the cells at both ends of
    the bulk bids (at b_0 a gather from row 0) and every block. A
    computed cell lies within a few ulps of the scale of the cells (the
    largest w(k)/k prefix[k + 1] + c k) of its exact line, far inside one
    margin: 64 ulps of that scale plus 4 subnormals. Where a column d
    leads a column k by 4 margins in the computed cells at both ends of
    the bulk bids, b_0 and b_{top-1}, the exact gap is at least 3.9
    margins at both ends, so, being linear in b, over that whole interval;
    k's computed cell is then strictly below d's at every bulk row, and
    dropping k leaves each bulk maximum as it was. Each column is compared
    only with the two that lead at either end, O(|K|) per row, and with
    none where the scale is not finite. So the bulk rows read the one or
    two columns that can lead, and the other winners every column of the
    window. The cells are cut into blocks under a fixed budget, so memory
    does not grow with m |K|.
    """
    rows, n = cleared.sorted_bids.shape
    limit2 = min(n - 1, config.market.capacity)
    most = int(cleared.m.max(initial=0))
    if limit2 < 1:
        return np.zeros((rows, most))  # no column: every value is 0
    m, bids, prefix = cleared.m, cleared.sorted_bids, cleared.prefix
    welfare_by_k = cleared.welfare_by_k
    cost, coef = config.market.unit_cost, cleared.coef
    index = np.arange(rows)[:, None]

    # Row 0 has no column k <= 0: every one of its cells drops the highest bid.
    pre, charge = prefix[:, 2 : limit2 + 2], cost * np.arange(1, limit2 + 1)
    slopes = coef[1 : limit2 + 1]
    row0 = _cells((pre, slopes[None], charge[None]), bids[:, :1])[:, :, 0]
    floor = row0.max(axis=1, initial=0.0)
    scale = pre * slopes
    scale += charge
    scale = scale.max(axis=1, initial=0.0)
    margin = _BOUND_MARGIN * scale + _SUBNORMAL_MARGIN
    kept = welfare_by_k[:, 1 : limit2 + 1] >= (floor - margin)[:, None]
    lo = kept.argmax(axis=1) + 1
    found = kept[index[:, 0], lo - 1]
    hi = np.where(found, limit2 - kept[:, ::-1].argmax(axis=1), 1)
    cols = np.minimum(lo[:, None] + np.arange(int((hi - lo).max()) + 1), hi[:, None])
    lines = (prefix[index, cols + 1], coef[cols], cost * cols)
    values = welfare_by_k[index, cols]

    survivors = cols.shape[1]
    if int(m.sum()) * survivors >= _PRUNE_CELLS:
        # The bulk rows: ranks below every column of the window.
        top = np.minimum(m, lo)
        # The cells at both ends of the bulk bids; a column is beaten where
        # the column that leads at either end leads it by _LEAD margins at both.
        ends = [row0[index, cols - 1], _cells(lines, bids[index, top[:, None] - 1])[:, :, 0]]
        lead = _LEAD * margin[:, None]
        beaten = np.zeros(cols.shape, dtype=bool)
        for d in (end.argmax(axis=1)[:, None] for end in ends):
            beaten |= (ends[0][index, d] - ends[0] >= lead) & (ends[1][index, d] - ends[1] >= lead)
        beaten &= np.isfinite(scale)[:, None]
        survivors -= int(beaten.sum(axis=1).min())
    if survivors == cols.shape[1]:
        # No column to drop: every winner reads the window, in one pass.
        out = _cell_max(bids[:, :most], lines, (cols, np.arange(most)[None], values))
    else:
        # The columns that can lead come first; a row with fewer repeats
        # beaten columns, which are cells of the re-run as well.
        reads = np.argsort(beaten, axis=1, kind="stable")[:, :survivors]
        out = np.zeros((rows, most))
        bulk = _cell_max(bids[:, : int(top.max())], tuple(x[index, reads] for x in lines))
        out[:, : bulk.shape[1]] = bulk
        depth = int((m - top).max())
        if depth:
            ranks = top[:, None] + np.arange(depth)
            inside = ranks < m[:, None]
            ranks = np.minimum(ranks, m[:, None] - 1)
            rest = _cell_max(bids[index, ranks], lines, (cols, ranks, values))
            out[np.nonzero(inside)[0], ranks[inside]] = rest[inside]
    return np.where(out > 0.0, out, 0.0)


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
    return _clamp_payment(s_prime - others, abs(s_prime) + abs(others))


def _tolerance(magnitude):
    return _RELATIVE_TOLERANCE * np.maximum(1.0, magnitude)


def _clamp_payment(p: float, magnitude: float = 1.0) -> float:
    """Clamp a payment within rounding residue below zero to zero; refuse the rest.

    The residue allowed scales with the magnitude of the terms the payment
    is the difference of, floored at 1.
    """
    if p < -_tolerance(magnitude):
        raise RuntimeError(f"internal consistency failure: {_refusal(p)}")
    return 0.0 if p < 0.0 else p


def _refusal(p: float) -> str:
    return f"payment {float(p)} is negative beyond tolerance"


def _instance(values: np.ndarray, m: int, config: AuctionConfig) -> str:
    """The instance a consistency failure of one row names, built only to raise."""
    values = values[values > -np.inf]  # a -inf tail pads the row; it holds no bids
    return (
        f"(n={values.size}, m={m}, capacity={config.market.capacity}, "
        f"bids from {float(values.min())!r} to {float(values.max())!r})"
    )


class _RowFailure(RuntimeError):
    """A consistency failure of one row of a batch; row is its index."""

    def __init__(self, message: str, row: int) -> None:
        super().__init__(message)
        self.row = row


# Overflow is silent in _clear (see there), and so is it in pricing: an
# infinite scale keeps every column, and its -inf cells may meet. A magnitude
# past the float range reads as inf, and refuses nothing.
@np.errstate(over="ignore", invalid="ignore")
def _clear_rows(
    values: np.ndarray, config: AuctionConfig
) -> tuple[list[float], _Clearing, np.ndarray]:
    """Clear validated rows of bids: welfare, clearing and payments by bidder.

    Row r's winners are cleared.order[r, :cleared.m[r]], in admission
    order, and paid[r, i] is the payment of its bidder at position i, losers
    paying +0.0. A row shorter than the widest ends in -inf bids, none of
    which wins, so each is paid +0.0 as well. Every step runs once for all
    rows, _welfare as well: one call on the array of winner counts checks
    each row's welfare against the sum of its winner bids, and one on the
    block of winner counts less one prices each winner's others.
    Raises _RowFailure for the first row that fails the welfare check or
    refuses a payment, the welfare check first within a row.
    """
    cleared = _clear(values, config)
    m = cleared.m
    rows, most = m.size, int(m.max(initial=0))
    if not most:
        return [0.0] * rows, cleared, np.zeros(values.shape)
    index = np.arange(rows)
    cost = config.market.unit_cost
    winning = cleared.prefix[index, m]
    tolerance = _tolerance(cleared.coef[m] * winning + cost * m)
    welfare = cleared.welfare_by_k[index, m]
    inside = np.arange(most) < m[:, None]
    bids = cleared.sorted_bids[:, :most]

    # The check sums each row's winner bids apart from prefix, which the
    # selected welfare is computed from.
    check = _welfare(m, bids.sum(axis=1, where=inside), config, cleared.share)
    mismatch = abs(check - welfare) > tolerance
    # The welfare of each winner's others, whose bids are the row's winner
    # bids less its own; the ranks past a row's winners are masked out below.
    others = _welfare(m[:, None] - 1, winning[:, None] - bids, config, cleared.share)

    # Each winner's counterfactual, less the welfare of its others.
    s_prime = _counterfactual_welfare(cleared, config)
    payments = s_prime - others
    magnitude = np.abs(s_prime) + np.abs(others)
    refused = (inside & (payments < -_tolerance(magnitude))).any(axis=1)
    failed = (mismatch | refused).nonzero()[0]
    if failed.size:
        r = int(failed[0])
        reason = _refusal(payments[r, : m[r]].min())
        if mismatch[r]:
            reason = f"welfare mismatch: {float(welfare[r])!r} against {float(check[r])!r}"
        raise _RowFailure(
            f"internal consistency failure: {reason} {_instance(values[r], int(m[r]), config)}", r
        )
    # Payments within rounding residue below zero clamp to 0, as _clamp_payment does.
    by_rank = np.where(inside & (payments >= 0.0), payments, 0.0)
    # Each rank goes to its bidder; the ranks past a row's winners are losers.
    paid = np.zeros(values.shape)
    paid[index[:, None], cleared.order[:, :most]] = by_rank
    return welfare.tolist(), cleared, paid


def clear_bids(bids: np.ndarray, config: AuctionConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Clear one bid vector: welfare, winner positions and every payment.

    The array core under run_auction: the batch kernel on one row. Winner
    positions index the bids in admission order; payments are aligned with
    the bids, losers paying 0. Bids must be a one-dimensional vector of
    values that are finite and >= 0, and their sum must not overflow.
    Selection and pricing share one descending order, equal bids in
    submission order, plus prefix sums; payments match a literal re-run of
    the selection for every winner, at O(n log n + m |K|) at most, where K
    is the set of columns the dominance bound of _counterfactual_welfare
    leaves to read; each winner's cell at a column it reads is the
    expression its literal re-run evaluates there.
    """
    welfare, cleared, paid = _clear_rows(_validate_bids(bids)[None], config)
    return welfare[0], cleared.order[0, : cleared.m[0]], paid[0]


@dataclass(frozen=True, eq=False)
class RosterColumns:
    """A roster held as columns: ids, tx sizes, demands and bids in submission order.

    run_auction clears it without a BidderProfile per bidder. It still
    reads as the roster it holds: its length is the number of bidders, and
    iterating it builds each bidder's profile in turn.
    """

    ids: Sequence[int]
    tx_sizes: Sequence[float] | np.ndarray
    demands: Sequence[float] | np.ndarray
    bids: Sequence[float] | np.ndarray

    def __post_init__(self) -> None:
        lengths = tuple(map(len, (self.ids, self.tx_sizes, self.demands, self.bids)))
        if len(set(lengths)) > 1:
            raise ValueError(
                "ids, tx_sizes, demands and bids must have the same length, got %d, %d, %d and %d"
                % lengths
            )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[BidderProfile]:
        numbers = (map(float, c) for c in (self.tx_sizes, self.demands, self.bids))
        return map(BidderProfile, self.ids, *numbers)


def run_auction(
    roster: Sequence[BidderProfile] | RosterColumns, config: AuctionConfig
) -> AuctionOutcome:
    """Clear one auction: clear_bids on the roster's bids, reported by bidder id.

    A RosterColumns already holds the columns, so no profile is built for
    it. Refuses repeated ids and non-unit demands, for which the rules are
    not defined, and reports by bidder id and by the demand as given (an
    element of a float array prints as a float does).
    """
    if isinstance(roster, RosterColumns):
        ids, demands, bids = _roster_ids(roster.ids), roster.demands, roster.bids
    else:
        ids = _roster_ids(p.id for p in roster)
        demands, bids = [p.demand for p in roster], [p.bid for p in roster]
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
    weights = _hash_weights(demands, np.ones(n), config.market.hash_exponent)

    size = 1 << n
    demand_sum = np.zeros(size)
    weight_sum = np.zeros(size)
    value_sum = np.zeros(size)
    with np.errstate(over="ignore"):
        for i in range(n):
            lo = 1 << i
            demand_sum[lo : 2 * lo] = demand_sum[:lo] + demands[i]
            weight_sum[lo : 2 * lo] = weight_sum[:lo] + weights[i]
            value_sum[lo : 2 * lo] = value_sum[:lo] + weights[i] * bids[i]
    # Each sum over the full set, of terms >= 0 added in order, is the largest of its kind.
    if not weight_sum[-1] < math.inf:
        raise _unheld_powers(config.market.hash_exponent, "the sum of the powers overflows")
    if not value_sum[-1] < math.inf:
        raise ValueError("bids overflow: their sum is not finite")

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
