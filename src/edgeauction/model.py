"""Closed-form quantities for a proof-of-work mining market backed by edge computing.

Mobile miners cannot mine on their own hardware, so they rent computing
capacity from an edge service provider. Miner i requests d_i units and is
either served (x_i = 1) or not (x_i = 0). The quantities below describe the
mining race among the served miners:

    hash share          gamma_i = d_i^alpha x_i / sum_j d_j^alpha x_j
    orphaning risk      P_orphan(s) = 1 - exp(-xi s / lam)
    win probability     p_i = gamma_i exp(-xi s_i / lam)
    network effect      w(q) = (1 - exp(-nu q)) / (1 + mu exp(-nu q))
    ex-ante valuation   v1(s) = (T + r s) exp(-xi s / lam)
    ex-post valuation   v2_i = gamma_i w(q) v1(s_i),  q = sum_j d_j x_j
    social welfare      sum_i v2_i - c sum_i d_i x_i

where s_i is the size of the transactions miner i packs into its block,
T is the fixed bonus per mined block, r the fee rate per unit of
transaction size, lam the mean block interval, xi the propagation delay per
unit of transaction size, and c the provider's cost per resource unit.
A block propagating slowly (large s) is more likely to be orphaned, which
is what the exp(-xi s / lam) factor prices in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "BlockchainParams",
    "NetworkEffectParams",
    "MarketConfig",
    "BidderProfile",
    "hash_power",
    "orphan_probability",
    "block_win_probability",
    "network_effect",
    "ex_ante_valuation",
    "ex_post_valuation",
    "general_social_welfare",
]


# Every field check below is one chained comparison, which NaN and the
# infinities fail as well: a BidderProfile is built for every bidder of
# a roster, so the checks stay that cheap. Only a failed check pays
# for telling the two reasons apart.
def _invalid(name: str, value: float, bound: str) -> ValueError:
    if not math.isfinite(value):
        return ValueError(f"{name} must be finite")
    return ValueError(f"{name} must be {bound}")


@dataclass(frozen=True)
class BlockchainParams:
    """Protocol-level constants of the blockchain being mined."""

    fixed_bonus: float        # T >= 0, reward for mining a block
    fee_rate: float           # r >= 0, reward per unit of transaction size
    mean_block_interval: float  # lam > 0, expected time between blocks
    propagation_coeff: float  # xi >= 0, propagation delay per unit of size

    def __post_init__(self) -> None:
        if not 0.0 <= self.fixed_bonus < math.inf:
            raise _invalid("fixed_bonus", self.fixed_bonus, ">= 0")
        if not 0.0 <= self.fee_rate < math.inf:
            raise _invalid("fee_rate", self.fee_rate, ">= 0")
        if not 0.0 < self.mean_block_interval < math.inf:
            raise _invalid("mean_block_interval", self.mean_block_interval, "> 0")
        if not 0.0 <= self.propagation_coeff < math.inf:
            raise _invalid("propagation_coeff", self.propagation_coeff, ">= 0")


@dataclass(frozen=True)
class NetworkEffectParams:
    """Shape of the S-curve w(q) applied to the total allocated quantity."""

    mu: float  # > 0, controls where the curve bends
    nu: float  # > 0, growth rate per resource unit

    def __post_init__(self) -> None:
        if not 0.0 < self.mu < math.inf:
            raise _invalid("mu", self.mu, "> 0")
        if not 0.0 < self.nu < math.inf:
            raise _invalid("nu", self.nu, "> 0")


@dataclass(frozen=True)
class MarketConfig:
    """Provider-side constants: cost, capacity and the hash-power exponent."""

    unit_cost: float      # c >= 0, cost per allocated resource unit
    capacity: int         # D >= 1, resource units available
    hash_exponent: float  # alpha > 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.unit_cost < math.inf:
            raise _invalid("unit_cost", self.unit_cost, ">= 0")
        if not isinstance(self.capacity, int) or isinstance(self.capacity, bool):
            raise ValueError("capacity must be an integer")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 < self.hash_exponent < math.inf:
            raise _invalid("hash_exponent", self.hash_exponent, "> 0")


@dataclass(frozen=True)
class BidderProfile:
    """One miner's submission: identity, transaction size, demand and bid."""

    id: int
    tx_size: float  # s >= 0
    demand: float   # d > 0
    bid: float      # b >= 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.tx_size < math.inf:
            raise _invalid("tx_size", self.tx_size, ">= 0")
        if not 0.0 < self.demand < math.inf:
            raise _invalid("demand", self.demand, "> 0")
        if not 0.0 <= self.bid < math.inf:
            raise _invalid("bid", self.bid, ">= 0")


def _check_allocation(demands: Sequence[float], allocation: Sequence[int]) -> None:
    if len(demands) != len(allocation):
        raise ValueError("demands and allocation must have the same length")
    for x in allocation:
        if x not in (0, 1):
            raise ValueError("allocation entries must be 0 or 1")


def hash_power(
    demands: Sequence[float], allocation: Sequence[int], alpha: float
) -> np.ndarray:
    """Hash-power share of every miner under the given allocation.

    gamma_i = d_i^alpha x_i / sum_j d_j^alpha x_j. Shares of served miners
    sum to one; unserved miners get exactly 0. Raises if nobody is served,
    because the race has no participants then.
    """
    _check_allocation(demands, allocation)
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    d = np.asarray(demands, dtype=float)
    if np.any(d <= 0):
        raise ValueError("demands must be > 0")
    x = np.asarray(allocation, dtype=float)
    weights = d**alpha * x
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("no allocated miners: hash power is undefined")
    return weights / total


def _not_orphaned(tx_size: float | np.ndarray, params: BlockchainParams) -> float | np.ndarray:
    """exp(-xi s / lam), the chance a block of size s is not orphaned.

    On an array, math.exp maps over the elements, so each equals its scalar
    call bit for bit (np.exp differs in the last bit on 4.6 % of arguments).
    """
    if np.any(np.less(tx_size, 0)):
        raise ValueError("tx_size must be >= 0")
    exponent = -(params.propagation_coeff * tx_size) / params.mean_block_interval
    if isinstance(exponent, np.ndarray):
        return np.array([math.exp(x) for x in exponent.tolist()])
    return math.exp(exponent)


def orphan_probability(tx_size: float, params: BlockchainParams) -> float:
    """Probability that a freshly mined block is orphaned while propagating."""
    return 1.0 - _not_orphaned(tx_size, params)


def block_win_probability(
    gamma: float, tx_size: float, params: BlockchainParams
) -> float:
    """Probability of mining the next block and having it accepted."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    return gamma * _not_orphaned(tx_size, params)


def network_effect(
    total_allocated: float | np.ndarray, params: NetworkEffectParams
) -> float | np.ndarray:
    """S-shaped demand-side network effect of the total allocated quantity.

    Equals 0 at q = 0, strictly increases, and saturates at 1. A float goes
    through math.exp and an array through np.exp, so the scalar callers and
    the array kernels each keep their bits (the two differ in the last bit
    on some arguments).
    """
    is_array = isinstance(total_allocated, np.ndarray)
    if (total_allocated < 0).any() if is_array else total_allocated < 0:
        raise ValueError("total_allocated must be >= 0")
    u = (np.exp if is_array else math.exp)(-params.nu * total_allocated)
    return (1.0 - u) / (1.0 + params.mu * u)


def ex_ante_valuation(
    tx_size: float | np.ndarray, params: BlockchainParams
) -> float | np.ndarray:
    """Expected block reward per unit of hash power, before allocation.

    v1(s) = (T + r s) exp(-xi s / lam). This is also the truthful bid of a
    miner packing transactions of size s; an array of sizes gives the array
    of bids, each equal to its scalar call bit for bit.
    """
    return (params.fixed_bonus + params.fee_rate * tx_size) * _not_orphaned(tx_size, params)


def ex_post_valuation(
    bidder_index: int,
    profiles: Sequence[BidderProfile],
    allocation: Sequence[int],
    blockchain: BlockchainParams,
    network: NetworkEffectParams,
    alpha: float,
) -> float:
    """Realized valuation of one miner once the allocation is fixed.

    Unserved miners realize exactly 0.
    """
    if not 0 <= bidder_index < len(profiles):
        raise ValueError("bidder_index out of range")
    _check_allocation([p.demand for p in profiles], allocation)
    if allocation[bidder_index] == 0:
        return 0.0
    gammas = hash_power([p.demand for p in profiles], allocation, alpha)
    total = sum(p.demand * x for p, x in zip(profiles, allocation))
    me = profiles[bidder_index]
    return (
        float(gammas[bidder_index])
        * network_effect(total, network)
        * ex_ante_valuation(me.tx_size, blockchain)
    )


def general_social_welfare(
    profiles: Sequence[BidderProfile],
    allocation: Sequence[int],
    blockchain: BlockchainParams,
    network: NetworkEffectParams,
    market: MarketConfig,
) -> float:
    """Sum of ex-post valuations minus the provider's cost.

    The all-zero allocation is worth exactly 0 by convention.
    """
    _check_allocation([p.demand for p in profiles], allocation)
    if not any(allocation):
        return 0.0
    value = sum(
        ex_post_valuation(i, profiles, allocation, blockchain, network, market.hash_exponent)
        for i in range(len(profiles))
    )
    cost = market.unit_cost * sum(p.demand * x for p, x in zip(profiles, allocation))
    return value - cost
