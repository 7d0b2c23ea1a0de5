"""Shared instance samplers for the test suite.

Two families of random market instances are used throughout:

  * default instances: the reference market verbatim, truthful bids from
    transaction sizes uniform on [0, 1000];
  * varied instances: every parameter log-jittered around its reference
    value, restricted to mu <= 1 so the network curve stays concave.

compensated_sum stands in for the builtin sum of newer interpreters.
"""

from __future__ import annotations

import math

import numpy as np

from edgeauction import (
    AuctionConfig,
    BidderProfile,
    BlockchainParams,
    MarketConfig,
    NetworkEffectParams,
    ex_ante_valuation,
)
from edgeauction.experiments import (
    DEFAULT_BLOCKCHAIN,
    DEFAULT_HASH_EXPONENT,
    DEFAULT_NETWORK,
    DEFAULT_UNIT_COST,
)

# Capacity cost of the allocating regime. At DEFAULT_UNIT_COST the
# break-even bid c / w(1) = 6.005 exceeds every truthful bid on the default
# sweep grids, so no instance clears; the README ("Known properties and
# caveats") and scripts/run_sweeps.py name this cost as the one at which
# the sweep trends appear.
ALLOCATING_UNIT_COST = 0.001


def truthful_roster(sizes, blockchain) -> list[BidderProfile]:
    return [
        BidderProfile(
            id=i,
            tx_size=float(s),
            demand=1.0,
            bid=ex_ante_valuation(float(s), blockchain),
        )
        for i, s in enumerate(sizes)
    ]


def sample_default_instance(
    rng: np.random.Generator, lo: int = 1, hi: int = 200, unit_cost: float = DEFAULT_UNIT_COST
) -> tuple[list[BidderProfile], AuctionConfig]:
    """Reference-market instance with N ~ U{lo..hi} and non-binding capacity.

    unit_cost replaces the reference cost only; the draws do not depend on it.
    """
    n = int(rng.integers(lo, hi + 1))
    sizes = rng.uniform(0.0, 1000.0, size=n)
    roster = truthful_roster(sizes, DEFAULT_BLOCKCHAIN)
    market = MarketConfig(unit_cost=unit_cost, capacity=n, hash_exponent=DEFAULT_HASH_EXPONENT)
    return roster, AuctionConfig(market=market, network=DEFAULT_NETWORK)


def sample_varied_instance(
    rng: np.random.Generator, lo: int = 1, hi: int = 30
) -> tuple[list[BidderProfile], AuctionConfig]:
    """Instance with every parameter jittered around the reference market.

    Capacity D ~ U{1..N} can bind. mu stays below 1 (concave regime) and
    unit cost ranges down to where winner sets are commonly non-empty.
    """
    n = int(rng.integers(lo, hi + 1))
    capacity = int(rng.integers(1, n + 1))
    mu = 0.5 * 10.0 ** rng.uniform(-0.3, 0.3)
    nu = 0.005 * 10.0 ** rng.uniform(-1.0, 1.0)
    unit_cost = 0.02 * 10.0 ** rng.uniform(-2.0, 0.5)
    bonus = 2.5 * 10.0 ** rng.uniform(-1.0, 1.0)
    fee = 0.007 * 10.0 ** rng.uniform(-1.0, 1.0)
    interval = 600.0 * 10.0 ** rng.uniform(-0.78, 0.48)
    blockchain = BlockchainParams(
        fixed_bonus=bonus, fee_rate=fee, mean_block_interval=interval, propagation_coeff=1.0
    )
    network = NetworkEffectParams(mu=mu, nu=nu)
    market = MarketConfig(
        unit_cost=unit_cost, capacity=capacity, hash_exponent=DEFAULT_HASH_EXPONENT
    )
    sizes = rng.uniform(0.0, 1000.0, size=n)
    roster = truthful_roster(sizes, blockchain)
    return roster, AuctionConfig(market=market, network=network)


def compensated_sum(terms, start=0):
    """The builtin sum of CPython 3.12 and later on floats: Neumaier's compensated sum.

    Up to 3.11 the builtin adds left to right. A module whose sum is shadowed
    by this one shows whether its results depend on the interpreter.
    """
    hi, lo = float(start), 0.0
    for x in terms:
        t = hi + x
        lo += (hi - t) + x if abs(hi) >= abs(x) else (x - t) + hi
        hi = t
    return hi + lo if lo and math.isfinite(lo) else hi
