"""Seeded parameter sweeps over the auction.

One sweep varies a single parameter over a grid, draws a fixed number of
market instances per grid value, clears each instance, and records welfare,
winner count and total payment. Instance randomness is derived from the
sweep's base seed and the instance's coordinates only, so results are
reproducible point by point: re-running a sweep, or the same grid value
inside a different grid, yields byte-identical rows.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, fields, replace
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

# Sweeps clear through _clear_rows; perfbench/spans.py wraps run_auction under this module's name.
from .auction import (  # noqa: F401
    AuctionConfig,
    _clear_rows,
    _RowFailure,
    _validate_bids,
    run_auction,
)
from .model import (
    BidderProfile,
    BlockchainParams,
    MarketConfig,
    NetworkEffectParams,
    ex_ante_valuation,
)

__all__ = [
    "SWEEPABLE_PARAMETERS",
    "DEFAULT_BLOCKCHAIN",
    "DEFAULT_NETWORK",
    "DEFAULT_UNIT_COST",
    "DEFAULT_HASH_EXPONENT",
    "DEFAULT_NUM_USERS",
    "DEFAULT_GRIDS",
    "RNG_FAMILY",
    "SweepSpec",
    "InstancePoint",
    "GridMean",
    "stable_instance_seed",
    "generate_instance",
    "default_sweep_spec",
    "sweep_metadata",
    "run_sweep",
    "emit_results",
]

# Reference market used throughout the experiments and as CLI defaults.
DEFAULT_BLOCKCHAIN = BlockchainParams(
    fixed_bonus=2.5, fee_rate=0.007, mean_block_interval=600.0, propagation_coeff=1.0
)
DEFAULT_NETWORK = NetworkEffectParams(mu=0.5, nu=0.005)
DEFAULT_UNIT_COST = 0.02
DEFAULT_HASH_EXPONENT = 1.2
DEFAULT_NUM_USERS = 600

DEFAULT_GRIDS: dict[str, tuple[float, ...]] = {
    "num_users": tuple(range(100, 1001, 100)),
    "fixed_bonus": (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0),
    "fee_rate": (0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007, 0.008, 0.009),
    "mean_block_interval": (100.0, 312.5, 525.0, 737.5, 950.0, 1162.5, 1375.0, 1587.5, 1800.0),
}
# A sweep varies one of the parameters that has a default grid.
SWEEPABLE_PARAMETERS = tuple(DEFAULT_GRIDS)

# Recorded in every result file so the stream stays reproducible.
RNG_FAMILY = "numpy PCG64"

_MASK64 = (1 << 64) - 1

# Bids per batch of sweep rows, padding included. At 100 instances per grid
# value the allocating sweeps ran about a tenth faster in batches of 2^16
# bids than of 2^18; at 2 instances every default sweep is one batch.
_BATCH_BIDS = 1 << 16


@dataclass(frozen=True)
class SweepSpec:
    """Complete, self-contained description of one sweep."""

    swept_parameter: str
    grid: tuple[float, ...]
    blockchain: BlockchainParams
    network: NetworkEffectParams
    market: MarketConfig
    num_users: int
    instances_per_point: int
    base_seed: int

    def __post_init__(self) -> None:
        if self.swept_parameter not in SWEEPABLE_PARAMETERS:
            raise ValueError(
                f"swept_parameter must be one of {SWEEPABLE_PARAMETERS}, "
                f"got {self.swept_parameter!r}"
            )
        if not self.grid:
            raise ValueError("grid must be non-empty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid values must be strictly increasing")
        # Refuses a bad user count, in num_users or a user-count grid, before market_at's int().
        non_binding_capacity(self.swept_parameter, self.grid, self.num_users)
        # BlockchainParams refuses every value the sweep could not clear.
        for g in self.grid:
            self.market_at(g)
        if self.instances_per_point < 1:
            raise ValueError("instances_per_point must be >= 1")
        if not 0 <= self.base_seed <= _MASK64:
            raise ValueError("base_seed must fit in 64 bits")

    def market_at(self, grid_value: float) -> tuple[int, BlockchainParams]:
        """The user count and chain parameters of the market at one grid value."""
        if self.swept_parameter == "num_users":
            return int(grid_value), self.blockchain
        return self.num_users, replace(self.blockchain, **{self.swept_parameter: float(grid_value)})


@dataclass(frozen=True)
class InstancePoint:
    """Outcome summary of a single cleared instance."""

    grid_value: float
    instance_index: int
    welfare: float
    winner_count: int
    total_payment: float


@dataclass(frozen=True)
class GridMean:
    """Per-grid-value means over all instances at that value."""

    grid_value: float
    welfare: float
    winner_count: float
    total_payment: float
    n_instances: int


# Output columns: the swept parameter's name, then each record's fields.
_POINT_FIELDS = ("sweep_param", *(f.name for f in fields(InstancePoint)))
_MEAN_FIELDS = ("sweep_param", *(f.name for f in fields(GridMean)))


def stable_instance_seed(base_seed: int, grid_value: float, instance_index: int) -> int:
    """Seed for one instance, independent of every other grid point.

    XOR of the base seed with a 64-bit digest of (grid value, index). The
    grid value enters as its float64 bit pattern, so equal values hash
    equally regardless of int or float spelling.
    """
    payload = struct.pack("<dQ", float(grid_value), int(instance_index))
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return (int(base_seed) ^ int.from_bytes(digest, "little")) & _MASK64


def _truthful_bids(
    num_users: int, blockchain: BlockchainParams, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Sizes uniform on [0, 1000] and their truthful unit bids, one row of each per seed."""
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    draws = (np.random.Generator(np.random.PCG64(int(seed))) for seed in seeds)
    sizes = np.array([rng.uniform(0.0, 1000.0, size=num_users) for rng in draws])
    return sizes, ex_ante_valuation(sizes, blockchain)


def generate_instance(
    num_users: int, blockchain: BlockchainParams, seed: int
) -> list[BidderProfile]:
    """Draw one market instance as a roster: the bids a sweep clears for this seed."""
    sizes, bids = _truthful_bids(num_users, blockchain, [seed])
    return [
        BidderProfile(id=i, tx_size=s, demand=1.0, bid=b)
        for i, (s, b) in enumerate(zip(sizes[0].tolist(), bids[0].tolist()))
    ]


def non_binding_capacity(swept_parameter: str, grid: Sequence[float], num_users: int) -> int:
    """Capacity that never binds: the largest user count the sweep puts in play.

    Refuses a num_users that is not an integer (bools included) or is below
    1, and a user-count grid value that is not a positive integer.
    """
    if isinstance(num_users, bool) or not isinstance(num_users, int):
        raise ValueError("num_users must be an integer")
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    if swept_parameter != "num_users":
        return num_users
    if any(not float(g).is_integer() or g < 1 for g in grid):
        raise ValueError("num_users grid values must be positive integers")
    return int(max(max(grid), num_users))


def default_sweep_spec(
    swept_parameter: str,
    *,
    instances_per_point: int = 100,
    base_seed: int = 0,
    unit_cost: float = DEFAULT_UNIT_COST,
    num_users: int = DEFAULT_NUM_USERS,
    grid: Sequence[float] | None = None,
) -> SweepSpec:
    """Sweep over the reference market with the standard grid for a parameter.

    Capacity is set so it never binds: the largest user count in play.
    """
    if swept_parameter not in DEFAULT_GRIDS:
        raise ValueError(f"no default grid for {swept_parameter!r}")
    chosen = tuple(grid) if grid is not None else DEFAULT_GRIDS[swept_parameter]
    market = MarketConfig(
        unit_cost=unit_cost,
        capacity=non_binding_capacity(swept_parameter, chosen, num_users),
        hash_exponent=DEFAULT_HASH_EXPONENT,
    )
    return SweepSpec(
        swept_parameter=swept_parameter,
        grid=chosen,
        blockchain=DEFAULT_BLOCKCHAIN,
        network=DEFAULT_NETWORK,
        market=market,
        num_users=num_users,
        instances_per_point=instances_per_point,
        base_seed=base_seed,
    )


def _clear_points(spec: SweepSpec, pairs: Sequence[tuple[float, int]]) -> list[InstancePoint]:
    """Clear (grid value, instance index) pairs as one batch of rows.

    Each row holds the bids _truthful_bids draws for the pair's seed; ids
    range(n) and unit demands need no roster. The drawer runs once per grid
    value, over that value's rows, which the pairs keep together. Once its
    bids are checked, a row shorter than the widest is padded with -inf,
    which the kernel sorts last and pays +0.0. A row's total payment sums
    its payments left to right in submission order.
    """
    seeds = [stable_instance_seed(spec.base_seed, g, i) for g, i in pairs]
    blocks = []
    for g, rows in groupby(range(len(pairs)), key=lambda row: pairs[row][0]):
        n, blockchain = spec.market_at(g)
        blocks.append(_truthful_bids(n, blockchain, [seeds[row] for row in rows])[1])
        _validate_bids(blocks[-1].ravel())
    bids = np.full((len(pairs), max(block.shape[1] for block in blocks)), -np.inf)
    start = 0
    for block in blocks:
        bids[start : start + len(block), : block.shape[1]] = block
        start += len(block)
    try:
        welfare, cleared, paid = _clear_rows(bids, AuctionConfig(spec.market, spec.network))
    except _RowFailure as exc:
        g, index = pairs[exc.row]
        raise RuntimeError(
            f"{exc} in the {spec.swept_parameter} sweep at {g!r}, "
            f"instance {index}, seed {seeds[exc.row]}"
        ) from exc
    # A batch with no winner pays nothing, and skips the sum.
    totals = np.cumsum(paid, axis=1)[:, -1].tolist() if cleared.m.any() else [0.0] * len(pairs)
    return [
        InstancePoint(g, index, w, k, total)
        for (g, index), w, k, total in zip(pairs, welfare, cleared.m.tolist(), totals)
    ]


def run_sweep(spec: SweepSpec) -> tuple[list[InstancePoint], list[GridMean]]:
    """Clear every (grid value, instance) pair and aggregate per-point means.

    Results are ordered by grid position then instance index. The pairs
    clear in that order as batches of rows, each batch as many rows as fit
    _BATCH_BIDS at its widest row (or one row).
    """
    n = spec.instances_per_point
    # A row is as wide as its roster. Only the num_users sweep varies that,
    # so only it asks market_at, which builds chain parameters for the others.
    varied = spec.swept_parameter == "num_users"
    points: list[InstancePoint] = []
    batch: list[tuple[float, int]] = []
    width = 0
    for g in spec.grid:
        size = spec.market_at(g)[0] if varied else spec.num_users
        for i in range(n):
            width = max(width, size)
            if batch and (len(batch) + 1) * width > _BATCH_BIDS:
                points += _clear_points(spec, batch)
                batch, width = [], size
            batch.append((g, i))
    points += _clear_points(spec, batch)

    # Each grid value's sums run left to right in instance order, whatever the
    # interpreter's sum does; the winner counts sum exactly as floats.
    columns = [(p.welfare, p.winner_count, p.total_payment) for p in points]
    sums = np.cumsum(np.reshape(columns, (len(spec.grid), n, 3)), axis=1)[:, -1]
    means = [GridMean(g, *(sums_at / n).tolist(), n) for g, sums_at in zip(spec.grid, sums)]
    return points, means


def sweep_metadata(spec: SweepSpec) -> dict:
    """Everything needed to reproduce a sweep, including the RNG family."""
    return {
        "rng_family": RNG_FAMILY,
        "seed_derivation": "base_seed XOR blake2b64(float64_le(grid_value) || uint64_le(instance_index))",
        "swept_parameter": spec.swept_parameter,
        "grid": list(spec.grid),
        "instances_per_point": spec.instances_per_point,
        "base_seed": spec.base_seed,
        "num_users": spec.num_users,
        **asdict(spec.blockchain),
        **asdict(spec.network),
        **asdict(spec.market),
    }


def _csv_cell(value: str | int | float) -> str:
    # repr of a Python number round-trips exactly and is stable across runs.
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return repr(value)
    return repr(float(value))


def emit_results(
    points: Sequence[InstancePoint],
    means: Sequence[GridMean],
    format: str,
    destination: str | Path,
    *,
    sweep_param: str,
    metadata: dict | None = None,
) -> list[Path]:
    """Write sweep results with full float precision; returns written paths.

    csv: instance rows go to the destination, per-point means to a sibling
    file with the _means suffix, metadata to a _meta.json sibling.
    json: one file holding metadata, points and means.
    """
    dest = Path(destination)
    dest.parent.mkdir(parents=True, exist_ok=True)
    meta = {"rng_family": RNG_FAMILY}
    meta.update(metadata or {})
    # Every field is a plain number, listed by vars() in declaration order.
    point_rows = [(sweep_param, *vars(p).values()) for p in points]
    mean_rows = [(sweep_param, *vars(m).values()) for m in means]

    if format == "csv":
        means_path = dest.with_name(dest.stem + "_means" + (dest.suffix or ".csv"))
        tables = ((dest, _POINT_FIELDS, point_rows), (means_path, _MEAN_FIELDS, mean_rows))
        for path, header, rows in tables:
            lines = [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]
            path.write_text("\n".join(lines) + "\n")

        meta_path = dest.with_name(dest.stem + "_meta.json")
        meta_path.write_text(json.dumps(meta, indent=2) + "\n")
        return [dest, means_path, meta_path]

    if format == "json":
        payload = {
            "metadata": meta,
            "points": [dict(zip(_POINT_FIELDS, row)) for row in point_rows],
            "means": [dict(zip(_MEAN_FIELDS, row)) for row in mean_rows],
        }
        dest.write_text(json.dumps(payload, indent=2) + "\n")
        return [dest]

    raise ValueError(f"unknown format {format!r}, expected csv or json")
