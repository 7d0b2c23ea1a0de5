"""Output checks for the benchmark, written apart from the program.

Nothing here calls into `edgeauction` or compares against a stored copy of
an earlier output. Every check recomputes what the mechanism must produce
from its definition:

    S(W) = w(k)/k * sum_{i in W} b_i - c k,    w(q) = (1 - e^{-nu q}) / (1 + mu e^{-nu q})

The winners must be the top k bids (ties to the earlier bidder) for a k
that maximises S over every top-k prefix; with mu <= 1 the curve w is
concave, so the first-decrease greedy rule of the program is exact and the
prefix scan here is the reference. A winner's payment is the best top-k
welfare of the roster without it minus the other winners' S.

Instances of a sweep are regenerated from the documented seed derivation:
seed = base_seed XOR blake2b64(float64_le(grid_value) || uint64_le(index)),
sizes uniform on [0, 1000] from numpy PCG64, truthful bids
v1(s) = (T + r s) exp(-xi s / lam).

Each check raises `CheckError` with a message naming what broke.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

# Relative tolerance of float comparisons. The program and these checks sum
# in different orders; 1e-9 of the magnitude of the terms covers that with
# room to spare while any real change of an output stands far above it.
REL_TOL = 1e-9

POINT_HEADER = ["sweep_param", "grid_value", "instance_index", "welfare", "winner_count", "total_payment"]
MEAN_HEADER = ["sweep_param", "grid_value", "welfare", "winner_count", "total_payment", "n_instances"]


class CheckError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Market:
    """The parameters the welfare definition needs."""

    unit_cost: float
    capacity: int
    mu: float
    nu: float


def network_effect(q: np.ndarray | float, mu: float, nu: float):
    u = np.exp(-nu * np.asarray(q, dtype=float))
    return (1.0 - u) / (1.0 + mu * u)


def _w(k: int, market: Market) -> float:
    u = math.exp(-market.nu * k)
    return (1.0 - u) / (1.0 + market.mu * u)


def descending_order(bids: np.ndarray) -> np.ndarray:
    """Positions by descending bid, ties to the earlier position."""
    return np.lexsort((np.arange(bids.size), -bids))


def prefix_welfare(sorted_bids: np.ndarray, market: Market) -> np.ndarray:
    """S of the top-k prefix for k = 1..min(n, capacity)."""
    limit = min(sorted_bids.size, market.capacity)
    k = np.arange(1, limit + 1, dtype=float)
    return network_effect(k, market.mu, market.nu) / k * np.cumsum(sorted_bids[:limit]) - market.unit_cost * k


def best_welfare(sorted_bids: np.ndarray, market: Market) -> float:
    """max(0, max_k S(top k)), the optimum over top-k prefixes."""
    if sorted_bids.size == 0:
        return 0.0
    return max(0.0, float(prefix_welfare(sorted_bids, market).max()))


def set_welfare(winner_bids: Sequence[float], market: Market) -> tuple[float, float]:
    """S of a winner set by exact summation, and the magnitude of its terms."""
    k = len(winner_bids)
    if k == 0:
        return 0.0, 0.0
    value = _w(k, market) / k * math.fsum(winner_bids)
    cost = market.unit_cost * k
    return value - cost, abs(value) + cost


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(scale, abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------------
# One auction


def check_auction(bids: np.ndarray, ids: Sequence[int], market: Market, outcome: dict,
                  sample_ranks: Sequence[int] = ()) -> None:
    """Check an `auction run` outcome against the roster it cleared.

    `bids` and `ids` are in submission order. `sample_ranks` adds winners,
    by admission rank, whose payment is recomputed from its counterfactual;
    the highest and the lowest winner are always among them.
    """
    n = bids.size
    _require(list(outcome["ids"]) == list(ids), "outcome ids differ from the roster")
    allocation = outcome["allocation"]
    payments = outcome["payments"]
    winners = list(outcome["winners"])
    _require(len(allocation) == n and len(payments) == n, "allocation or payments have the wrong length")
    _require(all(x in (0, 1) for x in allocation), "allocation entries must be 0 or 1")
    winner_ids = set(winners)
    _require(len(winner_ids) == len(winners), "a winner is listed twice")
    for i, x in enumerate(allocation):
        if x != (1 if ids[i] in winner_ids else 0):
            raise CheckError(f"allocation of bidder {ids[i]} disagrees with the winner list")
        if x == 0 and payments[i] != 0.0:
            raise CheckError(f"loser {ids[i]} pays {payments[i]!r}, not exactly 0")

    k = len(winners)
    order = descending_order(bids)
    _require(winners == [ids[int(i)] for i in order[:k]],
             f"winners are not the top {k} bids in descending order with ties to the earlier bidder")
    sorted_bids = bids[order]
    best = best_welfare(sorted_bids, market)
    welfare, scale = set_welfare(sorted_bids[:k].tolist(), market)
    _require(_close(welfare, best, scale + best) or welfare >= best,
             f"{k} winners give S = {welfare!r}, below the best top-k prefix {best!r}")
    _require(_close(float(outcome["welfare"]), welfare, scale),
             f"reported welfare {outcome['welfare']!r} differs from S of the winners {welfare!r}")
    if k == 0:
        return

    share = _w(k, market) / k
    position = {ids[int(i)]: int(i) for i in order[:k]}
    for w_id in winners:
        p = payments[position[w_id]]
        bound = share * float(bids[position[w_id]])
        _require(p >= 0.0 and p <= bound * (1.0 + REL_TOL) + REL_TOL * scale,
                 f"payment {p!r} of winner {w_id} lies outside [0, w(k)/k * bid = {bound!r}]")

    ranks = sorted({0, k - 1, *(r for r in sample_ranks if 0 <= r < k)})
    total = sorted_bids[:k].tolist()
    for t in ranks:
        counterfactual = best_welfare(np.delete(sorted_bids, t), market)
        others, others_scale = set_welfare(total[:t] + total[t + 1:], market)
        expected = counterfactual - others
        if expected < 0.0 and -expected <= REL_TOL * (others_scale + counterfactual):
            expected = 0.0
        winner = ids[int(order[t])]
        got = payments[int(order[t])]
        _require(_close(got, expected, others_scale + counterfactual),
                 f"payment of winner {winner} (rank {t}) is {got!r}, its counterfactual gives {expected!r}")


def check_scaled(plain: dict, scaled: dict, factor: float) -> None:
    """A roster re-expressed in a currency unit `factor` times smaller."""
    _require(list(scaled["winners"]) == list(plain["winners"]),
             "the scaled roster selects other winners than its plain roster")
    welfare = abs(float(plain["welfare"]))
    _require(_close(float(scaled["welfare"]), factor * float(plain["welfare"]), factor * welfare),
             f"scaled welfare {scaled['welfare']!r} is not {factor:g} x {plain['welfare']!r}")
    # A payment is a difference of welfare-sized terms, so its rounding error
    # scales with the welfare, not with the payment itself.
    for i, (a, b) in enumerate(zip(plain["payments"], scaled["payments"])):
        if not _close(float(b), factor * float(a), factor * (abs(float(a)) + 1e-3 * welfare)):
            raise CheckError(f"scaled payment {b!r} of bidder {plain['ids'][i]} is not {factor:g} x {a!r}")


# --------------------------------------------------------------------------
# Sweeps


def instance_seed(base_seed: int, grid_value: float, index: int) -> int:
    payload = struct.pack("<dQ", float(grid_value), int(index))
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return (int(base_seed) ^ int.from_bytes(digest, "little")) & ((1 << 64) - 1)


def truthful_bid(size: float, bonus: float, fee_rate: float, interval: float, xi: float) -> float:
    return (bonus + fee_rate * size) * math.exp(-xi * size / interval)


def regenerate_bids(num_users: int, bonus: float, fee_rate: float, interval: float, xi: float,
                    seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    sizes = rng.uniform(0.0, 1000.0, size=num_users)
    return np.array([truthful_bid(float(s), bonus, fee_rate, interval, xi) for s in sizes])


def largest_truthful_bid(bonus: float, fee_rate: float, interval: float, xi: float) -> float:
    """max of v1(s) over s in [0, 1000]: v1 rises until s = lam/xi - T/r, then falls."""
    if fee_rate <= 0.0 or xi <= 0.0:
        peak = 0.0 if fee_rate <= 0.0 else 1000.0
    else:
        peak = min(max(interval / xi - bonus / fee_rate, 0.0), 1000.0)
    return truthful_bid(peak, bonus, fee_rate, interval, xi)


@dataclass(frozen=True)
class SweepCase:
    """What one sweep of a pass was asked to do."""

    param: str
    grid: tuple[float, ...]
    instances: int
    base_seed: int
    num_users: int
    bonus: float
    fee_rate: float
    interval: float
    xi: float
    market: Market

    @classmethod
    def from_spec(cls, spec) -> "SweepCase":
        """Read what a sweep was asked to do off the `SweepSpec` that asked it."""
        bc, net, market = spec.blockchain, spec.network, spec.market
        return cls(param=spec.swept_parameter, grid=tuple(spec.grid), instances=spec.instances_per_point,
                   base_seed=spec.base_seed, num_users=spec.num_users, bonus=bc.fixed_bonus,
                   fee_rate=bc.fee_rate, interval=bc.mean_block_interval, xi=bc.propagation_coeff,
                   market=Market(market.unit_cost, market.capacity, net.mu, net.nu))

    def instance_params(self, grid_value: float) -> tuple[int, float, float, float]:
        values = {"num_users": self.num_users, "fixed_bonus": self.bonus,
                  "fee_rate": self.fee_rate, "mean_block_interval": self.interval}
        values[self.param] = int(grid_value) if self.param == "num_users" else float(grid_value)
        return (values["num_users"], values["fixed_bonus"], values["fee_rate"],
                values["mean_block_interval"])


def _read_rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(bool(rows) and rows[0] == header, f"{path.name}: header is not {header}")
    return rows[1:]


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{where}: {text!r} is not a number") from None
    _require(math.isfinite(value), f"{where}: {text!r} is not finite")
    return value


def check_sweep(case: SweepCase, points: Sequence, means: Sequence, csv_path: Path,
                sample: Sequence[tuple[int, int]] = (), expect_empty: bool = False) -> int:
    """Check one emitted sweep; returns how many instances had winners.

    `points` and `means` are the in-memory results, read only to test that
    the CSV holds their exact values. `sample` lists (grid position,
    instance index) pairs whose roster is regenerated and cleared here.
    """
    c = case.market.unit_cost
    point_rows = _read_rows(csv_path, POINT_HEADER)
    mean_rows = _read_rows(csv_path.with_name(csv_path.stem + "_means.csv"), MEAN_HEADER)
    meta = json.loads(csv_path.with_name(csv_path.stem + "_meta.json").read_text())
    _require(meta.get("base_seed") == case.base_seed and meta.get("swept_parameter") == case.param,
             f"{case.param}: metadata names another sweep")
    _require(len(point_rows) == len(case.grid) * case.instances == len(points),
             f"{case.param}: {len(point_rows)} point rows, expected {len(case.grid)} x {case.instances}")
    _require(len(mean_rows) == len(case.grid) == len(means),
             f"{case.param}: {len(mean_rows)} mean rows, expected {len(case.grid)}")

    cleared = 0
    parsed = []
    for r, (row, p) in enumerate(zip(point_rows, points)):
        where = f"{case.param} point row {r + 1}"
        _require(len(row) == 6 and row[0] == case.param, f"{where}: malformed row {row}")
        g = _parse_float(row[1], where)
        gi, idx = divmod(r, case.instances)
        _require(g == float(case.grid[gi]) and int(row[2]) == idx, f"{where}: out of order")
        welfare = _parse_float(row[3], where)
        count = int(row[4])
        payment = _parse_float(row[5], where)
        _require(welfare == p.welfare and count == p.winner_count and payment == p.total_payment
                 and g == float(p.grid_value), f"{where}: does not parse back to the value it was written from")
        _require(welfare >= 0.0 and payment >= 0.0 and count >= 0, f"{where}: negative value")
        if count == 0:
            _require(welfare == 0.0 and payment == 0.0, f"{where}: no winners but welfare or payment is not 0")
        else:
            cleared += 1
            # Each winner pays at most its share w(k)/k * bid, and those shares sum to S + c k.
            _require(payment <= (welfare + c * count) * (1.0 + REL_TOL),
                     f"{where}: total payment {payment!r} exceeds the winners' value {welfare + c * count!r}")
        parsed.append((welfare, count, payment))

    for gi, (row, m) in enumerate(zip(mean_rows, means)):
        where = f"{case.param} mean row {gi + 1}"
        _require(len(row) == 6 and row[0] == case.param, f"{where}: malformed row {row}")
        values = [_parse_float(v, where) for v in row[1:5]]
        _require(values == [float(m.grid_value), m.welfare, m.winner_count, m.total_payment],
                 f"{where}: does not parse back to the value it was written from")
        _require(values[0] == float(case.grid[gi]) and int(row[5]) == case.instances,
                 f"{where}: wrong grid value or instance count")
        chunk = parsed[gi * case.instances:(gi + 1) * case.instances]
        for col, name in enumerate(("welfare", "winner_count", "total_payment")):
            expected = math.fsum(float(x[col]) for x in chunk) / case.instances
            _require(_close(values[1 + col], expected, abs(expected)),
                     f"{where}: mean {name} {values[1 + col]!r} is not the mean of its points {expected!r}")

    if expect_empty:
        breakeven = c / float(network_effect(1.0, case.market.mu, case.market.nu))
        for g in case.grid:
            _, bonus, fee, interval = case.instance_params(g)
            top = largest_truthful_bid(bonus, fee, interval, case.xi)
            _require(top < breakeven, f"{case.param}={g}: largest bid {top:.4f} reaches break-even "
                                      f"c/w(1) = {breakeven:.4f}; this market can clear")
        _require(cleared == 0, f"{case.param}: {cleared} instances have winners below break-even")

    for gi, idx in sample:
        g = case.grid[gi]
        n, bonus, fee, interval = case.instance_params(g)
        bids = regenerate_bids(n, bonus, fee, interval, case.xi, instance_seed(case.base_seed, g, idx))
        sorted_bids = np.sort(bids)[::-1]
        best = best_welfare(sorted_bids, case.market)
        welfare, count, _ = parsed[gi * case.instances + idx]
        s, scale = set_welfare(sorted_bids[:count].tolist(), case.market)
        where = f"{case.param}={g} instance {idx}"
        _require(count <= min(n, case.market.capacity), f"{where}: {count} winners exceed the market")
        _require(_close(s, best, scale + best) or s >= best,
                 f"{where}: {count} winners give S = {s!r}, below the best prefix {best!r}")
        _require(_close(welfare, s, scale), f"{where}: welfare {welfare!r}, regenerated roster gives {s!r}")
    return cleared
