"""Command-line front end.

Three subcommands:

    edgeauction auction run      clear one auction from a roster file
    edgeauction experiment sweep run a seeded parameter sweep
    edgeauction calibrate fit-alpha  fit the hash-power exponent

All of them exit 0 on success and print a single diagnostic line to stderr
and exit nonzero on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .auction import AuctionConfig, run_auction
from .calibration import fit_alpha, load_samples
from .experiments import (
    SweepSpec,
    emit_results,
    non_binding_capacity,
    run_sweep,
    sweep_metadata,
)
from .model import (
    BidderProfile,
    BlockchainParams,
    MarketConfig,
    NetworkEffectParams,
)

__all__ = ["main"]

_CONFIG_KEYS = (
    "fixed_bonus",
    "fee_rate",
    "mean_block_interval",
    "propagation_coeff",
    "mu",
    "nu",
    "unit_cost",
    "capacity",
    "hash_exponent",
    "num_users",
)

# capacity may be omitted or null; it then defaults to the number of users
# so the resource constraint never binds.
_OPTIONAL_CONFIG_KEYS = ("capacity",)

_PARAM_ALIASES = {
    "users": "num_users",
    "bonus": "fixed_bonus",
    "fee-rate": "fee_rate",
    "lambda": "mean_block_interval",
}


class CliError(Exception):
    pass


def _load_json(path: str) -> object:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from None


def _load_config(path: str) -> dict:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise CliError(f"{path}: config must be a flat JSON object")
    required = [k for k in _CONFIG_KEYS if k not in _OPTIONAL_CONFIG_KEYS]
    missing = [k for k in required if k not in data]
    if missing:
        raise CliError(f"{path}: config missing keys: {', '.join(missing)}")
    unknown = [k for k in data if k not in _CONFIG_KEYS]
    if unknown:
        raise CliError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _build_parts(config: dict, default_capacity: int) -> tuple[BlockchainParams, NetworkEffectParams, MarketConfig]:
    capacity = config.get("capacity")
    try:
        blockchain = BlockchainParams(
            fixed_bonus=float(config["fixed_bonus"]),
            fee_rate=float(config["fee_rate"]),
            mean_block_interval=float(config["mean_block_interval"]),
            propagation_coeff=float(config["propagation_coeff"]),
        )
        network = NetworkEffectParams(mu=float(config["mu"]), nu=float(config["nu"]))
        market = MarketConfig(
            unit_cost=float(config["unit_cost"]),
            capacity=default_capacity if capacity is None else capacity,
            hash_exponent=float(config["hash_exponent"]),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid config value: {exc}") from None
    return blockchain, network, market


def _cmd_auction_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    data = _load_json(args.bids)
    if not isinstance(data, list):
        raise CliError(f"{args.bids}: expected a JSON array of bidder objects")
    roster = []
    for pos, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise CliError(f"{args.bids}: entry {pos} is not an object")
        try:
            roster.append(
                BidderProfile(
                    id=int(entry["id"]),
                    tx_size=float(entry["tx_size"]),
                    demand=float(entry["demand"]),
                    bid=float(entry["bid"]),
                )
            )
        except KeyError as exc:
            raise CliError(f"{args.bids}: entry {pos} missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise CliError(f"{args.bids}: entry {pos}: {exc}") from None

    _, network, market = _build_parts(config, max(len(roster), 1))
    try:
        outcome = run_auction(roster, AuctionConfig(market=market, network=network))
    except ValueError as exc:
        raise CliError(str(exc)) from None

    payload = {
        "ids": list(outcome.ids),
        "allocation": list(outcome.allocation),
        "payments": list(outcome.payments),
        "winners": list(outcome.winners),
        "welfare": outcome.welfare,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"cleared {len(roster)} bids: {len(outcome.winners)} winners, welfare {outcome.welfare!r}")
    return 0


def _parse_grid(raw: str, param: str) -> tuple[float, ...]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise CliError(f"grid must be a comma-separated list of numbers, got {raw!r}") from None
    if not values:
        raise CliError("grid is empty")
    if param == "num_users":
        if any(not v.is_integer() for v in values):
            raise CliError("user-count grid values must be integers")
        return tuple(int(v) for v in values)
    return tuple(values)


def _cmd_experiment_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    param = _PARAM_ALIASES[args.param]
    grid = _parse_grid(args.grid, param)

    num_users = config.get("num_users")
    if isinstance(num_users, bool) or not isinstance(num_users, int):
        raise CliError("num_users must be an integer")
    try:
        capacity = non_binding_capacity(param, grid, num_users)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    blockchain, network, market = _build_parts(config, capacity)

    try:
        spec = SweepSpec(
            swept_parameter=param,
            grid=grid,
            blockchain=blockchain,
            network=network,
            market=market,
            num_users=num_users,
            instances_per_point=args.instances,
            base_seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None

    points, means = run_sweep(spec)
    written = emit_results(
        points,
        means,
        args.format,
        args.out,
        sweep_param=param,
        metadata=sweep_metadata(spec),
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_calibrate_fit_alpha(args: argparse.Namespace) -> int:
    try:
        samples = load_samples(args.samples)
        fit = fit_alpha(samples, search_interval=(args.lo, args.hi))
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from None
    print(f"alpha: {fit.alpha!r}")
    print(f"objective: {fit.objective!r}")
    print(f"degenerate: {str(fit.degenerate).lower()}")
    if fit.degenerate:
        print("warning: objective is flat on the search interval", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeauction",
        description="Welfare-maximizing allocation of edge capacity to miners.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    auction = groups.add_parser("auction", help="clear auctions")
    auction_sub = auction.add_subparsers(dest="command", required=True)
    run_p = auction_sub.add_parser("run", help="clear one auction from files")
    run_p.add_argument("--bids", required=True, help="JSON array of {id, tx_size, demand, bid}")
    run_p.add_argument("--config", required=True, help="flat JSON market config")
    run_p.add_argument("--out", required=True, help="where to write the outcome JSON")
    run_p.set_defaults(func=_cmd_auction_run)

    experiment = groups.add_parser("experiment", help="parameter sweeps")
    experiment_sub = experiment.add_subparsers(dest="command", required=True)
    sweep_p = experiment_sub.add_parser("sweep", help="sweep one parameter over a grid")
    sweep_p.add_argument("--param", required=True, choices=sorted(_PARAM_ALIASES))
    sweep_p.add_argument("--config", required=True, help="flat JSON market config")
    sweep_p.add_argument("--grid", required=True, help="comma-separated grid values")
    sweep_p.add_argument("--instances", type=int, required=True, help="instances per grid value")
    sweep_p.add_argument("--seed", type=int, required=True, help="base seed (64-bit)")
    sweep_p.add_argument("--out", required=True, help="output path")
    sweep_p.add_argument("--format", required=True, choices=("csv", "json"))
    sweep_p.set_defaults(func=_cmd_experiment_sweep)

    calibrate = groups.add_parser("calibrate", help="fit model constants")
    calibrate_sub = calibrate.add_subparsers(dest="command", required=True)
    fit_p = calibrate_sub.add_parser("fit-alpha", help="fit the hash-power exponent")
    fit_p.add_argument("--samples", required=True, help="delimited sample file")
    fit_p.add_argument("--lo", type=float, default=0.1, help="lower bound (default 0.1)")
    fit_p.add_argument("--hi", type=float, default=5.0, help="upper bound (default 5.0)")
    fit_p.set_defaults(func=_cmd_calibrate_fit_alpha)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
