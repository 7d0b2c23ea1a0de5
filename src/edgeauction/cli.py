"""Command-line front end.

Three subcommands:

    edgeauction auction run      clear one auction from a roster file
    edgeauction experiment sweep run a seeded parameter sweep
    edgeauction calibrate fit-alpha  fit the hash-power exponent

All of them exit 0 on success. A refused input, a file that cannot be read
or written, and an internal consistency failure each end as a single
`error:` line on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from operator import itemgetter
from pathlib import Path

import numpy as np

from .auction import AuctionConfig, AuctionOutcome, RosterColumns, run_auction
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
    _profile_in_bounds,
)

__all__ = ["main"]

# A config file holds the fields of these parts, in this order, plus num_users.
_PARTS = (BlockchainParams, NetworkEffectParams, MarketConfig)
_CONFIG_KEYS = (*(f.name for part in _PARTS for f in fields(part)), "num_users")

# capacity may be omitted or null; it then defaults to the number of users
# so the resource constraint never binds.
_OPTIONAL_CONFIG_KEYS = ("capacity",)

_PARAM_ALIASES = {
    "users": "num_users",
    "bonus": "fixed_bonus",
    "fee-rate": "fee_rate",
    "lambda": "mean_block_interval",
}


def _unreadable(path: str, exc: OSError) -> OSError:
    return OSError(f"cannot read {path}: {exc.strerror or exc}")


def _load_json(path: str) -> object:
    """The JSON value in a file decoded as UTF-8, as json.load reads it: the reference reading."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _unreadable(path, exc) from None
    # JSONDecodeError, UnicodeDecodeError for bytes that are not UTF-8, or
    # RecursionError for nesting deeper than the interpreter's recursion limit
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


# Every byte but the quote and the four brackets.
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'"[]{}')))


def _bids_shaped(raw: bytes) -> bool:
    """Whether a JSON document's brackets are a bids file's, [{}...{}], none of them in a string.

    orjson recurses once per level with no limit of its own, and a stack
    overflow ends the process; json raises RecursionError instead. Such a
    document nests two levels at most, which its brackets alone would not
    show: brackets in strings can complete the shape around objects nested
    to any depth. Once escaped backslashes, then escaped quotes, are dropped,
    each quote opens or closes a string, and no string holds a bracket if
    every quote is in an adjacent pair (count pairs them left to right).
    """
    if b"\\" in raw:  # one memchr; each replace scans the document even if it drops nothing
        raw = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = raw.translate(None, _NOT_MARKS)
    if marks.count(b'"') != 2 * marks.count(b'""'):
        return False
    brackets = marks.translate(None, b'"')
    return brackets == b"[" + b"{}" * (len(brackets) // 2 - 1) + b"]"


class _ReadingsDiffer(Exception):
    """orjson's reading of a bids file could differ from json.load's."""


def _orjson_reading(path: str) -> object:
    """The JSON value in a bids file as orjson reads it.

    Raises _ReadingsDiffer where orjson's reading could differ from json.load's:
    - a document _bids_shaped refuses, as it may nest deeply, is not given to orjson;
    - orjson refuses what json reads as extensions or raises on: NaN and
      Infinity literals, numbers past the float range, lone surrogates,
      bytes that are not UTF-8, a BOM.
    The one difference left, an id read as a float, the column read finds
    (_orjson_entry_id).
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _unreadable(path, exc) from None
    if not _bids_shaped(raw):
        raise _ReadingsDiffer
    import orjson  # here, so the sweeps and fits that import this module do not load it

    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        raise _ReadingsDiffer from None


def _load_config(path: str) -> dict:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a flat JSON object")
    required = [k for k in _CONFIG_KEYS if k not in _OPTIONAL_CONFIG_KEYS]
    missing = [k for k in required if k not in data]
    if missing:
        raise ValueError(f"{path}: config missing keys: {', '.join(missing)}")
    unknown = [k for k in data if k not in _CONFIG_KEYS]
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _build_parts(config: dict, default_capacity: int) -> tuple[BlockchainParams, NetworkEffectParams, MarketConfig]:
    """Build each part of _PARTS from its fields, in order, so the first bad value is reported.

    Every field is a float except capacity, passed as given for MarketConfig to type-check.
    """
    capacity = config.get("capacity")
    values = dict(config, capacity=default_capacity if capacity is None else capacity)
    try:
        return tuple(
            part(**{
                f.name: values[f.name] if f.name == "capacity" else float(values[f.name])
                for f in fields(part)
            })
            for part in _PARTS
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid config value: {exc}") from None


def _entry_id(value: object) -> int:
    """A bids-file id as an int: an integer, or a float or string that holds one.

    int() alone would read 2.5 as 2 and true as 1.
    """
    result = int(value)  # words infinity, NaN and a non-numeric string
    if isinstance(value, bool) or (isinstance(value, float) and result != value):
        raise ValueError(f"id must be an integer, got {json.dumps(value)}")
    return result


def _orjson_entry_id(value: object) -> int:
    """_entry_id for orjson's reading of a bids file, refusing a float with _ReadingsDiffer.

    orjson reads an integer literal past 64 bits as a float, so ids 2**64
    and 2**64 + 1 would be one id. Any other id reads as json reads it.
    """
    if type(value) is float:
        raise _ReadingsDiffer
    return _entry_id(value)


def _read_roster(path: str, data: list) -> list[BidderProfile]:
    """Bidder profiles from the entries of a bids file; BidderProfile checks each field.

    The roster is built in one walk, which takes an int id as it is and
    hands any other to _entry_id; the first entry it fails on is the one
    whose error is worded. It is the reference reading of a bids file:
    auction run reads columns instead, and walks only to word a refusal.
    """
    roster: list[BidderProfile] = []
    try:
        roster.extend(
            BidderProfile(
                i if type(i := e["id"]) is int else _entry_id(i),
                float(e["tx_size"]),
                float(e["demand"]),
                float(e["bid"]),
            )
            for e in data
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # list.extend keeps the items it appended before the generator
        # raised, so the failing entry is the next one.
        pos = len(roster)
        if not isinstance(data[pos], dict):
            raise ValueError(f"{path}: entry {pos} is not an object") from None
        if isinstance(exc, KeyError):
            raise ValueError(f"{path}: entry {pos} missing field {exc}") from None
        raise ValueError(f"{path}: entry {pos}: {exc}") from None
    return roster


def _read_columns(path: str, data: object, entry_id=_entry_id) -> RosterColumns:
    """The entries of a bids file as a roster of columns, read a column at a time.

    Each column applies what _read_roster applies to one entry: an int id
    is taken as it is and any other goes through entry_id, the numbers
    through float(), and BidderProfile's bounds (model._profile_in_bounds)
    are checked over whole columns, tx_size too although clearing does not
    use it. If any entry is refused, _read_roster walks the entries and
    words the first bad one.

    np.fromiter converts each value as float() does, with two exceptions
    that both go on to the walk: null reads as NaN, which the bounds
    refuse, and an array raises ValueError where float() raises TypeError.
    """
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of bidder objects")
    n = len(data)
    try:
        ids = [i if type(i) is int else entry_id(i) for i in map(itemgetter("id"), data)]
        tx_sizes, demands, bids = (
            np.fromiter(map(itemgetter(key), data), float, n)
            for key in ("tx_size", "demand", "bid")
        )
        if all(ok.all() for ok in _profile_in_bounds(tx_sizes, demands, bids)):
            return RosterColumns(ids, tx_sizes, demands, bids)
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    _read_roster(path, data)
    raise RuntimeError(
        f"internal consistency failure: {path}: the column read refused entries the walk accepts"
    )


def _load_roster(path: str) -> RosterColumns:
    """The roster of a bids file: from orjson's reading where it is json.load's, else _load_json's.

    orjson parses a roster two to three times as fast as json. If the id
    walk of the column read refuses an entry before any float id, no id up
    to that entry is a float, so both readings word the same refusal.
    orjson's reading is freed when the _ReadingsDiffer handler ends, before
    json.load reads the file again, so a file is never held twice.
    """
    try:
        return _read_columns(path, _orjson_reading(path), _orjson_entry_id)
    except _ReadingsDiffer:
        pass
    return _read_columns(path, _load_json(path))


def _ints_text(name: str, values: tuple[int, ...]) -> str:
    """A list of ints one level inside the outcome object, as json.dumps(indent=2) writes it.

    orjson writes an int of 64 bits or fewer as json does, several times as
    fast, and raises on a longer one, which json writes instead.
    """
    if not values:
        return "[]"
    import orjson  # here, as in _orjson_reading

    try:
        text = orjson.dumps({name: values}, option=orjson.OPT_INDENT_2)
    except orjson.JSONEncodeError:  # an int past 64 bits
        return "[\n    " + json.dumps(values, separators=(",\n    ", ": "))[1:-1] + "\n  ]"
    return text[text.index(b"[") : -2].decode()  # orjson wrote '{\n  "<name>": [...]\n}'


def _outcome_json(outcome: AuctionOutcome) -> str:
    """The outcome file: the bytes json.dumps(payload, indent=2) writes, and a newline.

    json skips its C encoder whenever indent is set, so the five fields are
    laid out here. Every payment clear_bids returns is +0.0 or a positive
    finite float, which json writes with float.__repr__ as this does; a
    -0.0, NaN, infinity or int payment would not be written as json writes it.
    """
    payments = "[]"
    if outcome.payments:
        items = ",\n    ".join([float.__repr__(p) if p else "0.0" for p in outcome.payments])
        payments = "[\n    " + items + "\n  ]"
    return (
        f'{{\n  "ids": {_ints_text("ids", outcome.ids)},\n'
        f'  "allocation": {_ints_text("allocation", outcome.allocation)},\n'
        f'  "payments": {payments},\n'
        f'  "winners": {_ints_text("winners", outcome.winners)},\n'
        f'  "welfare": {json.dumps(outcome.welfare)}\n}}\n'
    )


def _cmd_auction_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    # The bids file's JSON value is freed on return, so the cyclic GC has
    # fewer objects to walk while clearing.
    roster = _load_roster(args.bids)

    _, network, market = _build_parts(config, max(len(roster), 1))
    outcome = run_auction(roster, AuctionConfig(market=market, network=network))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(_outcome_json(outcome))
    print(f"cleared {len(roster)} bids: {len(outcome.winners)} winners, welfare {outcome.welfare!r}")
    return 0


def _parse_grid(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"grid must be a comma-separated list of numbers, got {raw!r}") from None
    if not values:
        raise ValueError("grid is empty")
    return values


def _cmd_experiment_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    param = _PARAM_ALIASES[args.param]
    grid = _parse_grid(args.grid)

    num_users = config["num_users"]
    capacity = non_binding_capacity(param, grid, num_users)
    if param == "num_users":
        # accepted as integral just above; ints are written as 100, not 100.0
        grid = tuple(int(g) for g in grid)
    blockchain, network, market = _build_parts(config, capacity)

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
    fit = fit_alpha(load_samples(args.samples), search_interval=(args.lo, args.hi))
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
    # A failed read or write, a refused input, an internal consistency failure.
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
