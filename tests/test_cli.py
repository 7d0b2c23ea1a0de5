"""End-to-end tests of the command-line interface, run in process unless a timeout is needed."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from edgeauction import cli
from edgeauction.auction import AuctionConfig, AuctionOutcome, RosterColumns, run_auction
from edgeauction.cli import main

GOOD_CONFIG = {
    "fixed_bonus": 2.5,
    "fee_rate": 0.007,
    "mean_block_interval": 600.0,
    "propagation_coeff": 1.0,
    "mu": 0.5,
    "nu": 0.005,
    "unit_cost": 0.001,
    "hash_exponent": 1.2,
    "num_users": 10,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(GOOD_CONFIG))
    return path


@pytest.fixture
def bids_path(tmp_path):
    roster = [
        {"id": 0, "tx_size": 100.0, "demand": 1.0, "bid": 3.0},
        {"id": 1, "tx_size": 400.0, "demand": 1.0, "bid": 2.0},
        {"id": 2, "tx_size": 900.0, "demand": 1.0, "bid": 0.5},
    ]
    path = tmp_path / "bids.json"
    path.write_text(json.dumps(roster))
    return path


# Values a bids file may hold in a numeric field, each one that the reader
# takes or refuses: the bounds and the floats on either side of them, NaN
# and the infinities, -0.0, ints past the float range, numeric strings and
# values that are not numbers at all.
_ODD_NUMBERS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, -0.5, 2.0, 1.7976931348623157e308,
    10**400, -(10**400), "1.5", "nan", "-inf", "1e999", True, None, "x", [1], {},
]
# The same for an id: strings, floats, bools and integers past 64 bits.
_ODD_IDS = [
    "3", "x", "1e3", 2.0, 2.5, -0.0, math.nan, math.inf, True, False, None, 2**64 + 1, -(2**70),
    10**400, [1],
]
_NOT_OBJECTS = ["x", 3, None, True, [1, 2]]


def _good_entry(i):
    return {"id": i, "tx_size": 100.0 * i, "demand": 1.0, "bid": 3.0 - i}


@st.composite
def _bids_entries(draw):
    """The entries of a bids file: good rows, up to two of them spoiled.

    A spoiled row has one field odd, a non-unit demand or one field missing,
    or is not an object at all.
    """
    entries = draw(st.lists(st.fixed_dictionaries({
        "id": st.integers(0, 40),  # a small range, so ids repeat
        "tx_size": st.floats(0.0, 1000.0),
        "demand": st.just(1.0),
        "bid": st.floats(0.0, 5.0),
    }), max_size=8))
    for _ in range(draw(st.integers(0, 2)) if entries else 0):
        pos = draw(st.integers(0, len(entries) - 1))
        kind = draw(st.sampled_from(["odd", "odd", "demand", "missing", "not an object"]))
        if kind == "not an object":
            entries[pos] = draw(st.sampled_from(_NOT_OBJECTS))
        elif not isinstance(entries[pos], dict):
            continue
        elif kind == "odd":
            field = draw(st.sampled_from(sorted(entries[pos])))
            odd = _ODD_IDS if field == "id" else _ODD_NUMBERS
            entries[pos][field] = draw(st.one_of(st.sampled_from(odd), st.floats()))
        elif kind == "demand":
            entries[pos]["demand"] = draw(st.floats(min_value=0.0, exclude_min=True))
        else:
            del entries[pos][draw(st.sampled_from(sorted(entries[pos])))]
    return entries


def _both_readings(document, tmp):
    """`auction run` on a bids file, and the reference path on the same file.

    The reference reads the file with json.load, decoded as UTF-8, then
    takes the BidderProfile walk, run_auction and the outcome writer. Each
    side is its exit code, its stdout, its stderr and the outcome file (None
    if none is written). The document is text or bytes.
    """
    bids, config, out = (os.path.join(tmp, name) for name in ("bids.json", "config.json", "o.json"))
    Path(bids).write_bytes(document if isinstance(document, bytes) else document.encode())
    Path(config).write_text(json.dumps(GOOD_CONFIG))
    try:
        try:
            with open(bids, encoding="utf-8") as fh:
                data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{bids} is not valid JSON: {exc}") from None
        if not isinstance(data, list):
            raise ValueError(f"{bids}: expected a JSON array of bidder objects")
        roster = cli._read_roster(bids, data)
        _, network, market = cli._build_parts(GOOD_CONFIG, max(len(roster), 1))
        outcome = run_auction(roster, AuctionConfig(market=market, network=network))
        cleared = f"cleared {len(roster)} bids: {len(outcome.winners)} winners, welfare {outcome.welfare!r}\n"
        expected = (0, cleared, "", cli._outcome_json(outcome))
    except (ValueError, RuntimeError) as exc:
        expected = (1, "", f"error: {exc}\n", None)

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["auction", "run", "--bids", bids, "--config", config, "--out", out])
    written = Path(out).read_text() if os.path.exists(out) else None
    return (code, stdout.getvalue(), stderr.getvalue(), written), expected


# JSON texts for a value in a bids file, each read one way by json and
# refused or read another way by orjson, or read alike by both: the
# literals NaN and Infinity, numbers past the float range, integers past
# 64 bits and past the 4,300 digits Python converts, floats and strings
# that hold integers, escapes and lone surrogates, and non-numbers; and
# literals a second float parser could round otherwise: long significands,
# values at or next to a halfway point, subnormals, and integers past 2**53
# and 2**64 between two floats.
_RAW_VALUES = [
    "0", "1", "-0", "7", "2.5", "3.0", "1e2", "0.1", "-1", "1e-400", "1.7976931348623157e308",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203124",
    "1.00000000000000011102230246251565404236316680908203126",
    "0.30000000000000004440892098500626", "2.2250738585072011e-308", "2.4703282292062328e-324",
    "9007199254740993", "18446744073709553664", "18446744073709553665", "100000000000000000000001",
    "NaN", "-NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400, "9" * 4301,
    "18446744073709551615", "18446744073709551616", "18446744073709551617",
    "-9223372036854775808", "-9223372036854775809", "123456789012345678901234567890",
    '"3"', '"2.5"', '"NaN"', '"x"', '"\\u0033"', '"\\ud800"', '"x\\udc00"', '"\u00e9"', '"[]"',
    "true", "null", "[1]", "{}", '{"a": [[]]}',
]
# Bytes that are not UTF-8: a lone continuation byte, a cut two-byte
# sequence, a surrogate encoded as UTF-8, and bytes json's locale could read.
_NOT_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe9"]
_UTF8_BOM = b"\xef\xbb\xbf"


@st.composite
def _bids_documents(draw):
    """A bids file's bytes, written as raw text rather than through json.dumps.

    Entries hold good values or raw texts from _RAW_VALUES, in any of their
    fields, under repeated keys, with an extra key, or a missing one; an
    entry may be a raw value instead of an object. The bytes may then start
    with a BOM or hold a byte that is not UTF-8.
    """
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            entries.append(draw(st.sampled_from(_RAW_VALUES)))
            continue
        values = {
            "id": str(draw(st.integers(0, 20))),  # a small range, so ids repeat
            "tx_size": repr(draw(st.floats(0.0, 1000.0))),
            "demand": draw(st.sampled_from(["1", "1.0", "1e0"])),
            "bid": repr(draw(st.floats(0.0, 5.0))),
        }
        again = []
        for _ in range(draw(st.integers(0, 2))):
            key = draw(st.sampled_from([*values, "extra"]))
            value = draw(st.sampled_from(_RAW_VALUES))
            if key in values and draw(st.booleans()):
                values[key] = value
            else:  # the key once more, or a key the reader ignores
                again.append((key, value))
        items = list(values.items())
        if draw(st.integers(0, 9)) == 0:
            del items[draw(st.integers(0, len(items) - 1))]
        for item in again:
            items.insert(draw(st.integers(0, len(items))), item)
        entries.append("{" + ", ".join(f'"{k}": {v}' for k, v in items) + "}")
    document = ("[" + ",\n".join(entries) + "]\n").encode()
    if draw(st.integers(0, 9)) == 0:
        document = _UTF8_BOM + document
    if draw(st.integers(0, 9)) == 0:
        pos = draw(st.integers(0, len(document)))
        document = document[:pos] + draw(st.sampled_from(_NOT_UTF8)) + document[pos:]
    return document


def _refuse_json_on(monkeypatch, path):
    """Make json.load and json.loads raise on the file at path, and read every other as before.

    The error is not one that `auction run` catches, so a run that reads
    the file with json fails the test.
    """
    text = path.read_text()
    load, loads = json.load, json.loads

    def guarded_load(fh, **kwargs):
        if os.path.samefile(fh.name, path):
            raise AssertionError(f"json.load read {path}")
        return load(fh, **kwargs)

    def guarded_loads(s, **kwargs):
        if s in (text, text.encode()):
            raise AssertionError(f"json.loads read {path}")
        return loads(s, **kwargs)

    monkeypatch.setattr(json, "load", guarded_load)
    monkeypatch.setattr(json, "loads", guarded_loads)


class TestAuctionRun:
    def test_happy_path(self, tmp_path, config_path, bids_path, capsys):
        out = tmp_path / "outcome.json"
        code = main([
            "auction", "run",
            "--bids", str(bids_path),
            "--config", str(config_path),
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"ids", "allocation", "payments", "winners", "welfare"}
        assert payload["ids"] == [0, 1, 2]
        assert len(payload["allocation"]) == 3
        assert payload["welfare"] > 0.0
        assert payload["winners"]
        assert "winners" in capsys.readouterr().out

    def test_outcome_file_bytes(self, tmp_path):
        # ids out of rank order and a binding capacity, so the file holds a
        # loser, winners in admission order and positive payments
        bids = tmp_path / "bids.json"
        bids.write_text(json.dumps([
            {"id": 4, "tx_size": 400.0, "demand": 1.0, "bid": 2.0},
            {"id": 9, "tx_size": 100.0, "demand": 1.0, "bid": 3.0},
            {"id": 2, "tx_size": 900.0, "demand": 1.0, "bid": 0.5},
        ]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(GOOD_CONFIG, capacity=2)))
        out = tmp_path / "outcome.json"
        assert main(["auction", "run", "--bids", str(bids),
                     "--config", str(config), "--out", str(out)]) == 0
        assert out.read_text() == (
            '{\n  "ids": [\n    4,\n    9,\n    2\n  ],\n'
            '  "allocation": [\n    1,\n    1,\n    0\n  ],\n'
            '  "payments": [\n    0.0006555048709918181,\n    0.0006582964700763633,\n    0.0\n  ],\n'
            '  "winners": [\n    9,\n    4\n  ],\n'
            '  "welfare": 0.014638796682454559\n}\n'
        )

    @pytest.mark.parametrize("bids, ids, market", [
        # no winners: every payment 0.0 and an empty winner list
        ([1.0, 1.0, 1.0], None, {"unit_cost": 1e308, "capacity": 3}),
        # one bidder, who wins: lists of one item, no separator in them
        ([3.0], None, {}),
        ([], None, {}),
        ([3.0, 2.0, 0.5], [-5, 2**63 + 7, 3 * 2**64], {}),
        # ids at both ends of the 64-bit range orjson writes, and just past them
        ([3.0, 2.0], [-2**63, 2**64 - 1], {"unit_cost": 0.0}),
        ([3.0, 2.0], [-2**63 - 1, 0], {"unit_cost": 0.0}),
        ([3.0, 2.0], [0, 2**64], {"unit_cost": 0.0}),
        ([3.0, 2.0, 0.5, 1.0], [-2**63 - 1, -2**63, 2**64 - 1, 2**64], {}),
        ([1e300, 2e300, 5e299], None, {}),
        # payments below the normal float range
        ([1e-300, 3e-300, 2e-300], None, {"unit_cost": 0.0}),
        # equal bids and no cost: every winner pays exactly 0.0
        ([3.0, 3.0], None, {"unit_cost": 0.0}),
    ])
    def test_outcome_file_is_the_indented_json_of_the_outcome(
        self, tmp_path, monkeypatch, bids, ids, market
    ):
        outcomes = []

        def recording_run_auction(roster, config):
            outcomes.append(run_auction(roster, config))
            return outcomes[-1]

        monkeypatch.setattr(cli, "run_auction", recording_run_auction)
        ids = ids or list(range(len(bids)))
        bids_file = tmp_path / "bids.json"
        bids_file.write_text(json.dumps([
            {"id": i, "tx_size": 1.0, "demand": 1.0, "bid": b} for i, b in zip(ids, bids)
        ]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(GOOD_CONFIG, **market)))
        out = tmp_path / "outcome.json"
        assert main(["auction", "run", "--bids", str(bids_file),
                     "--config", str(config), "--out", str(out)]) == 0
        [outcome] = outcomes
        payload = {f.name: getattr(outcome, f.name) for f in fields(outcome)}
        assert out.read_text() == json.dumps(payload, indent=2) + "\n"

    @given(
        st.lists(st.integers(), max_size=5),
        st.lists(st.sampled_from([0, 1]), max_size=5),
        # the payments clear_bids returns: +0.0, or a positive finite float
        st.lists(st.just(0.0) | st.floats(0.0, exclude_min=True, allow_infinity=False), max_size=5),
        st.lists(st.integers(), max_size=5),
        st.floats(),
    )
    # the ends of orjson's 64-bit range and the ints just past them
    @example([-2**63 - 1, -2**63, 2**64 - 1, 2**64], [0, 1, 0, 1], [0.0, 1e-05, 0.0, 1e16],
             [-2**63, 2**64 - 1], 1e-05)
    @example([2**64], [1], [0.5], [-2**63 - 1], 0.0)
    # one paying winner among +0.0s; a subnormal, the least normal float and
    # 1e-05; every payment +0.0; a NaN and a -0.0 welfare
    @example([0, 1], [1, 0], [0.0, 0.0, 0.0, 0.5], [0], 0.5)
    @example([0, 1, 2, 3], [1, 1, 1, 0], [5e-324, 2.2250738585072014e-308, 1e-05, 0.0], [0, 1, 2], math.nan)
    @example([0, 1, 2], [0, 0, 0], [0.0, 0.0, 0.0], [], -0.0)
    @example([0, 1, 2], [1, 1, 1], [0.5, 1e-05, 1e16], [0, 1, 2], 1.0)
    def test_outcome_writer_matches_indented_json_on_any_values(
        self, ids, allocation, payments, winners, welfare
    ):
        # including ints past 64 bits, subnormal payments, inf and nan welfare
        outcome = AuctionOutcome(tuple(ids), tuple(allocation), tuple(payments), tuple(winners), welfare)
        payload = {f.name: getattr(outcome, f.name) for f in fields(outcome)}
        assert cli._outcome_json(outcome) == json.dumps(payload, indent=2) + "\n"

    def test_orjson_writes_every_int_list_of_a_cleared_outcome(self, monkeypatch):
        # the writer's bytes hold without orjson, so only this notices an
        # int list that the explicit layout writes by another path
        import orjson

        _, network, market = cli._build_parts(GOOD_CONFIG, 3)
        outcome = run_auction(RosterColumns((4, 9, 2), (1.0,) * 3, (1.0,) * 3, (5.0, 3.0, 4.0)),
                              AuctionConfig(market=market, network=network))
        int_lists = {f.name for f in fields(outcome)
                     if isinstance(getattr(outcome, f.name), tuple)
                     and all(type(v) is int for v in getattr(outcome, f.name))}
        written = []
        dumps = orjson.dumps

        def recording_dumps(obj, *args, **kwargs):
            written.extend(obj)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(orjson, "dumps", recording_dumps)
        payload = {f.name: getattr(outcome, f.name) for f in fields(outcome)}
        assert cli._outcome_json(outcome) == json.dumps(payload, indent=2) + "\n"
        assert outcome.winners and sorted(written) == sorted(int_lists)

    @pytest.mark.parametrize("entries, message", [
        # the first bad entry is reported, whatever follows it
        ([{"id": 0, "tx_size": 1.0, "demand": 1.0, "bid": -1}, "x"],
         "{path}: entry 0: bid must be >= 0"),
        ([{"id": i, "tx_size": 1.0, "demand": 1.0, "bid": 1.0} for i in range(2)]
         + [{"id": 2, "tx_size": 1.0, "demand": 1.0}],
         "{path}: entry 2 missing field 'bid'"),
        ([{"id": 0, "tx_size": 1.0, "demand": 1.0, "bid": 1.0}, [1, 2]],
         "{path}: entry 1 is not an object"),
        # a repeated id is reported before a non-unit demand
        ([{"id": 0, "tx_size": 1.0, "demand": 2.0, "bid": 1.0},
          {"id": 1, "tx_size": 1.0, "demand": 1.0, "bid": 1.0},
          {"id": 1, "tx_size": 1.0, "demand": 1.0, "bid": 2.0}],
         "duplicate bidder id 1"),
        # an id that is not an integer is refused, not truncated by int():
        # 2.5 and 2.9 would both read as 2, and true as 1
        ([{"id": i, "tx_size": 1.0, "demand": 1.0, "bid": 1.0} for i in (2.5, 2.9)],
         "{path}: entry 0: id must be an integer, got 2.5"),
        ([{"id": i, "tx_size": 1.0, "demand": 1.0, "bid": 1.0} for i in (0, "1", True)],
         "{path}: entry 2: id must be an integer, got true"),
        # far into the file, past a thousand good entries
        ([{"id": i, "tx_size": 1.0, "demand": 1.0, "bid": 1.0} for i in range(1000)]
         + [{"id": 1000, "tx_size": 1.0, "bid": 1.0}],
         "{path}: entry 1000 missing field 'demand'"),
        # every JSON kind that is not an object, after k good entries and before a bad one
        *(
            ([{"id": 0, "tx_size": 1.0, "demand": 1.0, "bid": 1.0}] * k + [bad, {}],
             f"{{path}}: entry {k} is not an object")
            for k, bad in enumerate(["x", 3, None, True, [1, 2]])
        ),
    ])
    def test_roster_error_precedence(self, tmp_path, config_path, capsys, entries, message):
        path = tmp_path / "bids.json"
        path.write_text(json.dumps(entries))
        out = tmp_path / "o.json"
        code = main(["auction", "run", "--bids", str(path),
                     "--config", str(config_path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not out.exists()

    def test_empty_bids_file_clears_nothing(self, tmp_path, config_path, capsys):
        path = tmp_path / "bids.json"
        path.write_text("[]")
        out = tmp_path / "outcome.json"
        assert main(["auction", "run", "--bids", str(path),
                     "--config", str(config_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == "cleared 0 bids: 0 winners, welfare 0.0\n"
        assert out.read_text() == (
            '{\n  "ids": [],\n  "allocation": [],\n  "payments": [],\n'
            '  "winners": [],\n  "welfare": 0.0\n}\n'
        )

    @pytest.mark.parametrize("field, value", [
        *(("id", v) for v in _ODD_IDS),
        *((f, v) for f in ("tx_size", "demand", "bid") for v in _ODD_NUMBERS),
        *((None, v) for v in _NOT_OBJECTS),
    ])
    def test_column_read_agrees_with_the_profile_walk_on_each_odd_value(self, tmp_path, field, value):
        # the odd value in the middle of three rows, or the middle row not an object
        spoiled = value if field is None else dict(_good_entry(1), **{field: value})
        got, expected = _both_readings(json.dumps([_good_entry(0), spoiled, _good_entry(2)]), tmp_path)
        assert got == expected

    # Hypothesis's explain phase re-runs a failing example many times and has
    # pytest format each failure, which takes minutes here; the shrunk
    # counterexample is printed without it.
    @settings(phases=[p for p in Phase if p is not Phase.explain])
    @given(_bids_entries())
    def test_column_read_agrees_with_the_profile_walk(self, entries):
        with tempfile.TemporaryDirectory() as tmp:
            got, expected = _both_readings(json.dumps(entries), tmp)
        assert got == expected

    @settings(phases=[p for p in Phase if p is not Phase.explain])
    @given(_bids_documents())
    # ids past 64 bits, which orjson reads as one float
    @example(b'[{"id": 18446744073709551616, "tx_size": 1, "demand": 1, "bid": 2},\n'
             b'{"id": 18446744073709551617, "tx_size": 1, "demand": 1, "bid": 1}]\n')
    def test_auction_run_reads_a_bids_file_as_json_load_does(self, document):
        with tempfile.TemporaryDirectory() as tmp:
            got, expected = _both_readings(document, tmp)
        assert got == expected

    @pytest.mark.parametrize("document", [
        # what orjson refuses: literals json reads, a lone surrogate, a BOM, a byte not UTF-8
        '[{"id": 0, "tx_size": 1, "demand": 1, "bid": NaN}]',
        '[{"id": 0, "tx_size": Infinity, "demand": 1, "bid": 1}]',
        '[{"id": 0, "tx_size": 1, "demand": 1, "bid": 1e400}]',
        '[{"id": 0, "tx_size": 1, "demand": 1, "bid": 1, "note": "\\ud800"}]',
        b'\xef\xbb\xbf[]',
        b'[{"id": 0, "tx_size": 1, "demand": 1, "bid": 1, "note": "\xe9"}]',
    ])
    def test_auction_run_reads_each_document_where_orjson_differs_as_json_load_does(
        self, tmp_path, document
    ):
        got, expected = _both_readings(document, tmp_path)
        assert got == expected

    def test_ids_past_64_bits_clear_as_two_bidders(self, tmp_path, config_path):
        bids = tmp_path / "bids.json"
        bids.write_text(
            '[{"id": 18446744073709551616, "tx_size": 1, "demand": 1, "bid": 2},'
            ' {"id": 18446744073709551617, "tx_size": 1, "demand": 1, "bid": 1}]'
        )
        out = tmp_path / "o.json"
        assert main(["auction", "run", "--bids", str(bids),
                     "--config", str(config_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ids"] == [2**64, 2**64 + 1]

    def test_a_bids_field_nested_past_the_recursion_limit_is_one_error_line(
        self, tmp_path, config_path, capsys
    ):
        bids = tmp_path / "bids.json"
        bids.write_text(
            '[{"id": 0, "tx_size": 1, "demand": 1, "bid": 1, "deep": ' + "[" * 2000 + "]" * 2000 + "}]"
        )
        code = main(["auction", "run", "--bids", str(bids),
                     "--config", str(config_path), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bids} is not valid JSON: maximum recursion depth exceeded"
            " while decoding a JSON array from a unicode string\n"
        )

    def test_a_bids_file_a_million_levels_deep_is_one_error_line(self, tmp_path, config_path):
        # orjson would recurse once per level and overflow the C stack, which
        # ends the process, so the run is a subprocess of its own
        bids = tmp_path / "bids.json"
        bids.write_text("[" * 10**6 + "]" * 10**6)
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-m", "edgeauction.cli", "auction", "run", "--bids", str(bids),
             "--config", str(config_path), "--out", str(tmp_path / "o.json")],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert result.returncode == 1
        assert result.stderr == (
            f"error: {bids} is not valid JSON: maximum recursion depth exceeded"
            " while decoding a JSON array from a unicode string\n"
        )

    @pytest.mark.parametrize("document, shaped", [
        (b"[]", True),
        (b'[{"id": 0, "note": "x"}, {"id": 1}]', True),
        (b'[""]', True),
        # escapes are read: an escaped quote or backslash closes no string
        (b'[{"id": 0, "note": "a \\"quoted\\" word\\n", "path": "C:\\\\"}]', True),
        (b'[{"id": 0, "note": "\\""}]', True),
        (b"[[]]", False),
        (b"[" * 16 + b"]" * 16, False),
        (b"[{" * 16 + b"}]" * 16, False),
        (b"{" + b'"a":{' * 40 + b"}" * 41, False),
        (b"[" * 10 + b"]" * 9, False),
        (b'[{"id": 0, "deep": [1]}]', False),
        # a string that holds a bracket is not read
        (b'["]"]', False),
        (b'["\\"]"]', False),
        (b'[{"id": 0, "note": "\\"}{\\""}]', False),
        # 40 levels deep, though all its brackets, the strings' ones counted, nest 1 deep
        (b'["]",' * 40 + b"0" + b',"["]' * 40, False),
        # objects 40 deep whose strings' brackets make every bracket a bids file's
        (b'[' + b'{"s":"}","o":' * 40 + b"{}" + b',"t":"{"}' * 40 + b"]", False),
        # the quote-pair count: strings that hold a bracket, adjacent strings,
        # an odd number of quotes
        (b'["[", "]"]', False),
        (b'["a""b"]', True),
        (b'["a", "b]', False),
        (b'"""', False),
        (b"0", False),
    ])
    def test_bids_shape_read_from_the_bytes(self, document, shaped):
        assert cli._bids_shaped(document) is shaped

    def test_a_bids_file_whose_strings_hold_escapes_clears_without_json(
        self, tmp_path, config_path, monkeypatch, capsys
    ):
        bids = tmp_path / "bids.json"
        bids.write_text(json.dumps([
            {"id": i, "tx_size": 1.0, "demand": 1.0, "bid": 0.5 + i, "note": 'a "café"'} for i in range(3)
        ]))
        assert r'"note": "a \"caf\u00e9\""' in bids.read_text()
        _refuse_json_on(monkeypatch, bids)
        assert main(["auction", "run", "--bids", str(bids),
                     "--config", str(config_path), "--out", str(tmp_path / "o.json")]) == 0
        assert capsys.readouterr().out.startswith("cleared 3 bids: ")

    @pytest.mark.parametrize("id_of", [int, str], ids=["int_ids", "string_ids"])
    def test_a_good_bids_file_clears_without_json(self, tmp_path, config_path, monkeypatch, capsys, id_of):
        bids = tmp_path / "bids.json"
        bids.write_text(json.dumps([
            {"id": id_of(i), "tx_size": float(i), "demand": 1.0, "bid": 3.0 * i / 1000} for i in range(1000)
        ]))
        _refuse_json_on(monkeypatch, bids)
        out = tmp_path / "o.json"
        assert main(["auction", "run", "--bids", str(bids),
                     "--config", str(config_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("cleared 1000 bids: ")

    def test_a_refused_entry_is_worded_without_json(self, tmp_path, config_path, monkeypatch, capsys):
        # a NaN bid written as a string, which orjson reads and float() turns into NaN
        bids = tmp_path / "bids.json"
        bids.write_text('[{"id": 0, "tx_size": 1.0, "demand": 1.0, "bid": "NaN"}]')
        _refuse_json_on(monkeypatch, bids)
        assert main(["auction", "run", "--bids", str(bids),
                     "--config", str(config_path), "--out", str(tmp_path / "o.json")]) == 1
        assert capsys.readouterr().err == f"error: {bids}: entry 0: bid must be finite\n"

    def test_a_config_nested_past_the_recursion_limit_is_one_error_line_naming_it(
        self, tmp_path, bids_path, capsys
    ):
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000)
        code = main(["auction", "run", "--bids", str(bids_path),
                     "--config", str(config), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {config} is not valid JSON: maximum recursion depth exceeded"
            " while decoding a JSON array from a unicode string\n"
        )

    def test_capacity_defaults_to_roster_size(self, tmp_path, bids_path):
        # same config plus an explicit binding capacity must change the outcome
        # and an explicit null capacity means the default
        free = dict(GOOD_CONFIG)
        bound = dict(GOOD_CONFIG, capacity=1)
        null = dict(GOOD_CONFIG, capacity=None)
        free_path = tmp_path / "free.json"
        bound_path = tmp_path / "bound.json"
        null_path = tmp_path / "null.json"
        free_path.write_text(json.dumps(free))
        bound_path.write_text(json.dumps(bound))
        null_path.write_text(json.dumps(null))

        out_free = tmp_path / "out_free.json"
        out_bound = tmp_path / "out_bound.json"
        out_null = tmp_path / "out_null.json"
        assert main(["auction", "run", "--bids", str(bids_path),
                     "--config", str(free_path), "--out", str(out_free)]) == 0
        assert main(["auction", "run", "--bids", str(bids_path),
                     "--config", str(bound_path), "--out", str(out_bound)]) == 0
        assert main(["auction", "run", "--bids", str(bids_path),
                     "--config", str(null_path), "--out", str(out_null)]) == 0
        n_free = len(json.loads(out_free.read_text())["winners"])
        n_bound = len(json.loads(out_bound.read_text())["winners"])
        assert n_free > 1
        assert n_bound == 1
        assert out_null.read_bytes() == out_free.read_bytes()

    @pytest.mark.parametrize("capacity", [True, 2.5, 0])
    def test_capacity_must_be_a_positive_integer(self, tmp_path, bids_path, capsys, capacity):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(GOOD_CONFIG, capacity=capacity)))
        code = main(["auction", "run", "--bids", str(bids_path),
                     "--config", str(path), "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "capacity must be" in err
        assert err.count("\n") == 1

    def test_missing_config_key(self, tmp_path, bids_path, capsys):
        # missing keys are listed in config order, whatever order they go in
        broken = {k: v for k, v in GOOD_CONFIG.items() if k not in ("num_users", "mu", "fixed_bonus")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(broken))
        code = main(["auction", "run", "--bids", str(bids_path),
                     "--config", str(path), "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: config missing keys: fixed_bonus, mu, num_users\n"

    def test_unknown_config_key(self, tmp_path, bids_path, capsys):
        broken = dict(GOOD_CONFIG, discount=0.5, alpha=1.0)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(broken))
        code = main(["auction", "run", "--bids", str(bids_path),
                     "--config", str(path), "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: unknown config keys: alpha, discount\n"

    def test_out_that_is_a_directory_is_one_error_line(self, tmp_path, config_path, bids_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        code = main(["auction", "run", "--bids", str(bids_path),
                     "--config", str(config_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_missing_bids_file(self, tmp_path, config_path, capsys):
        code = main(["auction", "run", "--bids", str(tmp_path / "nope.json"),
                     "--config", str(config_path), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_bid_entry(self, tmp_path, config_path, capsys):
        path = tmp_path / "bids.json"
        path.write_text(json.dumps([{"id": 0, "tx_size": 1.0}]))
        code = main(["auction", "run", "--bids", str(path),
                     "--config", str(config_path), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "entry 0" in capsys.readouterr().err

    def test_non_unit_demand_is_reported(self, tmp_path, config_path, capsys):
        path = tmp_path / "bids.json"
        path.write_text(json.dumps(
            [{"id": 0, "tx_size": 1.0, "demand": 2.0, "bid": 1.0}]
        ))
        code = main(["auction", "run", "--bids", str(path),
                     "--config", str(config_path), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "unit demands" in capsys.readouterr().err

    def test_bids_whose_sum_overflows_are_one_error_line(self, tmp_path, config_path, capsys):
        path = tmp_path / "bids.json"
        path.write_text(json.dumps([
            {"id": i, "tx_size": 1.0, "demand": 1.0, "bid": b}
            for i, b in enumerate([1e308, 1e308, 1.0])
        ]))
        out = tmp_path / "o.json"
        code = main(["auction", "run", "--bids", str(path),
                     "--config", str(config_path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: bids overflow: their sum is not finite\n"
        assert not out.exists()

    def test_non_utf8_bids_file_is_one_error_line_naming_it(self, tmp_path, config_path, capsys):
        path = tmp_path / "bids.json"
        path.write_bytes(b"\xff\xfe[]")
        out = tmp_path / "o.json"
        code = main(["auction", "run", "--bids", str(path),
                     "--config", str(config_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not valid JSON: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_integral_ids_are_read_as_ints(self, tmp_path, config_path):
        path = tmp_path / "bids.json"
        path.write_text(json.dumps([
            {"id": i, "tx_size": 1.0, "demand": 1.0, "bid": 1.0} for i in (7, 8.0, "9", -0.0)
        ]))
        out = tmp_path / "o.json"
        assert main(["auction", "run", "--bids", str(path),
                     "--config", str(config_path), "--out", str(out)]) == 0
        ids = json.loads(out.read_text())["ids"]
        assert ids == [7, 8, 9, 0] and all(type(i) is int for i in ids)

    def test_values_past_the_float_range_are_one_error_line(
        self, tmp_path, config_path, bids_path, capsys
    ):
        # JSON reads 1e400 as inf and a 400-digit number as an int; int() and
        # float() of them overflow
        bids = tmp_path / "big_id.json"
        bids.write_text('[{"id": 1e400, "tx_size": 1.0, "demand": 1.0, "bid": 1.0}]')
        config = tmp_path / "big_mu.json"
        config.write_text(json.dumps(GOOD_CONFIG).replace('"mu": 0.5', '"mu": 1' + "0" * 400))
        for bids_file, config_file, message in [
            (bids, config_path, f"{bids}: entry 0: cannot convert float infinity to integer"),
            (bids_path, config, "invalid config value: int too large to convert to float"),
        ]:
            code = main(["auction", "run", "--bids", str(bids_file),
                         "--config", str(config_file), "--out", str(tmp_path / "o.json")])
            assert code == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_unit_cost_whose_multiples_overflow_clears_silently(self, tmp_path, capsys):
        # c*k past the float range reads as -inf welfare: nobody wins, no warning
        bids = tmp_path / "bids.json"
        bids.write_text(json.dumps([
            {"id": i, "tx_size": 1.0, "demand": 1.0, "bid": 1.0} for i in range(3)
        ]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(GOOD_CONFIG, unit_cost=1e308, capacity=3)))
        out = tmp_path / "o.json"
        code = main(["auction", "run", "--bids", str(bids),
                     "--config", str(config), "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "cleared 3 bids: 0 winners, welfare 0.0\n"
        assert json.loads(out.read_text())["winners"] == []


class TestExperimentSweep:
    def test_csv_output(self, tmp_path, config_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "experiment", "sweep",
            "--param", "fee-rate",
            "--config", str(config_path),
            "--grid", "0.004,0.01",
            "--instances", "2",
            "--seed", "7",
            "--out", str(out),
            "--format", "csv",
        ])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "sweep_means.csv").exists()
        assert (tmp_path / "sweep_meta.json").exists()
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 2 grid values x 2 instances
        assert lines[1].startswith("fee_rate,0.004,0,")
        assert capsys.readouterr().out.count("wrote") == 3

    def test_json_output_and_lambda_alias(self, tmp_path, config_path):
        out = tmp_path / "sweep.json"
        code = main([
            "experiment", "sweep",
            "--param", "lambda",
            "--config", str(config_path),
            "--grid", "300,600",
            "--instances", "2",
            "--seed", "7",
            "--out", str(out),
            "--format", "json",
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["metadata"]["swept_parameter"] == "mean_block_interval"
        assert [m["grid_value"] for m in data["means"]] == [300.0, 600.0]

    def test_users_param_maps_to_roster_size(self, tmp_path, config_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "experiment", "sweep",
            "--param", "users",
            "--config", str(config_path),
            "--grid", "5,10",
            "--instances", "1",
            "--seed", "1",
            "--out", str(out),
            "--format", "csv",
        ])
        assert code == 0
        meta = json.loads((tmp_path / "sweep_meta.json").read_text())
        assert meta["swept_parameter"] == "num_users"
        assert meta["capacity"] >= 10

    def test_fractional_user_grid_is_rejected(self, tmp_path, config_path, capsys):
        code = main([
            "experiment", "sweep",
            "--param", "users",
            "--config", str(config_path),
            "--grid", "5.5,10",
            "--instances", "1",
            "--seed", "1",
            "--out", str(tmp_path / "s.csv"),
            "--format", "csv",
        ])
        assert code == 1
        assert "integers" in capsys.readouterr().err

    def test_bad_grid_is_rejected(self, tmp_path, config_path, capsys):
        code = main([
            "experiment", "sweep",
            "--param", "fee-rate",
            "--config", str(config_path),
            "--grid", "0.1,zz",
            "--instances", "1",
            "--seed", "1",
            "--out", str(tmp_path / "s.csv"),
            "--format", "csv",
        ])
        assert code == 1
        assert "grid" in capsys.readouterr().err

    def test_decreasing_grid_is_rejected(self, tmp_path, config_path, capsys):
        code = main([
            "experiment", "sweep",
            "--param", "fee-rate",
            "--config", str(config_path),
            "--grid", "0.01,0.004",
            "--instances", "1",
            "--seed", "1",
            "--out", str(tmp_path / "s.csv"),
            "--format", "csv",
        ])
        assert code == 1
        assert "increasing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "param, grid, num_users, message",
        [
            ("lambda", "0,100", 10, "mean_block_interval must be > 0"),
            ("lambda", "0.001,inf", 10, "mean_block_interval must be finite"),
            ("lambda", "nan", 10, "mean_block_interval must be finite"),
            ("users", "0,100", 10, "num_users grid values must be positive integers"),
            ("users", "-5,10", 10, "num_users grid values must be positive integers"),
            ("users", "1.5,2", 10, "num_users grid values must be positive integers"),
            ("bonus", "1,2", 0, "num_users must be >= 1"),
            ("bonus", "1,2", 10.5, "num_users must be an integer"),
            ("users", "10,1e300", 10, "Maximum allowed dimension exceeded"),
        ],
        ids=["zero", "inf", "nan", "zero_users", "negative_users", "fractional_users", "zero_num_users",
             "fractional_num_users", "users_past_numpy_limit"],
    )
    def test_grid_value_the_market_refuses_is_one_error_line(
        self, tmp_path, capsys, param, grid, num_users, message
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(dict(GOOD_CONFIG, num_users=num_users)))
        code = main([
            "experiment", "sweep",
            "--param", param,
            "--config", str(config_path),
            f"--grid={grid}",
            "--instances", "1",
            "--seed", "1",
            "--out", str(tmp_path / "s.csv"),
            "--format", "csv",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (tmp_path / "s.csv").exists()

    def test_out_that_is_a_directory_is_one_error_line(self, tmp_path, config_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        code = main([
            "experiment", "sweep",
            "--param", "fee-rate",
            "--config", str(config_path),
            "--grid", "0.004",
            "--instances", "1",
            "--seed", "1",
            "--out", str(out),
            "--format", "json",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_unknown_param_is_an_argparse_error(self, tmp_path, config_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "experiment", "sweep",
                "--param", "bogus",
                "--config", str(config_path),
                "--grid", "1,2",
                "--instances", "1",
                "--seed", "1",
                "--out", str(tmp_path / "s.csv"),
                "--format", "csv",
            ])
        assert exc.value.code == 2


class TestCalibrateFitAlpha:
    def _write_samples(self, tmp_path, alpha=1.2):
        lines = ["varied_demand,observed_gamma,competitor_1,competitor_2"]
        for d in (10.0, 25.0, 40.0, 55.0, 70.0, 85.0, 100.0):
            gamma = d**alpha / (d**alpha + 40.0**alpha + 60.0**alpha)
            lines.append(f"{d},{gamma!r},40,60")
        path = tmp_path / "samples.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_happy_path(self, tmp_path, capsys):
        path = self._write_samples(tmp_path)
        code = main(["calibrate", "fit-alpha", "--samples", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        alpha_line = next(l for l in out.splitlines() if l.startswith("alpha:"))
        assert abs(float(alpha_line.split(":")[1]) - 1.2) < 1e-6
        assert "degenerate: false" in out

    def test_custom_interval(self, tmp_path, capsys):
        path = self._write_samples(tmp_path, alpha=0.8)
        code = main([
            "calibrate", "fit-alpha", "--samples", str(path),
            "--lo", "0.5", "--hi", "1.5",
        ])
        assert code == 0
        alpha_line = next(
            l for l in capsys.readouterr().out.splitlines() if l.startswith("alpha:")
        )
        assert abs(float(alpha_line.split(":")[1]) - 0.8) < 1e-6

    def test_degenerate_fit_warns_but_succeeds(self, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        path.write_text(
            "varied_demand,observed_gamma,competitor_1\n"
            "10,0.5,10\n"
            "20,0.5,20\n"
        )
        code = main(["calibrate", "fit-alpha", "--samples", str(path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "degenerate: true" in captured.out
        assert "warning" in captured.err

    def test_missing_samples_file(self, tmp_path, capsys):
        code = main(["calibrate", "fit-alpha", "--samples", str(tmp_path / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_interval(self, tmp_path, capsys):
        path = self._write_samples(tmp_path)
        code = main([
            "calibrate", "fit-alpha", "--samples", str(path),
            "--lo", "2.0", "--hi", "1.0",
        ])
        assert code == 1
        assert "interval" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, bounds, message", [
        # a power overflows inside the interval: 100**a past a = 154.1
        (["100,0.5,80", "50,0.4,80"], ["--hi", "200"],
         "the share of the sample with varied_demand 100.0 "
         "cannot be evaluated at alpha 154.53254901960784: a power overflows"),
        (["1e300,0.5,80", "50,0.4,80"], [],
         "the share of the sample with varied_demand 1e+300 "
         "cannot be evaluated at alpha 1.0415686274509806: a power overflows"),
        # the powers are finite but their sum is not: 2 * 1e308 at a = 2
        (["1e154,0.5,1e154,1e154", "50,0.4,80"], ["--lo", "2", "--hi", "3"],
         "the share of the sample with varied_demand 1e+154 "
         "cannot be evaluated at alpha 2.0: the sum of the powers overflows"),
        # every power underflows to 0
        (["1e-300,0.5,2e-300", "3e-300,0.4,2e-300"], [],
         "the share of the sample with varied_demand 1e-300 "
         "cannot be evaluated at alpha 1.08: every power underflows to 0"),
        (["100,0.5,80", "50,0.4,80"], ["--hi", "inf"], "search interval must be finite"),
        (["inf,0.5,80", "50,0.4,80"], [], "varied_demand must be finite"),
        (["nan,0.5,80", "50,0.4,80"], [], "varied_demand must be finite"),
        (["100,0.5,80", "50,0.4,inf"], [], "competitor demands must be finite"),
    ])
    def test_a_fit_it_cannot_evaluate_is_one_error_line(
        self, tmp_path, capsys, rows, bounds, message
    ):
        path = tmp_path / "samples.csv"
        path.write_text("\n".join(["varied_demand,observed_gamma,competitor_1", *rows]) + "\n")
        code = main(["calibrate", "fit-alpha", "--samples", str(path), *bounds])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_fit_where_adjacent_floats_outgrow_the_tolerance_returns(self, tmp_path):
        # The minimum lies near alpha = 1e10, where adjacent floats are 2e-6
        # apart, so the bracket stops shrinking long before the 1e-9 tolerance.
        # A subprocess with a timeout fails a search that never stops instead
        # of hanging the suite.
        share = [math.exp(g) / (math.exp(g) + 1.0) for g in (10.0, 5.0)]
        path = tmp_path / "samples.csv"
        path.write_text(
            "varied_demand,observed_gamma,competitor_1\n"
            f"{1 + 1e-9!r},{share[0]!r},1\n"
            f"{1 + 5e-10!r},{share[1]!r},1\n"
        )
        src = Path(cli.__file__).resolve().parents[1]
        path_entries = [str(src), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))
        result = subprocess.run(
            [sys.executable, "-m", "edgeauction.cli", "calibrate", "fit-alpha",
             "--samples", str(path), "--hi", "2e10"],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert float(lines[0].removeprefix("alpha: ")) == pytest.approx(1e10, rel=1e-6)
        assert lines[2] == "degenerate: false"

    def test_field_past_the_csv_limit_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        path.write_text(
            "varied_demand,observed_gamma,competitor_1\n"
            "10,0.5,40\n"
            "20,0.3," + "9" * 140_000 + "\n"
        )
        code = main(["calibrate", "fit-alpha", "--samples", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3: field larger than field limit")
        assert err.count("\n") == 1
