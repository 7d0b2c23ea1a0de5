"""scripts/bench_pairs.py: the summary, bound check and gain rule it writes into a BENCH file."""

import importlib.util
import os
import platform
from pathlib import Path

import numpy as np
import orjson

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_METRICS = [
    {"name": "op_ms_p50_norm", "better": "lower", "bound": 0.25},
    {"name": "bidders_per_s_norm", "better": "higher", "bound": 0.25},
]


def _load():
    loader = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def _runs(op_ms):
    return [{"correct": True, "attempted": 4, "failed": 0,
             "metrics": {"op_ms_p50_norm": {"value": v}, "bidders_per_s_norm": {"value": 1e5 / v}}}
            for v in op_ms]


def test_a_change_faster_in_nine_of_ten_pairs_by_more_than_the_spread_meets_the_claim():
    bench = _load()
    parent = [100.0, 104.0, 98.0, 101.0, 103.0, 99.0, 102.0, 100.0, 97.0, 60.0]
    summary = bench.summarise({"parent": _runs(parent), "change": _runs([65.0] * 10)}, _METRICS)
    assert summary["parent"]["op_ms_p50_norm"]["median"] == 100.0
    assert summary["parent"]["op_ms_p50_norm"]["runs"] == parent
    assert summary["change_better_in_pairs"] == {"op_ms_p50_norm": "9 of 10", "bidders_per_s_norm": "9 of 10"}
    assert summary["change"]["operations_attempted"] == 40
    for metric in _METRICS:
        assert bench.claim(summary, metric)["met"]
        assert bench.bound_check(summary, metric).startswith("within bound")


def test_eight_of_ten_pairs_do_not_meet_the_claim():
    bench = _load()
    summary = bench.summarise({"parent": _runs([100.0] * 10), "change": _runs([90.0] * 8 + [110.0] * 2)},
                              _METRICS)
    assert not bench.claim(summary, _METRICS[0])["met"]


def test_a_worse_median_is_outside_the_bound_and_a_wide_spread_unresolved():
    bench = _load()
    slower = bench.summarise({"parent": _runs([100.0] * 4), "change": _runs([130.0] * 4)}, _METRICS)
    assert bench.bound_check(slower, _METRICS[0]).startswith("OUTSIDE bound 0.25")
    wide = bench.summarise({"parent": _runs([50.0, 80.0, 120.0, 150.0]), "change": _runs([101.0] * 4)},
                           _METRICS)
    assert bench.bound_check(wide, _METRICS[0]).startswith("unresolved")


def test_the_machine_block_records_the_versions_the_runs_depend_on():
    assert _load().machine() == {"nproc": os.cpu_count(), "python": platform.python_version(),
                                 "numpy": np.__version__, "orjson": orjson.__version__}


def test_a_tier1_run_is_read_from_pytests_stdout_with_its_slowest_tests():
    stdout = """\
........F.......                                                         [100%]
=================================== FAILURES ===================================
___________________ test_criterion_7 ___________________
E       assert False
============================= slowest 5 durations ==============================
20.57s call     tests/test_acceptance.py::test_criterion_3_truthful_bidding_maximizes_utility
4.23s call     tests/test_acceptance.py::test_criterion_4_winners_keep_winning_under_bid_raises
2.42s setup    tests/test_auction.py::TestBatchKernel::test_rows[1-2.5]
1.92s call     tests/test_experiments.py::test_run_sweeps_writes_the_same_files
0.80s teardown tests/test_cli.py::TestAuctionRun::test_outcome_file_bytes
=========================== short test summary info ============================
FAILED tests/test_acceptance.py::test_criterion_7 - assert False
1 failed, 428 passed, 2 errors in 53.49s
"""
    assert _load().tier1_result(stdout) == {
        "passed": 428, "failed": 3, "seconds": 53.49,
        "slowest": [
            {"test": "tests/test_acceptance.py::test_criterion_3_truthful_bidding_maximizes_utility",
             "seconds": 20.57},
            {"test": "tests/test_acceptance.py::test_criterion_4_winners_keep_winning_under_bid_raises",
             "seconds": 4.23},
            {"test": "tests/test_auction.py::TestBatchKernel::test_rows[1-2.5]", "seconds": 2.42},
            {"test": "tests/test_experiments.py::test_run_sweeps_writes_the_same_files", "seconds": 1.92},
            {"test": "tests/test_cli.py::TestAuctionRun::test_outcome_file_bytes", "seconds": 0.8},
        ],
    }
