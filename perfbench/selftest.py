"""Show that the output checks can fail: each must reject a tampered outcome.

    python3 perfbench/selftest.py

Clears one small auction and one small sweep with the program, checks that
the honest outputs pass, then tampers with them (one payment nudged, one
winner dropped, one mean row altered, two points moved apart) and checks
that each is rejected.
run.py calls `run` after every measurement as well.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import checks

_BONUS50 = {"fixed_bonus": 50.0, "fee_rate": 0.007, "mean_block_interval": 600.0, "propagation_coeff": 1.0}


def _outcome_dict(outcome) -> dict:
    return {"ids": list(outcome.ids), "allocation": list(outcome.allocation),
            "payments": list(outcome.payments), "winners": list(outcome.winners),
            "welfare": outcome.welfare}


def _expect(problems: list[str], name: str, should_pass: bool, check) -> None:
    try:
        check()
    except checks.CheckError as exc:
        if should_pass:
            problems.append(f"{name}: the honest output was rejected: {exc}")
        return
    if not should_pass:
        problems.append(f"{name}: the tampered output was accepted")


def _auction(np, auction, experiments, model, problems: list[str]) -> None:
    n = 2000
    roster = experiments.generate_instance(n, model.BlockchainParams(**_BONUS50), 11)
    config = auction.AuctionConfig(
        market=model.MarketConfig(unit_cost=0.02, capacity=n, hash_exponent=1.2),
        network=model.NetworkEffectParams(mu=0.5, nu=0.005))
    honest = _outcome_dict(auction.run_auction(roster, config))
    bids = np.array([p.bid for p in roster])
    ids = [p.id for p in roster]
    market = checks.Market(0.02, n, 0.5, 0.005)
    position = {i: pos for pos, i in enumerate(ids)}

    def check(outcome):
        return lambda: checks.check_auction(bids, ids, market, outcome)

    _expect(problems, "auction", True, check(honest))

    nudged = dict(honest, payments=list(honest["payments"]))
    top = position[honest["winners"][0]]
    nudged["payments"][top] += 1e-6 * max(abs(honest["welfare"]), 1.0)
    _expect(problems, "auction, one payment nudged", False, check(nudged))

    dropped = dict(honest, winners=honest["winners"][:-1], allocation=list(honest["allocation"]),
                   payments=list(honest["payments"]))
    last = position[honest["winners"][-1]]
    dropped["allocation"][last] = 0
    dropped["payments"][last] = 0.0
    _expect(problems, "auction, one winner dropped", False, check(dropped))

    scaled = dict(honest, welfare=honest["welfare"] * 1e9, payments=[p * 1e9 for p in honest["payments"]])
    _expect(problems, "scaled auction", True, lambda: checks.check_scaled(honest, scaled, 1e9))
    scaled["payments"][top] += 1e-6 * scaled["welfare"]
    _expect(problems, "scaled auction, one payment nudged", False,
            lambda: checks.check_scaled(honest, scaled, 1e9))


def _sweep(experiments, workdir: Path, problems: list[str]) -> None:
    spec = experiments.default_sweep_spec("fee_rate", instances_per_point=2, base_seed=5,
                                          unit_cost=0.001, grid=(0.003, 0.007))
    points, means = experiments.run_sweep(spec)
    case = checks.SweepCase.from_spec(spec)
    sample = [(0, 0), (1, 1)]

    def emit_and_check(pts, mns):
        path = workdir / "sweep.csv"
        experiments.emit_results(pts, mns, "csv", path, sweep_param=spec.swept_parameter,
                                 metadata=experiments.sweep_metadata(spec))
        return lambda: checks.check_sweep(case, pts, mns, path, sample)

    _expect(problems, "sweep", True, emit_and_check(points, means))
    altered = list(means)
    altered[1] = dataclasses.replace(altered[1], welfare=altered[1].welfare * (1.0 + 1e-6))
    _expect(problems, "sweep, one mean row altered", False, emit_and_check(points, altered))
    # Two instances of one grid value moved in opposite directions keep their
    # mean, so only regenerating the sampled roster can catch it.
    shifted = list(points)
    delta = 1e-6 * shifted[0].welfare
    shifted[0] = dataclasses.replace(shifted[0], welfare=shifted[0].welfare + delta)
    shifted[1] = dataclasses.replace(shifted[1], welfare=shifted[1].welfare - delta)
    _expect(problems, "sweep, two points moved apart", False, emit_and_check(shifted, means))


def run(np, auction, experiments, model, scratch: Path) -> list[str]:
    """Return what went wrong; an empty list means every check behaved."""
    problems: list[str] = []
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest_", dir=scratch))
    try:
        _auction(np, auction, experiments, model, problems)
        _sweep(experiments, workdir, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return problems


def main() -> int:
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "edgeauction" / "__init__.py").is_file():
        print(f"error: {src / 'edgeauction'} is missing; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    from edgeauction import auction, experiments, model

    problems = run(np, auction, experiments, model, here / "out")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
