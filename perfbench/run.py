#!/usr/bin/env python3
"""Benchmark of the edgeauction reproduction, end to end and per layer.

    python3 perfbench/run.py --workload auction_100k --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Workloads:

    auction_100k  `edgeauction auction run` through `cli.main` on JSON rosters
                  of 100,000 truthful bidders (bonus-50 market, ~570 winners)
    sweep_alloc   the four default sweeps at unit_cost=0.001, where they clear
    sweep_ref     the same pass at the reference unit_cost=0.02, which clears
                  nothing

Inputs come from --seed only. The run sets up SETUP_REPEATS times, then
repeats whole rounds of operations until --seconds have passed, checking
every operation's output outside its timed window (see checks.py). Each
operation is framed by a fixed control loop, and its time is also reported
normalised by that loop, because the machine's speed swings within seconds.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics from spans around the program's public functions with --trace 1
(see spans.py). One process, one thread. See README.md.
"""

import os
import sys
import time

_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("auction_100k", "sweep_alloc", "sweep_ref")
SETUP_REPEATS = 3

AUCTION_BIDDERS = 100_000
# Criterion 10's market, scaled up: most truthful bids are far above
# break-even, so about 570 of 100,000 bidders win and every one is priced.
BONUS50 = {"fixed_bonus": 50.0, "fee_rate": 0.007, "mean_block_interval": 600.0,
           "propagation_coeff": 1.0}
NETWORK = {"mu": 0.5, "nu": 0.005}
AUCTION_UNIT_COST = 0.02
# The roster kept in the rotation as a known failure: drawn from this fixed
# seed, then re-expressed in a currency unit SCALE times smaller. It does
# not depend on --seed, so it fails in every run.
SCALED_ROSTER_SEED = (7, float(AUCTION_BIDDERS), 0)
SCALE = 1e9

SWEEP_INSTANCES = 2
SWEEP_UNIT_COST = {"sweep_alloc": 0.001, "sweep_ref": 0.02}
SAMPLED_INSTANCES_PER_SWEEP = 2
SAMPLED_PAYMENTS = 5

# The machine's speed swings by a third within seconds as other tenants load
# it, for wall time and process CPU time alike. Each operation is therefore
# also timed in units of a fixed control loop run just before and just after
# it, for CONTROL_SHARE of the operation's time on each side, and reported in
# ms on a machine where one control loop takes CONTROL_REFERENCE_MS; see
# README.md.
CONTROL_REFERENCE_MS = 25.0
CONTROL_SHARE = 0.1


@dataclass
class Op:
    """One timed operation: `run` is timed, `check` is not."""

    name: str
    bidders: int
    run: Callable[[], object]
    check: Callable[[object], None]


class OpFailed(Exception):
    """The program reported an error for this operation."""


def control_loop_ms(np, at_least_ms: float) -> float:
    """Mean time of a fixed pure-Python and numpy loop, repeated for at least
    `at_least_ms` (once at minimum); it tells a slow machine from a slow program."""
    start = time.perf_counter()
    repeats = 0
    while True:
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        np.sort(np.random.default_rng(0).random(200_000))
        repeats += 1
        elapsed = (time.perf_counter() - start) * 1e3
        if elapsed >= at_least_ms:
            return elapsed / repeats


# --------------------------------------------------------------------------
# Workloads


class AuctionWorkload:
    """One `auction run` per operation, rotating over four rosters."""

    def __init__(self, seed: int, workdir: Path, mods) -> None:
        self.seed = seed
        self.workdir = workdir
        self.m = mods
        self.rng = random.Random(seed)
        self.plain_reference: dict | None = None

    def _write_roster(self, name: str, roster, scale: float):
        ids = [p.id for p in roster]
        bids = [p.bid * scale for p in roster]
        # repr of a finite float is valid JSON and reads back to the same value.
        entries = ",\n".join('{"id": %d, "tx_size": %r, "demand": %r, "bid": %r}' % (p.id, p.tx_size, p.demand, b)
                              for p, b in zip(roster, bids))
        path = self.workdir / f"{name}.json"
        path.write_text("[" + entries + "]\n")
        return path, ids, self.m.np.array(bids)

    def _write_config(self, name: str, unit_cost: float) -> Path:
        config = dict(BONUS50, **NETWORK, unit_cost=unit_cost, capacity=AUCTION_BIDDERS,
                      hash_exponent=1.2, num_users=AUCTION_BIDDERS)
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(config) + "\n")
        return path

    def setup(self) -> list[Op]:
        ex, checks = self.m.experiments, self.m.checks
        blockchain = self.m.model.BlockchainParams(**BONUS50)
        plain_cfg = self._write_config("config", AUCTION_UNIT_COST)
        scaled_cfg = self._write_config("config_scaled", AUCTION_UNIT_COST * SCALE)
        market = checks.Market(AUCTION_UNIT_COST, AUCTION_BIDDERS, **NETWORK)
        scaled_market = checks.Market(AUCTION_UNIT_COST * SCALE, AUCTION_BIDDERS, **NETWORK)

        rosters = []
        for index in (1, 2):
            seed = ex.stable_instance_seed(self.seed, float(AUCTION_BIDDERS), index)
            roster = ex.generate_instance(AUCTION_BIDDERS, blockchain, seed)
            rosters.append((f"seed{self.seed}_{index}", roster, 1.0, plain_cfg, market))
        fixed = ex.generate_instance(AUCTION_BIDDERS, blockchain, ex.stable_instance_seed(*SCALED_ROSTER_SEED))
        rosters.append(("fixed_plain", fixed, 1.0, plain_cfg, market))
        rosters.append(("fixed_scaled", fixed, SCALE, scaled_cfg, scaled_market))

        ops = []
        for name, roster, scale, cfg, mkt in rosters:
            path, ids, bids = self._write_roster(name, roster, scale)
            ops.append(self._op(name, path, cfg, ids, bids, mkt))
        return ops

    def _op(self, name, bids_path, config_path, ids, bids, market) -> Op:
        out = self.workdir / f"outcome_{name}.json"
        argv = ["auction", "run", "--bids", str(bids_path), "--config", str(config_path), "--out", str(out)]
        cli = self.m.cli

        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if code != 0:
                raise OpFailed(stderr.getvalue().strip() or f"exit code {code}")
            return out

        def check(path):
            outcome = json.loads(path.read_text())
            path.unlink()
            k = len(outcome["winners"])
            ranks = [self.rng.randrange(k) for _ in range(SAMPLED_PAYMENTS)] if k else []
            self.m.checks.check_auction(bids, ids, market, outcome, ranks)
            if name == "fixed_plain":
                self.plain_reference = outcome
            elif name == "fixed_scaled":
                if self.plain_reference is None:
                    raise self.m.checks.CheckError("the scaled roster ran before its plain roster")
                self.m.checks.check_scaled(self.plain_reference, outcome, SCALE)

        return Op(name, len(ids), run, check)


class SweepWorkload:
    """One pass of the four default sweeps per operation, as scripts/run_sweeps.py makes it."""

    def __init__(self, name: str, seed: int, workdir: Path, mods) -> None:
        self.unit_cost = SWEEP_UNIT_COST[name]
        self.expect_empty = name == "sweep_ref"
        self.seed = seed
        self.workdir = workdir
        self.m = mods
        self.rng = random.Random(seed)

    def setup(self) -> list[Op]:
        ex = self.m.experiments
        params = ex.SWEEPABLE_PARAMETERS
        specs = [ex.default_sweep_spec(p, instances_per_point=SWEEP_INSTANCES, base_seed=self.seed,
                                       unit_cost=self.unit_cost) for p in params]
        bidders = sum(len(s.grid) * s.instances_per_point * s.num_users if s.swept_parameter != "num_users"
                      else int(sum(s.grid)) * s.instances_per_point for s in specs)
        cases = [self.m.checks.SweepCase.from_spec(s) for s in specs]
        workdir = self.workdir

        def run():
            results = []
            for param in params:
                spec = ex.default_sweep_spec(param, instances_per_point=SWEEP_INSTANCES,
                                             base_seed=self.seed, unit_cost=self.unit_cost)
                points, means = ex.run_sweep(spec)
                ex.emit_results(points, means, "csv", workdir / f"sweep_{param}.csv",
                                sweep_param=param, metadata=ex.sweep_metadata(spec))
                results.append((points, means))
            return results

        def check(results):
            checks = self.m.checks
            cleared = 0
            for case, (points, means) in zip(cases, results):
                sample = [(self.rng.randrange(len(case.grid)), self.rng.randrange(case.instances))
                          for _ in range(SAMPLED_INSTANCES_PER_SWEEP)]
                cleared += checks.check_sweep(case, points, means, workdir / f"sweep_{case.param}.csv",
                                              sample, expect_empty=self.expect_empty)
            if not self.expect_empty and cleared == 0:
                raise checks.CheckError("no instance of the allocating pass has a winner")

        return [Op("pass", bidders, run, check)]


# --------------------------------------------------------------------------
# Measurement


@dataclass
class Sample:
    op: str
    round: int
    seconds: float
    norm_ms: float
    bidders: int
    traced: bool
    failed: bool
    label: str


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "edgeauction" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'edgeauction'} is missing; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import numpy as np

    from edgeauction import auction, cli, experiments, model

    import checks
    import selftest
    import spans

    mods = SimpleNamespace(np=np, auction=auction, cli=cli, experiments=experiments, model=model,
                           checks=checks, selftest=selftest)
    import_s = time.perf_counter() - _START

    OUT.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=OUT))
    tracer = spans.Tracer(experiments, cli, auction) if args.trace else None
    try:
        return _measure(args, np, mods, root, tracer, import_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(root, ignore_errors=True)


def _measure(args, np, mods, root: Path, tracer, import_s: float) -> int:
    def make_workload(workdir):
        if args.workload == "auction_100k":
            return AuctionWorkload(args.seed, workdir, mods)
        return SweepWorkload(args.workload, args.seed, workdir, mods)

    setup_times, setup_generate_ms = [], []
    for rep in range(SETUP_REPEATS):
        workdir = root / f"setup{rep}"
        workdir.mkdir()
        if tracer is not None:
            tracer.install()
            tracer.begin_op(f"setup{rep}")
        start = time.perf_counter()
        workload = make_workload(workdir)
        ops = workload.setup()
        setup_times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()
            setup_generate_ms.append(tracer.per_op(f"setup{rep}")["generate.ms"])
        gc.collect()
    setup_s = import_s + statistics.median(setup_times)

    samples: list[Sample] = []
    failures: dict[str, str] = {}
    errors: list[str] = []
    control: list[float] = []
    last_ms = 0.0
    begin = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        for op in ops:
            label = f"r{rounds}:{op.name}"
            gc.collect()
            before = control_loop_ms(np, CONTROL_SHARE * last_ms)
            if traced:
                tracer.install()
                tracer.begin_op(label)
            failed = False
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # one failing operation must not end the run
                failed = True
                failures.setdefault(op.name, str(exc) or repr(exc))
            elapsed = time.perf_counter() - start
            if traced:
                elapsed -= tracer.op_excluded
                tracer.uninstall()
            last_ms = elapsed * 1e3
            after = control_loop_ms(np, CONTROL_SHARE * last_ms)
            control += [before, after]
            # The operation's time in units of the control loop run just
            # before and just after it, on the same core, in the same phase.
            norm = last_ms * CONTROL_REFERENCE_MS / ((before + after) / 2)
            samples.append(Sample(op.name, rounds, elapsed, norm, op.bidders, traced, failed, label))
            if not failed:
                try:
                    op.check(result)
                except mods.checks.CheckError as exc:
                    errors.append(f"{op.name}: {exc}")
        rounds += 1
        done = time.perf_counter() - begin >= args.seconds
        if done and (tracer is None or rounds >= 2):
            break

    # The checks must still reject tampered outcomes.
    errors += [f"self-test: {m}" for m in mods.selftest.run(np, mods.auction, mods.experiments,
                                                             mods.model, OUT)]

    attempted = len(samples)
    failed = sum(s.failed for s in samples)
    for name, reason in sorted(failures.items()):
        print(f"failed: {args.workload}/{name} in every round: {reason}")
    for message in errors[:10]:
        print(f"check failed: {message}")
    print(f"{args.workload}: {rounds} rounds, {attempted} operations, {failed} failed, "
          f"{len(errors)} check failures")

    untraced = [s for s in samples if not s.traced]
    completed = [s for s in untraced if not s.failed]
    if not completed:
        print("error: no operation completed", file=sys.stderr)
        return 1
    if tracer is None:
        by_round: dict[int, list[Sample]] = {}
        for s in untraced:
            by_round.setdefault(s.round, []).append(s)
        throughput = [sum(s.bidders for s in r if not s.failed) / sum(s.norm_ms for s in r) * 1e3
                      for r in by_round.values()]
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ms_p50_norm": (statistics.median(s.norm_ms for s in completed), "ms"),
            "bidders_per_s_norm": (statistics.median(throughput), "bidders/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        op_ms = [s.seconds * 1e3 for s in completed]
        metrics = _layer_metrics(tracer, samples, op_ms, control, setup_generate_ms)
        tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.jsonl")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_metrics(tracer, samples, untraced_op_ms, control, setup_generate_ms):
    traced = [s for s in samples if s.traced and not s.failed]
    per_op = [tracer.per_op(s.label) for s in traced]

    def med(key):
        return _median([p[key] for p in per_op])

    traced_ms = [s.seconds * 1e3 for s in traced]
    # Traced and untraced rounds fall in different phases of the machine's
    # speed, so their difference is taken on normalised times.
    untraced_norm = [s.norm_ms for s in samples if not s.traced and not s.failed]
    attributed = [sum(p[f"{name}.ms"] for name in tracer.LAYERS) for p in per_op]
    calls = sum(p["clear.calls"] for p in per_op)
    cleared = sum(p["clear.cleared"] for p in per_op)
    return {
        "generate.ms": (med("generate.ms"), "ms"),
        "generate.bidders": (med("generate.bidders"), "count"),
        "setup.generate.ms": (_median(setup_generate_ms), "ms"),
        "select.ms": (med("select.ms"), "ms"),
        "clear.ms": (med("clear.ms"), "ms"),
        "clear.calls": (med("clear.calls"), "count"),
        "clear.bidders": (med("clear.bidders"), "count"),
        "clear.winners": (med("clear.winners"), "count"),
        "price.ms": (_median([p["clear.ms"] - p["select.ms"] for p in per_op]), "ms"),
        "clear.cleared_fraction": (cleared / calls if calls else 0.0, "fraction"),
        "aggregate.ms": (med("run_sweep.ms"), "ms"),
        "emit.ms": (med("emit.ms"), "ms"),
        "emit.rows": (med("emit.rows"), "count"),
        "emit.bytes": (med("emit.bytes"), "bytes"),
        "cli.ms": (med("cli.ms"), "ms"),
        "cli.bytes_in": (med("cli.bytes_in"), "bytes"),
        "cli.bytes_out": (med("cli.bytes_out"), "bytes"),
        "op_ms_p50": (_median(untraced_op_ms), "ms"),
        "machine.control_ms": (_median(control), "ms"),
        "trace.overhead_ms": (_median([s.norm_ms for s in traced]) - _median(untraced_norm), "ms"),
        "trace.unattributed_ms": (_median([t - a for t, a in zip(traced_ms, attributed)]), "ms"),
    }


if __name__ == "__main__":
    sys.exit(main())
