"""The benchmark's tracer replaces public names of the program; pin that it still runs."""

import importlib.util
import json
import sys
from pathlib import Path

from edgeauction import auction, cli, experiments
from edgeauction.auction import AuctionConfig
from edgeauction.experiments import DEFAULT_BLOCKCHAIN, DEFAULT_NETWORK, default_sweep_spec, sweep_metadata
from edgeauction.model import MarketConfig

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# What Tracer.install replaces, as perfbench/spans.py names it.
_WRAPPED = [
    (experiments, "generate_instance"),
    (experiments, "run_auction"),
    (experiments, "run_sweep"),
    (experiments, "emit_results"),
    (cli, "run_auction"),
    (cli, "main"),
]


def _load_spans(monkeypatch):
    loader = importlib.util.spec_from_file_location("spans", _SPANS)
    spans = importlib.util.module_from_spec(loader)
    # dataclass looks its class's module up in sys.modules while building Span
    monkeypatch.setitem(sys.modules, loader.name, spans)
    loader.loader.exec_module(spans)
    return spans


def test_tracer_records_every_layer_and_puts_the_originals_back(tmp_path, monkeypatch):
    spans = _load_spans(monkeypatch)
    originals = {(module, name): getattr(module, name) for module, name in _WRAPPED}
    market = MarketConfig(unit_cost=0.001, capacity=20, hash_exponent=1.2)
    bids_path, config_path = tmp_path / "bids.json", tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "fixed_bonus": 2.5, "fee_rate": 0.007, "mean_block_interval": 600.0,
        "propagation_coeff": 1.0, "mu": 0.5, "nu": 0.005, "unit_cost": 0.001,
        "hash_exponent": 1.2, "num_users": 20,
    }))
    spec = default_sweep_spec("fixed_bonus", instances_per_point=1, unit_cost=0.001, grid=[2.5])

    tracer = spans.Tracer(experiments, cli, auction)
    tracer.install()
    try:
        for key, original in originals.items():
            assert getattr(*key) is not original
        roster = experiments.generate_instance(20, DEFAULT_BLOCKCHAIN, seed=1)
        experiments.run_auction(roster, AuctionConfig(market, DEFAULT_NETWORK))
        bids_path.write_text(json.dumps([
            {"id": p.id, "tx_size": p.tx_size, "demand": p.demand, "bid": p.bid} for p in roster
        ]))
        assert cli.main(["auction", "run", "--bids", str(bids_path), "--config", str(config_path),
                         "--out", str(tmp_path / "outcome.json")]) == 0
        points, means = experiments.run_sweep(spec)
        experiments.emit_results(points, means, "csv", tmp_path / "sweep.csv",
                                 sweep_param="fixed_bonus", metadata=sweep_metadata(spec))
    finally:
        tracer.uninstall()

    assert {s.name for s in tracer.spans} == {"generate", "clear", "select", "cli", "run_sweep", "emit"}
    assert not any(s.error for s in tracer.spans)
    # auction run clears inside the cli span, so the layer split sees its clearing
    (cli_span,) = [s for s in tracer.spans if s.name == "cli"]
    (cli_clear,) = [s for s in tracer.spans if s.name == "clear" and s.parent == cli_span.id]
    assert cli_clear.counts["bidders"] == 20
    assert cli_clear.counts["winners"] > 0
    for key, original in originals.items():
        assert getattr(*key) is original
