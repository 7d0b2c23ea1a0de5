"""End-to-end tests of the command-line interface, run in process."""

import json

import pytest

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
        broken = {k: v for k, v in GOOD_CONFIG.items() if k != "mu"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(broken))
        code = main(["auction", "run", "--bids", str(bids_path),
                     "--config", str(path), "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "mu" in err

    def test_unknown_config_key(self, tmp_path, bids_path, capsys):
        broken = dict(GOOD_CONFIG, discount=0.5)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(broken))
        code = main(["auction", "run", "--bids", str(bids_path),
                     "--config", str(path), "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "discount" in capsys.readouterr().err

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
            ("bonus", "1,2", 0, "num_users must be >= 1"),
        ],
        ids=["zero", "inf", "nan", "zero_users", "negative_users", "zero_num_users"],
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
