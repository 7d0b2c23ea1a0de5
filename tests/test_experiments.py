"""Unit tests for the sweep harness: seeding, aggregation, serialization."""

import hashlib
import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeauction import (
    DEFAULT_GRIDS,
    AuctionConfig,
    InstancePoint,
    NetworkEffectParams,
    RNG_FAMILY,
    SWEEPABLE_PARAMETERS,
    SweepSpec,
    default_sweep_spec,
    emit_results,
    ex_ante_valuation,
    generate_instance,
    run_auction,
    run_sweep,
    stable_instance_seed,
    sweep_metadata,
)
from edgeauction import auction
from edgeauction.experiments import DEFAULT_BLOCKCHAIN, DEFAULT_UNIT_COST, _clear_instance


class TestSeeding:
    def test_frozen_seed_values(self):
        # recomputed by hand from the blake2b digest of the packed payload
        assert stable_instance_seed(0, 100.0, 0) == 17437920035686216780
        assert stable_instance_seed(12345, 2.5, 7) == 3824288349140500622

    def test_integer_and_float_grid_values_hash_identically(self):
        assert stable_instance_seed(9, 200, 3) == stable_instance_seed(9, 200.0, 3)

    def test_seed_depends_on_every_coordinate(self):
        base = stable_instance_seed(1, 2.0, 3)
        assert stable_instance_seed(2, 2.0, 3) != base
        assert stable_instance_seed(1, 2.5, 3) != base
        assert stable_instance_seed(1, 2.0, 4) != base

    def test_seed_fits_in_64_bits(self):
        s = stable_instance_seed((1 << 64) - 1, 1e300, 2**63)
        assert 0 <= s < (1 << 64)


class TestInstanceGeneration:
    def test_same_seed_same_instance(self):
        a = generate_instance(50, DEFAULT_BLOCKCHAIN, 42)
        b = generate_instance(50, DEFAULT_BLOCKCHAIN, 42)
        assert a == b

    def test_bids_are_truthful_unit_demands(self):
        roster = generate_instance(100, DEFAULT_BLOCKCHAIN, 7)
        assert [p.id for p in roster] == list(range(100))
        for p in roster:
            assert p.demand == 1.0
            assert 0.0 <= p.tx_size <= 1000.0
            assert p.bid == ex_ante_valuation(p.tx_size, DEFAULT_BLOCKCHAIN)

    def test_sizes_concentrate_around_the_uniform_mean(self):
        sizes = [
            p.tx_size for p in generate_instance(20000, DEFAULT_BLOCKCHAIN, 11)
        ]
        assert 490.0 < float(np.mean(sizes)) < 510.0

    def test_rejects_empty_market(self):
        with pytest.raises(ValueError):
            generate_instance(0, DEFAULT_BLOCKCHAIN, 1)


class TestSweepSpec:
    def test_default_specs_cover_all_parameters(self):
        for param in SWEEPABLE_PARAMETERS:
            spec = default_sweep_spec(param, instances_per_point=2, base_seed=1)
            assert spec.grid == DEFAULT_GRIDS[param]
            assert spec.market.capacity >= spec.num_users

    def test_users_sweep_capacity_never_binds(self):
        spec = default_sweep_spec("num_users", instances_per_point=1)
        assert spec.market.capacity >= max(spec.grid)

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            default_sweep_spec("propagation_coeff")

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            default_sweep_spec("fee_rate", grid=(0.2, 0.1))

    def test_users_grid_must_be_integral(self):
        for grid in ((10.5, 20.0), (100, math.inf), (math.nan, 100)):
            with pytest.raises(ValueError, match="positive integers"):
                default_sweep_spec("num_users", grid=grid)
        spec = default_sweep_spec("num_users", instances_per_point=1)
        for grid in ((0, 10), (10, math.inf), (math.nan,)):
            with pytest.raises(ValueError, match="positive integers"):
                replace(spec, grid=grid)

    @pytest.mark.parametrize(
        "param, grid, reason",
        [
            ("mean_block_interval", (0.0, 100.0), "mean_block_interval must be > 0"),
            ("mean_block_interval", (0.001, math.inf), "mean_block_interval must be finite"),
            ("mean_block_interval", (math.nan,), "mean_block_interval must be finite"),
            ("fee_rate", (-0.001, 0.002), "fee_rate must be >= 0"),
        ],
        ids=["zero", "inf", "nan", "negative"],
    )
    def test_blockchain_params_refuse_grid_values(self, param, grid, reason):
        with pytest.raises(ValueError, match=reason):
            default_sweep_spec(param, grid=grid)

    def test_num_users_must_be_an_integer(self):
        with pytest.raises(ValueError, match="num_users must be an integer"):
            default_sweep_spec("fee_rate", num_users=600.0)
        spec = default_sweep_spec("fee_rate", instances_per_point=1)
        for num_users in (600.5, True):
            with pytest.raises(ValueError, match="num_users must be an integer"):
                replace(spec, num_users=num_users)

    def test_market_at_varies_only_the_swept_parameter(self):
        users = default_sweep_spec("num_users", grid=(5, 10))
        assert users.market_at(10) == (10, users.blockchain)
        fee = default_sweep_spec("fee_rate", num_users=7)
        assert fee.market_at(0.003) == (7, replace(fee.blockchain, fee_rate=0.003))

    def test_base_seed_must_fit_64_bits(self):
        with pytest.raises(ValueError, match="64 bits"):
            default_sweep_spec("fee_rate", base_seed=1 << 64)


class TestRunSweep:
    def _small_spec(self, **kwargs):
        defaults = dict(
            instances_per_point=5, base_seed=3, num_users=20, unit_cost=0.001
        )
        defaults.update(kwargs)
        return default_sweep_spec("fee_rate", grid=(0.004, 0.007, 0.01), **defaults)

    def test_shapes_and_ordering(self):
        spec = self._small_spec()
        points, means = run_sweep(spec)
        assert len(points) == 15
        assert len(means) == 3
        assert [p.grid_value for p in points[:5]] == [0.004] * 5
        assert [p.instance_index for p in points[:5]] == list(range(5))
        assert [m.grid_value for m in means] == [0.004, 0.007, 0.01]

    def test_means_match_recomputation(self):
        spec = self._small_spec()
        points, means = run_sweep(spec)
        for gi, m in enumerate(means):
            chunk = points[gi * 5 : (gi + 1) * 5]
            assert m.welfare == pytest.approx(
                sum(p.welfare for p in chunk) / 5, abs=1e-12
            )
            assert m.winner_count == pytest.approx(
                sum(p.winner_count for p in chunk) / 5, abs=1e-12
            )
            assert m.total_payment == pytest.approx(
                sum(p.total_payment for p in chunk) / 5, abs=1e-12
            )
            assert m.n_instances == 5

    def test_grid_points_are_independent(self):
        # the rows of a shared grid value must not depend on which other
        # values are in the grid
        a = default_sweep_spec(
            "fee_rate", grid=(0.004, 0.007), instances_per_point=4,
            base_seed=3, num_users=15, unit_cost=0.001,
        )
        b = default_sweep_spec(
            "fee_rate", grid=(0.004, 0.02), instances_per_point=4,
            base_seed=3, num_users=15, unit_cost=0.001,
        )
        pa, _ = run_sweep(a)
        pb, _ = run_sweep(b)
        assert pa[:4] == pb[:4]

    def test_num_users_sweep_varies_roster_size(self):
        spec = default_sweep_spec(
            "num_users", grid=(5, 10), instances_per_point=2, base_seed=1,
            unit_cost=0.001,
        )
        points, _ = run_sweep(spec)
        assert all(p.winner_count <= 5 for p in points[:2])
        assert all(p.winner_count <= 10 for p in points[2:])

    @given(
        param=st.sampled_from(SWEEPABLE_PARAMETERS),
        unit_cost=st.sampled_from([0.001, DEFAULT_UNIT_COST]),
        mu=st.sampled_from([0.5, 10.0]),
        base_seed=st.integers(0, 2**64 - 1),
        index=st.integers(0, 99),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_instance_clears_as_its_roster_does(self, param, unit_cost, mu, base_seed, index, data):
        spec = default_sweep_spec(param, base_seed=base_seed, unit_cost=unit_cost)
        spec = replace(spec, network=NetworkEffectParams(mu=mu, nu=spec.network.nu))
        g = data.draw(st.sampled_from(spec.grid))
        point = _clear_instance(spec, g, index)
        roster = generate_instance(*spec.market_at(g), stable_instance_seed(base_seed, g, index))
        outcome = run_auction(roster, AuctionConfig(market=spec.market, network=spec.network))
        assert point == InstancePoint(
            grid_value=g,
            instance_index=index,
            welfare=outcome.welfare,
            winner_count=len(outcome.winners),
            total_payment=float(sum(outcome.payments)),
        )
        # an int, so the files write it as one
        assert type(point.winner_count) is int

    def test_welfare_mismatch_names_the_sweep_coordinates(self, monkeypatch):
        spec = default_sweep_spec(
            "fee_rate", grid=(0.007,), instances_per_point=1, base_seed=3, num_users=20,
            unit_cost=0.001,
        )
        # the consistency check evaluates the set welfare through _welfare; the
        # kernel computes its prefix welfare on its own
        original = auction._welfare
        monkeypatch.setattr(auction, "_welfare", lambda k, total, c: 2.0 * original(k, total, c))
        seed = stable_instance_seed(3, 0.007, 0)
        with pytest.raises(RuntimeError, match="welfare mismatch") as exc:
            run_sweep(spec)
        message = str(exc.value)
        assert "(n=20, m=" in message and ", capacity=20, bids from " in message
        assert message.endswith(f"in the fee_rate sweep at 0.007, instance 0, seed {seed}")


class TestEmitResults:
    def _run_small(self):
        spec = default_sweep_spec(
            "fee_rate", grid=(0.004, 0.01), instances_per_point=3,
            base_seed=5, num_users=12, unit_cost=0.001,
        )
        points, means = run_sweep(spec)
        return spec, points, means

    def test_csv_layout(self, tmp_path):
        spec, points, means = self._run_small()
        written = emit_results(
            points, means, "csv", tmp_path / "sweep.csv",
            sweep_param="fee_rate", metadata=sweep_metadata(spec),
        )
        assert [p.name for p in written] == [
            "sweep.csv", "sweep_means.csv", "sweep_meta.json",
        ]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "sweep_param,grid_value,instance_index,welfare,winner_count,total_payment"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "fee_rate"
        assert float(first[1]) == 0.004
        assert first[2] == "0"

        mean_lines = (tmp_path / "sweep_means.csv").read_text().splitlines()
        assert mean_lines[0] == "sweep_param,grid_value,welfare,winner_count,total_payment,n_instances"
        assert len(mean_lines) == 3

    def test_csv_values_round_trip_at_full_precision(self, tmp_path):
        spec, points, means = self._run_small()
        emit_results(
            points, means, "csv", tmp_path / "sweep.csv",
            sweep_param="fee_rate", metadata=sweep_metadata(spec),
        )
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        for line, p in zip(lines, points):
            cells = line.split(",")
            assert float(cells[3]) == p.welfare
            assert int(cells[4]) == p.winner_count
            assert float(cells[5]) == p.total_payment

    def test_double_emission_is_byte_identical(self, tmp_path):
        spec, points, means = self._run_small()
        meta = sweep_metadata(spec)
        emit_results(points, means, "csv", tmp_path / "a.csv",
                     sweep_param="fee_rate", metadata=meta)
        emit_results(points, means, "csv", tmp_path / "b.csv",
                     sweep_param="fee_rate", metadata=meta)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (
            (tmp_path / "a_means.csv").read_bytes()
            == (tmp_path / "b_means.csv").read_bytes()
        )
        assert (
            (tmp_path / "a_meta.json").read_bytes()
            == (tmp_path / "b_meta.json").read_bytes()
        )

    def test_json_mirrors_the_csv_fields(self, tmp_path):
        spec, points, means = self._run_small()
        written = emit_results(
            points, means, "json", tmp_path / "sweep.json",
            sweep_param="fee_rate", metadata=sweep_metadata(spec),
        )
        assert len(written) == 1
        data = json.loads(written[0].read_text())
        assert data["metadata"]["rng_family"] == RNG_FAMILY
        assert data["metadata"]["swept_parameter"] == "fee_rate"
        assert len(data["points"]) == len(points)
        assert len(data["means"]) == len(means)
        assert data["points"][0]["welfare"] == points[0].welfare
        assert data["means"][0]["n_instances"] == 3

    def test_metadata_records_reproducibility_inputs(self):
        spec, _, _ = self._run_small()
        meta = sweep_metadata(spec)
        assert meta["rng_family"] == "numpy PCG64"
        assert "blake2b64" in meta["seed_derivation"]
        assert meta["base_seed"] == 5
        assert meta["grid"] == [0.004, 0.01]

    def test_unknown_format_is_rejected(self, tmp_path):
        spec, points, means = self._run_small()
        with pytest.raises(ValueError, match="unknown format"):
            emit_results(points, means, "parquet", tmp_path / "x",
                         sweep_param="fee_rate")


def test_spec_rejects_wrong_parameter_name():
    spec = default_sweep_spec("fee_rate", instances_per_point=1)
    with pytest.raises(ValueError, match="swept_parameter"):
        SweepSpec(
            swept_parameter="nonsense",
            grid=(1.0, 2.0),
            blockchain=spec.blockchain,
            network=spec.network,
            market=spec.market,
            num_users=10,
            instances_per_point=1,
            base_seed=0,
        )


# sha256 of the four default sweeps at 2 instances per grid value, base seed
# 0, in both cost regimes and both formats, recorded with numpy 2.4.6 and
# Python 3.11.7. A refactor must leave every byte alone; a change that means
# to alter the output updates these digests on purpose and says so.
_SWEEP_DIGESTS = {
    "cost_0.001/csv/sweep_fee_rate.csv": "63f7be3177d81fb14c1014e8dd8e43a5248ee68469770774c0a3b6f062519ce1",
    "cost_0.001/csv/sweep_fee_rate_means.csv": "265866030c7fae16e09b8373fff3555ac9226d33acb0575ca1bbdaad86415959",
    "cost_0.001/csv/sweep_fee_rate_meta.json": "f390bfb46322a4e128fb47fff8ec8e2db267eff59d626f0ade5c4eae4e92822e",
    "cost_0.001/csv/sweep_fixed_bonus.csv": "c1ada9824ed0e5e6e754c5802de7eb5a6a8302216c5c5a485c58ebf3a349f5c1",
    "cost_0.001/csv/sweep_fixed_bonus_means.csv": "cc0ffe467a893d3458b4a4b7d92a70a82ebfabb26939e3b3a032104ddd8284f5",
    "cost_0.001/csv/sweep_fixed_bonus_meta.json": "0c11b9e205bbc94d03140b88b1f9d28be2405ddb68bba558ba3b1eb697ae6789",
    "cost_0.001/csv/sweep_mean_block_interval.csv": "2b175d845c6aa0dffb35eefdf95fc94bb223eba8351c3e245868201685967314",
    "cost_0.001/csv/sweep_mean_block_interval_means.csv": "e1e11c5391ea065430d7eaf11ea69de8a330160ea334b51c9a159848326803e8",
    "cost_0.001/csv/sweep_mean_block_interval_meta.json": "0541a8136410d9e81f3848a1cee4a8356d084d69b02e9b661c25edc724350de0",
    "cost_0.001/csv/sweep_num_users.csv": "50e4fb7f9f9b8534323e1d4ac888aa7e8acf69232d34b35a52674dd1f8eafbb7",
    "cost_0.001/csv/sweep_num_users_means.csv": "b6ed1157baa3317ff39b8cc3e2541103a3773a4516ad8a529096c178243b472a",
    "cost_0.001/csv/sweep_num_users_meta.json": "fa06b65e7d71ad3ed31c8e8d0904474311b81553947bf27550a9819645bbfbd3",
    "cost_0.001/json/sweep_fee_rate.json": "1ae6a6cb6d8a972ae457bc630d90316a8992ceefef7f677c7ab4e43736a273d1",
    "cost_0.001/json/sweep_fixed_bonus.json": "2f6e11264a3303091e94b2e1f3e000c642fe929b5d76a145af793bbd1e95b6b8",
    "cost_0.001/json/sweep_mean_block_interval.json": "65c31ec3b44f1c43d12a8fad1d645f11f538bd9f25c5963f93ec1375019d1193",
    "cost_0.001/json/sweep_num_users.json": "e1066e4fb2c5617befd2ede996d6917c567d9af2469cfb36deff401b0f31762b",
    "cost_0.02/csv/sweep_fee_rate.csv": "a58c683451f36232fad5e3fb6e25f91b6d8cc4c09e5b7552406cd2202d7c0f0c",
    "cost_0.02/csv/sweep_fee_rate_means.csv": "219c08a4c257d3bfeaff3571421871c74b0cffa1c31d916058df29eb312852d1",
    "cost_0.02/csv/sweep_fee_rate_meta.json": "31692be99a55cd5e2c554b5166755aeee90390cde998ea65f9a0918fc1e39859",
    "cost_0.02/csv/sweep_fixed_bonus.csv": "bf89c7f419d069b001b61e6c20aaf666d0a641a7c0587722e1a038151c09b019",
    "cost_0.02/csv/sweep_fixed_bonus_means.csv": "2e10ad84244110c8a375807f4760f7f2883e866e7be83b925444eb49bb598c41",
    "cost_0.02/csv/sweep_fixed_bonus_meta.json": "d7e96f305f1483f482c030c9264ca2f7880cdf09c30191466b9d2199a608ca64",
    "cost_0.02/csv/sweep_mean_block_interval.csv": "203b9a06c41a21154eccab2f88dfe388599fcd0ae57c13bf3e65d031b6ccf1ba",
    "cost_0.02/csv/sweep_mean_block_interval_means.csv": "df7ab770dec24149d310ff8f5a4722e5b799a9921a0b0471be8529a33845ed8b",
    "cost_0.02/csv/sweep_mean_block_interval_meta.json": "829159fa84796812e2ddba8ec11f9ddec8f079635922d7ea3ec9677ace7e5bf0",
    "cost_0.02/csv/sweep_num_users.csv": "97025fb21b7c1190e879a7e311d692f5bdc908d6b56386e2f516b54e5748a22a",
    "cost_0.02/csv/sweep_num_users_means.csv": "4b3412edec66ce585c780e4940c1c4dbf7fb95568d26557dd2ecb8bb38c3e633",
    "cost_0.02/csv/sweep_num_users_meta.json": "07994bfe08b4fbeb91b6ccf16946f70992f77fb39888bf8783c3235f55c2094b",
    "cost_0.02/json/sweep_fee_rate.json": "357a8bc1bb25263fda08441b41601b0e9513ab31c9b790fb021fde7303568b83",
    "cost_0.02/json/sweep_fixed_bonus.json": "22d461be7f567ec8461de786916a6135356b83017cbc1e2c367aec80314e6cb9",
    "cost_0.02/json/sweep_mean_block_interval.json": "7273757ab8c3a800f8a4b84200ef42c4c5e1bc7c18f27e94dcf232e82392fbee",
    "cost_0.02/json/sweep_num_users.json": "d7c36a91c8259b45414e0b77a29be2d450de266d26073b123edb437d1bb48007",
}


def test_default_sweep_bytes_match_recorded_digests(tmp_path):
    for unit_cost in (0.001, 0.02):
        for param in SWEEPABLE_PARAMETERS:
            spec = default_sweep_spec(
                param, instances_per_point=2, base_seed=0, unit_cost=unit_cost
            )
            points, means = run_sweep(spec)
            for fmt in ("csv", "json"):
                emit_results(
                    points, means, fmt,
                    tmp_path / f"cost_{unit_cost}" / fmt / f"sweep_{param}.{fmt}",
                    sweep_param=param, metadata=sweep_metadata(spec),
                )
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted(_SWEEP_DIGESTS)
    for name, digest in _SWEEP_DIGESTS.items():
        actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert actual == digest, f"{name} changed: sha256 {actual}"


def test_run_sweeps_script_writes_the_emitted_files(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_sweeps.py"
    loader = importlib.util.spec_from_file_location("run_sweeps", script)
    run_sweeps = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(run_sweeps)
    by_script, direct = tmp_path / "script", tmp_path / "direct"
    argv = ["--out-dir", str(by_script), "--instances", "1", "--unit-cost", "0.001"]
    assert run_sweeps.main(argv) == 0
    for param in SWEEPABLE_PARAMETERS:
        spec = default_sweep_spec(param, instances_per_point=1, base_seed=0, unit_cost=0.001)
        points, means = run_sweep(spec)
        emit_results(
            points, means, "csv", direct / f"sweep_{param}.csv",
            sweep_param=param, metadata=sweep_metadata(spec),
        )
    written = sorted(p.name for p in by_script.iterdir())
    assert len(written) == 12
    assert written == sorted(p.name for p in direct.iterdir())
    for name in written:
        assert (by_script / name).read_bytes() == (direct / name).read_bytes()
