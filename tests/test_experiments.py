"""Unit tests for the sweep harness: seeding, aggregation, serialization."""

import json

import numpy as np
import pytest

from edgeauction import (
    DEFAULT_GRIDS,
    RNG_FAMILY,
    SWEEPABLE_PARAMETERS,
    SweepSpec,
    default_sweep_spec,
    emit_results,
    ex_ante_valuation,
    generate_instance,
    run_sweep,
    stable_instance_seed,
    sweep_metadata,
)
from edgeauction.experiments import DEFAULT_BLOCKCHAIN


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
        with pytest.raises(ValueError, match="positive integers"):
            default_sweep_spec("num_users", grid=(10.5, 20.0))

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
