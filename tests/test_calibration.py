"""Unit tests for hash-power exponent fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeauction import HashPowerSample, calibration, fit_alpha, load_samples, predict_gamma

from conftest import compensated_sum


def _synthetic_samples(alpha, noise=0.0, rng=None):
    demands = np.linspace(10.0, 100.0, 20)
    field = (40.0, 60.0)
    samples = []
    for d in demands:
        g = float(d**alpha / (d**alpha + sum(f**alpha for f in field)))
        if noise:
            g = float(np.clip(g + rng.normal(0.0, noise), 1e-6, 1.0 - 1e-6))
        samples.append(
            HashPowerSample(varied_demand=float(d), fixed_demands=field, observed_gamma=g)
        )
    return samples


def test_predict_gamma_frozen_value():
    sample = HashPowerSample(
        varied_demand=40.0, fixed_demands=(40.0, 60.0), observed_gamma=0.3
    )
    assert predict_gamma(sample, 1.2) == pytest.approx(0.2757321776752458, abs=1e-12)


def test_predict_gamma_requires_positive_alpha():
    sample = HashPowerSample(
        varied_demand=40.0, fixed_demands=(60.0,), observed_gamma=0.3
    )
    with pytest.raises(ValueError):
        predict_gamma(sample, 0.0)


def test_noise_free_round_trip_recovers_alpha():
    fit = fit_alpha(_synthetic_samples(1.2))
    assert not fit.degenerate
    assert fit.alpha == pytest.approx(1.2, abs=1e-6)
    assert fit.objective < 1e-12


def test_noisy_round_trip_stays_close():
    rng = np.random.default_rng(20240815)
    fit = fit_alpha(_synthetic_samples(1.2, noise=0.01, rng=rng))
    assert not fit.degenerate
    assert abs(fit.alpha - 1.2) < 0.05


@given(alpha=st.floats(0.5, 2.0))
@settings(max_examples=50, deadline=None)
def test_round_trip_across_exponents(alpha):
    fit = fit_alpha(_synthetic_samples(alpha))
    assert fit.alpha == pytest.approx(alpha, abs=1e-5)


def test_fit_is_no_worse_than_a_uniform_grid():
    rng = np.random.default_rng(99)
    samples = _synthetic_samples(1.7, noise=0.02, rng=rng)
    fit = fit_alpha(samples)

    def objective(a):
        return sum((predict_gamma(s, a) - s.observed_gamma) ** 2 for s in samples)

    for a in np.linspace(0.1, 5.0, 64):
        assert fit.objective <= objective(float(a)) + 1e-12


def _three_competitor_samples():
    # 200 noisy samples of alpha 1.2, each against three competitors
    rng = np.random.default_rng(2024)
    samples = []
    for _ in range(200):
        d = float(rng.uniform(1.0, 100.0))
        field = tuple(rng.uniform(1.0, 100.0, 3).tolist())
        g = d**1.2 / (d**1.2 + sum(f**1.2 for f in field))
        g = float(np.clip(g + rng.normal(0.0, 0.01), 1e-6, 1.0 - 1e-6))
        samples.append(HashPowerSample(varied_demand=d, fixed_demands=field, observed_gamma=g))
    return samples


@pytest.mark.parametrize("interpreter_sum", ["builtin", "compensated"])
def test_fit_sums_left_to_right_whatever_the_interpreter(monkeypatch, interpreter_sum):
    # CPython 3.12 and later compensate the builtin sum of floats: with it,
    # this fit would read alpha 1.203254581760321
    if interpreter_sum == "compensated":
        monkeypatch.setattr(calibration, "sum", compensated_sum, raising=False)
    fit = fit_alpha(_three_competitor_samples())
    assert (fit.alpha, fit.objective) == (1.2032545798977257, 0.022178921341860978)


def test_flat_objective_is_flagged_degenerate():
    # a miner whose demand always equals its single competitor realizes
    # share 1/2 under every exponent, so nothing identifies alpha
    samples = [
        HashPowerSample(varied_demand=d, fixed_demands=(d,), observed_gamma=0.5)
        for d in (10.0, 20.0, 30.0)
    ]
    fit = fit_alpha(samples, search_interval=(0.1, 5.0))
    assert fit.degenerate
    assert fit.alpha == 0.1


def test_fit_alpha_input_validation():
    samples = _synthetic_samples(1.2)
    with pytest.raises(ValueError, match="two samples"):
        fit_alpha(samples[:1])
    with pytest.raises(ValueError, match="interval"):
        fit_alpha(samples, search_interval=(2.0, 1.0))
    with pytest.raises(ValueError, match="interval"):
        fit_alpha(samples, search_interval=(0.0, 5.0))


def test_sample_validation():
    with pytest.raises(ValueError):
        HashPowerSample(varied_demand=0.0, fixed_demands=(1.0,), observed_gamma=0.5)
    with pytest.raises(ValueError):
        HashPowerSample(varied_demand=1.0, fixed_demands=(), observed_gamma=0.5)
    with pytest.raises(ValueError):
        HashPowerSample(varied_demand=1.0, fixed_demands=(0.0,), observed_gamma=0.5)
    with pytest.raises(ValueError):
        HashPowerSample(varied_demand=1.0, fixed_demands=(1.0,), observed_gamma=1.0)
    with pytest.raises(ValueError):
        HashPowerSample(varied_demand=1.0, fixed_demands=(1.0,), observed_gamma=0.0)


class TestLoader:
    def test_loads_well_formed_file(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(
            "varied_demand,observed_gamma,competitor_1,competitor_2\n"
            "40,0.3,40,60\n"
            "80,0.52,40,60\n"
        )
        samples = load_samples(path)
        assert len(samples) == 2
        assert samples[0].varied_demand == 40.0
        assert samples[0].fixed_demands == (40.0, 60.0)
        assert samples[1].observed_gamma == 0.52

    def test_ragged_competitor_columns(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(
            "varied_demand,observed_gamma,competitor_1,competitor_2,competitor_3\n"
            "40,0.3,40,60,\n"
            "80,0.52,100,,\n"
        )
        samples = load_samples(path)
        assert samples[0].fixed_demands == (40.0, 60.0)
        assert samples[1].fixed_demands == (100.0,)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(
            "varied_demand,observed_gamma,competitor_1\n"
            "\n"
            "40,0.3,60\n"
            ",,\n"
        )
        assert len(load_samples(path)) == 1

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("demand,share,comp\n40,0.3,60\n")
        with pytest.raises(ValueError, match="header"):
            load_samples(path)

    def test_rejects_header_without_competitor_column(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("varied_demand,observed_gamma\n40,0.3\n")
        with pytest.raises(ValueError, match="competitor"):
            load_samples(path)

    def test_rejects_non_numeric_cell_with_location(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(
            "varied_demand,observed_gamma,competitor_1\n"
            "40,0.3,60\n"
            "oops,0.4,60\n"
        )
        with pytest.raises(ValueError, match=r"samples\.csv:3"):
            load_samples(path)

    def test_rejects_row_without_competitors(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(
            "varied_demand,observed_gamma,competitor_1\n"
            "40,0.3,\n"
        )
        with pytest.raises(ValueError, match="no competitor demands"):
            load_samples(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_samples(path)

    def test_rejects_header_only_file(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("varied_demand,observed_gamma,competitor_1\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_samples(path)
