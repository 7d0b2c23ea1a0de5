"""Fitting the hash-power exponent from observed mining shares.

A miner that rents d units against competitors holding f_1..f_K units
realizes the share

    gamma(d; alpha) = d^alpha / (d^alpha + sum_k f_k^alpha).

Given (demand, observed share) samples, the exponent alpha is recovered by
least squares over a bounded interval: a coarse grid locates the basin,
golden-section search refines it well below the 1e-6 reporting tolerance.
Sums run left to right, so a fit gives the same digits on every interpreter.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .model import _invalid, _sum

__all__ = [
    "HashPowerSample",
    "AlphaFit",
    "predict_gamma",
    "fit_alpha",
    "load_samples",
]

_GRID_POINTS = 256
_REFINE_TOLERANCE = 1e-9  # interval width at which golden-section stops
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class HashPowerSample:
    """One observation: the varied demand, the fixed field, the realized share."""

    varied_demand: float
    fixed_demands: tuple[float, ...]
    observed_gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.varied_demand < math.inf:
            raise _invalid("varied_demand", self.varied_demand, "> 0")
        if not self.fixed_demands:
            raise ValueError("at least one competitor demand is required")
        for f in self.fixed_demands:
            if not 0.0 < f < math.inf:
                raise _invalid("competitor demands", f, "> 0")
        if not 0.0 < self.observed_gamma < 1.0:
            raise ValueError("observed_gamma must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class AlphaFit:
    alpha: float
    objective: float   # sum of squared share residuals at alpha
    degenerate: bool   # True when the objective is flat over the interval


def predict_gamma(sample: HashPowerSample, alpha: float) -> float:
    """Share the varied miner would realize under exponent alpha.

    Refuses a share that floats cannot hold: a power or the sum of the
    powers past the float range, or every power underflowing to 0.
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    try:
        own = sample.varied_demand**alpha
        total = own + _sum(f**alpha for f in sample.fixed_demands)
        if total < math.inf:
            return own / total
        reason = "the sum of the powers overflows"
    except OverflowError:
        reason = "a power overflows"
    except ZeroDivisionError:
        reason = "every power underflows to 0"
    raise ValueError(
        f"the share of the sample with varied_demand {sample.varied_demand!r} "
        f"cannot be evaluated at alpha {alpha!r}: {reason}"
    )


def _objective(samples: Sequence[HashPowerSample], alpha: float) -> float:
    return _sum((predict_gamma(s, alpha) - s.observed_gamma) ** 2 for s in samples)


def fit_alpha(
    samples: Iterable[HashPowerSample],
    search_interval: tuple[float, float] = (0.1, 5.0),
) -> AlphaFit:
    """Least-squares exponent over the interval; needs at least two samples.

    A flat objective (all candidate exponents explain the data equally
    well, e.g. every sample has demand equal to its single competitor)
    cannot identify alpha; the lower bound is returned with the degenerate
    flag set.
    """
    data = list(samples)
    if len(data) < 2:
        raise ValueError("fit_alpha needs at least two samples")
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not (0.0 < lo < hi):
        raise ValueError("search interval must satisfy 0 < lo < hi")
    if hi == math.inf:
        raise ValueError("search interval must be finite")

    step = (hi - lo) / (_GRID_POINTS - 1)
    grid = [lo + step * i for i in range(_GRID_POINTS)]
    values = [_objective(data, a) for a in grid]
    v_lo, v_hi = min(values), max(values)
    if v_hi - v_lo <= 1e-15 * max(1.0, abs(v_hi)):
        return AlphaFit(alpha=lo, objective=values[0], degenerate=True)

    best = values.index(v_lo)
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, _GRID_POINTS - 1)]

    # Golden-section refinement on the bracketing interval. Where adjacent
    # floats lie farther apart than the tolerance the bracket stops shrinking;
    # the probes then cycle, so the search stops at a state it has seen before.
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = _objective(data, x1), _objective(data, x2)
    seen = set()
    while b - a > _REFINE_TOLERANCE and (a, b, x1, x2) not in seen:
        seen.add((a, b, x1, x2))
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = _objective(data, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = _objective(data, x2)
    alpha = (a + b) / 2.0
    return AlphaFit(alpha=alpha, objective=_objective(data, alpha), degenerate=False)


def load_samples(path: str | Path) -> list[HashPowerSample]:
    """Read samples from a delimited text file.

    Expected layout: a header line starting with the columns
    varied_demand, observed_gamma, followed by one or more competitor
    columns (competitor_1, competitor_2, ...). Each data row lists the
    varied demand, the observed share, then that sample's competitor
    demands; trailing competitor cells may be left blank, so rows may
    carry different numbers of competitors.
    """
    target = Path(path)
    with target.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:  # e.g. a field past csv's field size limit
            raise ValueError(f"{target}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{target}: file is empty, header line required")
    header = [cell.strip() for cell in rows[0]]
    if header[:2] != ["varied_demand", "observed_gamma"] or len(header) < 3:
        raise ValueError(
            f"{target}: header must start with varied_demand, observed_gamma "
            "and list at least one competitor column"
        )
    samples: list[HashPowerSample] = []
    for lineno, row in enumerate(rows[1:], start=2):
        cells = [cell.strip() for cell in row]
        if not any(cells):
            continue
        if len(cells) < 3:
            raise ValueError(f"{target}:{lineno}: expected at least three fields")
        try:
            varied = float(cells[0])
            gamma = float(cells[1])
            competitors = tuple(float(cell) for cell in cells[2:] if cell)
        except ValueError as exc:
            raise ValueError(f"{target}:{lineno}: {exc}") from None
        if not competitors:
            raise ValueError(f"{target}:{lineno}: no competitor demands")
        samples.append(
            HashPowerSample(
                varied_demand=varied, fixed_demands=competitors, observed_gamma=gamma
            )
        )
    if not samples:
        raise ValueError(f"{target}: no data rows")
    return samples
