"""Least-squares fits of scaling laws on log-transformed data."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

MIN_POINTS = 4


class InsufficientDataError(ValueError):
    """Fewer usable data points than fit parameters demand."""


@dataclass(frozen=True)
class FitReport:
    """Result of a log-space linear least-squares fit.

    model 'power_law': y = prefactor * prod_i x_i^exponents[i]
    model 'exp_sqrt':  y = prefactor * exp(sum_i exponents[i] * sqrt(x_i))
    Standard errors come from the residual covariance; n_used counts the rows
    that survived the positivity and finiteness screen.
    """

    model: str
    x_names: tuple[str, ...]
    prefactor: float
    prefactor_stderr: float
    exponents: tuple[float, ...]
    exponent_stderrs: tuple[float, ...]
    n_used: int
    residual_rms: float


def fit_loglog(x_columns, y, model: str = "power_law",
               x_names: tuple[str, ...] | None = None) -> FitReport:
    """Fit ln y against ln x (power_law) or sqrt(x) (exp_sqrt) columns.

    x_columns: sequence of equal-length 1-d arrays (one per regressor).
    Rows with non-positive or non-finite y (or x; non-positive x only under
    power_law) are excluded with a warning.  A regressor that does not vary
    over the kept rows (a design matrix of lower rank than its column count)
    raises InsufficientDataError.
    """
    if model not in ("power_law", "exp_sqrt"):
        raise ValueError(f"unknown fit model {model!r}")
    xs = [np.asarray(c, dtype=float) for c in x_columns]
    y = np.asarray(y, dtype=float)
    if not xs:
        raise ValueError("need at least one x column")
    if any(c.shape != y.shape for c in xs):
        raise ValueError("x and y columns must have equal length")
    if x_names is None:
        x_names = tuple(f"x{i}" for i in range(len(xs)))

    keep = np.isfinite(y) & (y > 0)
    for c in xs:
        keep &= np.isfinite(c) & ((c > 0) if model == "power_law" else (c >= 0))
    dropped = int((~keep).sum())
    if dropped:
        warnings.warn(f"excluded {dropped} row(s) with non-positive or non-finite data "
                      f"from the fit")
    n = int(keep.sum())
    n_params = len(xs) + 1
    if n < max(MIN_POINTS, n_params + 1):
        raise InsufficientDataError(
            f"insufficient data: {n} usable points for a {n_params}-parameter fit"
        )

    transform = np.log if model == "power_law" else np.sqrt
    design = np.column_stack([np.ones(n)] + [transform(c[keep]) for c in xs])
    target = np.log(y[keep])
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < n_params:
        raise InsufficientDataError(
            f"insufficient data: the {n_params}-column design matrix has rank {rank}; "
            f"a regressor is constant, or regressors are collinear, over the {n} usable points"
        )
    resid = target - design @ coef
    dof = max(n - n_params, 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    stderr = np.sqrt(np.maximum(np.diag(cov), 0.0))

    prefactor = math.exp(coef[0])
    return FitReport(
        model=model,
        x_names=tuple(x_names),
        prefactor=prefactor,
        prefactor_stderr=prefactor * float(stderr[0]),
        exponents=tuple(float(c) for c in coef[1:]),
        exponent_stderrs=tuple(float(s) for s in stderr[1:]),
        n_used=n,
        residual_rms=math.sqrt(float(resid @ resid) / n),
    )
