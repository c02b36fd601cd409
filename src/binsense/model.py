"""Measurement channels for k-sparse binary signals.

Three channels observe a hidden vector x in {0,1}^n with exactly k ones
through an m x n Gaussian sensing matrix A:

* linear      y_i = <A_i, x> + z_i,  z_i ~ N(0, sigma2)
* one-bit     y_i = sign(<A_i, x> + z_i)
* logistic    y_i = +1 with probability 1 / (1 + exp(-beta <A_i, x>)), else -1

sign(0) is +1 throughout.  Indices are 0-based.  A linear and a one-bit
measurement taken from the same noise stream share the identical noise
vector, so quantizing the linear output reproduces the one-bit output
exactly; paired experiments rely on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import expit

from .numerics import RngStream, _uniforms, sample_gaussian, sample_indices, std_normal_cdf
from .numerics import _gaussian_rows  # noqa: F401  (the harness draws a block's walks here)

__all__ = [
    "Linear",
    "OneBit",
    "Logistic",
    "Model",
    "CHANNELS",
    "SparseSignal",
    "SensingMatrix",
    "MeasurementVector",
    "model_tag",
    "noise_param",
    "output_scale",
    "sign_pm1",
    "random_signal",
    "gen_sensing_matrix",
    "sample_projections",
    "measure",
    "observe",
    "inverse_link",
    "link_slope",
]


@dataclass(frozen=True)
class _GaussianNoise:
    """Shared base of the two channels driven by additive N(0, sigma2) noise."""

    noise_name = "sigma2"

    sigma2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma2", float(self.sigma2))
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise ValueError(f"sigma2 must be finite and >= 0, got {self.sigma2!r}")


@dataclass(frozen=True)
class Linear(_GaussianNoise):
    """Additive Gaussian channel with noise variance sigma2 >= 0."""

    tag = "linear"
    binary = False


@dataclass(frozen=True)
class OneBit(_GaussianNoise):
    """Sign of the noisy linear measurement; sigma2 = 0 is the clean sign channel."""

    tag = "onebit"
    binary = True


@dataclass(frozen=True)
class Logistic:
    """Binary channel with P(y=+1) = 1/(1 + exp(-beta t)) at t = <a, x>.

    beta controls the noise level: beta = math.inf is admitted as the
    noiseless limit (y = sign(t)), while beta = 0 would make the output
    independent of the signal and is rejected at construction.
    """

    tag = "logistic"
    noise_name = "beta"
    binary = True

    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", float(self.beta))
        if math.isnan(self.beta) or self.beta <= 0.0:
            raise ValueError(
                f"beta must be positive (beta=0 carries no signal), got {self.beta!r}; "
                "use math.inf for the noiseless limit"
            )


Model = Union[Linear, OneBit, Logistic]

# The registry of channels, in the order the CLI lists them.
CHANNELS = (Linear, OneBit, Logistic)


def model_tag(model: Model) -> str:
    return model.tag


def noise_param(model: Model) -> float:
    """The channel's scalar noise knob: sigma2 for linear/one-bit, beta for logistic."""
    return getattr(model, model.noise_name)


def output_scale(model: Model, k: int) -> float:
    """The variance scale of the top-k closed form: k + sigma2 for linear and
    one-bit, k + 1/beta^2 for logistic (k alone at beta = inf)."""
    if isinstance(model, Logistic):
        return k + (0.0 if math.isinf(model.beta) else 1.0 / model.beta ** 2)
    return k + model.sigma2


def sign_pm1(t) -> np.ndarray:
    """Elementwise sign into {-1, +1}, with sign(0) = +1."""
    return np.where(np.asarray(t, dtype=np.float64) >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class SparseSignal:
    """A k-sparse binary vector stored as its sorted 0-based support.

    The empty support (k = 0) is admitted as a degenerate signal so the
    single-measurement decoder can round-trip the all-zero vector.
    """

    n: int
    support: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        sup = tuple(int(i) for i in self.support)
        object.__setattr__(self, "support", sup)
        if any(not 0 <= i < self.n for i in sup):
            raise ValueError(f"support indices must lie in [0, {self.n})")
        if any(a >= b for a, b in zip(sup, sup[1:])):
            raise ValueError("support must be strictly increasing (sorted, distinct)")

    @property
    def k(self) -> int:
        return len(self.support)

    @property
    def support_array(self) -> np.ndarray:
        return np.array(self.support, dtype=np.int64)

    def dense(self) -> np.ndarray:
        x = np.zeros(self.n, dtype=np.float64)
        x[self.support_array] = 1.0
        return x


def random_signal(n: int, k: int, stream: RngStream) -> SparseSignal:
    """Signal with support drawn uniformly over all k-subsets of range(n)."""
    return SparseSignal(n, tuple(sample_indices(stream, n, k)))


@dataclass(frozen=True, eq=False)
class SensingMatrix:
    """Dense m x n float64 sensing matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.entries, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"entries must be a 2-D array, got shape {arr.shape}")
        object.__setattr__(self, "entries", arr)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]


def gen_sensing_matrix(m: int, n: int, stream: RngStream) -> SensingMatrix:
    """m x n matrix of i.i.d. N(0, 1) entries, row-major draw order.

    For any k-sparse binary x this design satisfies E[(A_i^T x)^2] = k,
    the power constraint the bounds assume.
    """
    if not (isinstance(m, int) and isinstance(n, int) and m >= 1 and n >= 1):
        raise ValueError(f"m and n must be positive integers, got m={m!r}, n={n!r}")
    entries = sample_gaussian(stream, m * n).reshape(m, n)
    return SensingMatrix(entries)


def sample_projections(m: int, k: int, stream: RngStream) -> np.ndarray:
    """m clean projections t_i = <A_i, x> of a k-sparse binary x, drawn in law.

    With i.i.d. N(0, 1) rows, t_i ~ N(0, k) independently, so t is
    sqrt(k) times m standard normals of the stream (prefix-stable) and
    no row of A is drawn.
    """
    return math.sqrt(k) * sample_gaussian(stream, m)


@dataclass(frozen=True, eq=False)
class MeasurementVector:
    """Length-m observation vector tagged with the channel that produced it."""

    model: Model
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"values must be a 1-D array, got shape {arr.shape}")
        if self.model.binary and not np.all(np.abs(arr) == 1.0):
            raise ValueError("binary-channel measurements must lie in {-1, +1}")
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return self.values.shape[0]


def measure(
    A: SensingMatrix, x: SparseSignal, model: Model, stream: RngStream
) -> MeasurementVector:
    """Observe x through A under the given channel: :func:`observe` of t = A x.

    Row i depends on row i of A alone: t_i adds the support columns one
    at a time in index order, whatever the number of rows.
    """
    if A.n != x.n:
        raise ValueError(f"dimension mismatch: matrix has n={A.n}, signal has n={x.n}")
    if x.k > 0:
        t = np.add.accumulate(A.entries[:, x.support_array], axis=1)[:, -1]
    else:
        t = np.zeros(A.m, dtype=np.float64)
    return observe(t, model, stream)


def observe(t: np.ndarray, model: Model, stream: RngStream) -> MeasurementVector:
    """The channel's outputs for the clean projections t.

    The stream feeds only the channel noise (Gaussian z for linear and
    one-bit, the Bernoulli draws for logistic), so linear and one-bit
    outputs taken with the same stream share z exactly.  Output i depends
    on t_i and the stream's i-th draw alone.
    """
    m = t.shape[0]
    if isinstance(model, _GaussianNoise):
        if model.sigma2 > 0.0:
            t = t + math.sqrt(model.sigma2) * sample_gaussian(stream, m)
        return MeasurementVector(model, sign_pm1(t) if model.binary else t)

    if isinstance(model, Logistic):
        if math.isinf(model.beta):
            return MeasurementVector(model, sign_pm1(t))
        p = expit(model.beta * t)
        u = _uniforms(stream, m)
        return MeasurementVector(model, np.where(u < p, 1.0, -1.0))

    raise TypeError(f"not a measurement model: {model!r}")


def inverse_link(t, model: Model):
    """Conditional mean of the output given the clean projection t = <a, x>.

    linear: t itself; one-bit: 1 - 2*Phi(-t/sigma) (sign(t) when sigma2=0);
    logistic: tanh(beta*t/2) (sign(t) when beta=inf).  Odd and monotone
    nondecreasing for every channel; binary channels map into [-1, 1].
    """
    arr = np.asarray(t, dtype=np.float64)
    if isinstance(model, Linear):
        out = arr.copy()
    elif isinstance(model, OneBit):
        if model.sigma2 == 0.0:
            out = sign_pm1(arr)
        else:
            out = 1.0 - 2.0 * np.asarray(std_normal_cdf(-arr / math.sqrt(model.sigma2)))
    elif isinstance(model, Logistic):
        if math.isinf(model.beta):
            out = sign_pm1(arr)
        else:
            out = np.tanh(model.beta * arr / 2.0)
    else:
        raise TypeError(f"not a measurement model: {model!r}")
    if arr.ndim == 0:
        return float(out)
    return out


def link_slope(model: Model, k: int) -> float:
    """Per-sample correlation strength between the output and a support column.

    This is the quantity whose square sets the top-k decoder's sample
    cost: E[y_i A_{i,j}] for j in the support equals

    * one-bit:   sqrt(2/pi) / sqrt(k + sigma2)
    * logistic:  (1/2) * sqrt(2 / (2/beta^2 + k))   (a lower bound)
    * linear:    1 / sqrt(k + sigma2), after normalizing by the output's
      sub-Gaussian scale.
    """
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if isinstance(model, OneBit):
        return math.sqrt(2.0 / math.pi) / math.sqrt(k + model.sigma2)
    if isinstance(model, Logistic):
        # k + 2/beta^2 is k past beta = 2**27, before beta^2 overflows; inf if it underflows
        inv_beta2 = 0.0 if model.beta > 2.0**27 else 2.0 / max(model.beta ** 2, 5e-324)
        return 0.5 * math.sqrt(2.0 / (inv_beta2 + k))
    if isinstance(model, Linear):
        return 1.0 / math.sqrt(k + model.sigma2)
    raise TypeError(f"not a measurement model: {model!r}")
