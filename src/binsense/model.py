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

from .numerics import (
    RngStream,
    _check_int,
    _check_real,
    _uniforms,
    sample_gaussian,
    sample_indices,
    std_normal_cdf,
)

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
    "sign_pm1",
    "random_signal",
    "gen_sensing_matrix",
    "sample_projections",
    "measure",
]


class _Channel:
    """Base of every channel: its noise knob ``noise_name`` read out, and its
    laws ``_link`` (on an array) and ``_slope`` (at a checked k) wrapped."""

    @property
    def noise(self) -> float:
        """The scalar noise knob: sigma2 for linear/one-bit, beta for logistic."""
        return getattr(self, self.noise_name)

    def noise_fields(self) -> dict:
        """The noise echo of every report, ``{"sigma2": ..., "beta": ...}``,
        with None for the field that does not apply.  An infinite beta is
        the string "inf", as on the command line and in the CSV: JSON has
        no infinity."""
        noise = self.noise if math.isfinite(self.noise) else "inf"
        return {"sigma2": None, "beta": None, self.noise_name: noise}

    def inverse_link(self, t):
        """Conditional mean of the output given the clean projection t = <a, x>.

        linear: t itself; one-bit: 1 - 2*Phi(-t/sigma) (sign(t) when sigma2=0);
        logistic: tanh(beta*t/2) (sign(t) when beta=inf).  Odd and monotone
        nondecreasing for every channel; binary channels map into [-1, 1].
        A scalar t gives a float, an array an array.
        """
        arr = np.asarray(t, dtype=np.float64)
        out = self._link(arr)
        return float(out) if arr.ndim == 0 else out

    def link_slope(self, k: int) -> float:
        """Per-sample correlation strength between the output and a support column.

        This is the quantity whose square sets the top-k decoder's sample
        cost: E[y_i A_{i,j}] for j in the support equals

        * one-bit:   sqrt(2/pi) / sqrt(k + sigma2)
        * logistic:  (1/2) * sqrt(2 / (2/beta^2 + k))   (a lower bound)
        * linear:    1 / sqrt(k + sigma2), after normalizing by the output's
          sub-Gaussian scale.
        """
        return self._slope(_check_int("k", k, 1))


@dataclass(frozen=True)
class _GaussianNoise(_Channel):
    """Shared base of the two channels driven by additive N(0, sigma2) noise."""

    noise_name = "sigma2"

    sigma2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma2", _check_real("sigma2", self.sigma2, 0, math.inf, "[)"))

    def output_scale(self, k: int) -> float:
        """The variance scale k + sigma2 of the top-k closed form."""
        return k + self.sigma2

    def observe(self, t: np.ndarray, stream: RngStream) -> MeasurementVector:
        """The channel's outputs for the clean projections t.

        The stream feeds only the Gaussian noise z, so linear and one-bit
        outputs taken with the same stream share z exactly.  Output i
        depends on t_i and the stream's i-th draw alone.
        """
        if self.sigma2 > 0.0:
            t = t + math.sqrt(self.sigma2) * sample_gaussian(stream, t.shape[0])
        return MeasurementVector(self, sign_pm1(t) if self.binary else t)


@dataclass(frozen=True)
class Linear(_GaussianNoise):
    """Additive Gaussian channel with noise variance sigma2 >= 0."""

    tag = "linear"
    binary = False

    def _link(self, t: np.ndarray) -> np.ndarray:
        return t.copy()

    def _slope(self, k: int) -> float:
        return 1.0 / math.sqrt(k + self.sigma2)


@dataclass(frozen=True)
class OneBit(_GaussianNoise):
    """Sign of the noisy linear measurement; sigma2 = 0 is the clean sign channel."""

    tag = "onebit"
    binary = True

    def _link(self, t: np.ndarray) -> np.ndarray:
        if self.sigma2 == 0.0:
            return sign_pm1(t)
        return 1.0 - 2.0 * np.asarray(std_normal_cdf(-t / math.sqrt(self.sigma2)))

    def _slope(self, k: int) -> float:
        return math.sqrt(2.0 / math.pi) / math.sqrt(k + self.sigma2)


@dataclass(frozen=True)
class Logistic(_Channel):
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
        object.__setattr__(self, "beta", _check_real("beta", self.beta, 0, math.inf, "(]"))

    def _inverse_beta2(self) -> float:
        # 0 past beta = 2**27, where k + 2/beta^2 already rounds to k and
        # before beta^2 overflows; inf once beta^2 underflows
        return 0.0 if self.beta > 2.0**27 else 1.0 / max(self.beta ** 2, 5e-324)

    def output_scale(self, k: int) -> float:
        """The variance scale k + 1/beta^2 of the top-k closed form (k alone at beta = inf)."""
        return k + self._inverse_beta2()

    def observe(self, t: np.ndarray, stream: RngStream) -> MeasurementVector:
        """The channel's outputs for the clean projections t, from the
        stream's Bernoulli draws; output i depends on t_i and draw i alone."""
        if math.isinf(self.beta):
            return MeasurementVector(self, sign_pm1(t))
        p = expit(self.beta * t)
        u = _uniforms(stream, t.shape[0])
        return MeasurementVector(self, np.where(u < p, 1.0, -1.0))

    def _link(self, t: np.ndarray) -> np.ndarray:
        if math.isinf(self.beta):
            return sign_pm1(t)
        return np.tanh(self.beta * t / 2.0)

    def _slope(self, k: int) -> float:
        return 0.5 * math.sqrt(2.0 / (2.0 * self._inverse_beta2() + k))


Model = Union[Linear, OneBit, Logistic]

# The registry of channels, in the order the CLI lists them.
CHANNELS = (Linear, OneBit, Logistic)


def model_tag(model: Model) -> str:
    return model.tag


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
        object.__setattr__(self, "n", _check_int("n", self.n, 1))
        sup = tuple(_check_int("support index", i, 0, self.n - 1) for i in self.support)
        object.__setattr__(self, "support", sup)
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
    return SparseSignal(n, tuple(sample_indices(stream, n, k).tolist()))


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
    m, n = _check_int("m", m, 1), _check_int("n", n, 1)
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
    """Observe x through A under the given channel: its :meth:`observe` of t = A x.

    Row i depends on row i of A alone: t_i adds the support columns one
    at a time in index order, whatever the number of rows.
    """
    if A.n != x.n:
        raise ValueError(f"dimension mismatch: matrix has n={A.n}, signal has n={x.n}")
    if x.k > 0:
        t = np.add.accumulate(A.entries[:, x.support_array], axis=1)[:, -1]
    else:
        t = np.zeros(A.m, dtype=np.float64)
    return model.observe(t, stream)
