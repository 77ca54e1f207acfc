"""Signal model: cisoid in circular complex Gaussian noise, per range bin.

Each range bin t carries a short complex record

    y_t = a_t * z(nu_t) + b_t,    z(nu) = [1, e^{2j*pi*nu}, ..., e^{2j*pi*nu*(N-1)}]

with white circular complex Gaussian amplitude a_t (variance r_a) and
noise b_t (variance r_b per sample).  Variance r means Re and Im are each
Gaussian with variance r/2, so E|b|^2 = r_b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Largest record energy sum_n |y(n)|^2 accepted.  alpha's denominator
# r_b (N r_a + r_b) multiplies two variances of the order of the record
# energy, so it overflows for energies near the square root of the float
# maximum; the fourth root keeps a wide margin below that.
MAX_RECORD_ENERGY = float(np.finfo(float).max) ** 0.25
# Fewest samples per record: the periodogram of one sample is flat in nu.
MIN_SAMPLES = 2


class HyperparameterError(ValueError):
    """Hyperparameters for which the model's likelihood is not defined in
    floating point: not positive and finite, or making one of its
    coefficients so."""


def check_variance(name: str, value: float) -> float:
    """value, if it is strictly positive and finite; else HyperparameterError."""
    if not np.isfinite(value) or value <= 0:
        raise HyperparameterError(f"{name} must be strictly positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Hyperparameters:
    """The three model variances: amplitude, noise, frequency increment."""

    r_a: float
    r_b: float
    r_nu: float

    def __post_init__(self):
        for name in ("r_a", "r_b", "r_nu"):
            check_variance(name, getattr(self, name))

    def as_array(self) -> np.ndarray:
        return np.array([self.r_a, self.r_b, self.r_nu], dtype=float)

    @classmethod
    def from_array(cls, values) -> "Hyperparameters":
        r_a, r_b, r_nu = np.asarray(values, dtype=float)
        return cls(float(r_a), float(r_b), float(r_nu))


@dataclass
class DataSet:
    """T range bins of N complex samples each.

    Raises ValueError when a record's energy exceeds MAX_RECORD_ENERGY.
    """

    samples: np.ndarray
    energy: np.ndarray = field(init=False, repr=False)  # (T,): sum_n |y_t(n)|^2

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 2:
            raise ValueError("samples must be a (T, N) array")
        if samples.shape[0] < 1 or samples.shape[1] < MIN_SAMPLES:
            raise ValueError(f"need T >= 1 bins of N >= {MIN_SAMPLES} samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        with np.errstate(over="ignore"):
            energy = np.sum(np.abs(samples) ** 2, axis=1)
        too_large = ~(energy <= MAX_RECORD_ENERGY)
        if too_large.any():
            t = int(np.argmax(too_large))
            raise ValueError(f"bin {t} has record energy {energy[t]:.3g}, above "
                             f"{MAX_RECORD_ENERGY:.3g}: the product of two variances in "
                             "the likelihood coefficient alpha would overflow")
        self.samples = samples
        self.energy = energy

    @property
    def n_bins(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


def steering_vector(nu, n_samples: int) -> np.ndarray:
    """Unit-modulus cisoid template, 1-periodic in nu; an array nu gives
    one template per entry, along a new last axis."""
    return np.exp(2j * np.pi * np.multiply.outer(nu, np.arange(n_samples)))


TRACK_PROFILES = ("linear_ramp", "sine", "piecewise")


def make_test_track(profile: str, n_bins: int, span: tuple[float, float]) -> np.ndarray:
    """Build a smooth length-T frequency sequence spanning [lo, hi].

    linear_ramp is affine from lo to hi; sine is a full period centered
    on the midpoint; piecewise holds lo, ramps up, then holds hi.
    """
    lo, hi = float(span[0]), float(span[1])
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if lo > hi:
        raise ValueError(f"invalid span: lo={lo} > hi={hi}")
    if n_bins == 1:
        return np.array([(lo + hi) / 2.0])
    t = np.arange(n_bins, dtype=float)
    if profile == "linear_ramp":
        return np.linspace(lo, hi, n_bins)
    if profile == "sine":
        mid = (lo + hi) / 2.0
        amp = (hi - lo) / 2.0
        return mid + amp * np.sin(2 * np.pi * t / n_bins)
    if profile == "piecewise":
        third = n_bins // 3
        track = np.empty(n_bins)
        track[:third] = lo
        track[n_bins - third:] = hi
        ramp_len = n_bins - 2 * third
        track[third:n_bins - third] = np.linspace(lo, hi, ramp_len)
        return track
    raise ValueError(f"unknown profile {profile!r}; expected one of {TRACK_PROFILES}")


def _circular_gaussian(rng: np.random.Generator, variance: float, shape) -> np.ndarray:
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def synthesize_dataset(track, hyper: Hyperparameters, n_samples: int, seed: int) -> DataSet:
    """Simulate the per-bin cisoid-plus-noise records, deterministically."""
    track = np.asarray(track, dtype=float)
    if track.ndim != 1 or track.size < 1:
        raise ValueError("track must be a nonempty 1-D sequence")
    rng = np.random.default_rng(seed)
    n_bins = track.size
    amps = _circular_gaussian(rng, hyper.r_a, n_bins)
    noise = _circular_gaussian(rng, hyper.r_b, (n_bins, n_samples))
    samples = amps[:, None] * steering_vector(track, n_samples) + noise
    return DataSet(samples=samples)
