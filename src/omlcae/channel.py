"""Complex-baseband channel simulation.

Complex vectors are stored interleaved as flat real arrays of length 2n:
(re0, im0, re1, im1, ...).  cmul is the one complex product: the channel
adjoint and the matched filter are cmul(conj(a), b).  A fading realization
h holds one independent complex coefficient per channel use and stays
constant for an entire sequence (block fading); successive sequences are
correlated through an AR(1) process h_i = rho*h_{i-1} + sqrt(1-rho^2)*h'.

SNR convention: Es/N0 per complex channel use against unit average transmit
power.  sigma2 = 10^(-snr_db/10) is the total complex noise variance per
use; each real component is drawn with variance sigma2/2.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class NoiseModel:
    sigma2: float

    def __post_init__(self):
        if not 0 <= self.sigma2 < np.inf:  # NaN fails too
            raise ValueError(f"sigma2 must be finite and >= 0: {self.sigma2}")


def snr_to_sigma2(snr_db: float) -> float:
    return float(10.0 ** (-snr_db / 10.0))


def cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise complex product of interleaved (..., 2n) arrays."""
    ar, ai = a[..., 0::2], a[..., 1::2]
    br, bi = b[..., 0::2], b[..., 1::2]
    re = ar * br - ai * bi
    out = np.empty(re.shape[:-1] + (2 * re.shape[-1],), dtype=re.dtype)
    out[..., 0::2] = re
    out[..., 1::2] = ar * bi + ai * br
    return out


def conj(a: np.ndarray) -> np.ndarray:
    """Complex conjugate of an interleaved (..., 2n) array (copy)."""
    out = a.copy()
    out[..., 1::2] *= -1
    return out


def to_complex(block: np.ndarray) -> np.ndarray:
    """Interleaved (..., 2n) reals -> (..., n) complex view (copy)."""
    return block[..., 0::2] + 1j * block[..., 1::2]


def rayleigh_sample(rng: np.random.Generator, n: int, dtype=np.float64) -> np.ndarray:
    """n i.i.d. CN(0, 1) coefficients: each real component ~ N(0, 1/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return awgn(rng, n, 1.0, dtype=dtype)


def awgn(rng: np.random.Generator, n: int, sigma2: float, size=None,
         dtype=np.float64) -> np.ndarray:
    """Complex AWGN draws of shape (*size, 2n) with total variance sigma2 per use."""
    shape = (2 * n,) if size is None else tuple(np.atleast_1d(size)) + (2 * n,)
    return rng.normal(0.0, np.sqrt(sigma2 / 2.0), size=shape).astype(dtype, copy=False)


class FadingProcess:
    """AR(1) Rayleigh block-fading process; one coefficient per channel use.

    The first step() draws a fresh Rayleigh realization; subsequent steps
    apply h <- rho*h + sqrt(1-rho^2)*h' with a fresh Rayleigh innovation h'.
    Single-owner mutable state: one process per experiment replica.
    """

    def __init__(self, rho: float, n: int, rng: np.random.Generator,
                 dtype=np.float64):
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        self.rho = float(rho)
        self.n = int(n)
        self.rng = rng
        self.dtype = dtype
        self.current_h = None

    def step(self) -> np.ndarray:
        innovation = rayleigh_sample(self.rng, self.n, dtype=self.dtype)
        if self.current_h is None:
            self.current_h = innovation
        else:
            self.current_h = (self.rho * self.current_h
                              + np.sqrt(1.0 - self.rho ** 2) * innovation)
        return self.current_h.copy()
