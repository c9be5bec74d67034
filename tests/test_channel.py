"""Unit tests for the complex-baseband channel simulation."""

import numpy as np
import pytest

from omlcae import rng as rngmod
from omlcae.channel import (FadingProcess, NoiseModel, awgn, cmul, conj,
                            rayleigh_sample, snr_to_sigma2, to_complex)


def test_snr_to_sigma2_values():
    assert snr_to_sigma2(0.0) == 1.0
    assert np.isclose(snr_to_sigma2(10.0), 0.1)
    assert np.isclose(snr_to_sigma2(5.0), 0.31623, atol=1e-5)


def test_cmul_matches_complex_arithmetic():
    rng = rngmod.substream(0, "cmul")
    a = rng.normal(size=(5, 6))
    b = rng.normal(size=(5, 6))
    got = to_complex(cmul(a, b))
    assert np.allclose(got, to_complex(a) * to_complex(b), atol=1e-12)
    got = to_complex(cmul(conj(a), b))
    assert np.allclose(got, to_complex(a).conj() * to_complex(b), atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("a_shape, b_shape", [((4,), (50, 4)),
                                              ((5, 1, 4), (5, 80, 4)),
                                              ((2,), (7, 2))])
def test_cmul_of_conj_is_the_conjugate_product_bitwise(dtype, a_shape, b_shape):
    # re = ar*br + ai*bi, im = ar*bi - ai*br, bit for bit, signed zeros too
    rng = rngmod.substream(6, "conj", len(a_shape), len(b_shape))
    a = rng.normal(size=a_shape).astype(dtype)
    b = rng.normal(size=b_shape).astype(dtype)
    a.reshape(-1)[:2] = (0.0, -0.0)
    b.reshape(-1)[:4] = (-0.0, 0.0, -0.0, -0.0)
    ar, ai, br, bi = a[..., 0::2], a[..., 1::2], b[..., 0::2], b[..., 1::2]
    want = np.stack(np.broadcast_arrays(ar * br + ai * bi, ar * bi - ai * br),
                    axis=-1).reshape(np.broadcast_shapes(a.shape, b.shape))
    a_before = a.tobytes()
    got = cmul(conj(a), b)
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()
    assert a.tobytes() == a_before  # conj copies


def test_cmul_unit_rotations():
    one = np.array([1.0, 0.0])
    j = np.array([0.0, 1.0])
    assert np.allclose(cmul(one, j), j)
    assert np.allclose(cmul(j, one), j)
    assert np.allclose(cmul(j, j), [-1.0, 0.0])


def test_cmul_conj_is_adjoint_of_cmul():
    # <a*x, y> = <x, conj(a)*y> in the underlying real inner product
    rng = rngmod.substream(1, "adj")
    a, x, y = rng.normal(size=(3, 8))
    assert np.isclose(np.dot(cmul(a, x), y), np.dot(x, cmul(conj(a), y)),
                      atol=1e-12)


def test_rayleigh_sample_statistics():
    rng = rngmod.substream(2, "ray")
    draws = np.stack([rayleigh_sample(rng, 1) for _ in range(100000)])
    hc = to_complex(draws)[:, 0]
    assert abs(np.mean(np.abs(hc) ** 2) - 1.0) < 0.02
    # E[h] ~ 0 within 3 sigma per real component (component var 1/2)
    sigma = np.sqrt(0.5 / len(hc))
    assert abs(hc.real.mean()) < 3 * sigma and abs(hc.imag.mean()) < 3 * sigma


def test_rayleigh_sample_is_unit_variance_awgn():
    for dtype in (np.float32, np.float64):
        for n in (1, 2, 4):
            got = rayleigh_sample(rngmod.substream(7, "ray", n), n, dtype=dtype)
            want = awgn(rngmod.substream(7, "ray", n), n, 1.0, dtype=dtype)
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()


def test_rayleigh_sample_validation():
    with pytest.raises(ValueError):
        rayleigh_sample(rngmod.substream(0, "x"), 0)


def test_ar_step_rho_one_and_zero():
    proc = FadingProcess(1.0, 2, rngmod.substream(3, "ar1"))
    h1, h2 = proc.step(), proc.step()
    assert np.array_equal(h1, h2)
    proc = FadingProcess(0.0, 2, rngmod.substream(3, "ar0"))
    h1, h2 = proc.step(), proc.step()
    assert not np.array_equal(h1, h2)


def test_ar_step_stationary_variance_across_rho():
    # high correlation shrinks the effective sample count by (1-rho^2)/(1+rho^2)
    for rho, steps, tol in ((0.0, 20000, 0.03), (0.5, 20000, 0.04),
                            (0.99, 100000, 0.1)):
        proc = FadingProcess(rho, 1, rngmod.substream(4, "arv", rho))
        hs = np.stack([proc.step() for _ in range(steps)])
        power = np.mean(np.abs(to_complex(hs)) ** 2)
        assert abs(power - 1.0) < tol, (rho, power)


def test_fading_process_validation():
    with pytest.raises(ValueError):
        FadingProcess(1.5, 1, rngmod.substream(0, "x"))
    with pytest.raises(ValueError):
        NoiseModel(-0.1)


def test_awgn_shape_and_variance():
    rng = rngmod.substream(5, "awgn")
    n = awgn(rng, 2, 0.5, size=50000)
    assert n.shape == (50000, 4)
    per_use = n[:, 0] ** 2 + n[:, 1] ** 2
    assert abs(per_use.mean() - 0.5) < 0.01
    assert awgn(rng, 3, 1.0).shape == (6,)
