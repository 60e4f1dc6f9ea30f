import numpy as np
import pytest

from twoport_cmt import Background, ModelParams

HEADLINE = ModelParams(omega0=124.5, gamma_r=3.0, gamma_nr=0.0,
                       gamma_m=5.0, omega_rabi=8.0)


@pytest.fixture
def headline_params() -> ModelParams:
    return HEADLINE


@pytest.fixture
def default_bg() -> Background:
    return Background()


def random_passive_params(rng: np.random.Generator, *, rate_lo=0.0,
                          rate_hi=10.0) -> ModelParams:
    return ModelParams(
        omega0=float(rng.uniform(50.0, 150.0)),
        gamma_r=float(rng.uniform(rate_lo, rate_hi)),
        gamma_nr=float(rng.uniform(rate_lo, rate_hi)),
        gamma_m=float(rng.uniform(rate_lo, rate_hi)),
        omega_rabi=float(rng.uniform(0.0, rate_hi)),
    )


def random_reciprocal_smatrix(rng: np.random.Generator, *, passive=True,
                              mag_lo=0.05):
    """Random reciprocal 2x2 matrix, rescaled below unit largest singular
    value when passive=True."""
    from twoport_cmt import SMatrix2

    def c():
        mag = rng.uniform(mag_lo, 1.0)
        ph = rng.uniform(-np.pi, np.pi)
        return mag * np.exp(1j * ph)

    s11, s12, s22 = c(), c(), c()
    m = np.array([[s11, s12], [s12, s22]])
    if passive:
        smax = np.linalg.svd(m, compute_uv=False)[0]
        m = m * (rng.uniform(0.3, 0.999) / smax)
    return SMatrix2(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
