"""Fourier-domain kernel L2 tests: constants, transforms, Poisson identities."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import kernel_transform_quadrature, space_domain_energy
import seqtest
from seqtest.errors import ConfigError
from seqtest.kernels import (
    Kernel,
    bias_functional,
    box_kernel,
    epanechnikov_kernel,
    kernel_constants,
    kernel_statistic,
    kernel_test,
    predicted_type2_kernel,
    transform_values,
    triangle_kernel,
)
from seqtest.report import upper_quantile
from seqtest.sampling import SequenceObservation
from seqtest.spectra import Spectrum

# int K^2 and 2 int (K*K)^2, closed forms for the three stock kernels
CONSTANTS_REF = {
    "box": (1.0 / 2.0, 2.0 / 3.0),
    "triangle": (2.0 / 3.0, 302.0 / 315.0),
    "epanechnikov": (3.0 / 5.0, 334.0 / 385.0),
}

TRANSFORM_AGREEMENT_ATOL = 1e-8  # closed form vs oscillatory quadrature
POISSON_RTOL_SMOOTH = 1e-8
POISSON_RTOL_BOX = 1e-5  # sinc^2 tail decays like 1/J
SPACE_DOMAIN_RTOL = 5e-5  # rectangle-rule convolution at grid=4096 lands at 8.7e-6


def _stock():
    return [box_kernel(), triangle_kernel(), epanechnikov_kernel()]


class TestConstants:
    @pytest.mark.parametrize("kern", _stock(), ids=lambda k: k.name)
    def test_closed_forms(self, kern):
        consts = kernel_constants(kern)
        assert (consts.l2_norm_sq, consts.kappa_sq) == CONSTANTS_REF[kern.name]

    def test_mass_validation(self):
        # the mass Khat(0) = 2 is refused, whatever constants the kernel carries
        lopsided = Kernel(
            "double-box",
            lambda t: np.where(np.abs(t) <= 1.0, 1.0, 0.0),
            lambda w: 2.0 * box_kernel().transform(w),
            2.0,
            32.0 / 3.0,
        )
        with pytest.raises(ConfigError):
            kernel_constants(lopsided)


class TestTransforms:
    @pytest.mark.parametrize("kern", _stock(), ids=lambda k: k.name)
    def test_closed_form_matches_quadrature(self, kern):
        omega = np.array([0.0, 0.07, 0.31, 0.5, 1.0, 2.25, 7.5])
        np.testing.assert_allclose(
            kern.transform(omega),
            kernel_transform_quadrature(kern, omega),
            atol=TRANSFORM_AGREEMENT_ATOL,
        )

    @pytest.mark.parametrize("kern", _stock(), ids=lambda k: k.name)
    def test_unit_mass_at_zero(self, kern):
        assert kern.transform(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kern", _stock(), ids=lambda k: k.name)
    def test_small_angle_branch_is_continuous(self, kern):
        # values just inside and outside the series cutoff must agree
        omega = np.array([1e-9, 2e-8, 1e-5, 2e-4])
        np.testing.assert_allclose(
            kern.transform(omega), kernel_transform_quadrature(kern, omega), atol=1e-10
        )

    @pytest.mark.parametrize(
        "kern,rtol,j_sum",
        [
            (box_kernel(), POISSON_RTOL_BOX, 200_000),
            (triangle_kernel(), POISSON_RTOL_SMOOTH, 20_000),
            (epanechnikov_kernel(), POISSON_RTOL_SMOOTH, 20_000),
        ],
        ids=["box", "triangle", "epanechnikov"],
    )
    def test_poisson_summation_identities(self, kern, rtol, j_sum):
        """sum_j Khat(jh)^2 = ||K||^2 / h and sum_j Khat(jh)^4 = kappa^2 / (2h)."""
        # quartic sums fold K*K*K*K at +-1/h (support 4*halfwidth), so the
        # identities need h < 1/4, not just the h < 1/2 the squared sum needs
        h = 0.2
        consts = kernel_constants(kern)
        kh = transform_values(kern, h, j_sum)
        sum_sq = kh[0] ** 2 + 2.0 * np.sum(kh[1:] ** 2)
        sum_quad = kh[0] ** 4 + 2.0 * np.sum(kh[1:] ** 4)
        assert sum_sq == pytest.approx(consts.l2_norm_sq / h, rel=rtol)
        assert sum_quad == pytest.approx(consts.kappa_sq / (2.0 * h), rel=1e-8)


class TestStatistic:
    def test_handcrafted_box_value(self):
        # single frequency j = 1 at h = 1/4: Khat(1/4) = sin(pi/2) / (pi/2)
        y = Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 1.0 + 0.0j]))
        obs = SequenceObservation(y=y, n=100, sigma=1.0)
        energy = 2.0 * (2.0 / math.pi) ** 2
        want = 100.0 * 0.5 / math.sqrt(2.0 / 3.0) * (energy - 0.5 / (100.0 * 0.25))
        assert kernel_statistic(obs, box_kernel(), 0.25) == pytest.approx(want, rel=1e-12)

    def test_bandwidth_bounds(self):
        y = Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.1 + 0j]))
        obs = SequenceObservation(y=y, n=10, sigma=1.0)
        for h in (0.0, 1.0, -0.2, 0.3):  # the box kernel's bound is 1/4
            with pytest.raises(ConfigError):
                kernel_statistic(obs, box_kernel(), h)
            with pytest.raises(ConfigError):
                predicted_type2_kernel(y, box_kernel(), h, 10, 1.0, 0.05)

    def test_cosine_basis_rejected(self):
        obs = SequenceObservation(y=Spectrum(basis="cosine", coeffs=np.ones(4)), n=10, sigma=1.0)
        with pytest.raises(ConfigError):
            kernel_statistic(obs, box_kernel(), 0.25)

    def test_spectral_energy_matches_space_domain(self):
        rng = np.random.default_rng(12)
        coeffs = np.zeros(6, dtype=complex)
        coeffs[1:] = rng.normal(size=5) * 0.2 + 1j * rng.normal(size=5) * 0.2
        y = Spectrum(basis="complex-exponential", coeffs=coeffs)
        h = 0.05
        spectral = bias_functional(y, triangle_kernel(), h)
        direct = space_domain_energy(y, triangle_kernel(), h, grid=4096)
        assert direct == pytest.approx(spectral, rel=SPACE_DOMAIN_RTOL)


class TestPrediction:
    def test_null_prediction_is_one_minus_alpha(self):
        theta = Spectrum(basis="complex-exponential", coeffs=np.zeros(4, dtype=complex))
        beta = predicted_type2_kernel(theta, box_kernel(), 0.1, 500, 1.0, 0.05)
        assert beta == pytest.approx(0.95, rel=1e-12)

    def test_report_threshold_and_reject(self):
        y = Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 2.0 + 0j]))
        obs = SequenceObservation(y=y, n=400, sigma=1.0)
        rep = kernel_test(obs, box_kernel(), 0.2, 0.05)
        assert rep.family == "kernel"
        assert rep.threshold == pytest.approx(upper_quantile(0.05))
        assert rep.standardized == rep.statistic  # already studentized
        assert rep.reject  # strong deterministic signal, no noise here


def test_import_leaves_scipy_integrate_out():
    """The library evaluates every kernel transform and constant in closed
    form, so importing it loads neither scipy's quadrature package nor
    numpy's polynomial (Gauss-Legendre) one."""
    src = str(Path(seqtest.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, seqtest; "
        "print('scipy.integrate' in sys.modules, any(m.startswith('numpy.polynomial') for m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"
