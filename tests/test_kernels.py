"""Fourier-domain kernel L2 tests: constants, transforms, Poisson identities."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import kernel_transform_quadrature, space_domain_energy
import seqtest
from seqtest import kernels
from seqtest.errors import ConfigError
from seqtest.kernels import (
    MAX_NULL_SHIFT,
    Kernel,
    box_kernel,
    energy_form,
    epanechnikov_kernel,
    kernel_statistic,
    kernel_test,
    least_j_max,
    null_shifts,
    predicted_type2_kernel,
    triangle_kernel,
    truncated_form,
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
        assert (kern.l2_norm_sq, kern.kappa_sq) == CONSTANTS_REF[kern.name]

    def test_mass_validation(self):
        # the mass Khat(0) = 2 is refused, whatever constants the kernel carries
        with pytest.raises(ConfigError, match="does not integrate to 1"):
            Kernel(
                "double-box",
                lambda w: 2.0 * box_kernel().transform(w),
                2.0,
                32.0 / 3.0,
            )


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

    def test_epanechnikov_transform_within_5e_16_of_its_taylor_sum(self):
        """3 (sin a - a cos a) / a^3 against its Taylor sum in exact rational
        arithmetic, on a log grid of a = 2 pi w over (0, 3]: the series below
        |a| = 1 and the closed form above it are within 5e-16 relative, where
        the closed form alone cancels to 4e-8 near a = 1e-4."""
        w = np.geomspace(1e-7, 3.0, 400) / (2.0 * math.pi)
        got = epanechnikov_kernel().transform(w)
        for wi, value in zip(w, got):
            x = Fraction(2.0 * math.pi * float(wi)) ** 2  # the a the transform forms, squared exactly
            term = want = Fraction(1)
            for k in range(2, 31):  # term k is (-1)^(k+1) 6k / (2k+1)! a^(2k-2)
                term *= -x * k / ((k - 1) * 2 * k * (2 * k + 1))
                want += term
            assert abs(Fraction(float(value)) - want) <= 5e-16 * want

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
        kh = kern.transform(np.arange(j_sum + 1, dtype=float) * h)
        sum_sq = kh[0] ** 2 + 2.0 * np.sum(kh[1:] ** 2)
        sum_quad = kh[0] ** 4 + 2.0 * np.sum(kh[1:] ** 4)
        assert sum_sq == pytest.approx(kern.l2_norm_sq / h, rel=rtol)
        assert sum_quad == pytest.approx(kern.kappa_sq / (2.0 * h), rel=1e-8)


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
        # T1n(y) = sum over j in Z of |Khat(j h) y_j|^2, the form's energy of y
        spectral = energy_form(triangle_kernel(), h, y.max_frequency, 1000, 1.0).energy(y.coeffs)
        direct = space_domain_energy(y, triangle_kernel(), h, grid=4096)
        assert direct == pytest.approx(spectral, rel=SPACE_DOMAIN_RTOL)


class TestTruncation:
    @pytest.mark.parametrize("n,s,shift,want", [(10**4, 0.5, -0.309, 3118), (10**6, 1.0, -0.122, 1217)])
    def test_least_j_max_at_a_tuned_bandwidth(self, n, s, shift, want):
        """h = n^(-2 / (1 + 4 s)) shifts the null mean past MAX_NULL_SHIFT at
        j_max = 1024; ``least_j_max`` returns the first truncation inside it."""
        h = float(n ** (-2.0 / (1.0 + 4.0 * s)))
        shifts = null_shifts(box_kernel(), h, want)
        assert shifts[1024] == pytest.approx(shift, abs=5e-4)
        assert np.all(np.diff(shifts) >= 0) and shifts[-1] < 0
        assert least_j_max(box_kernel(), h, 1024) == want
        assert abs(shifts[want]) <= MAX_NULL_SHIFT < abs(shifts[want - 1])
        assert least_j_max(box_kernel(), h, want + 5) == want + 5

    def test_shift_does_not_depend_on_n_or_sigma(self):
        h, j_max = 0.01, 300
        form = energy_form(box_kernel(), h, j_max, 700, 1.7)
        direct = (1.7**2 / 700 * form.weights[0::2].sum() - form.offset) / form.sd
        assert null_shifts(box_kernel(), h, j_max)[-1] == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("kern,h", [(box_kernel(), 0.01), (triangle_kernel(), 0.003), (epanechnikov_kernel(), 0.002)],
                             ids=lambda v: getattr(v, "name", str(v)))
    def test_plan_and_least_j_max_agree_bit_for_bit(self, kern, h, monkeypatch):
        """``truncated_form`` accepts a j_max exactly when ``null_shifts``'
        last entry lies within the bound, at any (n, sigma): at the least j_max
        it accepts and one below it refuses, and with the bound moved onto the
        shift's own bits, or one ulp inside it, the plan flips there too."""
        floor = 8
        want = least_j_max(kern, h, floor)
        assert want > floor
        for n, sigma in [(1, 1.0), (700, 1.7), (10**6, 0.05)]:
            assert truncated_form(kern, h, want, n, sigma).weights.size == 2 * (want + 1)
            with pytest.raises(ConfigError, match=f"j_max={want - 1} shifts"):
                truncated_form(kern, h, want - 1, n, sigma)
        shift = abs(null_shifts(kern, h, want)[-1])
        monkeypatch.setattr(kernels, "MAX_NULL_SHIFT", shift)
        truncated_form(kern, h, want, 700, 1.7)
        monkeypatch.setattr(kernels, "MAX_NULL_SHIFT", np.nextafter(shift, 0.0))
        with pytest.raises(ConfigError, match=f"j_max={want} shifts"):
            truncated_form(kern, h, want, 700, 1.7)

    def test_a_bandwidth_past_the_search_is_refused(self):
        with pytest.raises(ConfigError, match=r"h=1e-06 the box kernel needs j_max > 1048576"):
            least_j_max(box_kernel(), 1e-6, 1024)


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
    numpy's polynomial (Gauss-Legendre) one.  Nor does it load numpy.random,
    which ``sampling._seed_state_type`` defers to first use, or
    concurrent.futures, which only a group on the thread pool imports: each
    costs milliseconds that every run's start-up would pay."""
    src = str(Path(seqtest.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, seqtest; "
        "print('scipy.integrate' in sys.modules, any(m.startswith('numpy.polynomial') for m in sys.modules), "
        "any(m.startswith('numpy.random') for m in sys.modules), 'concurrent.futures' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False False False"
