import math

import numpy as np
import pytest

from genosc import (
    DomainError,
    ExhaustionError,
    OscillatorParams,
    PhasePoint,
    metric_at,
    radial_profile,
    ricci_at,
    sample_points,
    wirtinger,
)
from genosc.geometry import ANTIHOLOMORPHIC, HOLOMORPHIC

SQRT3 = math.sqrt(3.0)


class TestRadialProfile:
    def test_flat_case(self):
        prof = radial_profile(OscillatorParams(m=2, a=0.0), 3.7)
        assert prof.u_prime == pytest.approx(1.0)
        assert prof.u_double_prime == pytest.approx(0.0, abs=1e-15)

    def test_curved_values(self):
        # independently: u' = sqrt(3)/2, u'' = 1/(4 sqrt(3))
        prof = radial_profile(OscillatorParams(m=2, a=1.0), 2.0)
        assert prof.u_prime == pytest.approx(SQRT3 / 2, rel=1e-14)
        assert prof.u_double_prime == pytest.approx(1 / (4 * SQRT3), rel=1e-14)

    def test_boundary_raises(self):
        with pytest.raises(DomainError):
            radial_profile(OscillatorParams(m=2, a=1.0), 1.0)

    @pytest.mark.parametrize("m,a,r", [(2, 1.0, 2.0), (3, 0.7, 1.5), (4, 0.5, 1.1), (1, 0.2, 0.9)])
    def test_algebraic_identities(self, m, a, r):
        prof = radial_profile(OscillatorParams(m=m, a=a), r)
        assert prof.s == pytest.approx(r * prof.u_prime, rel=1e-14)
        assert prof.s_prime == pytest.approx(r ** (m - 1) * prof.s ** (1 - m), rel=1e-12)
        assert prof.u_prime > 0
        assert prof.s_prime > 0

    @pytest.mark.parametrize("m,a,r", [(2, 1.0, 2.0), (4, 0.5, 1.3), (3, 1.1, 2.4)])
    def test_u_double_prime_matches_numerical_derivative(self, m, a, r):
        params = OscillatorParams(m=m, a=a)
        h = 1e-6 * r
        fd = (radial_profile(params, r + h).u_prime - radial_profile(params, r - h).u_prime) / (
            2 * h
        )
        assert radial_profile(params, r).u_double_prime == pytest.approx(fd, rel=1e-6)


class TestMetric:
    def test_flat_metric_is_identity(self):
        md = metric_at(OscillatorParams(m=2, a=0.0), PhasePoint([1, 2 - 1j]))
        assert np.allclose(md.g, np.eye(2), atol=1e-15)
        assert md.det_g == pytest.approx(1.0)

    def test_curved_values(self):
        md = metric_at(OscillatorParams(m=2, a=1.0), PhasePoint([1, 1]))
        g11 = SQRT3 / 2 + 1 / (4 * SQRT3)
        assert md.g[0, 0] == pytest.approx(g11, rel=1e-14)
        assert md.g[0, 1] == pytest.approx(1 / (4 * SQRT3), rel=1e-14)
        assert md.det_g == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m,a", [(2, 1.0), (3, 0.5), (4, 0.5), (5, 1.5)])
    def test_metric_invariants_at_samples(self, m, a):
        params = OscillatorParams(m=m, a=a)
        for p in sample_points(params, 20, seed=11):
            md = metric_at(params, p)
            assert np.allclose(md.g, md.g.conj().T, atol=1e-13)
            assert np.min(np.linalg.eigvalsh(md.g)) > 0
            assert np.max(np.abs(md.g @ md.g_inv - np.eye(m))) < 1e-12
            assert np.max(np.abs(md.g_inv - np.linalg.inv(md.g))) < 1e-8
            assert abs(md.det_g - 1.0) < 1e-10

    def test_inadmissible_point_raises(self):
        with pytest.raises(DomainError):
            metric_at(OscillatorParams(m=2, a=1.0), PhasePoint([0.5, 0]))

    def test_wrong_dimension_raises(self):
        with pytest.raises(DomainError):
            metric_at(OscillatorParams(m=3, a=0.0), PhasePoint([1, 1]))


class TestWirtinger:
    def test_polynomial_derivative(self):
        f = lambda p: p.z[0] * p.z[0]
        d = wirtinger(f, PhasePoint([3, 0]), 0, HOLOMORPHIC)
        assert d == pytest.approx(6.0, rel=1e-9)

    def test_antiholomorphic_kills_holomorphic(self):
        f = lambda p: p.z[0]
        d = wirtinger(f, PhasePoint([1.3 + 0.4j, 2]), 0, ANTIHOLOMORPHIC)
        assert abs(d) < 1e-10

    def test_derivative_of_r(self):
        f = lambda p: p.r
        d = wirtinger(f, PhasePoint([2 + 1j, 0]), 0, HOLOMORPHIC)
        assert d == pytest.approx(2 - 1j, rel=1e-9)

    def test_stencil_domain_guard(self):
        params = OscillatorParams(m=2, a=1.0)
        near_boundary = PhasePoint([1.0000000001, 0])
        with pytest.raises(DomainError):
            wirtinger(lambda p: p.r, near_boundary, 0, HOLOMORPHIC, params=params)

    @pytest.mark.parametrize("kind", [HOLOMORPHIC, ANTIHOLOMORPHIC])
    def test_array_field_matches_componentwise(self, kind):
        comps = [lambda p: p.z[0] ** 2 * p.z[1].conjugate(), lambda p: p.r, lambda p: 3.0]
        field = lambda p: np.array([f(p) for f in comps])
        point = PhasePoint([0.7 - 0.2j, 1.3 + 0.5j])
        for index in range(2):
            got = wirtinger(field, point, index, kind)
            want = [wirtinger(f, point, index, kind) for f in comps]
            # equal up to the last bit: numpy divides by a reciprocal
            assert got.shape == (3,)
            assert np.allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("kind", [HOLOMORPHIC, ANTIHOLOMORPHIC])
    @pytest.mark.parametrize("value", [5.0, 0.1, 2.0 / 3.0 - 1.7j, -1e300 + 1e-300j])
    def test_constant_is_exactly_zero(self, kind, value):
        point = PhasePoint([1.3 + 0.4j, -2.2j])
        for index in range(2):
            assert wirtinger(lambda p: value, point, index, kind) == 0
            got = wirtinger(lambda p: np.array([value, 1.0]), point, index, kind)
            assert np.array_equal(got, [0, 0])

    def test_bad_kind_and_index(self):
        with pytest.raises(ValueError):
            wirtinger(lambda p: p.r, PhasePoint([1, 1]), 0, "mixed")
        with pytest.raises(IndexError):
            wirtinger(lambda p: p.r, PhasePoint([1, 1]), 5, HOLOMORPHIC)


class TestRicci:
    def test_flat_case_vanishes(self):
        ricci = ricci_at(OscillatorParams(m=2, a=0.0), PhasePoint([1.1, 0.3 - 2j]))
        assert np.max(np.abs(ricci)) < 1e-10

    @pytest.mark.parametrize(
        "m,a,z",
        [
            (2, 1.0, [1.2, 0.7j]),
            (4, 2.0, [1.5, 1.2j, -0.8, 0.9 + 0.4j]),
        ],
    )
    def test_curved_case_vanishes_to_noise_floor(self, m, a, z):
        ricci = ricci_at(OscillatorParams(m=m, a=a), PhasePoint(z))
        assert np.max(np.abs(ricci)) < 1e-5


class TestSampling:
    def test_empty(self):
        assert sample_points(OscillatorParams(m=2, a=0.0), 0, seed=1) == []

    def test_bitwise_determinism(self):
        params = OscillatorParams(m=2, a=0.0)
        first = sample_points(params, 5, seed=42)
        second = sample_points(params, 5, seed=42)
        assert first == second

    def test_margin_respected(self):
        params = OscillatorParams(m=2, a=1.0)
        for p in sample_points(params, 100, seed=7, margin=0.1):
            assert p.r**2 >= 1.1

    def test_exhaustion(self):
        with pytest.raises(ExhaustionError):
            sample_points(OscillatorParams(m=2, a=0.0), 1, seed=0, margin=1e12)

    def test_bad_margin(self):
        with pytest.raises(ValueError):
            sample_points(OscillatorParams(m=2, a=0.0), 1, seed=0, margin=0.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            OscillatorParams(m=0)

    def test_r_is_recomputed(self):
        p = PhasePoint([1j, 2])
        assert p.r == pytest.approx(5.0)
