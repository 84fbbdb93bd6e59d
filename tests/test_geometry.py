import math

import numpy as np
import pytest

from genosc import (
    DomainError,
    OscillatorParams,
    PhasePoint,
    metric_at,
    moment_map,
    radial_profile,
    ricci_at,
    sample_points,
    wirtinger,
)
from genosc import geometry
from genosc.geometry import (
    BOUNDARY_GAP,
    CURVED_ZONE,
    _WIRTINGER_SHIFTS,
    _WIRTINGER_WEIGHTS,
    WIRTINGER_STEP,
    _log_det,
)

SQRT3 = math.sqrt(3.0)

#: The kinds of Wirtinger derivative, by their index in wirtinger's (d, dbar).
HOLOMORPHIC, ANTIHOLOMORPHIC = "holomorphic", "antiholomorphic"
KIND = {HOLOMORPHIC: 0, ANTIHOLOMORPHIC: 1}


def stencil(kind):
    """The (displacement, weight) pairs of one kind, in table order."""
    return tuple(zip(_WIRTINGER_SHIFTS, _WIRTINGER_WEIGHTS[KIND[kind]]))


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

    @pytest.mark.parametrize("a", [-1.0, 0.0, 1.0])
    def test_message_names_the_broken_bound(self, a):
        # At r <= 0 the cause is r itself, whatever r^m - a^m reads there.
        params = OscillatorParams(m=1, a=a)
        for r in (0.0, -2.0):
            with pytest.raises(DomainError, match=rf"^r = {r:g} <= 0$"):
                radial_profile(params, np.array([3.0, r]))
        if a > 0:
            with pytest.raises(DomainError, match=r"^r\^m - a\^m = -0.5 <= 0 at r = 0.5$"):
                radial_profile(params, np.array([3.0, 0.5]))

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

    @pytest.mark.parametrize("m,r", [(2, 1e200), (3, 1e120)])
    def test_overflowing_power_raises(self, m, r):
        # r^m overflows a float: the profile must not go on with inf.
        with pytest.raises(FloatingPointError):
            radial_profile(OscillatorParams(m=m), r)
        with pytest.raises(FloatingPointError):
            radial_profile(OscillatorParams(m=m, a=1.0), np.array([2.0, r]))

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_one_pow_per_profile(self, monkeypatch, m):
        # Only the m-th root goes through the C library's pow.
        calls = []
        pow_ = geometry._pow
        monkeypatch.setattr(geometry, "_pow", lambda *args: calls.append(args) or pow_(*args))
        radial_profile(OscillatorParams(m=m, a=0.9), np.linspace(1.0, 3.0, 5))
        assert len(calls) == 1 and calls[0][1] == 1.0 / m
        calls.clear()
        metric_at(OscillatorParams(m=m, a=0.9), PhasePoint([1.1] * m))
        assert len(calls) == 1


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


def radius(z):
    return np.sum(np.abs(z) ** 2, axis=-1)


def scalar_wirtinger(field, z, kind):
    """The derivatives one coordinate and one stencil shift at a time, each
    field value taken at a single point: the oracle of the stencil kernel."""
    z = np.asarray(z, dtype=complex)
    out = []
    for a in range(len(z)):
        h = WIRTINGER_STEP * max(1.0, abs(z[a]))
        total = 0j
        for shift, weight in stencil(kind):
            q = z.copy()
            q[a] += shift * h
            total = total + weight * np.asarray(field(q))
        out.append(total / (24.0 * h))
    return np.array(out)


def hand_built_ricci(params, p):
    """-d_a dbar_b log det g from one list of the 64 nested shifts per entry,
    all at the steps of p."""
    m = params.m
    z = np.asarray(p, dtype=complex)
    h = WIRTINGER_STEP * np.maximum(1.0, np.abs(z))
    nested = [
        (si, sj, wi * wj)
        for si, wi in stencil(HOLOMORPHIC)
        for sj, wj in stencil(ANTIHOLOMORPHIC)
    ]
    points = []
    for i in range(m):
        for j in range(m):
            for si, sj, _ in nested:
                q = z.copy()
                q[i] += si * h[i]
                q[j] += sj * h[j]
                points.append(q)
    logdet = _log_det(params, np.array(points)).reshape(m, m, len(nested))
    return -(logdet @ np.array([w for _, _, w in nested])) / (576.0 * np.outer(h, h))


ORACLE_FIELDS = {
    "scalar": lambda z: z[..., 0] ** 3 * np.conj(z[..., -1]) + radius(z),
    "array": lambda z: np.stack(
        [z[..., 0] ** 2 * np.conj(z[..., -1]), radius(z) ** 2, np.exp(1j * z[..., -1])], axis=-1
    ),
}


class TestWirtinger:
    def test_polynomial_derivative(self):
        d = wirtinger(lambda z: z[..., 0] * z[..., 0], PhasePoint([3, 0]))[0]
        assert d.shape == (2,)
        assert d[0] == pytest.approx(6.0, rel=1e-9)
        assert d[1] == 0

    def test_antiholomorphic_kills_holomorphic(self):
        d = wirtinger(lambda z: z[..., 0], PhasePoint([1.3 + 0.4j, 2]))[1]
        assert np.max(np.abs(d)) < 1e-10

    def test_derivative_of_r(self):
        d = wirtinger(radius, PhasePoint([2 + 1j, 0]))[0]
        assert d[0] == pytest.approx(2 - 1j, rel=1e-9)

    def test_stencil_domain_guard(self):
        # the point is admissible, but its stencil crosses r^m = a^m
        params = OscillatorParams(m=2, a=1.0)
        near_boundary = PhasePoint([1.0000000001, 0])
        assert moment_map(params, near_boundary).shape == (2, 2)
        with pytest.raises(DomainError):
            wirtinger(lambda z: moment_map(params, z), near_boundary)

    @pytest.mark.parametrize("kind", [HOLOMORPHIC, ANTIHOLOMORPHIC])
    def test_array_field_matches_componentwise(self, kind):
        comps = [
            lambda z: z[..., 0] ** 2 * np.conj(z[..., 1]),
            radius,
            lambda z: np.full(z.shape[:-1], 3.0),
        ]
        field = lambda z: np.stack([f(z) for f in comps], axis=-1)
        point = PhasePoint([0.7 - 0.2j, 1.3 + 0.5j])
        got = wirtinger(field, point)[KIND[kind]]
        want = np.stack([wirtinger(f, point)[KIND[kind]] for f in comps], axis=-1)
        assert got.shape == (2, 3)
        assert np.allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("kind", [HOLOMORPHIC, ANTIHOLOMORPHIC])
    @pytest.mark.parametrize("value", [5.0, 0.1, 2.0 / 3.0 - 1.7j, -1e300 + 1e-300j])
    def test_constant_is_exactly_zero(self, kind, value):
        points = [PhasePoint([1.3 + 0.4j, -2.2j]), np.full((2, 3, 2), 0.4 - 7j)]
        for p in points:
            batch = np.shape(p)[:-1]
            got = wirtinger(lambda z: np.full(z.shape[:-1], value), p)[KIND[kind]]
            assert np.array_equal(got, np.zeros(batch + (2,)))
            got = wirtinger(lambda z: np.full(z.shape[:-1] + (2,), [value, 1.0]), p)[KIND[kind]]
            assert np.array_equal(got, np.zeros(batch + (2, 2)))

    @pytest.mark.parametrize("field", ORACLE_FIELDS.values(), ids=ORACLE_FIELDS.keys())
    @pytest.mark.parametrize("kind", [HOLOMORPHIC, ANTIHOLOMORPHIC])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_scalar_oracle(self, m, kind, field):
        # One field call gives both kinds.
        rng = np.random.default_rng(m)
        calls = []
        counted = lambda q: calls.append(q.shape) or field(q)
        for _ in range(4):
            z = 1.5 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
            calls.clear()
            got = wirtinger(counted, z)[KIND[kind]]
            assert calls == [(m, 8, m)]
            want = scalar_wirtinger(field, z, kind)
            assert got.shape == want.shape == (m, *np.shape(field(z)))
            scale = max(1.0, float(np.max(np.abs(field(z)))))
            assert np.max(np.abs(got - want)) <= 1e-10 * scale

    @pytest.mark.parametrize("field", ORACLE_FIELDS.values(), ids=ORACLE_FIELDS.keys())
    @pytest.mark.parametrize("kind", [HOLOMORPHIC, ANTIHOLOMORPHIC])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_batch_equals_per_point(self, m, kind, field):
        rng = np.random.default_rng(10 + m)
        Z = rng.standard_normal((2, 3, m)) + 1j * rng.standard_normal((2, 3, m))
        got = wirtinger(field, Z)[KIND[kind]]
        want = [[wirtinger(field, Z[i, j])[KIND[kind]] for j in range(3)] for i in range(2)]
        assert np.array_equal(got, np.array(want))


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

    @pytest.mark.parametrize("m,a", [(1, 0.2), (2, 0.5), (3, 0.8)])
    def test_matches_hand_built_nested_stencil(self, m, a):
        # Where every |z^a| stays below 1 on the stencil, every step is
        # WIRTINGER_STEP and the nested kernel visits exactly the hand-built
        # points, so only the order of summation differs.  Elsewhere its inner
        # step is taken at the shifted point: the diagonal then samples other
        # roundoff of log det g, and both stay at the noise floor.
        params = OscillatorParams(m=m, a=a)
        rng = np.random.default_rng(m)
        for _ in range(3):
            z = rng.uniform(0.55, 0.7, m) * np.exp(2j * np.pi * rng.uniform(size=m))
            assert np.max(np.abs(ricci_at(params, z) - hand_built_ricci(params, z))) < 1e-9
        for p in sample_points(params, 3, seed=5):
            assert np.max(np.abs(ricci_at(params, p))) < 1e-7
            assert np.max(np.abs(hand_built_ricci(params, p))) < 1e-7


class TestSampling:
    def test_empty(self):
        assert sample_points(OscillatorParams(m=2, a=0.0), 0, seed=1) == []

    def test_bitwise_determinism(self):
        params = OscillatorParams(m=2, a=0.0)
        first = sample_points(params, 5, seed=42)
        second = sample_points(params, 5, seed=42)
        assert first == second

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    @pytest.mark.parametrize("a", [0.0, 0.5, -1.0, 1.0, 1e3])
    def test_draws_lie_in_the_curved_zone(self, m, a):
        # rho = (r^m - max(a^m, 0)) / c^m, c = max(1, |a|), recomputed from
        # each point's coordinates, spans the zone up to roundoff.
        params = OscillatorParams(m=m, a=a)
        points = sample_points(params, 200, seed=m)
        rho = np.array([(p.r**m - max(a**m, 0.0)) / max(1.0, abs(a)) ** m for p in points])
        lo, hi = geometry.curved_zone(m)
        assert lo == pytest.approx(max(CURVED_ZONE[0], (1 - BOUNDARY_GAP) ** -m - 1), rel=1e-14)
        assert hi == CURVED_ZONE[1]
        assert np.all(rho >= lo * (1 - 1e-12)) and np.all(rho <= hi * (1 + 1e-12))
        assert rho.min() < 2 * lo and rho.max() > hi / 2
        # log-uniform: log(rho) is uniform on [log lo, log hi].
        t = np.log(rho / lo) / np.log(hi / lo)
        assert abs(np.mean(t) - 0.5) < 0.1
        if abs(a) >= 1 and a**m > 0:
            # The boundary r = |a| lies at least BOUNDARY_GAP r below r.
            assert all(p.r - abs(a) >= (BOUNDARY_GAP - 1e-12) * p.r for p in points)
        again = sample_points(params, 200, seed=m)
        assert [p.z for p in again] == [p.z for p in points]
        assert sample_points(params, 3, seed=m) == points[:3]

    def test_overflowing_power_raises(self):
        with pytest.raises(FloatingPointError):
            sample_points(OscillatorParams(m=2, a=1e200), 1, seed=0)
        # a^m is finite, but r^m = a^m (1 + rho) is not.
        with pytest.raises(FloatingPointError):
            sample_points(OscillatorParams(m=2, a=1.3e154), 1, seed=0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            OscillatorParams(m=0)

    def test_r_is_recomputed(self):
        p = PhasePoint([1j, 2])
        assert p.r == pytest.approx(5.0)
