import math

import numpy as np
import pytest

from genosc import (
    AlgebraElement,
    OscillatorParams,
    PhasePoint,
    TangentVector,
    closed_form_field,
    evaluate,
    hamiltonian_field,
    metric_at,
    moment_map,
    poisson_bracket,
    ricci_at,
    sample_points,
    wirtinger,
)

P2_FLAT = OscillatorParams(m=2, a=0.0)
P2_CURVED = OscillatorParams(m=2, a=1.0)
POINT = PhasePoint([1, 1])


def as_field(e, params):
    """The element e as a scalar field of points."""
    return lambda q: evaluate(e, moment_map(params, q))


def n_field(params, a, b):
    return as_field(AlgebraElement.basis(params.m, a, b), params)


def omega(params, p, X, Y):
    """Fundamental 2-form Omega(X, Y) = i g_{ab'} (X^a Ybar^b - Y^a Xbar^b)."""
    g = metric_at(params, p).g
    return 1j * (X.holo @ g @ Y.anti - Y.holo @ g @ X.anti)


class TestOmega:
    @pytest.mark.parametrize("params", [P2_FLAT, P2_CURVED])
    def test_contraction_convention(self, params):
        # i_{X_f} Omega = -df for f in {N^{ab'}, z^1, r}
        fields = [n_field(params, a, b) for a in range(2) for b in range(2)]
        fields += [lambda z: z[..., 0], lambda z: np.sum(np.abs(z) ** 2, axis=-1)]
        rng = np.random.default_rng(3)
        for p in sample_points(params, 5, seed=8):
            for f in fields:
                X = hamiltonian_field(f, params, p)
                Y = TangentVector(rng.standard_normal(2) + 1j * rng.standard_normal(2),
                                  rng.standard_normal(2) + 1j * rng.standard_normal(2))
                d, dbar = wirtinger(f, p)
                df = Y.holo @ d + Y.anti @ dbar
                assert abs(omega(params, p, X, Y) + df) < 1e-7


class TestHamiltonianField:
    def test_basis_observable_closed_form(self):
        X = hamiltonian_field(n_field(P2_CURVED, 0, 0), P2_CURVED, POINT)
        assert np.allclose(X.holo, [1j, 0], atol=1e-9)
        assert np.allclose(X.anti, [-1j, 0], atol=1e-9)

    def test_constant_gives_zero(self):
        X = hamiltonian_field(lambda z: np.full(z.shape[:-1], 5.0), P2_CURVED, POINT)
        assert np.allclose(X.holo, 0, atol=1e-12)
        assert np.allclose(X.anti, 0, atol=1e-12)

    def test_holomorphic_coordinate_flat(self):
        X = hamiltonian_field(lambda z: z[..., 0], P2_FLAT, PhasePoint([0.7, -1.1j]))
        assert np.allclose(X.holo, 0, atol=1e-10)
        assert np.allclose(X.anti, [-1j, 0], atol=1e-10)

    @pytest.mark.parametrize("params", [P2_FLAT, P2_CURVED, OscillatorParams(m=3, a=0.8)])
    def test_closed_form_identity_all_basis(self, params):
        m = params.m
        for p in sample_points(params, 10, seed=2):
            ref = closed_form_field(p)
            for a in range(m):
                for b in range(m):
                    num = hamiltonian_field(n_field(params, a, b), params, p)
                    assert np.max(np.abs(num.holo - ref.holo[:, a, b])) < 1e-7
                    assert np.max(np.abs(num.anti - ref.anti[:, a, b])) < 1e-7

    def test_reality_of_real_function_fields(self):
        # H and N^{00'} are real; their fields must satisfy anti = conj(holo)
        H = as_field(AlgebraElement.hamiltonian(2), P2_CURVED)
        for f in [H, n_field(P2_CURVED, 0, 0)]:
            X = hamiltonian_field(f, P2_CURVED, POINT)
            assert np.allclose(X.anti, np.conj(X.holo), atol=1e-9)


class TestPoissonBracket:
    def test_vanishes_on_equal(self):
        f = n_field(P2_CURVED, 0, 1)
        assert abs(poisson_bracket(f, f, P2_CURVED, POINT)) < 1e-10

    def test_flat_structure_value(self):
        got = poisson_bracket(n_field(P2_FLAT, 0, 0), n_field(P2_FLAT, 0, 1), P2_FLAT, POINT)
        assert got == pytest.approx(1j, rel=1e-9)

    def test_curved_structure_value(self):
        got = poisson_bracket(
            n_field(P2_CURVED, 0, 0), n_field(P2_CURVED, 0, 1), P2_CURVED, POINT
        )
        assert got == pytest.approx(1j * math.sqrt(3) / 2, rel=1e-9)

    def test_equals_field_application(self):
        f = n_field(P2_CURVED, 0, 1)
        g = n_field(P2_CURVED, 1, 1)
        for p in sample_points(P2_CURVED, 5, seed=9):
            X = hamiltonian_field(f, P2_CURVED, p)
            d, dbar = wirtinger(g, p)
            Xg = X.holo @ d + X.anti @ dbar
            assert poisson_bracket(f, g, P2_CURVED, p) == pytest.approx(Xg, abs=1e-7)

    def test_jacobi_identity_spot_check(self):
        rng = np.random.default_rng(17)
        for p in sample_points(P2_CURVED, 3, seed=23):
            idx = rng.integers(0, 2, size=6)
            f = n_field(P2_CURVED, idx[0], idx[1])
            g = n_field(P2_CURVED, idx[2], idx[3])
            h = n_field(P2_CURVED, idx[4], idx[5])
            total = (
                poisson_bracket(lambda q: poisson_bracket(f, g, P2_CURVED, q), h, P2_CURVED, p)
                + poisson_bracket(lambda q: poisson_bracket(g, h, P2_CURVED, q), f, P2_CURVED, p)
                + poisson_bracket(lambda q: poisson_bracket(h, f, P2_CURVED, q), g, P2_CURVED, p)
            )
            assert abs(total) < 1e-5

    def test_array_valued_g_matches_componentwise(self):
        f = n_field(P2_CURVED, 0, 1)
        comps = [n_field(P2_CURVED, 1, 0), lambda z: z[..., 0] * np.conj(z[..., 1])]
        stacked = lambda z: np.stack([g(z) for g in comps], axis=-1)
        for p in sample_points(P2_CURVED, 3, seed=41):
            got = poisson_bracket(f, stacked, P2_CURVED, p)
            want = [poisson_bracket(f, g, P2_CURVED, p) for g in comps]
            assert np.allclose(got, want, rtol=0, atol=1e-15)


class TestBatches:
    def test_batch_equals_per_point(self):
        # every function of points takes an array of points as it takes one
        N = lambda z: moment_map(P2_CURVED, z)
        points = sample_points(P2_CURVED, 6, seed=43)
        Z = np.array(points).reshape(2, 3, 2)
        H = AlgebraElement.hamiltonian(2) + AlgebraElement(2, constant=3)
        batched = [
            moment_map(P2_CURVED, Z),
            evaluate(H, moment_map(P2_CURVED, Z)),
            hamiltonian_field(N, P2_CURVED, Z).holo,
            hamiltonian_field(N, P2_CURVED, Z).anti,
            poisson_bracket(N, N, P2_CURVED, Z),
            closed_form_field(Z).holo,
            closed_form_field(Z).anti,
            ricci_at(P2_CURVED, Z),
        ]
        per_point = [
            [moment_map(P2_CURVED, p) for p in points],
            [evaluate(H, moment_map(P2_CURVED, p)) for p in points],
            [hamiltonian_field(N, P2_CURVED, p).holo for p in points],
            [hamiltonian_field(N, P2_CURVED, p).anti for p in points],
            [poisson_bracket(N, N, P2_CURVED, p) for p in points],
            [closed_form_field(p).holo for p in points],
            [closed_form_field(p).anti for p in points],
            [ricci_at(P2_CURVED, p) for p in points],
        ]
        for got, want in zip(batched, per_point):
            want = np.array(want)
            assert got.shape == (2, 3) + want.shape[1:]
            assert np.array_equal(got.reshape(want.shape), want)
