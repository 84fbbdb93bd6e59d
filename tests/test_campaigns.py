import numpy as np
import pytest

from genosc import OscillatorParams, sample_points
from genosc import campaigns, cli, geometry, observables, symplectic

P2_CURVED = OscillatorParams(m=2, a=1.0)


def counting(monkeypatch, name):
    """Replace campaigns.<name> by a wrapper that counts its calls."""
    calls = []
    original = getattr(campaigns, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(campaigns, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "residual, differentiator",
    [
        (campaigns.field_residual, "hamiltonian_field"),
        (campaigns.bracket_residual, "poisson_bracket"),
    ],
)
def test_one_differentiation_per_point(monkeypatch, residual, differentiator):
    points = sample_points(P2_CURVED, 3, seed=61)
    calls = counting(monkeypatch, differentiator)
    assert residual(P2_CURVED, points) < 1e-7
    assert len(calls) == len(points)


@pytest.mark.parametrize("m", [2, 3])
def test_bracket_residual_compares_every_pair(monkeypatch, m):
    # A sign flip in the exact side leaves only the pairs whose bracket is 0
    # agreeing; any pair left out of the comparison would hide it.
    params = OscillatorParams(m=m, a=1.0)
    points = sample_points(params, 2, seed=67)
    exact = campaigns.structure_bracket
    monkeypatch.setattr(campaigns, "structure_bracket", lambda e1, e2: (-1) * exact(e1, e2))
    assert campaigns.bracket_residual(params, points) >= 1e-2


def test_polarization_residuals_one_call_per_field_family(monkeypatch):
    points = sample_points(P2_CURVED, 3, seed=71)
    calls = counting(monkeypatch, "preserves_polarization")
    preserved, control = campaigns.polarization_residuals(P2_CURVED, points, poly_seed=3)
    assert len(calls) == 2
    assert preserved <= 1e-5 and control >= 1.0


def test_one_verify_point_makes_12_wirtinger_and_2_metric_at_calls(monkeypatch, capsys):
    # 2 for the field, 4 for the bracket, 2 for Ricci and 4 for polarization;
    # the campaigns other than det and inverse take the metric from the kernel.
    calls = {"wirtinger": 0, "metric_at": 0}
    for name in calls:
        original = getattr(geometry, name)

        def wrapper(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in (geometry, symplectic, observables, campaigns, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    assert cli.main(["verify", "--m", "2", "--a", "1", "--samples", "1", "--seed", "5"]) == 0
    assert calls == {"wirtinger": 12, "metric_at": 2}


def test_random_polynomials_draw_one_index_per_term(monkeypatch):
    default_rng = np.random.default_rng
    draws = []

    class CountingRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def integers(self, *args, **kwargs):
            draws.append(args)
            return self.rng.integers(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    polys = campaigns.random_holomorphic_polynomials(8, 3, seed=5)
    assert len(draws) == 3 * 3
    for poly in polys:
        terms = poly.keywords["terms"]
        assert terms and all(len(k) == 8 and min(k) >= 0 and sum(k) <= 3 for k in terms)


def test_random_polynomials_are_seeded():
    def terms(seed):
        return [p.keywords["terms"] for p in campaigns.random_holomorphic_polynomials(8, 3, seed)]

    assert terms(5) == terms(5)
    assert terms(5) != terms(6)
