import numpy as np
import pytest

from genosc import DomainError, OscillatorParams, PhasePoint, sample_points
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
def test_one_differentiation_per_chunk(monkeypatch, residual, differentiator):
    points = sample_points(P2_CURVED, 3, seed=61)
    calls = counting(monkeypatch, differentiator)
    assert residual(P2_CURVED, points) < 1e-7
    assert len(calls) == 1


@pytest.mark.parametrize("m", [2, 3])
def test_bracket_residual_compares_every_pair(monkeypatch, m):
    # A sign flip in the exact side leaves only the pairs whose bracket is 0
    # agreeing; any pair left out of the comparison would hide it.
    params = OscillatorParams(m=m, a=1.0)
    points = sample_points(params, 2, seed=67)
    exact = campaigns.structure_bracket
    monkeypatch.setattr(campaigns, "structure_bracket", lambda e1, e2: (-1) * exact(e1, e2))
    assert campaigns.bracket_residual(params, points) >= 1e-2


@pytest.mark.parametrize("m", [2, 3])
def test_bracket_residual_one_moment_map_of_the_samples(monkeypatch, m):
    # The m^4 exact brackets are evaluated on one moment map of the samples;
    # the stencil's calls see arrays of another shape.
    params = OscillatorParams(m=m, a=1.0)
    points = sample_points(params, 3, seed=73)
    original = observables.moment_map
    shapes = []

    def moment_map(params, p):
        shapes.append(np.shape(p))
        return original(params, p)

    for module in (observables, campaigns):
        monkeypatch.setattr(module, "moment_map", moment_map)
    assert campaigns.bracket_residual(params, points) < 1e-7
    assert shapes.count((3, m)) == 1


def test_polarization_residuals_one_call_per_field_family(monkeypatch):
    points = sample_points(P2_CURVED, 3, seed=71)
    calls = counting(monkeypatch, "preserves_polarization")
    preserved, control = campaigns.polarization_residuals(P2_CURVED, points, poly_seed=3)
    assert len(calls) == 1
    assert preserved <= 1e-5 and control >= 1.0


def counting_geometry(monkeypatch, *names):
    """Count the calls of geometry.<name> made from every genosc module."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(geometry, name)

        def wrapper(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in (geometry, symplectic, observables, campaigns, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return calls


def test_one_verify_point_makes_6_wirtinger_and_1_metric_at_calls(monkeypatch, capsys):
    # Each call gives both kinds of derivative: 1 for the field, 1 for the
    # bracket (the field of N and N differentiated along it share it), 2 for
    # Ricci and 2 for polarization (one array of fields, nested once); the
    # campaigns other than inverse take the metric from the kernel.
    calls = counting_geometry(monkeypatch, "wirtinger", "metric_at")
    assert cli.main(["verify", "--m", "2", "--a", "1", "--samples", "1", "--seed", "5"]) == 0
    assert calls == {"wirtinger": 6, "metric_at": 1}


def test_wirtinger_calls_do_not_grow_with_the_samples(monkeypatch, capsys):
    # 1 and 10 points both fit in one chunk, and each kernel call takes all of them.
    calls = counting_geometry(monkeypatch, "wirtinger")
    counts = []
    for samples in ("1", "10"):
        calls["wirtinger"] = 0
        argv = ["verify", "--m", "2", "--a", "1", "--samples", samples, "--seed", "5"]
        assert cli.main(argv) == 0
        counts.append(calls["wirtinger"])
    assert counts == [6, 6]


@pytest.mark.parametrize("m", [2, 3])
def test_largest_stencil_array_is_the_budgeted_one(monkeypatch, capsys, m):
    # campaigns.stencil_values_per_point budgets 64 m^2 (m^2 + 4) values per
    # point: the m^2 + 4 polarization fields on the nested stencil.  Every field
    # a wirtinger call differentiates is watched, the nested ones included.
    sizes = []
    original = geometry.wirtinger

    def wirtinger(field, p):
        def watched(z):
            values = field(z)
            sizes.append(np.size(values))
            return values

        return original(watched, p)

    for module in (geometry, symplectic, observables, campaigns, cli):
        if hasattr(module, "wirtinger"):
            monkeypatch.setattr(module, "wirtinger", wirtinger)
    assert cli.main(["verify", "--m", str(m), "--samples", "1"]) == 0
    assert max(sizes) == 64 * m**2 * (m**2 + 4) == campaigns.stencil_values_per_point(m)


@pytest.mark.parametrize("m", [1, 2, 4, 8])
@pytest.mark.parametrize("a", [0.0, 1.0, -1.0])
def test_batched_det_equals_metric_at_bit_for_bit(m, a):
    params = OscillatorParams(m=m, a=a)
    points = sample_points(params, 7, seed=83)
    per_point = max(abs(geometry.metric_at(params, p).det_g - 1.0) for p in points)
    assert campaigns.det_residual(params, points) == per_point


def test_batched_det_raises_as_metric_at_does_at_the_degeneration_radius():
    points = sample_points(P2_CURVED, 3, seed=89)
    points.insert(1, PhasePoint([1.0, 0.0]))  # r = |a|: r^m - a^m = 0
    with pytest.raises(DomainError) as per_point:
        geometry.metric_at(P2_CURVED, points[1])
    with pytest.raises(DomainError) as batched:
        campaigns.det_residual(P2_CURVED, points)
    assert str(batched.value) == str(per_point.value)


def test_det_residual_of_no_points_raises():
    with pytest.raises(DomainError):
        campaigns.det_residual(P2_CURVED, [])


@pytest.mark.parametrize(
    "m, a, samples",
    # At m = 3 and a = 0.8, the powers of the radial profile are float
    # products over arrays whose size is set by the chunk.
    [(4, "1", 20), (6, "1", 14), (3, "0.8", 20)],
    ids=["4-20", "6-14", "3-0.8-20"],
)
def test_report_does_not_depend_on_the_chunk_size(monkeypatch, capsys, m, a, samples):
    argv = ["verify", "--m", str(m), "--a", a, "--samples", str(samples)]
    per_point = 64 * m**2 * (m**2 + 4)
    ricci, calls = cli.ricci_residual, []
    monkeypatch.setattr(cli, "ricci_residual", lambda *args: calls.append(args) or ricci(*args))
    reports = []
    for size in (1, 7, samples):
        monkeypatch.setattr(cli, "MAX_STENCIL_VALUES", size * per_point)
        calls.clear()
        assert cli.main(argv) == 0
        assert len(calls) == -(-samples // size)  # one call per chunk
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]


def test_polynomial_does_not_depend_on_the_array_size():
    # 20 000 points: each power z^a ** e is a temporary of 320 KB, above the
    # 256 KiB from which numpy may reuse a temporary's buffer for the product.
    rng = np.random.default_rng(11)
    z = rng.standard_normal((20_000, 2)) + 1j * rng.standard_normal((20_000, 2))
    terms = {(2, 1): 0.3 - 1.1j, (0, 3): -0.7 + 0.2j, (1, 1): 1.3 + 0.9j}
    whole = campaigns._polynomial(z, terms)
    sliced = np.concatenate(
        [campaigns._polynomial(z[i : i + 100], terms) for i in range(0, len(z), 100)]
    )
    assert whole.tobytes() == sliced.tobytes()


def all_exponent_polynomial(z, terms):
    """sum_k c_k z^k with every coordinate raised to its exponent, 0 included."""
    total = 0j
    for k, c in terms.items():
        term = c
        for a, e in enumerate(k):
            power = z[..., a] ** e
            term = term * power
        total = total + term
    return total


@pytest.mark.parametrize(
    "terms",
    [
        {(0, 0, 2): 0.3 - 1.1j, (1, 0, 1): -0.7 + 0.2j, (0, 3, 0): 1.3 + 0.9j},
        {(0, 0, 0): -0.4 + 2.1j, (2, 0, 1): 0.8 - 0.5j},
        {(0, 0, 0): 1.7 - 0.6j},
    ],
    ids=["zero-exponents", "with-constant", "constant-only"],
)
def test_polynomial_skips_zero_exponents_bit_for_bit(terms):
    rng = np.random.default_rng(13)
    z = rng.standard_normal((2, 5, 3)) + 1j * rng.standard_normal((2, 5, 3))
    got = campaigns._polynomial(z, terms)
    assert got.shape == (2, 5)
    assert got.tobytes() == all_exponent_polynomial(z, terms).tobytes()


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
