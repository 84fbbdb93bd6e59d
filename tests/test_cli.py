import dataclasses
import io
import json
import math
import shlex
import warnings
from fractions import Fraction

import pytest

import genosc.geometry
import genosc.quantization
from genosc import AlgebraElement, OscillatorParams, cli, sample_points
from genosc.campaigns import det_residual, field_residual
from genosc.cli import TOLERANCES, _render_json, main
from genosc.exact import ZERO


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def wrong_metric(monkeypatch):
    """A wrong metric: u'' scaled by 1.5, with s' = u' + r u'' kept consistent."""
    radial_profile = genosc.geometry.radial_profile

    def wrong_profile(params, r):
        prof = radial_profile(params, r)
        u_double_prime = 1.5 * prof.u_double_prime
        return dataclasses.replace(
            prof, u_double_prime=u_double_prime, s_prime=prof.u_prime + r * u_double_prime
        )

    monkeypatch.setattr(genosc.geometry, "radial_profile", wrong_profile)


class TestVerify:
    def test_flat_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--m", "2", "--a", "0", "--samples", "20", "--seed", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["residuals"]["det"] <= 1e-12
        assert report["schema_version"] == 3
        assert list(report["tolerances"].items()) == [
            ("det", 1e-10),
            ("inverse", 1e-8),
            ("field", 1e-7),
            ("bracket", 1e-7),
            ("ricci", 1e-5),
            ("polarization", 1e-5),
        ]

    def test_curved_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--m", "2", "--a", "1", "--samples", "20", "--seed", "42"
        )
        assert code == 0
        report = json.loads(out)
        assert report["residuals"]["ricci"] <= 1e-5
        names = [c["name"] for c in report["checks"]]
        assert "polarization_negative_control" in names
        control = next(c for c in report["checks"] if c["name"] == "polarization_negative_control")
        assert control["pass"] is True  # expected-fail control did fail

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--m", "0", "--samples", "5"])
        assert exc.value.code == 2

    def test_failure_exit_1_with_report(self, capsys, wrong_metric):
        code, out, _ = run(
            capsys, "verify", "--m", "2", "--a", "1", "--samples", "10", "--seed", "3"
        )
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["det", "ricci", "hamiltonian_field_closed_form", "polarization"]

    def test_byte_reproducibility(self, capsys):
        args = ("verify", "--m", "2", "--a", "1", "--samples", "15", "--seed", "7")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_unknown_flag_exit_2(self, capsys):
        # Tolerances, the dirac pair limit and the report format are fixed.
        for argv in (
            ["verify", "--m", "2", "--samples", "1", "--workers", "2"],
            ["verify", "--m", "2", "--samples", "1", "--margin", "1"],
            ["verify", "--m", "2", "--samples", "1", "--tol-det", "1e-20"],
            ["spectrum", "--m", "2", "--lmax", "1", "--format", "table"],
            ["dirac", "--m", "2", "--l", "1", "--pair-budget", "16"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            out = capsys.readouterr()
            assert out.out == "" and "unrecognized arguments" in out.err, argv

    @pytest.mark.parametrize(
        "extra",
        [
            ["--hbar", "abc"],
            ["--hbar", "0"],
            ["--hbar", "1/0"],
            ["--a", "nan"],
            ["--a", "inf"],
            ["--samples", "0"],
            ["--seed", "-1"],
        ],
    )
    def test_bad_params_exit_2(self, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--m", "2", "--samples", "1", *extra])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_params_are_m_and_a(self, capsys):
        _, out, _ = run(capsys, "verify", "--m", "2", "--a", "0.5", "--samples", "1")
        assert json.loads(out)["params"] == {"m": 2, "a": 0.5}

    # Points have r ~ |a|.  1e200 overflows a^m; 1.3e154 leaves a^m finite
    # but overflows the sampled r^m = a^m (1 + rho); 1e110 overflows numpy's
    # r^2 s^(m-1) inside the metric, which would make u'' silently 0, and at
    # m = 1, 1e200 overflows its r^2 alone.  Warnings are errors here, so a
    # numpy RuntimeWarning fails the test.
    @pytest.mark.parametrize(
        "m, a", [("2", "1e200"), ("2", "1.3e154"), ("1", "1e200"), ("2", "1e110")]
    )
    def test_overflowing_a_exit_2(self, capsys, m, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--m", m, "--a", a, "--samples", "1"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"--a {float(a):g}" in out.err and "overflows" in out.err
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("a", ["0.1234567", "-1e-05"])
    def test_command_reruns_to_the_same_bytes(self, capsys, monkeypatch, a):
        # verify reports and both modes of eval; the point comes from stdin.
        element = '{"coeff": [[[1,0],[0,0]],[[0,0],[1,0]]], "constant": [0, 0]}'
        def rerun(*argv):
            monkeypatch.setattr("sys.stdin", io.StringIO("[[1, 0], [1, 0]]"))
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            return out

        for argv in (
            ["verify", "--m", "2", f"--a={a}", "--samples", "2", "--seed", "4"],
            ["eval", "--m", "2", f"--a={a}", "--metric"],
            ["eval", "--m", "2", f"--a={a}", "--element", element],
        ):
            first = rerun(*argv)
            assert rerun(*shlex.split(json.loads(first)["command"])) == first

    def test_oversized_stencil_exit_2_before_sampling(self, capsys, monkeypatch):
        def sample_points(*args):
            raise AssertionError("sampling started")

        monkeypatch.setattr("genosc.cli.sample_points", sample_points)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--m", "40", "--samples", "1"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--m 40" in out.err

    def test_m12_is_within_the_stencil_limit(self, monkeypatch):
        class Sampling(Exception):
            pass

        def sample_points(*args):
            raise Sampling

        monkeypatch.setattr("genosc.cli.sample_points", sample_points)
        with pytest.raises(Sampling):
            main(["verify", "--m", "12", "--samples", "1"])

    def test_too_many_samples_exit_2_before_sampling(self, capsys, monkeypatch):
        def sample_points(*args):
            raise AssertionError("sampling started")

        monkeypatch.setattr("genosc.cli.sample_points", sample_points)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--m", "2", "--samples", "1000000000000"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--m 2 --samples 1000000000000 has 2048000000000000 stencil values" in out.err
        assert "over the limit of 500000000" in out.err

    @pytest.mark.parametrize(
        "m, samples, largest",
        [(2, 10, False), (2, 200, False), (16, 100, False), (2, 244_140, True), (16, 117, True)],
    )
    def test_sample_counts_within_the_total_limit(self, monkeypatch, m, samples, largest):
        # samples x 64 m^2 (m^2 + 4) stencil values: 2 048 a sample at m = 2,
        # 4 259 840 at m = 16.
        class Sampling(Exception):
            pass

        def sample_points(*args):
            raise Sampling

        monkeypatch.setattr("genosc.cli.sample_points", sample_points)
        with pytest.raises(Sampling):
            main(["verify", "--m", str(m), "--samples", str(samples)])
        if largest:
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--m", str(m), "--samples", str(samples + 1)])
            assert exc.value.code == 2


class TestMutationGate:
    """The wrong metric of `wrong_metric` must fail where the metric is
    curved, at every m verify allows a sample at."""

    @pytest.mark.parametrize("m, samples", [(2, 3), (4, 3), (8, 1)])
    def test_verify_fails_wrong_metric(self, capsys, wrong_metric, m, samples):
        code, out, _ = run(
            capsys, "verify", "--m", str(m), "--a", "1", "--samples", str(samples), "--seed", "1"
        )
        assert code == 1
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
        assert failed == ["det", "ricci", "hamiltonian_field_closed_form", "polarization"]

    @pytest.mark.parametrize("m", [12, 16])
    def test_det_and_field_fail_wrong_metric(self, wrong_metric, m):
        # verify's Ricci and polarization stencils are slow at this m, so the
        # sampled points go to the two cheap campaigns directly.
        params = OscillatorParams(m=m, a=1.0)
        points = sample_points(params, 1, seed=1)
        assert det_residual(params, points) > TOLERANCES["det"]
        assert field_residual(params, points) > TOLERANCES["field"]


@pytest.fixture
def no_half_form_shift(monkeypatch):
    """quantize with weight 2 k_b in place of 2 k_b + delta_ab: Q(e) less
    hbar (sum_a c_aa) / 2 times the identity.  Returns the list of elements
    it quantized, so a test can see that the patch is reached."""
    quantize = genosc.quantization.quantize
    calls = []

    def unshifted(e, l):
        calls.append(e)
        trace = sum((c for (a, b), c in e.terms.items() if a == b), ZERO)
        half_trace = AlgebraElement(e.m, constant=trace * Fraction(1, 2))
        return quantize(e, l) - quantize(half_trace, l).shift_hbar(1)

    monkeypatch.setattr(genosc.quantization, "quantize", unshifted)
    return calls


class TestHalfFormShift:
    def test_dirac_cannot_see_it(self, capsys, no_half_form_shift):
        # A multiple of the identity commutes with everything.
        code, out, _ = run(capsys, "dirac", "--m", "3", "--l", "2")
        assert code == 0
        assert json.loads(out)["nonzero_residuals"] == 0
        assert len(no_half_form_shift) == 3**2 + 3**4

    def test_spectrum_fails_without_a_report(self, capsys, no_half_form_shift):
        code, out, err = run(capsys, "spectrum", "--m", "2", "--lmax", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Q(H) on degree 0 is not 1 hbar x identity" in err


class TestSpectrum:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--m", "2", "--lmax", "2")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [(r["l"], r["eigenvalue_float"], r["multiplicity"]) for r in rows] == [
            (0, 1, 1),
            (1, 2, 2),
            (2, 3, 3),
        ]

    def test_ground_state_m4(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--m", "4", "--lmax", "0")
        rows = json.loads(out)["rows"]
        assert rows == [
            {"l": 0, "eigenvalue": "2", "eigenvalue_float": 2, "multiplicity": 1}
        ]

    def test_negative_lmax_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--m", "2", "--lmax", "-1"])
        assert exc.value.code == 2

    def test_too_many_states_exit_2_before_building(self, capsys, monkeypatch):
        # Degrees 0..lmax of one variable: lmax + 1 states in all.
        def quantize(*args):
            raise AssertionError("quantization started")

        monkeypatch.setattr("genosc.quantization.quantize", quantize)
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--m", "1", "--lmax", "100000000"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "100000001 basis states" in out.err and "over the limit of 10000" in out.err

    @pytest.mark.parametrize("m, lmax, entries", [(1183, 1, 1_400_672), (9999, 1, 99_990_000)])
    def test_too_many_entries_exit_2_before_building(self, capsys, monkeypatch, m, lmax, entries):
        # m C(lmax + m, m) exponent entries; the states are within their limit.
        def quantize(*args):
            raise AssertionError("quantization started")

        monkeypatch.setattr("genosc.quantization.quantize", quantize)
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--m", str(m), "--lmax", str(lmax)])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"{entries} exponent entries" in out.err
        assert "over the limit of 1400000" in out.err

    def test_large_m_and_lmax_exit_2_uncounted(self, capsys, monkeypatch):
        # C(2 * 10^6, 10^6) alone would take math.comb about half a minute.
        monkeypatch.setattr(math, "comb", None)
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--m", "1000000", "--lmax", "1000000"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "has over 10000 basis states" in out.err

    def test_too_many_coordinates_exit_2_at_lmax_0(self, capsys, monkeypatch):
        # Degree 0 has one state, but Q(H) has one term per coordinate.
        def quantize(*args):
            raise AssertionError("quantization started")

        monkeypatch.setattr("genosc.quantization.quantize", quantize)
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--m", "1400001", "--lmax", "0"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--m 1400001 --lmax 0 has 1400001 exponent entries" in out.err

    @pytest.mark.parametrize("m, lmax", [(1_400_000, 0), (1182, 1), (139, 2)])
    def test_largest_m_is_within_the_entry_limit(self, monkeypatch, m, lmax):
        class Checking(Exception):
            pass

        def spectrum_of_H(*args):
            raise Checking

        monkeypatch.setattr(cli, "spectrum_of_H", spectrum_of_H)
        with pytest.raises(Checking):
            main(["spectrum", "--m", str(m), "--lmax", str(lmax)])

    def test_many_coordinates_at_lmax_0(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--m", "2000", "--lmax", "0")
        assert code == 0
        assert json.loads(out)["rows"] == [
            {"l": 0, "eigenvalue": "1000", "eigenvalue_float": 1000, "multiplicity": 1}
        ]

    def test_largest_lmax_is_within_the_state_limit(self, capsys):
        # C(lmax + 2, 2) states: 9 870 at lmax = 139, 10 011 at lmax = 140.
        code, out, _ = run(capsys, "spectrum", "--m", "2", "--lmax", "139")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 140
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--m", "2", "--lmax", "140"])
        assert exc.value.code == 2


class TestDirac:
    def test_m2(self, capsys):
        code, out, _ = run(capsys, "dirac", "--m", "2", "--l", "3")
        assert code == 0
        report = json.loads(out)
        assert report["pairs_checked"] == 16
        assert report["nonzero_residuals"] == 0

    def test_m1_trivial(self, capsys):
        code, out, _ = run(capsys, "dirac", "--m", "1", "--l", "0")
        assert code == 0
        assert json.loads(out)["pairs_checked"] == 1

    def test_over_budget_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_DIRAC_PAIRS", 4)
        with pytest.raises(SystemExit) as exc:
            main(["dirac", "--m", "2", "--l", "1"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "16 basis pairs" in out.err and "over the limit of 4" in out.err

    def test_at_budget_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_DIRAC_PAIRS", 16)
        code, out, _ = run(capsys, "dirac", "--m", "2", "--l", "1")
        assert code == 0
        assert json.loads(out)["pairs_checked"] == 16

    def test_m9_exit_2_before_checking(self, capsys, monkeypatch):
        def dirac_nonzero(*args):
            raise AssertionError("checking started")

        monkeypatch.setattr(cli, "dirac_nonzero", dirac_nonzero)
        with pytest.raises(SystemExit) as exc:
            main(["dirac", "--m", "9", "--l", "1"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "6561 basis pairs" in out.err and "over the limit of 4096" in out.err

    def test_too_many_states_exit_2_before_building(self, capsys, monkeypatch):
        def monomial_basis(*args):
            raise AssertionError("basis enumeration started")

        monkeypatch.setattr("genosc.quantization.monomial_basis", monomial_basis)
        with pytest.raises(SystemExit) as exc:
            main(["dirac", "--m", "2", "--l", "100000000"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "100000001 basis states" in out.err and "over the limit of 10000" in out.err

    @pytest.mark.parametrize("m, l", [(2, 9999), (3, 139), (8, 8)])
    def test_largest_degrees_are_within_the_state_limit(self, monkeypatch, m, l):
        class Checking(Exception):
            pass

        def dirac_nonzero(*args):
            raise Checking

        monkeypatch.setattr(cli, "dirac_nonzero", dirac_nonzero)
        with pytest.raises(Checking):
            main(["dirac", "--m", str(m), "--l", str(l)])
        with pytest.raises(SystemExit) as exc:
            main(["dirac", "--m", str(m), "--l", str(l + 1)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("m, l, nonzero", [(3, 2, 42), (4, 3, 108)])
    def test_wrong_bracket_sign_fails(self, capsys, monkeypatch, m, l, nonzero):
        # With {f, g} negated, [Q(f), Q(g)] + i hbar Q({f, g}) cancels only
        # where the bracket is 0.
        bracket = genosc.quantization.structure_bracket
        monkeypatch.setattr(
            genosc.quantization, "structure_bracket", lambda e1, e2: (-1) * bracket(e1, e2)
        )
        code, out, _ = run(capsys, "dirac", "--m", str(m), "--l", str(l))
        assert code == 1
        report = json.loads(out)
        assert report["pairs_checked"] == m**4
        assert report["nonzero_residuals"] == nonzero
        assert report["pass"] is False

    @pytest.mark.parametrize("m, l", [(1, 5), (2, 3), (4, 3)])
    def test_each_basis_element_is_quantized_once(self, capsys, monkeypatch, m, l):
        # m^2 basis operators, then one bracket per pair: m^2 + m^4 calls,
        # where quantizing e1, e2 and the bracket per pair made 3 m^4.
        quantize = genosc.quantization.quantize
        calls = []
        monkeypatch.setattr(
            genosc.quantization, "quantize", lambda e, l: calls.append(e) or quantize(e, l)
        )
        code, _, _ = run(capsys, "dirac", "--m", str(m), "--l", str(l))
        assert code == 0
        assert len(calls) == m**2 + m**4

    def test_m8_is_within_the_pair_limit(self, monkeypatch):
        class Checking(Exception):
            pass

        def dirac_nonzero(*args):
            raise Checking

        monkeypatch.setattr(cli, "dirac_nonzero", dirac_nonzero)
        with pytest.raises(Checking):
            main(["dirac", "--m", "8", "--l", "1"])


class TestEval:
    def test_metric(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("[[1, 0], [1, 0]]"))
        code, out, _ = run(capsys, "eval", "--m", "2", "--a", "1", "--metric")
        assert code == 0
        report = json.loads(out)
        assert report["det_g"] == pytest.approx(1.0)
        assert report["g"][0][1][0] == pytest.approx(0.14433756729740646)

    def test_element(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("[[1, 0], [1, 0]]"))
        element = '{"coeff": [[[1,0],[0,0]],[[0,0],[1,0]]], "constant": [0, 0]}'
        code, out, _ = run(capsys, "eval", "--m", "2", "--a", "1", "--element", element)
        assert code == 0
        assert json.loads(out)["value"][0] == pytest.approx(3**0.5)

    def test_inadmissible_point_exit_1(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("[[0.1, 0], [0, 0]]"))
        code, out, _ = run(capsys, "eval", "--m", "2", "--a", "1", "--metric")
        assert code == 1
        assert "DomainError" in json.loads(out)["error"]

    def test_missing_mode_exit_2(self, capsys, monkeypatch):
        # Exactly one of --metric and --element: neither and both are usage errors.
        for mode in ([], ["--metric", "--element", "garbage"]):
            monkeypatch.setattr("sys.stdin", io.StringIO("[[1, 0], [1, 0]]"))
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--m", "2", *mode])
            assert exc.value.code == 2, mode
            assert capsys.readouterr().out == "", mode

    @pytest.mark.parametrize("hbar", ["abc", "0"])
    def test_bad_hbar_exit_2(self, capsys, monkeypatch, hbar):
        monkeypatch.setattr("sys.stdin", io.StringIO("[[1, 0], [1, 0]]"))
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--m", "2", "--a", "1", "--hbar", hbar, "--metric"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "element",
        [
            "{bad",
            '{"coeff": 5}',
            '{"coeff": [[[1,0],[0,0]]]}',
            '{"coeff": [[["x",0],[0,0]],[[0,0],[0,0]]]}',
            '{"coeff": [[[1,0],[0,0]],[[0,0],[0,0]]], "constant": 5}',
            '{"coeff": [[[1,0],[0,0]],[[0,0]]]}',
            "[1]",
        ],
    )
    def test_malformed_element_exit_2(self, capsys, monkeypatch, element):
        monkeypatch.setattr("sys.stdin", io.StringIO("[[1, 0], [1, 0]]"))
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--m", "2", "--a", "1", "--element", element])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--element" in out.err

    def test_element_of_other_dimension_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[[1, 0], [1, 0], [1, 0]]"))
        element = '{"coeff": [[[1,0],[0,0]],[[0,0],[1,0]]]}'
        code, out, _ = run(capsys, "eval", "--m", "3", "--a", "1", "--element", element)
        assert code == 1
        assert "DimensionMismatch" in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "point", ["[[1e308, 0], [1e308, 0]]", "[[NaN, 0], [1, 0]]", "[[1, Infinity], [1, 0]]"]
    )
    @pytest.mark.parametrize(
        "mode", [["--metric"], ["--element", '{"coeff": [[[1,0],[0,0]],[[0,0],[1,0]]]}']]
    )
    def test_non_finite_point_exit_2(self, capsys, monkeypatch, point, mode):
        monkeypatch.setattr("sys.stdin", io.StringIO(point))
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--m", "2", "--a", "1", *mode])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "mode", [["--metric"], ["--element", '{"coeff": [[[1,0],[0,0]],[[0,0],[1,0]]]}']],
        ids=["--metric", "--element"],
    )
    def test_overflowing_point_exit_2(self, capsys, monkeypatch, mode):
        # r = 1e300 is finite, r^2 is not
        monkeypatch.setattr("sys.stdin", io.StringIO("[[1e150, 0], [1, 0]]"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--m", "2", "--a", "1", *mode])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "r = 1e+300" in out.err and "overflows" in out.err

    @pytest.mark.parametrize(
        "point, coeff",
        [("[[1, 0], [1, 0]]", "1e400"), ("[[1e5, 0], [1, 0]]", "1e300")],
        ids=["coefficient", "product"],
    )
    def test_overflowing_element_value_exit_2(self, capsys, monkeypatch, point, coeff):
        # The point's moment map is finite; the element's value is not.
        monkeypatch.setattr("sys.stdin", io.StringIO(point))
        element = f'{{"coeff": [[["{coeff}", 0], [0, 0]], [[0, 0], [1, 0]]]}}'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--m", "2", "--a", "0", "--element", element])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--element" in out.err and "overflows" in out.err


class TestRenderJson:
    def test_finite_values(self):
        text = _render_json({"x": 0.1, "n": [1, True, None], "s": "a"})
        assert text == '{"x": 0.10000000000000001, "n": [1, true, null], "s": "a"}'
        assert json.loads(text)["x"] == 0.1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            _render_json({"residuals": [1.0, value]})
