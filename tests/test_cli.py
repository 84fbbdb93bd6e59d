import contextlib
import dataclasses
import io
import json
import math
import shlex
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genosc.geometry
import genosc.quantization
from genosc import OscillatorParams, cli, sample_points
from genosc.campaigns import det_residual, field_residual
from genosc.cli import TOLERANCES, _render_json, main


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
        assert list(report) == [
            "schema_version",
            "tool_version",
            "command",
            "params",
            "seed",
            "n_samples",
            "tolerances",
            "residuals",
            "checks",
            "pass",
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

    def test_inverse_disagreement_exits_1_without_a_report(self, capsys, monkeypatch):
        # s' scaled by 1.001 breaks the closed-form inverse, not the direct one.
        radial_profile = genosc.geometry.radial_profile

        def wrong_profile(params, r):
            prof = radial_profile(params, r)
            return dataclasses.replace(prof, s_prime=1.001 * prof.s_prime)

        monkeypatch.setattr(genosc.geometry, "radial_profile", wrong_profile)
        code, out, err = run(
            capsys, "verify", "--m", "2", "--a", "1", "--samples", "3", "--seed", "1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith(
            "error: ConditioningError: closed-form and direct inverse disagree by 5.170e-04"
            " at z ="
        )

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
        # (argv, message); the first seven extend a verify command line.
        [
            (["--hbar", "abc"], "unrecognized arguments: --hbar abc"),
            (["--hbar", "0"], "unrecognized arguments: --hbar 0"),
            (["--hbar", "1/0"], "unrecognized arguments: --hbar 1/0"),
            (["--a", "nan"], "--a must be finite, got nan"),
            (["--a", "inf"], "--a must be finite, got inf"),
            (["--samples", "0"], "--samples must be >= 1"),
            (["--seed", "-1"], "--seed must be >= 0"),
            (["verify", "--m", "0"], "--m must be >= 1"),
            (["spectrum", "--m", "0", "--lmax", "1"], "--m must be >= 1"),
            (["dirac", "--m", "0", "--l", "1"], "--m must be >= 1"),
            (["eval", "--m", "0", "--metric"], "--m must be >= 1"),
            (["dirac", "--m", "2", "--l", "-1"], "--l must be >= 0"),
            (["spectrum", "--m", "2", "--lmax", "-1"], "--lmax must be >= 0"),
            (["eval", "--m", "2", "--a", "inf", "--metric"], "--a must be finite, got inf"),
        ],
    )
    def test_bad_params_exit_2(self, capsys, extra):
        argv, message = extra
        if argv[0].startswith("--"):
            argv = ["verify", "--m", "2", "--samples", "1", *argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(f"\ngenosc: error: {message}\n")

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


class TestHalfFormShift:
    def test_dirac_cannot_see_it(self, capsys, no_half_form_shift):
        # A multiple of the identity commutes with everything.
        code, out, _ = run(capsys, "dirac", "--m", "3", "--l", "2")
        assert code == 0
        assert json.loads(out)["nonzero_residuals"] == 0
        # The basis elements and the distinct brackets (see
        # test_each_basis_element_is_quantized_once): 9 + 19 at m = 3.
        assert len(no_half_form_shift) == 3**2 + 3 * 3 * 2 + 1

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

    def test_report_bytes(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--m", "3", "--lmax", "3")
        assert code == 0
        assert out == (
            '{"schema_version": 3, "tool_version": "0.1.0", "command": "spectrum --m 3 --lmax 3",'
            ' "m": 3, "lmax": 3, "eigenvalue_unit": "hbar", "rows": ['
            '{"l": 0, "eigenvalue": "3/2", "eigenvalue_float": 1.5, "multiplicity": 1}, '
            '{"l": 1, "eigenvalue": "5/2", "eigenvalue_float": 2.5, "multiplicity": 3}, '
            '{"l": 2, "eigenvalue": "7/2", "eigenvalue_float": 3.5, "multiplicity": 6}, '
            '{"l": 3, "eigenvalue": "9/2", "eigenvalue_float": 4.5, "multiplicity": 10}]}\n'
        )

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

    def test_count_past_str_digits_exit_2(self, capsys):
        # C(lmax + 2, 2) has about 8 000 digits, more than str() writes
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--m", "2", "--lmax", str(10**4000)])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "has at least 10^4300 basis states, over the limit of 10000" in out.err

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

    def test_report_bytes(self, capsys):
        code, out, _ = run(capsys, "dirac", "--m", "2", "--l", "2")
        assert code == 0
        assert out == (
            '{"schema_version": 3, "tool_version": "0.1.0", "command": "dirac --m 2 --l 2",'
            ' "m": 2, "l": 2, "pairs_checked": 16, "nonzero_residuals": 0, "checks": ['
            '{"name": "dirac_condition_exact", "pass": true,'
            ' "detail": "16 pairs checked, 0 nonzero residuals"}], "pass": true}\n'
        )

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
        # m^2 basis operators, then one per distinct bracket.  The brackets
        # {N^{ab'}, N^{cd'}} = i(delta_bc N^{ad'} - delta_ad N^{cb'}) are 0
        # (b != c and a != d, or a = b = c = d), i N^{ad'} (b = c, a != d),
        # -i N^{cb'} (a = d, b != c) or i(N^{aa'} - N^{bb'}) (the pairs
        # (a, b), (b, a), a != b): 3m(m-1) + 1 values, so m^2 + 3m(m-1) + 1
        # calls (2, 11 and 53 here), where one bracket per pair made
        # m^2 + m^4 and quantizing e1, e2 and the bracket per pair 3 m^4.
        quantize = genosc.quantization.quantize
        calls = []
        monkeypatch.setattr(
            genosc.quantization, "quantize", lambda e, l: calls.append(e) or quantize(e, l)
        )
        code, _, _ = run(capsys, "dirac", "--m", str(m), "--l", str(l))
        assert code == 0
        assert len(calls) == m**2 + 3 * m * (m - 1) + 1

    def test_count_past_str_digits_exit_2(self, capsys):
        # int() reads the 4 001 digits of --m, but str() cannot write the
        # 16 001 of m^4
        with pytest.raises(SystemExit) as exc:
            main(["dirac", "--m", str(10**4000), "--l", "0"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "has at least 10^4300 basis pairs, over the limit of 4096" in out.err

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
        assert list(report) == [
            "schema_version",
            "tool_version",
            "command",
            "point",
            "r",
            "profile",
            "g",
            "g_inv",
            "det_g",
        ]

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
            '{"coeff": [["12",[0,0]],[[0,0],[1,0]]]}',
            '{"coeff": [[[1,0],[0,0]],[[0,0],[1,0]]], "constant": {"3": 0, "4": 1}}',
        ],
    )
    def test_malformed_element_exit_2(self, capsys, monkeypatch, element):
        monkeypatch.setattr("sys.stdin", io.StringIO("[[1, 0], [1, 0]]"))
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--m", "2", "--a", "1", "--element", element])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--element" in out.err

    def test_element_of_other_dimension_exit_2(self, capsys, monkeypatch):
        # coeff must be --m x --m: a 2 x 2 element, or none, is unusable at --m 3.
        for element in ('{"coeff": [[[1,0],[0,0]],[[0,0],[1,0]]]}', '{"coeff": []}'):
            monkeypatch.setattr("sys.stdin", io.StringIO("[[1, 0], [1, 0], [1, 0]]"))
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--m", "3", "--a", "1", "--element", element])
            assert exc.value.code == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert "coefficient matrix must be 3 x 3" in out.err

    @pytest.mark.parametrize(
        "point",
        [
            "[[1, 0]]",
            "[[1, 0], [1, 0], [1, 0]]",
            "{}",
            "[]",
            "[[true, 0], [1, 0]]",
            "[[1, 0], [1, null]]",
            '[[1, 0], ["1", 0]]',
            "[[1, 0], [1, 0, 0]]",
            '[[1, 0], "ab"]',
            "[[1" + "0" * 400 + ", 0], [1, 0]]",
            "[" * 5000 + "]" * 5000,
        ],
        ids=[
            "short",
            "long",
            "object",
            "empty",
            "bool",
            "null",
            "string",
            "triple",
            "string-pair",
            "int-over-float",
            "deep",
        ],
    )
    @pytest.mark.parametrize(
        "mode", [["--metric"], ["--element", '{"coeff": [[[1,0],[0,0]],[[0,0],[1,0]]]}']],
        ids=["--metric", "--element"],
    )
    def test_unusable_point_exit_2(self, capsys, monkeypatch, point, mode):
        # The point must be --m pairs of JSON numbers, and each must fit a float.
        monkeypatch.setattr("sys.stdin", io.StringIO(point))
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--m", "2", "--a", "1", *mode])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "expected a JSON array of [re, im] pairs on stdin" in out.err

    def test_deeply_nested_element_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[[1, 0], [1, 0]]"))
        element = '{"coeff": ' + "[" * 5000 + "]" * 5000 + "}"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--m", "2", "--a", "1", "--element", element])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "malformed --element: RecursionError" in out.err

    @pytest.mark.parametrize(
        "a, point, error",
        [
            # r^2 underflows to 0, and u'' = a^m / r^2 is past the float range.
            ("-1e-300", "[[0, 2.2e-162]]", "closed-form and direct inverse disagree by nan"),
            # u' + r u'' cancels to exactly 0.
            ("-1", "[[0, 1.1754943508222875e-38]]", "the closed-form metric is singular"),
        ],
        ids=["nan", "singular"],
    )
    def test_metric_lost_to_floats_exit_1(self, capsys, monkeypatch, a, point, error):
        monkeypatch.setattr("sys.stdin", io.StringIO(point))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", "--m", "1", f"--a={a}", "--metric")
        assert code == 1 and err == ""
        assert json.loads(out)["error"].startswith(f"ConditioningError: {error}")

    def test_flat_metric_survives_underflowing_r_squared(self, capsys, monkeypatch):
        # At a = 0, u'' is 0 even where r^2 underflows and a^m / r^2 is 0/0.
        monkeypatch.setattr("sys.stdin", io.StringIO("[[0, 2.2e-162]]"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", "--m", "1", "--a=0", "--metric")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["profile"]["u_double_prime"] == 0
        assert report["g"] == report["g_inv"] == [[[1, 0]]]

    def test_underflowing_r_is_reported_as_r(self, capsys, monkeypatch):
        # r = 1e-600 underflows to 0; at --a -1 the domain bound r^m > a^m holds.
        monkeypatch.setattr("sys.stdin", io.StringIO("[[1e-300, 0]]"))
        code, out, _ = run(capsys, "eval", "--m", "1", "--a=-1", "--metric")
        assert code == 1
        assert json.loads(out)["error"] == "DomainError: r = 0 <= 0"

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


def _refuse_constant(name):
    raise ValueError(f"bare {name} in a report")


def _is_point(value, m) -> bool:
    """Whether value is m [re, im] pairs of JSON numbers, booleans excluded."""
    return (
        type(value) is list
        and len(value) == m
        and all(type(p) is list and len(p) == 2 for p in value)
        and all(type(x) in (int, float) for p in value for x in p)
    )


# JSON values of mixed types: huge and subnormal numbers, non-finite floats
# (json writes them as NaN and Infinity), booleans, null, strings.
_NUMBERS = st.one_of(
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.sampled_from([5e-324, 1e-310, 1e-200, 2.2e-162, 1e-160, 1e-100, 0.5, 1e150, 1e308]),
)
_SCALARS = st.one_of(_NUMBERS, st.booleans(), st.none(), st.text(max_size=3))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner),
    max_leaves=12,
)
_DEEP = "[" * 5000 + "]" * 5000


@st.composite
def _eval_inputs(draw):
    """(m, argv, stdin) for eval: points and elements of the right shape,
    near misses and arbitrary JSON, as text."""
    m = draw(st.integers(1, 3))
    pair = st.lists(_NUMBERS | _SCALARS, min_size=2, max_size=2)
    point = st.lists(pair, min_size=m, max_size=m) | st.lists(pair, max_size=4) | _VALUES
    stdin = draw(point.map(json.dumps) | st.just(_DEEP))
    if draw(st.booleans()):
        mode = ["--metric"]
    else:
        entry = st.lists(_NUMBERS.map(str) | _NUMBERS | _SCALARS, min_size=2, max_size=2)
        square = lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        coeff = st.integers(0, 4).flatmap(square)
        spec = st.fixed_dictionaries({"coeff": coeff}, optional={"constant": entry}) | _VALUES
        mode = ["--element", draw(spec.map(json.dumps) | st.just('{"coeff": ' + _DEEP + "}"))]
    a = draw(st.sampled_from(["0", "1", "-1", "0.5"]))
    return m, ["eval", "--m", str(m), f"--a={a}", *mode], stdin


def _main_quietly(argv, stdin=""):
    """(exit code, stdout, stderr) of main(argv) with stdin, warnings as
    errors, since a real run would print them on stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, out, err) -> bool:
    """One JSON report line (no NaN or Infinity) with exit 0 or 1 and nothing
    on stderr, or a usage error with exit 2 and nothing on stdout; whether
    there is a report."""
    if code in (0, 1):
        assert err == ""
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out, parse_constant=_refuse_constant)
        return True
    assert code == 2
    assert out == "" and "usage:" in err
    return False


@settings(max_examples=200, deadline=None)
@given(_eval_inputs())
def test_eval_contract(inputs):
    """Every eval input ends in one JSON report line with exit 0 or 1 and
    nothing on stderr, or in a usage error with exit 2 and nothing on stdout;
    a point that is not --m pairs of JSON numbers, or an element that is not
    --m x --m, is a usage error."""
    m, argv, stdin = inputs
    if _assert_contract(*_main_quietly(argv, stdin)):
        assert _is_point(json.loads(stdin), m)
        if "--element" in argv:
            coeff = json.loads(argv[-1])["coeff"]
            assert len(coeff) == m and all(len(row) == m for row in coeff)


def _size_word(small):
    """An integer option's text: a small value, an integer far past every
    limit, or a word that is not an integer."""
    huge = st.sampled_from([10**30, -(10**30), 2**63, 2**64 + 1, 10**4000])
    words = st.sampled_from(["", " ", "x", "1.5", "1e3", "nan", "inf", "0x10", "--", "-", "=2"])
    return st.one_of(small.map(str), huge.map(str), words, st.text(max_size=3))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([("dirac", "--l"), ("spectrum", "--lmax")]),
    _size_word(st.integers(-1, 5)),
    _size_word(st.integers(-1, 6)),
)
def test_dirac_and_spectrum_contract(command, m, l):
    """Every dirac and spectrum input ends in one JSON report line with exit
    0 or 1 and nothing on stderr, or in a usage error with exit 2 and
    nothing on stdout; the options below their minimums, sizes past the
    limits and words that are not integers are usage errors."""
    name, degree = command
    if _assert_contract(*_main_quietly([name, "--m", m, degree, l])):
        assert int(m) >= 1 and int(l) >= 0


class TestRenderJson:
    def test_finite_values(self):
        text = _render_json({"x": 0.1, "n": [1, True, None], "s": "a"})
        assert text == '{"x": 0.10000000000000001, "n": [1, true, null], "s": "a"}'
        assert json.loads(text)["x"] == 0.1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            _render_json({"residuals": [1.0, value]})
