import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin.algebra import COMPONENT_CAP, gen
from berezin.calculus import SupersmoothFunction
from berezin import cli
from berezin.cli import PARAMS, QUANTITIES, SUBCOMMANDS, build_parser, main
from berezin import feynman_kac
from berezin.feynman_kac import EXAMPLE_NAMES, example_hamiltonian, fk_evolve, fk_operator
from berezin.wiener import Partition


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_verify_algebra_exits_cleanly(capsys):
    code, out = run_cli(capsys, "verify", "algebra")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert out.strip().endswith("checks passed")


def test_verify_json_format(capsys):
    code, out = run_cli(capsys, "verify", "wiener", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert all(check["passed"] for check in payload["checks"])
    names = [check["name"] for check in payload["checks"]]
    assert any("semigroup p(0.3)*p(0.7)=p(1.0)" in name for name in names)


def test_verify_fk_covers_the_kernel_comparison(capsys):
    code, out = run_cli(capsys, "verify", "fk", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = [check["name"] for check in payload["checks"]]
    assert "reference kernels match the operator exponential" in names


def test_kernel_report_for_the_linear_drift(capsys):
    code, out = run_cli(capsys, "kernel", "ou", "--t", "1", "--n", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["hamiltonian"] == "ou"
    assert payload["max_abs_error"]["oracle_vs_closed_form"] < 1e-9
    # the evolved kernel carries the reference coefficients
    closed = payload["closed_form_coefficients"]
    assert closed["v1.1 v1.2"][0] == pytest.approx(1.0)
    assert closed["1"][0] == pytest.approx((1 - np.exp(-2.0)) / 2)


@pytest.mark.parametrize("option", [("ou", "--r", "1e-8"), ("ou", "--r", "1e-300"), ("quartic", "--b", "1e-9")])
def test_kernel_closed_form_checks_hold_at_small_rates(capsys, option):
    code, out = run_cli(capsys, "kernel", *option, "--n", "64")
    assert code == 0
    assert json.loads(out)["checks"][0]["value"] <= 1e-12


def test_kernel_flat_single_step_is_error_free(capsys):
    code, out = run_cli(capsys, "kernel", "flat", "--t", "1", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_abs_error"]["fk_vs_oracle"][0] <= 1e-12
    assert payload["max_abs_error"]["fk_vs_closed_form"] <= 1e-12


def test_kernel_error_column_halves_for_the_oscillator(capsys):
    code, out = run_cli(capsys, "kernel", "oscillator", "--t", "1", "--n", "8,16,32,64")
    assert code == 0
    payload = json.loads(out)
    errors = payload["max_abs_error"]["fk_vs_oracle"]
    for a, b in zip(errors, errors[1:]):
        assert 1.7 <= a / b <= 2.3
    ratio_check = [c for c in payload["checks"] if "halves" in c["name"]]
    assert ratio_check and ratio_check[0]["passed"]


def test_kernel_quartic_reports_the_known_gap(capsys):
    code, out = run_cli(capsys, "kernel", "quartic", "--t", "1", "--n", "8")
    assert code == 0
    payload = json.loads(out)
    note = payload["known_discrepancy"]
    assert note["reference_minus_oracle"] == pytest.approx(1 - np.exp(-2.0))
    assert payload["max_abs_error"]["oracle_vs_closed_form"] == pytest.approx(1 - np.exp(-2.0))


def test_kernel_reports_are_deterministic(capsys):
    _, first = run_cli(capsys, "kernel", "flat", "--t", "1", "--n", "2")
    _, second = run_cli(capsys, "kernel", "flat", "--t", "1", "--n", "2")
    a, b = json.loads(first), json.loads(second)
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_converge_table_extrapolates_the_linear_drift_moment(capsys):
    code, out = run_cli(capsys, "converge", "--quantity", "ou_xx", "--n", "8,16,32,64")
    assert code == 0
    rows = list(csv.reader(out.strip().splitlines()))
    assert rows[0] == ["N", "dt", "quantity", "value_re", "value_im", "error_vs_extrapolate"]
    assert rows[-1][0] == "extrapolate"
    assert float(rows[-1][3]) == pytest.approx((1 - np.exp(-2.0)) / 2, abs=2e-3)


def test_converge_flat_quantity_is_a_constant_column(capsys):
    code, out = run_cli(capsys, "converge", "--quantity", "flat_c0", "--n", "2,4,8")
    assert code == 0
    rows = list(csv.reader(out.strip().splitlines()))[1:-1]
    values = {float(row[3]) for row in rows}
    assert all(abs(v - 1.0) <= 1e-12 for v in values)


def test_converge_oscillator_constant_heads_to_sinh(capsys):
    code, out = run_cli(
        capsys, "converge", "--quantity", "oscillator_c0", "--n", "16,32,64", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["extrapolate"][0] == pytest.approx(np.sinh(1.0), abs=5e-4)


def test_moments_table(capsys):
    code, out = run_cli(capsys, "moments", "--times", "0.5,1.0")
    assert code == 0
    rows = list(csv.reader(out.strip().splitlines()))
    assert rows[0] == ["time", "monomial", "re", "im"]
    lookup = {(row[0], row[1]): float(row[2]) for row in rows[1:]}
    assert lookup[("0.5", "b1*b2")] == pytest.approx(0.5)
    assert lookup[("1.0", "b1")] == 0.0


# Numbers far below 1e-14 are exact results, not noise, and are reported as
# they are.


def test_moments_at_a_tiny_time(capsys):
    code, out = run_cli(capsys, "moments", "--times", "1e-20")
    assert code == 0
    lookup = {row[1]: float(row[2]) for row in csv.reader(out.strip().splitlines()[1:])}
    assert lookup["b1*b2"] == 1e-20


def test_converge_at_a_tiny_time(capsys):
    code, out = run_cli(capsys, "converge", "--quantity", "ou_xx", "--n", "4,8", "--t", "1e-300", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for re, im in payload["values"] + [payload["extrapolate"]]:
        assert re == pytest.approx(1e-300, rel=1e-12, abs=0.0) and im == 0.0


def test_kernel_whose_coefficients_are_all_tiny(capsys):
    code, out = run_cli(capsys, "kernel", "flat_potential", "--lam", "40", "--n", "64,128")
    assert code == 0
    payload = json.loads(out)
    kernel, closed = payload["kernel_coefficients"], payload["closed_form_coefficients"]
    assert len(kernel) == 5 and kernel.keys() == closed.keys()
    for key, (re, im) in kernel.items():
        assert abs(re) == pytest.approx(np.exp(-40.0), rel=1e-12, abs=0.0) and im == 0.0
        assert re == pytest.approx(closed[key][0], rel=1e-12, abs=0.0)


def test_kernel_round_off_below_the_old_cut_is_reported(capsys):
    code, out = run_cli(capsys, "kernel", "flat_potential", "--lam", "25", "--n", "64,128")
    assert code == 0
    errors = json.loads(out)["max_abs_error"]["fk_vs_oracle"]
    assert all(0.0 < e < 1e-20 for e in errors)  # about 1.5e-24 against coefficients of e^-25


@pytest.mark.parametrize(
    "argv",
    (
        ["flat_potential", "--lam=-20", "--n", "64,128,256,512,1024"],
        ["oscillator", "--t", "20", "--n", "1024,2048,4096"],
        ["flat_potential", "--lam=-30", "--t", "2", "--n", "64,128,256"],
        ["oscillator", "--t", "20", "--n", "4096"],
    ),
    ids=("flat_potential-lam-20", "oscillator-t20", "flat_potential-lam-30", "oscillator-t20-one-grid"),
)
def test_kernel_judges_a_large_kernel_against_its_size(capsys, argv):
    # The oracle and the closed form differ by 1e-15 relative, 3.6e-6 absolute
    # at --lam -20 (largest coefficient 4.9e8): an absolute 1e-9 failed them.
    code, out = run_cli(capsys, "kernel", *argv)
    assert code == 0
    assert all(check["passed"] for check in json.loads(out)["checks"])


def test_kernel_past_the_first_order_regime_fails_only_its_ratio_check(capsys):
    # dt = 0.47: the error does not yet halve per doubling.  The closed-form
    # gap, 0.0195 on a kernel of size about e^30, is round-off.
    code, out = run_cli(capsys, "kernel", "oscillator", "--t", "30", "--n", "64,128")
    assert code == 1
    failed = [check["name"] for check in json.loads(out)["checks"] if not check["passed"]]
    assert failed == ["fk-vs-oracle error halves per grid doubling"]


@pytest.mark.parametrize(
    "factor, argv",
    (
        (1 + 1e-8, ["ou"]),
        (1 + 1e-8, ["flat_potential", "--lam=-20", "--n", "64,128"]),
        (2.0, ["flat_potential", "--lam", "40", "--n", "64,128"]),
    ),
    ids=("ou", "flat_potential-lam-20", "flat_potential-lam40"),
)
def test_kernel_fails_a_closed_form_off_by_a_relative_error(capsys, monkeypatch, factor, argv):
    # At --lam 40 every coefficient is about 4e-18: an absolute 1e-9 passed a
    # closed form off by 100 %.
    closed_form = cli.closed_form_kernel

    def scaled(*args, **params):
        kernel = closed_form(*args, **params)
        return SupersmoothFunction(kernel.body * factor, kernel.variables)

    monkeypatch.setattr(cli, "closed_form_kernel", scaled)
    code, out = run_cli(capsys, "kernel", *argv)
    assert code == 1
    checks = json.loads(out)["checks"]
    assert not checks[0]["passed"] and all(check["passed"] for check in checks[1:])


def test_kernel_has_no_tolerance_option(capsys):
    assert "--tol" not in build_parser("kernel")[1]["kernel"].format_help()
    with pytest.raises(SystemExit) as exit_info:
        main(["kernel", "ou", "--n", "8", "--tol", "1e-6"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --tol 1e-6" in capsys.readouterr().err


def test_output_file_and_config_precedence(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"t": 2.0, "n": "4"}))
    out_file = tmp_path / "report.json"
    code = main(
        ["kernel", "flat", "--config", str(config), "--t", "1.0", "--out", str(out_file)]
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["t"] == 1.0  # the flag wins over the config value
    assert payload["N"] == [4]  # the config fills what the flag left unset


def test_bad_grid_list_is_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["kernel", "flat", "--n", "8,4"])


def test_unknown_suite_is_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "everything"])


def test_converge_oscillator_extrapolates_at_second_order(capsys):
    code, out = run_cli(
        capsys, "converge", "--quantity", "oscillator_c0", "--n", "8,16,32,64", "--format", "json"
    )
    assert code == 0
    assert abs(json.loads(out)["extrapolate"][0] - np.sinh(1.0)) <= 1e-6


def test_converge_extrapolates_with_the_actual_grid_ratio(capsys):
    code, out = run_cli(
        capsys, "converge", "--quantity", "ou_xx", "--n", "12,16,24,32", "--format", "json"
    )
    assert code == 0
    assert abs(json.loads(out)["extrapolate"][0] - (1 - np.exp(-2.0)) / 2) <= 1e-3


def test_kernel_ratio_check_uses_the_actual_grid_ratio(capsys):
    code, out = run_cli(capsys, "kernel", "oscillator", "--n", "48,64")
    assert code == 0
    payload = json.loads(out)
    first, second = payload["max_abs_error"]["fk_vs_oracle"]
    assert first / second == pytest.approx(64 / 48, abs=0.01)
    ratio_check = [c for c in payload["checks"] if "halves" in c["name"]]
    assert ratio_check and ratio_check[0]["passed"]


def test_config_file_sets_any_option_of_its_subcommand(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"quantity": "flat_c0", "n": "2,4", "format": "json"}))
    code, out = run_cli(capsys, "converge", "--config", str(config), "--n", "4,8")
    assert code == 0
    payload = json.loads(out)
    assert payload["quantity"] == "flat_c0"  # a config entry for an option with a default
    assert payload["N"] == [4, 8]  # the flag wins over the config value


@pytest.mark.parametrize("key", ("tol", "func", "hamiltonian", "config"))
def test_config_key_that_names_no_option_is_refused(tmp_path, capsys, key):
    # A deleted option, an internal attribute, a positional argument and the
    # config option itself: each is refused, as its flag would be.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: "1e-6", "n": "8"}))
    with pytest.raises(SystemExit) as exit_info:
        main(["kernel", "ou", "--config", str(config)])
    assert exit_info.value.code == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", (["converge", "--quantity", "flat_c0", "--n", "2,4"], ["kernel", "flat", "--n", "2"])
)
def test_config_value_outside_the_choices_is_rejected(tmp_path, capsys, command):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"format": "xml"}))
    with pytest.raises(SystemExit) as exit_info:
        main(command + ["--config", str(config)])
    assert exit_info.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("value", ([1], "one", True, None))
def test_config_value_of_the_wrong_type_is_rejected(tmp_path, capsys, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"t": value}))
    with pytest.raises(SystemExit) as exit_info:
        main(["kernel", "flat", "--n", "2", "--config", str(config)])
    assert exit_info.value.code == 2
    assert "--t" in capsys.readouterr().err


@pytest.mark.parametrize("via_config", (False, True), ids=("flag", "config"))
@pytest.mark.parametrize(
    "command, option, value",
    (
        (["converge"], "n", "8,x"),
        (["kernel", "ou"], "n", "4,x"),
        (["moments"], "times", "0.5,abc"),
        (["moments"], "m", "3"),
    ),
    ids=("converge-n", "kernel-n", "moments-times", "moments-m"),
)
def test_malformed_option_value_exits_2_and_names_the_option(
    tmp_path, capsys, command, option, value, via_config
):
    if via_config:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({option: value}))
        argv = command + ["--config", str(config)]
    else:
        argv = command + [f"--{option}", value]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument --{option}:" in capsys.readouterr().err


@pytest.mark.parametrize("via_config", (False, True), ids=("flag", "config"))
@pytest.mark.parametrize(
    "command, option, value",
    (
        (["converge", "--quantity", "quartic_xx"], "c", "0"),
        (["converge"], "t", "0"),
        (["converge"], "t", "nan"),
        (["kernel", "ou"], "r", "0"),
        (["kernel", "flat"], "t", "-1"),
        (["kernel", "quartic"], "b", "0"),
    ),
    ids=("converge-c", "converge-t", "converge-t-nan", "kernel-ou-r", "kernel-flat-t", "kernel-quartic-b"),
)
def test_out_of_range_hamiltonian_option_exits_2_and_names_the_option(
    tmp_path, capsys, command, option, value, via_config
):
    if via_config:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({option: value, "n": "2"}))
        argv = command + ["--config", str(config)]
    else:
        argv = command + ["--n", "2", f"--{option}", value]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --{option}:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("via_config", (False, True), ids=("flag", "config"))
@pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
@pytest.mark.parametrize(
    "command, option",
    (
        (["converge", "--quantity", "ou_xx"], "r"),
        (["converge", "--quantity", "quartic_xx"], "c"),
        (["converge", "--quantity", "quartic_xx"], "b"),
        (["kernel", "flat_potential"], "lam"),
    ),
    ids=("converge-ou-r", "converge-quartic-c", "converge-quartic-b", "kernel-flat_potential-lam"),
)
def test_non_finite_hamiltonian_option_exits_2_and_names_the_option(
    tmp_path, capsys, command, option, value, via_config
):
    # A NaN coefficient fails the keep test; dropped rather than refused, it
    # would leave a plausible number and exit 0.
    if via_config:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({option: float(value), "n": "2,4"}))  # NaN and Infinity literals
        argv = command + ["--config", str(config)]
    else:
        argv = command + ["--n", "2,4", f"--{option}={value}"]  # "--b -inf" would read -inf as a flag
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --{option}: the value must be a finite number" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    (
        ["kernel", "flat_potential", "--lam", "1e308", "--n", "2"],
        ["kernel", "flat_potential", "--lam=-1e308", "--n", "2"],
        ["kernel", "oscillator", "--t", "1e308", "--n", "2"],
        ["kernel", "ou", "--t", "1.7e308", "--n", "2"],
    ),
    ids=("lam", "negative-lam", "t", "t-overflows-tH"),
)
def test_kernel_past_the_operator_exponential_exits_2_and_names_the_options(capsys, argv):
    # -tH had a one-norm whose squaring count overflowed: an OverflowError
    # traceback.  At t = 1.7e308, -tH itself overflowed with a numpy warning.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "argument --t: the matrix exponential needs a one-norm below 2**1022" in captured.err
    assert "lower --t or the Hamiltonian options (--r, --c, --b, --lam)" in captured.err
    assert captured.out == ""


def test_kernel_whose_exponential_overflows_exits_2_and_names_the_options(capsys):
    # e^800 overflowed both kernels to inf; their NaN differences fell to the
    # prune, and "fk kernel within first-order error of the oracle" passed at 0.0.
    with pytest.raises(SystemExit) as exit_info:
        main(["kernel", "flat_potential", "--lam=-800", "--n", "2"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "argument --t: the matrix exponential of a matrix with one-norm 801.0 overflows" in captured.err
    assert "lower --t or the Hamiltonian options (--r, --c, --b, --lam)" in captured.err
    assert captured.out == ""


def test_kernel_whose_closed_form_constant_overflows_reports_it_and_fails(capsys):
    # c^2/(2b) (e^{-2bt} - 1) overflowed with a numpy RuntimeWarning.
    code, out = run_cli(capsys, "kernel", "quartic", "--n", "1", "--b=-321", "--c", "1e17")
    assert code == 1
    payload = json.loads(out)
    assert payload["closed_form_coefficients"]["1"] == [-np.inf, 0.0]
    assert payload["checks"][0]["value"] == np.inf and not payload["checks"][0]["passed"]


@pytest.mark.parametrize("t", ("5e-324", "1e-200"))
def test_kernel_whose_closed_form_overflows_at_a_tiny_time_exits_2(capsys, t):
    # At the subnormal t, 1/sinh t overflowed with a numpy RuntimeWarning
    # ahead of the refusal; both times, which lie below the finite kernel's
    # edge near 1.05e-154, were refused as a NaN with the advice to lower --t.
    with pytest.raises(SystemExit) as exit_info:
        main(["kernel", "oscillator", "--t", t, "--n", "1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "Warning" not in captured.err
    assert captured.err.splitlines()[-1].endswith(f"overflows at t = {float(t)!r}: raise --t")
    assert captured.out == ""


def test_kernel_at_a_tiny_time_whose_closed_form_stays_finite_exits_0(capsys):
    assert main(["kernel", "oscillator", "--t", "1e-150", "--n", "1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "rate, grids", (("1e160", "1,2,4"), ("1e100", "1,2,4"), ("1e160", "1")), ids=("1e160", "1e100", "1e160-n1")
)
def test_converge_whose_grid_values_overflow_exits_2_and_names_the_options(capsys, rate, grids):
    # (1 - r dt)^2 overflowed in the slice map, the weight product made the
    # term NaN and the prune dropped it: --r 1e160 printed 1.0, 0.5 and 0.25,
    # --r 1e100 printed 1.0, 1.25e199 and 0.0, and both exited 0.  The weight
    # of a zero potential is 1, but skipping its product printed 1.0 for
    # --n 1 --r 1e160.
    with pytest.raises(SystemExit) as exit_info:
        main(["converge", "--quantity", "ou_xx", "--n", grids, "--r", rate])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "non-finite coefficient (nan+nanj) of the monomial η[1]η[2]" in captured.err
    assert "lower --t or the Hamiltonian options (--r, --c, --b, --lam)" in captured.err
    assert captured.out == ""


def test_kernel_whose_slice_product_overflows_exits_2_with_only_the_refusal(capsys):
    # The matmul chain of fk_operator overflowed with numpy RuntimeWarnings
    # ahead of the refusal; under warnings-as-errors it crashed with exit 1.
    with pytest.raises(SystemExit) as exit_info:
        main(["kernel", "quartic", "--n", "1,2", "--b", "1e160"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: berezin kernel ")
    assert "Warning" not in captured.err
    assert "non-finite coefficient (nan+nanj) of the monomial η[1]η[2]" in captured.err
    assert "lower --t or the Hamiltonian options (--r, --c, --b, --lam)" in captured.err
    assert captured.out == ""


def test_kernel_just_below_the_overflow_reports_finite_numbers(capsys):
    def refuse(constant):
        raise AssertionError(f"non-finite literal {constant} in the report")

    code = main(["kernel", "flat_potential", "--lam=-700", "--n", "2", "--format", "json"])
    assert code in (0, 1)
    report = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert all(np.isfinite(report["max_abs_error"]["fk_vs_oracle"]))


@pytest.mark.parametrize(
    "argv",
    (
        ["converge", "--quantity", "flat_c0", "--t", "1e308", "--n", "1,2"],
        ["converge", "--quantity", "flat_c0", "--t", "5e-324", "--n", "2,4"],
        ["kernel", "flat", "--t", "5e-324", "--n", "2,4"],
    ),
    ids=("converge-overflow", "converge-collapse", "kernel-collapse"),
)
def test_a_grid_whose_nodes_overflow_or_collapse_exits_2_and_names_t_and_n(capsys, argv):
    # 2 * 1e308 overflows, and 5e-324 / 2 rounds to 0, so the partition
    # refuses its nodes.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage: berezin {argv[0]} ")
    assert "error: argument --t: partition nodes must be finite and strictly increasing" in captured.err
    assert "change --t or --n" in captured.err
    assert captured.out == ""


def test_brownian_dimension_above_the_component_cap_is_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["moments", "--m", "10"])
    assert exit_info.value.code == 2
    assert "from 2 to 8" in capsys.readouterr().err


@pytest.mark.parametrize("quantity", tuple(QUANTITIES))
def test_converge_values_are_a_fresh_fk_evolve_per_grid(capsys, quantity):
    # converge evolves every grid through one slice map; the values must be
    # those of a fresh fk_evolve per grid, bit for bit, on grids that share
    # widths with no other grid and at a t whose slice widths are not dyadic.
    params = {**PARAMS, "t": 0.7, "r": 0.9, "c": 1.1, "b": 0.6, "lam": 0.3}
    grids = (3, 5, 12, 20)
    argv = ["converge", "--quantity", quantity, "--n", ",".join(map(str, grids)), "--format", "json"]
    code, out = run_cli(capsys, *argv, *(f"--{key}={value!r}" for key, value in params.items()))
    assert code == 0
    name, slot, _ = QUANTITIES[quantity]
    h = example_hamiltonian(name, r=params["r"], c=params["c"], b=params["b"], lam=params["lam"])
    top = gen(h.variables[0]) * gen(h.variables[1])
    fresh = [fk_evolve(h, top, Partition.uniform(params["t"], n)).coefficient(slot) for n in grids]
    assert repr(json.loads(out)["values"]) == repr([[v.real, v.imag] for v in fresh])


@pytest.mark.parametrize("command", tuple(SUBCOMMANDS))
def test_the_one_subcommand_parser_has_the_full_parsers_help_and_usage(command):
    full, full_commands = build_parser()
    one, one_commands = build_parser(command)
    assert list(one_commands) == [command]
    assert one_commands[command].format_help() == full_commands[command].format_help()
    assert one.format_usage() == full.format_usage()


# Help and error paths of argv that names a subcommand, which main parses
# with that subcommand's parser alone.
HELP_AND_ERRORS = (
    ["verify", "--help"],
    ["kernel", "-h"],
    ["converge", "-h"],
    ["moments", "-h"],
    ["converge", "--bogus", "1"],
    ["kernel", "flat", "--bogus"],
    ["verify", "algebra", "extra"],
    ["converge", "verify"],
    ["verify"],
    ["kernel"],
    ["kernel", "bogus"],
    ["converge", "--quantity", "bogus"],
    ["converge", "--n", "2,1"],
    ["converge", "--n"],
    ["moments", "--m", "3"],
    ["verify", "--seed", "x", "all"],
    ["kernel", "flat", "--format", "xml"],
)


@pytest.mark.parametrize("argv", HELP_AND_ERRORS, ids=" ".join)
def test_the_one_subcommand_parser_answers_as_the_full_parser(capsys, argv):
    outcomes = []
    for command in (None, argv[0]):
        parser, _ = build_parser(command)
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv)
        captured = capsys.readouterr()
        outcomes.append((exit_info.value.code, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]


def test_an_unrecognized_argument_prints_the_full_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["converge", "--bogus", "1"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        "usage: berezin [-h] {verify,kernel,converge,moments} ...\n"
        "berezin: error: unrecognized arguments: --bogus 1\n"
    )


@pytest.mark.parametrize(
    "argv, code, line",
    (
        ([], 2, "berezin: error: the following arguments are required: command"),
        (["conv"], 2, "berezin: error: argument command: invalid choice: 'conv'"),
        (["-h"], 0, "  {verify,kernel,converge,moments}"),
    ),
    ids=("none", "unknown", "help"),
)
def test_help_and_an_unknown_command_get_the_full_parser(capsys, argv, code, line):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == code
    captured = capsys.readouterr()
    assert line in captured.out + captured.err
    if argv == ["-h"]:
        assert all(help_text in captured.out for help_text, _, _ in SUBCOMMANDS.values())


def test_kernel_builds_one_slice_map_per_call(capsys, monkeypatch):
    # kernel runs every grid through one operator map, as converge runs its
    # grids through one evolution map; the shared map's operators are a
    # fresh fk_operator's bit for bit.
    builds = []
    build = feynman_kac._slice_map
    monkeypatch.setattr(feynman_kac, "_slice_map", lambda h: builds.append(h) or build(h))
    code, _ = run_cli(capsys, "kernel", "ou", "--n", "8,16,32", "--format", "json")
    assert code == 0
    assert len(builds) == 1
    monkeypatch.undo()
    h = example_hamiltonian("ou")
    operator = feynman_kac._operator_map(h)
    for t in (1.0, 0.7):
        for n in (8, 16, 32):
            partition = Partition.uniform(t, n)
            assert operator(partition).matrix.tobytes() == fk_operator(h, partition).matrix.tobytes(), (t, n)


# The domain the parser accepts, extremes included, with small grids; moderate
# values are drawn as often, so that most calls end in a report.
GRIDS = st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True).map(lambda n: ",".join(map(str, sorted(n))))
TIMES = st.floats(5e-324, 1.7e308) | st.floats(1e-3, 40.0)
VALUES = st.floats(-1e160, 1.7e308) | st.floats(-50.0, 50.0)


@st.composite
def cli_calls(draw):
    """A subcommand and its options: each Hamiltonian option set or left at its default."""
    command = draw(st.sampled_from(("converge", "kernel", "moments")))
    if command == "moments":
        times = draw(st.lists(TIMES, min_size=1, max_size=3))
        options = {
            "times": ",".join(map(str, times)),
            "m": draw(st.sampled_from(range(2, COMPONENT_CAP + 1, 2))),
            "format": draw(st.sampled_from(("csv", "json"))),
        }
        return [command], options
    options = {key: draw(st.none() | (TIMES if key == "t" else VALUES)) for key in PARAMS}
    options = {key: value for key, value in options.items() if value is not None}
    options["n"] = draw(GRIDS)
    if command == "kernel":
        return [command, draw(st.sampled_from(EXAMPLE_NAMES))], {**options, "format": "json"}
    options["format"] = draw(st.sampled_from(("csv", "json")))
    return [command, "--quantity", draw(st.sampled_from(tuple(QUANTITIES)))], options


@settings(derandomize=True, deadline=None, max_examples=400)
@given(cli_calls())
def test_every_accepted_input_ends_in_a_report_or_exit_2(call):
    head, options = call
    argv = head + [f"--{key}={value}" for key, value in options.items()]  # "=" keeps "-1e160" a value
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        message = err.getvalue().splitlines()[-1]
        assert out.getvalue() == "" and any(f"--{key}" in message for key in options), (argv, message)
    elif head[0] == "kernel":
        failed = [check for check in json.loads(out.getvalue())["checks"] if not check["passed"]]
        assert code == (1 if failed else 0), argv
    else:
        assert code == 0, argv
