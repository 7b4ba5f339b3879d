import csv
import json

import numpy as np
import pytest

from berezin.cli import main


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
    config.write_text(json.dumps({"quantity": "flat_c0", "n": "2,4", "format": "json", "func": 0}))
    code, out = run_cli(capsys, "converge", "--config", str(config), "--n", "4,8")
    assert code == 0
    payload = json.loads(out)
    assert payload["quantity"] == "flat_c0"  # a config entry for an option with a default
    assert payload["N"] == [4, 8]  # the flag wins over the config value


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
    # A NaN coefficient fails the prune test and is dropped, so these inputs
    # would otherwise print a plausible number and exit 0.
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
    ),
    ids=("lam", "negative-lam", "t"),
)
def test_kernel_past_the_operator_exponential_exits_2_and_names_the_options(capsys, argv):
    # -tH had a one-norm whose squaring count overflowed: an OverflowError traceback.
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


def test_kernel_just_below_the_overflow_reports_finite_numbers(capsys):
    def refuse(constant):
        raise AssertionError(f"non-finite literal {constant} in the report")

    code = main(["kernel", "flat_potential", "--lam=-700", "--n", "2", "--format", "json"])
    assert code in (0, 1)
    report = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert all(np.isfinite(report["max_abs_error"]["fk_vs_oracle"]))


def test_brownian_dimension_above_the_component_cap_is_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["moments", "--m", "10"])
    assert exit_info.value.code == 2
    assert "from 2 to 8" in capsys.readouterr().err
