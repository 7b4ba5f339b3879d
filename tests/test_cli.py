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
