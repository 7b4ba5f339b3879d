"""Command-line front end.

Subcommands: ``verify`` (run a named check suite), ``kernel`` (evolution
kernels of the worked Hamiltonians with pairwise errors), ``converge``
(refinement table of one tracked number with a Richardson extrapolate),
``moments`` (low-order path moments).  The extrapolate of ``converge``
uses the actual ratio of the last two grids and the order of the tracked
quantity.  A JSON config file (``--config``) may set any option of its
subcommand, keyed by option name; its values are checked like flags, and
explicit flags win.  Reports are deterministic for a fixed configuration,
except for the timestamp field of JSON reports.  Suite exit status is
nonzero when any checked tolerance fails.  No environment variable is read.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import sys
from typing import Sequence

import numpy as np

from .algebra import COMPONENT_CAP, element_to_json, gen
from .feynman_kac import (
    EXAMPLE_NAMES,
    ParameterError,
    closed_form_kernel,
    example_hamiltonian,
    fk_evolve,
    fk_operator,
    kernel_extract,
    oracle_kernel,
    state_variables,
)
from .verify import (
    SUITE_NAMES,
    RATIO_SLACK,
    Check,
    drop_round_off,
    ratio_deviation,
    richardson,
    run_suite,
)
from .wiener import Partition, WienerSpace, brownian_moment_rows

PARAMS = {"t": 1.0, "r": 1.0, "c": 1.0, "b": 1.0, "lam": 0.0}  # Hamiltonian options, defaults


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _option_values(text: str, convert, valid, rule: str) -> tuple:
    """argparse type check: every comma-separated part converts and ``valid`` accepts them all."""
    try:
        values = tuple(convert(part) for part in text.split(","))
    except ValueError:
        values = None
    if values is None or not valid(values):
        raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
    return values


def _grid_list(text: str) -> tuple[int, ...]:
    rule = "grid list must be strictly increasing positive integers"
    return _option_values(text, int, lambda n: n[0] >= 1 and all(b > a for a, b in zip(n, n[1:])), rule)


def _time_list(text: str) -> tuple[float, ...]:
    rule = "times must be positive finite numbers"
    return _option_values(text, float, lambda times: all(0 < t < np.inf for t in times), rule)


def _time(text: str) -> float:
    rule = "the time must be a positive finite number"
    return _option_values(text, float, lambda t: len(t) == 1 and 0 < t[0] < np.inf, rule)[0]


def _finite(text: str) -> float:
    rule = "the value must be a finite number"
    return _option_values(text, float, lambda x: len(x) == 1 and np.isfinite(x[0]), rule)[0]


def _brownian_dimension(text: str) -> int:
    rule = f"the Brownian dimension must be an even integer from 2 to {COMPONENT_CAP}"
    return _option_values(
        text, int, lambda m: len(m) == 1 and 2 <= m[0] <= COMPONENT_CAP and m[0] % 2 == 0, rule
    )[0]


def _check_json(check: Check) -> dict:
    return {
        "name": check.name,
        "value": check.value,
        "tolerance": check.tolerance,
        "passed": check.passed,
    }


# -- verify ---------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    seed = int(args.seed)
    checks = run_suite(args.suite, seed=seed)
    failed = [c for c in checks if not c.passed]
    if args.format == "json":
        payload = {
            "command": "verify",
            "suite": args.suite,
            "seed": seed,
            "checks": [_check_json(c) for c in checks],
            "failed": len(failed),
            "timestamp": _timestamp(),
        }
        _emit(_dump_json(payload), args.out)
    else:
        lines = [c.line() for c in checks]
        lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


# -- kernel ---------------------------------------------------------------


def cmd_kernel(args: argparse.Namespace) -> int:
    name = args.hamiltonian
    params = {k: float(getattr(args, k)) for k in PARAMS}
    grids = args.n
    tol = float(args.tol)
    t = params.pop("t")

    h = example_hamiltonian(name, **params)
    try:
        oracle = oracle_kernel(h, t)
    except ValueError as exc:  # -tH too large for the operator exponential
        options = ", ".join(f"--{key}" for key in PARAMS if key != "t")
        raise ParameterError("t", f"{exc}: lower --t or the Hamiltonian options ({options})") from None
    closed = closed_form_kernel(name, t, **params)
    fk_kernels = [kernel_extract(fk_operator(h, Partition.uniform(t, n))) for n in grids]

    fk_vs_oracle = [float((k.body - oracle.body).norm()) for k in fk_kernels]
    oracle_vs_closed = float((oracle.body - closed.body).norm())
    fk_vs_closed = float((fk_kernels[-1].body - closed.body).norm())

    if name == "quartic":
        top_gap = float(abs(np.expm1(-2.0 * params["b"] * t)))
        label = "reference closed form differs from the oracle by the known top-slot gap"
        checks = [Check(label, abs(oracle_vs_closed - top_gap), tol)]
    else:
        checks = [Check("oracle matches the reference closed form", oracle_vs_closed, tol)]
    if len(grids) > 1:
        # An exact route still carries round-off that grows with the slice count.
        floored = drop_round_off(fk_vs_oracle, grids[-1], oracle.body.norm())
        deviation = ratio_deviation(floored, grids)
        checks.append(Check("fk-vs-oracle error halves per grid doubling", deviation, RATIO_SLACK))
    else:
        bound = max(tol, 10.0 * t / grids[-1])
        checks.append(Check("fk kernel within first-order error of the oracle", fk_vs_oracle[-1], bound))

    payload = {
        "command": "kernel",
        "hamiltonian": name,
        "t": t,
        "params": params,
        "N": list(grids),
        "kernel_coefficients": element_to_json(fk_kernels[-1].body),
        "oracle_coefficients": element_to_json(oracle.body),
        "closed_form_coefficients": element_to_json(closed.body),
        "max_abs_error": {
            "fk_vs_oracle": fk_vs_oracle,
            "oracle_vs_closed_form": oracle_vs_closed,
            "fk_vs_closed_form": fk_vs_closed,
        },
        "checks": [_check_json(c) for c in checks],
        "timestamp": _timestamp(),
    }
    if name == "quartic":
        payload["known_discrepancy"] = {
            "slot": "top monomial of the output variables",
            "reference_minus_oracle": top_gap,
            "note": "the reference closed form carries a unit top-slot weight where the "
            "operator exponential decays; reported as-is",
        }

    if args.format == "csv":
        rows = [(n, t / n, "fk_vs_oracle", err) for n, err in zip(grids, fk_vs_oracle)]
        _emit(_csv_text(("N", "dt", "comparison", "max_abs_error"), rows), args.out)
    else:
        _emit(_dump_json(payload), args.out)
    return 0 if all(c.passed for c in checks) else 1


# -- converge -------------------------------------------------------------


# Tracked quantities: the example Hamiltonian evolving x1 x2, the monomial whose
# coefficient is read off the image (() reads its value at the zero start, for ou
# E[zeta1 zeta2]), and the order in N^-1 of the grid values' convergence
# (oscillator_c0: difference ratio 3.99 over N = 8...64).
QUANTITIES = {
    "ou_xx": ("ou", (), 1),
    "oscillator_c0": ("oscillator", (), 2),
    "flat_c0": ("flat", (), 1),
    "quartic_xx": ("quartic", state_variables(2), 1),
}


def _tracked_value(quantity: str, params: dict, steps: int) -> complex:
    name, slot, _ = QUANTITIES[quantity]
    h = example_hamiltonian(name, r=params["r"], c=params["c"], b=params["b"], lam=params["lam"])
    top = gen(h.variables[0]) * gen(h.variables[1])
    return fk_evolve(h, top, Partition.uniform(params["t"], steps)).coefficient(slot)


def cmd_converge(args: argparse.Namespace) -> int:
    quantity = args.quantity
    params = {k: float(getattr(args, k)) for k in PARAMS}
    grids = args.n

    values = [_tracked_value(quantity, params, n) for n in grids]
    extrapolate = richardson(grids, values, QUANTITIES[quantity][2])
    rows = [
        (n, params["t"] / n, quantity, v.real, v.imag, abs(v - extrapolate))
        for n, v in zip(grids, values)
    ]
    rows.append(("extrapolate", "", quantity, extrapolate.real, extrapolate.imag, 0.0))

    if args.format == "json":
        payload = {
            "command": "converge",
            "quantity": quantity,
            "params": params,
            "N": list(grids),
            "values": [[v.real, v.imag] for v in values],
            "extrapolate": [extrapolate.real, extrapolate.imag],
            "timestamp": _timestamp(),
        }
        _emit(_dump_json(payload), args.out)
    else:
        _emit(
            _csv_text(("N", "dt", "quantity", "value_re", "value_im", "error_vs_extrapolate"), rows),
            args.out,
        )
    return 0


# -- moments --------------------------------------------------------------


def cmd_moments(args: argparse.Namespace) -> int:
    rows = brownian_moment_rows(WienerSpace(args.m), args.times)
    if args.format == "json":
        payload = {
            "command": "moments",
            "m": args.m,
            "rows": [
                {"time": t, "monomial": mono, "re": re, "im": im} for t, mono, re, im in rows
            ],
            "timestamp": _timestamp(),
        }
        _emit(_dump_json(payload), args.out)
    else:
        _emit(_csv_text(("time", "monomial", "re", "im"), rows), args.out)
    return 0


# -- entry point ----------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="berezin",
        description="Exact anticommuting stochastic calculus and its evolution kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io_options = argparse.ArgumentParser(add_help=False)
    io_options.add_argument("--out", default=None)
    io_options.add_argument("--config", default=None, help="JSON object of option defaults")
    hamiltonian_options = argparse.ArgumentParser(add_help=False)
    for key, default in PARAMS.items():
        hamiltonian_options.add_argument(f"--{key}", type=_time if key == "t" else _finite, default=default)

    p_verify = sub.add_parser("verify", parents=[io_options], help="run a named verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--seed", type=int, default=2024)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_kernel = sub.add_parser(
        "kernel", parents=[io_options, hamiltonian_options], help="evolution kernel vs oracle and closed form"
    )
    p_kernel.add_argument("hamiltonian", choices=EXAMPLE_NAMES)
    p_kernel.add_argument("--n", type=_grid_list, default="16", help="comma-separated grid sizes")
    p_kernel.add_argument("--tol", type=float, default=1e-9)
    p_kernel.add_argument("--format", choices=("json", "csv"), default="json")
    p_kernel.set_defaults(func=cmd_kernel)

    p_conv = sub.add_parser(
        "converge", parents=[io_options, hamiltonian_options], help="refinement table with a Richardson extrapolate"
    )
    p_conv.add_argument("--quantity", choices=tuple(QUANTITIES), default="ou_xx")
    p_conv.add_argument("--n", type=_grid_list, default="8,16,32,64", help="comma-separated grid sizes")
    p_conv.add_argument("--format", choices=("csv", "json"), default="csv")
    p_conv.set_defaults(func=cmd_converge)

    p_mom = sub.add_parser("moments", parents=[io_options], help="low-order path moments as a table")
    p_mom.add_argument("--times", type=_time_list, default="0.25,0.5,1.0", help="comma-separated positive times")
    p_mom.add_argument("--m", type=_brownian_dimension, default=2)
    p_mom.add_argument("--format", choices=("csv", "json"), default="csv")
    p_mom.set_defaults(func=cmd_moments)

    return parser, sub.choices


def _config_flags(command: argparse.ArgumentParser, config: dict) -> list[str]:
    """Flags for the config entries that name options of ``command``.

    Each value goes in as the text of its flag, so argparse checks its type
    and choices as it checks a flag's; a value with no flag text (a list,
    an object, a boolean or null) is refused.
    """
    flags = []
    for action in command._actions:
        if not action.option_strings or action.dest in ("help", "config") or action.dest not in config:
            continue
        option, value = action.option_strings[0], config[action.dest]
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            command.error(f"argument {option}: invalid config value: {value!r}")
        flags.append(f"{option}={value}")
    return flags


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise SystemExit("the config file must hold a JSON object")
        # The file's entries go in as flags ahead of the given ones, so they
        # are checked like flags and a given flag still wins.
        argv = list(sys.argv[1:] if argv is None else argv)
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_flags(commands[args.command], config) + argv[at:])
    try:
        return args.func(args)
    except ParameterError as exc:  # raised while the command builds its Hamiltonian, before any output
        commands[args.command].error(f"argument --{exc.name}: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
