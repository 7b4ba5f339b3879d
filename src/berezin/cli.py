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

from .algebra import COMPONENT_CAP, NonFiniteCoefficient, element_to_json, gen
from .feynman_kac import (
    EXAMPLE_NAMES,
    ParameterError,
    closed_form_kernel,
    example_hamiltonian,
    kernel_extract,
    oracle_kernel,
    quartic_top_gap,
    state_variables,
    _evolve_map,
    _operator_map,
)
from .verify import SUITE_NAMES, RATIO_SLACK, Check, refinement, run_suite
from .wiener import Partition, WienerSpace, brownian_moment_rows

PARAMS = {"t": 1.0, "r": 1.0, "c": 1.0, "b": 1.0, "lam": 0.0}  # Hamiltonian options, defaults
KERNEL_RTOL = 1e-9  # kernel's tolerances, relative to the oracle kernel's largest coefficient


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


def _lower_the_options(exc: ValueError) -> str:
    """The message of an overflow that the Hamiltonian options caused."""
    options = ", ".join(f"--{key}" for key in PARAMS if key != "t")
    return f"{exc}: lower --t or the Hamiltonian options ({options})"


def _grid(t: float, n: int) -> Partition:
    """The uniform grid of ``n`` slices on [0, t]; where its nodes overflow
    or collapse, a ``ParameterError`` that names --t and --n."""
    try:
        return Partition.uniform(t, n)
    except ValueError as exc:
        raise ParameterError("t", f"{exc} on the uniform grid of {n} slices up to {t!r}: change --t or --n") from None


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
    t = params.pop("t")

    h = example_hamiltonian(name, **params)
    try:
        oracle = oracle_kernel(h, t)
    except ValueError as exc:  # -tH too large for the operator exponential
        raise ParameterError("t", _lower_the_options(exc)) from None
    closed = closed_form_kernel(name, t, **params)
    operator = _operator_map(h)  # one slice map, and its matrix per width, for every grid
    fk_kernels = [kernel_extract(operator(_grid(t, n))) for n in grids]

    fk_vs_oracle = [float((k.body - oracle.body).norm()) for k in fk_kernels]
    oracle_vs_closed = float((oracle.body - closed.body).norm())
    fk_vs_closed = float((fk_kernels[-1].body - closed.body).norm())

    # The closed-form and one-grid gaps are judged against the oracle's largest
    # coefficient, with no floor of 1, so a kernel of size e^-40 that is off by
    # 100 % fails.  The ratio check's round-off floor bounds a sum over the
    # coefficients, so it reads the oracle's l1 norm.
    size = max((abs(c) for _, c in oracle.body.items()), default=0.0)
    top_gap, label = 0.0, "oracle matches the reference closed form"
    if name == "quartic":
        top_gap = quartic_top_gap(t, params["b"])
        label = "reference closed form differs from the oracle by the known top-slot gap"
    checks = [Check(label, abs(oracle_vs_closed - top_gap), KERNEL_RTOL * size)]
    if len(grids) > 1:
        # An exact route still carries round-off that grows with the slice count.
        deviation = refinement(grids, 1, errors=fk_vs_oracle, scale=oracle.body.norm()).deviation
        checks.append(Check("fk-vs-oracle error halves per grid doubling", deviation, RATIO_SLACK))
    else:
        bound = max(KERNEL_RTOL, 10.0 * t / grids[-1]) * size
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


def _tracked_values(quantity: str, params: dict, grids: Sequence[int]) -> list[complex]:
    """The tracked number of ``quantity`` on the uniform grid of each size in
    ``grids``: the Hamiltonian and its one slice map are built once, and
    every grid is evolved through that map, so the grids share its widths."""
    name, slot, _ = QUANTITIES[quantity]
    h = example_hamiltonian(name, r=params["r"], c=params["c"], b=params["b"], lam=params["lam"])
    top = gen(h.variables[0]) * gen(h.variables[1])
    evolve = _evolve_map(h)
    return [evolve(top, _grid(params["t"], n)).coefficient(slot) for n in grids]


def cmd_converge(args: argparse.Namespace) -> int:
    quantity = args.quantity
    params = {k: float(getattr(args, k)) for k in PARAMS}
    grids = args.n

    values = _tracked_values(quantity, params, grids)
    extrapolate = refinement(grids, QUANTITIES[quantity][2], values=values).extrapolate
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


def _verify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)


def _kernel_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("hamiltonian", choices=EXAMPLE_NAMES)
    p.add_argument("--n", type=_grid_list, default="16", help="comma-separated grid sizes")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_kernel)


def _converge_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quantity", choices=tuple(QUANTITIES), default="ou_xx")
    p.add_argument("--n", type=_grid_list, default="8,16,32,64", help="comma-separated grid sizes")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_converge)


def _moments_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--times", type=_time_list, default="0.25,0.5,1.0", help="comma-separated positive times")
    p.add_argument("--m", type=_brownian_dimension, default=2)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_moments)


# Subcommands: name -> (help, whether it takes the Hamiltonian options, its own options).
SUBCOMMANDS = {
    "verify": ("run a named verification suite", False, _verify_options),
    "kernel": ("evolution kernel vs oracle and closed form", True, _kernel_options),
    "converge": ("refinement table with a Richardson extrapolate", True, _converge_options),
    "moments": ("low-order path moments as a table", False, _moments_options),
}


def build_parser(command: str | None = None) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name.

    With ``command`` set, only that subcommand is registered.  Its help and
    its errors read as the full parser's: the top-level usage still lists
    every subcommand, through the metavar.  The full parser leaves the
    metavar unset, since argparse words its "invalid choice" and "required"
    errors from it.
    """
    parser = argparse.ArgumentParser(
        prog="berezin",
        description="Exact anticommuting stochastic calculus and its evolution kernels.",
    )
    metavar = None if command is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    for name, (help_text, hamiltonian, add_options) in SUBCOMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None, help="JSON object of option defaults")
        if hamiltonian:
            for key, default in PARAMS.items():
                p.add_argument(f"--{key}", type=_time if key == "t" else _finite, default=default)
        add_options(p)
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
    argv = list(sys.argv[1:] if argv is None else argv)
    # Only the named subcommand's parser is built; help, no arguments and an
    # unknown command get the full parser.
    parser, commands = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise SystemExit("the config file must hold a JSON object")
        # The file's entries go in as flags ahead of the given ones, so they
        # are checked like flags and a given flag still wins.
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_flags(commands[args.command], config) + argv[at:])
    try:
        return args.func(args)
    except ParameterError as exc:  # raised while the command builds its Hamiltonian, before any output
        commands[args.command].error(f"argument --{exc.name}: {exc}")
    except NonFiniteCoefficient as exc:  # an overflow in the arithmetic, before any output
        commands[args.command].error(_lower_the_options(exc))


if __name__ == "__main__":
    raise SystemExit(main())
