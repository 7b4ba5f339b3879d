"""The benchmark's workloads: seeded operations, how to run them, and how
to check what they return against the independent references.

Every workload is a closed loop: one process runs its operations one at a
time, in a fixed order, and a pass is one run over all of them.  The seed
chooses parameters and random inputs only; the grid lists, the number of
operations and the operations of the three known faults are the same for
every seed, so the work per pass and the share of failed operations do not
depend on it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from berezin import algebra, cli, feynman_kac, wiener

WORKLOADS = ("refine", "kernel", "fk_wide", "verify")

RATIO_SLACK = 0.3  # admissible |error ratio - 2| per halving, as the program pins it
ORDER = {"ou_xx": 1, "quartic_xx": 1, "oscillator_c0": 2, "flat_c0": None}  # None: exact
KERNEL_GRIDS = "64,128,256,512,1024"
# The fk route is exact without drift and potential; past 256 slices its
# round-off can cross the absolute 1e-13 floor of ratio_deviation, which
# then fails the command on some seeds (see CHANGES.md).
EXACT_KERNEL_GRIDS = "64,128,256"
FK_WIDE_SLICES = 8  # coarse slices per random partition; each is refined once by halving
FK_WIDE_MS = (2, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4)  # Brownian dimension of each seeded Hamiltonian


@dataclass
class Op:
    """One operation of a workload.

    ``fault`` names the known program fault the operation hits; such
    operations take fixed inputs so they fail on every seed.
    """

    label: str
    kind: str  # converge | kernel | fk | verify
    argv: tuple = ()
    params: dict = field(default_factory=dict)
    fault: str | None = None
    data: object = None


@dataclass
class Outcome:
    ok: bool  # the operation delivered its result (the failed count)
    problems: list  # reference or property checks that did not hold
    rel_error: float | None  # relative error of the final answer


# -- building the operations -------------------------------------------


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _converge(quantity: str, grids: str, **params) -> Op:
    argv = ["converge", "--quantity", quantity, "--n", grids]
    for key, value in params.items():
        argv += [f"--{key}", repr(value)]
    return Op(f"converge {quantity} {grids}", "converge", tuple(argv), {"quantity": quantity, **params})


def build(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "refine":
        ops = [
            _converge("ou_xx", "8,16,32,64", r=_u(rng, 0.8, 1.2), c=_u(rng, 0.5, 1.5), t=_u(rng, 0.8, 1.2)),
            _converge("ou_xx", "16,32,64", r=_u(rng, 0.8, 1.2), c=_u(rng, 0.5, 1.5), t=_u(rng, 0.8, 1.2)),
            _converge("ou_xx", "4,8,16,32", r=_u(rng, 0.5, 1.0), c=_u(rng, 0.5, 1.5), t=_u(rng, 0.5, 1.0)),
            _converge("quartic_xx", "8,16,32,64", b=_u(rng, 0.5, 1.0), c=_u(rng, 0.5, 1.5), t=_u(rng, 0.5, 1.0)),
            _converge("flat_c0", "10,16,40,64", t=_u(rng, 0.5, 1.5)),
            _converge("oscillator_c0", "8,16,32,64", t=1.0),
            _converge("ou_xx", "12,16,24,32", r=1.0, c=1.0, t=1.0),
            _converge("quartic_xx", "24,32,48,64", b=1.0, c=1.0, t=1.0),
        ]
        ops[5].fault = "a"
        ops[6].fault = ops[7].fault = "b"
        return ops
    if workload == "kernel":
        ops = []
        for name in feynman_kac.EXAMPLE_NAMES:
            params = {
                "t": _u(rng, 0.5, 1.5),
                "r": _u(rng, 0.5, 1.5),
                "c": _u(rng, 0.5, 1.5),
                "b": _u(rng, 0.5, 1.0),
                "lam": _u(rng, 0.2, 1.0),
            }
            grids = EXACT_KERNEL_GRIDS if name in ("flat", "flat_potential") else KERNEL_GRIDS
            argv = ["kernel", name, "--n", grids, "--format", "json"]
            for key, value in params.items():
                argv += [f"--{key}", repr(value)]
            ops.append(Op(f"kernel {name} {grids}", "kernel", tuple(argv), {"name": name, **params}))
        fixed = {"t": 1.0, "r": 1.0, "c": 1.0, "b": 1.0, "lam": 0.0}
        argv = ("kernel", "oscillator", "--n", "48,64", "--format", "json", "--t", "1.0")
        ops.append(Op("kernel oscillator 48,64", "kernel", argv, {"name": "oscillator", **fixed}, fault="c"))
        return ops
    if workload == "fk_wide":
        ops = [_fk_op(rng, m, f"fk_evolve m={m} #{k}", FK_WIDE_SLICES) for k, m in enumerate(FK_WIDE_MS)]
        # Fixed inputs on a coarse partition: its error exceeds the seeded
        # ones, so max_rel_error compares across seeds.
        anchor = _fk_op(random.Random("fk_wide:anchor"), 4, "fk_evolve m=4 anchor", FK_WIDE_SLICES // 4)
        return ops + [anchor]
    if workload == "verify":
        argv = ("verify", "all", "--seed", str(seed))
        return [Op("verify all", "verify", argv)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _random_raw(rng: random.Random, n: int, counts: dict, scale: float) -> dict:
    """Random element with ``counts[d]`` monomials of each degree d."""
    out = {}
    for degree, count in counts.items():
        masks = [mask for mask in range(1 << n) if mask.bit_count() == degree]
        for mask in rng.sample(masks, count):
            out[mask] = complex(_u(rng, -scale, scale), _u(rng, -scale, scale))
    return out


def _fk_op(rng: random.Random, m: int, label: str, slices: int, n: int = 4) -> Op:
    """A random even Hamiltonian on n = 4 variables, one random input, and a
    random partition of ``slices`` slices plus its halving refinement.

    Every Hamiltonian has the same number of monomials in each field, so
    the work per operation hardly depends on the seed.
    """
    potential = _random_raw(rng, n, {0: 1, 2: 2, 4: 1}, 0.4)
    drift = tuple(_random_raw(rng, n, {1: 1, 3: 1}, 0.4) for _ in range(n))
    diffusion = tuple(
        tuple({**_random_raw(rng, n, {2: 1}, 0.3), 0: complex(_u(rng, -1.0, 1.0), _u(rng, -0.3, 0.3))} for _ in range(m))
        for _ in range(n)
    )
    f = _random_raw(rng, n, {0: 1, 1: 2, 2: 3, 3: 2, 4: 1}, 1.0)
    t = _u(rng, 0.5, 1.0)
    widths = [rng.uniform(0.5, 1.5) for _ in range(slices)]
    nodes = [0.0]
    for w in widths:
        nodes.append(nodes[-1] + t * w / sum(widths))
    fine = [x for a, b in zip(nodes, nodes[1:]) for x in (a, 0.5 * (a + b))] + [nodes[-1]]

    variables = feynman_kac.state_variables(n)

    def element(raw: dict):
        out = algebra.ZERO
        for mask, coeff in raw.items():
            out = out + algebra.monomial(tuple(variables[i] for i in range(n) if mask >> i & 1), coeff)
        return out

    spec = feynman_kac.HamiltonianSpec(
        n,
        m,
        element(potential),
        tuple(element(a) for a in drift),
        tuple(tuple(element(c) for c in row) for row in diffusion),
        variables,
    )
    data = {
        "spec": spec,
        "f": element(f),
        "partitions": (wiener.Partition(tuple(nodes)), wiener.Partition(tuple(fine))),
        "raw": (n, m, potential, drift, diffusion, f),
    }
    return Op(label, "fk", data=data, params={"t": nodes[-1]})


# -- running -----------------------------------------------------------


def run(op: Op):
    """Run one operation through the program; the result is checked later."""
    if op.kind == "fk":
        data = op.data
        spec, f = data["spec"], data["f"]
        estimates = tuple(feynman_kac.fk_evolve(spec, f, p) for p in data["partitions"])
        oracle = feynman_kac.semigroup_oracle(feynman_kac.hamiltonian_matrix(spec), op.params["t"])
        return estimates + (feynman_kac.matrix_apply(oracle, f),)
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(op.argv))
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        return (None, f"{type(exc).__name__}: {exc}")
    return (code, buffer.getvalue())


def same_output(a, b) -> bool:
    """Equal outputs, ignoring the timestamp field of JSON reports."""
    if isinstance(a[0], algebra.GrassmannElement):
        return all(x == y for x, y in zip(a, b))

    def strip(text):
        return [line for line in text.splitlines() if '"timestamp"' not in line]

    return a[0] == b[0] and strip(a[1]) == strip(b[1])


# -- checking ----------------------------------------------------------


def _close(a: float, b: float, rel: float, floor: float = 1e-12) -> bool:
    return abs(a - b) <= floor + rel * max(abs(a), abs(b))


def _ratio_problems(grids, errors, order, floor: float) -> list:
    """Errors must shrink by (N2/N1)^order per refinement, within the pinned
    slack (0.3 at a halving, scaled with the expected ratio)."""
    if order is None:
        bad = [e for e in errors if e > floor]
        return [f"exact quantity has errors {bad}"] if bad else []
    problems = []
    for (n1, e1), (n2, e2) in zip(zip(grids, errors), zip(grids[1:], errors[1:])):
        expected = (n2 / n1) ** order
        if e2 <= floor or abs(e1 / e2 - expected) > RATIO_SLACK / 2 * expected:
            problems.append(f"error ratio {n1}->{n2} is {e1 / e2 if e2 else math.inf:.3f}, expected {expected:.3f}")
    return problems


def _element_dict(element, n: int) -> dict:
    """Program element over the state variables as {mask: coeff}."""
    out = {}
    for gens, coeff in element.terms():
        mask = 0
        for g in gens:
            if g.family != algebra.Family.VARIABLE or g.slice != 0:
                raise ValueError(f"unexpected generator {g}")
            mask |= 1 << (g.component - 1)
        out[mask] = coeff
    return out


def _json_kernel(coefficients: dict, n: int) -> dict:
    """Kernel coefficients of a JSON report as {mask: coeff}; output
    variables on bits 0..n-1, integrated variables on bits n..2n-1."""
    out = {}
    for key, (re, im) in coefficients.items():
        mask = 0
        if key != "1":
            for code in key.split():
                slice_text, component = code[1:].split(".")
                if code[0] != "v" or slice_text not in ("0", "1"):
                    raise ValueError(f"unexpected generator {code}")
                mask |= 1 << (int(component) - 1 + n * int(slice_text))
        out[mask] = complex(re, im)
    return out


def check(op: Op, output) -> Outcome:
    if op.kind == "fk":
        return _check_fk(op, output)
    code, text = output
    if code is None:
        return Outcome(False, [], None)
    if op.kind == "converge":
        return _check_converge(op, code, text)
    if op.kind == "kernel":
        return _check_kernel(op, code, text)
    return _check_verify(op, code, text)


def _check_converge(op: Op, code: int, text: str) -> Outcome:
    p = op.params
    quantity = p["quantity"]
    t, r, c, b = p.get("t", 1.0), p.get("r", 1.0), p.get("c", 1.0), p.get("b", 1.0)
    rows = list(csv.DictReader(io.StringIO(text)))
    grid_rows = [row for row in rows if row["N"] != "extrapolate"]
    grids = [int(row["N"]) for row in grid_rows]
    values = [complex(float(row["value_re"]), float(row["value_im"])) for row in grid_rows]
    extra = [row for row in rows if row["N"] == "extrapolate"]
    problems = []
    if code != 0:
        return Outcome(False, problems, None)
    if grids != [int(x) for x in op.argv[op.argv.index("--n") + 1].split(",")] or len(extra) != 1:
        return Outcome(True, [f"table rows {grids} do not match the request"], None)
    x = complex(float(extra[0]["value_re"]), float(extra[0]["value_im"]))
    for row, v in zip(grid_rows, values):
        if not _close(float(row["error_vs_extrapolate"]), abs(v - x), 1e-12):
            problems.append(f"N={row['N']}: reported error_vs_extrapolate is not |value - extrapolate|")
    limit = ref.converge_limit(quantity, t, r=r, c=c, b=b)
    floor = 1e-12 * max(1.0, abs(limit))
    if quantity == "ou_xx":
        for n, v in zip(grids, values):
            exact = ref.ou_xx_grid(t, n, r, c)
            if not _close(v.real, exact, 1e-12) or abs(v.imag) > floor:
                problems.append(f"N={n}: ou_xx {v} differs from the exact grid value {exact}")
    errors = [abs(v - limit) for v in values]
    problems += _ratio_problems(grids, errors, ORDER[quantity], floor)
    gap = abs(x - limit)
    ok = gap <= 0.5 * errors[-1] or (gap <= floor and errors[-1] <= floor)
    return Outcome(ok, problems, gap / abs(limit))


def _check_kernel(op: Op, code: int, text: str) -> Outcome:
    p = op.params
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return Outcome(False, [], None)
    problems = []
    name, t = p["name"], p["t"]
    exact = ref.example(name, r=p["r"], c=p["c"], b=p["b"], lam=p["lam"]).semigroup(t)
    scale = float(np.abs(exact).max())
    fk = ref.kernel_operator(_json_kernel(report["kernel_coefficients"], 2), 2)
    oracle = ref.kernel_operator(_json_kernel(report["oracle_coefficients"], 2), 2)
    closed = ref.kernel_operator(_json_kernel(report["closed_form_coefficients"], 2), 2)
    if np.abs(oracle - exact).max() > 1e-10 * max(1.0, scale):
        problems.append("oracle kernel differs from scipy expm")
    gap = closed - exact
    if name == "quartic":
        if not _close(abs(gap[3, 3]), ref.quartic_reference_gap(t, p["b"]), 0.0, 1e-9):
            problems.append(f"quartic top-slot gap {abs(gap[3, 3])} is not 1 - exp(-2bt)")
        gap[3, 3] = 0.0
    if np.abs(gap).max() > 1e-9:
        problems.append("closed-form kernel differs from scipy expm")
    final_error = float(np.abs(fk - exact).sum())
    reported = report["max_abs_error"]
    if not _close(reported["fk_vs_oracle"][-1], final_error, 1e-6, 1e-9):
        problems.append("reported finest-grid error does not match the reference")
    if not _close(reported["oracle_vs_closed_form"], float(np.abs(closed - oracle).sum()), 1e-6, 1e-9):
        problems.append("reported oracle-vs-closed-form gap does not match the kernels")
    grids = report["N"]
    order = 1 if name in ("ou", "oscillator", "quartic") else None
    problems += _ratio_problems(grids, reported["fk_vs_oracle"], order, 1e-12 * max(1.0, scale))
    return Outcome(code == 0, problems, final_error / float(np.abs(exact).sum()))


def _check_fk(op: Op, output) -> Outcome:
    n, m, potential, drift, diffusion, f = op.data["raw"]
    hamiltonian = ref.Hamiltonian(n, m, potential, drift, diffusion)
    exact = ref.apply_matrix(hamiltonian.semigroup(op.params["t"]), f)
    coarse, fine, oracle = (_element_dict(x, n) for x in output)
    size = ref.norm(exact)
    problems = []
    if ref.norm(ref.add(oracle, exact, scale=(1.0, -1.0))) > 1e-10 * max(1.0, size):
        problems.append("program oracle differs from scipy expm")
    errors = [ref.norm(ref.add(x, exact, scale=(1.0, -1.0))) for x in (coarse, fine)]
    steps = [p.steps for p in op.data["partitions"]]
    problems += _ratio_problems(steps, errors, 1, 1e-12 * max(1.0, size))
    return Outcome(True, problems, errors[-1] / size)


_CHECK_LINE = re.compile(r"^(?P<flag>PASS|FAIL)  (?P<name>.*): value=(?P<value>\S+) tol=\S+$")

# Convergence answers of the verify suites whose references are closed forms.
OU_EXTRAPOLATE = "OU moment extrapolate vs (1-e^-2)/2"
OSCILLATOR_FINEST = "oscillator value at the zero start, finest grid"
QUARTIC_EXTRAPOLATE = "quartic moment extrapolate vs the reference value"


def _check_verify(op: Op, code: int, text: str) -> Outcome:
    # Text report: "PASS  <name>: value=<%.3e> tol=<%.1e>" per check, then a
    # summary line.  (The JSON report of the fk suite does not serialize.)
    lines = text.splitlines()
    checks = {}
    for line in lines[:-1]:
        match = _CHECK_LINE.match(line)
        if match is None:
            return Outcome(False, [], None)
        checks[match["name"]] = (match["flag"] == "PASS", float(match["value"]))
    problems = []
    passed = sum(flag for flag, _ in checks.values())
    if lines[-1:] != [f"{passed}/{len(lines) - 1} checks passed"] or len(checks) != len(lines) - 1:
        problems.append("summary line does not match the checks")
    missing = [k for k in (OU_EXTRAPOLATE, OSCILLATOR_FINEST, QUARTIC_EXTRAPOLATE) if k not in checks]
    if missing:
        return Outcome(code == 0, problems + [f"missing checks {missing}"], None)
    ou_limit = ref.converge_limit("ou_xx", 1.0)
    ou_gap = abs(2 * ref.ou_xx_grid(1.0, 64, 1.0, 1.0) - ref.ou_xx_grid(1.0, 32, 1.0, 1.0) - ou_limit)
    if not _close(checks[OU_EXTRAPOLATE][1], ou_gap, 1e-3):  # printed to four digits
        problems.append("OU extrapolate gap differs from the exact grid values")
    quartic = ref.closed_form_operator("quartic", 1.0)[:, 3]
    relative = (
        ou_gap / ou_limit,
        checks[OSCILLATOR_FINEST][1] / ref.converge_limit("oscillator_c0", 1.0),
        checks[QUARTIC_EXTRAPOLATE][1] / float(abs(quartic).sum()),
    )
    return Outcome(code == 0 and passed == len(checks), problems, max(relative))
