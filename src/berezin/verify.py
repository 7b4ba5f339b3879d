"""Named verification suites shared by the command line and the test suite.

Each check compares a computed deviation against a tolerance; ratio-style
convergence checks record how far each error ratio strays from the grid
ratio it should match.
Randomized sweeps are seeded, so a suite run is reproducible bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    GeneratorId,
    GrassmannElement,
    ONE,
    Parity,
    ZERO,
    aux,
    eta,
    gen,
    grassmann_exp,
    monomial,
    multi_index,
    scalar,
    substitute,
)
from .calculus import (
    SupersmoothFunction,
    berezin_integrate,
    compose_kernels,
    taylor_residual,
)
from .feynman_kac import (
    EXAMPLE_NAMES,
    basis_elements,
    example_hamiltonian,
    _bruteforce_map,
    _evolve_map,
    fk_evolve,
    hamiltonian_matrix,
    kernel_variables,
    matrix_apply,
    closed_form_kernel,
    oracle_kernel,
    sde_spec,
    semigroup_oracle,
    state_variables,
)
from .stochastic import (
    AdaptedMatrix,
    ItoProcess,
    MixedPolynomial,
    integration_by_parts_residual,
    isometry_residual,
    ito_formula_residual,
    ito_integral,
    picard_solve,
    solve_sde,
    time_integral,
    brownian_process,
    AdaptedProcess,
)
from .wiener import (
    BrownianMotion,
    Partition,
    WienerSpace,
    bridge_covariance,
    finite_distribution,
    heat_equation_residual,
    heat_kernel,
    heat_kernel_difference,
)

__all__ = [
    "Check",
    "run_suite",
    "SUITE_NAMES",
    "random_element",
    "richardson",
]

SUITE_NAMES = ("algebra", "wiener", "ito", "sde", "fk")

EXACT = 1e-12
IDENTITY = 1e-10
FINITE_DIFFERENCE = 1e-8
RATIO_SLACK = 0.3  # admissible |error ratio - grid ratio| per refinement


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tolerance)

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag}  {self.name}: value={self.value:.3e} tol={self.tolerance:.1e}"


def richardson(grids: Sequence[int], values: Sequence, order: int):
    """Extrapolate of a refinement whose error falls like N^-order.

    From the last two grids M < N, with rho = (N/M)^order, the extrapolate
    is (rho v_N - v_M) / (rho - 1), which is 2 v_N - v_M for a doubling
    first-order study.  A one-grid study returns its single value.
    """
    if len(values) == 1:
        return values[-1]
    rho = (grids[-1] / grids[-2]) ** order
    return (rho * values[-1] - values[-2]) / (rho - 1)


def ratio_deviation(errors: Sequence[float], grids: Sequence[float]) -> float:
    """Largest |e_k / e_{k+1} - N_{k+1} / N_k| over successive grids, the
    deviation from first-order refinement; 0 for exact data.  Only an error
    of 0.0 counts as exact: a route that may carry round-off on an exact
    result sets it to 0.0 first (``drop_round_off``).  A NaN or infinite
    error gives inf, which no slack accepts."""
    if len(errors) != len(grids):
        raise ValueError("need one error per grid")
    worst = 0.0
    for a, b, n_a, n_b in zip(errors, errors[1:], grids, grids[1:]):
        if b == 0.0:
            worst = max(worst, 0.0 if a == 0.0 else float("inf"))
        else:
            worst = max(worst, abs(a / b - n_b / n_a))
    return worst if np.isfinite(errors).all() else np.inf


def drop_round_off(errors: Sequence[float], slices: int, scale: float) -> list[float]:
    """Errors at most ``slices`` unit round-offs (2^-52) of ``scale`` set to
    0.0: what a route of that many slices may carry on an exact result."""
    floor = slices * 2.0**-52 * scale
    return [0.0 if e <= floor else e for e in errors]


def random_element(
    rng: random.Random,
    generators: Sequence[GeneratorId],
    max_terms: int = 8,
    parity: Parity | None = None,
) -> GrassmannElement:
    """Random sparse element; coefficients keep magnitudes well above the
    prune threshold so cancellation tests stay meaningful."""
    bits = _pool_bits(tuple(generators))
    n = len(bits)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, n)
        if parity is Parity.EVEN:
            degree -= degree % 2
        elif parity is Parity.ODD:
            degree = max(1, degree - (1 - degree % 2))
        key = 0
        for i in rng.sample(range(n), degree):
            key |= bits[i]
        coeff = complex(rng.uniform(0.2, 1.0) * rng.choice([-1, 1]),
                        rng.uniform(0.2, 1.0) * rng.choice([-1, 1]))
        terms[key] = coeff
    return GrassmannElement(terms)


@cache
def _pool_bits(generators: tuple[GeneratorId, ...]) -> tuple[int, ...]:
    """The one-bit multi-index of each generator of a pool, checked distinct once."""
    multi_index(generators)
    return tuple(multi_index((g,)) for g in generators)


# -- algebra ------------------------------------------------------------


def algebra_suite(seed: int = 2024) -> list[Check]:
    rng = random.Random(seed)
    samples = 1000
    pool = tuple(eta(i) for i in range(1, 7))
    elements = [random_element(rng, pool) for _ in range(samples)]

    assoc = 0.0
    distrib = 0.0
    banach = 0.0
    for i in range(0, samples - 2, 3):
        a, b, c = elements[i], elements[i + 1], elements[i + 2]
        scale = max(1.0, a.norm() * b.norm() * c.norm())
        ab = a * b
        assoc = max(assoc, (ab * c - a * (b * c)).norm() / scale)
        distrib = max(distrib, (a * (b + c) - (ab + a * c)).norm() / scale)
        banach = max(banach, ab.norm() - a.norm() * b.norm())

    supercomm = 0.0
    nilpotent = 0.0
    for _ in range(samples // 4):
        pa = rng.choice((Parity.EVEN, Parity.ODD))
        pb = rng.choice((Parity.EVEN, Parity.ODD))
        a = random_element(rng, pool, parity=pa)
        b = random_element(rng, pool, parity=pb)
        sign = -1.0 if (pa is Parity.ODD and pb is Parity.ODD) else 1.0
        supercomm = max(supercomm, (a * b - sign * (b * a)).norm())
        if pa is Parity.ODD:
            nilpotent = max(nilpotent, (a * a).norm())

    exp_inverse = 0.0
    for _ in range(50):
        a = random_element(rng, pool, max_terms=4, parity=Parity.EVEN)
        a = a - a.constant
        exp_inverse = max(exp_inverse, (grassmann_exp(a) * grassmann_exp(-a) - ONE).norm())

    # truncated-series reference computed with plain repeated products
    arg = monomial((eta(1), eta(2))) + monomial((eta(3), eta(4)))
    series = ZERO
    power = ONE
    factorial = 1.0
    for k in range(5):
        series = series + power / factorial
        power = power * arg
        factorial *= k + 1
    exp_example = (grassmann_exp(arg) - series).norm()

    taylor_worst = 0.0
    four = tuple(eta(i) for i in range(1, 5))
    for _ in range(20):
        f = SupersmoothFunction(random_element(rng, four), four)
        base = [
            gen(aux(i, 1)) + rng.uniform(-1, 1) * gen(aux(i, 3)) * gen(aux(5, 3)) * gen(aux(6, 3))
            for i in range(1, 5)
        ]
        shift = [rng.uniform(-1, 1) * gen(aux(i, 2)) for i in range(1, 5)]
        taylor_worst = max(taylor_worst, taylor_residual(f, base, shift))

    return [
        Check("supercommutativity on homogeneous pairs", supercomm, EXACT),
        Check("associativity on random triples (relative)", assoc, EXACT),
        Check("distributivity on random triples (relative)", distrib, EXACT),
        Check("odd squares vanish", nilpotent, EXACT),
        Check("norm submultiplicativity margin", max(banach, 0.0), EXACT),
        Check("exp(a) * exp(-a) = 1 for even nilpotent a", exp_inverse, IDENTITY),
        Check("exp matches truncated-series reference", exp_example, EXACT),
        Check("derivative-expansion identity residual", taylor_worst, IDENTITY),
    ]


# -- wiener -------------------------------------------------------------


def wiener_suite(seed: int = 2024) -> list[Check]:
    rng = random.Random(seed)
    checks: list[Check] = []

    weight = 0.0
    pde = 0.0
    for m in (2, 4):
        variables = tuple(eta(i) for i in range(1, m + 1))
        space = WienerSpace(m)
        for t in (0.3, 0.7, 1.0):
            p = heat_kernel(variables, t)
            weight = max(weight, abs(p.integrate().scalar_value() - 1.0))
            pde = max(pde, heat_equation_residual(space, variables, t))
    checks.append(Check("heat kernel normalization", weight, EXACT))
    checks.append(Check("heat equation residual (finite-difference d/dt)", pde, FINITE_DIFFERENCE))

    out_v, mid_v, in_v = state_variables(2), kernel_variables(2), tuple(aux(i, 9) for i in (1, 2))
    left = heat_kernel_difference(out_v, mid_v, 0.3)
    right = heat_kernel_difference(mid_v, in_v, 0.7)
    target = heat_kernel_difference(out_v, in_v, 1.0)
    semigroup = (compose_kernels(left, right, mid_v).body - target.body).norm()
    checks.append(Check("heat kernel semigroup p(0.3)*p(0.7)=p(1.0)", semigroup, EXACT))

    space = WienerSpace(2)
    t1, t2 = 0.4, 0.9
    motion = BrownianMotion(space, Partition.from_times([t1, t2]))
    b1 = motion.at_time(t1)
    b2 = motion.at_time(t2)
    moments = max(
        abs(motion.expect(b2[0])),
        abs(motion.expect(b2[0] * b2[1]) - t2),
        abs(motion.expect(b1[0] * b2[1]) - t1),
        abs(motion.expect(b2[0] * b1[1]) - t1),
        abs(motion.expect((b2[0] - b1[0]) * (b2[1] - b1[1])) - (t2 - t1)),
    )
    checks.append(Check("path moments (mean, covariance, increments)", moments, EXACT))

    grid = BrownianMotion(space, Partition((0.0, 0.2, 0.3, 0.7, 0.9)))
    s1, s2 = grid.at_time(0.2), grid.at_time(0.3)
    u1, u2 = grid.at_time(0.7), grid.at_time(0.9)
    independent = abs(grid.expect((u2[0] - u1[0]) * (s2[1] - s1[1])))
    checks.append(Check("independent increments", independent, EXACT))

    adapted = 0.0
    s, u = 0.3, 0.7
    motion = BrownianMotion(space, Partition.from_times([s, u]))
    beta_s, beta_u = motion.at_time(s), motion.at_time(u)
    for past in (ONE, beta_s[0], beta_s[1], beta_s[0] * beta_s[1]):
        for b in range(2):
            adapted = max(adapted, abs(motion.expect(past * (beta_u[b] - beta_s[b]))))
        for b in range(2):
            for c in range(2):
                got = motion.expect(past * (beta_u[b] - beta_s[b]) * (beta_u[c] - beta_s[c]))
                want = motion.expect(past) * space.eps(b + 1, c + 1) * (u - s)
                adapted = max(adapted, abs(got - want))
    checks.append(Check("conditioning identities for adapted factors", adapted, EXACT))

    consistency = 0.0
    total = 0.0
    for trial in range(5):
        count = rng.randint(2, 4)
        times = sorted(rng.uniform(0.05, 1.0) for _ in range(count))
        while any(b - a < 1e-3 for a, b in zip(times, times[1:])):
            times = sorted(rng.uniform(0.05, 1.0) for _ in range(count))
        sets = [tuple(aux(c, 10 + i) for c in (1, 2)) for i in range(count)]
        joint = finite_distribution(space, times, sets)
        marginal = finite_distribution(space, times[:-1], sets[:-1])
        consistency = max(
            consistency, (berezin_integrate(joint.body, sets[-1]) - marginal.body).norm()
        )
        everything = [v for block in sets for v in block]
        total = max(total, abs(berezin_integrate(joint.body, everything).scalar_value() - 1.0))
    checks.append(Check("marginalizing the last time slice", consistency, EXACT))
    checks.append(Check("total weight of joint densities", total, EXACT))

    bridge = 0.0
    eps = space.eps_matrix
    for _ in range(10):
        s = rng.uniform(0.0, 1.0)
        u = rng.uniform(s, 1.0)
        got = bridge_covariance(space, s, u)
        bridge = max(bridge, float(np.abs(got - eps * s * (1 - u)).max()))
    checks.append(Check("bridge covariance eps * s(1-u) at random (s,u)", bridge, EXACT))

    motion = BrownianMotion(space, Partition.uniform(1.0, 3))
    beta = motion.at_node(3)
    functional = beta[0] * motion.at_node(2)[1] + 0.3 * beta[1]
    engines = (
        motion.expect_element(functional) - motion._expect_joint(functional)
    ).norm()
    checks.append(Check("sequential engine matches joint-algebra oracle", engines, EXACT))

    return checks


# -- ito ----------------------------------------------------------------


def _random_even_adapted(rng: random.Random, area: GrassmannElement, r: int) -> GrassmannElement:
    """A random even value at node r of a grid whose beta1 * beta2 there is ``area``."""
    out = scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    if r > 0 and rng.random() < 0.7:
        out = out + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * area
    return out


def ito_suite(seed: int = 2024) -> list[Check]:
    rng = random.Random(seed)
    samples = 100
    space = WienerSpace(2)
    checks: list[Check] = []

    partition = Partition.uniform(1.0, 5)
    ones = AdaptedProcess(
        space, partition, tuple((ONE,) for _ in range(partition.steps + 1))
    )
    integral = time_integral(ones)
    flat_err = max(
        (integral.values[r][0] - partition.nodes[r]).norm()
        for r in range(partition.steps + 1)
    )
    checks.append(Check("time integral of the constant process", flat_err, EXACT))

    motion = BrownianMotion(space, partition)
    path = brownian_process(space, partition)
    drift_free = time_integral(path)
    mean_drift = abs(motion.expect(drift_free.final[0]))
    checks.append(Check("mean of the time-integrated path", mean_drift, EXACT))

    errors = []
    grids = (4, 8, 16)
    for steps in grids:
        part = Partition.uniform(1.0, steps)
        grid_motion = BrownianMotion(space, part)
        proc = brownian_process(space, part)
        area = AdaptedProcess(
            space,
            part,
            tuple((proc.values[r][0] * proc.values[r][1],) for r in range(steps + 1)),
        )
        value = grid_motion.expect(time_integral(area).final[0])
        errors.append(abs(value - 0.5))
    checks.append(
        Check("first-order refinement of a quadratic time integral", ratio_deviation(errors, grids), RATIO_SLACK)
    )

    worst_iso = 0.0
    worst_mean = 0.0
    for trial in range(samples):
        steps = rng.randint(1, 4)
        if rng.random() < 0.5:
            part = Partition.uniform(1.0, steps)
        else:
            nodes = [0.0]
            for _ in range(steps):
                nodes.append(nodes[-1] + rng.uniform(0.1, 0.5))
            part = Partition(tuple(nodes))
        grid_motion = BrownianMotion(space, part)
        state_dependent = trial % 5 != 0
        if state_dependent:
            areas = [beta[0] * beta[1] for beta in map(grid_motion.at_node, range(part.steps + 1))]
        values = []
        for r in range(part.steps + 1):
            if state_dependent:
                row_i = tuple(_random_even_adapted(rng, areas[r], r) for _ in range(2))
                row_j = tuple(_random_even_adapted(rng, areas[r], r) for _ in range(2))
            else:
                row_i = tuple(scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(2))
                row_j = tuple(scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(2))
            values.append((row_i, row_j))
        matrix = AdaptedMatrix(space, part, tuple(values))
        worst_iso = max(worst_iso, isometry_residual(matrix, 0, 1))
        z = ito_integral(matrix)
        for comp in z.final:
            expected = grid_motion.expect_element(comp)
            worst_mean = max(worst_mean, expected.norm())
    checks.append(Check(f"second-moment identity on {samples} random integrands", worst_iso, IDENTITY))
    checks.append(Check("stochastic integrals have mean zero", worst_mean, EXACT))

    part = Partition.uniform(1.0, 4)
    canonical = AdaptedMatrix.constant(space, part, [[1.0, 0.0], [0.0, 1.0]])
    z = ito_integral(canonical)
    lhs = BrownianMotion(space, part).expect_product(z.final[0], z.final[1]).scalar_value()
    residual = isometry_residual(canonical, 0, 1)
    checks.append(Check("worked isometry example, E[Z1 Z2] = t", abs(lhs - 1.0), EXACT))
    checks.append(Check("worked isometry example, residual", residual, IDENTITY))

    return checks


# -- sde ----------------------------------------------------------------


def sde_suite() -> list[Check]:
    checks: list[Check] = []
    space = WienerSpace(2)
    sv = state_variables(2)
    start = tuple(gen(aux(i)) for i in (1, 2))

    # the flat SDE (zero drift, identity diffusion): the solution is start + path, exactly
    identity_spec = sde_spec(example_hamiltonian("flat"), start)
    partition = Partition.uniform(1.0, 5)
    solved = solve_sde(identity_spec, space, partition)
    path = brownian_process(space, partition)
    trivial = max(
        (solved.values[r][i] - (start[i] + path.values[r][i])).norm()
        for r in range(partition.steps + 1)
        for i in range(2)
    )
    checks.append(Check("zero-drift solution is start plus the path", trivial, EXACT))

    ou = example_hamiltonian("ou")
    grids = (8, 16, 32, 64)
    values = []
    final_moves = []
    zero_start = sde_spec(ou, (ZERO, ZERO))
    for steps in grids:
        partition = Partition.uniform(1.0, steps)
        solution = solve_sde(zero_start, space, partition)
        moment = BrownianMotion(space, partition).expect_product(solution.final[0], solution.final[1])
        values.append(complex(moment.scalar_value()))
        # one Picard pass from the sweep solution must not move it at all
        again = picard_solve(zero_start, space, partition, initial_guess=solution.values)
        final_moves.append(again.differences[0])
    del solution, again  # the 64-slice processes, which nothing below needs
    limit = 0.5 * (1 - np.exp(-2.0))
    errors = [abs(v - limit) for v in values]
    checks.append(Check("OU moment first-order refinement", ratio_deviation(errors, grids), RATIO_SLACK))
    checks.append(
        Check("OU moment extrapolate vs (1-e^-2)/2", abs(richardson(grids, values, 1) - limit), 2e-3)
    )
    checks.append(Check("Picard iterates stationary (last movement)", max(final_moves), 0.0))

    # uniqueness probe: a far-off initial guess lands on the same fixed point
    spec = sde_spec(ou, start)
    partition = Partition.uniform(1.0, 8)
    baseline = picard_solve(spec, space, partition)
    offset_guess = [
        tuple(start[i] + 0.7 * gen(aux(i + 1, 4)) for i in range(2))
        for _ in range(partition.steps + 1)
    ]
    other = picard_solve(spec, space, partition, initial_guess=offset_guess)
    uniqueness = max(
        (a - b).norm()
        for va, vb in zip(baseline.process.values, other.process.values)
        for a, b in zip(va, vb)
    )
    checks.append(Check("two Picard seeds reach one fixed point", uniqueness, EXACT))

    rate = 1.0
    chain_errors = []
    ibp_errors = []
    grids = (8, 16, 32)
    for steps in grids:
        part = Partition.uniform(1.0, steps)
        ou_proc = ItoProcess.from_sde(spec, space, part)
        deterministic = ItoProcess.deterministic(
            space, part, lambda t: np.exp(rate * t), lambda t: rate * np.exp(rate * t)
        )
        joined = ItoProcess.concat(deterministic, ou_proc)
        growth_times_first = MixedPolynomial(1, 2, {((1,), (1,)): 1.0})
        chain_errors.append(ito_formula_residual(growth_times_first, joined))
        ibp_errors.append(integration_by_parts_residual(ou_proc))
    checks.append(
        Check("change-of-variables residual halves per doubling", ratio_deviation(chain_errors, grids), RATIO_SLACK)
    )
    checks.append(
        Check("product-rule residual halves per doubling", ratio_deviation(ibp_errors, grids), RATIO_SLACK)
    )

    # mu-distance diagnostics decay on a small grid
    small = Partition.uniform(1.0, 5)
    tracked = picard_solve(spec, space, small, compute_mu=True)
    mu = tracked.mu_diagnostics
    decay = 0.0 if mu[-1] == 0.0 and mu[0] >= mu[-1] else float("inf")
    checks.append(Check("Picard moment-gap diagnostics reach zero", decay, 0.0))

    # on a fixed grid E[F(zeta_N)] is the transfer of F evaluated at the start
    top = gen(sv[0]) * gen(sv[1])
    transfer = 0.0
    for name in ("ou", "quartic"):  # quartic: a state-dependent diffusion
        h = example_hamiltonian(name)
        for steps in (2, 4):
            partition = Partition.uniform(1.0, steps)
            final = solve_sde(sde_spec(h, start), space, partition).final
            forward = BrownianMotion(space, partition).expect_product(final[0], final[1])
            backward = substitute(fk_evolve(h, top, partition), dict(zip(sv, start)))
            transfer = max(transfer, (forward - backward).norm())
    checks.append(Check("SDE expectation equals the Feynman-Kac transfer on the grid", transfer, EXACT))

    return checks


# -- feynman-kac ----------------------------------------------------------


def feynman_kac_suite() -> list[Check]:
    checks: list[Check] = []
    basis = basis_elements(state_variables(2))
    in_vars = kernel_variables(2)

    flat = example_hamiltonian("flat")
    kernel = closed_form_kernel("flat", 1.0)
    worst = 0.0
    for f, f_in in zip(basis, basis_elements(in_vars)):
        estimate = fk_evolve(flat, f, Partition.uniform(1.0, 1))
        exact = berezin_integrate(kernel.body * f_in, in_vars)
        worst = max(worst, (estimate - exact).norm())
    checks.append(Check("flat evolution equals the exact kernel at one step", worst, EXACT))

    reference_gap = 0.0
    for name in ("flat", "ou", "oscillator"):
        h = example_hamiltonian(name)
        for t in (0.5, 1.0):
            gap = (oracle_kernel(h, t).body - closed_form_kernel(name, t).body).norm()
            reference_gap = max(reference_gap, gap)
    checks.append(Check("reference kernels match the operator exponential", reference_gap, 1e-9))

    oscillator = example_hamiltonian("oscillator")
    target = matrix_apply(
        semigroup_oracle(hamiltonian_matrix(oscillator), 1.0), basis[3]
    )
    errors = []
    finals = []
    grids = (8, 16, 32, 64)
    for steps in grids:
        estimate = fk_evolve(oscillator, basis[3], Partition.uniform(1.0, steps))
        errors.append((estimate - target).norm())
        finals.append(estimate)
    checks.append(
        Check("oscillator estimate converges first order to the oracle", ratio_deviation(errors, grids), RATIO_SLACK)
    )
    at_zero = abs(finals[-1].constant - target.constant)
    checks.append(Check("oscillator value at the zero start, finest grid", at_zero, 5e-3))

    quartic = example_hamiltonian("quartic")
    moment_target = matrix_apply(semigroup_oracle(hamiltonian_matrix(quartic), 1.0), basis[3])
    reference = np.exp(-2.0) * basis[3] + scalar((np.exp(-2.0) - 1.0) / 2.0)
    checks.append(
        Check(
            "quartic oracle agrees with the reference moment formula",
            (moment_target - reference).norm(),
            1e-9,
        )
    )
    quartic_errors = []
    values = []
    for steps in grids:
        estimate = fk_evolve(quartic, basis[3], Partition.uniform(1.0, steps))
        quartic_errors.append((estimate - reference).norm())
        values.append(estimate)
    checks.append(
        Check("quartic moment converges first order to the reference value", ratio_deviation(quartic_errors, grids), RATIO_SLACK)
    )
    refined = richardson(grids, values, 1)
    checks.append(
        Check("quartic moment extrapolate vs the reference value", (refined - reference).norm(), 5e-4)
    )

    expected_gap = abs(1.0 - np.exp(-2.0))
    oracle_k = oracle_kernel(quartic, 1.0)
    reference_k = closed_form_kernel("quartic", 1.0)
    difference = oracle_k.body - reference_k.body
    top = monomial(state_variables(2))
    gap_term = difference.coefficient(state_variables(2))
    off_slot = (difference - gap_term * top).norm()
    checks.append(
        Check(
            "quartic reference kernel differs from the oracle only in the top slot",
            off_slot,
            1e-9,
        )
    )
    checks.append(
        Check(
            "quartic top-slot gap equals 1 - e^(-2bt) (reported, not patched)",
            abs(abs(gap_term) - expected_gap),
            1e-9,
        )
    )

    engines = 0.0
    for name in EXAMPLE_NAMES:
        h = example_hamiltonian(name, lam=0.7)
        for steps in (1, 2, 4):
            part = Partition.uniform(1.0, steps)
            evolve, bruteforce = _evolve_map(h, part), _bruteforce_map(h, part)
            for f in basis:
                engines = max(engines, (evolve(f) - bruteforce(f)).norm())
    checks.append(Check("transfer-operator engine equals the joint engine", engines, IDENTITY))

    semigroup = 0.0
    derivative = 0.0
    for name in ("flat", "flat_potential", "ou", "oscillator", "quartic"):
        h = example_hamiltonian(name, lam=0.7)
        hm = hamiltonian_matrix(h)
        oracle = cache(lambda t: semigroup_oracle(hm, t).matrix)  # 8 distinct times
        for s in (0.3, 0.7, 1.0):
            for t in (0.3, 0.7, 1.0):
                combined = oracle(s) @ oracle(t)
                direct = oracle(s + t)
                semigroup = max(semigroup, float(np.abs(combined - direct).max()))
        h_errors = []
        for h_step in (1e-2, 5e-3, 2.5e-3):
            slope = (semigroup_oracle(hm, h_step).matrix - np.eye(hm.dimension)) / h_step
            h_errors.append(float(np.abs(slope + hm.matrix).max()))
        derivative = max(derivative, ratio_deviation(h_errors, (1, 2, 4)))
    checks.append(Check("oracle semigroup property", semigroup, IDENTITY))
    checks.append(Check("oracle derivative at zero, first order", derivative, RATIO_SLACK))

    return checks


_SUITES: dict[str, Callable[..., list[Check]]] = {
    "algebra": algebra_suite,
    "wiener": wiener_suite,
    "ito": ito_suite,
    "sde": lambda seed=2024: sde_suite(),
    "fk": lambda seed=2024: feynman_kac_suite(),
}


def run_suite(name: str, seed: int = 2024) -> list[Check]:
    if name == "all":
        out: list[Check] = []
        for suite in SUITE_NAMES:
            out.extend(run_suite(suite, seed))
        return out
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return _SUITES[name](seed=seed)
