"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (runs them with ``pytest -s`` to see
the lines on success).  Tolerances are pinned here, not configurable.
"""

import random

import numpy as np

from berezin.algebra import (
    ONE,
    Parity,
    ZERO,
    aux,
    eta,
    gen,
    monomial,
    scalar,
)
from berezin.calculus import SupersmoothFunction, berezin_integrate, compose_kernels, taylor_residual
from berezin.feynman_kac import (
    EXAMPLE_NAMES,
    closed_form_kernel,
    example_hamiltonian,
    fk_bruteforce,
    fk_evolve,
    hamiltonian_matrix,
    kernel_variables,
    matrix_apply,
    oracle_kernel,
    semigroup_oracle,
    state_variables,
)
from berezin.stochastic import (
    AdaptedMatrix,
    ItoProcess,
    MixedPolynomial,
    SdeSpec,
    integration_by_parts_residual,
    isometry_residual,
    ito_formula_residual,
    ito_integral,
    picard_solve,
    solve_sde,
)
from berezin.verify import random_element
from berezin.wiener import (
    BrownianMotion,
    Partition,
    WienerSpace,
    bridge_covariance,
    heat_equation_residual,
    heat_kernel,
    heat_kernel_difference,
)

SPACE = WienerSpace(2)
SV = state_variables(2)
KV = kernel_variables(2)
TOP = gen(SV[0]) * gen(SV[1])
BASIS = [ONE, gen(SV[0]), gen(SV[1]), TOP]

EXACT = 1e-12
IDENTITY = 1e-10
RATE_WINDOW = (1.7, 2.3)


def report(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


def halving_ok(errors) -> bool:
    return all(
        RATE_WINDOW[0] <= a / b <= RATE_WINDOW[1] for a, b in zip(errors, errors[1:])
    )


def ou_spec(rate=1.0, noise=1.0, start=(ZERO, ZERO)):
    drift = tuple(SupersmoothFunction(-rate * gen(SV[i]), SV) for i in range(2))
    diffusion = tuple(
        tuple(SupersmoothFunction(scalar(noise) if i == a else ZERO, SV) for a in range(2))
        for i in range(2)
    )
    return SdeSpec(drift, diffusion, tuple(start))


def test_criterion_1_algebra_suite():
    rng = random.Random(101)
    pool = tuple(eta(i) for i in range(1, 7))
    elements = [random_element(rng, pool) for _ in range(1000)]

    worst_assoc = worst_banach = 0.0
    for i in range(0, 998, 3):
        a, b, c = elements[i], elements[i + 1], elements[i + 2]
        scale = max(1.0, a.norm() * b.norm() * c.norm())
        worst_assoc = max(worst_assoc, ((a * b) * c - a * (b * c)).norm() / scale)
        worst_banach = max(worst_banach, (a * b).norm() - a.norm() * b.norm())

    worst_comm = worst_nilp = 0.0
    for i in range(250):
        pa = rng.choice((Parity.EVEN, Parity.ODD))
        pb = rng.choice((Parity.EVEN, Parity.ODD))
        a = random_element(rng, pool, parity=pa)
        b = random_element(rng, pool, parity=pb)
        sign = -1 if (pa is Parity.ODD and pb is Parity.ODD) else 1
        worst_comm = max(worst_comm, (a * b - sign * (b * a)).norm())
        if pa is Parity.ODD:
            worst_nilp = max(worst_nilp, (a * a).norm())

    worst_taylor = 0.0
    four = tuple(eta(i) for i in range(1, 5))
    for _ in range(25):
        f = SupersmoothFunction(random_element(rng, four), four)
        base = [
            gen(aux(i, 1)) + rng.uniform(-1, 1) * gen(aux(i, 3)) * gen(aux(5, 3)) * gen(aux(6, 3))
            for i in range(1, 5)
        ]
        shift = [rng.uniform(-1, 1) * gen(aux(i, 2)) for i in range(1, 5)]
        worst_taylor = max(worst_taylor, taylor_residual(f, base, shift))

    algebra_worst = max(worst_comm, worst_assoc, worst_nilp, worst_banach)
    report(
        algebra_worst <= EXACT and worst_taylor <= IDENTITY,
        "criterion 1 (algebra suite)",
        f"commutation/associativity/nilpotency/norm worst={algebra_worst:.2e} (tol 1e-12), "
        f"expansion identity worst={worst_taylor:.2e} (tol 1e-10)",
    )


def test_criterion_2_wiener_suite():
    weight = 0.0
    pde = 0.0
    for m in (2, 4):
        variables = tuple(eta(i) for i in range(1, m + 1))
        space = WienerSpace(m)
        for t in (0.3, 0.7, 1.0):
            weight = max(weight, abs(heat_kernel(variables, t).integrate().scalar_value() - 1))
            pde = max(pde, heat_equation_residual(space, variables, t))

    mid = (eta(1, 1), eta(2, 1))
    far = (aux(1, 9), aux(2, 9))
    semigroup = (
        compose_kernels(
            heat_kernel_difference(SV, mid, 0.3), heat_kernel_difference(mid, far, 0.7), mid
        ).body
        - heat_kernel_difference(SV, far, 1.0).body
    ).norm()

    t1, t2 = 0.4, 0.9
    motion = BrownianMotion(SPACE, Partition.from_times([t1, t2]))
    b1, b2 = motion.at_time(t1), motion.at_time(t2)
    moments = max(
        abs(motion.expect(b2[0])),
        abs(motion.expect(b2[0] * b2[1]) - t2),
        abs(motion.expect(b1[0] * b2[1]) - min(t1, t2)),
        abs(motion.expect((b2[0] - b1[0]) * (b2[1] - b1[1])) - (t2 - t1)),
    )
    grid = BrownianMotion(SPACE, Partition((0.0, 0.2, 0.3, 0.7, 0.9)))
    s_pair = (grid.at_time(0.2), grid.at_time(0.3))
    u_pair = (grid.at_time(0.7), grid.at_time(0.9))
    moments = max(
        moments, abs(grid.expect((u_pair[1][0] - u_pair[0][0]) * (s_pair[1][1] - s_pair[0][1])))
    )

    rng = random.Random(102)
    bridge = 0.0
    eps = SPACE.eps_matrix
    for _ in range(10):
        s = rng.uniform(0.0, 1.0)
        u = rng.uniform(s, 1.0)
        bridge = max(bridge, float(np.abs(bridge_covariance(SPACE, s, u) - eps * s * (1 - u)).max()))

    ok = (
        weight <= EXACT
        and semigroup <= EXACT
        and pde <= 1e-8
        and moments <= EXACT
        and bridge <= EXACT
    )
    report(
        ok,
        "criterion 2 (wiener suite)",
        f"weight={weight:.2e}, semigroup={semigroup:.2e} (tol 1e-12), pde={pde:.2e} (tol 1e-8), "
        f"moments={moments:.2e}, bridge={bridge:.2e} (tol 1e-12)",
    )


def test_criterion_3_ito_suite():
    rng = random.Random(103)
    worst_iso = 0.0
    worst_mean = 0.0
    solutions = {}
    for trial in range(100):
        steps = rng.randint(1, 4)
        if trial % 3 == 0:
            nodes = [0.0]
            for _ in range(steps):
                nodes.append(nodes[-1] + rng.uniform(0.1, 0.5))
            partition = Partition(tuple(nodes))
        else:
            partition = Partition.uniform(1.0, steps)
        state_dependent = trial % 2 == 0
        if state_dependent:
            key = partition.nodes
            if key not in solutions:
                solutions[key] = solve_sde(
                    ou_spec(start=(gen(aux(1)), gen(aux(2)))), SPACE, partition
                )
            zeta = solutions[key]

            def entry(r):
                z = zeta.values[r]
                return scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) + complex(
                    rng.uniform(-1, 1), rng.uniform(-1, 1)
                ) * (z[0] * z[1])

        else:

            def entry(r):
                return scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))

        values = tuple(
            tuple(tuple(entry(r) for _ in range(2)) for _ in range(2))
            for r in range(steps + 1)
        )
        matrix = AdaptedMatrix(SPACE, partition, values)
        worst_iso = max(worst_iso, isometry_residual(matrix, 0, 1))
        motion = BrownianMotion(SPACE, partition)
        for comp in ito_integral(matrix).final:
            worst_mean = max(worst_mean, motion.expect_element(comp).norm())
    report(
        worst_iso <= IDENTITY and worst_mean == 0.0,
        "criterion 3 (ito suite)",
        f"isometry worst={worst_iso:.2e} over 100 integrands (tol 1e-10), "
        f"mean-zero worst={worst_mean:.2e} (exact)",
    )


def test_criterion_4_sde_suite():
    target = (1 - np.exp(-2.0)) / 2
    values = []
    depths = []
    movements = []
    for steps in (8, 16, 32, 64):
        partition = Partition.uniform(1.0, steps)
        result = picard_solve(ou_spec(), SPACE, partition)
        motion = BrownianMotion(SPACE, partition)
        values.append(
            complex(motion.expect(result.process.final[0] * result.process.final[1]))
        )
        depths.append(result.stationary_depth)
        movements.append(result.differences[-1])
    errors = [abs(v - target) for v in values]
    refined = 2 * values[-1] - values[-2]  # the N=64 refinement-study value
    moment_ok = halving_ok(errors) and abs(refined - target) <= 2e-3
    stationary_ok = all(d is not None for d in depths) and max(movements) == 0.0

    spec = ou_spec(start=(gen(aux(1)), gen(aux(2))))
    chain_errors = []
    ibp_errors = []
    growth_times_first = MixedPolynomial(1, 2, {((1,), (1,)): 1.0})
    for steps in (8, 16, 32):
        partition = Partition.uniform(1.0, steps)
        stochastic_part = solve_sde(spec, SPACE, partition)
        deterministic = ItoProcess.deterministic(
            SPACE, partition, lambda t: np.exp(t), lambda t: np.exp(t)
        )
        chain_errors.append(
            ito_formula_residual(growth_times_first, ItoProcess.concat(deterministic, stochastic_part))
        )
        ibp_errors.append(integration_by_parts_residual(stochastic_part))
    residual_ok = halving_ok(chain_errors) and halving_ok(ibp_errors)

    report(
        moment_ok and stationary_ok and residual_ok,
        "criterion 4 (sde suite)",
        f"OU moment study values={[f'{v.real:.5f}' for v in values]}, refined={refined.real:.5f} "
        f"vs 0.43233 (tol 2e-3), depths={depths}, final movement={max(movements):.1e}, "
        f"chain-rule ratios={[f'{a/b:.2f}' for a, b in zip(chain_errors, chain_errors[1:])]}, "
        f"product-rule ratios={[f'{a/b:.2f}' for a, b in zip(ibp_errors, ibp_errors[1:])]}",
    )


def test_criterion_5a_flat_evolution_exact():
    flat = example_hamiltonian("flat")
    kernel = closed_form_kernel("flat", 1.0)
    worst = 0.0
    side = [ONE, gen(KV[0]), gen(KV[1]), gen(KV[0]) * gen(KV[1])]
    for f, f_in in zip(BASIS, side):
        estimate = fk_evolve(flat, f, Partition.uniform(1.0, 1))
        exact = berezin_integrate(kernel.body * f_in, KV)
        worst = max(worst, (estimate - exact).norm())
    report(
        worst < EXACT,
        "criterion 5a (flat case exact at one step)",
        f"worst coefficient error={worst:.2e} (tol 1e-12)",
    )


def test_criterion_5b_linear_drift_kernel_matches_print():
    worst = 0.0
    for t in (0.5, 1.0):
        h = example_hamiltonian("ou")
        worst = max(worst, (oracle_kernel(h, t).body - closed_form_kernel("ou", t).body).norm())
    report(
        worst < 1e-9,
        "criterion 5b (linear-drift kernel vs reference form)",
        f"worst gap over t in (0.5, 1.0) = {worst:.2e} (tol 1e-9)",
    )


def test_criterion_5c_oscillator_kernel_and_convergence():
    oscillator = example_hamiltonian("oscillator")
    reference_gap = 0.0
    for t in (0.5, 1.0):
        reference_gap = max(
            reference_gap,
            (oracle_kernel(oscillator, t).body - closed_form_kernel("oscillator", t).body).norm(),
        )
    target = matrix_apply(semigroup_oracle(hamiltonian_matrix(oscillator), 1.0), TOP)
    errors = []
    final = None
    for steps in (8, 16, 32, 64):
        final = fk_evolve(oscillator, TOP, Partition.uniform(1.0, steps))
        errors.append((final - target).norm())
    at_start = abs(final.constant - target.constant)  # the tracked zero-start value
    ok = reference_gap < 1e-9 and halving_ok(errors) and at_start < 5e-3
    report(
        ok,
        "criterion 5c (oscillator kernel and first-order evolution)",
        f"reference gap={reference_gap:.2e} (tol 1e-9), error ratios="
        f"{[f'{a/b:.2f}' for a, b in zip(errors, errors[1:])]} (window 1.7-2.3), "
        f"zero-start error at N=64: {at_start:.2e} (tol 5e-3)",
    )


def test_criterion_5d_quartic_moments_and_reported_gap():
    quartic = example_hamiltonian("quartic")  # b = c = 1
    reference = np.exp(-2.0) * TOP + scalar((np.exp(-2.0) - 1.0) / 2.0)
    errors = []
    for steps in (8, 16, 32, 64):
        estimate = fk_evolve(quartic, TOP, Partition.uniform(1.0, steps))
        errors.append((estimate - reference).norm())

    difference = oracle_kernel(quartic, 1.0).body - closed_form_kernel("quartic", 1.0).body
    gap = difference.coefficient(SV)
    expected_gap = 1 - np.exp(-2.0)
    localized = (difference - gap * monomial(SV)).norm()
    detected = abs(abs(gap) - expected_gap) <= 1e-9 and localized <= 1e-9
    report(
        halving_ok(errors) and detected,
        "criterion 5d (quartic moments and the reference-kernel gap)",
        f"moment error ratios={[f'{a/b:.2f}' for a, b in zip(errors, errors[1:])]}, "
        f"reference kernel differs from the oracle by {abs(gap):.6f} in the top slot "
        f"(expected {expected_gap:.6f}; reported, not reconciled)",
    )


def test_criterion_6_engine_cross_check():
    worst = 0.0
    for name in EXAMPLE_NAMES:
        h = example_hamiltonian(name, lam=0.4)
        for steps in (1, 2, 4):
            partition = Partition.uniform(1.0, steps)
            for f in BASIS:
                worst = max(
                    worst, (fk_evolve(h, f, partition) - fk_bruteforce(h, f, partition)).norm()
                )
    report(
        worst <= IDENTITY,
        "criterion 6 (transfer-operator vs joint-algebra engines)",
        f"worst gap over all examples, N in (1,2,4), basis functions: {worst:.2e} (tol 1e-10)",
    )
