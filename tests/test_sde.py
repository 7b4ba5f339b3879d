import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin.algebra import ZERO, aux, gen, scalar
from berezin.calculus import SupersmoothFunction
from berezin.feynman_kac import example_hamiltonian, sde_spec, state_variables
from berezin.stochastic import (
    AdaptedProcess,
    ItoProcess,
    MixedPolynomial,
    SdeSpec,
    _coefficients_at,
    brownian_process,
    integration_by_parts_residual,
    ito_formula_residual,
    picard_solve,
    solve_sde,
)
from berezin.cli import PARAMS, _tracked_values
from berezin.verify import refinement
from berezin.wiener import BrownianMotion, Partition, WienerSpace

SPACE = WienerSpace(2)
SV = state_variables(2)
XI = tuple(gen(aux(i)) for i in (1, 2))


def ou_spec(rate=1.0, noise=1.0, start=XI):
    drift = tuple(SupersmoothFunction(-rate * gen(SV[i]), SV) for i in range(2))
    diffusion = tuple(
        tuple(SupersmoothFunction(scalar(noise) if i == a else ZERO, SV) for a in range(2))
        for i in range(2)
    )
    return SdeSpec(drift, diffusion, start)


def zero_drift_spec(start=XI):
    drift = tuple(SupersmoothFunction(ZERO, SV) for _ in range(2))
    diffusion = tuple(
        tuple(SupersmoothFunction(scalar(1.0) if i == a else ZERO, SV) for a in range(2))
        for i in range(2)
    )
    return SdeSpec(drift, diffusion, start)


def test_sde_spec_parity_validation():
    odd_diffusion = tuple(
        tuple(SupersmoothFunction(gen(SV[0]), SV) for _ in range(2)) for _ in range(2)
    )
    with pytest.raises(ValueError):
        SdeSpec(tuple(SupersmoothFunction(ZERO, SV) for _ in range(2)), odd_diffusion, XI)
    with pytest.raises(ValueError):
        ou_spec(start=(scalar(1.0), ZERO))


def test_a_spec_over_two_variable_tuples_is_rejected():
    other = (aux(3), aux(4))
    drift = (SupersmoothFunction(-gen(SV[0]), SV), SupersmoothFunction(-gen(other[1]), other))
    diffusion = tuple(
        tuple(SupersmoothFunction(scalar(1.0) if i == a else ZERO, SV) for a in range(2)) for i in range(2)
    )
    with pytest.raises(ValueError, match="one variable tuple"):
        SdeSpec(drift, diffusion, XI)
    mixed_diffusion = ((SupersmoothFunction(scalar(1.0), SV), SupersmoothFunction(ZERO, other)),) + diffusion[1:]
    with pytest.raises(ValueError, match="one variable tuple"):
        SdeSpec(tuple(SupersmoothFunction(-gen(v), SV) for v in SV), mixed_diffusion, XI)


def test_a_spec_needs_one_variable_per_component():
    three = (*SV, aux(3))
    drift = tuple(SupersmoothFunction(-gen(v), three) for v in SV)
    diffusion = tuple(tuple(SupersmoothFunction(scalar(1.0), three) for _ in range(2)) for _ in range(2))
    with pytest.raises(ValueError, match="need 2 variables, got 3"):
        SdeSpec(drift, diffusion, XI)


def test_a_node_that_is_not_odd_is_rejected():
    partition = Partition.uniform(1.0, 2)
    even_guess = [(scalar(1.0), ZERO)] * (partition.steps + 1)
    with pytest.raises(ValueError):
        picard_solve(ou_spec(), SPACE, partition, initial_guess=even_guess)


def test_a_node_of_the_wrong_width_is_rejected():
    partition = Partition.uniform(1.0, 2)
    wide_guess = [XI + (gen(aux(3)),)] * (partition.steps + 1)
    with pytest.raises(ValueError, match="expected 2 values, got 3"):
        picard_solve(ou_spec(), SPACE, partition, initial_guess=wide_guess)


@pytest.mark.parametrize("name", ["ou", "quartic"])  # quartic: a state-dependent diffusion
def test_the_sweep_keeps_the_coefficients_of_its_nodes(name):
    spec = sde_spec(example_hamiltonian(name), XI)
    for partition in (Partition.uniform(1.0, 6), Partition((0.0, 0.1, 0.5, 0.6, 1.3))):
        swept = solve_sde(spec, SPACE, partition)
        assert isinstance(swept, AdaptedProcess) and swept.even_count == 0
        again = [_coefficients_at(spec, swept.values[r]) for r in range(partition.steps)]
        assert _items(swept.drift) == _items(tuple(a for a, _ in again))
        assert _items(swept.diffusion) == _items(tuple(c for _, c in again))


def _items(nested) -> str:
    """The repr of every element's terms in a nested tuple, key order and signs of zero included."""
    if isinstance(nested, tuple):
        return "(" + ", ".join(map(_items, nested)) + ")"
    return repr(list(nested.items()))


def test_zero_drift_solution_is_start_plus_path():
    partition = Partition.uniform(1.0, 5)
    result = picard_solve(zero_drift_spec(), SPACE, partition)
    path = brownian_process(SPACE, partition)
    for r in range(partition.steps + 1):
        for i in range(2):
            assert (result.process.values[r][i] - (XI[i] + path.values[r][i])).norm() == 0.0
    assert result.stationary_depth is not None
    assert result.stationary_depth <= 2
    assert result.differences[-1] == 0.0


def test_picard_reaches_an_exact_fixed_point_for_the_linear_drift():
    partition = Partition.uniform(1.0, 8)
    result = picard_solve(ou_spec(), SPACE, partition)
    assert result.stationary_depth is not None
    assert result.differences[-1] == 0.0
    # one more pass keeps the process identical
    again = picard_solve(
        ou_spec(), SPACE, partition, initial_guess=result.process.values
    )
    assert again.stationary_depth == 1
    assert all(
        (a - b).norm() == 0.0
        for va, vb in zip(result.process.values, again.process.values)
        for a, b in zip(va, vb)
    )


def test_two_picard_seeds_land_on_the_same_fixed_point():
    partition = Partition.uniform(1.0, 6)
    baseline = picard_solve(ou_spec(), SPACE, partition)
    shifted_guess = [
        tuple(XI[i] + 0.7 * gen(aux(i + 1, 4)) for i in range(2))
        for _ in range(partition.steps + 1)
    ]
    other = picard_solve(ou_spec(), SPACE, partition, initial_guess=shifted_guess)
    gap = max(
        (a - b).norm()
        for va, vb in zip(baseline.process.values, other.process.values)
        for a, b in zip(va, vb)
    )
    assert gap == 0.0


def test_mu_diagnostics_decay_to_zero():
    partition = Partition.uniform(1.0, 5)
    result = picard_solve(ou_spec(), SPACE, partition, compute_mu=True)
    assert result.mu_diagnostics[-1] == 0.0


def test_mu_diagnostics_build_each_slice_density_once(monkeypatch):
    # One motion serves every pass's moment gap, so each slice's density is
    # built once, not once per pass.
    from berezin import wiener

    builds = []
    build = wiener._slice_density
    monkeypatch.setattr(wiener, "_slice_density", lambda ids, t: builds.append(t) or build(ids, t))
    result = picard_solve(ou_spec(), SPACE, Partition.uniform(1.0, 5), compute_mu=True)
    assert len(result.mu_diagnostics) > 1
    assert len(builds) == 5


def test_ou_mean_matches_the_discrete_decay_and_its_limit():
    rate = 1.0
    for steps in (8, 16, 32):
        partition = Partition.uniform(1.0, steps)
        solution = solve_sde(ou_spec(rate=rate), SPACE, partition)
        motion = BrownianMotion(SPACE, partition)
        mean = motion.expect_element(solution.final[0])
        discrete = (1 - rate / steps) ** steps  # the exact grid decay factor
        assert (mean - discrete * XI[0]).norm() <= 1e-12
        assert (mean - np.exp(-rate) * XI[0]).norm() <= 2.0 / steps


def test_ou_second_moment_refines_to_the_closed_value():
    values = []
    for steps in (8, 16, 32, 64):
        partition = Partition.uniform(1.0, steps)
        final = solve_sde(ou_spec(start=(ZERO, ZERO)), SPACE, partition).final
        motion = BrownianMotion(SPACE, partition)
        values.append(complex(motion.expect(final[0] * final[1])))
    limit = (1 - np.exp(-2.0)) / 2
    errors = [abs(v - limit) for v in values]
    assert refinement((8, 16, 32, 64), 1, errors=errors).deviation <= 0.3
    extrapolate = 2 * values[-1] - values[-2]
    assert abs(extrapolate - limit) <= 2e-3


def test_linear_functions_of_stochastic_integrals_telescope_exactly():
    partition = Partition.uniform(1.0, 4)
    spec = ou_spec()
    process = solve_sde(spec, SPACE, partition)
    linear = MixedPolynomial(0, 2, {((), (1,)): 1.0, ((), (2,)): -2.0})
    assert ito_formula_residual(linear, process) <= 1e-12


def test_product_rule_residual_vanishes_for_constant_integrands():
    partition = Partition.uniform(1.0, 4)
    spec = zero_drift_spec()
    process = solve_sde(spec, SPACE, partition)
    assert integration_by_parts_residual(process) <= 1e-12


def test_product_rule_residual_halves_for_the_linear_drift():
    errors = []
    for steps in (8, 16, 32):
        partition = Partition.uniform(1.0, steps)
        process = solve_sde(ou_spec(), SPACE, partition)
        errors.append(integration_by_parts_residual(process))
    assert errors[0] > 1e-3  # a genuine first-order gap, not noise
    assert refinement((8, 16, 32), 1, errors=errors).deviation <= 0.3


def test_exponential_bracket_cancellation_for_the_linear_drift():
    # the growth factor exp(rt) against the decaying solution leaves the
    # start value, up to a first-order grid error
    rate = 1.0
    norms = []
    for steps in (8, 16, 32):
        partition = Partition.uniform(1.0, steps)
        solution = solve_sde(ou_spec(rate=rate), SPACE, partition)
        motion = BrownianMotion(SPACE, partition)
        value = motion.expect_element(np.exp(rate) * solution.final[0]) - XI[0]
        norms.append(value.norm())
    assert refinement((8, 16, 32), 1, errors=norms).deviation <= 0.3
    assert norms[-1] <= 0.05


def test_change_of_variables_residual_halves_with_a_deterministic_factor():
    rate = 1.0
    spec = ou_spec(rate=rate)
    growth_times_first = MixedPolynomial(1, 2, {((1,), (1,)): 1.0})
    errors = []
    for steps in (8, 16, 32):
        partition = Partition.uniform(1.0, steps)
        stochastic_part = solve_sde(spec, SPACE, partition)
        deterministic = ItoProcess.deterministic(
            SPACE, partition, lambda t: np.exp(rate * t), lambda t: rate * np.exp(rate * t)
        )
        joined = ItoProcess.concat(deterministic, stochastic_part)
        errors.append(ito_formula_residual(growth_times_first, joined))
    assert errors[0] > 1e-3
    assert refinement((8, 16, 32), 1, errors=errors).deviation <= 0.3


def test_processes_on_different_grids_are_not_joined():
    eight = Partition.uniform(1.0, 8)
    stochastic_part = solve_sde(ou_spec(), SPACE, eight)

    def growth(space, partition):
        return ItoProcess.deterministic(space, partition, np.exp, np.exp)

    uneven = Partition(tuple(np.sqrt(r / 8) for r in range(9)))
    for deterministic in (
        growth(SPACE, Partition.uniform(1.0, 4)),  # fewer slices: zip would cut the process short
        growth(SPACE, uneven),  # as many slices, other widths
        growth(WienerSpace(4), eight),  # one grid, another Brownian dimension
    ):
        with pytest.raises(ValueError, match="share the Brownian dimension and the partition"):
            ItoProcess.concat(deterministic, stochastic_part)
    # another space of the same dimension and an equal partition: spaces are not compared by identity
    assert ItoProcess.concat(growth(WienerSpace(2), Partition.uniform(1.0, 8)), stochastic_part).dimension == 3


def test_state_dependent_quadratic_diffusion_is_accepted():
    # an even, state-dependent diffusion keeps every iterate odd
    field = SupersmoothFunction(scalar(1.0) + 0.5 * gen(SV[0]) * gen(SV[1]), SV)
    zero = SupersmoothFunction(ZERO, SV)
    spec = SdeSpec(
        (zero, zero),
        ((field, zero), (zero, field)),
        XI,
    )
    partition = Partition.uniform(1.0, 4)
    result = picard_solve(spec, SPACE, partition)
    assert result.stationary_depth is not None
    parities = result.process.component_parities()
    from berezin.algebra import Parity

    assert set(parities) <= {Parity.ODD}


def _coefficient_gap(x, y):
    """Largest coefficient difference of two elements, key by key."""
    a, b = dict(x.items()), dict(y.items())
    return max((abs(a.get(k, 0j) - b.get(k, 0j)) for k in a.keys() | b.keys()), default=0.0)


UNIFORM_STEPS = (4, 8, 12, 16, 24, 32, 64)


@pytest.mark.parametrize(
    "partition",
    [Partition.uniform(1.0, n) for n in UNIFORM_STEPS]
    + [Partition((0.0, 0.1, 0.35, 0.4, 0.8, 0.95, 1.3))],
    ids=[f"N{n}" for n in UNIFORM_STEPS] + ["nonuniform"],
)
@pytest.mark.parametrize("start", [(ZERO, ZERO), XI], ids=["zero-start", "aux-start"])
def test_the_sweep_is_the_picard_fixed_point(partition, start):
    spec = ou_spec(start=start)
    swept = solve_sde(spec, SPACE, partition)
    iterated = picard_solve(spec, SPACE, partition)
    assert iterated.differences[-1] == 0.0
    gap = max(
        _coefficient_gap(a, b)
        for va, vb in zip(swept.values, iterated.process.values)
        for a, b in zip(va, vb)
    )
    assert gap == 0.0  # the last iterate is the exact grid fixed point


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    rate=st.floats(0.1, 2.0),
    noise=st.floats(0.2, 2.0),
    t=st.floats(0.1, 2.0),
    steps=st.integers(1, 32),
)
def test_ou_second_moment_is_the_discrete_geometric_sum(rate, noise, t, steps):
    # the value `converge --quantity ou_xx` reports, by the Feynman-Kac transfer
    dt = t / steps
    exact = noise**2 * dt * sum((1 - rate * dt) ** (2 * k) for k in range(steps))
    (value,) = _tracked_values("ou_xx", {**PARAMS, "r": rate, "c": noise, "t": t}, (steps,))
    assert abs(value - exact) <= 1e-12 * abs(exact)


def test_one_picard_pass_leaves_the_sweep_unchanged():
    for start in ((ZERO, ZERO), XI):
        spec = ou_spec(start=start)
        partition = Partition.uniform(1.0, 16)
        swept = solve_sde(spec, SPACE, partition)
        again = picard_solve(spec, SPACE, partition, initial_guess=swept.values)
        assert again.stationary_depth == 1
        assert again.differences == (0.0,)
