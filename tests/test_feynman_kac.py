import numpy as np
import pytest

from berezin.algebra import ONE, ZERO, aux, gen, monomial, scalar
from berezin.calculus import SupersmoothFunction, apply_kernel, grassmann_delta
from berezin.feynman_kac import (
    EXAMPLE_NAMES,
    HamiltonianSpec,
    apply_hamiltonian,
    basis_elements,
    closed_form_kernel,
    element_coordinates,
    example_hamiltonian,
    fk_bruteforce,
    fk_evolve,
    hamiltonian_matrix,
    kernel_extract,
    kernel_variables,
    matrix_apply,
    monomial_basis,
    oracle_kernel,
    semigroup_oracle,
    state_variables,
)
from berezin.verify import ratio_deviation
from berezin.wiener import Partition, heat_kernel_difference

SV = state_variables(2)
KV = kernel_variables(2)
X1, X2 = gen(SV[0]), gen(SV[1])
TOP = X1 * X2
BASIS_ELEMENTS = [ONE, X1, X2, TOP]
KERNEL_SIDE = [ONE, gen(KV[0]), gen(KV[1]), gen(KV[0]) * gen(KV[1])]


def test_basis_order_is_by_length_then_position():
    assert monomial_basis(2) == ((), (0,), (1,), (0, 1))
    assert monomial_basis(3)[:5] == ((), (0,), (1,), (2,), (0, 1))
    assert basis_elements(state_variables(2)) == [ONE, X1, X2, TOP]


def test_spec_parity_validation():
    with pytest.raises(ValueError):
        example_hamiltonian("nope")
    with pytest.raises(ValueError):
        HamiltonianSpec(2, 2, X1, (ZERO, ZERO), ((ONE, ZERO), (ZERO, ONE)), SV)  # odd potential
    with pytest.raises(ValueError):
        HamiltonianSpec(2, 2, ZERO, (ONE, ZERO), ((ONE, ZERO), (ZERO, ONE)), SV)  # even drift
    with pytest.raises(ValueError):
        HamiltonianSpec(2, 2, ZERO, (ZERO, ZERO), ((X1, ZERO), (ZERO, X1)), SV)  # odd diffusion
    with pytest.raises(ValueError):
        HamiltonianSpec(2, 3, ZERO, (ZERO, ZERO), ((ZERO,) * 3, (ZERO,) * 3), SV)  # odd m


def test_flat_operator_action_on_the_basis():
    flat = example_hamiltonian("flat")
    assert apply_hamiltonian(flat, TOP) == -ONE
    for f in (ONE, X1, X2):
        assert apply_hamiltonian(flat, f).is_zero()


def test_oscillator_operator_couples_only_the_even_block():
    oscillator = example_hamiltonian("oscillator")
    op = hamiltonian_matrix(oscillator)
    matrix = op.matrix
    coupled = np.zeros_like(matrix)
    coupled[0, 3] = matrix[0, 3]
    coupled[3, 0] = matrix[3, 0]
    assert np.abs(matrix - coupled).max() == 0.0
    assert matrix[0, 3] == pytest.approx(-1.0)  # second-order part on the top monomial
    assert matrix[3, 0] == pytest.approx(-1.0)  # the potential on the constant


def test_constant_potential_gives_a_scalar_operator():
    h = HamiltonianSpec(2, 2, scalar(0.8), (ZERO, ZERO), ((ZERO, ZERO), (ZERO, ZERO)), SV)
    op = hamiltonian_matrix(h)
    assert np.abs(op.matrix - 0.8 * np.eye(4)).max() <= 1e-15


def test_oracle_at_time_zero_is_the_identity():
    op = hamiltonian_matrix(example_hamiltonian("ou"))
    u = semigroup_oracle(op, 0.0)
    assert np.abs(u.matrix - np.eye(4)).max() == 0.0
    with pytest.raises(ValueError):
        semigroup_oracle(op, -0.1)


def test_flat_oracle_is_exactly_linear_in_time():
    op = hamiltonian_matrix(example_hamiltonian("flat"))
    assert np.abs(op.matrix @ op.matrix).max() == 0.0  # nilpotent of order two
    for t in (0.3, 1.0, 2.7):
        u = semigroup_oracle(op, t)
        assert np.abs(u.matrix - (np.eye(4) - t * op.matrix)).max() <= 1e-14


def test_linear_drift_oracle_action_on_the_basis():
    r, c, t = 1.0, 1.0, 1.0
    u = semigroup_oracle(hamiltonian_matrix(example_hamiltonian("ou", r=r, c=c)), t)
    decay = np.exp(-r * t)
    assert (matrix_apply(u, ONE) - ONE).norm() <= 1e-12
    assert (matrix_apply(u, X1) - decay * X1).norm() <= 1e-12
    assert (matrix_apply(u, X2) - decay * X2).norm() <= 1e-12
    want_top = decay**2 * TOP + scalar(c * c / (2 * r) * (1 - decay**2))
    assert (matrix_apply(u, TOP) - want_top).norm() <= 1e-12


def test_coordinates_reject_elements_outside_the_span():
    op = hamiltonian_matrix(example_hamiltonian("flat"))
    with pytest.raises(ValueError):
        element_coordinates(gen(aux(1)), op.variables, op.basis)


def test_flat_evolution_is_exact_at_any_grid():
    flat = example_hamiltonian("flat")
    kernel = closed_form_kernel("flat", 1.0)
    for steps in (1, 4):
        partition = Partition.uniform(1.0, steps)
        for f, f_in in zip(BASIS_ELEMENTS, KERNEL_SIDE):
            estimate = fk_evolve(flat, f, partition)
            exact = apply_kernel(kernel, SupersmoothFunction(f_in, KV)).body
            assert (estimate - exact).norm() <= 1e-12


def test_constant_potential_factors_out_exactly():
    lam = 0.7
    with_potential = example_hamiltonian("flat_potential", lam=lam)
    without = example_hamiltonian("flat")
    for steps in (1, 3):
        partition = Partition.uniform(1.0, steps)
        a = fk_evolve(with_potential, TOP, partition)
        b = np.exp(-lam) * fk_evolve(without, TOP, partition)
        assert (a - b).norm() <= 1e-12


def test_oscillator_estimate_converges_first_order_to_the_oracle():
    oscillator = example_hamiltonian("oscillator")
    u = semigroup_oracle(hamiltonian_matrix(oscillator), 1.0)
    target = matrix_apply(u, TOP)
    errors = []
    last = None
    for steps in (8, 16, 32, 64):
        last = fk_evolve(oscillator, TOP, Partition.uniform(1.0, steps))
        errors.append((last - target).norm())
    assert ratio_deviation(errors) <= 0.3
    assert abs(last.constant - np.sinh(1.0)) <= 5e-3


def test_quartic_moments_converge_to_the_reference_values():
    quartic = example_hamiltonian("quartic")  # b = c = 1
    reference = np.exp(-2.0) * TOP + scalar((np.exp(-2.0) - 1.0) / 2.0)
    errors = []
    for steps in (8, 16, 32, 64):
        estimate = fk_evolve(quartic, TOP, Partition.uniform(1.0, steps))
        errors.append((estimate - reference).norm())
    assert ratio_deviation(errors) <= 0.3
    partition = Partition.uniform(1.0, 16)
    assert (fk_evolve(quartic, ONE, partition) - ONE).norm() <= 1e-12
    assert (fk_evolve(quartic, X1, partition) - X1).norm() <= 1e-12


def test_quartic_oracle_reproduces_the_reference_top_action():
    quartic = example_hamiltonian("quartic")
    u = semigroup_oracle(hamiltonian_matrix(quartic), 1.0)
    reference = np.exp(-2.0) * TOP + scalar((np.exp(-2.0) - 1.0) / 2.0)
    assert (matrix_apply(u, TOP) - reference).norm() <= 1e-12


def test_a_real_quartic_field_evolves_with_the_opposite_exponent():
    # With the diffusion field taken real, the squared field enters with
    # the opposite sign, so the top moment grows like exp(+2bt) instead of
    # decaying.  The engines stay consistent with each other; only the
    # imaginary field reproduces the decaying reference values.
    b = c = 1.0
    field = scalar(c) + (b / c) * TOP
    real_variant = HamiltonianSpec(
        2, 2, ZERO, (ZERO, ZERO), ((field, ZERO), (ZERO, field)), SV
    )
    one_step = fk_evolve(real_variant, TOP, Partition.uniform(1.0, 1))
    grown = (1 + 2 * b) * TOP + scalar(c * c)
    assert (one_step - grown).norm() <= 1e-12

    decaying = fk_evolve(example_hamiltonian("quartic"), TOP, Partition.uniform(1.0, 1))
    shrunk = (1 - 2 * b) * TOP - scalar(c * c)
    assert (decaying - shrunk).norm() <= 1e-12

    # the machinery remains self-consistent for the real variant
    u = semigroup_oracle(hamiltonian_matrix(real_variant), 1.0)
    target = matrix_apply(u, TOP)
    errors = []
    for steps in (16, 32, 64):
        estimate = fk_evolve(real_variant, TOP, Partition.uniform(1.0, steps))
        errors.append((estimate - target).norm())
    assert ratio_deviation(errors) <= 0.4


def test_bruteforce_agrees_with_the_transfer_engine():
    for name in EXAMPLE_NAMES:
        h = example_hamiltonian(name, lam=0.4)
        for steps in (1, 2, 4):
            partition = Partition.uniform(1.0, steps)
            for f in BASIS_ELEMENTS:
                gap = (fk_evolve(h, f, partition) - fk_bruteforce(h, f, partition)).norm()
                assert gap <= 1e-10, (name, steps)


def test_bruteforce_flat_with_several_slices_is_still_exact():
    flat = example_hamiltonian("flat")
    kernel = closed_form_kernel("flat", 1.0)
    partition = Partition.uniform(1.0, 4)
    for f, f_in in zip(BASIS_ELEMENTS, KERNEL_SIDE):
        estimate = fk_bruteforce(flat, f, partition)
        exact = apply_kernel(kernel, SupersmoothFunction(f_in, KV)).body
        assert (estimate - exact).norm() <= 1e-12


def test_bruteforce_slice_cap():
    flat = example_hamiltonian("flat")
    with pytest.raises(ValueError):
        fk_bruteforce(flat, ONE, Partition.uniform(1.0, 8))


def test_identity_kernel_is_the_reproducing_delta():
    from berezin.feynman_kac import OperatorMatrix

    identity = OperatorMatrix(np.eye(4, dtype=complex), SV, monomial_basis(2))
    got = kernel_extract(identity)
    want = grassmann_delta(SV, KV)
    assert (got.body - want.body).norm() == 0.0


def test_extracted_kernel_realizes_the_operator():
    for name in ("flat", "ou", "oscillator", "quartic"):
        u = semigroup_oracle(hamiltonian_matrix(example_hamiltonian(name)), 0.8)
        kernel = kernel_extract(u)
        for f, f_in in zip(BASIS_ELEMENTS, KERNEL_SIDE):
            via_kernel = apply_kernel(kernel, SupersmoothFunction(f_in, KV)).body
            via_matrix = matrix_apply(u, f)
            assert (via_kernel - via_matrix).norm() <= 1e-12


def test_flat_kernel_is_the_difference_gaussian():
    flat = example_hamiltonian("flat")
    for t in (0.5, 1.0):
        got = oracle_kernel(flat, t)
        want = heat_kernel_difference(KV, SV, t)
        assert (got.body - want.body).norm() <= 1e-12


def test_reference_kernels_match_the_oracle():
    for name in ("flat", "ou", "oscillator"):
        h = example_hamiltonian(name)
        for t in (0.5, 1.0):
            gap = (oracle_kernel(h, t).body - closed_form_kernel(name, t).body).norm()
            assert gap <= 1e-9, (name, t)


def test_oscillator_kernel_constant_is_sinh():
    kernel = closed_form_kernel("oscillator", 1.0)
    assert kernel.body.constant == pytest.approx(np.sinh(1.0))


def test_linear_drift_kernel_long_time_limit():
    r, c = 1.0, 1.0
    kernel = closed_form_kernel("ou", 50.0, r=r, c=c)
    limit = gen(KV[0]) * gen(KV[1]) + scalar(c * c / (2 * r))
    assert (kernel.body - limit).norm() <= 1e-12


def test_quartic_kernel_gap_is_confined_to_the_top_slot():
    b, t = 1.0, 1.0
    quartic = example_hamiltonian("quartic")
    difference = oracle_kernel(quartic, t).body - closed_form_kernel("quartic", t).body
    gap = difference.coefficient(SV)
    assert abs(abs(gap) - abs(1 - np.exp(-2 * b * t))) <= 1e-9
    remainder = difference - gap * monomial(SV)
    assert remainder.norm() <= 1e-9


def test_kernel_round_trip_in_three_dimensions():
    from berezin.feynman_kac import OperatorMatrix

    variables = state_variables(3)
    fresh = kernel_variables(3)
    basis = monomial_basis(3)
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    op = OperatorMatrix(matrix, variables, basis)
    kernel = kernel_extract(op, fresh)
    for position, subset in enumerate(basis):
        f_in = monomial(tuple(fresh[i] for i in subset))
        via_kernel = apply_kernel(kernel, SupersmoothFunction(f_in, fresh)).body
        via_matrix = matrix_apply(op, monomial(tuple(variables[i] for i in subset)))
        assert (via_kernel - via_matrix).norm() <= 1e-10, position


def test_four_dimensional_oscillator_through_the_generic_machinery():
    variables = state_variables(4)
    pair_sum = (
        gen(variables[0]) * gen(variables[1]) + gen(variables[2]) * gen(variables[3])
    )
    identity4 = tuple(
        tuple(scalar(1.0) if i == a else ZERO for a in range(4)) for i in range(4)
    )
    h = HamiltonianSpec(4, 4, -pair_sum, (ZERO,) * 4, identity4, variables)
    u = semigroup_oracle(hamiltonian_matrix(h), 1.0)
    # the two pair blocks evolve independently, so the top coefficient of
    # the evolved constant is sinh(1)^2 and the constant itself cosh(1)^2
    evolved = matrix_apply(u, ONE)
    assert evolved.constant == pytest.approx(np.cosh(1.0) ** 2, abs=1e-10)
    top = evolved.coefficient(variables)
    assert top == pytest.approx(np.sinh(1.0) ** 2, abs=1e-10)
    errors = []
    for steps in (8, 16, 32):
        estimate = fk_evolve(h, ONE, Partition.uniform(1.0, steps))
        errors.append((estimate - evolved).norm())
    assert ratio_deviation(errors) <= 0.3
    assert errors[-1] <= 0.15


def test_engines_agree_on_nonuniform_grids():
    partition = Partition((0.0, 0.15, 0.45, 1.0))
    for name in ("ou", "oscillator", "quartic"):
        h = example_hamiltonian(name)
        gap = (fk_evolve(h, TOP, partition) - fk_bruteforce(h, TOP, partition)).norm()
        assert gap <= 1e-10, name


def test_fine_grids_stay_fast_and_first_order():
    import time

    oscillator = example_hamiltonian("oscillator")
    target = matrix_apply(semigroup_oracle(hamiltonian_matrix(oscillator), 1.0), TOP)
    start = time.time()
    estimate = fk_evolve(oscillator, TOP, Partition.uniform(1.0, 128))
    elapsed = time.time() - start
    assert elapsed < 2.0
    assert (estimate - target).norm() <= 5e-3


def test_closed_form_parameter_validation():
    with pytest.raises(ValueError):
        closed_form_kernel("ou", 1.0, r=0.0)
    with pytest.raises(ValueError):
        closed_form_kernel("quartic", 1.0, b=0.0)
    with pytest.raises(ValueError):
        closed_form_kernel("flat", 0.0)
    with pytest.raises(ValueError):
        closed_form_kernel("unknown", 1.0)
