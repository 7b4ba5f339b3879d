import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin.algebra import (
    ONE,
    PRUNE,
    ZERO,
    GrassmannElement,
    aux,
    eta,
    gen,
    grassmann_exp,
    increment,
    index_generators,
    monomial,
    multi_index,
    scalar,
    substitute,
)
from berezin import feynman_kac
from berezin.calculus import SupersmoothFunction, apply_kernel, grassmann_delta
from berezin.feynman_kac import (
    EXAMPLE_NAMES,
    HamiltonianSpec,
    apply_hamiltonian,
    basis_elements,
    closed_form_kernel,
    element_coordinates,
    element_from_coordinates,
    example_hamiltonian,
    fk_bruteforce,
    fk_evolve,
    fk_operator,
    hamiltonian_matrix,
    kernel_extract,
    kernel_variables,
    matrix_apply,
    monomial_basis,
    oracle_kernel,
    sde_spec,
    semigroup_oracle,
    state_variables,
)
from berezin.verify import ratio_deviation
from berezin.wiener import Partition, WienerSpace, _integrate_slice, _slice_density, heat_kernel_difference

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


# The basis readers as they were written before the one cached table: each
# call enumerates the subsets and builds every key again.
def _subsets_per_call(n):
    subsets = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
    subsets.sort(key=lambda s: (len(s), s))
    return subsets


def _basis_elements_per_call(variables):
    return [
        GrassmannElement.from_monomial(tuple(variables[i] for i in subset))
        for subset in _subsets_per_call(len(variables))
    ]


def _coordinates_per_call(f, variables):
    basis = _subsets_per_call(len(variables))
    lookup = {multi_index(tuple(variables[i] for i in subset)): pos for pos, subset in enumerate(basis)}
    vec = np.zeros(len(basis), dtype=complex)
    for mi, coeff in f.items():
        vec[lookup[mi]] = coeff
    return vec


def _from_coordinates_per_call(vec, variables):
    terms = {}
    for pos, subset in enumerate(_subsets_per_call(len(variables))):
        coeff = complex(vec[pos])
        if coeff != 0:
            terms[multi_index(tuple(variables[i] for i in subset))] = coeff
    return GrassmannElement(terms)


def _kernel_extract_per_call(op, in_vars):
    n = len(op.variables)
    body = {}
    for col, subset in enumerate(_subsets_per_call(n)):
        complement = tuple(i for i in range(n) if i not in subset)
        comp_mono = GrassmannElement.from_monomial(tuple(in_vars[i] for i in complement))
        sub_mono = GrassmannElement.from_monomial(tuple(in_vars[i] for i in subset))
        sign = (comp_mono * sub_mono).coefficient(in_vars)
        for row, image_subset in enumerate(_subsets_per_call(n)):
            u = complex(op.matrix[row, col])
            if u == 0:
                continue
            out_mono = GrassmannElement.from_monomial(tuple(op.variables[i] for i in image_subset))
            feynman_kac._add_into(body, (out_mono * comp_mono)._terms, u / sign)
    return GrassmannElement._wrap(body)


def _exact(f):
    """Keys in order and coefficients by repr, so signs of zero count."""
    return repr(list(f.items()))


def _exact_list(elements):
    return [_exact(f) for f in elements]


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("variables_of", [state_variables, kernel_variables])
def test_the_cached_basis_matches_the_per_call_construction(n, variables_of):
    variables = variables_of(n)
    assert _exact_list(basis_elements(variables)) == _exact_list(_basis_elements_per_call(variables))
    assert _exact_list(basis_elements(list(variables))) == _exact_list(_basis_elements_per_call(variables))
    rng = np.random.default_rng(n)
    dim = 1 << n
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec[::3] = complex(-0.0, 0.0)
    if dim > 1:
        vec[1] = complex(0.5, -0.0)
    from_vec = element_from_coordinates(vec, variables)
    assert _exact(from_vec) == _exact(_from_coordinates_per_call(vec, variables))
    got = element_coordinates(from_vec, variables)
    assert repr(got.tolist()) == repr(_coordinates_per_call(from_vec, variables).tolist())
    with pytest.raises(ValueError, match="span of the basis"):
        element_coordinates(gen(aux(1)), variables)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_extract_matches_the_per_call_construction(n):
    from berezin.feynman_kac import OperatorMatrix

    rng = np.random.default_rng(10 + n)
    dim = 1 << n
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    matrix[0, 1:] = 0.0  # zero entries add nothing
    # The integrated variables sort below the operator's, so the complement
    # moves past every output monomial and the products carry signs.
    op = OperatorMatrix(matrix, kernel_variables(n))
    below = state_variables(n)
    kernel = kernel_extract(op, below)
    assert kernel.variables == kernel_variables(n) + below
    assert _exact(kernel.body) == _exact(_kernel_extract_per_call(op, below))
    default = kernel_extract(OperatorMatrix(matrix, state_variables(n)))
    want = _kernel_extract_per_call(OperatorMatrix(matrix, state_variables(n)), kernel_variables(n))
    assert _exact(default.body) == _exact(want)


@pytest.mark.parametrize(
    "variables", [(eta(1), eta(1)), (eta(1), eta(2), eta(1)), (eta(1), eta(9))], ids=["repeat", "late-repeat", "cap"]
)
def test_a_refused_variable_tuple_raises_on_every_call(variables):
    for _ in range(2):
        with pytest.raises(ValueError):
            basis_elements(variables)
        with pytest.raises(ValueError):
            element_coordinates(ONE, variables)
        with pytest.raises(ValueError):
            element_from_coordinates(np.zeros(1 << len(variables)), variables)


def test_the_basis_table_is_built_once_and_cannot_be_changed():
    keys, positions = feynman_kac._basis_keys(SV)
    assert feynman_kac._basis_keys(SV) is feynman_kac._basis_keys(SV)
    assert keys == tuple(multi_index(m) for m in ((), (SV[0],), (SV[1],), SV))
    assert dict(positions) == {key: pos for pos, key in enumerate(keys)}
    with pytest.raises(TypeError):
        positions[keys[0]] = 1


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
    with pytest.raises(ValueError, match="state variables must be distinct"):
        HamiltonianSpec(2, 2, ZERO, (ZERO, ZERO), ((ONE, ZERO), (ZERO, ONE)), (eta(1), eta(1)))


@pytest.mark.parametrize("m", [10, 0])
def test_spec_rejects_a_brownian_dimension_outside_2_to_8(m):
    with pytest.raises(ValueError, match="the Brownian dimension m must be an even integer from 2 to 8"):
        HamiltonianSpec(2, m, ZERO, (ZERO, ZERO), ((ZERO,) * m, (ZERO,) * m), SV)


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


@pytest.mark.parametrize("scale", (np.inf, np.nan, 1e308, 2.0**1022))
def test_the_oracle_refuses_a_norm_its_scaling_cannot_take(scale):
    # log2 of the one-norm over 0.5 sets the squaring count; from 2**1022 on
    # 2**squarings is no float (and at 1e308 the quotient itself overflowed).
    with pytest.raises(ValueError, match="one-norm below 2\\*\\*1022"):
        feynman_kac._expm(np.array([[scale, 0.0], [0.0, 1.0]], dtype=complex))
    # a finite -tH whose column sums overflow is refused too, without a warning
    with pytest.raises(ValueError, match="one-norm below 2\\*\\*1022, got inf"):
        semigroup_oracle(hamiltonian_matrix(example_hamiltonian("flat_potential", lam=1.0)), 1e308)


def test_the_oracle_refuses_an_exponential_that_overflows():
    # e^800 overflows a float; the work runs without a warning, which the
    # test settings would turn into an error
    with pytest.raises(ValueError, match="one-norm 800.0 overflows"):
        feynman_kac._expm(np.array([[800.0, 0.0], [0.0, 1.0]], dtype=complex))
    assert feynman_kac._expm(np.array([[700.0, 0.0], [0.0, 1.0]], dtype=complex))[0, 0] == pytest.approx(np.exp(700.0))


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
        element_coordinates(gen(aux(1)), op.variables)


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
    assert ratio_deviation(errors, (8, 16, 32, 64)) <= 0.3
    assert abs(last.constant - np.sinh(1.0)) <= 5e-3


def test_quartic_moments_converge_to_the_reference_values():
    quartic = example_hamiltonian("quartic")  # b = c = 1
    reference = np.exp(-2.0) * TOP + scalar((np.exp(-2.0) - 1.0) / 2.0)
    errors = []
    for steps in (8, 16, 32, 64):
        estimate = fk_evolve(quartic, TOP, Partition.uniform(1.0, steps))
        errors.append((estimate - reference).norm())
    assert ratio_deviation(errors, (8, 16, 32, 64)) <= 0.3
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
    assert ratio_deviation(errors, (16, 32, 64)) <= 0.4


def test_bruteforce_agrees_with_the_transfer_engine():
    for name in EXAMPLE_NAMES:
        h = example_hamiltonian(name, lam=0.4)
        for steps in (1, 2, 4):
            partition = Partition.uniform(1.0, steps)
            for f in BASIS_ELEMENTS:
                gap = (fk_evolve(h, f, partition) - fk_bruteforce(h, f, partition)).norm()
                assert gap <= 1e-10, (name, steps)


def test_bruteforce_agrees_with_the_transfer_engine_on_repeating_widths():
    nodes = (0.0, 0.2, 0.5, 0.7, 1.0, 1.2)  # widths 0.2, 0.3, 0.2, 0.3, 0.2
    partition = Partition(nodes)
    widths = [partition.delta(r) for r in range(1, partition.steps + 1)]
    assert len(set(widths)) < len(widths)  # fk_evolve reuses a width's slice map
    for name in EXAMPLE_NAMES:
        h = example_hamiltonian(name, lam=0.7)
        for f in basis_elements(h.variables):
            gap = (fk_evolve(h, f, partition) - fk_bruteforce(h, f, partition)).norm()
            assert gap <= 1e-12, (name, f)


def test_one_evolution_map_serves_every_input_as_fk_evolve_does():
    # The map shares its slice map and per-width images among its inputs, in
    # whatever order they come; each image is still fk_evolve's bit for bit.
    partition = Partition((0.0, 0.2, 0.5, 0.7, 1.0, 1.2))
    theta = gen(aux(1))
    for name in EXAMPLE_NAMES:
        h = example_hamiltonian(name, lam=0.7)
        inputs = basis_elements(h.variables)
        inputs = inputs[::-1] + [theta * TOP + 0.5 * X2, (1 - 2j) * X1 + theta] + inputs
        evolve = feynman_kac._evolve_map(h, partition)
        for f in inputs:
            assert repr(list(evolve(f).items())) == repr(list(fk_evolve(h, f, partition).items())), (name, f)
        with pytest.raises(ValueError, match="increment"):
            evolve(TOP + gen(increment(1, 1)) * gen(increment(1, 2)))


@pytest.mark.parametrize("slice_index", [1, 2])
def test_fk_routes_reject_an_input_with_increment_generators(slice_index):
    # fk_bruteforce would integrate slice r out as the path's r-th increment,
    # fk_evolve carry it as a parameter: each route would give its own
    # plausible number.
    f = TOP + gen(increment(slice_index, 1)) * gen(increment(slice_index, 2))
    h, partition = example_hamiltonian("ou"), Partition((0.0, 0.2, 1.0))
    for route in (fk_evolve, fk_bruteforce):
        with pytest.raises(ValueError, match=rf"increment generator δ\[{slice_index};1\]"):
            route(h, f, partition)


D11 = gen(increment(1, 1))
AN_INCREMENT_IN = {
    "variables": {"variables": (SV[0], increment(1, 1))},
    "potential": {"potential": X1 * D11},
    "drift": {"drift_fields": (D11, ZERO)},
    "diffusion": {"diffusion_fields": ((ONE, ZERO), (ZERO, X2 * D11))},
}


@pytest.mark.parametrize("field", list(AN_INCREMENT_IN))
def test_spec_rejects_increment_generators(field):
    parts = dict(n=2, m=2, potential=ZERO, drift_fields=(ZERO, ZERO), diffusion_fields=((ONE, ZERO), (ZERO, ONE)))
    with pytest.raises(ValueError, match=r"increment generator δ\[1;1\]"):
        HamiltonianSpec(**{**parts, "variables": SV, **AN_INCREMENT_IN[field]})


@pytest.mark.parametrize("name", ["ou", "quartic", "flat_potential"])
def test_inputs_with_parameters_match_the_forward_route(name):
    # θ1 and θ2 are auxiliary generators: they ride along as parameters,
    # and products with them run on sign keys.
    theta1, theta2 = gen(aux(1)), gen(aux(2))
    f = TOP + theta1 * X1 + theta1 * theta2
    h = example_hamiltonian(name, lam=0.7)
    for partition in (Partition.uniform(1.0, 2), Partition.uniform(1.0, 4), Partition((0.0, 0.15, 0.45, 1.0))):
        gap = (fk_evolve(h, f, partition) - fk_bruteforce(h, f, partition)).norm()
        assert gap <= 1e-12, (name, partition)


def _wide_hamiltonian(n, m, seed):
    """A Hamiltonian on n state variables with m-component noise: every
    diffusion field has a nonzero constant and the first also pair terms,
    so every g^{kj} is nonzero and g^{1j} depends on the state.  The other
    fields stay constant and the potential has one pair term, which keeps
    the forward route small."""
    rng = random.Random(seed)
    xs = [gen(v) for v in state_variables(n)]
    pairs = [xs[k] * xs[j] for k in range(n) for j in range(k + 1, n)]

    def even(scale, terms=pairs):
        return sum((rng.uniform(-scale, scale) * p for p in terms), start=scalar(rng.uniform(-1.0, 1.0)))

    drift = tuple(sum((rng.uniform(-0.5, 0.5) * x for x in xs), start=ZERO) for _ in range(n))
    diffusion = tuple(tuple(even(0.3 if a == j == 0 else 0.0) for a in range(m)) for j in range(n))
    return HamiltonianSpec(n, m, even(0.4, pairs[:1]), drift, diffusion, state_variables(n))


@pytest.mark.parametrize("m", [6, 8])
@pytest.mark.parametrize("n", [2, 3])
def test_wide_noise_matches_the_forward_route(n, m):
    h = _wide_hamiltonian(n, m, seed=10 * n + m)
    f = sum(((1 + 0.5j) ** k * b for k, b in enumerate(basis_elements(h.variables))), start=ZERO)
    for partition in (Partition.uniform(1.0, 2), Partition((0.0, 0.35, 1.0))):
        gap = (fk_evolve(h, f, partition) - fk_bruteforce(h, f, partition)).norm()
        assert gap <= 1e-12 * max(1.0, f.norm()), partition


def test_a_parameter_before_the_state_variables_keeps_its_sign():
    # The state variables are set 1, so the set-0 parameter η[1] precedes
    # them: the slice map keeps η[1] in place and signs each derivative's
    # move past it.
    y1, y2 = gen(KV[0]), gen(KV[1])
    identity = ((scalar(1.0), ZERO), (ZERO, scalar(1.0)))
    h = HamiltonianSpec(2, 2, 0.3 - y1 * y2, (-0.8j * y1, -0.4j * y2), identity, KV)
    f = X1 * y1 + X1 * y1 * y2 + 0.5 * y2 + X1
    for partition in (Partition.uniform(1.0, 2), Partition((0.0, 0.15, 0.45, 1.0))):
        got = fk_evolve(h, f, partition)
        assert abs(got.coefficient((SV[0], KV[0]))) > 0.1
        assert (got - fk_bruteforce(h, f, partition)).norm() <= 1e-12


PARAMETERS = ((aux(1),), (aux(1), aux(2)), (eta(1, 1),), (eta(2, 1), aux(3)))
PARTITIONS = (Partition.uniform(1.0, 4), Partition((0.0, 0.15, 0.45, 1.0)))


def _rides_along(h, f, theta):
    """Assert that a parameter monomial ``theta`` on either side of ``f``
    passes through ``fk_evolve`` exactly, on each of ``PARTITIONS``."""
    theta = monomial(theta)
    for partition in PARTITIONS:
        image = fk_evolve(h, f, partition)
        assert fk_evolve(h, f * theta, partition) == image * theta, partition
        assert fk_evolve(h, theta * f, partition) == theta * image, partition


@pytest.mark.parametrize("theta", PARAMETERS, ids=("aux1", "aux1_aux2", "eta1_set1", "eta2_set1_aux3"))
@pytest.mark.parametrize("name", EXAMPLE_NAMES + ("random",))
def test_a_parameter_rides_along_exactly(name, theta):
    # The slice map never maps or differentiates a parameter, and its
    # derivative pairs and g_P are even, so Phi(theta X) = theta Phi(X).
    h = _wide_hamiltonian(4, 4, seed=44) if name == "random" else example_hamiltonian(name, lam=0.7)
    f = sum(((1 + 0.5j) ** k * b for k, b in enumerate(basis_elements(h.variables))), start=ZERO)
    _rides_along(h, f, theta)


@pytest.mark.parametrize("theta", ((eta(1),), (eta(1), eta(2))), ids=("eta1", "eta1_eta2"))
def test_a_parameter_before_the_state_variables_rides_along_exactly(theta):
    # Set-0 parameters precede the set-1 state variables in canonical order,
    # so every derivative moves past them.
    y1, y2 = gen(KV[0]), gen(KV[1])
    identity = ((scalar(1.0), ZERO), (ZERO, scalar(1.0)))
    h = HamiltonianSpec(2, 2, 0.3 - y1 * y2, (-0.8j * y1, -0.4j * y2), identity, KV)
    f = sum(((1 + 0.5j) ** k * b for k, b in enumerate(basis_elements(KV))), start=ZERO)
    _rides_along(h, f, theta)


def _random_element(rng, pool, parity, scale):
    """A random element over ``pool`` of the given parity (0 even, 1 odd)
    whose coefficients are ordinary, zero-signed or close to the prune
    threshold."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        gens = sorted(rng.sample(pool, rng.randint(0, len(pool))))
        if len(gens) % 2 != parity:
            gens = gens[1:]
        if len(gens) % 2 == parity:
            size = rng.choice((scale, scale, 1.01 * PRUNE, 3 * PRUNE, 1.5e-7))
            imag = rng.choice((-0.0, size * rng.uniform(-1, 1)))
            terms[multi_index(gens)] = complex(size * rng.uniform(-1, 1), imag)
    return GrassmannElement(terms)


def _dense_even(rng, variables):
    """An even element holding every even monomial of ``variables``."""
    return GrassmannElement(
        {
            multi_index(s): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for k in range(0, len(variables) + 1, 2)
            for s in combinations(variables, k)
        }
    )


@st.composite
def fk_slices(draw):
    """A random even Hamiltonian on up to four state variables with m = 2 or
    4, an input over the state variables, variable-set-1 and auxiliary
    parameters, and a slice width down to 1e-9.  Some cases have n = 4,
    m = 4 or 8, dense diffusion fields and the top state monomial in its
    input, so that the images hold dt^2 terms of two disjoint pairs (at
    m = 2 their sum, a Pfaffian of a rank-2 g, vanishes)."""
    dense = draw(st.sampled_from((False, False, False, True)))
    rng = draw(st.randoms(use_true_random=False))
    n, m = (4, rng.choice((4, 8))) if dense else (rng.randint(1, 4), rng.choice((2, 4)))
    variables = state_variables(n)
    fields = list(variables) + ([aux(3)] if rng.random() < 0.2 else [])  # a parameter in the images
    plain = random.Random(rng.getrandbits(32))  # the dense fields take one draw
    diffusion_field = (lambda: _dense_even(plain, variables)) if dense else (lambda: _random_element(rng, fields, 0, 1.0))
    h = HamiltonianSpec(
        n,
        m,
        _random_element(rng, fields, 0, 0.5),
        tuple(_random_element(rng, fields, 1, 0.5) for _ in range(n)),
        tuple(tuple(diffusion_field() for _ in range(m)) for _ in range(n)),
        variables,
    )
    pool = list(variables) + rng.sample([eta(1, 1), eta(2, 1), aux(1), aux(2), aux(1, 15)], rng.randint(0, 3))
    f = sum((_random_element(rng, pool, rng.randint(0, 1), 1.0) for _ in range(3)), start=ZERO)
    if dense:
        f = f + monomial(variables, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    dt = rng.choice((rng.uniform(0.01, 2.0), 1e-5, 1e-9))
    return h, f, dt


def _increment_route(h, f, dt):
    """One Euler slice with its increments kept live on slice 1 and then
    integrated out by the pairing rule, left-endpoint weight included."""
    ids = WienerSpace(h.m).increment_ids(1)
    increments = [gen(g) for g in ids]
    moved = {
        x: gen(x) + dt * (-1j * a) + WienerSpace.noise(increments, row)
        for x, a, row in zip(h.variables, h.drift_fields, h.diffusion_fields)
    }
    weight = grassmann_exp(-dt * h.potential)
    return _integrate_slice(weight * substitute(f, moved), _slice_density(ids, dt))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(fk_slices())
def test_the_closed_form_step_is_the_increment_route(case):
    h, f, dt = case
    got = dict(fk_evolve(h, f, Partition((0.0, dt))).items())
    want = dict(_increment_route(h, f, dt).items())
    tol = 1e-12 * max(1.0, sum(map(abs, want.values())))
    for key in got.keys() | want.keys():
        assert abs(got.get(key, 0j) - want.get(key, 0j)) <= tol, index_generators(key)


@pytest.mark.parametrize("m", [4, 8])
def test_two_pair_terms_match_the_increment_route(m):
    # On four state variables the top monomial's image has terms in dt^2
    # from two disjoint pairs; at m = 2 their sum, a Pfaffian of g, vanishes.
    h = _wide_hamiltonian(4, m, seed=40 + m)
    f = sum(((1 + 0.5j) ** k * b for k, b in enumerate(basis_elements(h.variables))), start=ZERO)
    got = fk_evolve(h, f, Partition((0.0, 0.6)))
    gap = (got - _increment_route(h, f, 0.6)).norm()
    assert gap <= 1e-12 * max(1.0, got.norm())


@pytest.mark.parametrize("partition", [Partition.uniform(1.0, 16), Partition((0.0, 0.25, 0.5, 0.6, 1.0))])
@pytest.mark.parametrize("name", EXAMPLE_NAMES + ("random",))
def test_operator_columns_are_the_evolved_basis_monomials(name, partition):
    # One-slice operators hold the fk_evolve images exactly; a longer
    # partition's operator is exactly their product, slice 1 leftmost
    # (fk_evolve applies slice N first), and its columns agree with
    # fk_evolve to round-off.
    h = _wide_hamiltonian(4, 4, seed=44) if name == "random" else example_hamiltonian(name, lam=0.7)
    basis = basis_elements(h.variables)
    slices = []
    for r in range(1, partition.steps + 1):
        one_slice = Partition((0.0, partition.delta(r)))
        op = fk_operator(h, one_slice)
        for col, f in enumerate(basis):
            assert (op.matrix[:, col] == element_coordinates(fk_evolve(h, f, one_slice), h.variables)).all(), (r, col)
        slices.append(op.matrix)
    product = slices[-1]
    for m in reversed(slices[:-1]):
        product = m @ product
    op = fk_operator(h, partition)
    assert (op.matrix == product).all()
    for col, f in enumerate(basis):
        want = element_coordinates(fk_evolve(h, f, partition), h.variables)
        assert np.abs(op.matrix[:, col] - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), col


def test_operator_contracts_the_second_order_coefficients_once(monkeypatch):
    calls = []
    contract = feynman_kac._second_order_table
    monkeypatch.setattr(feynman_kac, "_second_order_table", lambda h: calls.append(h) or contract(h))
    fk_operator(_wide_hamiltonian(4, 4, seed=44), Partition((0.0, 0.25, 0.5, 0.6, 1.0)))
    assert len(calls) == 1


def test_bruteforce_flat_with_several_slices_is_still_exact():
    flat = example_hamiltonian("flat")
    kernel = closed_form_kernel("flat", 1.0)
    partition = Partition.uniform(1.0, 4)
    for f, f_in in zip(BASIS_ELEMENTS, KERNEL_SIDE):
        estimate = fk_bruteforce(flat, f, partition)
        exact = apply_kernel(kernel, SupersmoothFunction(f_in, KV)).body
        assert (estimate - exact).norm() <= 1e-12


def test_sde_spec_has_drift_minus_i_alpha_and_the_diffusion_fields():
    h = example_hamiltonian("quartic", b=0.5, c=2.0)
    start = (gen(aux(1)), gen(aux(2)))
    spec = sde_spec(example_hamiltonian("ou", r=0.5, c=2.0), start)
    assert spec.initial == start
    assert [(a.body - (-0.5) * gen(x)).norm() for a, x in zip(spec.drift, SV)] == [0.0, 0.0]
    assert spec.diffusion[0][0].body == scalar(2.0) and spec.diffusion[0][1].body == ZERO
    quartic = sde_spec(h, start)
    assert [[c.body for c in row] for row in quartic.diffusion] == [list(r) for r in h.diffusion_fields]
    assert all(f.variables == SV for f in quartic.drift + quartic.diffusion[0] + quartic.diffusion[1])


def test_bruteforce_slice_cap():
    flat = example_hamiltonian("flat")
    with pytest.raises(ValueError):
        fk_bruteforce(flat, ONE, Partition.uniform(1.0, 8))


def test_identity_kernel_is_the_reproducing_delta():
    from berezin.feynman_kac import OperatorMatrix

    identity = OperatorMatrix(np.eye(4, dtype=complex), SV)
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


@pytest.mark.parametrize("r", [1e-8, 1e-300])
def test_the_ou_closed_form_keeps_its_constant_at_small_rates(r):
    # 1 - e^{-2rt} by subtraction read 0.9999999883714139 at r = 1e-8 (the
    # oracle reads 0.9999999900000001) and 0.0 at r = 1e-300 (oracle 1.0).
    gap = (oracle_kernel(example_hamiltonian("ou", r=r), 1.0).body - closed_form_kernel("ou", 1.0, r=r).body).norm()
    assert gap <= 1e-12


def test_the_quartic_closed_form_keeps_its_constant_at_small_coupling():
    b, t = 1e-9, 1.0
    quartic = example_hamiltonian("quartic", b=b)
    difference = oracle_kernel(quartic, t).body - closed_form_kernel("quartic", t, b=b).body
    gap = difference.coefficient(SV)
    assert abs(abs(gap) - abs(np.expm1(-2 * b * t))) <= 1e-12
    assert (difference - gap * monomial(SV)).norm() <= 1e-12


def test_kernel_round_trip_in_three_dimensions():
    from berezin.feynman_kac import OperatorMatrix

    variables = state_variables(3)
    fresh = kernel_variables(3)
    basis = monomial_basis(3)
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    op = OperatorMatrix(matrix, variables)
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
    assert ratio_deviation(errors, (8, 16, 32)) <= 0.3
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
