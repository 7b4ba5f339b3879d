"""The expectation of a product by the pairing join (``algebra._paired_product``,
``BrownianMotion.expect_product``) against the full product, bit for bit.

Every comparison is by ``repr`` of the term list, so key order and the
signs of zero count too.  The full-product routes are written out here,
apart from the library.
"""

import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin.algebra import (
    ONE,
    ZERO,
    Family,
    GeneratorId,
    GrassmannElement,
    Parity,
    _INCREMENT_SHIFT,
    _paired_product,
    _product,
    aux,
    eta,
    gen,
    grassmann_exp,
    increment,
    index_generators,
    multi_index,
    scalar,
    substitute,
)
from berezin.calculus import SupersmoothFunction
from berezin.feynman_kac import (
    EXAMPLE_NAMES,
    JOINT_CAP,
    HamiltonianSpec,
    _bruteforce_map,
    basis_elements,
    example_hamiltonian,
    fk_bruteforce,
    sde_spec,
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
    solve_sde,
)
from berezin.wiener import BrownianMotion, Partition, WienerSpace


def _same(got, want):
    return repr(list(got.items())) == repr(list(want.items()))


def _whole_paired(key):
    """Whether every increment generator of the key has its pair partner,
    (1,2), (3,4), ... of the same slice, read off the generator ids."""
    held = {g for g in index_generators(key) if g.family == Family.INCREMENT}
    return all(GeneratorId(g.family, g.slice, g.component + (1 if g.component % 2 else -1)) in held for g in held)


# -- random operands ----------------------------------------------------------


def _coefficient(rng):
    """Mostly unit-size values, some exact small integers whose sums cancel
    to zero, some so small (1e-200) that their products underflow to zero;
    signed zeros in either part."""
    kind = rng.random()
    if kind < 0.3:
        return complex(rng.choice((1.0, -1.0, 0.5, -0.5)), rng.choice((0.0, -0.0)))
    scale = rng.choice((1.0, 1.0, 1e-7, 1e-200))
    re = scale * rng.uniform(-1, 1)
    im = rng.choice((scale * rng.uniform(-1, 1), 0.0, -0.0))
    if kind > 0.9:
        re, im = rng.choice((0.0, -0.0)), scale * rng.choice((1.0, -1.0))
    return complex(re, im)


def _product_case(seed):
    """A motion with m in {2, 4, 6, 8}, 1-5 slices of non-uniform widths, and
    two operands over its increments and three parameters.  A term holds
    whole pairs and half pairs; some right terms complete a left term's half
    pairs, others repeat a left term's generators so that the keys collide."""
    rng = random.Random(seed)
    m = rng.choice((2, 4, 6, 8))
    steps = rng.randint(1, 5)
    unit = rng.choice((1e-3, 1.0))
    widths = [unit * rng.uniform(0.5, 1.5) for _ in range(steps)]
    space = WienerSpace(m)
    motion = BrownianMotion(space, Partition(tuple(accumulate(widths, initial=0.0))))
    pairs = [ids[k : k + 2] for r in range(1, steps + 1) for ids in (space.increment_ids(r),) for k in range(0, m, 2)]
    params = (eta(1), aux(1), aux(2, 3))

    def term():
        gens = set(rng.sample(params, rng.randint(0, 2)))
        for pair in rng.sample(pairs, rng.randint(0, min(4, len(pairs)))):
            gens.update(pair if rng.random() < 0.5 else (rng.choice(pair),))
        return gens

    left = [term() for _ in range(rng.randint(0, 8))]
    right = []
    for _ in range(rng.randint(0, 8)):
        gens = term()
        if left and rng.random() < 0.5:
            other = rng.choice(left)
            if rng.random() < 0.8:  # the partners of its half pairs
                gens = {g for g in gens if not any(g in p for p in pairs)}
                gens.update(p[0] if p[1] in other else p[1] for p in pairs if len(other & set(p)) == 1)
            else:  # its own generators: a collision
                gens |= other
        right.append(gens)

    def element(terms):
        return GrassmannElement({multi_index(sorted(gens)): _coefficient(rng) for gens in terms})

    return motion, element(left), element(right)


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(st.integers(0, 2**32 - 1))
def test_expect_product_is_the_expectation_of_the_product_bit_for_bit(seed):
    motion, a, b = _product_case(seed)
    assert _same(motion.expect_product(a, b), motion.expect_element(a * b))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.integers(0, 2**32 - 1))
def test_the_join_keeps_exactly_the_whole_paired_terms_of_the_product(seed):
    _, a, b = _product_case(seed)
    full = _product(a._terms, b._terms)
    kept = [(key, value) for key, value in full.items() if _whole_paired(key)]
    assert repr(list(_paired_product(a._terms, b._terms).items())) == repr(kept)


def test_the_cases_cover_every_feature():
    """Over 300 seeds the drawn operands hold each feature the join must get
    right, so the two properties above are not vacuous."""
    seen = set()
    for seed in range(300):
        motion, a, b = _product_case(seed)
        seen.add(("m", motion.space.m))
        seen.add(("steps", motion.partition.steps))
        full = _product(a._terms, b._terms)
        kept = {key for key in full if _whole_paired(key)}
        if any(not _whole_paired(ka) and not ka & kb and (ka | kb) in kept for ka in a._terms for kb in b._terms):
            seen.add("a pair completed across the operands")
        if any(key >> _INCREMENT_SHIFT and key not in kept for key in full):
            seen.add("a half pair dropped")
        if any((ka & kb) >> _INCREMENT_SHIFT for ka in a._terms for kb in b._terms):
            seen.add("colliding increment bits")
        if any(key and not key >> _INCREMENT_SHIFT for key in kept):
            seen.add("a parameter kept")
        if any(value == 0 for key, value in full.items() if key in kept):
            seen.add("a kept sum of exactly zero")
        if any(ca and cb and not ca * cb for ca in a._terms.values() for cb in b._terms.values()):
            seen.add("a product that underflows to zero")
        if any(repr(c).startswith("(-0") or "-0j" in repr(c) for e in (a, b) for _, c in e.items()):
            seen.add("a signed zero")
        if len(list(motion.expect_product(a, b).items())) > 1:
            seen.add("an expectation with parameter terms")
    assert {("m", m) for m in (2, 4, 6, 8)} <= seen
    assert {("steps", s) for s in range(1, 6)} <= seen
    for feature in (
        "a pair completed across the operands",
        "a half pair dropped",
        "colliding increment bits",
        "a parameter kept",
        "a kept sum of exactly zero",
        "a product that underflows to zero",
        "a signed zero",
        "an expectation with parameter terms",
    ):
        assert feature in seen, feature


def test_the_join_of_empty_or_increment_free_operands():
    motion = BrownianMotion(WienerSpace(2), Partition.uniform(1.0, 2))
    theta = gen(aux(1)) + 0.5 * gen(eta(2))
    for a, b in ((ZERO, theta), (theta, ZERO), (ONE, theta), (theta, theta), (scalar(2.0), ONE)):
        assert _same(motion.expect_product(a, b), motion.expect_element(a * b))


@pytest.mark.parametrize("order", ("left", "right"))
def test_an_undeclared_slice_in_either_factor_is_rejected(order):
    motion = BrownianMotion(WienerSpace(2), Partition.uniform(1.0, 2))
    stray = gen(increment(5, 1)) * gen(increment(5, 2))
    factors = (stray, ONE) if order == "left" else (ONE, stray)
    with pytest.raises(ValueError, match="undeclared slice 5"):
        motion.expect_product(*factors)
    # The product route raises here too; a term whose every product
    # vanishes is refused by the join only.
    with pytest.raises(ValueError, match="undeclared slice 5"):
        motion.expect_element(factors[0] * factors[1])
    with pytest.raises(ValueError, match="undeclared slice 5"):
        motion.expect_product(stray, ZERO)


def test_an_increment_component_above_m_is_rejected():
    # At m = 2, δ[1;3] is no generator of the motion.  The product route
    # would carry it as a parameter and the join would drop it as half of
    # the pair (3,4); every route refuses it instead.
    motion = BrownianMotion(WienerSpace(2), Partition.uniform(1.0, 2))
    stray = gen(increment(1, 3))
    routes = (motion.expect, motion.expect_element, motion._expect_joint, lambda f: motion.expect_product(f, ONE))
    for route in routes:
        with pytest.raises(ValueError, match="component above m = 2 on slice 1"):
            route(stray * gen(increment(1, 4)) + ONE)
        with pytest.raises(ValueError, match="component above m = 2 on slice 1"):
            route(stray)


# -- the residuals and the forward route against their full products ----------


def _isometry_reference(c, i, j):
    """``isometry_residual`` on the full product z_i z_j."""
    space, partition = c.space, c.partition
    z = ito_integral(c)
    z_i, z_j = z.final[i], z.final[j]
    sign = -1.0 if z_i.parity() is Parity.ODD else 1.0
    motion = BrownianMotion(space, partition)
    rhs = ZERO
    for r in range(1, partition.steps + 1):
        prev = c.values[r - 1]
        rhs = rhs + partition.delta(r) * sign * motion.expect_element(space.contract(prev[i], prev[j]))
    return (motion.expect_element(z_i * z_j) - rhs).norm()


def _ito_reference(f, x):
    """``ito_formula_residual`` with every product dX_i dF formed in full."""
    space, partition, p, k = x.space, x.partition, x.even_count, x.dimension
    signs = x.parity_signs()
    first = [f.derivative(i + 1) for i in range(k)]
    second = [[first[i].derivative(j + 1) for j in range(k)] for i in range(k)]
    lhs = f(x.values[-1][:p], x.values[-1][p:])
    rhs = f(x.values[0][:p], x.values[0][p:])
    for r in range(1, partition.steps + 1):
        dt = partition.delta(r)
        node = x.values[r - 1]
        for i in range(k):
            dx = dt * x.drift[r - 1][i] + space.noise(space.increment_elements(r), x.diffusion[r - 1][i])
            rhs = rhs + dx * first[i](node[:p], node[p:])
        for i in range(k):
            for j in range(k):
                contraction = space.contract(x.diffusion[r - 1][i], x.diffusion[r - 1][j])
                rhs = rhs + 0.5 * dt * signs[i] * contraction * second[i][j](node[:p], node[p:])
    motion = BrownianMotion(space, partition)
    return (motion.expect_element(lhs) - motion.expect_element(rhs)).norm()


def _bruteforce_reference(h, f, partition):
    """``fk_bruteforce`` on the full product weight * f(zeta_N)."""
    space = WienerSpace(h.m)
    nodes = solve_sde(sde_spec(h, [gen(v) for v in h.variables]), space, partition).values
    weight = ONE
    for r in range(1, partition.steps + 1):
        potential = substitute(h.potential, dict(zip(h.variables, nodes[r - 1])))
        weight = weight * grassmann_exp(-partition.delta(r) * potential)
    final = substitute(f, dict(zip(h.variables, nodes[-1])))
    return BrownianMotion(space, partition).expect_element(weight * final)


SV = state_variables(2)
START = tuple(gen(aux(i)) for i in (1, 2))  # parameters in every node


def _four_noise_spec():
    """An m = 4 SDE with a state-dependent diffusion, from parameter starts."""
    x1, x2 = (gen(v) for v in SV)
    f = lambda body: SupersmoothFunction(body, SV)  # noqa: E731
    drift = (f(-0.7 * x1 + 0.2 * x2), f(0.3j * x1 - 0.5 * x2))
    diffusion = (
        (f(scalar(1.0) + 0.4 * x1 * x2), f(ZERO), f(scalar(0.3)), f(0.2j * x1 * x2)),
        (f(ZERO), f(scalar(0.8)), f(-0.5 * x1 * x2), f(scalar(0.6))),
    )
    return SdeSpec(drift, diffusion, START)


UNIFORM, UNEVEN = Partition.uniform(1.0, 5), Partition((0.0, 0.15, 0.45, 1.0))


@pytest.mark.parametrize(
    "system, partition",
    (("ou", UNIFORM), ("ou", UNEVEN), ("quartic", UNIFORM), ("quartic", UNEVEN), ("four_noise", UNEVEN)),
    ids=("ou-uniform", "ou-uneven", "quartic-uniform", "quartic-uneven", "four_noise-uneven"),
)
def test_the_ito_residuals_are_those_of_the_full_products(system, partition):
    if system == "four_noise":
        spec, space = _four_noise_spec(), WienerSpace(4)
    else:
        spec, space = sde_spec(example_hamiltonian(system), START), WienerSpace(2)
    solution = solve_sde(spec, space, partition)
    process = ItoProcess.from_sde_solution(spec, space, partition, solution)
    growth = ItoProcess.deterministic(space, partition, lambda t: np.exp(t), lambda t: np.exp(t))
    joined = ItoProcess.concat(growth, process)
    cases = (
        (MixedPolynomial(1, 2, {((1,), (1,)): 1.0, ((2,), (1, 2)): 0.5 - 0.25j}), joined),
        (MixedPolynomial(0, 2, {((), (1, 2)): 1.0, ((), (1,)): 0.3}), process),
    )
    for f, x in cases:
        assert ito_formula_residual(f, x) == _ito_reference(f, x)
    assert integration_by_parts_residual(process) == _ito_reference(MixedPolynomial(0, 2, {((), (1, 2)): 1.0}), process)


def test_the_isometry_residual_is_that_of_the_full_product():
    rng = random.Random(5)
    for m in (2, 4):
        space = WienerSpace(m)
        for steps in (1, 3, 4):
            partition = Partition(tuple(accumulate((rng.uniform(0.1, 0.5) for _ in range(steps)), initial=0.0)))
            motion = BrownianMotion(space, partition)
            values = []
            for r in range(steps + 1):
                path = motion.at_node(r)
                rows = []
                for _ in range(2):
                    row = []
                    for _ in range(m):
                        entry = scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) + rng.uniform(-1, 1) * gen(aux(1)) * gen(aux(2))
                        if r:
                            entry = entry + complex(rng.uniform(-1, 1), 0.5) * (path[0] * path[1])
                        row.append(entry)
                    rows.append(tuple(row))
                values.append(tuple(rows))
            matrix = AdaptedMatrix(space, partition, tuple(values))
            assert isometry_residual(matrix, 0, 1) == _isometry_reference(matrix, 0, 1)


def _four_noise_hamiltonian():
    x1, x2 = (gen(v) for v in SV)
    diffusion = ((scalar(1.0) + 0.3 * x1 * x2, ZERO, scalar(0.4), ZERO), (ZERO, scalar(0.9), 0.2 * x1 * x2, scalar(0.5)))
    return HamiltonianSpec(2, 4, 0.3 + 0.6 * x1 * x2, (-0.8j * x1, 0.2j * x1 - 0.4j * x2), diffusion, SV)


def test_the_forward_route_is_that_of_the_full_product():
    theta = gen(aux(1))
    for h in [example_hamiltonian(name, lam=0.7) for name in EXAMPLE_NAMES] + [_four_noise_hamiltonian()]:
        inputs = basis_elements(h.variables) + [theta * gen(h.variables[0]) + 0.5 * theta + gen(aux(2))]
        for partition in (Partition.uniform(1.0, 1), Partition.uniform(1.0, 4), Partition((0.0, 0.15, 0.45, 1.0))):
            bruteforce = _bruteforce_map(h, partition)
            for f in inputs:
                want = _bruteforce_reference(h, f, partition)
                assert _same(bruteforce(f), want)
                assert _same(fk_bruteforce(h, f, partition), want)


def test_the_forward_route_checks_the_cap_before_the_input():
    h = example_hamiltonian("ou")
    stray = gen(increment(1, 1))
    with pytest.raises(ValueError, match="caps at"):
        fk_bruteforce(h, stray, Partition.uniform(1.0, JOINT_CAP + 1))
    with pytest.raises(ValueError, match="caps at"):
        _bruteforce_map(h, Partition.uniform(1.0, JOINT_CAP + 1))
    bruteforce = _bruteforce_map(h, Partition.uniform(1.0, 2))
    with pytest.raises(ValueError, match=r"increment generator δ\[1;1\]"):
        bruteforce(stray)
