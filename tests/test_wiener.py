import random

import numpy as np
import pytest

from berezin.algebra import ONE, ZERO, aux, eta, gen
from berezin.calculus import SupersmoothFunction, berezin_integrate, compose_kernels
from berezin.wiener import (
    BrownianMotion,
    Partition,
    RandomVariable,
    WienerSpace,
    bridge_covariance,
    brownian_moment_rows,
    finite_distribution,
    free_hamiltonian_apply,
    heat_equation_residual,
    heat_kernel,
    heat_kernel_difference,
    mu_distance,
)
from berezin.verify import random_element

SPACE = WienerSpace(2)
VARS2 = (eta(1), eta(2))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((0.0,))
    with pytest.raises(ValueError):
        Partition((0.0, 0.5, 0.5))
    with pytest.raises(ValueError):
        Partition((0.1, 0.5))
    part = Partition.uniform(1.0, 4)
    assert part.steps == 4
    assert part.mesh == pytest.approx(0.25)
    assert part.node_index(0.75) == 3
    assert Partition.uniform(0.9, 3).node_index(0.1 * 3) == 1
    with pytest.raises(ValueError):
        part.node_index(0.3)


def test_pairing_matrix_is_block_antisymmetric():
    space = WienerSpace(4)
    e = space.eps_matrix
    assert np.array_equal(e[:2, :2], [[0, 1], [-1, 0]])
    assert np.array_equal(e[2:, 2:], [[0, 1], [-1, 0]])
    assert np.all(e[:2, 2:] == 0)
    assert space.eps(1, 2) == 1 and space.eps(2, 1) == -1 and space.eps(1, 3) == 0
    with pytest.raises(ValueError):
        WienerSpace(3)


def test_contract_matches_the_pairing_double_sum():
    space = WienerSpace(4)
    rng = random.Random(11)
    pool = tuple(eta(i) for i in range(1, 7))
    for _ in range(20):
        x = [random_element(rng, pool, max_terms=4) for _ in range(4)]
        y = [random_element(rng, pool, max_terms=4) for _ in range(4)]
        want = ZERO
        for a in range(1, 5):
            for b in range(1, 5):
                e = space.eps(a, b)
                if e:
                    want = want + e * (x[b - 1] * y[a - 1])
        assert (space.contract(x, y) - want).norm() <= 1e-12


def test_heat_kernel_at_unit_time_in_two_dimensions():
    p = heat_kernel(VARS2, 1.0)
    assert (p.body - (1 + gen(eta(1)) * gen(eta(2)))).norm() == 0.0


def test_heat_kernel_weight_is_one_for_any_time_and_dimension():
    for m in (2, 4, 6):
        variables = tuple(eta(i) for i in range(1, m + 1))
        for t in (0.1, 0.7, 2.5):
            value = heat_kernel(variables, t).integrate().scalar_value()
            assert value == pytest.approx(1.0, abs=1e-12)


def test_heat_kernel_zero_time_is_the_delta_monomial():
    p = heat_kernel(VARS2, 0.0)
    assert p.body == gen(eta(1)) * gen(eta(2))


def test_heat_kernel_solves_the_evolution_equation():
    for m in (2, 4):
        variables = tuple(eta(i) for i in range(1, m + 1))
        space = WienerSpace(m)
        for t in (0.3, 1.0):
            assert heat_equation_residual(space, variables, t) <= 1e-8


def test_free_operator_annihilates_low_monomials():
    f = SupersmoothFunction(gen(eta(1)), VARS2)
    assert free_hamiltonian_apply(SPACE, f).body.is_zero()
    top = SupersmoothFunction(gen(eta(1)) * gen(eta(2)), VARS2)
    assert free_hamiltonian_apply(SPACE, top).body == -ONE


def test_semigroup_convolution_of_difference_kernels():
    mid = (eta(1, 1), eta(2, 1))
    far = (aux(1, 9), aux(2, 9))
    left = heat_kernel_difference(VARS2, mid, 0.3)
    right = heat_kernel_difference(mid, far, 0.7)
    combined = compose_kernels(left, right, mid)
    target = heat_kernel_difference(VARS2, far, 1.0)
    assert (combined.body - target.body).norm() <= 1e-12


def test_single_time_moments():
    t = 0.7
    motion = BrownianMotion(SPACE, Partition.from_times([t]))
    beta = motion.at_time(t)
    assert motion.expect(beta[0]) == 0
    assert motion.expect(beta[0] * beta[1]) == pytest.approx(t)
    assert motion.expect(beta[1] * beta[0]) == pytest.approx(-t)


def test_two_time_covariance_is_the_minimum():
    t1, t2 = 0.4, 0.9
    motion = BrownianMotion(SPACE, Partition.from_times([t1, t2]))
    b1, b2 = motion.at_time(t1), motion.at_time(t2)
    assert motion.expect(b1[0] * b2[1]) == pytest.approx(min(t1, t2))
    assert motion.expect(b2[0] * b1[1]) == pytest.approx(min(t1, t2))


def test_increment_second_moment_is_the_gap():
    t1, t2 = 0.4, 0.9
    motion = BrownianMotion(SPACE, Partition.from_times([t1, t2]))
    b1, b2 = motion.at_time(t1), motion.at_time(t2)
    got = motion.expect((b2[0] - b1[0]) * (b2[1] - b1[1]))
    assert got == pytest.approx(t2 - t1)


def test_disjoint_increments_are_independent():
    motion = BrownianMotion(SPACE, Partition((0.0, 0.2, 0.3, 0.7, 0.9)))
    s1, s2 = motion.at_time(0.2), motion.at_time(0.3)
    u1, u2 = motion.at_time(0.7), motion.at_time(0.9)
    assert motion.expect((u2[0] - u1[0]) * (s2[1] - s1[1])) == 0
    assert motion.expect((u2[1] - u1[1]) * (s2[0] - s1[0])) == 0


def test_adapted_conditioning_identities():
    s, u = 0.3, 0.7
    motion = BrownianMotion(SPACE, Partition.from_times([s, u]))
    beta_s, beta_u = motion.at_time(s), motion.at_time(u)
    past_factors = [ONE, beta_s[0], beta_s[1], beta_s[0] * beta_s[1]]
    for past in past_factors:
        for b in range(2):
            assert motion.expect(past * (beta_u[b] - beta_s[b])) == 0
        for b in range(2):
            for c in range(2):
                got = motion.expect(past * (beta_u[b] - beta_s[b]) * (beta_u[c] - beta_s[c]))
                want = motion.expect(past) * SPACE.eps(b + 1, c + 1) * (u - s)
                assert abs(got - want) <= 1e-12


def test_free_parameters_ride_through_expectations():
    motion = BrownianMotion(SPACE, Partition.from_times([0.5]))
    beta = motion.at_time(0.5)
    xi = gen(aux(1))
    value = motion.expect(xi * beta[0] * beta[1])
    assert (value - 0.5 * xi).norm() == 0.0


def test_sequential_engine_matches_joint_mode():
    rng = random.Random(31)
    motion = BrownianMotion(SPACE, Partition.uniform(1.0, 4))
    nodes = [motion.at_node(r) for r in range(5)]
    for _ in range(20):
        x = ONE
        for _ in range(rng.randint(1, 3)):
            r = rng.randint(1, 4)
            x = x * nodes[r][rng.randint(0, 1)]
        seq = motion.expect_element(x)
        joint = motion._expect_joint(x, cap=6)
        assert (seq - joint).norm() <= 1e-12


def test_joint_mode_cap():
    motion = BrownianMotion(SPACE, Partition.uniform(1.0, 8))
    with pytest.raises(ValueError):
        motion.expect(ONE, joint=True)


def test_undeclared_slices_are_rejected():
    motion = BrownianMotion(SPACE, Partition.uniform(1.0, 2))
    stray = SPACE.increment_elements(5)[0]
    with pytest.raises(ValueError):
        motion.expect(stray)


def test_heat_kernel_needs_an_even_variable_count():
    with pytest.raises(ValueError):
        heat_kernel((eta(1),), 1.0)
    with pytest.raises(ValueError):
        heat_kernel(VARS2, -0.1)


def test_joint_density_consistency_under_marginalization():
    rng = random.Random(32)
    for trial in range(5):
        count = rng.randint(2, 4)
        times = sorted({round(rng.uniform(0.05, 1.0), 3) for _ in range(count)})
        if len(times) < 2:
            continue
        sets = [tuple(aux(c, 40 + trial * 8 + i) for c in (1, 2)) for i in range(len(times))]
        joint = finite_distribution(SPACE, times, sets)
        marginal = finite_distribution(SPACE, times[:-1], sets[:-1])
        reduced = berezin_integrate(joint.body, sets[-1])
        assert (reduced - marginal.body).norm() <= 1e-12
        everything = [v for block in sets for v in block]
        assert berezin_integrate(joint.body, everything).scalar_value() == pytest.approx(1.0)


def test_random_variable_and_mu_distance_identity():
    motion = BrownianMotion(SPACE, Partition.from_times([0.8]))
    x = RandomVariable(motion, motion.at_time(0.8))
    assert mu_distance(x, x) == 0.0


def test_mu_distance_detects_scaling():
    t = 0.8
    motion = BrownianMotion(SPACE, Partition.from_times([t]))
    beta = motion.at_time(t)
    x = RandomVariable(motion, beta)
    y = RandomVariable(motion, tuple(2 * b for b in beta))
    assert mu_distance(x, y, [(1, 2)]) == pytest.approx(3 * t)


def test_mu_distance_is_zero_across_equivalent_grids():
    t = 1.0
    fine_motion = BrownianMotion(SPACE, Partition.from_times([0.5, t]))
    coarse_motion = BrownianMotion(SPACE, Partition.from_times([t]))
    x = RandomVariable(fine_motion, fine_motion.at_time(t))
    y = RandomVariable(coarse_motion, coarse_motion.at_time(t))
    assert mu_distance(x, y) <= 1e-12


def test_mu_distance_requires_matching_dimension():
    motion = BrownianMotion(SPACE, Partition.from_times([0.5]))
    x = RandomVariable(motion, motion.at_time(0.5))
    y = RandomVariable(motion, motion.at_time(0.5)[:1])
    with pytest.raises(ValueError):
        mu_distance(x, y)


def test_bridge_covariance_matches_the_closed_form():
    got = bridge_covariance(SPACE, 0.25, 0.5)
    want = SPACE.eps_matrix * 0.25 * (1 - 0.5)
    assert np.abs(got - want).max() <= 1e-12


def test_bridge_covariance_vanishes_at_the_pinned_ends():
    assert np.abs(bridge_covariance(SPACE, 0.0, 0.0)).max() == 0.0
    assert np.abs(bridge_covariance(SPACE, 1.0, 1.0)).max() <= 1e-12


def test_bridge_covariance_random_sweep():
    rng = random.Random(33)
    eps = SPACE.eps_matrix
    for _ in range(10):
        s = rng.uniform(0.0, 1.0)
        u = rng.uniform(s, 1.0)
        got = bridge_covariance(SPACE, s, u)
        assert np.abs(got - eps * s * (1 - u)).max() <= 1e-12
    with pytest.raises(ValueError):
        bridge_covariance(SPACE, 0.7, 0.3)


def test_moment_rows_cover_times_and_monomials():
    rows = brownian_moment_rows(SPACE, (0.5, 1.0))
    assert len(rows) == 6
    by_key = {(t, mono): (re, im) for t, mono, re, im in rows}
    assert by_key[(0.5, "b1*b2")][0] == pytest.approx(0.5)
    assert by_key[(1.0, "b1")] == (0.0, 0.0)
