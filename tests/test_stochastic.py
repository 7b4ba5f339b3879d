import random

import pytest

from berezin.algebra import ONE, Parity, ZERO, aux, gen, scalar
from berezin.stochastic import (
    AdaptedMatrix,
    AdaptedProcess,
    ItoProcess,
    MixedPolynomial,
    brownian_process,
    isometry_residual,
    ito_integral,
    time_integral,
)
from berezin.wiener import BrownianMotion, Partition, WienerSpace

SPACE = WienerSpace(2)


def _constant_process(partition, value):
    return AdaptedProcess(SPACE, partition, tuple((value,) for _ in range(partition.steps + 1)))


def test_an_integrand_of_the_wrong_shape_is_rejected():
    partition = Partition.uniform(1.0, 4)
    identity = ((ONE, ZERO), (ZERO, ONE))
    with pytest.raises(ValueError, match="one matrix per partition node"):
        AdaptedMatrix(SPACE, partition, (identity,) * partition.steps)
    with pytest.raises(ValueError, match="same number of rows"):
        AdaptedMatrix(SPACE, partition, (identity,) * partition.steps + (identity[:1],))
    # a k x 1 integrand for m = 2 would integrate against dbeta^1 only
    with pytest.raises(ValueError, match="Brownian dimension 2"):
        AdaptedMatrix.constant(SPACE, partition, [[1.0], [1.0]])


def test_a_noise_row_of_the_wrong_width_is_rejected():
    increments = SPACE.increment_elements(1)
    with pytest.raises(ValueError):
        SPACE.noise(increments, (ONE,))
    with pytest.raises(ValueError):
        SPACE.noise(increments, (ONE, ONE, ONE))
    assert (SPACE.noise(increments, (ONE, ONE)) - increments[0] - increments[1]).is_zero()


def test_an_ito_process_needs_one_coefficient_value_per_slice():
    partition = Partition.uniform(1.0, 3)
    values = tuple((ZERO,) for _ in range(partition.steps + 1))
    drift = tuple((ZERO,) for _ in range(partition.steps))
    diffusion = tuple(((ZERO, ZERO),) for _ in range(partition.steps))
    assert ItoProcess(SPACE, partition, values, drift, diffusion).dimension == 1
    with pytest.raises(ValueError, match="one drift and one diffusion value per slice"):
        ItoProcess(SPACE, partition, values, drift + drift[:1], diffusion)
    with pytest.raises(ValueError, match="one drift and one diffusion value per slice"):
        ItoProcess(SPACE, partition, values, drift, diffusion[1:])
    with pytest.raises(ValueError, match="one value tuple per partition node"):
        ItoProcess(SPACE, partition, values[1:], drift, diffusion)


def test_time_integral_of_one_returns_the_node_times():
    partition = Partition.uniform(1.0, 5)
    integral = time_integral(_constant_process(partition, ONE))
    for r in range(6):
        assert (integral.values[r][0] - partition.nodes[r]).norm() <= 1e-15


def test_time_integral_of_the_path_has_mean_zero():
    partition = Partition.uniform(1.0, 6)
    path = brownian_process(SPACE, partition)
    drifted = time_integral(path)
    motion = BrownianMotion(SPACE, partition)
    assert motion.expect(drifted.final[0]) == 0


def test_quadratic_time_integral_matches_the_left_sum_exactly():
    # E of the integrand at node r is t_r, so the left-endpoint sum is
    # dt^2 * (0 + 1 + ... + N-1) = (N-1)/(2N); frozen here independently.
    for steps in (4, 8, 16):
        partition = Partition.uniform(1.0, steps)
        path = brownian_process(SPACE, partition)
        area = AdaptedProcess(
            SPACE,
            partition,
            tuple((path.values[r][0] * path.values[r][1],) for r in range(steps + 1)),
        )
        value = BrownianMotion(SPACE, partition).expect(time_integral(area).final[0])
        expected = (steps - 1) / (2 * steps)
        assert value == pytest.approx(expected, abs=1e-12)
        assert abs(value - 0.5) <= 1.0 / steps


def test_identity_integrand_reproduces_the_path():
    partition = Partition.uniform(1.0, 4)
    path = brownian_process(SPACE, partition)
    motion = BrownianMotion(SPACE, partition)
    direct = motion.at_node(4)
    for i in range(2):
        assert (path.final[i] - direct[i]).norm() == 0.0
    assert motion.expect(path.final[0] * direct[1]) == pytest.approx(1.0)


def test_zero_integrand_gives_the_zero_process():
    partition = Partition.uniform(1.0, 3)
    zero = AdaptedMatrix.constant(SPACE, partition, [[0.0, 0.0], [0.0, 0.0]])
    z = ito_integral(zero)
    assert all(x.is_zero() for node in z.values for x in node)
    assert isometry_residual(zero, 0, 1) == 0.0


def test_stochastic_integrals_have_mean_zero_exactly():
    rng = random.Random(41)
    partition = Partition.uniform(1.0, 4)
    motion = BrownianMotion(SPACE, partition)
    for _ in range(25):
        values = []
        for r in range(partition.steps + 1):
            beta = motion.at_node(r)
            entry = scalar(rng.uniform(-1, 1)) + rng.uniform(-1, 1) * (beta[0] * beta[1])
            values.append(((entry, ZERO), (ZERO, entry)))
        z = ito_integral(AdaptedMatrix(SPACE, partition, tuple(values)))
        for comp in z.final:
            assert motion.expect_element(comp).norm() == 0.0


def test_isometry_worked_example():
    partition = Partition.uniform(1.0, 5)
    canonical = AdaptedMatrix.constant(SPACE, partition, [[1.0, 0.0], [0.0, 1.0]])
    z = ito_integral(canonical)
    motion = BrownianMotion(SPACE, partition)
    assert motion.expect(z.final[0] * z.final[1]) == pytest.approx(1.0)
    assert isometry_residual(canonical, 0, 1) <= 1e-12


def test_isometry_holds_on_every_fixed_grid_for_random_integrands():
    rng = random.Random(42)
    for trial in range(60):
        steps = rng.randint(1, 4)
        nodes = [0.0]
        for _ in range(steps):
            nodes.append(nodes[-1] + rng.uniform(0.1, 0.6))
        partition = Partition(tuple(nodes))
        motion = BrownianMotion(SPACE, partition)
        values = []
        for r in range(steps + 1):
            beta = motion.at_node(r)
            rows = []
            for _ in range(2):
                row = []
                for _ in range(2):
                    entry = scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                    if trial % 3 and r > 0:
                        entry = entry + rng.uniform(-1, 1) * (beta[0] * beta[1])
                    row.append(entry)
                rows.append(tuple(row))
            values.append(tuple(rows))
        matrix = AdaptedMatrix(SPACE, partition, tuple(values))
        assert isometry_residual(matrix, 0, 1) <= 1e-10
        assert isometry_residual(matrix, 0, 0) <= 1e-10


def test_slice_pair_second_moment_matches_the_contraction():
    # One slice of width dt: E[(db^a C1_a)(db^b C2_b)] must equal
    # dt * sign * e^{ba} C1_a C2_b; this pins the quadratic-correction
    # coefficient used by the change-of-variables formula.
    rng = random.Random(43)
    dt = 0.37
    partition = Partition((0.0, dt))
    motion = BrownianMotion(SPACE, partition)
    db = SPACE.increment_elements(1)
    for _ in range(20):
        c1 = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
        c2 = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
        z1 = sum((db[a] * scalar(c1[a]) for a in range(2)), start=ZERO)
        z2 = sum((db[b] * scalar(c2[b]) for b in range(2)), start=ZERO)
        lhs = motion.expect(z1 * z2)
        sign = -1.0  # the first factor is odd
        rhs = dt * sign * sum(
            SPACE.eps(b + 1, a + 1) * c1[a] * c2[b] for a in range(2) for b in range(2)
        )
        assert abs(lhs - rhs) <= 1e-12


def test_adapted_validation_flags_future_slices():
    partition = Partition.uniform(1.0, 2)
    future = SPACE.increment_elements(2)[0]
    bad = AdaptedProcess(SPACE, partition, ((future,), (future,), (future,)))
    with pytest.raises(ValueError):
        bad.validate_adapted()
    good = brownian_process(SPACE, partition)
    good.validate_adapted()
    assert good.component_parities() == (Parity.ODD, Parity.ODD)


def test_component_parities_reject_mixed_entries():
    partition = Partition.uniform(1.0, 1)
    mixed = ONE + SPACE.increment_elements(1)[0]
    proc = AdaptedProcess(SPACE, partition, ((ZERO,), (mixed,)))
    with pytest.raises(ValueError):
        proc.component_parities()


def test_mixed_polynomial_evaluation_and_derivatives():
    f = MixedPolynomial(1, 2, {((2,), (1, 2)): 1.0, ((0,), (2,)): 3.0})
    x = scalar(0.5)
    y1 = gen(aux(1))
    y2 = gen(aux(2))
    value = f([x], [y1, y2])
    want = 0.25 * (y1 * y2) + 3 * y2
    assert (value - want).norm() == 0.0

    d_even = f.derivative_even(1)
    assert (d_even([x], [y1, y2]) - (y1 * y2)).norm() == 0.0  # 2 * 0.5 = 1

    d_first = f.derivative_odd(1)
    assert (d_first([x], [y1, y2]) - 0.25 * y2).norm() == 0.0

    d_second = f.derivative_odd(2)
    # the left derivative hops over y1, flipping the sign of the pair term
    assert (d_second([x], [y1, y2]) - (-0.25 * y1 + scalar(3.0))).norm() == 0.0


def test_mixed_polynomial_parity_validation():
    f = MixedPolynomial(1, 1, {((1,), (1,)): 1.0})
    with pytest.raises(ValueError):
        f([gen(aux(1))], [gen(aux(2))])  # odd element in an even slot
    with pytest.raises(ValueError):
        f([scalar(1.0)], [scalar(1.0)])  # even element in an odd slot
