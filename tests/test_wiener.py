import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin.algebra import ONE, ZERO, Family, GrassmannElement, aux, eta, gen, increment, multi_index
from berezin.calculus import SupersmoothFunction, berezin_integrate, compose_kernels
from berezin.wiener import (
    JOINT_CAP,
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
    _integrate_slice,
    _slice_density,
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


@pytest.mark.parametrize(
    "nodes",
    [(0.0, float("nan")), (0.0, 0.5, float("nan")), (0.0, float("nan"), 1.0), (0.0, 0.5, float("inf"))],
    ids=["nan-end", "nan-after-a-slice", "nan-inside", "inf-end"],
)
def test_partition_refuses_a_non_finite_node(nodes):
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        Partition(nodes)


def test_a_non_finite_time_reaches_no_expectation():
    # E[beta1 beta2] on (0, nan) used to read 0j.
    with pytest.raises(ValueError):
        BrownianMotion(SPACE, Partition((0.0, float("nan"))))
    for times in ([0.5, float("inf")], [0.5, float("nan")]):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Partition.from_times(times)


@pytest.mark.parametrize("t_end", [float("nan"), float("inf"), 0.0, -1.0])
def test_uniform_names_a_finite_positive_end(t_end):
    with pytest.raises(ValueError, match="a finite t_end > 0"):
        Partition.uniform(t_end, 2)


@st.composite
def partitions(draw):
    """(partition, uniform?): uniform grids, and grids of random widths."""
    if draw(st.booleans()):
        return Partition.uniform(draw(st.floats(0.01, 100.0)), draw(st.integers(1, 200))), True
    widths = draw(st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=50))
    return Partition((0.0,) + tuple(accumulate(widths))), False


@settings(derandomize=True, deadline=None)
@given(partitions(), st.data())
def test_node_lookup_on_float_times(case, data):
    partition, uniform = case
    n, t = partition.steps, partition.t_end
    i = data.draw(st.integers(0, n))
    running = 0.0
    for r in range(1, i + 1):
        running += partition.delta(r)
    times = [running] + ([i * (t / n), t * i / n] if uniform else [])
    for time in times:
        assert partition.node_index(time) == i
    if i < n:
        with pytest.raises(ValueError):
            partition.node_index(0.5 * (partition.nodes[i] + partition.nodes[i + 1]))


def test_a_nan_coefficient_is_refused_by_the_noise_step_and_the_expectation():
    # inf+infj times a real coefficient is NaN, which a keep test that only compared would drop.
    huge = GrassmannElement({0: complex(float("inf"), float("inf"))})
    with pytest.raises(ValueError, match="non-finite coefficient"):
        SPACE.noise(SPACE.increment_elements(1), (huge, ZERO))
    motion = BrownianMotion(SPACE, Partition.uniform(1.0, 1))
    pair = motion.at_node(1)[0] * motion.at_node(1)[1]
    with pytest.raises(ValueError, match="non-finite coefficient"):
        motion.expect_element(GrassmannElement({key: complex(float("inf"), float("inf")) for key, _ in pair.items()}))


def test_pairing_matrix_is_block_antisymmetric():
    space = WienerSpace(4)
    e = space.eps_matrix
    assert np.array_equal(e[:2, :2], [[0, 1], [-1, 0]])
    assert np.array_equal(e[2:, 2:], [[0, 1], [-1, 0]])
    assert np.all(e[:2, 2:] == 0)
    assert space.eps(1, 2) == 1 and space.eps(2, 1) == -1 and space.eps(1, 3) == 0
    with pytest.raises(ValueError):
        WienerSpace(3)


def test_pairing_rejects_components_outside_the_space():
    space = WienerSpace(2)
    for a, b in ((3, 4), (-1, 0), (0, 1), (2, 3)):
        with pytest.raises(ValueError, match="outside 1..2"):
            space.eps(a, b)
    assert WienerSpace(8).eps(7, 8) == 1


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
        joint = motion._expect_joint(x)
        assert (seq - joint).norm() <= 1e-12


COEFFICIENTS = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


def _noise_case(seed: int):
    """Increments of slice s and coefficients over state variables,
    auxiliary generators and the increments of earlier slices.  Some terms
    hold the slice's own increments: their products vanish, or meet the
    product of another increment on one key.  Parts are of every size, of
    round-off size, or zeros of both signs."""
    rng = random.Random(seed)
    m = rng.choice((2, 4, 6, 8))
    s = rng.choice((1, 3, 70))
    space = WienerSpace(m)
    own = tuple(dict.fromkeys((increment(s, 1), increment(s, 2), increment(s, m))))  # products meet on one key
    pool = (eta(1), eta(2), eta(3, 1), aux(1), aux(2, 15), increment(s - 1, 2), increment(s - 1, 1)) + own

    def part() -> float:
        return rng.choice((rng.uniform(-2.0, 2.0), rng.uniform(5e-15, 3e-14), 0.0, -0.0))

    coefficients = [
        GrassmannElement(
            {multi_index(sorted(rng.sample(pool, rng.randint(0, 4)))): complex(part(), part()) for _ in range(rng.randint(0, 6))}
        )
        for _ in range(m)
    ]
    return space.increment_elements(s), coefficients


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_the_closed_form_noise_is_the_sum_of_increment_products(seed):
    increments, coefficients = _noise_case(seed)
    got = WienerSpace.noise(increments, coefficients)
    want = sum((d * c for d, c in zip(increments, coefficients)), start=ZERO)
    assert list(got.items()) == list(want.items())
    assert repr(list(got.items())) == repr(list(want.items()))  # signs of zero too


def test_noise_takes_one_generator_per_increment():
    for bad in (ZERO, 2 * gen(increment(1, 1)) + gen(increment(1, 2)), gen(increment(1, 1)) * gen(increment(1, 2)), ONE):
        with pytest.raises(ValueError, match="one generator"):
            WienerSpace.noise([bad], [ONE])


@pytest.mark.parametrize("m", [2, 8])
def test_increments_and_path_values_are_the_chained_sums(m):
    space = WienerSpace(m)
    motion = BrownianMotion(space, Partition.uniform(1.0, 5))
    for r in range(1, 6):
        assert [list(d.items()) for d in motion.increments(r)] == [list(gen(g).items()) for g in space.increment_ids(r)]
    for r in range(6):
        want = [ZERO] * m
        for q in range(1, r + 1):
            want = [w + gen(g) for w, g in zip(want, space.increment_ids(q))]
        got = motion.at_node(r)
        assert [list(x.items()) for x in got] == [list(w.items()) for w in want]
        assert repr([list(x.items()) for x in got]) == repr([list(w.items()) for w in want])


def test_slice_densities_are_built_on_their_slice_once_per_motion():
    space = WienerSpace(4)
    first = BrownianMotion(space, Partition.uniform(1.0, 4))
    second = BrownianMotion(space, Partition((0.0, 0.25, 0.75)))
    for motion, r in ((first, 1), (first, 3), (second, 1)):
        density = motion._density(r)
        assert density == _slice_density(space.increment_ids(r), motion.partition.delta(r))
    assert first._density(2) is first._density(2)


@st.composite
def slice_integrands(draw):
    """An element over one slice's increments, with state variables below the
    slice block, auxiliary generators above it, and neighbouring slices."""
    m = draw(st.sampled_from((2, 4)))
    ids = WienerSpace(m).increment_ids(2)
    pool = ids + (eta(1), eta(2), increment(1, 1), increment(3, 2), aux(1), aux(2))
    terms = draw(
        st.lists(st.tuples(st.sets(st.sampled_from(pool)), COEFFICIENTS), min_size=1, max_size=12)
    )
    a = GrassmannElement({multi_index(sorted(gens)): c for gens, c in terms})
    t = draw(st.one_of(st.floats(1e-3, 3.0), st.just(1e-8)))  # 1e-8: at m = 4, t**2 = 1e-16 meets unit terms
    return a, ids, t


@settings(derandomize=True, deadline=None, max_examples=200)
@given(slice_integrands())
def test_pairing_rule_is_the_slice_product_and_strip_bit_for_bit(case):
    a, ids, t = case
    want = berezin_integrate(heat_kernel(ids, t).body * a, ids)
    got = _integrate_slice(a, _slice_density(ids, t))
    assert list(got.items()) == list(want.items())
    assert repr(list(got.items())) == repr(list(want.items()))  # signs of zero too


@pytest.mark.parametrize("m", [2, 4, 6, 8])
@pytest.mark.parametrize("r", [1, 70])  # slice 70 starts at bit 720
def test_slice_density_is_the_heat_kernel_by_complement(m, r):
    ids = WienerSpace(m).increment_ids(r)
    for t in (0.7, 1e-4):
        density = _slice_density(ids, t)
        assert density.bits == multi_index(ids)
        want = [(density.bits ^ mi, c) for mi, c in heat_kernel(ids, t).body.items()]
        assert list(density.table.items()) == want


def test_slice_density_needs_one_whole_block_in_order():
    ids = WienerSpace(4).increment_ids(1)
    for bad in (ids[:3], ids[::-1], ids[:2] + WienerSpace(2).increment_ids(2)):
        with pytest.raises(ValueError):
            _slice_density(bad, 1.0)
    with pytest.raises(ValueError):
        _slice_density(ids, -1e-3)


def test_a_small_slice_density_term_counts():
    # The t**4 = 1e-16 density term is of round-off size, and the
    # expectation 1e3 * t**4 is that term.
    space = WienerSpace(8)
    top = 1e3 * ONE
    for b in space.increment_elements(1):
        top = top * b
    assert BrownianMotion(space, Partition.uniform(1e-4, 1)).expect(top) == 1e-13


@st.composite
def path_functionals(draw):
    """A sum of products of pairs of path values and increments on a random
    grid, some factors carrying a free auxiliary generator.  The second
    factor of a pair often takes the pairing partner of the first's
    component, so that many expectations are nonzero."""
    rng = draw(st.randoms(use_true_random=False))
    m = rng.choice((2, 4))
    steps = rng.randint(1, JOINT_CAP)
    widths = [rng.uniform(0.05, 1.0) for _ in range(steps)]
    motion = BrownianMotion(WienerSpace(m), Partition(tuple(accumulate(widths, initial=0.0))))

    def factor(comp):
        r = rng.randint(1, steps)
        value = (motion.at_node(r) if rng.random() < 0.5 else motion.increments(r))[comp]
        parameter = rng.choice((None, None, aux(1), aux(2)))
        return value if parameter is None else gen(parameter) * value

    functional = ZERO
    for _ in range(rng.randint(1, 2)):
        x = ONE
        for _ in range(rng.randint(1, 2)):
            comp = rng.randrange(m)
            partner = comp ^ 1 if rng.random() < 0.5 else rng.randrange(m)
            x = x * factor(comp) * factor(partner)
        functional = functional + x
    return motion, functional


@settings(derandomize=True, deadline=None)
@given(path_functionals())
def test_sequential_engine_matches_joint_mode_on_random_grids(case):
    motion, functional = case
    gap = motion.expect_element(functional) - motion._expect_joint(functional)
    assert gap.norm() <= 1e-12


@st.composite
def underflowing_functionals(draw):
    """Random functionals over the increments of up to five slices and two
    auxiliary generators, some coefficients so small (1e-320, a subnormal)
    that integrating a later slice takes them to exactly zero, which drops
    the term before it meets an earlier slice.
    Slice widths differ, so the order in which a term picks up its slices'
    coefficients shows in the last bits.  Half the terms hold whole slices,
    which integrate to nonzero values that often meet on one key.  Some
    functionals hold no increment at all."""
    rng = draw(st.randoms(use_true_random=False))
    steps = rng.randint(1, 5)
    unit = rng.choice((1e-3, 1.0))
    widths = [unit * rng.uniform(0.5, 1.5) for _ in range(steps)]
    motion = BrownianMotion(SPACE, Partition(tuple(accumulate(widths, initial=0.0))))
    pool = [aux(1), aux(2)]
    has_increments = rng.random() < 0.8
    if has_increments:
        pool += [g for r in range(1, steps + 1) for g in SPACE.increment_ids(r)]
    terms = {}
    for _ in range(rng.randint(1, 10)):
        gens = set(rng.sample(pool, rng.randint(0, min(4, len(pool)))))
        if has_increments and rng.random() < 0.5:
            for r in rng.sample(range(1, steps + 1), rng.randint(1, min(3, steps))):
                gens.update(SPACE.increment_ids(r))
        gens = sorted(gens)
        scale = rng.choice((1.0, 1e-12, 2e-14, 1e-320))
        imag = rng.choice((scale * rng.uniform(-1, 1), -0.0))
        terms[multi_index(gens)] = complex(scale * rng.uniform(-1, 1), imag)
    return motion, GrassmannElement(terms)


def _per_term_expectation(motion, functional):
    """Each term alone, integrated with ``_integrate_slice`` over the slices
    it touches, last first; the results summed in term order, zeros dropped once."""
    total = {}
    for mi, c in functional.items():
        term = GrassmannElement({mi: c})
        touched = {s for family, s in term.blocks() if family == int(Family.INCREMENT)}
        for r in sorted(touched, reverse=True):
            term = _integrate_slice(term, _slice_density(motion.space.increment_ids(r), motion.partition.delta(r)))
        for key, value in term.items():
            total[key] = total.get(key, 0j) + value
    return GrassmannElement(total)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(underflowing_functionals())
def test_one_pass_engine_is_the_per_term_integral_bit_for_bit(case):
    motion, functional = case
    want = _per_term_expectation(motion, functional)
    got = motion.expect_element(functional)
    assert repr(list(got.items())) == repr(list(want.items()))  # signs of zero too


@settings(derandomize=True, deadline=None)
@given(path_functionals())
def test_one_pass_engine_is_the_per_term_integral_on_path_functionals(case):
    motion, functional = case
    want = _per_term_expectation(motion, functional)
    got = motion.expect_element(functional)
    assert repr(list(got.items())) == repr(list(want.items()))


def test_joint_mode_cap():
    motion = BrownianMotion(SPACE, Partition.uniform(1.0, 8))
    with pytest.raises(ValueError):
        motion._expect_joint(ONE)


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
        sets = [tuple(aux(c, 12 + i) for c in (1, 2)) for i in range(len(times))]
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
    assert mu_distance(x, y) == pytest.approx(3 * t)  # the gap of b1*b2; b1 and b2 have mean 0


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
