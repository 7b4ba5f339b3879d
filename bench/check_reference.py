"""Tests of the benchmark's independent references and of its checks.

    python3 -m pytest -q bench/check_reference.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import math
import os
import random
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import reference as ref  # noqa: E402
import workloads  # noqa: E402

NAMES = ("flat", "flat_potential", "ou", "oscillator", "quartic")
PARAMS = ({}, {"r": 0.7, "c": 1.3, "b": 0.6, "lam": 0.4}, {"r": 1.4, "c": 0.6, "b": 0.9, "lam": 0.9})


def _random_element(rng, n, degrees=None):
    return {
        mask: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for mask in range(1 << n)
        if (degrees is None or mask.bit_count() in degrees) and rng.random() < 0.6
    }


def _close(x, y, tol=1e-12):
    keys = set(x) | set(y)
    return all(abs(x.get(k, 0) - y.get(k, 0)) <= tol for k in keys)


def test_generators_anticommute_and_square_to_zero():
    for i in range(4):
        assert ref.mul({1 << i: 1.0}, {1 << i: 1.0}) == {}
        for j in range(i + 1, 4):
            ij = ref.mul({1 << i: 1.0}, {1 << j: 1.0})
            ji = ref.mul({1 << j: 1.0}, {1 << i: 1.0})
            assert ij == {(1 << i) | (1 << j): 1.0} and ji == {(1 << i) | (1 << j): -1.0}


def test_products_are_associative():
    rng = random.Random(3)
    for _ in range(20):
        a, b, c = (_random_element(rng, 5) for _ in range(3))
        assert _close(ref.mul(ref.mul(a, b), c), ref.mul(a, ref.mul(b, c)), 1e-10)


def test_left_derivative_obeys_the_graded_leibniz_rule():
    rng = random.Random(4)
    for _ in range(20):
        a = _random_element(rng, 4, degrees=(1, 3))  # odd
        b = _random_element(rng, 4)
        for j in range(4):
            lhs = ref.derivative(ref.mul(a, b), j)
            rhs = ref.add(ref.mul(ref.derivative(a, j), b), ref.mul(a, ref.derivative(b, j)), scale=(1.0, -1.0))
            assert _close(lhs, rhs, 1e-12)


def test_integral_of_the_ordered_monomial_is_one():
    assert ref.integrate({0b111: 1.0}, (0, 1, 2)) == {0: 1.0}
    assert ref.integrate({0b111: 1.0}, (2, 1, 0)) == {0: -1.0}
    assert ref.integrate({0b011: 2.0}, (0, 1, 2)) == {}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("params", PARAMS)
def test_closed_forms_match_scipy_expm(name, params):
    for t in (0.3, 1.0, 1.7):
        exact = ref.example(name, **params).semigroup(t)
        assert np.abs(ref.closed_form_operator(name, t, **params) - exact).max() <= 1e-12


def test_random_semigroup_composes():
    rng = random.Random(5)
    n, m = 4, 4
    h = ref.Hamiltonian(
        n,
        m,
        _random_element(rng, n, (0, 2, 4)),
        tuple(_random_element(rng, n, (1, 3)) for _ in range(n)),
        tuple(tuple(_random_element(rng, n, (0, 2)) for _ in range(m)) for _ in range(n)),
    )
    assert np.abs(h.semigroup(0.3) @ h.semigroup(0.5) - h.semigroup(0.8)).max() <= 1e-10


def test_converge_limits_are_the_closed_forms():
    assert ref.converge_limit("flat_c0", 0.7) == pytest.approx(0.7, abs=1e-14)
    assert ref.converge_limit("oscillator_c0", 1.3) == pytest.approx(math.sinh(1.3), abs=1e-13)
    assert ref.converge_limit("quartic_xx", 0.8, c=0.7, b=0.6) == pytest.approx(math.exp(-0.96), abs=1e-14)
    assert ref.converge_limit("ou_xx", 1.0) == pytest.approx((1 - math.exp(-2)) / 2, abs=1e-15)


def test_ou_grid_formula_matches_the_euler_recursion():
    # zeta_{k+1} = (1 - r dt) zeta_k + c dbeta_k gives
    # E[zeta1 zeta2]_{k+1} = (1 - r dt)^2 E_k + c^2 dt.
    for t, steps, r, c in ((1.0, 64, 1.0, 1.0), (0.7, 12, 1.3, 0.8)):
        dt = t / steps
        moment = 0.0
        for _ in range(steps):
            moment = (1 - r * dt) ** 2 * moment + c * c * dt
        assert ref.ou_xx_grid(t, steps, r, c) == pytest.approx(moment, rel=1e-13)
    limit = ref.converge_limit("ou_xx", 1.0)
    errors = [abs(ref.ou_xx_grid(1.0, n, 1.0, 1.0) - limit) for n in (64, 128, 256)]
    assert errors[0] / errors[1] == pytest.approx(2, abs=0.05)


def test_kernel_operator_of_the_heat_and_quartic_reference_kernels():
    # Bits: x1, x2 (output), y1, y2 (integrated).  The flat kernel is
    # t + (y1 - x1)(y2 - x2); the quartic reference kernel is the delta
    # (y1 - x1)(y2 - x2) plus the constant c^2/(2b)(exp(-2bt) - 1).
    t, b, c = 0.8, 0.6, 1.2
    delta = {0b1100: 1.0, 0b0110: 1.0, 0b1001: -1.0, 0b0011: 1.0}
    flat = ref.kernel_operator({**delta, 0: t}, 2)
    assert np.abs(flat - ref.closed_form_operator("flat", t)).max() <= 1e-15
    constant = c * c / (2 * b) * (math.exp(-2 * b * t) - 1)
    quartic = ref.kernel_operator({**delta, 0: constant}, 2)
    gap = quartic - ref.example("quartic", b=b, c=c).semigroup(t)
    assert abs(gap[3, 3]) == pytest.approx(ref.quartic_reference_gap(t, b), abs=1e-12)
    gap[3, 3] = 0
    assert np.abs(gap).max() <= 1e-12


def _converge_text(grids, values, extrapolate):
    rows = ["N,dt,quantity,value_re,value_im,error_vs_extrapolate"]
    rows += [f"{n},{1 / n},ou_xx,{v!r},0.0,{abs(v - extrapolate)!r}" for n, v in zip(grids, values)]
    rows.append(f"extrapolate,,ou_xx,{extrapolate!r},0.0,0.0")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("grids", ((8, 16, 32, 64), (24, 32, 48, 64), (12, 16, 24, 32)))
def test_converge_check_passes_a_correct_richardson_extrapolate(grids):
    op = workloads._converge("ou_xx", ",".join(map(str, grids)), r=1.0, c=1.0, t=1.0)
    values = [ref.ou_xx_grid(1.0, n, 1.0, 1.0) for n in grids]
    ratio = grids[-1] / grids[-2]
    richardson = (ratio * values[-1] - values[-2]) / (ratio - 1)
    outcome = workloads._check_converge(op, 0, _converge_text(grids, values, richardson))
    assert outcome.ok and not outcome.problems
    doubling = 2 * values[-1] - values[-2]
    outcome = workloads._check_converge(op, 0, _converge_text(grids, values, doubling))
    assert outcome.ok == (ratio == 2) and not outcome.problems


def test_converge_check_flags_wrong_grid_values():
    grids = (8, 16, 32, 64)
    op = workloads._converge("ou_xx", "8,16,32,64", r=1.0, c=1.0, t=1.0)
    values = [ref.ou_xx_grid(1.0, n, 1.0, 1.0) for n in grids]
    values[1] *= 1 + 1e-9
    outcome = workloads._check_converge(op, 0, _converge_text(grids, values, 2 * values[-1] - values[-2]))
    assert outcome.problems


def test_ratio_check_uses_the_grid_ratio_and_order():
    assert not workloads._ratio_problems([8, 16, 32], [0.4, 0.2, 0.1], 1, 1e-12)
    assert not workloads._ratio_problems([48, 64], [4.0, 3.0], 1, 1e-12)
    assert not workloads._ratio_problems([8, 16], [0.4, 0.1], 2, 1e-12)
    assert workloads._ratio_problems([8, 16], [0.4, 0.1], 1, 1e-12)
    assert workloads._ratio_problems([8, 16], [1e-15, 1e-3], None, 1e-12)


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        a, b = workloads.build(workload, 11), workloads.build(workload, 11)
        assert [op.argv for op in a] == [op.argv for op in b]
        assert [op.params for op in a] == [op.params for op in b]
        assert [op.label for op in a] == [op.label for op in workloads.build(workload, 12)]
        faults = [op for op in a if op.fault]
        assert [op.argv for op in faults] == [op.argv for op in workloads.build(workload, 12) if op.fault]
