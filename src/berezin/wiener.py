"""Anticommuting Wiener space.

The heat kernel of the free second-order operator provides the joint
densities; Brownian motion at a partition node is the running sum of
per-slice increment generators, and every expectation is an exact Berezin
integral.  The default engine eliminates one time slice at a time, from
the last slice inward, so the live generator count stays proportional to
the number of slices a functional actually touches.  A joint mode that
keeps all slices live backs it as an internal oracle for small grids.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    Family,
    GeneratorId,
    GrassmannElement,
    ONE,
    ZERO,
    gen,
    increment,
)
from .calculus import SupersmoothFunction, berezin_integrate, derivative_element

__all__ = [
    "Partition",
    "WienerSpace",
    "BrownianMotion",
    "RandomVariable",
    "heat_kernel",
    "heat_kernel_difference",
    "free_hamiltonian_apply",
    "heat_equation_residual",
    "finite_distribution",
    "mu_distance",
    "bridge_covariance",
    "brownian_moment_rows",
]


@dataclass(frozen=True)
class Partition:
    """A strictly increasing time grid 0 = t_0 < t_1 < ... < t_N."""

    nodes: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError("a partition needs at least one step")
        if self.nodes[0] != 0.0:
            raise ValueError("partitions start at time 0")
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValueError("partition nodes must be strictly increasing")

    @classmethod
    def uniform(cls, t_end: float, steps: int) -> "Partition":
        if steps < 1 or t_end <= 0:
            raise ValueError("need steps >= 1 and t_end > 0")
        return cls(tuple(t_end * i / steps for i in range(steps + 1)))

    @classmethod
    def from_times(cls, times: Iterable[float]) -> "Partition":
        """Grid through the given positive times (deduplicated, sorted)."""
        inner = sorted({float(t) for t in times if t > 0.0})
        return cls((0.0,) + tuple(inner))

    @property
    def steps(self) -> int:
        return len(self.nodes) - 1

    @property
    def t_end(self) -> float:
        return self.nodes[-1]

    def delta(self, r: int) -> float:
        """Width of slice r, covering (t_{r-1}, t_r], for r in 1..N."""
        return self.nodes[r] - self.nodes[r - 1]

    @property
    def mesh(self) -> float:
        return max(self.delta(r) for r in range(1, self.steps + 1))

    def node_index(self, t: float) -> int:
        """Index of the node within a relative 1e-12 of ``t``.

        Both neighbours of the bisection point are checked, since a time
        computed in floating point may land just above its node.
        """
        i = bisect_left(self.nodes, t)
        for j in (i, i - 1):
            if 0 <= j < len(self.nodes) and abs(self.nodes[j] - t) <= 1e-12 * max(1.0, abs(t)):
                return j
        raise ValueError(f"time {t} is not a partition node")


class WienerSpace:
    """Dimension and symplectic pairing of the anticommuting Wiener space.

    ``m`` must be even; components pair up as (1,2), (3,4), ... with
    eps(2k-1, 2k) = +1 = -eps(2k, 2k-1).
    """

    def __init__(self, m: int):
        if m < 2 or m % 2:
            raise ValueError("the Brownian dimension m must be a positive even integer")
        self.m = m

    def eps(self, a: int, b: int) -> int:
        """Pairing e^{ab} for 1-based component indices."""
        if a + 1 == b and a % 2 == 1:
            return 1
        if b + 1 == a and b % 2 == 1:
            return -1
        return 0

    @property
    def eps_matrix(self) -> np.ndarray:
        e = np.zeros((self.m, self.m))
        for k in range(0, self.m, 2):
            e[k, k + 1] = 1.0
            e[k + 1, k] = -1.0
        return e

    def contract(
        self, x: Sequence[GrassmannElement], y: Sequence[GrassmannElement]
    ) -> GrassmannElement:
        """Pairing contraction sum_{a,b} e^{ab} x_b y_a of two m-component rows."""
        out = ZERO
        for k in range(0, self.m, 2):
            out = out + x[k + 1] * y[k] - x[k] * y[k + 1]
        return out

    @staticmethod
    def noise(
        increments: Sequence[GrassmannElement], coefficients: Sequence[GrassmannElement]
    ) -> GrassmannElement:
        """Euler noise step sum_a dbeta^a C_a, increments multiplying from the left."""
        return sum((d * c for d, c in zip(increments, coefficients)), start=ZERO)

    def increment_ids(self, slice_index: int) -> tuple[GeneratorId, ...]:
        return tuple(increment(slice_index, a) for a in range(1, self.m + 1))

    def increment_elements(self, slice_index: int) -> tuple[GrassmannElement, ...]:
        return tuple(gen(g) for g in self.increment_ids(slice_index))

    def __repr__(self) -> str:
        return f"WienerSpace(m={self.m})"


def heat_kernel(variables: Sequence[GeneratorId], t: float) -> SupersmoothFunction:
    """The weight-one Gaussian on an even set of anticommuting variables.

    Expanded product form of t**(m/2) * exp(Q/t) with one quadratic factor
    per component pair, so it is exact for every t >= 0 and reduces to the
    delta monomial at t = 0.  Its full Berezin integral is 1 and it solves
    d/dt p = -H0 p for the free operator of ``free_hamiltonian_apply``.
    """
    m = len(variables)
    if m < 2 or m % 2:
        raise ValueError("the heat kernel needs an even number of variables")
    if t < 0:
        raise ValueError("t must be nonnegative")
    body = ONE
    for k in range(0, m, 2):
        body = body * (t + gen(variables[k]) * gen(variables[k + 1]))
    return SupersmoothFunction(body, tuple(variables))


def heat_kernel_difference(
    first: Sequence[GeneratorId], second: Sequence[GeneratorId], t: float
) -> SupersmoothFunction:
    """Heat kernel evaluated on the difference of two variable sets."""
    if len(first) != len(second):
        raise ValueError("variable sets must have equal length")
    m = len(first)
    if m < 2 or m % 2:
        raise ValueError("the heat kernel needs an even number of variables")
    body = ONE
    for k in range(0, m, 2):
        u = gen(first[k]) - gen(second[k])
        v = gen(first[k + 1]) - gen(second[k + 1])
        body = body * (t + u * v)
    return SupersmoothFunction(body, tuple(first) + tuple(second))


def free_hamiltonian_apply(space: WienerSpace, f: SupersmoothFunction) -> SupersmoothFunction:
    """Apply the free operator (1/2) e^{ij} d_i d_j to a function of m variables."""
    if f.dimension != space.m:
        raise ValueError("function dimension must equal the space dimension")
    out = GrassmannElement()
    for i in range(1, space.m + 1):
        for j in range(1, space.m + 1):
            e = space.eps(i, j)
            if not e:
                continue
            second = derivative_element(f.body, f.variables[j - 1])
            out = out + 0.5 * e * derivative_element(second, f.variables[i - 1])
    return SupersmoothFunction(out, f.variables)


def heat_equation_residual(
    space: WienerSpace, variables: Sequence[GeneratorId], t: float, h: float = 1e-5
) -> float:
    """Norm of (d/dt p + H0 p) with d/dt by central finite difference."""
    if t <= h:
        raise ValueError("need t > h for the central difference")
    plus = heat_kernel(variables, t + h).body
    minus = heat_kernel(variables, t - h).body
    dt = (plus - minus) / (2 * h)
    action = free_hamiltonian_apply(space, heat_kernel(variables, t)).body
    return (dt + action).norm()


def _scalar_or_element(value: GrassmannElement) -> "complex | GrassmannElement":
    return value.scalar_value() if value.is_scalar() else value


class BrownianMotion:
    """Anticommuting Brownian motion realized on one partition.

    Each slice r carries m fresh increment generators; the path value at
    node r is the sum of the first r increments.  Expectations integrate
    each slice against its own heat-kernel density, last slice first.
    """

    def __init__(self, space: WienerSpace, partition: Partition):
        self.space = space
        self.partition = partition

    def increments(self, r: int) -> tuple[GrassmannElement, ...]:
        if not 1 <= r <= self.partition.steps:
            raise ValueError(f"slice index {r} out of range")
        return self.space.increment_elements(r)

    def at_node(self, r: int) -> tuple[GrassmannElement, ...]:
        """Path components beta^a at node r; node 0 is identically zero."""
        if not 0 <= r <= self.partition.steps:
            raise ValueError(f"node index {r} out of range")
        comps = [GrassmannElement() for _ in range(self.space.m)]
        for q in range(1, r + 1):
            for a, inc in enumerate(self.space.increment_elements(q)):
                comps[a] = comps[a] + inc
        return tuple(comps)

    def at_time(self, t: float) -> tuple[GrassmannElement, ...]:
        return self.at_node(self.partition.node_index(t))

    def expect(self, functional: GrassmannElement, joint: bool = False, joint_cap: int = 6):
        """Expectation of a functional of the increments.

        Free generators of other families survive as parameters, in which
        case the result is returned as an element rather than a complex
        number.  Increment generators must belong to declared slices.
        """
        if joint:
            return _scalar_or_element(self._expect_joint(functional, joint_cap))
        return _scalar_or_element(self._expect_sequential(functional))

    def expect_element(self, functional: GrassmannElement) -> GrassmannElement:
        return self._expect_sequential(functional)

    def _check_slices(self, functional: GrassmannElement) -> None:
        for family, slice_index in functional.blocks():
            if family == int(Family.INCREMENT) and not (
                1 <= slice_index <= self.partition.steps
            ):
                raise ValueError(f"functional references undeclared slice {slice_index}")

    def _expect_sequential(self, functional: GrassmannElement) -> GrassmannElement:
        self._check_slices(functional)
        current = functional
        for r in range(self.partition.steps, 0, -1):
            if (int(Family.INCREMENT), r) not in current.blocks():
                continue  # the slice density integrates to one
            ids = self.space.increment_ids(r)
            density = heat_kernel(ids, self.partition.delta(r)).body
            current = berezin_integrate(density * current, ids)
        return current

    def _expect_joint(self, functional: GrassmannElement, cap: int) -> GrassmannElement:
        self._check_slices(functional)
        n = self.partition.steps
        if n > cap:
            raise ValueError(f"joint mode caps at {cap} slices, got {n}")
        density = ONE
        variables: list[GeneratorId] = []
        for r in range(1, n + 1):
            ids = self.space.increment_ids(r)
            density = density * heat_kernel(ids, self.partition.delta(r)).body
            variables.extend(ids)
        return berezin_integrate(density * functional, variables)


@dataclass(frozen=True)
class RandomVariable:
    """A finitely-defined random variable: components over one grid."""

    motion: BrownianMotion
    components: tuple[GrassmannElement, ...]

    @property
    def dimension(self) -> int:
        return len(self.components)

    def expect_monomial(self, indices: Sequence[int]):
        """Expectation of the ordered product of the 1-based components."""
        x = ONE
        for i in indices:
            x = x * self.components[i - 1]
        return self.motion.expect(x)


def mu_distance(
    x: RandomVariable,
    y: RandomVariable,
    test_family: Sequence[Sequence[int]] | None = None,
) -> float:
    """Largest gap between expectations of test monomials of x and of y.

    The default family is every squarefree monomial in the components (for
    odd components repeated factors vanish identically).  A gap of zero on
    the family means the two variables are indistinguishable through those
    moments; parameters left in an expectation are compared in norm.
    """
    if x.dimension != y.dimension:
        raise ValueError("random variables must have equal dimension")
    if test_family is None:
        k = x.dimension
        test_family = [c for size in range(1, k + 1) for c in combinations(range(1, k + 1), size)]
    worst = 0.0
    for mono in test_family:
        ex = x.expect_monomial(mono)
        ey = y.expect_monomial(mono)
        if isinstance(ex, GrassmannElement) or isinstance(ey, GrassmannElement):
            ex = ex if isinstance(ex, GrassmannElement) else GrassmannElement.from_scalar(ex)
            ey = ey if isinstance(ey, GrassmannElement) else GrassmannElement.from_scalar(ey)
            worst = max(worst, (ex - ey).norm())
        else:
            worst = max(worst, abs(ex - ey))
    return worst


def bridge_covariance(space: WienerSpace, s: float, u: float) -> np.ndarray:
    """Covariance matrix E[alpha^i_s alpha^j_u] of the bridge pinned at 0 and 1.

    The bridge is beta_t - t * beta_1 on the unit interval; the matrix is
    computed from path moments on the grid through s, u, and 1, and equals
    eps * s * (1 - u) for 0 <= s <= u <= 1.
    """
    if not 0.0 <= s <= u <= 1.0:
        raise ValueError("need 0 <= s <= u <= 1")
    partition = Partition.from_times([s, u, 1.0])
    motion = BrownianMotion(space, partition)
    beta_one = motion.at_time(1.0)

    def bridge(t: float) -> tuple[GrassmannElement, ...]:
        beta_t = motion.at_time(t) if t > 0 else tuple(GrassmannElement() for _ in range(space.m))
        return tuple(bt - t * b1 for bt, b1 in zip(beta_t, beta_one))

    alpha_s = bridge(s)
    alpha_u = bridge(u)
    out = np.zeros((space.m, space.m), dtype=complex)
    for i in range(space.m):
        for j in range(space.m):
            value = motion.expect(alpha_s[i] * alpha_u[j])
            if isinstance(value, GrassmannElement):
                raise AssertionError("bridge covariance must be scalar")
            out[i, j] = value
    return out


def finite_distribution(
    space: WienerSpace,
    times: Sequence[float],
    variable_sets: Sequence[Sequence[GeneratorId]],
) -> SupersmoothFunction:
    """Joint density on explicit per-time variable sets.

    The product of difference kernels over consecutive times, with the
    first factor anchored at zero.  Used to exercise the marginalization
    and total-weight identities directly on the variables.
    """
    if len(times) != len(variable_sets):
        raise ValueError("one variable set per time is required")
    if any(b <= a for a, b in zip(times, times[1:])) or (times and times[0] <= 0):
        raise ValueError("times must be positive and strictly increasing")
    body = ONE
    previous: Sequence[GeneratorId] | None = None
    t_prev = 0.0
    bound: list[GeneratorId] = []
    for t, variables in zip(times, variable_sets):
        if len(variables) != space.m:
            raise ValueError("each variable set must have m components")
        if previous is None:
            body = body * heat_kernel(variables, t).body
        else:
            body = body * heat_kernel_difference(variables, previous, t - t_prev).body
        previous = variables
        t_prev = t
        bound.extend(variables)
    return SupersmoothFunction(body, tuple(bound))


def brownian_moment_rows(space: WienerSpace, times: Sequence[float]) -> list[tuple]:
    """Rows (time, monomial, re, im) of low-order path moments for reports."""
    rows: list[tuple] = []
    for t in times:
        partition = Partition.from_times([t])
        motion = BrownianMotion(space, partition)
        beta = motion.at_time(t)
        singles = [(f"b{a + 1}", beta[a]) for a in range(space.m)]
        pairs = [
            (f"b{a + 1}*b{b + 1}", beta[a] * beta[b])
            for a in range(space.m)
            for b in range(a + 1, space.m)
        ]
        for label, functional in singles + pairs:
            value = motion.expect(functional)
            rows.append((t, label, value.real, value.imag))
    return rows
