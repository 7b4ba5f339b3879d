"""Anticommuting Wiener space.

The heat kernel of the free second-order operator provides the joint
densities; Brownian motion at a partition node is the running sum of
per-slice increment generators, and every expectation is an exact Berezin
integral.  Each slice is integrated by the closed-form pairing (Wick) rule
of the Gaussian Berezin integral: a term survives only when its slice
generators are whole component pairs, and it picks up the density
coefficient of the complementary pairs.  One value holds that rule for a
slice, ``SliceDensity``: the slice's bits and its pairing table, built
from the closed form of ``heat_kernel``'s product over the pairs, with no
element product and no prune.  ``BrownianMotion`` and ``_integrate_slice``,
the one-slice oracle that tests call, read it, and they build slice masks
from generator ids only, so no bit position is assumed outside ``algebra``;
a ``WienerSpace`` builds one density per width, on slice 0, which a motion
moves to slice r by the distance between the two slices' first bits, since
every block lays out its components alike.  ``WienerSpace.noise`` takes
its products with increment generators in closed form, relying only on
bit order being canonical order.  The increments of distinct slices
are independent, so the default engine takes an expectation in one pass
over the functional's terms: each term walks only the slices its key
touches, last slice first, multiplying in one pairing coefficient per
slice, and is dropped as soon as a slice's pattern has no pairing or its
coefficient falls below the prune threshold.  The survivors are summed in
term order and pruned once, which is bit for bit the sum of integrating
each term alone, slice by slice.  The expectation of a product,
``BrownianMotion.expect_product``, builds only the product terms whose
increments pair up whole (``algebra._paired_product``), the only ones the
pass keeps, so the others are never formed.  A joint mode that forms the
density products and keeps all slices live backs it as an internal oracle
for small grids.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .algebra import (
    COMPONENT_CAP,
    GeneratorId,
    GrassmannElement,
    MultiIndex,
    ONE,
    PRUNE,
    _add_into,
    _increment_blocks,
    _paired_product,
    gen,
    increment,
    multi_index,
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

JOINT_CAP = 6  # slice limit of the engines that keep every slice live


@dataclass(frozen=True)
class Partition:
    """A strictly increasing time grid 0 = t_0 < t_1 < ... < t_N."""

    nodes: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError("a partition needs at least one step")
        if self.nodes[0] != 0.0:
            raise ValueError("partitions start at time 0")
        # ``not a < b`` also refuses a NaN node, and after a finite last
        # node every node is finite.
        if not np.isfinite(self.nodes[-1]) or any(not a < b for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValueError("partition nodes must be finite and strictly increasing")

    @classmethod
    def uniform(cls, t_end: float, steps: int) -> "Partition":
        if steps < 1 or not 0 < t_end < np.inf:
            raise ValueError("need steps >= 1 and a finite t_end > 0")
        return cls(tuple(t_end * i / steps for i in range(steps + 1)))

    @classmethod
    def from_times(cls, times: Iterable[float]) -> "Partition":
        """Grid through the given positive times (deduplicated, sorted); a NaN
        time is kept, so the partition refuses it."""
        inner = sorted({float(t) for t in times if not t <= 0.0})
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
        if m < 2 or m % 2 or m > COMPONENT_CAP:
            raise ValueError(f"the Brownian dimension m must be an even integer from 2 to {COMPONENT_CAP}")
        self.m = m
        self._bits: dict[int, tuple[MultiIndex, ...]] = {}
        self._densities: dict[float, SliceDensity] = {}

    def eps(self, a: int, b: int) -> int:
        """Pairing e^{ab} for 1-based component indices."""
        if not (1 <= a <= self.m and 1 <= b <= self.m):
            raise ValueError(f"components ({a}, {b}) are outside 1..{self.m}")
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
        """Pairing contraction sum_{a,b} e^{ab} x_b y_a of two m-component rows,
        summed in place in the order of ``ZERO + x2 y1 - x1 y2 + ...``."""
        data: dict[MultiIndex, complex] = {}
        for k in range(0, self.m, 2):
            _add_into(data, (x[k + 1] * y[k])._terms)
            _add_into(data, (-(x[k] * y[k + 1]))._terms)  # adding -p is subtracting p, bit for bit
        return GrassmannElement._wrap(data)

    @staticmethod
    def noise(
        increments: Sequence[GrassmannElement], coefficients: Sequence[GrassmannElement]
    ) -> GrassmannElement:
        """Euler noise step sum_a dbeta^a C_a, increments multiplying from the left.

        Each increment is one generator b with coefficient k, so dbeta^a C_a
        is a bit merge: a term c X of C_a with X & b = 0 goes to X | b with
        the sign (-1)^popcount(X & (b - 1)) of moving b past the generators
        of X below it.  The coefficient is ``_product``'s 0j + (+-1 k) c, each
        product is pruned as ``*`` prunes it, and the products are summed
        in place in the order of ``ZERO + d1 C1 + d2 C2 + ...``, so the result
        equals that chain bit for bit.
        """
        data: dict[MultiIndex, complex] = {}
        for d, c in zip(increments, coefficients):
            ((b, k),) = d.items()
            below = b - 1
            if not b or b & below:
                raise ValueError(f"an increment must be one generator, got {d}")
            plus, minus = 1 * k, -1 * k
            product: dict[MultiIndex, complex] = {}
            for x, cx in c.items():
                if not x & b:
                    value = 0j + (minus if (x & below).bit_count() & 1 else plus) * cx
                    if abs(value) >= PRUNE:
                        product[x | b] = value
            _add_into(data, product)
        return GrassmannElement._wrap(data)

    def increment_ids(self, slice_index: int) -> tuple[GeneratorId, ...]:
        return tuple(increment(slice_index, a) for a in range(1, self.m + 1))

    def _increment_bits(self, slice_index: int) -> tuple[MultiIndex, ...]:
        """The one-bit multi-index of each increment generator of a slice,
        looked up once per space and slice."""
        bits = self._bits.get(slice_index)
        if bits is None:
            bits = self._bits[slice_index] = tuple(multi_index((g,)) for g in self.increment_ids(slice_index))
        return bits

    def increment_elements(self, slice_index: int) -> tuple[GrassmannElement, ...]:
        """The increment generators of a slice as elements, ``gen`` of each."""
        return tuple(GrassmannElement._wrap({b: 1 + 0j}) for b in self._increment_bits(slice_index))

    def _width_density(self, width: float) -> SliceDensity:
        """The density of a slice of ``width`` on increment slice 0, built by
        ``_slice_density`` once per space and width."""
        density = self._densities.get(width)
        if density is None:
            density = self._densities[width] = _slice_density(self.increment_ids(0), width)
        return density

    def __repr__(self) -> str:
        return f"WienerSpace(m={self.m})"


def _gaussian(points: Sequence[GrassmannElement], t: float) -> GrassmannElement:
    """The product over component pairs of (t + x_{2k-1} x_{2k})."""
    m = len(points)
    if m < 2 or m % 2:
        raise ValueError("the heat kernel needs an even number of variables")
    body = ONE
    for k in range(0, m, 2):
        body = body * (t + points[k] * points[k + 1])
    return body


def heat_kernel(variables: Sequence[GeneratorId], t: float) -> SupersmoothFunction:
    """The weight-one Gaussian on an even set of anticommuting variables.

    Expanded product form of t**(m/2) * exp(Q/t) with one quadratic factor
    per component pair, so it is exact for every t >= 0 and reduces to the
    delta monomial at t = 0.  Its full Berezin integral is 1 and it solves
    d/dt p = -H0 p for the free operator of ``free_hamiltonian_apply``.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return SupersmoothFunction(_gaussian([gen(v) for v in variables], t), tuple(variables))


def heat_kernel_difference(
    first: Sequence[GeneratorId], second: Sequence[GeneratorId], t: float
) -> SupersmoothFunction:
    """Heat kernel evaluated on the difference of two variable sets."""
    if len(first) != len(second):
        raise ValueError("variable sets must have equal length")
    points = [gen(u) - gen(v) for u, v in zip(first, second)]
    return SupersmoothFunction(_gaussian(points, t), tuple(first) + tuple(second))


class SliceDensity(NamedTuple):
    """One slice's heat-kernel density as the pairing rule reads it.

    ``bits`` holds the slice's generators.  ``table`` maps the slice bits a
    term must hold, a union of whole component pairs, to the density
    coefficient of the complementary pairs, in ``heat_kernel``'s term order.
    """

    bits: MultiIndex
    table: dict[MultiIndex, complex]


def _slice_bits(ids: Sequence[GeneratorId]) -> MultiIndex:
    """The bits of one slice's variables, which must be the components 1..m
    of one block in canonical order, m even, as ``WienerSpace.increment_ids``
    gives them."""
    if not ids or len(ids) % 2 or list(ids) != [GeneratorId(*ids[0][:2], a) for a in range(1, len(ids) + 1)]:
        raise ValueError("slice variables must be the components 1..m of one block, in order, m even")
    return multi_index(ids)


def _slice_density(ids: Sequence[GeneratorId], t: float) -> SliceDensity:
    """The heat-kernel density of one slice on ``ids`` (see ``_slice_bits``),
    from its closed form: the product over component pairs of (t + the
    pair's monomial) holds the coefficient t^(m/2 - |S|) on each union S of
    whole pairs, with sign +1.  The table multiplies in one pair at a time,
    in ``heat_kernel``'s term order and with its scalar products, so every
    coefficient that ``heat_kernel`` keeps is equal bit for bit; the small
    powers of t that its element products prune stay in."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    bits = _slice_bits(ids)
    table = {bits: 1 + 0j}
    for k in range(0, len(ids), 2):
        pair = multi_index(ids[k : k + 2])
        table = {key: value for need, c in table.items() for key, value in ((need ^ pair, c), (need, c * t))}
    return SliceDensity(bits, table)


def _integrate_slice(a: GrassmannElement, density: SliceDensity) -> GrassmannElement:
    """Berezin integral of (slice density) * a over the slice, by the pairing rule.

    Tests call it as the oracle of one slice: of ``BrownianMotion``'s walk,
    and, after substituting the Euler step with live increments, of
    ``feynman_kac.fk_evolve``'s closed-form slice step.

    Where ``heat_kernel`` prunes no density term, equal, coefficient for
    coefficient and in term order, to
    ``berezin_integrate(heat_kernel(ids, t).body * a, ids)``; where it prunes
    a small power of t, which the table keeps, the products of that term add
    to the sums.  A density term
    meets only the terms of ``a`` whose slice bits are its complement, with
    sign +1: both are unions of whole pairs, and the m strips are even in
    number.  Every other product term misses a slice variable and
    integrates to zero.  Sums run in the product's order (density terms
    outer, terms of ``a`` inner), so every coefficient rounds as it did.
    """
    bits = density.bits
    data: dict[MultiIndex, complex] = {}
    for mask, dc in density.table.items():
        for mi, c in a.items():
            if mi & bits == mask:
                key = mi ^ mask if mask else mi  # no copy of a key that keeps its bits
                data[key] = data.get(key, 0j) + dc * c
    return GrassmannElement._adopt(data)


def free_hamiltonian_apply(space: WienerSpace, f: SupersmoothFunction) -> SupersmoothFunction:
    """Apply the free operator (1/2) e^{ij} d_i d_j to a function of m variables."""
    if f.dimension != space.m:
        raise ValueError("function dimension must equal the space dimension")
    out: dict[MultiIndex, complex] = {}
    v, d = f.variables, derivative_element
    for k in range(0, space.m, 2):  # e^{ij} is +1 on (v[k], v[k+1]) and -1 on the reverse
        _add_into(out, d(d(f.body, v[k + 1]), v[k])._terms, 0.5)
        _add_into(out, d(d(f.body, v[k]), v[k + 1])._terms, -0.5)
    return SupersmoothFunction(GrassmannElement._wrap(out), f.variables)


def heat_equation_residual(space: WienerSpace, variables: Sequence[GeneratorId], t: float) -> float:
    """Norm of (d/dt p + H0 p) with d/dt by central finite difference."""
    h = 1e-5
    if t <= h:
        raise ValueError("need t > h for the central difference")
    plus = heat_kernel(variables, t + h).body
    minus = heat_kernel(variables, t - h).body
    dt = (plus - minus) / (2 * h)
    action = free_hamiltonian_apply(space, heat_kernel(variables, t)).body
    return (dt + action).norm()


class BrownianMotion:
    """Anticommuting Brownian motion realized on one partition.

    Each slice r carries m fresh increment generators; the path value at
    node r is the sum of the first r increments.  An expectation is one
    pass over the functional's terms: a term meets the slices it touches,
    last slice first, and takes from each slice's pairing table (the
    ``SliceDensity`` that ``_slice_density`` gives, built once per space and
    width and moved to the slice once per instance) one factor, or is
    dropped.  The slice that holds a term's highest remaining bit is looked
    up by that bit's length, under which each of the slice's generator bits
    files the slice.  That equals integrating each term alone with
    ``_integrate_slice`` and summing, bit for bit.  ``expect_product``
    feeds the pass only the terms of a product it keeps.
    """

    def __init__(self, space: WienerSpace, partition: Partition):
        self.space = space
        self.partition = partition
        self._densities: dict[int, SliceDensity] = {}
        self._by_top: dict[int, SliceDensity] = {}

    def increments(self, r: int) -> tuple[GrassmannElement, ...]:
        if not 1 <= r <= self.partition.steps:
            raise ValueError(f"slice index {r} out of range")
        return self.space.increment_elements(r)

    def at_node(self, r: int) -> tuple[GrassmannElement, ...]:
        """Path components beta^a at node r; node 0 is identically zero."""
        if not 0 <= r <= self.partition.steps:
            raise ValueError(f"node index {r} out of range")
        comps: list[dict[MultiIndex, complex]] = [{} for _ in range(self.space.m)]
        for q in range(1, r + 1):
            for comp, b in zip(comps, self.space._increment_bits(q)):
                comp[b] = 1 + 0j  # what ``ZERO + inc_1 + ... + inc_r`` holds: each bit occurs once
        return tuple(GrassmannElement._wrap(comp) for comp in comps)

    def at_time(self, t: float) -> tuple[GrassmannElement, ...]:
        return self.at_node(self.partition.node_index(t))

    def expect(self, functional: GrassmannElement):
        """Expectation of a functional of the increments.

        Free generators of other families survive as parameters, in which
        case the result is returned as an element rather than a complex
        number.  Increment generators must belong to declared slices and be
        components 1..m of the space; a ValueError refuses any other.
        """
        value = self._expect_sequential(functional)
        return value.scalar_value() if value.is_scalar() else value

    def expect_element(self, functional: GrassmannElement) -> GrassmannElement:
        return self._expect_sequential(functional)

    def expect_product(self, a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
        """``expect_element(a * b)`` bit for bit, from only the terms of the
        product that the expectation keeps (``algebra._paired_product``).

        Both factors are held to ``expect``'s rule on increment generators,
        even a term whose every product with the other factor vanishes.
        """
        self._check_slices(a._union() | b._union())
        return self.expect_element(GrassmannElement._adopt(_paired_product(a._terms, b._terms)))

    def _check_slices(self, union: MultiIndex) -> list[int]:
        """The increment slices of the multi-index ``union``, all declared
        and holding only the space's m components."""
        slices = []
        for slice_index, components in _increment_blocks(union):
            if not 1 <= slice_index <= self.partition.steps:
                raise ValueError(f"functional references undeclared slice {slice_index}")
            if components >> self.space.m:
                raise ValueError(
                    f"functional references an increment component above m = {self.space.m} on slice {slice_index}"
                )
            slices.append(slice_index)
        return slices

    def _density(self, r: int) -> SliceDensity:
        """Slice r's density, once per instance: the space's density of the
        slice width (``WienerSpace._width_density``) moved from slice 0 to
        slice r, and filed under the bit length of each of the slice's
        generator bits."""
        density = self._densities.get(r)
        if density is None:
            bits = self.space._increment_bits(r)
            base = self.space._width_density(self.partition.delta(r))
            shift = bits[0].bit_length() - (base.bits & -base.bits).bit_length()
            table = {need << shift: c for need, c in base.table.items()}
            density = self._densities[r] = SliceDensity(base.bits << shift, table)
            for b in bits:
                self._by_top[b.bit_length()] = density
        return density

    def _expect_sequential(self, functional: GrassmannElement) -> GrassmannElement:
        """The one pass of the class docstring; pruned once, at the end."""
        slice_bits = 0
        for r in self._check_slices(functional._union()):
            slice_bits |= self._density(r).bits
        # A key's length is that of its highest bit, which lies in its last
        # slice: increment bits follow the canonical order.
        by_top = self._by_top
        data: dict[MultiIndex, complex] = {}
        for mi, c in functional.items():
            rest = mi & slice_bits
            while rest:  # the term's slices, last first
                block, table = by_top[rest.bit_length()]
                bits = mi & block
                dc = table.get(bits)
                if dc is None:
                    break  # some slice variable is left unpaired: the integral is zero
                c = dc * c
                if not abs(c) >= PRUNE:
                    break
                mi ^= bits
                rest ^= bits
            else:
                data[mi] = data.get(mi, 0j) + c
        return GrassmannElement._adopt(data)

    def _expect_joint(self, functional: GrassmannElement) -> GrassmannElement:
        """All slices live at once: the oracle of the sequential engine."""
        self._check_slices(functional._union())
        n = self.partition.steps
        if n > JOINT_CAP:
            raise ValueError(f"joint mode caps at {JOINT_CAP} slices, got {n}")
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
