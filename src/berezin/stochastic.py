"""Partition-level stochastic calculus for anticommuting Brownian motion.

Time integrals and Ito integrals are left-endpoint sums on a fixed grid;
increments always multiply integrands from the left.  Limits are taken by
refinement studies rather than inside the library: every object here is an
exact finite-grid quantity, and the convergence report is the caller's job
(``verify.refinement`` judges such a study and extrapolates its numbers).

SDEs are solved by ``solve_sde``, one forward Euler sweep: the
left-endpoint scheme is explicit, so node r follows from node r-1 and the
sweep is the unique grid solution.  It returns the ``ItoProcess`` of the
sweep, which keeps the drift and diffusion values each step evaluated, so
the Ito residuals read them rather than evaluate them again.  ``picard_solve``
iterates the same step map and stays for the checks that are about the
iteration itself (uniqueness from two seeds, moment-gap diagnostics,
stationarity).  The step itself, ``_euler_step``, also gives
``feynman_kac.fk_evolve`` the noiseless part u = x + dt A(x) of its slice
map, whose Gaussian noise it integrates out in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .algebra import (
    Family,
    GrassmannElement,
    MultiIndex,
    Parity,
    ZERO,
    _add_into,
    _distance,
    _odd_images,
    _paired_product,
    _substitute_odd,
)
from .calculus import SupersmoothFunction
from .wiener import BrownianMotion, Partition, RandomVariable, WienerSpace, mu_distance

__all__ = [
    "AdaptedProcess",
    "AdaptedMatrix",
    "time_integral",
    "ito_integral",
    "brownian_process",
    "isometry_residual",
    "SdeSpec",
    "PicardResult",
    "solve_sde",
    "picard_solve",
    "MixedPolynomial",
    "ItoProcess",
    "ito_formula_residual",
    "integration_by_parts_residual",
]


def _as_element(value) -> GrassmannElement:
    if isinstance(value, GrassmannElement):
        return value
    return GrassmannElement.from_scalar(value)


@dataclass(frozen=True)
class AdaptedProcess:
    """Per-node component values on one grid, depending only on the past.

    ``values[r]`` holds the k components at node r as elements over the
    increment generators of slices 1..r (plus any free parameters).
    """

    space: WienerSpace
    partition: Partition
    values: tuple[tuple[GrassmannElement, ...], ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.partition.steps + 1:
            raise ValueError("one value tuple per partition node is required")
        widths = {len(v) for v in self.values}
        if len(widths) != 1:
            raise ValueError("all nodes must carry the same number of components")

    @property
    def dimension(self) -> int:
        return len(self.values[0])

    def at_node(self, r: int) -> tuple[GrassmannElement, ...]:
        return self.values[r]

    @property
    def final(self) -> tuple[GrassmannElement, ...]:
        return self.values[-1]

    def validate_adapted(self) -> None:
        """Raise if any node value references an increment slice beyond it."""
        for r, comps in enumerate(self.values):
            for x in comps:
                for family, slice_index in x.blocks():
                    if family == int(Family.INCREMENT) and slice_index > r:
                        raise ValueError(
                            f"node {r} references increment slice {slice_index}"
                        )

    def component_parities(self) -> tuple[Parity, ...]:
        """Definite parity of each component across all nodes."""
        out = []
        for i in range(self.dimension):
            parities = {
                self.values[r][i].parity()
                for r in range(len(self.values))
                if not self.values[r][i].is_zero()
            }
            if len(parities) > 1 or Parity.MIXED in parities:
                raise ValueError(f"component {i} has indefinite parity")
            out.append(parities.pop() if parities else Parity.EVEN)
        return tuple(out)


@dataclass(frozen=True)
class AdaptedMatrix:
    """A k x m matrix of adapted values per node (Ito integrands)."""

    space: WienerSpace
    partition: Partition
    values: tuple[tuple[tuple[GrassmannElement, ...], ...], ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.partition.steps + 1:
            raise ValueError("one matrix per partition node is required")
        if len({len(v) for v in self.values}) != 1:
            raise ValueError("all nodes must carry the same number of rows")
        if any(len(row) != self.space.m for v in self.values for row in v):
            raise ValueError(f"every row must have the Brownian dimension {self.space.m}")

    @property
    def rows(self) -> int:
        return len(self.values[0])

    @classmethod
    def constant(
        cls, space: WienerSpace, partition: Partition, matrix: Sequence[Sequence]
    ) -> "AdaptedMatrix":
        fixed = tuple(tuple(_as_element(x) for x in row) for row in matrix)
        return cls(space, partition, tuple(fixed for _ in range(partition.steps + 1)))


def time_integral(x: AdaptedProcess) -> AdaptedProcess:
    """Left-endpoint time integral, node r value sum_{q<=r} dt_q * x_{q-1}."""
    acc = tuple(ZERO for _ in range(x.dimension))
    out = [acc]
    for r in range(1, x.partition.steps + 1):
        dt = x.partition.delta(r)
        acc = tuple(_axpy(a, dt, v) for a, v in zip(acc, x.values[r - 1]))
        out.append(acc)
    return AdaptedProcess(x.space, x.partition, tuple(out))


def _axpy(x: GrassmannElement, factor: float, a: GrassmannElement, *more: GrassmannElement) -> GrassmannElement:
    """``x + factor * a + more[0] + ...``, summed in place by ``_add_into``."""
    data = dict(x._terms)
    _add_into(data, a._terms, factor)
    for n in more:
        _add_into(data, n._terms)
    return GrassmannElement._wrap(data)


def ito_integral(c: AdaptedMatrix) -> AdaptedProcess:
    """Ito integral of a k x m integrand, increments multiplying from the left."""
    space, partition = c.space, c.partition
    acc = tuple(ZERO for _ in range(c.rows))
    out = [acc]
    for r in range(1, partition.steps + 1):
        increments = space.increment_elements(r)
        prev = c.values[r - 1]
        acc = tuple(a + space.noise(increments, row) for a, row in zip(acc, prev))
        out.append(acc)
    return AdaptedProcess(space, partition, tuple(out))


def brownian_process(space: WienerSpace, partition: Partition) -> AdaptedProcess:
    identity = [[1.0 if a == b else 0.0 for b in range(space.m)] for a in range(space.m)]
    return ito_integral(AdaptedMatrix.constant(space, partition, identity))


def isometry_residual(c: AdaptedMatrix, i: int, j: int) -> float:
    """Gap in the second-moment identity for two rows of an Ito integrand.

    E[Z_i Z_j] for Z = integral of dbeta * C is matched against the time
    sum of E[sign_i * e^{ba} C_{i,a} C_{j,b}], where sign_i is -1 for odd
    Z_i.  The identity holds exactly on every fixed grid, not only in the
    mesh limit, so the return value is pure floating-point noise.
    """
    return _isometry_gap(c, ito_integral(c), BrownianMotion(c.space, c.partition), i, j)


def _isometry_gap(c: AdaptedMatrix, z: AdaptedProcess, motion: BrownianMotion, i: int, j: int) -> float:
    """``isometry_residual`` of ``c`` given its integral ``z = ito_integral(c)``
    and the motion of ``c``'s space and partition, which the caller may share."""
    space, partition = c.space, c.partition
    z_i, z_j = z.final[i], z.final[j]
    parities = (z_i.parity(), z_j.parity())
    if Parity.MIXED in parities:
        raise ValueError("isometry requires integrals of definite parity")
    sign = -1.0 if z_i.parity() is Parity.ODD else 1.0

    lhs = motion.expect_product(z_i, z_j)
    rhs: dict[MultiIndex, complex] = {}
    for r in range(1, partition.steps + 1):
        prev = c.values[r - 1]
        step = space.contract(prev[i], prev[j])
        _add_into(rhs, motion.expect_element(step)._terms, partition.delta(r) * sign)
    return (lhs - GrassmannElement._wrap(rhs)).norm()


# -- stochastic differential equations ---------------------------------


@dataclass(frozen=True)
class SdeSpec:
    """Coefficients of d(zeta_i) = dt * A_i(zeta) + dbeta^a * C_{i,a}(zeta).

    Drift components are odd functions, diffusion entries even, and the
    start values odd, so every solution component keeps odd parity.  All
    coefficients are functions of the one variable tuple of ``drift[0]``,
    one variable per component.
    """

    drift: tuple[SupersmoothFunction, ...]
    diffusion: tuple[tuple[SupersmoothFunction, ...], ...]
    initial: tuple[GrassmannElement, ...]

    def __post_init__(self) -> None:
        n = len(self.drift)
        if len(self.diffusion) != n or len(self.initial) != n:
            raise ValueError("drift, diffusion, and initial data must agree in dimension")
        widths = {len(row) for row in self.diffusion}
        if len(widths) != 1:
            raise ValueError("diffusion rows must have equal width")
        variables = self.drift[0].variables
        if len(variables) != n:
            raise ValueError(f"the coefficients need {n} variables, got {len(variables)}")
        if any(f.variables != variables for f in (*self.drift, *(c for row in self.diffusion for c in row))):
            raise ValueError("drift and diffusion must share one variable tuple")
        if not all(a.body.has_parity(Parity.ODD) for a in self.drift):
            raise ValueError("drift components must be odd")
        if not all(cfun.body.has_parity(Parity.EVEN) for row in self.diffusion for cfun in row):
            raise ValueError("diffusion entries must be even")
        if not all(x.has_parity(Parity.ODD) for x in self.initial):
            raise ValueError("initial values must be odd")

    @property
    def dimension(self) -> int:
        return len(self.drift)

    @property
    def brownian_dimension(self) -> int:
        return len(self.diffusion[0])


@dataclass(frozen=True)
class PicardResult:
    process: AdaptedProcess
    differences: tuple[float, ...]
    stationary_depth: int | None
    mu_diagnostics: tuple[float, ...] = field(default=())


Node = Sequence[GrassmannElement]  # the components of a process at one node


def _coefficients_at(spec: SdeSpec, node: Node) -> tuple[Node, Sequence[Node]]:
    """Drift and diffusion values at one node, whose width is checked and
    whose components are checked odd once: every coefficient is substituted
    through the one image map of the spec's variables."""
    variables = spec.drift[0].variables
    if len(node) != len(variables):
        raise ValueError(f"expected {len(variables)} values, got {len(node)}")
    images = _odd_images(dict(zip(variables, node)))

    def at(f: SupersmoothFunction) -> GrassmannElement:
        return _substitute_odd(f.body, images)

    return tuple(at(a) for a in spec.drift), tuple(tuple(at(c) for c in row) for row in spec.diffusion)


def _euler_step(base: Node, dt: float, drift_vals: Node, noise: Node) -> tuple[GrassmannElement, ...]:
    """The left-endpoint Euler step base + dt * A + noise, componentwise, for
    drift values A and noise sum_a dbeta^a C_{., a} already evaluated."""
    return tuple(_axpy(x, dt, a, n) for x, a, n in zip(base, drift_vals, noise))


def _euler_node(
    space: WienerSpace, partition: Partition, r: int, base: Node, coefficients: tuple[Node, Sequence[Node]]
) -> tuple[GrassmannElement, ...]:
    """Node r of the step map: ``base`` advanced by the step whose drift and
    diffusion values ``coefficients`` are evaluated at node r-1.  The sweep
    passes node r-1 as ``base`` too, a Picard pass its new iterate."""
    drift_vals, diffusion_vals = coefficients
    increments = space.increment_elements(r)
    noise = tuple(space.noise(increments, row) for row in diffusion_vals)
    return _euler_step(base, partition.delta(r), drift_vals, noise)


def solve_sde(spec: SdeSpec, space: WienerSpace, partition: Partition) -> ItoProcess:
    """The grid solution of the SDE by one forward Euler sweep.

    Node 0 is ``spec.initial`` and node r is node r-1 advanced by the
    left-endpoint step, whose coefficients depend on node r-1 only.  This
    is the exact fixed point of the integral map that ``picard_solve``
    iterates.  The returned process keeps, for slice r, the drift and
    diffusion values the step evaluated at node r-1.
    """
    if spec.brownian_dimension != space.m:
        raise ValueError("diffusion width must match the Brownian dimension")
    nodes, drift, diffusion = [tuple(spec.initial)], [], []
    for r in range(1, partition.steps + 1):
        coefficients = _coefficients_at(spec, nodes[-1])
        nodes.append(_euler_node(space, partition, r, nodes[-1], coefficients))
        drift.append(coefficients[0])
        diffusion.append(coefficients[1])
    return ItoProcess(space, partition, tuple(nodes), tuple(drift), tuple(diffusion))


def picard_solve(
    spec: SdeSpec,
    space: WienerSpace,
    partition: Partition,
    initial_guess: Sequence[Sequence[GrassmannElement]] | None = None,
    compute_mu: bool = False,
) -> PicardResult:
    """Iterate the integral map of the SDE towards its grid fixed point.

    Each pass rebuilds the process from the previous iterate's integrands.
    ``differences`` records the summed coefficient movement of each pass.
    The loop stops at the first pass whose movement is 0.0, and after
    ``steps + 2`` passes in any case; with polynomial coefficients the
    movement reaches 0.0 once the pass count passes the reachable depth,
    at most the number of grid steps, and the last iterate is then the
    exact grid fixed point that ``solve_sde`` computes.  ``compute_mu``
    adds the final-node moment gap per pass.
    """
    if spec.brownian_dimension != space.m:
        raise ValueError("diffusion width must match the Brownian dimension")
    steps = partition.steps

    if initial_guess is None:
        current = [tuple(spec.initial) for _ in range(steps + 1)]
    else:
        current = [tuple(node) for node in initial_guess]
        if len(current) != steps + 1:
            raise ValueError("initial guess must cover every node")

    differences: list[float] = []
    mu_list: list[float] = []
    stationary_depth: int | None = None
    previous_rv: RandomVariable | None = None
    if compute_mu:
        motion = BrownianMotion(space, partition)  # one motion, and its slice densities, for every pass
        previous_rv = RandomVariable(motion, AdaptedProcess(space, partition, tuple(current)).final)

    for k in range(1, steps + 3):
        nxt: list[tuple[GrassmannElement, ...]] = [tuple(spec.initial)]
        for r in range(1, steps + 1):
            nxt.append(_euler_node(space, partition, r, nxt[r - 1], _coefficients_at(spec, current[r - 1])))
        moved = sum(_distance(x, y) for old, new in zip(current, nxt) for x, y in zip(old, new))
        differences.append(moved)
        current = nxt
        if compute_mu:
            rv = RandomVariable(motion, current[-1])
            mu_list.append(mu_distance(rv, previous_rv))
            previous_rv = rv
        if moved == 0.0:
            stationary_depth = k
            break

    process = AdaptedProcess(space, partition, tuple(current))
    return PicardResult(process, tuple(differences), stationary_depth, tuple(mu_list))


# -- the change-of-variables formula ------------------------------------


@dataclass(frozen=True)
class MixedPolynomial:
    """Polynomial in p commuting and q anticommuting formal variables.

    Terms map ((even exponents), (ascending odd indices)) to coefficients;
    odd indices are 1-based.  Evaluation multiplies the even part first and
    the odd factors in ascending order.
    """

    even_count: int
    odd_count: int
    terms: Mapping[tuple[tuple[int, ...], tuple[int, ...]], complex]

    def __call__(
        self, evens: Sequence[GrassmannElement], odds: Sequence[GrassmannElement]
    ) -> GrassmannElement:
        self._check_arguments(evens, odds)
        return self._evaluate(evens, odds)

    def _check_arguments(self, evens: Sequence[GrassmannElement], odds: Sequence[GrassmannElement]) -> None:
        if len(evens) != self.even_count or len(odds) != self.odd_count:
            raise ValueError("argument counts must match the variable counts")
        if not all(x.has_parity(Parity.EVEN) for x in evens):
            raise ValueError("even slots take even elements")
        if not all(x.has_parity(Parity.ODD) for x in odds):
            raise ValueError("odd slots take odd elements")

    def _evaluate(self, evens: Sequence[GrassmannElement], odds: Sequence[GrassmannElement]) -> GrassmannElement:
        """``__call__`` on arguments ``_check_arguments`` has accepted."""
        total: dict[MultiIndex, complex] = {}
        for (exps, odd_indices), coeff in self.terms.items():
            term = GrassmannElement.from_scalar(coeff)
            for x, e in zip(evens, exps):
                for _ in range(e):
                    term = term * x
            for j in odd_indices:
                term = term * odds[j - 1]
            _add_into(total, term._terms)
        return GrassmannElement._wrap(total)

    def derivative_even(self, i: int) -> "MixedPolynomial":
        """Ordinary partial derivative in the i-th (1-based) even slot."""
        data: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = {}
        for (exps, odd_indices), coeff in self.terms.items():
            e = exps[i - 1]
            if e == 0:
                continue
            reduced = exps[: i - 1] + (e - 1,) + exps[i:]
            key = (reduced, odd_indices)
            data[key] = data.get(key, 0j) + e * coeff
        return MixedPolynomial(self.even_count, self.odd_count, data)

    def derivative_odd(self, j: int) -> "MixedPolynomial":
        """Left derivative in the j-th (1-based) odd slot."""
        data: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = {}
        for (exps, odd_indices), coeff in self.terms.items():
            if j not in odd_indices:
                continue
            position = odd_indices.index(j)
            sign = -1 if position & 1 else 1
            key = (exps, odd_indices[:position] + odd_indices[position + 1 :])
            data[key] = data.get(key, 0j) + sign * coeff
        return MixedPolynomial(self.even_count, self.odd_count, data)

    def derivative(self, i: int) -> "MixedPolynomial":
        """Derivative in the flat 1-based slot order (evens first, odds after)."""
        if i <= self.even_count:
            return self.derivative_even(i)
        return self.derivative_odd(i - self.even_count)


@dataclass(frozen=True)
class ItoProcess(AdaptedProcess):
    """An adapted process with its integrand snapshots.

    ``values[r]`` are the k component values at node r; ``drift[r]`` and
    ``diffusion[r]`` are the left-endpoint integrand values used on slice
    r+1.  The first ``even_count`` components are even, the rest odd.
    """

    drift: tuple[tuple[GrassmannElement, ...], ...]
    diffusion: tuple[tuple[tuple[GrassmannElement, ...], ...], ...]
    even_count: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.drift) != self.partition.steps or len(self.diffusion) != self.partition.steps:
            raise ValueError("one drift and one diffusion value per slice are required")

    def parity_signs(self) -> tuple[float, ...]:
        return tuple(
            1.0 if i < self.even_count else -1.0 for i in range(self.dimension)
        )

    @classmethod
    def deterministic(
        cls,
        space: WienerSpace,
        partition: Partition,
        value_fn: Callable[[float], complex],
        slope_fn: Callable[[float], complex],
    ) -> "ItoProcess":
        """A single even component following an ordinary time integrand."""
        values = tuple(
            (GrassmannElement.from_scalar(value_fn(t)),) for t in partition.nodes
        )
        drift = tuple(
            (GrassmannElement.from_scalar(slope_fn(t)),) for t in partition.nodes[:-1]
        )
        zeros = tuple(ZERO for _ in range(space.m))
        diffusion = tuple((zeros,) for _ in range(partition.steps))
        return cls(space, partition, values, drift, diffusion, 1)

    @staticmethod
    def concat(first: "ItoProcess", second: "ItoProcess") -> "ItoProcess":
        """Join components, keeping all even components ahead of odd ones.
        Both processes must live on one grid of one Brownian dimension."""
        if second.even_count:
            raise ValueError("append even components on the left")
        if first.space.m != second.space.m or first.partition != second.partition:
            raise ValueError("joined processes must share the Brownian dimension and the partition")
        values = tuple(a + b for a, b in zip(first.values, second.values))
        drift = tuple(a + b for a, b in zip(first.drift, second.drift))
        diffusion = tuple(a + b for a, b in zip(first.diffusion, second.diffusion))
        return ItoProcess(first.space, first.partition, values, drift, diffusion, first.even_count)


def ito_formula_residual(f: MixedPolynomial, x: ItoProcess) -> float:
    """Moment gap between F(X_t) and its change-of-variables expansion.

    The expansion accumulates, per slice, the left-multiplied component
    increments against first derivatives of F plus the slice-width-weighted
    quadratic correction (1/2) sign_i e^{ab} C_{i,b} C_{j,a} d_j d_i F, all
    evaluated at the slice's left endpoint.  The gap vanishes linearly with
    the mesh.  The increment terms are formed by ``_paired_product``, which
    keeps exactly the terms the expectation keeps, so the gap is the one of
    the full expansion bit for bit.
    """
    k = x.dimension
    if f.even_count != x.even_count or f.even_count + f.odd_count != k:
        raise ValueError("polynomial shape must match the process components")
    space, partition = x.space, x.partition
    p = x.even_count
    signs = x.parity_signs()

    def split(node: Sequence[GrassmannElement]):
        return node[:p], node[p:]

    lhs = f(*split(x.values[-1]))
    rhs = dict(f(*split(x.values[0]))._terms)
    first = [f.derivative(i + 1) for i in range(k)]
    second = [[first[i].derivative(j + 1) for j in range(k)] for i in range(k)]

    for r in range(1, partition.steps + 1):
        dt = partition.delta(r)
        increments = space.increment_elements(r)
        evens, odds = split(x.values[r - 1])
        f._check_arguments(evens, odds)  # once for F and all its derivatives
        for i in range(k):
            df = first[i]._evaluate(evens, odds)
            if df.is_zero():
                continue
            dx = dt * x.drift[r - 1][i] + space.noise(increments, x.diffusion[r - 1][i])
            # only the product terms whose increments pair up survive the expectation
            _add_into(rhs, GrassmannElement._adopt(_paired_product(dx._terms, df._terms))._terms)
        for i in range(k):
            for j in range(k):
                ddf = second[i][j]._evaluate(evens, odds)  # d_j d_i F, the d_i acting first
                if ddf.is_zero():
                    continue
                contraction = space.contract(x.diffusion[r - 1][i], x.diffusion[r - 1][j])
                _add_into(rhs, (0.5 * dt * signs[i] * contraction * ddf)._terms)

    motion = BrownianMotion(space, partition)
    return (motion.expect_element(lhs) - motion.expect_element(GrassmannElement._wrap(rhs))).norm()


def integration_by_parts_residual(x: ItoProcess) -> float:
    """Product-rule gap for the first two components of a process.

    Specializes the change-of-variables check to F = X1 * X2; the quadratic
    correction then reduces to the same contraction the second-moment
    identity integrates, which pins its coefficient and sign.
    """
    if x.dimension < 2:
        raise ValueError("need two components")
    if x.even_count == 0:
        f = MixedPolynomial(0, 2, {((), (1, 2)): 1.0})
    elif x.even_count == 1:
        f = MixedPolynomial(1, 1, {((1,), (1,)): 1.0})
    else:
        f = MixedPolynomial(2, 0, {((1, 1), ()): 1.0})
    k = f.even_count + f.odd_count
    trimmed = ItoProcess(
        x.space,
        x.partition,
        tuple(v[:k] for v in x.values),
        tuple(d[:k] for d in x.drift),
        tuple(c[:k] for c in x.diffusion),
        x.even_count if x.even_count < 2 else 2,
    )
    return ito_formula_residual(f, trimmed)
