"""Feynman-Kac evaluation of even second-order ghost Hamiltonians.

A Hamiltonian H = (1/2) g^{kj} d_j d_k + i alpha^j d_j + v acts on
functions of n anticommuting state variables, with g^{kj} the pairing
contraction e^{ab} c^k_b c^j_a of even diffusion fields.  Three routes to
exp(-H t) live here and check each other:

* ``semigroup_oracle``: the dense matrix exponential on the monomial
  basis, the arbiter of truth;
* ``fk_evolve``: the probabilistic route, an Euler step per time slice
  with the potential accumulated as a multiplicative weight, evaluated as
  a one-slice transfer operator so only n + m generators are ever live;
* ``fk_bruteforce``: the same expectation with every slice kept live,
  for small grids, validating the transfer-operator contraction.

Reference closed-form kernels of the bundled example Hamiltonians allow
coefficientwise comparison against the oracle.  The quartic example's
reference kernel is kept verbatim; it disagrees with the operator
exponential in the top-monomial slot, and callers are expected to report
that gap rather than patch it (see ``verify.feynman_kac_suite``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    GeneratorId,
    GrassmannElement,
    ONE,
    Parity,
    ZERO,
    eta,
    gen,
    grassmann_exp,
    multi_index,
    scalar,
    substitute,
)
from .calculus import SupersmoothFunction, berezin_integrate, derivative_element, grassmann_delta
from .wiener import BrownianMotion, Partition, WienerSpace, heat_kernel, heat_kernel_difference

__all__ = [
    "HamiltonianSpec",
    "OperatorMatrix",
    "state_variables",
    "kernel_variables",
    "apply_hamiltonian",
    "basis_elements",
    "operator_matrix",
    "hamiltonian_matrix",
    "semigroup_oracle",
    "matrix_apply",
    "element_coordinates",
    "element_from_coordinates",
    "fk_evolve",
    "fk_operator",
    "fk_bruteforce",
    "kernel_extract",
    "oracle_kernel",
    "closed_form_kernel",
    "example_hamiltonian",
    "EXAMPLE_NAMES",
]


def state_variables(n: int) -> tuple[GeneratorId, ...]:
    """The canonical variables carrying functions the operators act on."""
    return tuple(eta(j) for j in range(1, n + 1))


def kernel_variables(n: int) -> tuple[GeneratorId, ...]:
    """A second, disjoint variable set for the integrated kernel argument."""
    return tuple(eta(j, set_index=1) for j in range(1, n + 1))


@dataclass(frozen=True)
class HamiltonianSpec:
    """Data of an even second-order operator on n anticommuting variables.

    ``potential`` (even), ``drift_fields`` (n odd entries), and
    ``diffusion_fields`` (n x m even entries) are elements over
    ``variables``.  The second-order coefficient g^{kj} is contracted from
    the diffusion fields on demand and never stored.
    """

    n: int
    m: int
    potential: GrassmannElement
    drift_fields: tuple[GrassmannElement, ...]
    diffusion_fields: tuple[tuple[GrassmannElement, ...], ...]
    variables: tuple[GeneratorId, ...]

    def __post_init__(self) -> None:
        if self.m < 2 or self.m % 2:
            raise ValueError("the Brownian dimension m must be even and positive")
        if len(self.variables) != self.n:
            raise ValueError("need one state variable per dimension")
        if len(self.drift_fields) != self.n or len(self.diffusion_fields) != self.n:
            raise ValueError("drift and diffusion must have n components")
        if any(len(row) != self.m for row in self.diffusion_fields):
            raise ValueError("diffusion rows must have m entries")
        if not self.potential.is_zero() and self.potential.parity() is not Parity.EVEN:
            raise ValueError("the potential must be even")
        for a in self.drift_fields:
            if not a.is_zero() and a.parity() is not Parity.ODD:
                raise ValueError("drift fields must be odd")
        for row in self.diffusion_fields:
            for c in row:
                if not c.is_zero() and c.parity() is not Parity.EVEN:
                    raise ValueError("diffusion fields must be even")

    def second_order_coefficient(self, k: int, j: int, space: WienerSpace) -> GrassmannElement:
        """g^{kj} = e^{ab} c^k_b c^j_a, 0-based k and j."""
        return space.contract(self.diffusion_fields[k], self.diffusion_fields[j])


def apply_hamiltonian(h: HamiltonianSpec, f: GrassmannElement) -> GrassmannElement:
    """Symbolic action H f, derivatives applied rightmost first."""
    space = WienerSpace(h.m)
    out = h.potential * f
    for j in range(h.n):
        df = derivative_element(f, h.variables[j])
        if not df.is_zero():
            out = out + 1j * (h.drift_fields[j] * df)
    for k in range(h.n):
        dk = derivative_element(f, h.variables[k])
        if dk.is_zero():
            continue
        for j in range(h.n):
            ddf = derivative_element(dk, h.variables[j])
            if ddf.is_zero():
                continue
            g = h.second_order_coefficient(k, j, space)
            if not g.is_zero():
                out = out + 0.5 * (g * ddf)
    return out


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix of an operator on the monomial basis.

    ``basis`` lists index tuples into ``variables`` ordered by monomial
    length, then lexicographically; columns hold images of basis monomials.
    """

    matrix: np.ndarray
    variables: tuple[GeneratorId, ...]
    basis: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def monomial_basis(n: int) -> tuple[tuple[int, ...], ...]:
    subsets = [
        tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)
    ]
    subsets.sort(key=lambda s: (len(s), s))
    return tuple(subsets)


def basis_elements(variables: Sequence[GeneratorId]) -> list[GrassmannElement]:
    """The monomials of ``variables`` in ``monomial_basis`` order."""
    return [
        GrassmannElement.from_monomial(tuple(variables[i] for i in subset))
        for subset in monomial_basis(len(variables))
    ]


def element_coordinates(
    f: GrassmannElement, variables: Sequence[GeneratorId], basis: Sequence[tuple[int, ...]]
) -> np.ndarray:
    lookup = {
        multi_index(tuple(variables[i] for i in subset)): pos
        for pos, subset in enumerate(basis)
    }
    vec = np.zeros(len(basis), dtype=complex)
    for mi, coeff in f.items():
        pos = lookup.get(mi)
        if pos is None:
            raise ValueError("element does not lie in the span of the basis")
        vec[pos] = coeff
    return vec


def element_from_coordinates(
    vec: np.ndarray, variables: Sequence[GeneratorId], basis: Sequence[tuple[int, ...]]
) -> GrassmannElement:
    terms = {}
    for pos, subset in enumerate(basis):
        coeff = complex(vec[pos])
        if coeff != 0:
            terms[multi_index(tuple(variables[i] for i in subset))] = coeff
    return GrassmannElement(terms)


def operator_matrix(
    apply: Callable[[GrassmannElement], GrassmannElement], variables: Sequence[GeneratorId]
) -> OperatorMatrix:
    """Matrix of a linear map on functions of ``variables``, one column per basis monomial."""
    variables = tuple(variables)
    basis = monomial_basis(len(variables))
    matrix = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, f in enumerate(basis_elements(variables)):
        matrix[:, col] = element_coordinates(apply(f), variables, basis)
    return OperatorMatrix(matrix, variables, basis)


def hamiltonian_matrix(h: HamiltonianSpec) -> OperatorMatrix:
    return operator_matrix(lambda f: apply_hamiltonian(h, f), h.variables)


def _expm(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with a truncated series on the scaled matrix."""
    dim = a.shape[0]
    one_norm = float(np.abs(a).sum(axis=0).max()) if dim else 0.0
    squarings = 0
    if one_norm > 0.5:
        squarings = int(np.ceil(np.log2(one_norm / 0.5)))
    scaled = a / (2.0**squarings)
    out = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, 64):
        term = term @ scaled / k
        out = out + term
        if np.abs(term).sum() <= 1e-18 * max(1.0, np.abs(out).sum()):
            break
    for _ in range(squarings):
        out = out @ out
    return out


def semigroup_oracle(op: OperatorMatrix, t: float) -> OperatorMatrix:
    """Ground truth for exp(-t H), relative accuracy ~1e-12 at these sizes."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return OperatorMatrix(_expm(-t * op.matrix), op.variables, op.basis)


def matrix_apply(op: OperatorMatrix, f: GrassmannElement) -> GrassmannElement:
    vec = element_coordinates(f, op.variables, op.basis)
    return element_from_coordinates(op.matrix @ vec, op.variables, op.basis)


# -- the probabilistic route -------------------------------------------


def _euler_state(
    current: Sequence[GrassmannElement],
    drift_vals: Sequence[GrassmannElement],
    diffusion_vals: Sequence[Sequence[GrassmannElement]],
    increments: Sequence[GrassmannElement],
    dt: float,
) -> tuple[GrassmannElement, ...]:
    return tuple(
        x - (1j * dt) * a + WienerSpace.noise(increments, row)
        for x, a, row in zip(current, drift_vals, diffusion_vals)
    )


def fk_evolve(h: HamiltonianSpec, f: GrassmannElement, partition: Partition) -> GrassmannElement:
    """Path-expectation estimate of exp(-H t) f as a function of the start point.

    One Euler step per slice: the state moves by -i dt alpha + dbeta c,
    the potential contributes a left-endpoint weight exp(-dt v), and the
    slice increments are integrated out immediately against their density,
    so the cost is linear in the number of slices.  Exact in the mesh when
    drift and potential vanish; first-order accurate otherwise.
    """
    space = WienerSpace(h.m)
    ids = space.increment_ids(1)  # one scratch slice, integrated out per step
    increments = [gen(g) for g in ids]
    symbols = [gen(v) for v in h.variables]
    current = f
    for r in range(partition.steps, 0, -1):
        dt = partition.delta(r)
        stepped = _euler_state(symbols, h.drift_fields, h.diffusion_fields, increments, dt)
        moved = substitute(current, dict(zip(h.variables, stepped)))
        weight = grassmann_exp(-dt * h.potential)
        density = heat_kernel(ids, dt).body
        current = berezin_integrate(density * (weight * moved), ids)
    return current


def fk_operator(h: HamiltonianSpec, partition: Partition) -> OperatorMatrix:
    """Matrix of the ``fk_evolve`` estimate of exp(-H t) on the monomial basis."""
    return operator_matrix(lambda f: fk_evolve(h, f, partition), h.variables)


def fk_bruteforce(
    h: HamiltonianSpec, f: GrassmannElement, partition: Partition, cap: int = 6
) -> GrassmannElement:
    """The same expectation with all slices live at once (small grids only)."""
    if partition.steps > cap:
        raise ValueError(f"brute-force mode caps at {cap} slices, got {partition.steps}")
    space = WienerSpace(h.m)
    state = tuple(gen(v) for v in h.variables)
    weight = ONE
    for r in range(1, partition.steps + 1):
        dt = partition.delta(r)
        here = dict(zip(h.variables, state))
        weight = weight * grassmann_exp(-dt * substitute(h.potential, here))
        drift_vals = [substitute(a, here) for a in h.drift_fields]
        diffusion_vals = [[substitute(c, here) for c in row] for row in h.diffusion_fields]
        state = _euler_state(state, drift_vals, diffusion_vals, space.increment_elements(r), dt)
    functional = weight * substitute(f, dict(zip(h.variables, state)))
    return BrownianMotion(space, partition).expect_element(functional)


# -- kernels ------------------------------------------------------------


def kernel_extract(
    op: OperatorMatrix, in_variables: Sequence[GeneratorId] | None = None
) -> SupersmoothFunction:
    """The unique kernel K with (U f)(x) = integral of K(x, y) f(y).

    The output argument reuses the operator's own variables; the integrated
    argument gets the fresh set ``in_variables``.  Solved columnwise: the
    contraction against a basis monomial keeps only the complementary
    kernel monomial, up to the reordering sign of complement times
    monomial, which this routine divides back out.
    """
    n = len(op.variables)
    if in_variables is None:
        in_variables = kernel_variables(n)
    in_vars = tuple(in_variables)
    if len(in_vars) != n or set(in_vars) & set(op.variables):
        raise ValueError("integrated variables must be fresh and match the dimension")
    body = ZERO
    for col, subset in enumerate(op.basis):
        complement = tuple(i for i in range(n) if i not in subset)
        comp_mono = GrassmannElement.from_monomial(tuple(in_vars[i] for i in complement))
        sub_mono = GrassmannElement.from_monomial(tuple(in_vars[i] for i in subset))
        sign = (comp_mono * sub_mono).coefficient(in_vars)
        for row, image_subset in enumerate(op.basis):
            u = complex(op.matrix[row, col])
            if u == 0:
                continue
            out_mono = GrassmannElement.from_monomial(
                tuple(op.variables[i] for i in image_subset)
            )
            body = body + (u / sign) * (out_mono * comp_mono)
    return SupersmoothFunction(body, op.variables + in_vars)


def oracle_kernel(
    h: HamiltonianSpec,
    t: float,
    in_variables: Sequence[GeneratorId] | None = None,
) -> SupersmoothFunction:
    """Kernel of exp(-H t) through the matrix-exponential route."""
    u = semigroup_oracle(hamiltonian_matrix(h), t)
    return kernel_extract(u, in_variables)


def closed_form_kernel(
    name: str,
    t: float,
    r: float = 1.0,
    c: float = 1.0,
    b: float = 1.0,
    lam: float = 0.0,
    out_variables: Sequence[GeneratorId] | None = None,
    in_variables: Sequence[GeneratorId] | None = None,
) -> SupersmoothFunction:
    """Reference closed-form kernels of the two-dimensional example Hamiltonians.

    Names: flat, flat_potential (constant potential ``lam``), ou (rate
    ``r``, noise ``c``), oscillator, quartic (coupling ``b``, noise ``c``).
    The first argument set is the output point, the second is integrated.
    The quartic formula is kept in its reference form; it does not match the
    operator exponential in the top slot (see the module docstring).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    out_vars = tuple(out_variables) if out_variables is not None else state_variables(2)
    in_vars = tuple(in_variables) if in_variables is not None else kernel_variables(2)
    if len(out_vars) != 2 or len(in_vars) != 2:
        raise ValueError("closed forms are two-dimensional")
    xi1, xi2 = (gen(v) for v in out_vars)
    et1, et2 = (gen(v) for v in in_vars)
    variables = out_vars + in_vars

    if name == "flat":
        return SupersmoothFunction(
            heat_kernel_difference(in_vars, out_vars, t).body, variables
        )
    if name == "flat_potential":
        flat = heat_kernel_difference(in_vars, out_vars, t).body
        return SupersmoothFunction(np.exp(-lam * t) * flat, variables)
    if name == "ou":
        if r == 0:
            raise ValueError("the rate r must be nonzero")
        decay = np.exp(-r * t)
        body = (
            et1 * et2
            - decay * (xi1 * et2 + et1 * xi2)
            + scalar(c * c / (2 * r) * (1 - decay * decay))
            + (decay * decay) * (xi1 * xi2)
        )
        return SupersmoothFunction(body, variables)
    if name == "oscillator":
        sh, ch = np.sinh(t), np.cosh(t)
        exponent = (ch / sh) * (xi1 * xi2 + et1 * et2) - (1.0 / sh) * (xi1 * et2 + et1 * xi2)
        return SupersmoothFunction(sh * grassmann_exp(exponent), variables)
    if name == "quartic":
        if b == 0:
            raise ValueError("the coupling b must be nonzero")
        delta = grassmann_delta(in_vars, out_vars).body
        body = delta + scalar(c * c / (2 * b) * (np.exp(-2 * b * t) - 1))
        return SupersmoothFunction(body, variables)
    raise ValueError(f"unknown kernel name {name!r}")


EXAMPLE_NAMES = ("flat", "flat_potential", "ou", "oscillator", "quartic")


def example_hamiltonian(
    name: str, r: float = 1.0, c: float = 1.0, b: float = 1.0, lam: float = 0.0
) -> HamiltonianSpec:
    """The worked two-dimensional Hamiltonians, as specs for all three routes.

    The quartic diffusion field carries an explicit factor i: the squared
    field must contract to minus (c^2 + 2b x1 x2) for the second-order
    coefficient of the decaying evolution, which a real field cannot do
    (its square contributes the opposite sign and exponential growth; see
    tests for the one-step computation pinning this down).
    """
    variables = state_variables(2)
    x1, x2 = (gen(v) for v in variables)
    zero = ZERO
    identity = ((scalar(1.0), zero), (zero, scalar(1.0)))

    if name == "flat":
        return HamiltonianSpec(2, 2, zero, (zero, zero), identity, variables)
    if name == "flat_potential":
        return HamiltonianSpec(2, 2, scalar(lam), (zero, zero), identity, variables)
    if name == "ou":
        drift = (-1j * r * x1, -1j * r * x2)
        diffusion = ((scalar(c), zero), (zero, scalar(c)))
        return HamiltonianSpec(2, 2, zero, drift, diffusion, variables)
    if name == "oscillator":
        return HamiltonianSpec(2, 2, -(x1 * x2), (zero, zero), identity, variables)
    if name == "quartic":
        if c == 0:
            raise ValueError("the noise scale c must be nonzero")
        field = 1j * (scalar(c) + (b / c) * (x1 * x2))
        diffusion = ((field, zero), (zero, field))
        return HamiltonianSpec(2, 2, zero, (zero, zero), diffusion, variables)
    raise ValueError(f"unknown Hamiltonian name {name!r}")
