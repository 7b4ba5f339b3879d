"""Feynman-Kac evaluation of even second-order ghost Hamiltonians.

A Hamiltonian H = (1/2) g^{kj} d_j d_k + i alpha^j d_j + v acts on
functions of n anticommuting state variables, with g^{kj} the pairing
contraction e^{ab} c^k_b c^j_a of even diffusion fields.  Its SDE,
d zeta = dt A(zeta) + dbeta^a c_a(zeta) with A = -i alpha, is built once by
``sde_spec``.  Three routes to exp(-H t) live here and check each other:

* ``semigroup_oracle``: the dense matrix exponential on the monomial
  basis, the arbiter of truth;
* ``fk_evolve``: the probabilistic route, one Euler step of the SDE per
  time slice (the step of ``solve_sde``) with the potential accumulated as
  a multiplicative weight, evaluated as a one-slice transfer operator whose
  Gaussian slice integral is taken in closed form, so only the n state
  generators are ever live;
* ``fk_bruteforce``: the forward route, ``solve_sde`` with every slice
  kept live, for small grids, validating the transfer-operator contraction.

Reference closed-form kernels of the bundled example Hamiltonians allow
coefficientwise comparison against the oracle.  The quartic example's
reference kernel is kept verbatim; it disagrees with the operator
exponential in the top-monomial slot, and callers are expected to report
that gap rather than patch it (see ``verify.feynman_kac_suite``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .algebra import (
    Family,
    GeneratorId,
    GrassmannElement,
    MultiIndex,
    ONE,
    Parity,
    ZERO,
    eta,
    gen,
    grassmann_exp,
    multi_index,
    scalar,
    substitute,
    _add_into,
    _odd_images,
    _substitute_odd,
)
from .calculus import SupersmoothFunction, derivative_element, grassmann_delta
from .stochastic import SdeSpec, _euler_step, solve_sde
from .wiener import (
    JOINT_CAP,
    BrownianMotion,
    Partition,
    WienerSpace,
    heat_kernel_difference,
)

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
    "sde_spec",
    "fk_evolve",
    "fk_operator",
    "fk_bruteforce",
    "kernel_extract",
    "oracle_kernel",
    "closed_form_kernel",
    "example_hamiltonian",
    "EXAMPLE_NAMES",
    "ParameterError",
]


class ParameterError(ValueError):
    """A parameter of the worked Hamiltonians outside its domain; ``name`` is
    its keyword (``t``, ``r``, ``c``, ``b``), so a front end can name its option."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


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
        WienerSpace(self.m)  # rejects m outside the even integers 2..8
        if len(self.variables) != self.n:
            raise ValueError("need one state variable per dimension")
        if len(set(self.variables)) != self.n:
            raise ValueError("state variables must be distinct")
        if len(self.drift_fields) != self.n or len(self.diffusion_fields) != self.n:
            raise ValueError("drift and diffusion must have n components")
        if any(len(row) != self.m for row in self.diffusion_fields):
            raise ValueError("diffusion rows must have m entries")
        if not self.potential.has_parity(Parity.EVEN):
            raise ValueError("the potential must be even")
        if not all(a.has_parity(Parity.ODD) for a in self.drift_fields):
            raise ValueError("drift fields must be odd")
        if not all(c.has_parity(Parity.EVEN) for row in self.diffusion_fields for c in row):
            raise ValueError("diffusion fields must be even")
        _reject_increments("a state variable", *(gen(v) for v in self.variables))
        _reject_increments("the potential", self.potential)
        _reject_increments("a drift field", *self.drift_fields)
        _reject_increments("a diffusion field", *(c for row in self.diffusion_fields for c in row))

    def second_order_coefficient(self, k: int, j: int, space: WienerSpace) -> GrassmannElement:
        """g^{kj} = e^{ab} c^k_b c^j_a, 0-based k and j."""
        return space.contract(self.diffusion_fields[k], self.diffusion_fields[j])


def _reject_increments(what: str, *elements: GrassmannElement) -> None:
    """Raise a ValueError naming the first increment generator ``elements`` hold.

    ``fk_bruteforce`` reads increment slice r as the path's r-th increment
    and integrates it out, while ``fk_evolve``, which builds no increment
    generator, would carry it through as a parameter.  So an input that
    held increment generators would get a different plausible number from
    each route.
    """
    for element in elements:
        for g in element.generators():
            if g.family == Family.INCREMENT:
                raise ValueError(
                    f"{what} holds the increment generator {g!r}; the Feynman-Kac routes reserve "
                    "increment generators for the path"
                )


def apply_hamiltonian(h: HamiltonianSpec, f: GrassmannElement) -> GrassmannElement:
    """Symbolic action H f, derivatives applied rightmost first."""
    return _hamiltonian_action(h)(f)


def _second_order_table(h: HamiltonianSpec) -> list[list[GrassmannElement]]:
    """Every g^{kj} of ``h``, 0-based k and j, each contracted once."""
    space = WienerSpace(h.m)
    return [[h.second_order_coefficient(k, j, space) for j in range(h.n)] for k in range(h.n)]


def _hamiltonian_action(h: HamiltonianSpec) -> Callable[[GrassmannElement], GrassmannElement]:
    """``apply_hamiltonian`` of ``h`` as a function of f, each g^{kj} contracted once."""
    g = _second_order_table(h)

    def action(f: GrassmannElement) -> GrassmannElement:
        out = dict((h.potential * f)._terms)
        for j in range(h.n):
            df = derivative_element(f, h.variables[j])
            if not df.is_zero():
                _add_into(out, (h.drift_fields[j] * df)._terms, 1j)
        for k in range(h.n):
            dk = derivative_element(f, h.variables[k])
            if dk.is_zero():
                continue
            for j in range(h.n):
                ddf = derivative_element(dk, h.variables[j])
                if ddf.is_zero() or g[k][j].is_zero():
                    continue
                _add_into(out, (g[k][j] * ddf)._terms, 0.5)
        return GrassmannElement._wrap(out)

    return action


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense matrix of an operator on the monomial basis of ``variables``;
    columns hold images of basis monomials."""

    matrix: np.ndarray
    variables: tuple[GeneratorId, ...]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@cache
def monomial_basis(n: int) -> tuple[tuple[int, ...], ...]:
    """Index tuples into n variables, by monomial length, then lexicographically."""
    subsets = [
        tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)
    ]
    subsets.sort(key=lambda s: (len(s), s))
    return tuple(subsets)


@cache
def _basis_keys(variables: tuple[GeneratorId, ...]) -> tuple[tuple[MultiIndex, ...], Mapping[MultiIndex, int]]:
    """The key of each monomial of ``variables`` in ``monomial_basis`` order,
    and each key's position: the one rule of which monomial is basis position
    j, built once per variable set.  A tuple ``multi_index`` refuses raises
    on every call, since a call that raises is not cached."""
    keys = tuple(multi_index(variables[i] for i in subset) for subset in monomial_basis(len(variables)))
    return keys, MappingProxyType({key: pos for pos, key in enumerate(keys)})


def basis_elements(variables: Sequence[GeneratorId]) -> list[GrassmannElement]:
    """The monomials of ``variables`` in ``monomial_basis`` order."""
    keys, _ = _basis_keys(tuple(variables))
    return [GrassmannElement({key: 1.0}) for key in keys]


def element_coordinates(f: GrassmannElement, variables: Sequence[GeneratorId]) -> np.ndarray:
    _, positions = _basis_keys(tuple(variables))
    vec = np.zeros(len(positions), dtype=complex)
    for mi, coeff in f.items():
        pos = positions.get(mi)
        if pos is None:
            raise ValueError("element does not lie in the span of the basis")
        vec[pos] = coeff
    return vec


def element_from_coordinates(vec: np.ndarray, variables: Sequence[GeneratorId]) -> GrassmannElement:
    keys, _ = _basis_keys(tuple(variables))
    return GrassmannElement({key: c for key, c in zip(keys, map(complex, vec), strict=True) if c != 0})


def operator_matrix(
    apply: Callable[[GrassmannElement], GrassmannElement], variables: Sequence[GeneratorId]
) -> OperatorMatrix:
    """Matrix of a linear map on functions of ``variables``, one column per basis monomial."""
    variables = tuple(variables)
    dim = 1 << len(variables)
    matrix = np.zeros((dim, dim), dtype=complex)
    for col, f in enumerate(basis_elements(variables)):
        matrix[:, col] = element_coordinates(apply(f), variables)
    return OperatorMatrix(matrix, variables)


def hamiltonian_matrix(h: HamiltonianSpec) -> OperatorMatrix:
    return operator_matrix(_hamiltonian_action(h), h.variables)


def _expm(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with a truncated series on the scaled matrix.
    A ValueError refuses a one-norm that is not finite or is too large for
    the scaling 2**squarings to be a float (2**1022 and above), and a
    result that overflows: the work runs with floating-point warnings off,
    and only a finite result is returned."""
    dim = a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        one_norm = float(np.abs(a).sum(axis=0).max()) if dim else 0.0
        if not one_norm < 2.0**1022:
            raise ValueError(f"the matrix exponential needs a one-norm below 2**1022, got {one_norm}")
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
    if not np.isfinite(out).all():
        raise ValueError(f"the matrix exponential of a matrix with one-norm {one_norm} overflows")
    return out


def semigroup_oracle(op: OperatorMatrix, t: float) -> OperatorMatrix:
    """Ground truth for exp(-t H), relative accuracy ~1e-12 at these sizes."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return OperatorMatrix(_expm(-t * op.matrix), op.variables)


def matrix_apply(op: OperatorMatrix, f: GrassmannElement) -> GrassmannElement:
    vec = element_coordinates(f, op.variables)
    return element_from_coordinates(op.matrix @ vec, op.variables)


# -- the probabilistic route -------------------------------------------


def sde_spec(h: HamiltonianSpec, initial: Sequence[GrassmannElement]) -> SdeSpec:
    """The SDE of ``h``'s Feynman-Kac formula from ``initial``: drift A = -i alpha
    and diffusion c as functions of ``h.variables`` (the potential weighs paths)."""
    drift = tuple(SupersmoothFunction(-1j * a, h.variables) for a in h.drift_fields)
    diffusion = tuple(tuple(SupersmoothFunction(c, h.variables) for c in row) for row in h.diffusion_fields)
    return SdeSpec(drift, diffusion, tuple(initial))


def fk_evolve(h: HamiltonianSpec, f: GrassmannElement, partition: Partition) -> GrassmannElement:
    """Path-expectation estimate of exp(-H t) f as a function of the start point.

    One Euler step of ``sde_spec(h, x)`` per slice from the symbolic state x,
    where the coefficients are the fields themselves: the state moves to
    u + xi, with u = x + dt A(x) and the Gaussian noise xi^j = dbeta^a c^j_a(x),
    and the potential contributes a left-endpoint weight exp(-dt v).  The
    slice's Berezin integral over the increments has the closed form
    E[f(u + xi)] = sum_k ((-dt)^k / k!) (G^k f)(u), with G = (1/2) g^{kj} d_j d_k
    the second-order part of H, its coefficients frozen at x; so no
    increment generator is ever built and the cost is linear in the slice
    count.  Slices N ... 1 go in turn through ``h``'s one slice map
    (``_slice_map``), which builds each distinct width's images once.
    Generators of ``f`` outside ``h.variables`` are parameters: they ride
    along, never mapped or differentiated.  Exact when drift and potential
    vanish; first-order accurate in the mesh otherwise.  ``f`` must not
    hold increment generators.
    """
    return _evolve_map(h, partition)(f)


def _evolve_map(h: HamiltonianSpec, partition: Partition) -> Callable[[GrassmannElement], GrassmannElement]:
    """``fk_evolve(h, ., partition)`` as a map of f: ``h``'s slice map is built
    once and shared, with its per-width images, by every input the map takes."""
    step = _slice_map(h)

    def evolve(f: GrassmannElement) -> GrassmannElement:
        _reject_increments("fk_evolve's input", f)
        for r in range(partition.steps, 0, -1):
            f = step(f, partition.delta(r))
        return f

    return evolve


def _slice_map(h: HamiltonianSpec) -> Callable[[GrassmannElement, float], GrassmannElement]:
    """``step(f, dt)``, the map of one ``fk_evolve`` slice of width dt.

    A slice maps c X, for X a whole monomial key, to c Phi(X), summed and
    then multiplied by the weight exp(-dt v).  The image Phi(X) is
    sum_P (-dt)^|P| g_P (D_P X)(u) over the sets P of disjoint index pairs
    k < j, with g_P the product of their g^{kj} and D_P their d_j d_k
    (``_derivative_pairs``), and u the Euler step of ``_euler_step`` with
    zero noise.  u maps only the state variables, so a parameter theta in X
    stays in place; ``derivative_element`` signs each move of a derivative
    past it, and since the pairs and g_P are even,
    Phi(theta eta_S) = theta Phi(eta_S).  g is contracted once and each
    key's pairs are listed once; u, the weight and each X(u) and Phi(X)
    are built once per width, on first use, and shared by every input the
    returned map steps.
    """
    g = _second_order_table(h)
    symbols = [gen(v) for v in h.variables]
    drift = [a.body for a in sde_spec(h, symbols).drift]
    no_noise = [ZERO] * h.n
    pairs = cache(lambda x: _derivative_pairs(x, h.variables, g))

    @cache
    def width(dt: float) -> tuple[GrassmannElement, Callable[[MultiIndex], GrassmannElement]]:
        """The weight exp(-dt v) and the image Phi of a monomial by its key."""
        u = _odd_images(dict(zip(h.variables, _euler_step(symbols, dt, drift, no_noise))))
        moved = cache(lambda r: _substitute_odd(GrassmannElement({r: 1.0}), u))  # X_R(u) by R

        @cache
        def image(x: MultiIndex) -> GrassmannElement:
            out = ZERO
            for size, g_p, r in pairs(x):
                out = out + ((-dt) ** size * g_p * moved(r) if size else moved(r))
            return out

        return grassmann_exp(-dt * h.potential), image

    def step(f: GrassmannElement, dt: float) -> GrassmannElement:
        weight, image = width(dt)
        total: dict[MultiIndex, complex] = {}
        for x, c in f.items():
            for key, value in image(x).items():
                total[key] = total.get(key, 0j) + c * value
        return weight * GrassmannElement._adopt(total)

    return step


def _derivative_pairs(
    x: MultiIndex, variables: Sequence[GeneratorId], g: Sequence[Sequence[GrassmannElement]]
) -> list[tuple[int, GrassmannElement, MultiIndex]]:
    """(|P|, sigma g_P, R) for every set P of disjoint index pairs k < j with
    D_P X = sigma X_R, where X is the monomial of key ``x``, D_P is the
    product of their d_j d_k and g_P that of their g^{kj}, both nonzero; the
    empty set first.  Each set is listed once, its pairs by increasing k."""
    out = []

    def walk(size: int, g_p: GrassmannElement, d_p: GrassmannElement, first: int) -> None:
        ((r, sign),) = d_p.items()
        out.append((size, sign * g_p, r))
        for k in range(first, len(variables)):
            dk = derivative_element(d_p, variables[k])
            if dk.is_zero():
                continue
            for j in range(k + 1, len(variables)):
                g_kj = g_p * g[k][j]
                ddf = derivative_element(dk, variables[j])
                if not (g_kj.is_zero() or ddf.is_zero()):
                    walk(size + 1, g_kj, ddf, k + 1)

    walk(0, ONE, GrassmannElement({x: 1.0}), 0)
    return out


def fk_operator(h: HamiltonianSpec, partition: Partition) -> OperatorMatrix:
    """Matrix of the ``fk_evolve`` estimate of exp(-H t) on the monomial basis,
    as the ordered product M_1 M_2 ... M_N of one-slice transfer matrices.

    M_r is the matrix of ``h``'s one slice map (``_slice_map``) at width
    dt_r, built once per distinct width from the basis, so each column of
    M_r is that slice's ``fk_evolve`` image bit for bit.  Since
    ``fk_evolve`` applies slice N first, the product is accumulated from the
    right, M_r times the product of the later slices, as the evolution
    applies them to a column.
    """
    step = _slice_map(h)

    @cache
    def width(dt: float) -> np.ndarray:
        return operator_matrix(lambda f: step(f, dt), h.variables).matrix

    product = width(partition.delta(partition.steps))
    for r in range(partition.steps - 1, 0, -1):
        product = width(partition.delta(r)) @ product
    return OperatorMatrix(product, h.variables)


def fk_bruteforce(h: HamiltonianSpec, f: GrassmannElement, partition: Partition) -> GrassmannElement:
    """The same expectation on the forward route (small grids only): ``solve_sde``
    of ``sde_spec(h, x)`` from the symbolic start x, times the left-endpoint
    weight prod_r exp(-dt_r v(zeta_{r-1})), with every slice integrated at once."""
    return _bruteforce_map(h, partition)(f)


def _bruteforce_map(h: HamiltonianSpec, partition: Partition) -> Callable[[GrassmannElement], GrassmannElement]:
    """``fk_bruteforce(h, ., partition)`` as a map of f: the SDE is solved and
    the weight built once, and shared by every input the map takes."""
    if partition.steps > JOINT_CAP:
        raise ValueError(f"brute-force mode caps at {JOINT_CAP} slices, got {partition.steps}")
    space = WienerSpace(h.m)
    nodes = solve_sde(sde_spec(h, [gen(v) for v in h.variables]), space, partition).values
    weight = ONE
    for r in range(1, partition.steps + 1):
        here = dict(zip(h.variables, nodes[r - 1]))
        weight = weight * grassmann_exp(-partition.delta(r) * substitute(h.potential, here))
    final = dict(zip(h.variables, nodes[-1]))
    motion = BrownianMotion(space, partition)

    def expectation(f: GrassmannElement) -> GrassmannElement:
        _reject_increments("fk_bruteforce's input", f)
        return motion.expect_product(weight, substitute(f, final))

    return expectation


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
    out_monos = basis_elements(op.variables)
    in_keys, _ = _basis_keys(in_vars)
    full = in_keys[-1]
    body: dict[MultiIndex, complex] = {}
    for col, key in enumerate(in_keys):
        comp_mono = GrassmannElement({full ^ key: 1.0})
        sign = (comp_mono * GrassmannElement({key: 1.0}))._terms[full]
        for row, out_mono in enumerate(out_monos):
            u = complex(op.matrix[row, col])
            if u == 0:
                continue
            _add_into(body, (out_mono * comp_mono)._terms, u / sign)
    return SupersmoothFunction(GrassmannElement._wrap(body), op.variables + in_vars)


def oracle_kernel(h: HamiltonianSpec, t: float) -> SupersmoothFunction:
    """Kernel of exp(-H t) through the matrix-exponential route."""
    return kernel_extract(semigroup_oracle(hamiltonian_matrix(h), t))


def closed_form_kernel(
    name: str,
    t: float,
    r: float = 1.0,
    c: float = 1.0,
    b: float = 1.0,
    lam: float = 0.0,
) -> SupersmoothFunction:
    """Reference closed-form kernels of the two-dimensional example Hamiltonians.

    Names: flat, flat_potential (constant potential ``lam``), ou (rate
    ``r``, noise ``c``), oscillator, quartic (coupling ``b``, noise ``c``).
    The output point is ``state_variables(2)``; the integrated argument is
    ``kernel_variables(2)``.
    The quartic formula is kept in its reference form; it does not match the
    operator exponential in the top slot (see the module docstring).
    The constants 1 - e^{-2rt} and e^{-2bt} - 1 come from ``np.expm1``,
    which keeps them accurate to the last bits as rt or bt goes to zero;
    a subtraction loses them (at r = 1e-300 it gives 0.0 for 2e-300).
    """
    if t <= 0:
        raise ParameterError("t", "t must be positive")
    out_vars, in_vars = state_variables(2), kernel_variables(2)
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
            raise ParameterError("r", "the rate r must be nonzero")
        decay = np.exp(-r * t)
        body = (
            et1 * et2
            - decay * (xi1 * et2 + et1 * xi2)
            + scalar(c * c / (2 * r) * -np.expm1(-2 * r * t))
            + (decay * decay) * (xi1 * xi2)
        )
        return SupersmoothFunction(body, variables)
    if name == "oscillator":
        sh, ch = np.sinh(t), np.cosh(t)
        exponent = (ch / sh) * (xi1 * xi2 + et1 * et2) - (1.0 / sh) * (xi1 * et2 + et1 * xi2)
        return SupersmoothFunction(sh * grassmann_exp(exponent), variables)
    if name == "quartic":
        if b == 0:
            raise ParameterError("b", "the coupling b must be nonzero")
        delta = grassmann_delta(in_vars, out_vars).body
        body = delta + scalar(c * c / (2 * b) * np.expm1(-2 * b * t))
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
            raise ParameterError("c", "the noise scale c must be nonzero")
        field = 1j * (scalar(c) + (b / c) * (x1 * x2))
        diffusion = ((field, zero), (zero, field))
        return HamiltonianSpec(2, 2, zero, (zero, zero), diffusion, variables)
    raise ValueError(f"unknown Hamiltonian name {name!r}")
