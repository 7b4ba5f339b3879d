import random
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin.algebra import Parity, eta
from berezin.feynman_kac import example_hamiltonian, oracle_kernel
from berezin.verify import SUITE_NAMES, random_element, refinement, run_suite


@pytest.fixture(scope="session")
def suite_checks():
    return {name: run_suite(name) for name in SUITE_NAMES}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_passes(suite, suite_checks):
    checks = suite_checks[suite]
    assert checks
    failed = [c.line() for c in checks if not c.passed]
    assert not failed, "\n".join(failed)


def test_unknown_suite_name():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_full_run_aggregates_every_suite(suite_checks):
    def rows(checks):
        return [(c.name, c.value, c.tolerance) for c in checks]

    separate = [row for name in SUITE_NAMES for row in rows(suite_checks[name])]
    assert rows(run_suite("all")) == separate


def test_a_second_run_in_one_process_repeats_every_check():
    # The suites share cached tables (the subset table of random_element,
    # the slice maps of each fk map) only within what one run builds again.
    first = run_suite("all", 7)
    assert repr(run_suite("all", 7)) == repr(first)


# Two variable sets of 8: a pool of 16, whose 2^16 subsets make repeated keys
# rare enough that every drawn term count shows up as an element's length.
WIDE_POOL = tuple(eta(i, s) for s in (0, 1) for i in range(1, 9))
ALLOWED_DEGREES = {
    None: set(range(17)),
    Parity.EVEN: set(range(0, 17, 2)),
    Parity.ODD: set(range(1, 17, 2)),
}


@pytest.mark.parametrize("max_terms", [4, 8, 16])
@pytest.mark.parametrize("parity", [None, Parity.EVEN, Parity.ODD], ids=["mixed", "even", "odd"])
def test_random_elements_keep_the_feature_mix(parity, max_terms):
    rng = random.Random(max_terms)
    counts, degrees, signs = set(), set(), set()
    magnitudes = []
    for _ in range(10_000):
        element = random_element(rng, WIDE_POOL, max_terms=max_terms, parity=parity)
        counts.add(len(element._terms))
        for key, c in element.items():
            degrees.add(key.bit_count())
            signs.add(("re", c.real > 0))
            signs.add(("im", c.imag > 0))
            magnitudes += [abs(c.real), abs(c.imag)]
    assert counts == set(range(1, max_terms + 1))
    assert degrees == ALLOWED_DEGREES[parity]
    assert signs == {("re", True), ("re", False), ("im", True), ("im", False)}
    assert 0.2 <= min(magnitudes) < 0.201 and 0.999 < max(magnitudes) <= 1.0


def test_random_elements_repeat_on_every_python():
    # Drawn from rng.random() alone, whose stream Python keeps across versions.
    rng = random.Random(2024)
    pool = tuple(eta(i) for i in range(1, 7))
    assert [repr(random_element(rng, pool)) for _ in range(3)] == [
        "<GrassmannElement (-0.5986411056171199-0.5326976807554323i)·η[5]"
        " + (-0.6154805783907897+0.7850880669020055i)·η[1]η[6]"
        " + (-0.9098386152000122+0.5280708715749807i)·η[1]η[2]η[3]η[4]η[6]"
        " + (0.7672279049843815+0.8975253859312569i)·η[1]η[2]η[3]η[5]η[6]>",
        "<GrassmannElement (-0.5332565275781236-0.2993468149025249i)"
        " + (0.36091805890490253+0.5414454961680406i)·η[3]η[4]"
        " + (0.9682768080840616+0.8435050827572166i)·η[1]η[2]η[3]η[4]η[6]"
        " + (0.23238963931744624-0.3801757500285982i)·η[1]η[2]η[3]η[4]η[5]η[6]>",
        "<GrassmannElement (0.40002183632441835+0.2804892331076818i)"
        " + (0.8424073176636728+0.39142793831254397i)·η[1]η[3]"
        " + (0.7564717815388535+0.8889477320433252i)·η[2]η[3]η[4]"
        " + (0.97761179456058+0.36074862982469036i)·η[2]η[4]η[5]"
        " + (0.8748457382544153-0.20345349252146303i)·η[1]η[2]η[3]η[5]"
        " + (0.9960690108791836+0.4925684221750761i)·η[1]η[3]η[4]η[5]"
        " + (-0.5098173357465479-0.4698077758282493i)·η[1]η[2]η[3]η[4]η[5]>",
    ]


def test_round_off_of_an_exact_kernel_passes_the_ratio_check():
    # fk-vs-oracle errors of `kernel flat_potential --t 1 --lam 0.7` on 64...1024 slices
    grids = (64, 128, 256, 512, 1024)
    errors = [0.0, 0.0, 0.0, 0.0, 1.07e-13]
    assert refinement(grids, 1, errors=errors).deviation == 2.0
    scale = oracle_kernel(example_hamiltonian("flat_potential", lam=0.7), 1.0).body.norm()
    assert refinement(grids, 1, errors=errors, scale=scale).deviation == 0.0


@pytest.mark.parametrize(
    "errors, grids",
    [([float("nan"), 1.0, 0.5], [1, 2, 4]), ([1.0, 0.5, float("nan")], [1, 2, 4]), ([float("inf")] * 2, [1, 2])],
    ids=["nan-first", "nan-last", "inf"],
)
def test_a_non_finite_error_fails_the_ratio_check(errors, grids):
    assert refinement(grids, 1, errors=errors).deviation == float("inf")


def test_finite_errors_keep_their_exact_ratio_deviation():
    assert refinement([1, 2, 4], 1, errors=[1.0, 0.5, 0.2]).deviation == abs(0.5 / 0.2 - 2.0)
    assert refinement([1, 2], 1, errors=[1.0, 0.0]).deviation == float("inf")
    assert refinement([1, 2], 1, errors=[0.0, 0.0]).deviation == 0.0


@settings(derandomize=True, deadline=None)
@given(
    limit=st.floats(-10.0, 10.0),
    amplitude=st.floats(-10.0, 10.0),
    order=st.sampled_from((1, 2)),
    coarse=st.integers(1, 200),
    step=st.integers(1, 200),
)
def test_richardson_recovers_the_limit(limit, amplitude, order, coarse, step):
    grids = (coarse, coarse + step)
    values = [limit + amplitude / n**order for n in grids]
    assert refinement(grids, order, values=values).extrapolate == pytest.approx(limit, abs=1e-9)


@settings(derandomize=True, deadline=None)
@given(
    grids=st.lists(st.integers(1, 10_000), min_size=2, max_size=6, unique=True).map(sorted),
    amplitude=st.floats(1e-6, 1e3),
)
def test_ratio_deviation_of_first_order_errors_is_zero(grids, amplitude):
    errors = [amplitude / n for n in grids]
    assert refinement(grids, 1, errors=errors).deviation <= 1e-9


def test_unequal_lengths_are_refused():
    with pytest.raises(ValueError):
        refinement([1, 2], 1, errors=[1.0])
    with pytest.raises(ValueError):
        refinement([1, 2, 4], 1, values=[1.0, 0.5])


# The three rules that refinement() replaced, kept verbatim as oracles.


def richardson(grids: Sequence[int], values: Sequence, order: int):
    """Extrapolate of a refinement whose error falls like N^-order.

    From the last two grids M < N, with rho = (N/M)^order, the extrapolate
    is (rho v_N - v_M) / (rho - 1), which is 2 v_N - v_M for a doubling
    first-order study.  A one-grid study returns its single value.
    """
    if len(values) == 1:
        return values[-1]
    rho = (grids[-1] / grids[-2]) ** order
    return (rho * values[-1] - values[-2]) / (rho - 1)


def ratio_deviation(errors: Sequence[float], grids: Sequence[float]) -> float:
    """Largest |e_k / e_{k+1} - N_{k+1} / N_k| over successive grids, the
    deviation from first-order refinement; 0 for exact data.  Only an error
    of 0.0 counts as exact: a route that may carry round-off on an exact
    result sets it to 0.0 first (``drop_round_off``).  A NaN or infinite
    error gives inf, which no slack accepts."""
    if len(errors) != len(grids):
        raise ValueError("need one error per grid")
    worst = 0.0
    for a, b, n_a, n_b in zip(errors, errors[1:], grids, grids[1:]):
        if b == 0.0:
            worst = max(worst, 0.0 if a == 0.0 else float("inf"))
        else:
            worst = max(worst, abs(a / b - n_b / n_a))
    return worst if np.isfinite(errors).all() else np.inf


def drop_round_off(errors: Sequence[float], slices: int, scale: float) -> list[float]:
    """Errors at most ``slices`` unit round-offs (2^-52) of ``scale`` set to
    0.0: what a route of that many slices may carry on an exact result."""
    floor = slices * 2.0**-52 * scale
    return [0.0 if e <= floor else e for e in errors]


@st.composite
def refinement_studies(draw):
    """Strictly increasing grids (rarely doubling), a scale, and one error per
    grid: 0.0, NaN, inf, an arbitrary magnitude, or a whole number of unit
    round-offs of the scale on either side of the floor."""
    grids = sorted(draw(st.sets(st.integers(1, 10_000), min_size=1, max_size=6)))
    scale = draw(st.just(0.0) | st.floats(1e-3, 1e6))
    unit = 2.0**-52 * scale
    error = st.one_of(
        st.sampled_from((0.0, float("nan"), float("inf"))),
        st.floats(0.0, 1e3),
        st.integers(0, 2 * grids[-1]).map(lambda k: k * unit),
    )
    errors = draw(st.lists(error, min_size=len(grids), max_size=len(grids)))
    return grids, scale, errors


@settings(derandomize=True, deadline=None, max_examples=300)
@given(study=refinement_studies(), order=st.sampled_from((1, 2)), seed=st.integers(0, 2**32))
def test_refinement_repeats_the_rules_it_replaced(study, order, seed):
    grids, scale, errors = study
    deviation = refinement(grids, 1, errors=errors, scale=scale).deviation
    assert repr(deviation) == repr(ratio_deviation(drop_round_off(errors, grids[-1], scale), grids))
    if scale == 0.0:
        assert repr(deviation) == repr(ratio_deviation(errors, grids))
    numbers = [complex(e, -e) for e in errors]
    assert repr(refinement(grids, 1, values=numbers).extrapolate) == repr(richardson(grids, numbers, 1))
    rng = random.Random(seed)
    elements = [random_element(rng, tuple(eta(i) for i in range(1, 5))) for _ in grids]
    got = refinement(grids, order, values=elements).extrapolate
    assert repr(got._terms) == repr(richardson(grids, elements, order)._terms)
