import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berezin.feynman_kac import example_hamiltonian, oracle_kernel
from berezin.verify import SUITE_NAMES, drop_round_off, ratio_deviation, richardson, run_suite


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
    # The suites share cached tables (the pool bits of random_element, the
    # slice maps of each fk map) only within what one run builds again.
    first = run_suite("all", 7)
    assert repr(run_suite("all", 7)) == repr(first)


def test_round_off_of_an_exact_kernel_passes_the_ratio_check():
    # fk-vs-oracle errors of `kernel flat_potential --t 1 --lam 0.7` on 64...1024 slices
    grids = (64, 128, 256, 512, 1024)
    errors = [0.0, 0.0, 0.0, 0.0, 1.07e-13]
    assert ratio_deviation(errors, grids) == 2.0
    scale = oracle_kernel(example_hamiltonian("flat_potential", lam=0.7), 1.0).body.norm()
    assert ratio_deviation(drop_round_off(errors, grids[-1], scale), grids) == 0.0


@pytest.mark.parametrize(
    "errors, grids",
    [([float("nan"), 1.0, 0.5], [1, 2, 4]), ([1.0, 0.5, float("nan")], [1, 2, 4]), ([float("inf")] * 2, [1, 2])],
    ids=["nan-first", "nan-last", "inf"],
)
def test_a_non_finite_error_fails_the_ratio_check(errors, grids):
    assert ratio_deviation(errors, grids) == float("inf")


def test_finite_errors_keep_their_exact_ratio_deviation():
    assert ratio_deviation([1.0, 0.5, 0.2], [1, 2, 4]) == abs(0.5 / 0.2 - 2.0)
    assert ratio_deviation([1.0, 0.0], [1, 2]) == float("inf")
    assert ratio_deviation([0.0, 0.0], [1, 2]) == 0.0


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
    assert richardson(grids, values, order) == pytest.approx(limit, abs=1e-9)


@settings(derandomize=True, deadline=None)
@given(
    grids=st.lists(st.integers(1, 10_000), min_size=2, max_size=6, unique=True).map(sorted),
    amplitude=st.floats(1e-6, 1e3),
)
def test_ratio_deviation_of_first_order_errors_is_zero(grids, amplitude):
    errors = [amplitude / n for n in grids]
    assert ratio_deviation(errors, grids) <= 1e-9
