import pytest

from berezin.verify import SUITE_NAMES, run_suite


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
