import pytest

from geomflow import cli


@pytest.fixture(scope="session", autouse=True)
def kept_heap():
    """The heap policy `geomflow` commands run under (cli._keep_heap), for
    the tests that call flow.train, estimate_couplings and reflow directly
    rather than through cli.main. It changes no output bit."""
    cli._keep_heap()
