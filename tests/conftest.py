import multiprocessing

import pytest
from hypothesis import HealthCheck, settings

# property tests draw the same examples on every run so the suite stays
# reproducible
settings.register_profile(
    "deterministic", derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_stray_children():
    """Fail a test that leaves a child process running: tuning forks, and
    must join every child on every path."""
    yield
    stray = multiprocessing.active_children()
    for child in stray:
        child.terminate()
        child.join()
    assert stray == [], f"the test left {len(stray)} child process(es) running"
