import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test after which a child process still runs: a study must end
    the workers it forks, also when a fit raises."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running after the test: {left}"
