import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_is_left():
    """After every test, this process has no child, running or exited.

    A campaign reaps every worker it forks before it returns or raises, so
    a worker left behind fails the test that forked it.  Exited ones are
    reaped here, so that they fail no later test.
    """
    yield
    left = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        left.append(f"pid {pid}, exited" if pid else "some running")
        if not pid:
            break
    if left:
        pytest.fail(f"the test left child processes: {', '.join(left)}")
