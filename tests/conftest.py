import os

import pytest

from gimbalsim import sim


@pytest.fixture(autouse=True)
def no_unreaped_child_processes():
    """Fail a test that leaves a child process running or unreaped,
    such as a trace-formatting helper that was never waited for."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid:
        pytest.fail(f"the test left child process {pid} unreaped (wait status {status})")
    pytest.fail("the test left a child process running")


@pytest.fixture
def two_cpus(monkeypatch):
    """Let ``cli`` see two usable CPUs, so that ``verify all`` and a long
    enough trace fork their helper on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture(scope="session")
def rec_fig3():
    return sim.integrate(sim.preset("fig3-stab"))


@pytest.fixture(scope="session")
def rec_fig4():
    return sim.integrate(sim.preset("fig4-step"))


@pytest.fixture(scope="session")
def rec_fig5():
    return sim.integrate(sim.preset("fig5-sin"))


@pytest.fixture(scope="session")
def rec_fig4_pid():
    return sim.integrate(sim.preset("fig4-step-pid"))
