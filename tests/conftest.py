"""Shared test plumbing: replay acceptance criterion lines after the run,
and a Volterra case whose kernel depends on the target point."""

import numpy as np
import pytest

from mcie import MeasureSpec, VolterraProblem, gauss_legendre_grid
from mcie.problems import ManufacturedCase

_criterion_lines: "list[str]" = []


@pytest.fixture(scope="session")
def criterion_lines():
    """Accumulator the acceptance tests append their PASS/FAIL lines to."""
    return _criterion_lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)


def _y_dependent_kernel(tau, y, nu, v, z):
    return 0.3 * np.sin(y * v + nu + z)


@pytest.fixture
def y_dependent_case() -> ManufacturedCase:
    """Volterra case on 9 grid points and 9 check times whose kernel varies
    with the target point y.

    The registered Volterra kernels ignore y, so every row of their kernel
    blocks is the same and rows landing in the wrong place cannot show.
    """
    prob = VolterraProblem(
        lambda tau, y: np.ones(np.broadcast_shapes(np.shape(tau), np.shape(y))),
        _y_dependent_kernel, 0.5, MeasureSpec.uniform_cube(1),
        gauss_legendre_grid(9), np.linspace(0.0, 1.0, 9), validate=False,
    )
    return ManufacturedCase("y-dependent", "volterra", prob, prob.f, "", 9, 9)
