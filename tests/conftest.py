"""Shared fixtures; the expensive tabulated table is built once per session."""

import numpy as np
import pytest

from shellbound import potentials
from shellbound.potentials import Potential


@pytest.fixture(scope="session")
def tabulated_gaussian_2d():
    """FFT-table version of gaussian_well(c=1, sigma=1) in two dimensions.

    Box edge 128 with 1024 samples puts the resolved band at ~12.6 and
    the dual-lattice spacing at ~0.049, fine enough for the 1e-6
    closed-form comparison.
    """
    samples, edge = 1024, 128.0
    step = edge / samples
    axis = (np.arange(samples) - samples // 2) * step
    x, y = np.meshgrid(axis, axis, indexing="ij")
    return potentials.tabulated(-np.exp(-(x**2 + y**2) / 2.0), edge)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record the (rows, columns) of every Potential.kernel_matrix call."""
    calls = []
    original = Potential.kernel_matrix

    def spy(self, p, q=None):
        out = original(self, p, q)
        calls.append(out.shape)
        return out

    monkeypatch.setattr(Potential, "kernel_matrix", spy)
    return calls


@pytest.fixture
def assert_same_spectrum():
    """Check a channel-route spectrum against the dense reference matrix A_ref.

    The channel route lists no eigenfunctions, its values are ascending,
    and the lowest M of them (all of them on the circle; the sphere
    lists n^2 > M channel values) equal those of ``eigh(A_ref)`` to
    ``tolerance * max(1, max |E|)``.
    """

    def check(fast, reference, tolerance=1e-12):
        expected = np.linalg.eigvalsh(reference)
        assert fast.eigenfunctions is None
        assert np.all(np.diff(fast.eigenvalues) >= 0.0)
        head = fast.eigenvalues[:expected.size]
        assert np.abs(head - expected).max() <= tolerance * max(1.0, np.abs(expected).max())

    return check
