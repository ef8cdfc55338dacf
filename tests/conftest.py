"""Shared fixtures: small generated meshes, a 2D lattice builder and a
check that no test leaks a NumPy setting."""

import warnings

import numpy as np
import pytest

from morphkit import Mesh, generate_box_wing, generate_tunnel

# After a failing example, Hypothesis's pytest plugin imports its patch
# writer, which imports libcst where that is installed; libcst 1.0 warns
# from mypy_extensions on import, and under filterwarnings = error that
# warning ends the whole test run. Imported once here, quietly, the module
# is cached and the failure is reported as a failure.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass


@pytest.fixture(autouse=True)
def numpy_settings_are_restored():
    """Fail the test that leaves NumPy's ufunc buffer size or its
    floating-point error handling other than it found them."""
    before = np.getbufsize(), np.geterr()
    yield
    assert (np.getbufsize(), np.geterr()) == before, "a NumPy setting leaked"


def make_lattice2d(nx, ny, lengths=(1.0, 1.0)):
    """Triangulated rectangle with nx x ny cells.

    Every node is a boundary node and belongs to the single group "all",
    which keeps selection tests free of 3D bookkeeping.
    """
    xs = np.linspace(0.0, lengths[0], nx + 1)
    ys = np.linspace(0.0, lengths[1], ny + 1)
    nodes = np.array([(x, y) for x in xs for y in ys])

    def nid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            a, b = nid(i, j), nid(i + 1, j)
            c, d = nid(i + 1, j + 1), nid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    ids = np.arange(nodes.shape[0], dtype=np.int64)
    return Mesh(2, nodes, np.array(tris, dtype=np.int64), ids,
                np.array([], dtype=np.int64), {"all": ids})


@pytest.fixture(scope="session")
def lattice11():
    # unit spacing over (0, 10)^2, 121 nodes
    return make_lattice2d(10, 10, (10.0, 10.0))


@pytest.fixture(scope="session")
def tiny_wing():
    # 27 nodes, single interior node at the center
    return generate_box_wing(2, 2, 2, (1.0, 1.0, 1.0))


@pytest.fixture(scope="session")
def wing():
    return generate_box_wing(4, 2, 8, (1.0, 0.25, 3.0))


@pytest.fixture(scope="session")
def small_tunnel():
    return generate_tunnel((4.0, 4.0, 4.0), (1.2, 1.2, 1.2), 6)
