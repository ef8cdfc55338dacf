"""What the benchmark in ``perfbench/`` takes from the library: the
functions its tracer wraps and the config its tunnel scenario writes.

A renamed function or a refused config key then fails here, not only in
the benchmark's own smoke run.
"""

import importlib.util
from pathlib import Path

import pytest

import numpy as np

from morphkit import cli, generate_tunnel

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


@pytest.fixture(scope="module")
def tunnel_config():
    scenario = object.__new__(load("workloads").TunnelScenario)
    scenario.smoke = True
    return scenario.config()


def test_every_traced_function_is_the_owners_own(tracing):
    # the tracer reads owner.__dict__, so an inherited or renamed
    # attribute would stop it at start-up
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.TARGETS
               if attr not in owner.__dict__]
    assert missing == []


def test_tunnel_config_passes_the_table_and_reads_raw(tunnel_config):
    checked = cli.check_config(tunnel_config)
    assert checked["law"]["axis"] == "z"
    # the benchmark hands its raw config to the selection helpers
    params = cli.selection_params(tunnel_config, None)
    assert params == cli.selection_params(checked, None)
    assert [r.radius for r in params.regions] == [0.3] + [1.0] * 6
    mesh = generate_tunnel((5.0, 5.0, 5.0), (1.0, 1.0, 1.0), 8)
    np.testing.assert_array_equal(
        cli.run_selection(mesh, tunnel_config, None)[0],
        cli.run_selection(mesh, checked, None)[0])
