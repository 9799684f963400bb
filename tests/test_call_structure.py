"""Call structure of the step paths: which public functions each entry point calls.

The benchmark's traced runs count calls to the public functions of every
layer and check some of those counts exactly, so these tests pin the same
structure: scalar steps solve through ``lu_solve``, batches through
``lu_solve_batch``, and the backward batch never goes through the public
forward batch.  Calls are counted by wrapping a function at every module
that binds it.
"""

import sys

import numpy as np
import pytest

import nsfd.integrator
import nsfd.linalg
from nsfd.integrator import integrate
from nsfd.invariance import discrete_tangent, invariance_audit


@pytest.fixture
def count(monkeypatch):
    """``count(module, name, rows_arg=None)`` wraps the function at every binding site.

    Returns a dict whose ``calls`` and ``rows`` grow with each call; rows
    is the length of positional argument ``rows_arg``.
    """

    def install(module, name, rows_arg=None):
        original = getattr(module, name)
        tally = {"calls": 0, "rows": 0}

        def counted(*args, **kwargs):
            tally["calls"] += 1
            if rows_arg is not None:
                tally["rows"] += len(args[rows_arg])
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "nsfd":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
        return tally

    return install


def test_integrate_solves_each_step_with_one_scalar_solve(host_vector, count):
    steps = 7
    forward = count(nsfd.integrator, "step_forward")
    scalar = count(nsfd.linalg, "lu_solve")
    batch = count(nsfd.linalg, "lu_solve_batch")
    integrate(host_vector, np.array([9.0, 0.5, 9.0, 0.5, 0.0]), 0.5, steps)
    assert forward["calls"] == steps
    assert scalar["calls"] == steps
    assert batch["calls"] == 0


@pytest.mark.parametrize(
    "model_name, name",
    [
        pytest.param(model_name, name, id=name if model_name == "host_vector" else f"{model_name}-{name}")
        for model_name in ("host_vector", "sir_ring_30")
        for name in ("step_forward", "step_backward", "step_forward_batch", "step_backward_batch")
    ],
)
def test_each_step_makes_one_abs_pass(request, count, model_name, name):
    # the dominance check and the solve guard share one pass over |I -+ h S(x)|,
    # also past the cut-off of the Python-float elimination (sir_ring_30)
    model = request.getfixturevalue(model_name)
    x = np.array([9.0, 0.5, 9.0, 0.5, 0.0]) if model_name == "host_vector" else np.full(model.n, 0.5)
    if name.endswith("_batch"):
        x = np.tile(x, (3, 1))
    passes = count(nsfd.linalg, "_abs_parts")
    getattr(nsfd.integrator, name)(model, x, 0.5)
    assert passes["calls"] == 1


def test_discrete_tangent_solves_one_batch_without_the_forward_batch(host_vector, count):
    samples = 24
    forward_batch = count(nsfd.integrator, "step_forward_batch", rows_arg=1)
    batch = count(nsfd.linalg, "lu_solve_batch", rows_arg=0)
    discrete_tangent(host_vector, h=0.5, count=samples, seed=3)
    assert batch["rows"] == samples
    assert forward_batch["calls"] == 0


def test_audit_sends_every_live_state_step_to_the_forward_batch(host_vector, count):
    trials, steps = 20, 5
    forward_batch = count(nsfd.integrator, "step_forward_batch", rows_arg=1)
    report = invariance_audit(host_vector, h=0.5, trials=trials, steps=steps, seed=1)
    assert report.exit_count == 0
    assert forward_batch["rows"] == trials * steps

