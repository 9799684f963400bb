"""What one process reuses: the CLI's last model document, and each model's step bound.

A command on a model file whose text the previous command read builds
nothing, and writes the bytes it writes with the reuse emptied.  Library
``load_model`` still returns a new model on every call.
"""

import gc
import json
import weakref

import numpy as np
import pytest

import nsfd.cli
import nsfd.model
from nsfd.cli import main
from nsfd.integrator import DEFAULT_H_MAX, StepBoundReport, step_bound
from nsfd.model import MassActionModel, SpecError, dump_model, load_model
from nsfd.models import BUILTIN_NAMES, make_builtin, make_host_vector

STABILITY = ("stability", "--x0", "10,0,10,0,0", "--h", "0.5")
ORDER = ("order", "--x0", "4,2,3,1,1", "--t-final", "2", "--h", "0.5")


@pytest.fixture
def fresh(monkeypatch):
    """Empties the reuse for the test; ``fresh()`` empties it again."""

    def empty():
        monkeypatch.setattr(nsfd.cli, "_last_document", None)

    empty()
    return empty


@pytest.fixture
def builds(monkeypatch):
    """The documents passed to ``model_from_dict``, one per model built from a file."""
    calls = []
    build = nsfd.model.model_from_dict
    monkeypatch.setattr(nsfd.model, "model_from_dict", lambda doc: calls.append(doc) or build(doc))
    return calls


def run(capsys, command, path):
    code = main([command[0], "--model", str(path), *command[1:]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stability_then_order_on_one_model_file_build_the_model_once(tmp_path, capsys, fresh, builds):
    path = tmp_path / "host-vector.json"
    path.write_text(dump_model(make_host_vector()))
    reused = [run(capsys, command, path) for command in (STABILITY, ORDER)]
    assert len(builds) == 1
    for command, got in zip((STABILITY, ORDER), reused):
        fresh()
        assert got == run(capsys, command, path)
        assert got[0] == 0 and got[1]
    # The library's loads stay apart from the CLI's and from each other.
    assert load_model(path) is not nsfd.cli._last_document[1]
    assert load_model(path) is not load_model(path)


def test_a_model_file_rewritten_in_place_gives_the_new_model(tmp_path, capsys, fresh):
    path = tmp_path / "model.json"
    doc = json.loads(dump_model(make_host_vector()))
    path.write_text(json.dumps(doc))
    before = run(capsys, ORDER, path)
    doc["bilinear"][0]["c"] *= 2.0
    path.write_text(json.dumps(doc))
    after = run(capsys, ORDER, path)
    fresh()
    assert after == run(capsys, ORDER, path)
    assert after[0] == before[0] == 0 and after[1] != before[1]


@pytest.mark.parametrize(
    "spoil, message",
    [
        pytest.param(lambda p: p.mkdir(), "cannot read model file", id="unreadable"),
        pytest.param(lambda p: p.write_bytes(b'{"name": "\xff"}'), "is not valid JSON", id="undecodable"),
        pytest.param(lambda p: p.write_text('{"name": '), "is not valid JSON", id="invalid-json"),
        pytest.param(lambda p: p.write_text('{"name": "x"}'), "missing keys in model document", id="invalid-doc"),
    ],
)
def test_a_bad_model_file_fails_on_every_call_until_it_is_fixed(tmp_path, capsys, fresh, spoil, message):
    path = tmp_path / "model.json"
    good = dump_model(make_host_vector())
    path.write_text(good)
    expected = run(capsys, ORDER, path)
    path.unlink()
    spoil(path)
    with pytest.raises(SpecError) as today:
        load_model(path)
    assert message in str(today.value)
    for _ in range(2):
        assert run(capsys, ORDER, path) == (1, "", f"error: {today.value}\n")
    if path.is_dir():
        path.rmdir()
    path.write_text(good)
    assert run(capsys, ORDER, path) == expected


def test_the_model_of_an_earlier_document_can_be_collected(tmp_path, capsys, fresh):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dump_model(make_builtin("si")))
    b.write_text(dump_model(make_builtin("logistic")))
    assert run(capsys, ("simulate", "--x0", "0.9,0.1", "--h", "0.4", "--steps", "3"), a)[0] == 0
    model_a = weakref.ref(nsfd.cli._last_document[1])
    assert run(capsys, ("step-bound",), b)[0] == 0
    gc.collect()
    assert model_a() is None


def test_order_and_stability_on_a_reused_model_run_the_interval_pass_once(tmp_path, capsys, fresh, monkeypatch):
    prop = MassActionModel.__dict__["_column_sups"]
    passes = []
    interval_pass = prop.func
    monkeypatch.setattr(prop, "func", lambda model: passes.append(model) or interval_pass(model))
    path = tmp_path / "host-vector.json"
    path.write_text(dump_model(make_host_vector()))
    assert [run(capsys, command, path)[0] for command in (ORDER, STABILITY)] == [0, 0]
    assert len(passes) == 1


def _interval_bound(model: MassActionModel) -> StepBoundReport:
    # The interval pass and the report, written out in Python floats.
    lo, hi = model.domain.box_lower.tolist(), model.domain.box_upper.tolist()
    s_lo = [[0.5 * v for v in row] for row in model.linear.tolist()]
    s_hi = [row[:] for row in s_lo]
    for t in model.bilinear:
        for col, var in ((t.k, t.j), (t.j, t.k)):
            a, b = 0.5 * t.c * lo[var], 0.5 * t.c * hi[var]
            s_lo[t.i][col] += min(a, b)
            s_hi[t.i][col] += max(a, b)
    u = [sum(max(abs(s_lo[i][j]), abs(s_hi[i][j])) for i in range(model.n)) for j in range(model.n)]
    limiting = u.index(max(u))
    capped = u[limiting] == 0.0 or 1.0 / u[limiting] > DEFAULT_H_MAX
    h_bar = DEFAULT_H_MAX if capped else 1.0 / u[limiting]
    return StepBoundReport(h_bar, tuple(enumerate(u)), limiting, capped)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_the_step_bound_report_equals_a_fresh_computation(name):
    model = make_builtin(name)
    reports = [step_bound(model), step_bound(model), step_bound(make_builtin(name))]
    assert reports == [_interval_bound(model)] * 3
    assert not model._column_sups.flags.writeable
    assert np.array_equal(model._column_sups, [u for _, u in reports[0].per_column])
