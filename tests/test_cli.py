"""Command-line surface: output formats, determinism, exit codes."""

import contextlib
import copy
import hashlib
import importlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import nsfd
from nsfd.analysis import observed_order
from nsfd.cli import main
from nsfd.integrator import integrate, step_bound
from nsfd.model import (
    BilinearTerm,
    Constraint,
    Domain,
    MassActionModel,
    dump_model,
    load_model,
    model_from_dict,
    model_to_dict,
)
from nsfd.invariance import continuous_tangent, discrete_tangent
from nsfd.models import BUILTIN_NAMES, make_builtin, make_logistic


@pytest.fixture(autouse=True)
def _clean_seed_env(monkeypatch):
    monkeypatch.delenv("NSFD_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_csv_shape(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--builtin", "logistic", "--x0", "0.5", "--h", "0.1", "--steps", "10"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,x"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.5


def test_simulate_full_precision_reparses_exactly(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--builtin", "logistic", "--x0", "0.5", "--h", "0.1", "--steps", "5"
    )
    assert code == 0
    from nsfd.integrator import integrate
    from nsfd.models import make_logistic

    traj = integrate(make_logistic(), np.array([0.5]), 0.1, 5)
    rows = out.strip().split("\n")[1:]
    for k, row in enumerate(rows):
        assert float(row.split(",")[1]) == traj.states[k, 0]


def test_simulate_runs_are_byte_identical(capsys):
    argv = ("simulate", "--builtin", "si", "--x0", "0.9,0.1", "--h", "0.25", "--steps", "20")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_simulate_warns_when_x0_is_outside_the_domain(capsys):
    argv = ("simulate", "--builtin", "logistic", "--h", "0.1", "--steps", "200", "--x0")
    code, out, err = run_cli(capsys, *argv, "-1")
    assert code == 0
    assert len(out.splitlines()) == 202
    assert err.startswith("warning: x0 lies outside the model's domain")
    assert len(err.splitlines()) == 1
    # an interior start and one on the boundary x = 0 do not warn
    for x0 in ("0.5", "0"):
        code, _, err = run_cli(capsys, *argv, x0)
        assert code == 0
        assert err == ""


@pytest.mark.parametrize(
    "x0, h, refusal",
    [
        ("-1", "0.1", "error: x0 lies outside the model's domain (margin -1); "),
        ("0.5", "3", "error: h=3 is not below the safe step bound h_bar=2\n"),
    ],
)
def test_simulate_strict_refuses_what_it_would_warn_about(capsys, tmp_path, x0, h, refusal):
    argv = ("simulate", "--builtin", "logistic", "--x0", x0, "--h", h, "--steps", "5")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert len(out.splitlines()) == 7
    assert err.startswith("warning: " + refusal[len("error: "):])
    target = tmp_path / "traj.csv"
    code, out, err = run_cli(capsys, *argv, "--strict", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(refusal)
    assert len(err.splitlines()) == 1
    assert not target.exists()


def test_simulate_strict_leaves_a_covered_run_unchanged(capsys):
    argv = ("simulate", "--builtin", "host-vector", "--x0", "9,0.5,9,0.5,0", "--h", "0.5", "--steps", "50")
    plain = run_cli(capsys, *argv)
    assert plain == run_cli(capsys, *argv, "--strict")
    assert plain[0] == 0 and plain[2] == ""
    # the comparison schemes have no step bound to refuse
    argv = ("simulate", "--builtin", "logistic", "--x0", "0.5", "--h", "3", "--steps", "5")
    assert run_cli(capsys, *argv, "--scheme", "rk4", "--strict")[0] == 0


def test_simulate_and_invariance_refuse_an_oversized_step_alike(capsys):
    sim = run_cli(capsys, "simulate", "--builtin", "host-vector", "--x0", "9,0.5,9,0.5,0",
                  "--h", "2", "--steps", "5", "--strict")
    inv = run_cli(capsys, "invariance", "--builtin", "host-vector", "--h", "2", "--strict")
    assert sim == inv == (1, "", "error: h=2 is not below the safe step bound h_bar=1.33333\n")


def test_simulate_zero_steps_single_row(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--builtin", "logistic", "--x0", "0.5", "--h", "0.1", "--steps", "0"
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_simulate_t_final_rounds_to_whole_steps(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--builtin", "logistic", "--x0", "0.5", "--h", "0.1",
        "--t-final", "1.04",
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 12  # header + 10 steps + start


def test_simulate_out_file(tmp_path, capsys):
    target = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--builtin", "logistic", "--x0", "0.5", "--h", "0.1",
        "--steps", "3", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("t,x\n")
    assert len(text.strip().split("\n")) == 5


def test_simulate_precision_flag(capsys):
    _, full, _ = run_cli(
        capsys, "simulate", "--builtin", "logistic", "--x0", "0.3", "--h", "0.1", "--steps", "1"
    )
    _, short, _ = run_cli(
        capsys, "simulate", "--builtin", "logistic", "--x0", "0.3", "--h", "0.1", "--steps", "1",
        "--precision", "3",
    )
    assert len(short) < len(full)
    assert "0.3" in short


def test_simulate_csv_rows_format_each_value(tmp_path, capsys):
    # a zero component, values near 1e-300 and times up to 5e6
    slow = MassActionModel(
        n=3,
        bilinear=(),
        linear=np.diag([0.0, -1e-6, -3e-7]),
        constant=np.zeros(3),
        domain=Domain(nonnegative=(True,) * 3, constraints=(Constraint((1.0, 1.0, 1.0), 10.0),)),
        labels=("zero", "tiny", "x"),
        name="slow-decay",
    )
    path = tmp_path / "slow.json"
    path.write_text(dump_model(slow))
    x0 = np.array([0.0, 1e-300, 2.0])
    traj = integrate(load_model(path), x0, 1e5, 50)
    assert traj.times[-1] == 5e6
    for p in (1, 6, 17):
        target = tmp_path / f"traj{p}.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--model", str(path), "--x0", "0,1e-300,2", "--h", "1e5",
            "--steps", "50", "--precision", str(p), "--out", str(target),
        )
        assert code == 0 and out == ""
        lines = target.read_text().split("\n")
        assert lines[0] == "t,zero,tiny,x" and lines[-1] == ""
        expected = [
            ",".join(format(float(v), f".{p}g") for v in (t, *row))
            for t, row in zip(traj.times, traj.states)
        ]
        assert lines[1:-1] == expected
        if p == 17:
            parsed = np.array([[float(c) for c in line.split(",")[1:]] for line in lines[1:-1]])
            assert np.array_equal(parsed, traj.states)


@pytest.mark.parametrize("p", range(1, 18))
def test_simulate_rows_across_the_blocks_format_each_value(tmp_path, capsys, host_vector, p):
    # 2,100 rows are joined in blocks of 1024; every value is printed as alone
    traj = integrate(host_vector, np.array([4.0, 2.0, 3.0, 1.0, 1.0]), 0.5, 2099)
    target = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--builtin", "host-vector", "--x0", "4,2,3,1,1", "--h", "0.5",
        "--steps", "2099", "--precision", str(p), "--out", str(target),
    )
    assert code == 0
    expected = [",".join(format(float(v), f".{p}g") for v in (t, *row)) for t, row in zip(traj.times, traj.states)]
    assert target.read_text().split("\n") == ["t,S_v,I_v,S,I,R", *expected, ""]


@pytest.mark.parametrize(
    "p, digest", [(17, "b162c93473622a4fdff5f2ab0d9c16ca"), (3, "b8bfe67a735c531451be297f1db635f8")]
)
def test_simulate_written_block_by_block_prints_the_whole_text(tmp_path, capsys, host_vector, p, digest):
    # 2,100 rows go out in three blocks, to stdout and to --out alike; the
    # digests are those of the text when it was joined whole and written once
    argv = ["simulate", "--builtin", "host-vector", "--x0", "4,2,3,1,1", "--h", "0.5", "--steps", "2099",
            "--precision", str(p)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    traj = integrate(host_vector, np.array([4.0, 2.0, 3.0, 1.0, 1.0]), 0.5, 2099)
    rows = [",".join(format(float(v), f".{p}g") for v in (t, *row)) for t, row in zip(traj.times, traj.states)]
    assert out == "\n".join(["t,S_v,I_v,S,I,R", *rows]) + "\n"
    assert hashlib.md5(out.encode()).hexdigest() == digest
    target = tmp_path / "traj.csv"
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text() == out


@pytest.mark.parametrize("rows", [1023, 1024, 1025])
@pytest.mark.parametrize("p", [1, 6, 17])
def test_simulate_blocks_print_the_bytes_of_one_format_per_row(tmp_path, capsys, host_vector, rows, p):
    # One % per 1024-row block prints what one % per row printed, on orbits
    # that end just inside, at and just past a block, from an x0 with a -0.0.
    traj = integrate(host_vector, np.array([4.0, 2.0, 3.0, -0.0, 1.0]), 0.5, rows - 1)
    fmt = ",".join([f"%.{p}g"] * 6) + "\n"
    want = "t,S_v,I_v,S,I,R\n" + "".join([fmt % (t, *row.tolist()) for t, row in zip(traj.times, traj.states)])
    assert want.split("\n")[1] == "0,4,2,3,-0,1"
    target = tmp_path / "traj.csv"
    code, out, err = run_cli(
        capsys, "simulate", "--builtin", "host-vector", "--x0", "4,2,3,-0,1", "--h", "0.5",
        "--steps", str(rows - 1), "--precision", str(p), "--out", str(target),
    )
    assert (code, out, err) == (0, "", "")
    assert target.read_bytes() == want.encode()


@pytest.mark.parametrize("where", ["missing", "full"])
def test_simulate_that_cannot_write_its_blocks_says_so(tmp_path, capsys, where):
    # a file that cannot be opened, or a device that fails the writes of the blocks
    target = tmp_path / "missing" / "traj.csv" if where == "missing" else Path("/dev/full")
    if where == "full" and not target.exists():
        pytest.skip("no /dev/full")
    code, out, err = run_cli(
        capsys, "simulate", "--builtin", "host-vector", "--x0", "4,2,3,1,1", "--h", "0.5", "--steps", "2099",
        "--out", str(target),
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_simulate_header_uses_model_labels(capsys):
    _, out, _ = run_cli(
        capsys, "simulate", "--builtin", "host-vector", "--x0", "9,0.5,9,0.5,0",
        "--h", "0.5", "--steps", "1",
    )
    assert out.split("\n")[0] == "t,S_v,I_v,S,I,R"


def test_simulate_warns_above_bound_but_runs(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--builtin", "logistic", "--x0", "0.9", "--h", "2.5", "--steps", "3"
    )
    assert code == 0
    assert "h_bar" in err
    assert len(out.strip().split("\n")) == 5


def test_simulate_checks_x0_before_the_step_size_caution(capsys):
    # a malformed x0 is refused in its one error line, with no caution
    # about an h the run never takes
    code, out, err = run_cli(
        capsys, "simulate", "--builtin", "logistic", "--x0", "0.5,1", "--h", "5", "--steps", "3"
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: state must have shape (1,), got (2,)"]


def test_simulate_trapezoidal_overflow_is_a_numerical_failure(capsys):
    # the overflowing first Newton guess fails as euler's and rk4's
    # overflows do, after the caution about the start outside the domain
    code, out, err = run_cli(
        capsys, "simulate", "--builtin", "logistic", "--x0", "1e200", "--h", "1", "--steps", "3",
        "--scheme", "trapezoidal",
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "warning: x0 lies outside the model's domain (margin -1e+200); "
        "the invariance guarantees do not cover this run",
        "numerical failure: step 0: state is not finite",
    ]


def test_simulate_euler_scheme_has_no_bound_warning(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--builtin", "logistic", "--x0", "0.9", "--h", "2.5",
        "--steps", "3", "--scheme", "euler",
    )
    assert code == 0
    assert err == ""


def test_simulate_argument_errors_exit_one(capsys):
    bad_argvs = [
        ("simulate", "--builtin", "logistic", "--x0", "0.5", "--h", "0.1"),
        ("simulate", "--builtin", "logistic", "--x0", "0.5", "--h", "0.1",
         "--steps", "3", "--t-final", "1.0"),
        ("simulate", "--builtin", "logistic", "--x0", "0.5", "--h", "-0.1", "--steps", "3"),
        ("simulate", "--builtin", "logistic", "--x0", "abc", "--h", "0.1", "--steps", "3"),
        ("simulate", "--builtin", "logistic", "--x0", "0.5,0.5", "--h", "0.1", "--steps", "3"),
        ("simulate", "--builtin", "nope", "--x0", "0.5", "--h", "0.1", "--steps", "3"),
        ("simulate", "--x0", "0.5", "--h", "0.1", "--steps", "3"),
    ]
    for argv in bad_argvs:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err, argv


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert err


def test_no_subcommand_exits_one(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_malformed_model_file_exits_one_without_output(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{this is not json")
    target = tmp_path / "traj.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--model", str(bad), "--x0", "0.5", "--h", "0.1",
        "--steps", "3", "--out", str(target),
    )
    assert code == 1
    assert "error:" in err
    assert not target.exists()


_SI_TEXT = dump_model(make_builtin("si")).encode()
_LINEAR = "linear part must be an array of real numbers with shape (2, 2)"
_CONSTANT = "constant part must be an array of real numbers with shape (2,)"


def _si_with(**fields):
    return json.dumps({**model_to_dict(make_builtin("si")), **fields}).encode()


@pytest.mark.parametrize(
    "raw, message",
    [
        (_si_with(linear=[[0.0, 0.0], [0.0]]), _LINEAR),
        (_si_with(linear=[[0.0, "x"], [0.0, 0.0]]), _LINEAR),
        (_si_with(constant=[0.0, {"a": 1}]), _CONSTANT),
        (_si_with(constant="abc"), _CONSTANT),
        (_si_with(constant=["1.5", "0"]), _CONSTANT),
        (_si_with(linear=[[True, 0.0], [0.0, 0.0]]), _LINEAR),
        (_si_with(domain={"nonnegative": True, "constraints": 1}), "constraints must be a list"),
        (_SI_TEXT.replace(b'"c": -1.0', b'"c": ' + b"1" * 400, 1), "bilinear[0].c must be finite, got inf"),
        (_SI_TEXT.replace(b'"c": -1.0', b'"c": ' + b"1" * 5000, 1), "is not valid JSON"),
        (_SI_TEXT.replace(b'"name": "si"', b'"name": "s\xff"'), "is not valid JSON"),
    ],
    ids=[
        "ragged-row", "string-entry", "object-entry", "string-array", "numeric-strings",
        "boolean-entry", "constraints-not-a-list",
        "int-beyond-float", "int-beyond-digit-limit", "undecodable-bytes",
    ],
)
def test_malformed_model_files_exit_one_in_one_line(tmp_path, capsys, raw, message):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, "validate", "--model", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_numerical_failure_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--builtin", "host-vector", "--x0", "10,0,10,0,0",
        "--h", "3.0", "--steps", "3",
    )
    assert code == 2
    assert "numerical failure" in err
    assert "step 0" in err


def test_exported_model_file_matches_builtin(tmp_path, capsys):
    path = tmp_path / "hv.json"
    code, _, _ = run_cli(capsys, "export-model", "--builtin", "host-vector", "--out", str(path))
    assert code == 0
    argv_tail = ("--x0", "9,0.5,9,0.5,0", "--h", "0.5", "--steps", "10")
    _, from_file, _ = run_cli(capsys, "simulate", "--model", str(path), *argv_tail)
    _, from_builtin, _ = run_cli(capsys, "simulate", "--builtin", "host-vector", *argv_tail)
    assert from_file == from_builtin


def test_export_model_stdout_is_loadable(capsys):
    code, out, _ = run_cli(capsys, "export-model", "--builtin", "si")
    assert code == 0
    model = model_from_dict(json.loads(out))
    assert model.name == "si"
    assert model.labels == ("S", "I")


def test_export_model_applies_parameter_overrides(capsys):
    code, out, _ = run_cli(
        capsys, "export-model", "--builtin", "host-vector", "--param", "M_v=12"
    )
    assert code == 0
    model = model_from_dict(json.loads(out))
    assert model.domain.constraints[0].bound == 12.0


def test_param_rejected_with_model_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    run_cli(capsys, "export-model", "--builtin", "logistic", "--out", str(path))
    code, _, err = run_cli(
        capsys, "simulate", "--model", str(path), "--param", "r=2", "--x0", "0.5",
        "--h", "0.1", "--steps", "1",
    )
    assert code == 1
    assert err


def test_step_bound_json(capsys):
    code, out, _ = run_cli(capsys, "step-bound", "--builtin", "logistic")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "logistic"
    assert doc["h_bar"] == 2.0
    assert doc["capped"] is False
    # canonical form: sorted keys, two-space indent, trailing newline
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_step_bound_host_vector_value(capsys):
    _, out, _ = run_cli(capsys, "step-bound", "--builtin", "host-vector")
    doc = json.loads(out)
    assert doc["h_bar"] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert doc["limiting_column"] == 3


def test_order_json_and_band(capsys):
    code, out, _ = run_cli(
        capsys, "order", "--builtin", "logistic", "--x0", "0.5", "--t-final", "1.0", "--h", "0.1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["defined"] is True
    assert 1.9 <= doc["p_hat"] <= 2.1
    assert doc["scheme"] == "nsfd"


def test_order_above_the_bound_warns_in_one_line(capsys):
    # the library's RuntimeWarning, with its source lines, must not reach stderr
    argv = ("order", "--builtin", "logistic", "--x0", "0.5", "--t-final", "5", "--h", "5")
    done = _run_entry_point(sys.executable, "-m", "nsfd", *argv)
    assert done.returncode == 0
    assert done.stderr == "warning: h=5 is not below the safe step bound h_bar=2\n"
    # the caution only warns, so --strict still judges the estimate alone
    code, out, err = run_cli(capsys, *argv, "--strict")
    assert (code, err) == (0, done.stderr)
    assert done.stdout == out
    # the library still warns; the report is its estimate, unchanged
    with pytest.warns(RuntimeWarning, match="not below the safe bound"):
        est = observed_order(make_logistic(), np.array([0.5]), 5.0, 5.0)
    assert json.loads(out) == {
        "defined": True,
        "error_h": est.error_h,
        "error_h2": est.error_h2,
        "h": 5.0,
        "model": "logistic",
        "p_hat": est.p_hat,
        "scheme": "nsfd",
        "t_effective": 5.0,
    }


@pytest.mark.parametrize("x0, margin", [("2", "-1"), ("-0.5", "-0.5")])
def test_order_warns_when_x0_is_outside_the_domain(capsys, x0, margin):
    # After the run, as simulate and reversibility --x0 warn; the caution
    # only warns, so --strict still judges the estimate alone.
    argv = ("order", "--builtin", "logistic", "--t-final", "1", "--h", "0.1", "--x0")
    code, out, err = run_cli(capsys, *argv, x0)
    assert code == 0
    assert json.loads(out)["defined"] is True
    assert err.splitlines() == [
        f"warning: x0 lies outside the model's domain (margin {margin}); "
        "the invariance guarantees do not cover this run"
    ]
    assert run_cli(capsys, *argv, x0, "--strict") == (0, out, err)
    # a start inside, or on the boundary x = 0, stays silent
    for x0 in ("0.5", "0"):
        assert run_cli(capsys, *argv, x0)[::2] == (0, "")


def test_order_names_the_run_that_fails(capsys):
    # Both nsfd runs from 1e300 finish and the RK4 reference overflows; a
    # run that fails prints only its error line, before any caution.
    argv = ("order", "--builtin", "logistic", "--x0", "1e300", "--t-final", "1", "--h", "0.1")
    assert run_cli(capsys, *argv) == (2, "", "numerical failure: reference run at h/200: step 0: state is not finite\n")


@pytest.mark.parametrize("t_final, h, shown", [("0.01", "0.1", "0.1"), ("12000", "1e200", "1e+200")])
def test_order_refuses_a_horizon_that_holds_no_step(capsys, t_final, h, shown):
    # T / h rounds to 0 steps: an estimate would be made over some other horizon.
    argv = ("order", "--builtin", "logistic", "--x0", "0.5", "--t-final", t_final, "--h", h)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: horizon T={t_final} holds no step of size h={shown}; use a smaller h or a longer horizon\n"


def test_order_refuses_a_reference_beyond_its_step_limit(capsys):
    # The RK4 reference at h/200 would take 4,000,000 steps.
    argv = ("order", "--builtin", "logistic", "--x0", "0.5", "--t-final", "0.2", "--h", "1e-5")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        "error: the reference run at h/200 would take 4000000 steps, more than 200000; "
        "use a larger h or a shorter horizon\n"
    )


def test_invariance_checks_the_discrete_tangent_above_a_capped_step_bound(tmp_path, capsys):
    # With a zero field, step_bound caps h_bar at its ceiling and admits
    # every h: the discrete check must run at h = 2e6 as the audit does.
    still = MassActionModel(
        n=1,
        bilinear=(),
        linear=np.zeros((1, 1)),
        constant=np.zeros(1),
        domain=Domain(nonnegative=(True,), constraints=(Constraint((1.0,), 1.0),)),
        labels=("x",),
        name="still",
    )
    path = tmp_path / "still.json"
    path.write_text(dump_model(still))
    code, out, err = run_cli(
        capsys, "invariance", "--model", str(path), "--h", "2e6", "--trials", "2", "--steps", "2"
    )
    assert (code, err) == (0, ""), err
    doc = json.loads(out)
    assert doc["discrete_tangent"] is not None
    assert doc["discrete_tangent"]["passed"]


def test_order_degenerate_strict_exits_three(capsys):
    argv = ("order", "--builtin", "logistic", "--x0", "1.0", "--t-final", "1.0", "--h", "0.1")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["defined"] is False
    code, out, _ = run_cli(capsys, *argv, "--strict")
    assert code == 3


def test_stability_refines_seed_and_reports(capsys):
    code, out, _ = run_cli(
        capsys, "stability", "--builtin", "logistic", "--x0", "0.9", "--h", "0.1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["equilibrium"][0] == pytest.approx(1.0, abs=1e-8)
    assert doc["all_consistent"] is True
    row = doc["rows"][0]
    assert row["lambda"]["re"] == pytest.approx(-1.0, abs=1e-9)
    assert row["consistent"] is True


def test_stability_newton_overflow_is_a_numerical_failure(capsys):
    # the overflowing Newton iterate is the run's failure, not a bad argument
    code, out, err = run_cli(
        capsys, "stability", "--builtin", "logistic", "--x0", "1e200", "--h", "0.1"
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == ["numerical failure: Newton iteration from seed 0: state is not finite"]


@pytest.mark.parametrize(
    "x0, ending",
    [
        # the field Jacobian is singular at the seed itself
        ("0.5", "status 'singular', residual 2.500e-01"),
        # the field overflows to -inf at the seed, and its Jacobian overflows
        ("1e308", "status 'singular', residual inf"),
        ("1e154", "status 'no-convergence', residual 7.889e+277"),
    ],
)
def test_stability_without_an_equilibrium_is_a_numerical_failure(capsys, x0, ending):
    code, out, err = run_cli(capsys, "stability", "--builtin", "logistic", "--x0", x0, "--h", "0.1")
    assert (code, out) == (2, "")
    assert err == f"numerical failure: no equilibrium found from --x0: Newton {ending}\n"


@pytest.mark.parametrize("x0", ["0.5", "1"])
@pytest.mark.parametrize("h", ["-1", "inf", "0"])
def test_stability_refuses_a_bad_h_before_the_newton_run(capsys, x0, h):
    # 0.5 finds no equilibrium and 1 is one: a bad --h is the same input
    # error from either
    code, out, err = run_cli(capsys, "stability", "--builtin", "logistic", "--x0", x0, "--h", h)
    assert (code, out) == (1, "")
    assert err == f"error: h must be positive and finite, got {float(h)}\n"


@pytest.mark.parametrize("source", ["builtin", "model"])
def test_stability_refuses_a_non_finite_field_jacobian(tmp_path, capsys, source):
    # the entry coefficient -r/K, taken from P and from Q, overflows to
    # -inf at x = 1; two terms of -1e308 on one entry overflow so too, and
    # x = 0 reads 0 * -inf
    if source == "builtin":
        argv = ["--builtin", "logistic", "--param", "r=1e308", "--x0", "1"]
    else:
        path = tmp_path / "overflowing.json"
        terms = (BilinearTerm(0, 0, 0, -1e308),) * 2
        path.write_text(dump_model(MassActionModel(1, terms, [[0.0]], [0.0], Domain((True,)), ("x",))))
        argv = ["--model", str(path), "--x0", "0"]
    code, out, err = run_cli(capsys, "stability", *argv, "--h", "0.1")
    assert (code, out) == (2, "")
    assert err == "numerical failure: the field Jacobian is not finite at the equilibrium\n"


def test_stability_on_an_equilibrium_continuum_still_reports(capsys):
    # every (S, 0) is an equilibrium: Newton reports 'singular' at residual 0
    code, out, err = run_cli(capsys, "stability", "--builtin", "si", "--x0", "1,0", "--h", "0.1")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["equilibrium_status"] == "singular"
    assert doc["equilibrium"] == [1.0, 0.0]


def test_stability_host_vector_dfe(capsys):
    code, out, _ = run_cli(
        capsys, "stability", "--builtin", "host-vector", "--x0", "10,0,10,0,0", "--h", "0.5"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 5
    assert doc["all_consistent"] is True


def test_stability_above_32_dimensions(tmp_path, capsys, metapop_sir):
    # 11 patches in a ring, each infected by itself and its predecessor
    sources = [((p, 0.02), ((p - 1) % 11, 0.01)) for p in range(11)]
    path = tmp_path / "sir33.json"
    path.write_text(dump_model(metapop_sir(sources, mu=0.1)))
    dfe = ",".join(["10,0,0"] * 11)
    code, out, err = run_cli(capsys, "stability", "--model", str(path), "--x0", dfe, "--h", "0.5")
    assert code == 0, err
    assert "Traceback" not in err
    doc = json.loads(out)
    assert len(doc["rows"]) == 33
    assert doc["all_consistent"] is True


def test_invariance_json_sections(capsys):
    code, out, _ = run_cli(
        capsys, "invariance", "--builtin", "host-vector", "--h", "0.5",
        "--trials", "5", "--steps", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["audit"]["exit_count"] == 0
    assert doc["continuous_tangent"]["passed"] is True
    assert doc["discrete_tangent"]["passed"] is True


def test_invariance_strict_rejects_oversized_step(capsys):
    code, _, err = run_cli(
        capsys, "invariance", "--builtin", "host-vector", "--h", "2.0", "--strict"
    )
    assert code == 1
    assert "h_bar" in err


def test_invariance_oversized_step_warns_and_skips_backward_check(capsys):
    code, out, err = run_cli(
        capsys, "invariance", "--builtin", "host-vector", "--h", "2.0",
        "--trials", "5", "--steps", "5",
    )
    assert code == 0
    assert "warning:" in err
    assert json.loads(out)["discrete_tangent"] is None


def test_invariance_euler_comparison(capsys):
    code, out, _ = run_cli(
        capsys, "invariance", "--builtin", "host-vector", "--h", "5.0",
        "--scheme", "euler", "--trials", "10", "--steps", "10",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["audit"]["exit_count"] > 0
    assert doc["discrete_tangent"] is None


def test_invariance_euler_strict_exits_three(capsys):
    code, out, _ = run_cli(
        capsys, "invariance", "--builtin", "host-vector", "--h", "5.0",
        "--scheme", "euler", "--trials", "10", "--steps", "10", "--strict",
    )
    assert code == 3
    assert json.loads(out)["audit"]["exit_count"] > 0


@pytest.mark.parametrize(
    "argv",
    [("invariance", "--steps", "5", "--scheme", scheme) for scheme in ("nsfd", "euler", "rk4")]
    + [("reversibility",)],
    ids=["nsfd", "euler", "rk4", "reversibility"],
)
@pytest.mark.parametrize("h", ["0", "-1", "nan", "inf"])
def test_invariance_refuses_a_step_size_that_is_not_positive_and_finite(capsys, argv, h):
    code, out, err = run_cli(
        capsys, argv[0], "--builtin", "host-vector", "--h", h, "--trials", "5", *argv[1:]
    )
    assert (code, out) == (1, "")
    assert err == f"error: h must be positive and finite, got {float(h)}\n"


def test_invariance_tangent_reports_match_the_library(capsys):
    # each tangent check draws its own boundary sample from the seed, as
    # the library's checks do at the same count and seed
    code, out, _ = run_cli(
        capsys, "invariance", "--builtin", "host-vector", "--h", "0.5", "--trials", "5",
        "--steps", "5", "--tangent-samples", "40", "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    host_vector = make_builtin("host-vector")
    for key, report in (
        ("continuous_tangent", continuous_tangent(host_vector, count=40, seed=3)),
        ("discrete_tangent", discrete_tangent(host_vector, h=0.5, count=40, seed=3)),
    ):
        assert doc[key]["samples"] == 40
        assert doc[key]["worst_value"] == report.worst_value
        assert doc[key]["worst_point"] == report.worst_point.tolist()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("invariance", "--builtin", "host-vector", "--h", "0.5", "--tangent-samples", "0"),
         "--tangent-samples"),
        (("reversibility", "--builtin", "si", "--h", "0.4", "--trials", "0"), "--trials"),
    ],
)
def test_count_errors_name_the_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {flag} must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "argv, passed",
    [
        (("invariance", "--h", "0.5", "--trials", "50", "--steps", "50"),
         lambda doc: doc["audit"]["exit_count"] == 0 and doc["discrete_tangent"]["passed"]),
        (("reversibility", "--h", "0.5", "--trials", "100"), lambda doc: doc["passed"]),
    ],
)
def test_checks_run_on_a_capped_network(tmp_path, capsys, sir_network, argv, passed):
    # Box rejection accepts about (1/6)^4 of draws on these 4 capped patches.
    path = tmp_path / "sir4.json"
    path.write_text(dump_model(sir_network))
    code, out, err = run_cli(capsys, argv[0], "--model", str(path), *argv[1:])
    assert (code, err) == (0, ""), err
    assert passed(json.loads(out)) is True


@pytest.mark.parametrize(
    "caps",
    [
        # The face x = 1 of the second cap meets x + y <= 1 only at (1, 0):
        # the boundary sample skips it instead of failing the run.
        (Constraint((1.0, 1.0), 1.0), Constraint((1.0, 0.0), 1.0)),
        # Facet 11 of either domain is the face of a cap that shares its
        # support with the other cap: x_0 = 0.5 beside sum x <= 1, and
        # x_0 + x_1 = 1 beside x_0 + x_2 + ... + x_10 <= 0.9.
        (Constraint((1.0,) * 10, 1.0), Constraint((1.0,) + (0.0,) * 9, 0.5)),
        (Constraint((1.0, 1.0) + (0.0,) * 9, 1.0), Constraint((1.0, 0.0) + (1.0,) * 9, 0.9)),
        # Facet 5 is thin: x_0 + x_1 = 1.875 needs x_1 >= 0.875.
        (
            Constraint((1.0, 1.0, 0.0, 0.0, 0.0), 1.875),
            Constraint((1.0, 0.0, 1.0, 1.0, 1.0), 1.0),
            Constraint((0.0, 1.0, 0.0, 0.0, 0.0), 1.0),
        ),
        # x_0 <= 0.5 / 0.83 cuts off the faces of the first two caps.
        (
            Constraint((2.0, 0.558), 2.0),
            Constraint((2.0, 0.0), 2.536),
            Constraint((0.83, 0.0), 0.5),
            Constraint((0.0, 2.0), 1.0),
        ),
    ],
    ids=["x+y<=1,x<=1", "tightened-simplex", "simplex-behind-a-wider-cap", "thin-face", "cut-off-faces"],
)
def test_invariance_runs_on_a_cap_whose_face_touches_the_domain_in_one_point(tmp_path, capsys, caps):
    n = len(caps[0].normal)
    decay = MassActionModel(
        n=n,
        bilinear=(),
        linear=-np.diag(1.0 / (1.0 + np.arange(n) % 2)),
        constant=np.zeros(n),
        domain=Domain(nonnegative=(True,) * n, constraints=caps),
        labels=tuple(f"x{i}" for i in range(n)),
        name="capped-decay",
    )
    path = tmp_path / "decay.json"
    path.write_text(dump_model(decay))
    code, out, err = run_cli(
        capsys, "invariance", "--model", str(path), "--h", "0.1", "--trials", "8",
        "--steps", "8", "--tangent-samples", "12", "--seed", "0",
    )
    assert (code, err) == (0, ""), err
    doc = json.loads(out)
    assert doc["continuous_tangent"]["passed"] and doc["discrete_tangent"]["passed"]


def test_invariance_same_seed_is_byte_identical(capsys):
    argv = (
        "invariance", "--builtin", "si", "--h", "0.5", "--trials", "8", "--steps", "8",
        "--seed", "42",
    )
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_reversibility_report(capsys):
    code, out, _ = run_cli(
        capsys, "reversibility", "--builtin", "logistic", "--h", "0.5", "--trials", "20"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["max_residual"] <= doc["tolerance"] * 2  # residual is tiny anyway
    assert doc["trials"] == 20


def test_reversibility_fixed_point_is_exact(capsys):
    code, out, _ = run_cli(
        capsys, "reversibility", "--builtin", "logistic", "--h", "0.5", "--x0", "1.0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["max_residual"] == 0.0


def test_reversibility_warns_when_x0_is_outside_the_domain(capsys):
    argv = ("reversibility", "--builtin", "logistic", "--h", "0.1", "--x0")
    _, inside, _ = run_cli(capsys, *argv, "0.5")
    code, out, err = run_cli(capsys, *argv, "2")
    assert code == 0
    assert json.loads(out)["worst_state"] == [2.0]
    assert err.splitlines() == [
        "warning: x0 lies outside the model's domain (margin -1); "
        "the invariance guarantees do not cover this run"
    ]
    # a start inside stays silent
    assert run_cli(capsys, *argv, "0.5") == (0, inside, "")


def test_reversibility_strict_refuses_x0_outside_the_domain(capsys):
    code, out, err = run_cli(
        capsys, "reversibility", "--builtin", "logistic", "--h", "0.1", "--x0", "2", "--strict"
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: x0 lies outside the model's domain (margin -1); "
        "the invariance guarantees do not cover this run"
    ]


@pytest.mark.parametrize(
    "x0, message", [("0.5,0.2", "state must have shape (1,), got (2,)"), ("nan", "state must have finite entries")]
)
def test_reversibility_reports_a_bad_x0_as_simulate_does(capsys, x0, message):
    # As one state, not as a batch that the user never gave.
    for argv in (("reversibility",), ("simulate", "--steps", "1")):
        code, out, err = run_cli(capsys, *argv, "--builtin", "logistic", "--h", "0.1", "--x0", x0)
        assert (code, out, err) == (1, "", f"error: {message}\n"), argv[0]


@pytest.mark.parametrize("x0", ["nan,0.1", "0.9,inf"])
def test_reversibility_non_finite_x0_exits_one(capsys, x0):
    code, out, err = run_cli(capsys, "reversibility", "--builtin", "si", "--h", "0.4", "--x0", x0)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "finite" in err
    assert "numerical failure" not in err


# x' = x: from 1e308 the first nsfd step at h = 1 overflows to inf.
GROW = {
    "name": "grow", "dim": 1, "labels": ["x"], "bilinear": [], "linear": [[1.0]], "constant": [0.0],
    "domain": {"nonnegative": True, "constraints": []},
}


@pytest.mark.parametrize(
    "argv, failure",
    [
        *[(("simulate", "--steps", steps), "step 0: state is not finite") for steps in ("1", "2", "3")],
        (("order", "--t-final", "2"), "run at h: step 0: state is not finite"),
        (("reversibility",), "forward step: state is not finite"),
    ],
)
def test_an_overflowing_nsfd_step_is_a_numerical_failure_that_names_it(tmp_path, capsys, argv, failure):
    # The step after the overflow would refuse its start as an input error;
    # the failure is the overflowing step's, as with one step.
    path = tmp_path / "grow.json"
    path.write_text(json.dumps(GROW))
    argv = (*argv, "--model", str(path), "--x0", "1e308", "--h", "1")
    assert run_cli(capsys, *argv) == (2, "", f"numerical failure: {failure}\n")


def test_reversibility_names_the_sample_whose_forward_step_overflows(tmp_path, capsys):
    # Samples up to the cap 1.7e308 step to 1.5 x / 0.5, which overflows
    # from 1.2e308 on.
    path = tmp_path / "grow.json"
    path.write_text(json.dumps({**GROW, "domain": {"nonnegative": True, "constraints": [{"normal": [1.0], "bound": 1.7e308}]}}))
    code, out, err = run_cli(capsys, "reversibility", "--model", str(path), "--h", "1", "--trials", "20")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"numerical failure: forward step of batch state \d+: state is not finite\n", err)


def test_reversibility_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("NSFD_SEED", "7")
    _, out, _ = run_cli(capsys, "reversibility", "--builtin", "si", "--h", "0.4")
    assert json.loads(out)["seed"] == 7


def test_seed_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("NSFD_SEED", "7")
    _, out, _ = run_cli(capsys, "reversibility", "--builtin", "si", "--h", "0.4", "--seed", "3")
    assert json.loads(out)["seed"] == 3


def test_invalid_seed_environment_exits_one(capsys, monkeypatch):
    for raw in ("not-a-number", "-1"):
        monkeypatch.setenv("NSFD_SEED", raw)
        code, _, err = run_cli(capsys, "reversibility", "--builtin", "si", "--h", "0.4")
        assert code == 1
        assert "NSFD_SEED" in err
        assert len(err.splitlines()) == 1


TOO_MANY = "1000000000000000000"  # 10**18 five-state rows: above 2**63 bytes


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--builtin", "logistic", "--x0", "0.5", "--h", "0.1", "--t-final", "1e308"),
        ("order", "--builtin", "logistic", "--x0", "0.5", "--t-final", "1e308", "--h", "0.1"),
        ("simulate", "--builtin", "logistic", "--x0", "0.5", "--h", "1e-300", "--t-final", "1"),
        ("invariance", "--builtin", "host-vector", "--h", "0.5", "--trials", TOO_MANY),
        ("reversibility", "--builtin", "host-vector", "--h", "0.5", "--trials", TOO_MANY),
        ("invariance", "--builtin", "host-vector", "--h", "0.5", "--seed", "-1"),
        ("reversibility", "--builtin", "host-vector", "--h", "0.5", "--seed", "-1"),
    ],
)
def test_unrunnable_sizes_and_seeds_exit_one(capsys, argv):
    # each is refused before anything is allocated: numpy refuses arrays
    # above 2**63 bytes without trying
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, err):
    # Exit 1 or 2 ends stderr in its one error line; any other line, and
    # every line of a run that exits 0 or 3, is a caution.
    assert code in (0, 1, 2, 3)
    lines = err.splitlines()
    failures = [line for line in lines if line.startswith(("error:", "numerical failure:"))]
    assert len(failures) == (code in (1, 2))
    assert all(line.startswith("warning:") for line in lines[: len(lines) - len(failures)])
    assert "Traceback" not in err


# Each value is drawn from the odd or the plain list with equal odds, so
# that many runs get past their input checks.
_ODD_H = ["0", "-1", "nan", "inf", "-inf", "1e300", "1e-300"]
_H = st.sampled_from(_ODD_H) | st.sampled_from(["0.1", "0.5", "4"])
_VALUES = st.sampled_from(["-1", "1e308", "1e-300", "nan", "inf"]) | st.sampled_from(["0", "0.5", "1", "10"])
_COMMANDS = ("simulate", "order", "stability", "invariance", "reversibility", "validate", "step-bound")
_PARAMS = {"logistic": ("r", "K"), "si": ("beta", "N"), "host-vector": ("mu", "M_v")}


def _command_args(draw, command, dim):
    """The arguments of ``command`` after its model, small enough to run fast."""
    length = draw(st.sampled_from([dim, dim, dim + 1, dim + 2]))
    x0 = ",".join(draw(st.lists(_VALUES, min_size=length, max_size=length)))
    h = draw(_H)
    if command == "simulate":
        scheme = draw(st.sampled_from(["nsfd", "euler", "rk4", "trapezoidal"]))
        return [f"--x0={x0}", f"--h={h}", f"--steps={draw(st.integers(0, 3))}", f"--scheme={scheme}"]
    if command == "order":
        return [f"--x0={x0}", "--t-final=0.2", f"--h={h}"]
    if command == "stability":
        return [f"--x0={x0}", f"--h={h}"]
    if command == "invariance":
        scheme = draw(st.sampled_from(["nsfd", "euler", "rk4"]))
        return [f"--h={h}", "--trials=3", "--steps=3", "--tangent-samples=4", f"--scheme={scheme}"]
    if command == "reversibility":
        return [f"--h={h}", f"--x0={x0}"] if draw(st.booleans()) else [f"--h={h}", "--trials=3"]
    return []


@st.composite
def _flag_argv(draw):
    command = draw(st.sampled_from(_COMMANDS))
    name = draw(st.sampled_from(BUILTIN_NAMES))
    argv = [command, f"--builtin={name}"]
    names = st.sampled_from(_PARAMS[name] + ("bogus",))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        argv.append(f"--param={draw(names)}={draw(_VALUES)}")
    argv += _command_args(draw, command, make_builtin(name).n)
    if command not in ("validate", "step-bound") and draw(st.booleans()):
        argv.append("--strict")
    return argv


@seed(61)
@settings(max_examples=60)
@given(argv=_flag_argv())
def test_generated_flags_end_in_an_exit_code_and_at_most_one_error_line(argv):
    code, _, err = _run_in_process(argv)
    _assert_clean_exit(code, err)


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


# Copied on each draw, because a later mutation may edit a drawn list.
_JUNK = st.sampled_from(
    ["x", "", 1, -1, 0.5, 10**400, float("nan"), True, None]
    + [[], {}, [[0.0, 0.0], [0.0]], [0.0, "a"], {"k": 1}]
).map(copy.deepcopy)


@st.composite
def _mutated_model(draw):
    """A built-in's model document with one or two keys or entries broken."""
    name = draw(st.sampled_from(BUILTIN_NAMES))
    doc = model_to_dict(make_builtin(name))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else doc
        kind = draw(st.sampled_from(["replace", "delete", "add"]))
        # A list that loses or gains an entry may be a ragged row.
        if kind == "add" and isinstance(node, dict):
            node["unknown"] = draw(_JUNK)
        elif kind == "add" and isinstance(node, list):
            node.append(draw(_JUNK))
        elif kind == "delete" and path:
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = draw(_JUNK)
    return name, doc


@seed(62)
@settings(max_examples=60)
@given(model=_mutated_model(), command=st.sampled_from(_COMMANDS), data=st.data())
def test_generated_model_files_end_in_an_exit_code_and_at_most_one_error_line(model, command, data):
    name, doc = model
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc))
        args = _command_args(data.draw, command, make_builtin(name).n)
        code, _, err = _run_in_process([command, f"--model={path}", *args])
    _assert_clean_exit(code, err)


def test_validate_builtin(capsys):
    code, out, _ = run_cli(capsys, "validate", "--builtin", "host-vector")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["issues"] == []


def test_validate_flags_bad_model_file(tmp_path, capsys):
    bad = MassActionModel(
        n=2,
        bilinear=(BilinearTerm(0, 1, 1, -1.0),),
        linear=np.zeros((2, 2)),
        constant=np.zeros(2),
        domain=Domain(nonnegative=(True, True), constraints=(Constraint((1.0, 1.0), 1.0),)),
        labels=("x", "y"),
        name="drain",
    )
    path = tmp_path / "drain.json"
    path.write_text(dump_model(bad))
    code, out, _ = run_cli(capsys, "validate", "--model", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["issues"]
    code, _, _ = run_cli(capsys, "validate", "--model", str(path), "--strict")
    assert code == 3


def _readme_blocks():
    # the README's fenced blocks, in order
    return (Path(__file__).resolve().parents[1] / "README.md").read_text().split("```")[1::2]


def _readme_commands():
    # the nsfd lines of the README's fenced blocks, in order
    return [
        shlex.split(line, comments=True)[1:]
        for block in _readme_blocks()
        for line in block.splitlines()
        if line.startswith("nsfd ")
    ]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    # export-model writes the hv.json that the validate example reads
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert [argv[0] for argv in commands[-2:]] == ["export-model", "validate"]
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv


def test_readme_library_quick_start_runs():
    # the README's python block, run as its own process on the package under test
    (block,) = [b.removeprefix("python\n") for b in _readme_blocks() if b.startswith("python\n")]
    done = _run_entry_point(sys.executable, "-c", block)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines[0] == "1.3333333333333333 3"  # h_bar and its limiting column
    assert lines[2] == "0"  # the audit's exit_count


def _run_entry_point(*command, **environ):
    """Run an nsfd entry point as its own process on the code under test.

    The directory holding the imported package goes first on PYTHONPATH,
    so the child neither depends on the working directory nor picks up
    some other installed nsfd.  Keyword arguments are set in the child's
    environment.
    """
    package_root = str(Path(nsfd.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (package_root, inherited))))
    return subprocess.run(command, capture_output=True, text=True, env={**env, **environ})


def test_importing_the_cli_builds_no_parser():
    done = _run_entry_point(sys.executable, "-c", "import nsfd.cli; print(nsfd.cli._build_parser.cache_info().misses)")
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


def test_calls_in_one_process_print_what_each_prints_alone(capsys, monkeypatch):
    # main builds its parser once and reuses it: no call may see what an
    # earlier one parsed, the environment it ran in or the streams it wrote
    # to.  argparse wraps usage and help to COLUMNS, set alike in both.
    import nsfd.cli

    monkeypatch.setenv("COLUMNS", "80")
    nsfd.cli._build_parser.cache_clear()
    simulate = ("simulate", "--builtin", "si", "--x0", "0.9,0.1", "--h", "0.25", "--steps", "4")
    reversibility = ("reversibility", "--builtin", "host-vector", "--h", "0.5", "--trials", "3")
    calls = [
        ((*simulate, "--param", "beta=2"), None),
        (("simulate", "--builtin", "si", "--x0", "0.9,0.1", "--h", "fast", "--steps", "4"), None),
        (("stability", "--builtin", "logistic", "--x0", "1", "--h", "0.5"), None),
        (reversibility, "7"),
        (reversibility, None),
        ((*simulate, "--param", "beta=3"), None),
        (simulate, None),
        (("simulate", "--help"), None),
    ]
    results = []
    for argv, seed_env in calls:
        if seed_env is None:
            monkeypatch.delenv("NSFD_SEED", raising=False)
        else:
            monkeypatch.setenv("NSFD_SEED", seed_env)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        alone = _run_entry_point(sys.executable, "-m", "nsfd", *argv)
        assert (code, captured.out, captured.err) == (alone.returncode, alone.stdout, alone.stderr), argv
        results.append((code, captured.out, captured.err))
    assert nsfd.cli._build_parser.cache_info().misses == 1
    code, out, err = results[1]
    assert (code, out) == (1, "")
    assert err.startswith("usage: nsfd simulate ") and err.endswith("error: argument --h: invalid float value: 'fast'\n")
    assert [json.loads(results[k][1])["seed"] for k in (3, 4)] == [7, 0]
    assert len({results[k][1] for k in (0, 5, 6)}) == 3
    assert results[7][1].startswith("usage: nsfd simulate ")


def _check_exit_status_wiring(*prefix):
    ok = _run_entry_point(*prefix, "step-bound", "--builtin", "logistic")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["h_bar"] == 2.0
    # a nonzero return from main() must become the process exit status
    bad = _run_entry_point(*prefix, "step-bound", "--builtin", "nope")
    assert bad.returncode == 1
    assert bad.stdout == ""
    assert len(bad.stderr.splitlines()) == 1
    assert bad.stderr.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("stability", "--builtin", "logistic", "--x0", "1e308", "--h", "0.1"),
        ("reversibility", "--builtin", "logistic", "--h", "0.1", "--x0", "1e308"),
        ("order", "--builtin", "logistic", "--x0", "1e308", "--t-final", "1", "--h", "0.1"),
        # the explicit schemes overflow at this h, and both refuse the orbit
        ("simulate", "--builtin", "logistic", "--x0", "0.5", "--h", "1e200", "--steps", "3",
         "--scheme", "euler"),
        ("simulate", "--builtin", "logistic", "--x0", "0.5", "--h", "1e200", "--steps", "3",
         "--scheme", "rk4"),
    ],
)
def test_overflowing_x0_ends_in_one_line(argv):
    # numpy's floating-point warnings would add lines before the message
    done = _run_entry_point(sys.executable, "-m", "nsfd", *argv)
    assert done.returncode in (1, 2)
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith(("error:", "numerical failure:"))


def _blas_kernel_skip_reason():
    """Why OpenBLAS cannot be made to run two kernels here, or None when it can."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS library"
    if "openblas" not in blas.lower():
        return f"numpy's BLAS is {blas}, not OpenBLAS"
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return "no /proc/cpuinfo to read the CPU flags from"
    if "avx512f" not in cpuinfo.split():
        return "the CPU lacks avx512f, so OpenBLAS has no SkylakeX kernel to run"
    return None


def _check_output_under_two_blas_kernels(*args, cores=("Haswell", "SkylakeX")):
    """The output of ``python args`` must be the same under each OpenBLAS kernel of ``cores``."""
    reason = _blas_kernel_skip_reason()
    if reason is not None:
        pytest.skip(reason)
    argv = (sys.executable, *args)
    runs = [_run_entry_point(*argv, OPENBLAS_CORETYPE=core) for core in cores]
    for done in runs:
        assert (done.returncode, done.stderr) == (0, "")
    assert all(done.stdout == runs[0].stdout for done in runs)


def test_invariance_output_does_not_depend_on_the_blas_kernel():
    # host-vector is below the cut-off of linalg._Schedule.eliminates, so
    # the audit's 1000-row stacks and the 256-sample discrete tangent are
    # eliminated and their rows get the same bits under every OpenBLAS
    # kernel.  Solved by LAPACK, this worst_margin read
    # 7.034373084024992e-13 under Haswell and 7.016609515630989e-13 under
    # SkylakeX.
    _check_output_under_two_blas_kernels(
        "-m", "nsfd", "invariance", "--builtin", "host-vector", "--h", "0.5", "--trials", "1000", "--steps", "200",
        "--seed", "5",
    )


def test_the_readme_invariance_does_not_depend_on_the_blas_kernel():
    # The README's 100 trials are a stack below 2 n^3 = 250 rows, eliminated
    # because host-vector is below the cut-off.  While such a stack went to
    # LAPACK, this stdout had md5 b15a641a... under Haswell and d11237c4...
    # under SkylakeX.
    _check_output_under_two_blas_kernels(
        "-m", "nsfd", "invariance", "--builtin", "host-vector", "--h", "0.5", "--trials", "100", "--steps", "100",
    )


def test_simulate_output_does_not_depend_on_the_blas_kernel():
    # host-vector is small enough that each step of one state runs in Python
    # floats over the model's elimination schedule, with no BLAS call.
    # Solved by LAPACK, these 2001 rows printed with md5 3a0d95aa... under
    # Haswell and d570efea... under SkylakeX.
    _check_output_under_two_blas_kernels(
        "-m", "nsfd", "simulate", "--builtin", "host-vector", "--x0", "4,2,3,1,1", "--h", "0.5", "--steps", "2000",
        "--precision", "17",
    )


# Sandybridge's kernels have no fused multiply-add, and Haswell's sum a
# dot product with one: a field summed by BLAS differed between them.
_FMA_AND_NOT = ("Haswell", "SkylakeX", "Sandybridge")


def test_explicit_output_does_not_depend_on_the_blas_kernel():
    # The field kernel sums each row of L x itself.  Through BLAS, these 201
    # rows printed with md5 c0b9c6df... under Haswell and SkylakeX and
    # 7ee2576f... under Sandybridge.
    _check_output_under_two_blas_kernels(
        "-m", "nsfd", "simulate", "--builtin", "host-vector", "--x0", "4,2,3,1,1", "--h", "0.5", "--steps", "200",
        "--scheme", "euler", cores=_FMA_AND_NOT,
    )


def test_order_output_does_not_depend_on_the_blas_kernel(tmp_path, sir_ring_30):
    # Rows of the 30-state ring sum three bilinear terms and up to two L
    # terms: the order's three runs, RK4 among them, make no BLAS call.
    path = tmp_path / "ring.json"
    path.write_text(dump_model(sir_ring_30))
    h = 0.5 * step_bound(sir_ring_30).h_bar
    x0 = ",".join(["3", "0.5", "1"] * 10)
    _check_output_under_two_blas_kernels(
        "-m", "nsfd", "order", "--model", str(path), "--x0", x0, "--t-final", repr(5 * h), "--h", repr(h),
        "--scheme", "rk4", cores=_FMA_AND_NOT,
    )


def test_large_model_assembly_does_not_depend_on_the_blas_kernel(tmp_path, sir_ring_30):
    # One state of the 30-state ring, past the cut-off of the Python-float
    # elimination, is assembled by the compiled step kernel, and its field
    # Jacobian in numpy with the kernel's sums.  Through BLAS products,
    # these bytes printed three different md5s under the three kernels.
    path = tmp_path / "ring.json"
    path.write_text(dump_model(sir_ring_30))
    h = 0.5 * step_bound(sir_ring_30).h_bar
    code = "\n".join([
        "import hashlib, sys",
        "import numpy as np",
        "from nsfd.integrator import _pattern_system",
        "from nsfd.model import f_jacobian, load_model",
        "model = load_model(sys.argv[1])",
        "digest = hashlib.md5()",
        "for x in np.random.default_rng(3).uniform(0.0, 3.0, (300, model.n)):",
        f"    for h in ({h!r}, {-h!r}):",
        "        values, rhs, _ = _pattern_system(model, x, h)",
        "        digest.update(np.array(values).tobytes() + np.array(rhs).tobytes())",
        "    digest.update(f_jacobian(model, x).tobytes())",
        "print(digest.hexdigest())",
    ])
    _check_output_under_two_blas_kernels("-c", code, str(path), cores=_FMA_AND_NOT)


def test_console_script_entry_point():
    _check_exit_status_wiring(sys.executable, "-m", "nsfd")


def test_console_script_target_is_cli_main():
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["nsfd"]
    module_name, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main


@pytest.mark.skipif(shutil.which("nsfd") is None, reason="no nsfd executable on PATH")
def test_installed_console_script():
    _check_exit_status_wiring("nsfd")
