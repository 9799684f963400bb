"""Command-line front end: CSV trajectories and JSON reports.

Exit codes: 0 success, 1 bad input (arguments, model spec, violated
preconditions), 2 numerical failure (singular solve, lost dominance,
Newton or eigensolver divergence), 3 violations found under --strict.
Violations are data: without --strict they are reported in the JSON and
the command still exits 0, so comparison schemes can be demonstrated
failing.  Identical command lines with identical seeds produce
byte-identical output; NSFD_SEED sets the default seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from collections.abc import Iterable
from dataclasses import asdict

import numpy as np

from .analysis import _is_equilibrium, find_equilibria, observed_order, stability_report
from .integrator import (
    SCHEMES,
    NewtonDivergenceError,
    _check_h,
    _horizon_steps,
    integrate,
    step_bound,
    step_forward_batch,
    step_backward_batch,
)
from .invariance import (
    AUDIT_SCHEMES,
    MEMBERSHIP_SLACK,
    continuous_tangent,
    discrete_tangent,
    invariance_audit,
    sample_interior,
)
from .linalg import LinAlgError
from .model import (
    MassActionModel,
    SpecError,
    _check_state,
    _model_from_text,
    _read_model_text,
    dump_model,
    validate,
)
from .models import BUILTIN_NAMES, make_builtin

__all__ = ["main"]

# Relative reversibility tolerance: residual / (1 + |x|) must stay below.
REV_RTOL = 1e-11


class _Parser(argparse.ArgumentParser):
    # Argument errors are input errors: route them to exit code 1, not
    # argparse's default SystemExit(2), which is reserved for numerics.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise SpecError(message)


def _parse_x0(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise SpecError(f"x0 must be comma-separated numbers, got {text!r}") from exc


def _parse_params(items: list[str]) -> tuple[tuple[str, float], ...]:
    out = []
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise SpecError(f"--param needs NAME=VALUE, got {item!r}")
        try:
            out.append((name, float(value)))
        except ValueError as exc:
            raise SpecError(f"--param {name!r} needs a numeric value, got {value!r}") from exc
    return tuple(out)


# The last model document that a call built, as (text, model): a command
# on a file whose text is unchanged reads it and builds nothing.  Only the
# last one is kept, so at most one model is held, a file rewritten in place
# gives its new model, and a document that fails is never kept.  Built-ins
# are made anew: making one costs little next to its command.
_last_document: tuple[str, MassActionModel] | None = None


def _resolve_model(model_path, builtin, params) -> MassActionModel:
    global _last_document
    if model_path is not None:
        if params:
            raise SpecError("--param applies to --builtin models only")
        text = _read_model_text(model_path)
        if _last_document is None or _last_document[0] != text:
            _last_document = text, _model_from_text(text, model_path)
        return _last_document[1]
    return make_builtin(builtin, **dict(params))


def _model_from_args(args) -> MassActionModel:
    return _resolve_model(args.model, args.builtin, _parse_params(args.param))


def _default_seed(value) -> int:
    what = "--seed"
    if value is None:
        what, raw = "NSFD_SEED", os.environ.get("NSFD_SEED", "0")
        try:
            value = int(raw)
        except ValueError as exc:
            raise SpecError(f"NSFD_SEED must be an integer, got {raw!r}") from exc
    if value < 0:
        raise SpecError(f"{what} must be a nonnegative integer, got {value}")
    return value


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": _jsonable(float(value.real)), "im": _jsonable(float(value.imag))}
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    return value


def _emit(text: str | Iterable[str], out: str | None) -> None:
    # text is one string or an iterable of them, each written as it is made.
    chunks = [text] if isinstance(text, str) else text
    if out is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise SpecError(f"cannot write {out}: {exc}") from exc


def _emit_json(doc: dict, out: str | None) -> None:
    _emit(json.dumps(_jsonable(doc), indent=2, sort_keys=True, allow_nan=False) + "\n", out)


def _caution(message: str, strict: bool) -> None:
    # A run the guarantees do not cover: refused under --strict, else
    # one warning line on stderr.
    if strict:
        raise SpecError(message)
    print(f"warning: {message}", file=sys.stderr)


def _check_count(value: int, flag: str) -> int:
    if value < 1:
        raise SpecError(f"{flag} must be at least 1, got {value}")
    return value


def _check_step_size(model: MassActionModel, h: float, scheme: str, strict: bool) -> bool:
    """True when ``h`` is safe for ``scheme``; only nsfd has a bound."""
    if scheme != "nsfd":
        return True
    bound = step_bound(model)
    if bound.admits(h):
        return True
    _caution(f"h={h:g} is not below the safe step bound h_bar={bound.h_bar:g}", strict)
    return False


def _check_inside_domain(model: MassActionModel, x0: np.ndarray, strict: bool) -> None:
    # The same relative slack as the audit's membership test, so that
    # round-off in a start read from text does not warn.
    margin = model.domain.margin(x0)
    if margin < -MEMBERSHIP_SLACK * (1.0 + float(np.abs(x0).max())):
        _caution(
            f"x0 lies outside the model's domain (margin {margin:.6g}); "
            "the invariance guarantees do not cover this run",
            strict,
        )


def _cmd_simulate(args) -> int:
    x0 = _parse_x0(args.x0)
    params = _parse_params(args.param)
    h = _check_h(args.h)
    if args.steps is not None and args.steps < 0:
        raise SpecError("steps must be nonnegative")
    if args.t_final is not None and not (math.isfinite(args.t_final) and args.t_final > 0.0):
        raise SpecError("t_final must be positive and finite")
    if not 1 <= args.precision <= 17:
        raise SpecError("precision must be between 1 and 17 significant digits")
    model = _resolve_model(args.model, args.builtin, params)
    steps = args.steps if args.steps is not None else max(0, _horizon_steps(args.t_final, h))
    x0 = _check_state(model, np.array(x0))
    _check_step_size(model, h, args.scheme, args.strict)
    _check_inside_domain(model, x0, args.strict)
    traj = integrate(model, x0, h, steps, scheme=args.scheme)
    # "%.pg" % v prints v as f"{v:.{p}g}" does.  The rows go in blocks of
    # 1024, each one % of the row format repeated over the block's values,
    # through tolist, and written as soon as it is made: the whole
    # trajectory is never held as Python floats, nor as text.
    fmt = ",".join([f"%.{args.precision}g"] * (model.n + 1)) + "\n"

    def blocks():
        yield "t," + ",".join(model.labels) + "\n"
        for k in range(0, len(traj.states), 1024):
            block = np.column_stack((traj.times[k : k + 1024], traj.states[k : k + 1024]))
            yield (fmt * len(block)) % tuple(block.ravel().tolist())

    _emit(blocks(), args.out)
    return 0


def _cmd_step_bound(args) -> int:
    model = _model_from_args(args)
    _emit_json({"model": model.name, **step_bound(model).as_dict()}, args.out)
    return 0


def _cmd_order(args) -> int:
    model = _model_from_args(args)
    x0 = np.array(_parse_x0(args.x0))
    est = observed_order(model, x0, args.t_final, args.h, scheme=args.scheme)
    # After the run, so that a run that fails prints only its error line.
    _check_step_size(model, args.h, args.scheme, strict=False)
    _check_inside_domain(model, x0, strict=False)
    _emit_json({"model": model.name, **asdict(est)}, args.out)
    return 3 if args.strict and not est.defined else 0


def _cmd_stability(args) -> int:
    model = _model_from_args(args)
    seed_point = np.array(_parse_x0(args.x0))
    # Before the Newton run, so that a bad --h is an input error whatever --x0 is.
    _check_h(args.h)
    result = find_equilibria(model, [seed_point])[0]
    # A Newton run that stopped away from an equilibrium found none: a
    # numerical failure, not an input error about a point the user never gave.
    if not _is_equilibrium(result.point, result.residual):
        raise NewtonDivergenceError(
            f"no equilibrium found from --x0: Newton status {result.status!r}, "
            f"residual {result.residual:.3e}"
        )
    rows = stability_report(model, result.point, args.h)
    doc = {
        "model": model.name,
        "equilibrium": result.point,
        "equilibrium_status": result.status,
        "h": args.h,
        "rows": [
            {
                "lambda": row.lam,
                "mu_predicted": row.mu_predicted,
                "mu_measured": row.mu_measured,
                "continuous_stable": row.continuous_stable,
                "discrete_stable": row.discrete_stable,
                "consistent": row.consistent,
                "ambiguous": row.ambiguous,
                "near_nonhyperbolic": row.near_nonhyperbolic,
            }
            for row in rows
        ],
        "all_consistent": all(row.consistent for row in rows),
    }
    _emit_json(doc, args.out)
    return 3 if args.strict and not doc["all_consistent"] else 0


def _tangent_doc(report) -> dict:
    return {
        "samples": report.samples,
        "worst_value": report.worst_value,
        "worst_point": report.worst_point,
        "violation_count": len(report.violations),
        "violations": [
            {"point": point, "facet": facet, "value": value}
            for point, facet, value in report.violations[:100]
        ],
        "tolerance": report.tolerance,
        "passed": report.passed,
    }


def _cmd_invariance(args) -> int:
    model = _model_from_args(args)
    seed = _default_seed(args.seed)
    _check_count(args.tangent_samples, "--tangent-samples")
    _check_h(args.h)
    h_safe = _check_step_size(model, args.h, args.scheme, args.strict)
    audit = invariance_audit(
        model, h=args.h, trials=args.trials, steps=args.steps, seed=seed, scheme=args.scheme
    )
    cont = continuous_tangent(model, count=args.tangent_samples, seed=seed)
    # The discrete tangent condition concerns the reversible map below its
    # safe bound; a comparison scheme has no backward step to check, and an
    # oversized h has no meaningful one.
    disc = None
    if args.scheme == "nsfd" and h_safe:
        disc = discrete_tangent(model, h=args.h, count=args.tangent_samples, seed=seed)
    doc = {
        "model": model.name,
        "audit": audit.as_dict(),
        "continuous_tangent": _tangent_doc(cont),
        "discrete_tangent": None if disc is None else _tangent_doc(disc),
    }
    _emit_json(doc, args.out)
    violated = audit.exit_count > 0 or not cont.passed or (disc is not None and not disc.passed)
    return 3 if args.strict and violated else 0


def _cmd_reversibility(args) -> int:
    model = _model_from_args(args)
    seed = _default_seed(args.seed)
    if args.x0 is not None:
        xs = np.array(_parse_x0(args.x0))[None, :]
        trials = 1
    else:
        trials = _check_count(args.trials, "--trials")
        xs = sample_interior(model.domain, trials, seed)
    h = _check_h(args.h)
    if args.x0 is not None:
        # As one state, so that a bad x0 is reported as simulate reports it.
        _check_state(model, xs[0])
    ys = step_forward_batch(model, xs, h)
    back = step_backward_batch(model, ys, h)
    if args.x0 is not None:
        # After the run, so that a run that fails prints only its error line.
        _check_inside_domain(model, xs[0], args.strict)
    residuals = np.abs(back - xs).max(axis=1)
    relative = residuals / (1.0 + np.abs(xs).max(axis=1))
    worst = int(np.argmax(relative))
    passed = bool(relative[worst] <= REV_RTOL)
    doc = {
        "model": model.name,
        "h": h,
        "trials": trials,
        "seed": seed,
        "max_residual": float(residuals.max()),
        "max_relative_residual": float(relative[worst]),
        "worst_state": xs[worst],
        "tolerance": REV_RTOL,
        "passed": passed,
    }
    _emit_json(doc, args.out)
    return 3 if args.strict and not passed else 0


def _cmd_export_model(args) -> int:
    model = make_builtin(args.builtin, **dict(_parse_params(args.param)))
    _emit(dump_model(model), args.out)
    return 0


def _cmd_validate(args) -> int:
    model = _model_from_args(args)
    report = validate(model)
    _emit_json({"model": model.name, **asdict(report), "passed": report.passed}, args.out)
    return 3 if args.strict and not report.passed else 0


def _add_model_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", metavar="PATH", help="model spec JSON file")
    group.add_argument("--builtin", metavar="NAME", help=f"built-in model: {', '.join(BUILTIN_NAMES)}")
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a built-in parameter (repeatable)",
    )


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def _add_strict(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strict", action="store_true", help="exit 3 when violations are found")


# Built on the first main call, not at import, and then reused: it holds
# no state of a call, as parse_args fills a new namespace each time and
# copies an append option's default list before adding to it.  Error and
# help text go to the sys.stderr and sys.stdout of the call.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="nsfd", description="Reversible integration of mass-action models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a model and write a CSV trajectory")
    _add_model_args(p)
    p.add_argument("--x0", required=True, help="initial state, comma-separated")
    p.add_argument("--h", type=float, required=True, help="step size")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--steps", type=int, help="number of steps")
    g.add_argument("--t-final", type=float, help="integrate to this time (steps rounded)")
    p.add_argument("--scheme", choices=SCHEMES, default="nsfd")
    p.add_argument("--precision", type=int, default=17, help="significant digits (default 17)")
    p.add_argument(
        "--strict",
        action="store_true",
        help="refuse, with exit 1, an x0 outside the domain or an h not below the safe bound",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("step-bound", help="print the safe step bound report")
    _add_model_args(p)
    _add_out(p)
    p.set_defaults(func=_cmd_step_bound)

    p = sub.add_parser("order", help="estimate the scheme's convergence order")
    _add_model_args(p)
    p.add_argument("--x0", required=True, help="initial state, comma-separated")
    p.add_argument("--t-final", type=float, required=True, help="horizon T")
    p.add_argument("--h", type=float, required=True, help="coarse step size")
    p.add_argument("--scheme", choices=SCHEMES, default="nsfd")
    _add_strict(p)
    _add_out(p)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("stability", help="compare field and step-map eigenvalues at an equilibrium")
    _add_model_args(p)
    p.add_argument("--x0", required=True, help="equilibrium seed, comma-separated")
    p.add_argument("--h", type=float, required=True, help="step size")
    _add_strict(p)
    _add_out(p)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("invariance", help="audit domain invariance and tangent conditions")
    _add_model_args(p)
    p.add_argument("--h", type=float, required=True, help="step size")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=None, help="default NSFD_SEED or 0")
    p.add_argument("--scheme", choices=AUDIT_SCHEMES, default="nsfd")
    p.add_argument("--tangent-samples", type=int, default=256)
    _add_strict(p)
    _add_out(p)
    p.set_defaults(func=_cmd_invariance)

    p = sub.add_parser("reversibility", help="measure forward-then-backward residuals")
    _add_model_args(p)
    p.add_argument("--h", type=float, required=True, help="step size")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None, help="default NSFD_SEED or 0")
    p.add_argument("--x0", help="check this single state instead of sampling")
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 when violations are found; refuse, with exit 1, an x0 outside the domain",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_reversibility)

    p = sub.add_parser("export-model", help="write a built-in model as spec JSON")
    p.add_argument("--builtin", required=True, metavar="NAME", help=f"one of: {', '.join(BUILTIN_NAMES)}")
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a built-in parameter (repeatable)",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_export_model)

    p = sub.add_parser("validate", help="run structural checks on a model")
    _add_model_args(p)
    _add_strict(p)
    _add_out(p)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # The package's own guards turn non-finite values into exit codes,
        # so numpy's floating-point warnings would only add stderr lines;
        # integrate's step-size warning is printed as one caution line by
        # the commands that run above the bound.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), warnings.catch_warnings():
            warnings.filterwarnings("ignore", "step size h=", RuntimeWarning)
            return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LinAlgError, NewtonDivergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
