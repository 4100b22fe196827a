"""Command-line front end.

Every subcommand prints a single JSON document on stdout (diagnostics go to
stderr) so the tool can be scripted and its verdicts diffed.  Exit codes:
0 the relation holds or the operation succeeded, 1 the relation fails or a
domain precondition rejects the input (a JSON verdict is still printed),
2 usage or parse errors, a file that cannot be read or written (one that is
not UTF-8 text included): one line on stderr and nothing on stdout.

Each subcommand is one row of the _COMMANDS table, whose handler returns
(payload, ok); run() alone prints the payload, maps ok to exit 0 or 1 and
turns an exception into an exit code.

Matrix files are CSV (one row per line, comma-separated) or JSON
({"n": int, "entries": [[...]]}); model files are JSON objects with keys
"X", "D" and optionally "sigma2" and "label".  Matrices written by the tool
use 17 significant digits, enough to reproduce the float64 bit pattern on
read-back.
"""

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .canonical import inertia, sim_congruence
from .errors import (
    DimensionMismatch,
    InconsistentSamples,
    NonConvergence,
    NotMinusComparable,
    NotPositiveSemidefinite,
    ParseError,
    PsdOrderError,
    SingularS,
)
from .linmodels import (
    LinearModel,
    blue_check,
    mc_quadratic_forms,
    model_compare,
    qform_rank_criterion,
)
from .numkernel import PsdMatrix, SymMatrix, maxabs, rel_residual
from .orders import MinusMethod, Relation, minus_leq, order_leq
from .preservers import MatrixMap, congruence_map, fit_congruence, preserves_order
from .tolerances import DEFAULT_TOL, ToleranceConfig

# flag dest -> (environment variable, ToleranceConfig field, help text)
_ENV_FLAGS = {
    "tol_rank": ("PSDORDER_TOL_RANK", "rank_rel_tol", "relative rank cutoff"),
    "tol_psd": ("PSDORDER_TOL_PSD", "psd_tol", "PSD slack"),
}

# Errors that mean "the mathematics said no", not "the input was garbage".
_DOMAIN_ERRORS = (
    NotMinusComparable,
    NotPositiveSemidefinite,
    InconsistentSamples,
    SingularS,
    NonConvergence,
)


def _parse_float_token(token: str, path: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise ParseError(f"{path}: malformed number {token!r}") from exc


def _finite(a: np.ndarray, path: str) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise ParseError(f"{path}: non-finite entry (nan or inf)")
    return a


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def _json_entries(path: str) -> np.ndarray:
    """Finite float array from a JSON file holding either a bare list or
    {"n": rows, "entries": [...]}, n an integer."""
    obj = _read_json(path)
    entries = obj.get("entries") if isinstance(obj, dict) else obj
    if entries is None:
        raise ParseError(f"{path}: expected an 'entries' key")
    if isinstance(obj, dict) and "n" in obj and type(obj["n"]) is not int:
        raise ParseError(f"{path}: 'n' must be an integer, got {obj['n']!r}")
    try:
        a = np.array(entries, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: ragged rows or non-numeric entries ({exc})") from exc
    if isinstance(obj, dict) and "n" in obj and a.ndim and a.shape[0] != obj["n"]:
        raise ParseError(f"{path}: declared n={obj['n']} but found {a.shape[0]} rows")
    return _finite(a, path)


def read_array(path) -> np.ndarray:
    """Rectangular matrix from a CSV or JSON file, no symmetrization."""
    path = str(path)
    if path.endswith(".json"):
        a = _json_entries(path)
        if a.ndim != 2:
            raise ParseError(f"{path}: entries must form a 2-D matrix")
        return a
    rows = []
    for line in _read_text(path).splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([_parse_float_token(tok, path) for tok in line.split(",")])
    if not rows:
        raise ParseError(f"{path}: no rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: ragged rows")
    return _finite(np.array(rows, dtype=float), path)


def read_matrix(path, tol: ToleranceConfig = DEFAULT_TOL) -> SymMatrix:
    """Square symmetric matrix from file; asymmetric input is averaged with
    its transpose, with a stderr warning when the skew, relative to the
    largest entry, is beyond recon_tol."""
    a = read_array(path)
    if a.shape[0] != a.shape[1]:
        raise ParseError(f"{path}: expected a square matrix, got {a.shape}")
    skew = a - a.T
    if rel_residual(skew, a) > tol.recon_tol:
        print(
            f"warning: {path}: asymmetry {maxabs(skew):.3e} exceeds tolerance; "
            "matrix symmetrized by averaging",
            file=sys.stderr,
        )
    return SymMatrix(a)


def read_vector(path) -> np.ndarray:
    """Vector from a CSV or JSON file: a flat list, one row or one column."""
    path = str(path)
    a = _json_entries(path) if path.endswith(".json") else read_array(path)
    if not (a.ndim == 1 or (a.ndim == 2 and 1 in a.shape)):
        raise ParseError(f"{path}: expected a single row or column, got {a.shape}")
    return a.reshape(-1)


def write_matrix(path, m) -> None:
    """CSV with 17 significant digits per entry (lossless for float64)."""
    m = np.asarray(m, dtype=float)
    lines = [",".join(f"{x:.17g}" for x in row) for row in np.atleast_2d(m)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_model(path, tol: ToleranceConfig = DEFAULT_TOL) -> LinearModel:
    """LinearModel from a JSON file with keys X, D, sigma2, label."""
    path = str(path)
    obj = _read_json(path)
    if not isinstance(obj, dict) or "X" not in obj or "D" not in obj:
        raise ParseError(f"{path}: model files need 'X' and 'D' keys")
    sigma2 = obj.get("sigma2", 1.0)
    if type(sigma2) not in (int, float):  # a JSON number; a bool is not one
        raise ParseError(f"{path}: 'sigma2' must be a number, got {sigma2!r}")
    try:
        x, d = (np.array(obj[key], dtype=float) for key in "XD")
        sigma2 = float(sigma2)
    except (TypeError, ValueError, OverflowError) as exc:  # an integer beyond the float range overflows
        raise ParseError(f"{path}: non-numeric model entries ({exc})") from exc
    if x.ndim != 2 or d.ndim != 2:
        raise ParseError(f"{path}: 'X' and 'D' must be 2-D")
    _finite(np.r_[x.ravel(), d.ravel(), sigma2], path)
    try:
        return LinearModel(
            x,
            PsdMatrix(d, tol),  # certified under the caller's psd_tol
            sigma2=sigma2,
            label=str(obj.get("label", "")),
        )
    except (DimensionMismatch, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _json_default(obj):
    """Arrays as nested lists: the one numpy value a payload carries, every
    scalar being converted to a Python one where the payload is built."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _build_tol(args) -> ToleranceConfig:
    """Effective tolerances: defaults, then environment, then flags."""
    updates = {}
    for dest, (env, name, _) in _ENV_FLAGS.items():
        value = getattr(args, dest, None)
        if value is None and env in os.environ:
            value = _parse_float_token(os.environ[env], f"${env}")
        if value is not None:
            updates[name] = float(value)
    return dataclasses.replace(DEFAULT_TOL, **updates) if updates else DEFAULT_TOL


def _verdict_payload(verdict) -> dict:
    return {
        "holds": verdict.holds,
        "relation": verdict.relation,
        "detail": verdict.detail,
        "certificate": verdict.certificate,
    }


def _cmd_order_check(args, tol):
    a = read_matrix(args.a, tol)
    b = read_matrix(args.b, tol)
    verdict = order_leq(a, b, args.relation, tol)
    return _verdict_payload(verdict), verdict.holds


def _cmd_order_minus(args, tol):
    a = read_matrix(args.a, tol)
    b = read_matrix(args.b, tol)
    verdict = minus_leq(a, b, method=MinusMethod(args.method), tol=tol)
    return {**_verdict_payload(verdict), "method": args.method}, verdict.holds


def _cmd_canon_inertia(args, tol):
    ine = inertia(read_matrix(args.a, tol), tol)
    return {"result": {**dataclasses.asdict(ine), "rank": ine.rank}}, True


def _cmd_canon_simcong(args, tol):
    res = sim_congruence(read_matrix(args.a, tol), read_matrix(args.b, tol), tol)
    if args.out:
        write_matrix(args.out, res.s)
    result = dataclasses.asdict(res)
    result["s"] = result.pop("s")  # the transform goes after the ranks and residuals
    return {"result": result}, True


def _parse_map(map_text: str, tol):
    """The named map and the matrix size it is fixed to (None for maps that
    apply at any size)."""
    if map_text == "trace-inflation":
        return MatrixMap.trace_inflation(), None
    if map_text == "rank-collapse":
        return MatrixMap.rank_collapse(), None
    if map_text.startswith("congruence:"):
        s = read_array(map_text.split(":", 1)[1])
        return congruence_map(s, tol), s.shape[0]
    raise ParseError(
        f"unknown map {map_text!r}; expected congruence:S.csv, "
        "trace-inflation or rank-collapse"
    )


def _cmd_preserver_verify(args, tol):
    if args.trials < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    mmap, size = _parse_map(args.map, tol)
    n = args.n if args.n is not None else (size or 3)
    if n < 2:
        raise ParseError(f"preserver checks need n >= 2, got n={n}")
    report = preserves_order(
        mmap, args.relation, n, trials=args.trials, seed=args.seed, tol=tol
    )
    result = {("map" if key == "map_label" else key): value
              for key, value in dataclasses.asdict(report).items() if key != "counterexamples"}
    return {"holds": report.preserves_both, "result": result}, report.preserves_both


def _load_sample_dir(directory) -> list:
    """Sample pairs from files in_<key>.csv / out_<key>.csv."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ParseError(f"{directory}: not a directory")
    pairs = []
    for in_path in sorted(directory.glob("in_*")):
        key = in_path.name[len("in_"):]
        out_path = directory / f"out_{key}"
        if not out_path.exists():
            raise ParseError(f"{directory}: missing output file for {in_path.name}")
        pairs.append((read_array(in_path), read_array(out_path)))
    if not pairs:
        raise ParseError(f"{directory}: no in_*/out_* sample files found")
    return pairs


def _cmd_preserver_fit(args, tol):
    samples = _load_sample_dir(args.samples)
    s = fit_congruence(samples, tol)
    if args.out:
        write_matrix(args.out, s)
    return {"result": {"s": s, "n_samples": len(samples)}}, True


def _cmd_model_compare(args, tol):
    m1 = read_model(args.m1, tol)
    m2 = read_model(args.m2, tol)
    verdict = model_compare(m1, m2, tol)
    return {
        "holds": verdict.l1_geq_l2,
        "result": {
            "l1_geq_l2": verdict.l1_geq_l2,
            "l2_geq_l1": verdict.l2_geq_l1,
            "labels": [m1.label, m2.label],
            "m1": verdict.m1.a,
            "m2": verdict.m2.a,
        },
        "certificate": {
            key: _verdict_payload(v) for key, v in verdict.certificate.items()
        },
    }, verdict.l1_geq_l2


def _cmd_model_blue(args, tol):
    model = read_model(args.model, tol)
    estimator = read_array(args.estimator)
    verdict = blue_check(estimator, model, tol)
    return {
        "holds": verdict.is_blue,
        "result": {
            "cond_i": verdict.cond_i,
            "cond_ii": verdict.cond_ii,
            "is_blue": verdict.is_blue,
        },
        "certificate": verdict.certificate,
    }, verdict.is_blue


def _cmd_qform_check(args, tol):
    forms = [read_matrix(p.strip(), tol) for p in args.forms.split(",") if p.strip()]
    if not forms:
        raise ParseError("--forms needs at least one matrix path")
    cov = read_matrix(args.cov, tol)
    mean = read_vector(args.mean)
    if args.mc < 0:
        raise ParseError(f"--mc must be nonnegative, got {args.mc}")
    report = qform_rank_criterion([f.a for f in forms], cov.a, mean, tol)
    result = {
        "overall": report.overall,
        "s": report.s,
        "forms": [
            {
                "index": e.index,
                "rank": e.rank,
                "holds": e.verdict.holds,
                "detail": e.reason or e.verdict.detail,
            }
            for e in report.forms
        ],
    }
    if args.mc:
        mc = mc_quadratic_forms(
            [f.a for f in forms], cov.a, mean, args.mc, args.seed, tol
        )
        result["mc"] = dataclasses.asdict(mc)
        del result["mc"]["corr"]
        result["total_chisq_ks"] = mc.total_ks
    return {"holds": report.overall, "result": result}, report.overall


_RELATIONS = [r.value for r in Relation]
_PAIR = [("a", {}), ("b", {})]

# group -> (help, {subcommand -> (handler, [(argument, add_argument options)])});
# every subcommand also takes the --tol-* flags built from _ENV_FLAGS.
_COMMANDS = {
    "order": ("order relation checks", {
        "check": (_cmd_order_check, [
            ("--relation", {"required": True, "choices": _RELATIONS}),
            *_PAIR,
        ]),
        "minus": (_cmd_order_minus, [
            ("--method", {"default": "rank",
                          "choices": [m.value for m in MinusMethod],
                          "help": "certificate attached to the rank verdict"}),
            *_PAIR,
        ]),
    }),
    "canon": ("canonical forms", {
        "inertia": (_cmd_canon_inertia, [("a", {})]),
        "simcong": (_cmd_canon_simcong, [
            *_PAIR,
            ("--out", {"help": "write the shared transform S as CSV"}),
        ]),
    }),
    "preserver": ("order-preserving maps", {
        "verify": (_cmd_preserver_verify, [
            ("--map", {"required": True,
                       "help": "congruence:S.csv, trace-inflation or rank-collapse"}),
            ("--relation", {"required": True, "choices": _RELATIONS}),
            ("--trials", {"type": int, "default": 200}),
            ("--seed", {"type": int, "default": 0}),
            ("--n", {"type": int, "default": None,
                     "help": "matrix size (defaults to the congruence size, else 3)"}),
        ]),
        "fit": (_cmd_preserver_fit, [
            ("--samples", {"required": True,
                           "help": "directory of in_<k>.csv / out_<k>.csv pairs"}),
            ("--out", {"help": "write the fitted transform S as CSV"}),
        ]),
    }),
    "model": ("linear model comparison", {
        "compare": (_cmd_model_compare, [("m1", {}), ("m2", {})]),
        "blue": (_cmd_model_blue, [
            ("--estimator", {"required": True}),
            ("model", {}),
        ]),
    }),
    "qform": ("quadratic form independence", {
        "check": (_cmd_qform_check, [
            ("--forms", {"required": True,
                         "help": "comma-separated list of matrix files"}),
            ("--cov", {"required": True}),
            ("--mean", {"required": True}),
            ("--mc", {"type": int, "default": 0,
                      "help": "validate empirically with this many samples"}),
            ("--seed", {"type": int, "default": 0}),
        ]),
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for dest, (env, _, text) in _ENV_FLAGS.items():
        common.add_argument("--" + dest.replace("_", "-"), type=float,
                            default=argparse.SUPPRESS, help=f"{text} (also {env})")
    parser = argparse.ArgumentParser(
        prog="psdorder",
        parents=[common],
        description="Partial-order checks, canonical forms and model "
        "comparison for symmetric PSD matrices.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, subcommands) in _COMMANDS.items():
        group_parser = groups.add_parser(group, help=group_help)
        subs = group_parser.add_subparsers(dest="sub", required=True)
        for sub, (handler, arguments) in subcommands.items():
            p = subs.add_parser(sub, parents=[common])
            for name, options in arguments:
                p.add_argument(name, **options)
            p.set_defaults(handler=handler)
    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, print the handler's JSON payload on
    stdout, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tol = _build_tol(args)
        payload, ok = args.handler(args, tol)
    except _DOMAIN_ERRORS as exc:
        payload, ok = {"error": type(exc).__name__, "message": str(exc)}, False
        if getattr(exc, "rank_triple", None) is not None:  # the ranks the error was decided on
            payload["rank_triple"] = exc.rank_triple
    except (PsdOrderError, ValueError, OSError) as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {"command": f"{args.group} {args.sub}", **payload}
    payload["tolerances"] = dataclasses.asdict(tol)
    payload["version"] = __version__
    print(json.dumps(payload, default=_json_default))
    return 0 if ok else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
