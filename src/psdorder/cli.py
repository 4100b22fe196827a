"""Command-line front end.

Every subcommand prints a single JSON document on stdout (diagnostics go to
stderr) so the tool can be scripted and its verdicts diffed.  Exit codes:
0 the relation holds or the operation succeeded, 1 the relation fails or a
domain precondition rejects the input (a JSON verdict is still printed),
2 usage or parse errors.

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
    PreconditionViolated,
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
from .numkernel import SymMatrix, rel_residual
from .orders import MinusMethod, Relation, lowner_leq, minus_leq, star_family_leq
from .preservers import MatrixMap, congruence_map, fit_congruence, preserves_order
from .tolerances import DEFAULT_TOL, ToleranceConfig

# flag -> (environment variable, ToleranceConfig field)
_ENV_FLAGS = {
    "tol_rank": ("PSDORDER_TOL_RANK", "rank_rel_tol"),
    "tol_psd": ("PSDORDER_TOL_PSD", "psd_tol"),
    "tol_idem": ("PSDORDER_TOL_IDEM", "idem_tol"),
}

# Errors that mean "the mathematics said no", not "the input was garbage".
_DOMAIN_ERRORS = (
    NotMinusComparable,
    NotPositiveSemidefinite,
    PreconditionViolated,
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
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def _json_entries(path: str) -> np.ndarray:
    """Finite float array from a JSON file holding either a bare list or
    {"n": rows, "entries": [...]}."""
    obj = _read_json(path)
    entries = obj.get("entries") if isinstance(obj, dict) else obj
    if entries is None:
        raise ParseError(f"{path}: expected an 'entries' key")
    try:
        a = np.array(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: ragged rows or non-numeric entries") from exc
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
    sym = SymMatrix(a)
    if rel_residual(a - a.T, a) > tol.recon_tol:
        print(
            f"warning: {path}: asymmetry {sym.asymmetry:.3e} exceeds tolerance; "
            "matrix symmetrized by averaging",
            file=sys.stderr,
        )
    return sym


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
    try:
        x = np.array(obj["X"], dtype=float)
        d = np.array(obj["D"], dtype=float)
        sigma2 = float(obj.get("sigma2", 1.0))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: non-numeric model entries") from exc
    if x.ndim != 2 or d.ndim != 2:
        raise ParseError(f"{path}: 'X' and 'D' must be 2-D")
    _finite(np.r_[x.ravel(), d.ravel(), sigma2], path)
    try:
        return LinearModel(
            x,
            SymMatrix(d),  # symmetrize first; PSD certification happens next
            sigma2=sigma2,
            label=str(obj.get("label", "")),
        )
    except (DimensionMismatch, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    # bool must come before int: Python's bool is an int subclass
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _emit(payload: dict, tol: ToleranceConfig) -> None:
    payload["tolerances"] = dataclasses.asdict(tol)
    payload["version"] = __version__
    print(json.dumps(_jsonable(payload)))


def _build_tol(args) -> ToleranceConfig:
    """Effective tolerances: defaults, then environment, then flags."""
    updates = {}
    for dest, (env, name) in _ENV_FLAGS.items():
        value = getattr(args, dest, None)
        if value is None and env in os.environ:
            value = _parse_float_token(os.environ[env], f"${env}")
        if value is not None:
            updates[name] = float(value)
    return dataclasses.replace(DEFAULT_TOL, **updates) if updates else DEFAULT_TOL


def _verdict_payload(command: str, verdict) -> dict:
    payload = {
        "command": command,
        "holds": verdict.holds,
        "relation": verdict.relation,
        "detail": verdict.detail,
        "certificate": _jsonable(verdict.certificate),
    }
    if not command:  # nested verdicts inside a larger payload
        del payload["command"]
    return payload


def _cmd_order_check(args, tol):
    a = read_matrix(args.a, tol)
    b = read_matrix(args.b, tol)
    relation = Relation(args.relation)
    if relation is Relation.LOWNER:
        verdict = lowner_leq(a, b, tol)
    elif relation is Relation.MINUS:
        verdict = minus_leq(a, b, tol=tol)
    else:
        verdict = star_family_leq(a, b, relation, tol)
    _emit(_verdict_payload("order check", verdict), tol)
    return 0 if verdict.holds else 1


def _cmd_order_minus(args, tol):
    a = read_matrix(args.a, tol)
    b = read_matrix(args.b, tol)
    verdict = minus_leq(a, b, method=MinusMethod(args.method), tol=tol)
    payload = _verdict_payload("order minus", verdict)
    payload["method"] = args.method
    _emit(payload, tol)
    return 0 if verdict.holds else 1


def _cmd_canon_inertia(args, tol):
    a = read_matrix(args.a, tol)
    ine = inertia(a, tol)
    _emit(
        {
            "command": "canon inertia",
            "result": {
                "n_pos": ine.n_pos,
                "n_neg": ine.n_neg,
                "n_zero": ine.n_zero,
                "rank": ine.rank,
            },
        },
        tol,
    )
    return 0


def _cmd_canon_simcong(args, tol):
    a = read_matrix(args.a, tol)
    b = read_matrix(args.b, tol)
    try:
        res = sim_congruence(a, b, tol)
    except (NotMinusComparable, NotPositiveSemidefinite) as exc:
        triple = minus_leq(a, b, tol=tol).certificate
        _emit(
            {
                "command": "canon simcong",
                "error": type(exc).__name__,
                "message": str(exc),
                "rank_triple": [
                    triple.get("rank_a"),
                    triple.get("rank_b"),
                    triple.get("rank_diff"),
                ],
            },
            tol,
        )
        return 1
    if args.out:
        write_matrix(args.out, res.s)
    _emit(
        {
            "command": "canon simcong",
            "result": {
                "rank_a": res.rank_a,
                "rank_b": res.rank_b,
                "residual_a": res.residual_a,
                "residual_b": res.residual_b,
                "sigma_min": res.sigma_min,
                "s": res.s,
            },
        },
        tol,
    )
    return 0


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
    if size is not None and n != size:
        raise ParseError(f"--n {n} does not match the {size}x{size} congruence")
    if n < 2:
        raise ParseError(f"preserver checks need n >= 2, got n={n}")
    report = preserves_order(
        mmap, Relation(args.relation), n, trials=args.trials, seed=args.seed, tol=tol
    )
    _emit(
        {
            "command": "preserver verify",
            "holds": report.preserves_both,
            "result": {
                "relation": report.relation,
                "map": report.map_label,
                "n": report.n,
                "trials": report.trials,
                "forward_checked": report.forward_checked,
                "forward_failures": report.forward_failures,
                "backward_checked": report.backward_checked,
                "backward_failures": report.backward_failures,
            },
        },
        tol,
    )
    return 0 if report.preserves_both else 1


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
    _emit(
        {
            "command": "preserver fit",
            "result": {"s": s, "n_samples": len(samples)},
        },
        tol,
    )
    return 0


def _cmd_model_compare(args, tol):
    m1 = read_model(args.m1, tol)
    m2 = read_model(args.m2, tol)
    verdict = model_compare(m1, m2, tol)
    _emit(
        {
            "command": "model compare",
            "holds": verdict.l1_geq_l2,
            "result": {
                "l1_geq_l2": verdict.l1_geq_l2,
                "l2_geq_l1": verdict.l2_geq_l1,
                "labels": [m1.label, m2.label],
                "m1": verdict.m1.a,
                "m2": verdict.m2.a,
            },
            "certificate": {
                "m2_leq_m1": _verdict_payload("", verdict.certificate["m2_leq_m1"]),
                "m1_leq_m2": _verdict_payload("", verdict.certificate["m1_leq_m2"]),
            },
        },
        tol,
    )
    return 0 if verdict.l1_geq_l2 else 1


def _cmd_model_blue(args, tol):
    model = read_model(args.model, tol)
    estimator = read_array(args.estimator)
    verdict = blue_check(estimator, model, tol)
    _emit(
        {
            "command": "model blue",
            "holds": verdict.is_blue,
            "result": {
                "cond_i": verdict.cond_i,
                "cond_ii": verdict.cond_ii,
                "cond_iii": verdict.cond_iii,
                "is_blue": verdict.is_blue,
            },
            "certificate": _jsonable(verdict.certificate),
        },
        tol,
    )
    return 0 if verdict.is_blue else 1


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
                "holds": e.verdict.holds and e.sim is not None,
                "detail": e.reason or e.verdict.detail,
            }
            for e in report.forms
        ],
    }
    if args.mc:
        mc = mc_quadratic_forms(
            [f.a for f in forms], cov.a, mean, args.mc, args.seed, tol
        )
        report.total_chisq_ks = mc.total_ks
        result["mc"] = {
            "n_samples": mc.n_samples,
            "seed": mc.seed,
            "dfs": mc.dfs,
            "ks": mc.ks,
            "max_abs_corr": mc.max_abs_corr,
            "total_df": mc.total_df,
            "total_ks": mc.total_ks,
        }
        result["total_chisq_ks"] = report.total_chisq_ks
    _emit({"command": "qform check", "holds": report.overall, "result": result}, tol)
    return 0 if report.overall else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-rank", type=float, default=argparse.SUPPRESS,
                        help="relative rank cutoff (also PSDORDER_TOL_RANK)")
    common.add_argument("--tol-psd", type=float, default=argparse.SUPPRESS,
                        help="PSD slack (also PSDORDER_TOL_PSD)")
    common.add_argument("--tol-idem", type=float, default=argparse.SUPPRESS,
                        help="idempotency slack (also PSDORDER_TOL_IDEM)")

    parser = argparse.ArgumentParser(
        prog="psdorder",
        parents=[common],
        description="Partial-order checks, canonical forms and model "
        "comparison for symmetric PSD matrices.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    order = groups.add_parser("order", help="order relation checks")
    order_sub = order.add_subparsers(dest="sub", required=True)
    p = order_sub.add_parser("check", parents=[common])
    p.add_argument("--relation", required=True,
                   choices=[r.value for r in Relation])
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_order_check)
    p = order_sub.add_parser("minus", parents=[common])
    p.add_argument("--method", default="rank",
                   choices=[m.value for m in MinusMethod])
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_order_minus)

    canon = groups.add_parser("canon", help="canonical forms")
    canon_sub = canon.add_subparsers(dest="sub", required=True)
    p = canon_sub.add_parser("inertia", parents=[common])
    p.add_argument("a")
    p.set_defaults(handler=_cmd_canon_inertia)
    p = canon_sub.add_parser("simcong", parents=[common])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--out", help="write the shared transform S as CSV")
    p.set_defaults(handler=_cmd_canon_simcong)

    pres = groups.add_parser("preserver", help="order-preserving maps")
    pres_sub = pres.add_subparsers(dest="sub", required=True)
    p = pres_sub.add_parser("verify", parents=[common])
    p.add_argument("--map", required=True,
                   help="congruence:S.csv, trace-inflation or rank-collapse")
    p.add_argument("--relation", required=True,
                   choices=[r.value for r in Relation])
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=None,
                   help="matrix size (defaults to the congruence size, else 3)")
    p.set_defaults(handler=_cmd_preserver_verify)
    p = pres_sub.add_parser("fit", parents=[common])
    p.add_argument("--samples", required=True,
                   help="directory of in_<k>.csv / out_<k>.csv pairs")
    p.add_argument("--out", help="write the fitted transform S as CSV")
    p.set_defaults(handler=_cmd_preserver_fit)

    model = groups.add_parser("model", help="linear model comparison")
    model_sub = model.add_subparsers(dest="sub", required=True)
    p = model_sub.add_parser("compare", parents=[common])
    p.add_argument("m1")
    p.add_argument("m2")
    p.set_defaults(handler=_cmd_model_compare)
    p = model_sub.add_parser("blue", parents=[common])
    p.add_argument("--estimator", required=True)
    p.add_argument("model")
    p.set_defaults(handler=_cmd_model_blue)

    qform = groups.add_parser("qform", help="quadratic form independence")
    qform_sub = qform.add_subparsers(dest="sub", required=True)
    p = qform_sub.add_parser("check", parents=[common])
    p.add_argument("--forms", required=True,
                   help="comma-separated list of matrix files")
    p.add_argument("--cov", required=True)
    p.add_argument("--mean", required=True)
    p.add_argument("--mc", type=int, default=0,
                   help="validate empirically with this many samples")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_qform_check)
    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tol = _build_tol(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(args, tol)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        _emit(
            {
                "command": f"{args.group} {args.sub}",
                "error": type(exc).__name__,
                "message": str(exc),
            },
            tol,
        )
        return 1
    except PsdOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
