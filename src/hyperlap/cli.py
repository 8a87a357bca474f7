"""Command line surface: evaluate, check, run suites, emit reports.

Commands
--------
  eval gamma --z 5
  eval pfq --num 1,2 --den 2 --z 0.5
  eval closed-form --id lap.gauss2x --a 1.2 --b 0.9 --d 1.4 --s 2
  eval laplace-numeric --id lap.watson1x --a .8 --b 1.1 --c 1.3 --d 2 --s 2
  check --id sum.kummerx --a 2.5 --b 0.5 --d 3
  suite --all --n 200 --seed 42 --format json --out report.json
  resolve-dixon --n 50

Complex literals use `1.5+0.5i`; a bare decimal means a real value.
Exit codes: 0 success, 1 usage error, 2 validity error, 3 numerical
failure.  Reports are deterministic for fixed seed and flags; wall-clock
timing is only attached under --timing (in a separate envelope field) so
default output stays byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from .errors import (DegenerateParameterError, DivergentSeriesError, HyperLapError,
                     IndeterminateError, InvalidBinding, PoleError, SamplerExhausted,
                     SlowDecayError, ValidityError)
from .gammafn import POLE_TOL, gamma
from .laplace import (LaplaceCase, case_gamma_arguments, closed_form, lhs_integrand,
                      require_integral_exists)
from .quadrature import laplace_numeric
from .reporting import json_value
from .series import HyperSeriesSpec, eval_series
from .summation import DixonVariant
from . import laplace, summation, verifier

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDITY = 2
EXIT_NUMERICAL = 3

_VALIDITY_ERRORS = (ValidityError, DegenerateParameterError, InvalidBinding,
                    PoleError, IndeterminateError, DivergentSeriesError)
_NUMERICAL_ERRORS = (SlowDecayError, SamplerExhausted, OverflowError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the report
    contract reserves 2 for validity failures, so remap to 1.  Flag
    abbreviation is disabled so --c can never shadow --config."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def parse_complex(text: str) -> complex:
    s = str(text).strip().replace(" ", "")
    try:
        if s.endswith("i") or s.endswith("I"):
            return complex(s[:-1] + "j")
        return complex(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a real or re+imi complex literal") from exc


def parse_complex_list(text: str) -> list[complex]:
    s = str(text).strip()
    if not s:
        return []
    return [parse_complex(part) for part in s.split(",")]


_PARAM_FLAGS = ("a", "b", "c", "d", "e")


def _config_flags(path: str) -> list[str]:
    """The key=value lines of a config file as the flags --key=value of the
    chosen command (a switch: true gives --key, false nothing), to be parsed
    ahead of the explicit flags, which win.  A key that is no option of
    the command is a usage error, as an unknown flag is."""
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"config line without '=': {line!r}")
            key, _, raw = (part.strip() for part in line.partition("="))
            key = key.replace("_", "-")
            if key in ("config", "help"):
                raise _UsageError(f"config key {key!r} is not allowed")
            if raw != "false":
                flags.append(f"--{key}" if raw == "true" else f"--{key}={raw}")
    return flags


def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--config", default=None,
                   help="flat key=value file of this command's options (no dashes), "
                        "read as flags ahead of the explicit ones, which win")
    p.add_argument("--timing", action="store_true",
                   help="attach wall-clock timing (breaks byte-reproducibility)")
    if seed:
        p.add_argument("--seed", type=int, default=42,
                       help="sampling seed (inert for deterministic evaluations)")


def _add_params(p: argparse.ArgumentParser) -> None:
    for sym in _PARAM_FLAGS:
        p.add_argument(f"--{sym}", type=parse_complex, default=None)
    p.add_argument("--s", type=parse_complex, default=None)


def build_parser() -> _Parser:
    top = _Parser(prog="hyperlap",
                  description="closed-form hypergeometric Laplace transforms, verified")
    sub = top.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one quantity")
    evsub = ev.add_subparsers(dest="kind", required=True)

    g = evsub.add_parser("gamma")
    g.add_argument("--z", type=parse_complex, required=True)
    g.add_argument("--tol", type=float, default=None,
                   help="accepted for interface uniformity; gamma runs at fixed precision")
    _add_common(g)

    pf = evsub.add_parser("pfq")
    pf.add_argument("--num", type=parse_complex_list, default=[])
    pf.add_argument("--den", type=parse_complex_list, default=[])
    pf.add_argument("--z", type=parse_complex, required=True)
    pf.add_argument("--tol", type=float, default=1e-12)
    pf.add_argument("--max-terms", type=int, default=100_000)
    _add_common(pf)

    cf = evsub.add_parser("closed-form")
    cf.add_argument("--id", required=True)
    _add_params(cf)
    cf.add_argument("--tol", type=float, default=None,
                    help="accepted for interface uniformity; closed forms are direct")
    cf.add_argument("--dixon-variant", choices=[v.value for v in DixonVariant],
                    default=DixonVariant.HALF_A_MINUS_B.value)
    _add_common(cf)

    ln = evsub.add_parser("laplace-numeric")
    ln.add_argument("--id", default=None,
                    help="catalog id supplying the integrand; otherwise give --v/--w/--num/--den")
    _add_params(ln)
    ln.add_argument("--v", type=parse_complex, default=None)
    ln.add_argument("--w", type=parse_complex, default=None)
    ln.add_argument("--num", type=parse_complex_list, default=None)
    ln.add_argument("--den", type=parse_complex_list, default=None)
    ln.add_argument("--tol", type=float, default=1e-7)
    _add_common(ln)

    ck = sub.add_parser("check", help="one identity, one binding, one oracle")
    ck.add_argument("--id", required=True)
    _add_params(ck)
    ck.add_argument("--tol", type=float, default=None)
    ck.add_argument("--oracle",
                    choices=("series", "quadrature", "compositional", "specialization"),
                    default="series")
    ck.add_argument("--dixon-variant", choices=[v.value for v in DixonVariant],
                    default=DixonVariant.HALF_A_MINUS_B.value)
    _add_common(ck)

    su = sub.add_parser("suite", help="certification run over the catalog")
    group = su.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", dest="all_ids")
    group.add_argument("--ids", default=None, help="comma-separated identity ids")
    su.add_argument("--n", type=int, default=200)
    su.add_argument("--tol", type=float, default=None,
                    help="blunt override applied to every oracle class")
    su.add_argument("--tol-overrides", default=None,
                    help="comma-separated oracle=tol pairs, e.g. series=1e-9")
    su.add_argument("--resolve-variant", action="store_true", default=None)
    su.add_argument("--complex-im", type=float, default=0.0)
    su.add_argument("--pole-margin", type=float, default=1e-3)
    su.add_argument("--no-reports", action="store_true",
                    help="omit per-check rows from the report")
    _add_common(su)

    rd = sub.add_parser("resolve-dixon", help="the second-denominator variant experiment")
    rd.add_argument("--n", type=int, default=50)
    rd.add_argument("--tol", type=float, default=None,
                    help="accepted for interface uniformity; the experiment "
                         "runs its oracle at a fixed tight tolerance")
    _add_common(rd)
    return top


def _collect_params(args, symbols) -> dict:
    params = {}
    for sym in symbols:
        val = getattr(args, sym, None)
        if val is None:
            raise _UsageError(f"--{sym} is required for this identity")
        params[sym] = val
    return params


def _complex_fields(prefix: str, z: complex) -> dict:
    return {f"{prefix}_re": z.real, f"{prefix}_im": z.imag}


def _inputs_echo(args, skip=("format", "out", "config", "timing", "command", "kind")) -> dict:
    out = {}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        val = getattr(args, key)
        if val is None:
            continue
        out[key] = json_value(val)
    return out


def _emit(doc: dict, args, t0: float, rows_for_csv=None) -> None:
    """Write doc, or its rows as CSV; under --timing, with the wall time
    since t0 in a separate envelope field."""
    if args.timing:
        doc["envelope"] = {"timing_ms": (time.monotonic() - t0) * 1e3}
    if args.format == "csv":
        text = _to_csv(rows_for_csv if rows_for_csv is not None else doc["results"])
    else:
        text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    flat_rows = []
    for row in rows:
        flat = {}
        for key, val in row.items():
            if isinstance(val, dict):
                for sub, subval in val.items():
                    if isinstance(subval, dict):
                        flat[f"{key}.{sub}.re"] = subval.get("re")
                        flat[f"{key}.{sub}.im"] = subval.get("im")
                    else:
                        flat[f"{key}.{sub}"] = subval
            else:
                flat[key] = val
        flat_rows.append(flat)
    fieldnames = sorted({k for row in flat_rows for k in row})
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in flat_rows:
        writer.writerow({k: repr(float(v)) if isinstance(v, float) else v
                         for k, v in row.items()})
    return buf.getvalue()


def _document(command: str, args, results: list) -> dict:
    doc = {
        "schema_version": "1",
        "command": command,
        "inputs": _inputs_echo(args),
        "results": results,
    }
    return doc


def _cmd_eval(args) -> int:
    t0 = time.monotonic()
    if args.kind == "gamma":
        value = gamma(args.z)
        result = {"kind": "gamma", **_complex_fields("value", value)}
    elif args.kind == "pfq":
        spec = HyperSeriesSpec(args.num, args.den, args.z)
        res = eval_series(spec, tol=args.tol, max_terms=args.max_terms)
        result = {"kind": "pfq", **_complex_fields("value", res.value),
                  "terms_used": res.terms_used, "tail_estimate": res.tail_estimate,
                  "cancellation_ratio": res.cancellation_ratio,
                  "converged": res.converged, "method": res.method}
        if not res.converged:
            raise SlowDecayError("series did not converge within max terms")
    elif args.kind == "closed-form":
        case = _case_from_args(args)
        breakdown = closed_form(case, DixonVariant(args.dixon_variant))
        result = {"kind": "closed-form", "identity_id": args.id,
                  **_complex_fields("value", breakdown.value),
                  **_complex_fields("prefactor", breakdown.prefactor),
                  **_complex_fields("term1", breakdown.term1),
                  **_complex_fields("term2", breakdown.term2),
                  **_complex_fields("alpha", breakdown.alpha),
                  **_complex_fields("beta", breakdown.beta)}
    elif args.kind == "laplace-numeric":
        if args.id is not None:
            case = _case_from_args(args)
            integ = lhs_integrand(case)
            v, s, w, spec = integ.power, case.s, integ.w, integ.spec
        else:
            if args.v is None or args.s is None or args.w is None:
                raise _UsageError("laplace-numeric needs --id or --v/--s/--w/--num/--den")
            v, s, w = args.v, args.s, args.w
            spec = HyperSeriesSpec(args.num or [], args.den or [], 1.0)
        res = laplace_numeric(v, s, w, spec, tol=args.tol)
        result = {"kind": "laplace-numeric", **_complex_fields("value", res.value),
                  "abs_err_est": res.abs_err_est, "nodes_used": res.nodes_used,
                  "tail_method": res.tail_method.value,
                  **_complex_fields("tail_contribution", res.tail_contribution)}
    else:  # pragma: no cover - argparse enforces choices
        raise _UsageError(f"unknown eval kind {args.kind}")
    _emit(_document(f"eval {args.kind}", args, [result]), args, t0)
    return EXIT_OK


def _case_from_args(args) -> LaplaceCase:
    kind, ident = verifier.parse_identity(args.id)
    if kind != "lap":
        raise _UsageError(f"{args.id} is not a Laplace identity")
    binding = _collect_params(args, verifier._symbols(kind, ident))
    return LaplaceCase(ident, *verifier._split_laplace_binding(binding))


def _cmd_check(args) -> int:
    t0 = time.monotonic()
    kind, ident = verifier.parse_identity(args.id)
    oracles = verifier.oracle_tolerances(kind, ident)
    if args.oracle not in oracles:
        raise _UsageError(f"the {args.oracle} oracle does not apply to {args.id} "
                          f"(it takes {', '.join(oracles)})")
    binding = _collect_params(args, verifier._symbols(kind, ident))
    variant = DixonVariant(args.dixon_variant)
    tol = oracles[args.oracle] if args.tol is None else args.tol
    _refuse_invalid(kind, ident, binding, variant, args.oracle)
    report = getattr(verifier, f"check_{args.oracle}")(args.id, binding, tol, variant)
    row = verifier._report_to_dict(report)
    _emit(_document("check", args, [row]), args, t0, rows_for_csv=[row])
    return EXIT_OK if report.passed else EXIT_NUMERICAL


def _refuse_invalid(kind: str, ident, binding: dict, variant: DixonVariant,
                    oracle: str) -> None:
    """Raise a validity error (exit code 2) where the catalog refuses the
    binding, for sums and transforms alike: an exact exclusion, a stated
    condition, a numerator gamma argument of the closed form on a pole, a
    nonpositive-integer series denominator, or a divergent series (for a
    transform, an integral that does not exist).  The sampler's margins do
    not apply: a binding near a pole or an exclusion is checked.  A
    specialization binding is checked at the distinguished d its check
    substitutes."""
    if kind == "sum":
        ok, reason = summation.validity(ident, binding, margin=POLE_TOL, dixon_variant=variant)
    else:
        params, s = verifier._split_laplace_binding(binding)
        if oracle == "specialization":
            params = {**params, "d": laplace.specialization_target(ident).d_value(params)}
        case = LaplaceCase(ident, params, s)
        laplace._check_case_validity(case)
        try:
            integ = lhs_integrand(case)
        except ValueError as exc:  # a denominator parameter on a nonpositive integer
            raise ValidityError(str(exc)) from None
        require_integral_exists(integ.power, case.s, integ.w, integ.spec)
        reason = summation._pole_proximity_reason(*case_gamma_arguments(case, variant), POLE_TOL)
        ok = reason is None
    if not ok:
        raise ValidityError(reason)


def _cmd_suite(args) -> int:
    t0 = time.monotonic()
    if args.ids:
        ids = [part.strip() for part in args.ids.split(",") if part.strip()]
        for identity_id in ids:
            verifier.parse_identity(identity_id)  # validate early -> usage error
    else:
        ids = list(verifier.ALL_IDENTITY_IDS)
    tol_overrides = {}
    if args.tol is not None:
        tol_overrides = {key: args.tol for key in verifier.DEFAULT_TOLERANCES}
    if args.tol_overrides:
        for pair in args.tol_overrides.split(","):
            key, _, val = pair.partition("=")
            if not val:
                raise _UsageError(f"bad --tol-overrides entry {pair!r}")
            tol_overrides[key.strip()] = float(val)
    cfg = verifier.SamplerConfig(seed=args.seed, complex_im=args.complex_im,
                                 pole_margin=args.pole_margin)
    result = verifier.run_suite(ids=ids, cfg=cfg, n_per_id=args.n,
                                tolerances=tol_overrides or None,
                                resolve_variant=args.resolve_variant,
                                keep_reports=not args.no_reports)
    payload = result.to_dict()
    _emit(_document("suite", args, [payload]), args, t0, rows_for_csv=payload["reports"])
    return EXIT_OK if result.overall_pass else EXIT_NUMERICAL


def _cmd_resolve_dixon(args) -> int:
    t0 = time.monotonic()
    cfg = verifier.SamplerConfig(seed=args.seed)
    verdict, evidence = verifier.resolve_dixon_variant(cfg, n=args.n)
    payload = {
        "dixon_variant_verdict": verdict,
        "evidence": [verifier._evidence_to_dict(row) for row in evidence],
    }
    _emit(_document("resolve-dixon", args, [payload]), args, t0,
          rows_for_csv=payload["evidence"])
    return EXIT_OK if verdict != "inconclusive" else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = build_parser()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        probe = _Parser(add_help=False)
        probe.add_argument("--config", default=None)
        config = probe.parse_known_args(argv)[0].config
        if config:
            at = 2 if argv[:1] == ["eval"] else 1  # past the command's name
            argv = argv[:at] + _config_flags(config) + argv[at:]
        args = parser.parse_args(argv)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "resolve-dixon":
            return _cmd_resolve_dixon(args)
        raise _UsageError(f"unknown command {args.command}")
    except (_UsageError, argparse.ArgumentTypeError, ValueError, OSError) as exc:
        # OSError: --config, --out
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _VALIDITY_ERRORS as exc:
        print(f"validity error: {exc}", file=sys.stderr)
        return EXIT_VALIDITY
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HyperLapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
