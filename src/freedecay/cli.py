"""Command-line front end: experiment orchestration with reproducible seeds.

Every run writes outputs atomically (temp file + rename); every CSV carries
a header row and a trailing metadata comment block recording the seed and
package version.  Exit codes: 0 success, 1 property/assertion failure (the
witness goes to the output), 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from . import __version__
from .algebra import AlgebraElement, AlgebraError, MatrixBlockAlgebra, json_shape
from .compressed import (
    TruncatedFock,
    default_depth,
    moment_norm_estimate,
    norm_lower_bound,
    shared_fock,
)
from .freeword import (
    AvitzourConditionError,
    FreeElement,
    FreeProductAmbient,
    avitzour_phi,
    avitzour_shape_check,
    conjugation_word_shape,
    free_state,
    l2_inner_free,
    random_alternating_word,
    three_factor_ambient,
)
from .fock import FockError, fock_dimension, vacuum_expectation
from .khintchine import HomogeneousWordElement, rx_check
from .measure import CompactMeasure, MeasureError
from .rdcert import (
    ConstantFiltration,
    FreeProductFiltration,
    MeasureDegreeFiltration,
    classify_abelian,
    find_avitzour_triple,
    orthogonality_hypotheses,
    rd_report,
    verify_avitzour_triple,
)
from .scalars import agree, to_complex

USAGE_ERROR = 2
CHECK_FAILED = 1


class CliError(Exception):
    def __init__(self, message, code=USAGE_ERROR):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------


def _atomic_write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    with os.fdopen(fd, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(header, rows, seed: int, **meta) -> str:
    """The CSV text: header, rows, then the ``#`` block, which starts with
    ``seed=`` and ``version=`` and goes on with ``meta`` in order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    for key, value in {"seed": seed, "version": __version__, **meta}.items():
        buf.write(f"# {key}={value}\n")
    return buf.getvalue()


def _load_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )


def _reject_unknown_keys(data: dict, allowed, where: str):
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise CliError(f"unknown keys in {where}: {', '.join(unknown)}")


def _parse_weights(text: str):
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(Fraction(piece))
        except (ValueError, ZeroDivisionError):
            raise CliError(f"bad weight {piece!r}") from None
    if not out:
        raise CliError("empty weight list")
    return out


def _load_space(args) -> dict:
    """Resolve --builtin/--space into {'measure': ...} or {'algebra': ...} or
    {'free_product': [...]}."""
    if args.builtin and args.space:
        raise CliError("give one of --builtin and --space, not both")
    if args.builtin:
        return {"measure": CompactMeasure.builtin(args.builtin)}
    if args.space:
        data = json_shape(_load_json_file(args.space), dict, args.space)
        _reject_unknown_keys(data, {"measure", "algebra", "free_product"}, args.space)
        if len(data) > 1:
            raise CliError(f"{args.space} gives both {' and '.join(data)}: give one space")
        if "measure" in data:
            return {"measure": CompactMeasure.from_json(data["measure"])}
        if "algebra" in data:
            return {"algebra": MatrixBlockAlgebra.from_json(data["algebra"])}
        if "free_product" in data:
            factors = json_shape(data["free_product"], list, "'free_product'")
            return {"free_product": [MatrixBlockAlgebra.from_json(f) for f in factors]}
    raise CliError("provide --builtin NAME or --space FILE")


def _load_factors(path: str):
    return FreeProductAmbient.from_json(_load_json_file(path))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_rd_certify(args) -> int:
    space = _load_space(args)
    (kind,) = space.keys()
    if kind == "measure":
        filt = MeasureDegreeFiltration(space["measure"], args.max_n)
    elif kind == "algebra":
        filt = ConstantFiltration(space["algebra"])
    else:
        filt = FreeProductFiltration(
            [ConstantFiltration(a) for a in space["free_product"]], probe_seed=args.seed
        )
    report = rd_report(filt, args.max_n)
    if args.as_json:
        _atomic_write(args.out, json.dumps(report.to_json(), indent=2) + "\n")
    else:
        rows = [
            (n, repr(lo), repr(up), d) for (n, lo, up, d) in report.rows
        ]
        _atomic_write(args.out, _csv_text(["n", "C_lower", "C_upper", "dim"], rows, args.seed,
                                          recipe=report.recipe, alpha_hat=repr(report.alpha_hat)))
    return 0


def _cmd_classify_abelian(args) -> int:
    result = classify_abelian(_parse_weights(args.a), _parse_weights(args.b))
    if args.as_json:
        _atomic_write(args.out, json.dumps(result.to_json(), indent=2) + "\n")
    else:
        lines = [result.verdict]
        lines += [f"  reason: {r}" for r in result.reasons]
        _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_fock_dim(args) -> int:
    ambient = _load_factors(args.factors)
    rows = []
    for depth in range(args.depth + 1):
        rows.append((depth, fock_dimension(ambient.factors, depth)))
    _atomic_write(args.out, _csv_text(["depth", "dimension"], rows, args.seed))
    return 0


def _moment_csv(est, seed: int, **meta) -> str:
    """The moment table of ``free-moments`` and ``norm-estimate``: one row
    (r, q_r, power root, ratio, best) per r, each value as its repr."""
    rows = [
        (r, repr(to_complex(q).real), repr(root), repr(ratio), repr(best))
        for (r, q, root, ratio, best) in est.rows
    ]
    return _csv_text(["r", "moment_2r", "power_root", "ratio", "best"], rows, seed, **meta)


def _cmd_free_moments(args) -> int:
    ambient = _load_factors(args.factors)
    x = FreeElement.from_json(ambient, _load_json_file(args.element))
    est = moment_norm_estimate(x, args.rmax)
    sym = free_state(x)
    vac = vacuum_expectation(x)
    drift = abs(to_complex(sym) - to_complex(vac))
    _atomic_write(args.out, _moment_csv(est, args.seed, method=est.method, state=repr(to_complex(sym)),
                                        state_vs_vacuum_drift=repr(drift)))
    # |free_state(x)| <= ||x||_2 bounds both sides, and ||x||_2^2 = state(x*x) = q_1
    norm = math.sqrt(max(to_complex(est.rows[0][1]).real, 0.0))
    return 0 if agree(sym, vac, norm) else CHECK_FAILED


def _cmd_norm_estimate(args) -> int:
    ambient = _load_factors(args.factors)
    x = FreeElement.from_json(ambient, _load_json_file(args.element))
    depth = args.depth if args.depth is not None else default_depth(x.max_word_length())
    fock = TruncatedFock(ambient.factors, depth)
    lb_fock = norm_lower_bound(fock, x)
    est = moment_norm_estimate(x, args.moment_rmax)
    _atomic_write(args.out, _moment_csv(
        est, args.seed, depth=depth, fock_dimension=fock.dimension, fock_lower_bound=repr(lb_fock),
        best_lower_bound=repr(max(lb_fock, est.max)), method=est.method,
    ))
    return 0


def _default_kh_factors():
    return FreeProductAmbient(
        (MatrixBlockAlgebra.matrix_with_trace(2), MatrixBlockAlgebra.matrix_with_trace(2))
    )


def _cmd_kh_norm(args) -> int:
    ambient = (
        _load_factors(args.factors) if args.factors else _default_kh_factors()
    )
    # refused before the first draw: a length with no alternating centred
    # word (a factor C has no centred letter), and the space rx_check
    # represents every draw on
    if sum(f.dim > 1 for f in ambient.factors) < min(args.length, 2):
        raise CliError(f"no alternating word of length {args.length} exists over these factors")
    shared_fock(ambient.factors, default_depth(args.length))
    rows = []
    failures = []
    for trial in range(args.trials):
        rng = np.random.default_rng(args.seed + trial)
        x = HomogeneousWordElement.random(ambient, args.length, rng)
        report = rx_check(x, moment_rmax=args.moment_rmax)
        rows.append(
            (
                trial,
                repr(report.l2),
                repr(report.kh_lower),
                repr(report.kh_upper),
                repr(report.norm_lb),
                repr(report.margin),
            )
        )
        if not report.ok:
            failures.append((trial, report))
    _atomic_write(
        args.out,
        _csv_text(
            ["trial", "l2", "kh_lower", "kh_upper", "norm_lb", "rx_margin"], rows, args.seed,
            length=args.length, trials=args.trials, failures=len(failures),
        ),
    )
    if failures:
        sys.stderr.write(f"witness: trial {failures[0][0]}: {failures[0][1]}\n")
        return CHECK_FAILED
    return 0


def _cmd_avitzour_find(args) -> int:
    a = MatrixBlockAlgebra.from_json(_load_json_file(args.a))
    b = MatrixBlockAlgebra.from_json(_load_json_file(args.b))
    triple = find_avitzour_triple(a, b, seed=args.seed)
    if triple is None:
        payload = {"found": False, "seed": args.seed}
    else:
        residuals = verify_avitzour_triple(triple.u, triple.v, triple.w)
        payload = {
            "found": True,
            "seed": args.seed,
            "triple": triple.to_json(),
            "residuals": {k: repr(v) for k, v in residuals.items()},
        }
    _atomic_write(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_avitzour_check(args) -> int:
    if args.factors:
        ambient2 = _load_factors(args.factors)
        if len(ambient2.factors) != 2:
            raise CliError("avitzour-check needs exactly two factors")
        a1, a2 = ambient2.factors
    else:
        a1 = a2 = MatrixBlockAlgebra.matrix_with_trace(2)
    triple = find_avitzour_triple(a1, a2, seed=args.seed)
    if triple is None:
        sys.stderr.write(
            "witness: no unitary triple found for these factors"
            " (u from the first, v and w from the second)\n"
        )
        return CHECK_FAILED
    u, v, w = triple.u, triple.v, triple.w
    amb3 = three_factor_ambient(a1, a2)
    amb2 = FreeProductAmbient((a1, a2))
    rng = np.random.default_rng(args.seed)
    rows = []
    failures = []
    for trial in range(args.trials):
        ell = int(rng.integers(1, args.lmax + 1))
        word3 = random_alternating_word(amb3, ell, rng)
        n_tr = ell // 2 + 1
        n_iso = ell + 1
        img = avitzour_phi(n_tr, u, v, w, word3)
        norm2 = l2_inner_free(word3, word3)
        scale = abs(to_complex(norm2))
        # a float triple gives each side through other float operations; the
        # scales are ||x||_2, which bounds |free_state(x)|, and ||x||_2^2
        trace_ok = agree(free_state(img), free_state(word3), math.sqrt(scale))
        img_iso = avitzour_phi(n_iso, u, v, w, word3)
        iso_ok = agree(l2_inner_free(img_iso, img_iso), norm2, scale)
        word2 = random_alternating_word(amb2, ell, rng)
        shape_ok = all(
            avitzour_shape_check(ell // 2 + 1, u, v, w, word2, mode).ok
            for mode in ("i", "ii", "iii")
        )
        _, p = conjugation_word_shape(v, word3)
        length_ok = p <= 3 * ell + 2
        ok = trace_ok and iso_ok and shape_ok and length_ok
        rows.append((trial, ell, int(trace_ok), int(iso_ok), int(shape_ok), p, int(ok)))
        if not ok:
            failures.append(trial)
    _atomic_write(
        args.out,
        _csv_text(
            ["trial", "ell", "trace_ok", "isometry_ok", "shape_ok", "conj_length", "ok"],
            rows,
            args.seed,
            trials=args.trials,
            lmax=args.lmax,
            failures=len(failures),
        ),
    )
    if failures:
        sys.stderr.write(f"witness: trial {failures[0]} failed\n")
        return CHECK_FAILED
    return 0


def _cmd_orthogonality_check(args) -> int:
    if args.config:
        cfg = json_shape(_load_json_file(args.config), dict, args.config, ("algebra", "u", "v_span"))
        _reject_unknown_keys(cfg, {"algebra", "u", "v_span", "fhat_span"}, args.config)
        algebra = MatrixBlockAlgebra.from_json(cfg["algebra"])
        u = AlgebraElement.from_json(algebra, cfg["u"])
        v_span = [AlgebraElement.from_json(algebra, e) for e in json_shape(cfg["v_span"], list, "'v_span'")]
        fhat_span = json_shape(cfg.get("fhat_span", cfg["v_span"]), list, "'fhat_span'")
        fhat = [AlgebraElement.from_json(algebra, e) for e in fhat_span]
        reports = [("config", orthogonality_hypotheses(v_span, u, fhat))]
    else:
        # demo: shifts of growing order on a discretized circle
        n_atoms = args.atoms
        algebra = MatrixBlockAlgebra.from_weights([Fraction(1, n_atoms)] * n_atoms)

        def character(k):
            return algebra.element(
                [[[complex(np.exp(2j * np.pi * k * t / n_atoms))]] for t in range(n_atoms)]
            )

        v_span = [character(k) for k in range(-args.level, args.level + 1) if k != 0]
        reports = []
        for k in args.orders:
            reports.append((f"k={k}", orthogonality_hypotheses(v_span, character(k), v_span)))
    rows = []
    for tag, rep in reports:
        rows.append(
            (
                tag,
                repr(rep.sup_conjugated),
                repr(rep.sup_mixed),
                repr(rep.inflated_constant),
                repr(rep.containment_l2),
                repr(rep.containment_op),
            )
        )
    _atomic_write(
        args.out,
        _csv_text(
            ["case", "sup_conjugated", "sup_mixed", "inflated_constant",
             "containment_l2", "containment_op"],
            rows,
            args.seed,
        ),
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freedecay",
        description="Rapid-decay certificates and free-product state experiments.",
    )
    parser.add_argument("--version", action="version", version=f"freedecay {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed recorded in outputs")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("rd-certify", help="filtration constants and fitted exponent")
    p.add_argument("--builtin", help="builtin measure name")
    p.add_argument("--space", help="JSON file with measure/algebra/free_product")
    p.add_argument("--max-n", type=lambda text: _int_at_least(text, 3), default=20, dest="max_n",
                   help="last level; the exponent fit needs levels 1..3 at least")
    p.add_argument("--json", dest="as_json", action="store_true", help="JSON output")
    common(p)
    p.set_defaults(func=_cmd_rd_certify)

    p = sub.add_parser("classify-abelian", help="selflessness verdict for abelian pairs")
    p.add_argument("--a", required=True, help="comma-separated atom weights")
    p.add_argument("--b", required=True, help="comma-separated atom weights")
    p.add_argument("--json", dest="as_json", action="store_true", help="JSON output")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_classify_abelian)

    p = sub.add_parser("fock-dim", help="truncated space dimensions per depth")
    p.add_argument("--factors", required=True, help="JSON file with {'factors': [...]}")
    p.add_argument("--depth", type=_nonnegative_int, default=4)
    common(p)
    p.set_defaults(func=_cmd_fock_dim)

    p = sub.add_parser("free-moments", help="moments of x*x with the vacuum cross-check")
    p.add_argument("--factors", required=True)
    p.add_argument("--element", required=True, help="JSON file with the element")
    p.add_argument("--rmax", type=_positive_int, default=4)
    common(p)
    p.set_defaults(func=_cmd_free_moments)

    p = sub.add_parser("norm-estimate", help="lower bounds for the reduced norm")
    p.add_argument("--factors", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--depth", type=_nonnegative_int, default=None)
    p.add_argument("--moment-rmax", type=_positive_int, default=4, dest="moment_rmax")
    common(p)
    p.set_defaults(func=_cmd_norm_estimate)

    p = sub.add_parser("kh-norm", help="random homogeneous-element norm bracket sweep")
    p.add_argument("--factors", default=None)
    p.add_argument("--length", type=_positive_int, default=2)
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--moment-rmax", type=_positive_int, default=2, dest="moment_rmax")
    common(p)
    p.set_defaults(func=_cmd_kh_norm)

    p = sub.add_parser("avitzour-find", help="search for a unitary triple")
    p.add_argument("--a", required=True, help="JSON file with the first algebra")
    p.add_argument("--b", required=True, help="JSON file with the second algebra")
    common(p)
    p.set_defaults(func=_cmd_avitzour_find)

    p = sub.add_parser("avitzour-check", help="conjugation identities on random words")
    p.add_argument("--factors", default=None)
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--lmax", type=_positive_int, default=4)
    common(p)
    p.set_defaults(func=_cmd_avitzour_check)

    p = sub.add_parser(
        "orthogonality-check",
        help="almost-orthogonality / containment numbers for a candidate unitary",
    )
    p.add_argument("--config", default=None, help="JSON config with algebra/u/v_span")
    p.add_argument("--atoms", type=_positive_int, default=48,
                   help="demo: circle discretization size")
    p.add_argument("--level", type=_nonnegative_int, default=2, help="demo: low-frequency band half-width")
    p.add_argument("--orders", type=int, nargs="+", default=[3, 6, 12],
                   help="demo: character orders to test")
    common(p)
    p.set_defaults(func=_cmd_orthogonality_check)

    return parser


def run(argv) -> int:
    """Execute one invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except (AlgebraError, MeasureError, FockError, AvitzourConditionError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
