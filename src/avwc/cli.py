"""Command-line front end.

Subcommands map one-to-one onto the library operations: ``structure`` runs
the symmetrisability and best-eavesdropper tests, ``bounds`` evaluates the
secrecy-capacity bounds, and ``code`` drives the construction pipeline.  Each
``code`` stage (build, evaluate, robustify, reduce, eliminate, verify-lemmas)
is a subparser of its own that declares only the flags its handler reads, so
any other flag is a usage error.  Reports are emitted as JSON or aligned
text; the top-level ``seed`` is the seed the command used (``null`` for
``structure`` and ``bounds``, which draw nothing), and the results block is a
pure function of (spec file, flags, seed), so repeated runs are
byte-identical there.

Exit codes: 0 success, 2 parse error, 3 resource limit, 4 numeric or
reduction failure.  A reader that closes the pipe early still gets exit 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .bounds import (
    BoundOptions,
    avc_capacity,
    multiletter_bound,
    secrecy_lower_bound,
    secrecy_upper_bound_single_letter,
)
from .channels import Distribution, enumeration_cap
from .codefile import parse_code, parse_random_code, serialize_code, serialize_random_code
from .coding import (
    TypicalityParams,
    WiretapCode,
    build_random_codebook,
    check_secrecy_events,
    decode_rule,
    evaluate_code,
)
from .errors import AvwcError, ResourceLimitError, SpecFormatError
from .pipeline import (
    eliminate_randomness,
    reduce_random_code,
    robustify,
    verify_robustification,
)
from .specfile import load_spec
from .structure import find_best_eaves_channel, test_symmetrisable
from .typicality import verify_typicality_bounds


def _matrix(rows: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in rows]


def _vector(values) -> list[float]:
    return [float(v) for v in values]


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _bound_block(tag: str, result) -> dict:
    block = {"tag": tag, "value_bits_per_use": result.value}
    if result.argmax_p is not None:
        block["argmax_p"] = _vector(result.argmax_p.probs)
    if result.inner_argmin_q is not None:
        block["inner_argmin_q"] = _vector(result.inner_argmin_q.probs)
    if result.inner_argmax_state is not None:
        block["inner_argmax_state"] = result.inner_argmax_state
    if result.symmetrisable is not None:
        block["symmetrisable"] = result.symmetrisable
        block["deterministic_value_bits_per_use"] = result.deterministic_value
    return block


def cmd_structure(args, spec) -> dict:
    sym = test_symmetrisable(list(spec.avwc.main), args.tol)
    best = find_best_eaves_channel(list(spec.avwc.eaves), args.tol)
    results: dict = {"tag": "structure"}
    sym_block: dict = {
        "tag": "symmetrisability",
        "symmetrisable": sym.symmetrisable,
        "tol": sym.tol,
        "marginal": sym.marginal,
    }
    if sym.symmetrisable:
        sym_block["u_witness"] = _matrix(sym.u_witness.rows)
        sym_block["residual"] = sym.residual
    else:
        sym_block["margin"] = sym.margin
    results["symmetrisability"] = sym_block
    best_block: dict = {"tag": "best-eavesdropper-channel", "exists": best.exists}
    if best.exists:
        best_block["q_star"] = _vector(best.q_star.probs)
        best_block["state"] = spec.state_names[int(np.argmax(best.q_star.probs))]
        best_block["per_state_residuals"] = [r.residual for r in best.per_state_reports]
    else:
        best_block["candidates_tried"] = best.candidates_tried
    results["best_eavesdropper_channel"] = best_block
    return results


def cmd_bounds(args, spec) -> dict:
    opts = BoundOptions(p_grid_denominator=args.grid, starts=args.starts)
    results: dict = {"tag": "bounds"}
    lower = secrecy_lower_bound(spec.avwc, opts)
    lower_block = _bound_block("secrecy-lower-bound", lower)
    results["secrecy_lower_bound"] = lower_block
    cap = avc_capacity(list(spec.avwc.main), opts)
    results["main_avc_capacity"] = _bound_block("main-avc-capacity", cap)
    # the paper's dichotomy: deterministic codes reach nothing over a symmetrisable main AVC;
    # its lower bound is proved only when a best eavesdropper channel exists
    deterministic_lower = 0.0 if cap.symmetrisable else lower.value
    lower_block["deterministic_value_bits_per_use"] = deterministic_lower
    lower_block["best_eavesdropper_channel_exists"] = find_best_eaves_channel(
        list(spec.avwc.eaves), opts.structure_tol
    ).exists
    upper = secrecy_upper_bound_single_letter(spec.avwc, opts=opts)
    results["secrecy_upper_bound_single_letter"] = _bound_block(
        "secrecy-upper-bound-single-letter", upper
    )
    if args.n:
        multi = multiletter_bound(spec.avwc, args.n, opts=opts)
        block = _bound_block("multi-letter-bound", multi)
        block["n"] = args.n
        results["multi_letter_bound"] = block
    results["gap_upper_minus_lower"] = upper.value - lower.value
    results["gap_upper_minus_deterministic_lower"] = upper.value - deterministic_lower
    return results


def _input_distribution(spec, name: str | None) -> Distribution:
    if name is None or name == "uniform":
        return Distribution.uniform(spec.avwc.input_size)
    if name not in spec.distributions:
        raise SpecFormatError(f"spec file defines no distribution named {name!r}")
    kind, dist = spec.distributions[name]
    if kind != "inputs":
        raise SpecFormatError(f"distribution {name!r} is over {kind}, not inputs")
    return dist


def _read(path: str, parse):
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def _write(results: dict, path: str | None, text) -> None:
    """Write ``text()`` to ``path``, if one is given, and name the file in the results."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text())
        results["code_file"] = os.path.basename(path)


def _stage_results(args, spec, n: int) -> dict:
    """Open a code stage's results block with the enumeration sizes at block length ``n``,
    also printed to stderr before any heavy work starts."""
    avwc = spec.avwc
    sizes = {
        "block_length": n,
        "input_words": avwc.input_size**n,
        "main_output_words": avwc.main_output_size**n,
        "eaves_output_words": avwc.eaves_output_size**n,
        "state_sequences": avwc.state_count**n,
        "enumeration_cap": enumeration_cap(),
    }
    print(
        "size estimate: " + ", ".join(f"{key}={value}" for key, value in sizes.items()),
        file=sys.stderr,
    )
    return {"tag": f"code-{args.stage}", "size_estimate": sizes}


def cmd_build(args, spec) -> dict:
    """draw a random wiretap codebook"""
    results = _stage_results(args, spec, args.n)
    p = _input_distribution(spec, args.p)
    code = build_random_codebook(p, spec.avwc, args.n, args.tau, args.seed, args.delta)
    results["message_count"] = code.j_count
    results["randomizer_count"] = code.l_count
    results["block_length"] = code.n
    _write(results, args.out, lambda: serialize_code(code))
    return results


def cmd_evaluate(args, spec) -> dict:
    """exact worst-case error and leakage of a code"""
    code = _read(args.code, parse_code)
    results = _stage_results(args, spec, code.n)
    report = evaluate_code(code, spec.avwc, keep_table=bool(args.table))
    results["worst_state_error"] = report.worst_state_error
    results["worst_error_sequence"] = list(report.worst_state_sequence.symbols)
    results["worst_leakage_bits"] = report.worst_leakage_bits
    results["worst_leakage_sequence"] = list(report.worst_leakage_sequence.symbols)
    if args.table:
        with open(args.table, "w", encoding="utf-8") as handle:
            handle.write("state_sequence,error,leakage_bits\n")
            for seq, err, leak in report.per_sequence:
                symbols = "".join(str(s) for s in seq.symbols)
                handle.write(f"{symbols},{err!r},{leak!r}\n")
        results["table_file"] = os.path.basename(args.table)
    return results


def cmd_robustify(args, spec) -> dict:
    """check the robustification inequality of a code's permutation family"""
    code = _read(args.code, parse_code)
    results = _stage_results(args, spec, code.n)
    family = robustify(code, spec.avwc)
    report = verify_robustification(code, spec.avwc)
    results["family_size"] = family.member_count()
    results["gamma"] = report.gamma
    results["min_slack"] = report.min_slack
    results["bound_coefficient"] = report.bound_coefficient
    results["robustification_holds"] = report.passed
    return results


def cmd_reduce(args, spec) -> dict:
    """reduce a code's permutation family to k random members"""
    code = _read(args.code, parse_code)
    results = _stage_results(args, spec, code.n)
    family = robustify(code, spec.avwc)
    reduced = reduce_random_code(
        family, spec.avwc, k_count=args.k, epsilon=args.epsilon, seed=args.seed
    )
    ver = reduced.verification
    results["k_count"] = ver.k_count
    results["epsilon"] = ver.epsilon
    results["attempts"] = ver.attempts
    results["worst_mean_error"] = ver.worst_mean_error
    results["worst_mean_leakage"] = ver.worst_mean_leakage
    _write(results, args.out, lambda: serialize_random_code(reduced))
    return results


def cmd_eliminate(args, spec) -> dict:
    """replace a reduced random code's shared randomness by a prefix code"""
    reduced = _read(args.reduced, parse_random_code)
    results = _stage_results(args, spec, args.prefix_len + reduced.members[0].n)
    outcome = eliminate_randomness(reduced, spec.avwc, args.prefix_len)
    rep = outcome.report
    results["prefix_len"] = rep.prefix_len
    results["k_count"] = rep.k_count
    results["worst_total_error"] = rep.worst_total_error
    results["worst_prefix_error"] = rep.worst_prefix_error
    results["worst_mean_member_error"] = rep.worst_mean_member_error
    results["error_decomposition_margin"] = rep.error_decomposition_margin
    results["worst_payload_leakage_bits"] = rep.worst_payload_leakage
    results["worst_mean_member_leakage_bits"] = rep.worst_mean_member_leakage
    results["leakage_margin"] = rep.leakage_margin
    results["checks_pass"] = rep.passed
    _write(results, args.out, lambda: serialize_code(outcome.code))
    return results


def cmd_verify_lemmas(args, spec) -> dict:
    """check the typicality lemmas and robustification exhaustively"""
    avwc = spec.avwc
    code = _read(args.code, parse_code) if args.code else None
    if code is not None and code.n != args.n:
        raise ValueError(f"code block length {code.n} differs from --n {args.n}")
    results = _stage_results(args, spec, args.n)
    p = _input_distribution(spec, args.p)
    tp = TypicalityParams(args.n, args.delta)
    channel_reports = []
    all_pass = True
    for label, family in (("main", avwc.main), ("eaves", avwc.eaves)):
        for state, channel in enumerate(family):
            rep = verify_typicality_bounds(p, channel, tp)
            channel_reports.append(
                {
                    "family": label,
                    "state": spec.state_names[state],
                    "passed": rep.passed,
                    "input_margin": rep.input_margin,
                    "conditional_margin": rep.cond_margin,
                    "cardinality_margin": rep.alpha_margin,
                    "pointwise_margin": rep.beta_margin,
                }
            )
            all_pass &= rep.passed
    results["typicality_checks"] = channel_reports
    if code is None:
        code = _default_probe_code(avwc, args.n, tp)
    rob = verify_robustification(code, avwc)
    results["robustification"] = {
        "gamma": rob.gamma,
        "min_slack": rob.min_slack,
        "holds": rob.passed,
    }
    if args.secrecy_events:
        events = check_secrecy_events(code, avwc, tp, p=p)
        results["secrecy_events"] = {
            "epsilon": events.epsilon,
            "all_hold": events.all_hold,
        }
    results["all_checks_pass"] = bool(all_pass and rob.passed)
    return results


def _default_probe_code(avwc, n: int, tp: TypicalityParams):
    """Tiny two-message probe code used when verify-lemmas gets no --code."""
    codewords = np.zeros((2, 1, n), dtype=int)
    codewords[1, 0, :] = min(1, avwc.input_size - 1)
    code = WiretapCode(
        n=n,
        input_size=avwc.input_size,
        output_size=avwc.main_output_size,
        codewords=codewords,
        decoder=np.full(avwc.main_output_size**n, -1),
    )
    return replace(code, decoder=decode_rule(code, avwc, tp))


def _render_text(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_render_text(item, indent + 1))
                lines.append(pad + "  -")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line)


# the code stages key Philox streams with the seed itself, and Philox keys lie below 2**128
_CODE_MAX_SEED = 2**128 - 1


def _int_at_least(minimum: int, maximum: int | None = None):
    """argparse type for an integer flag that must be at least ``minimum``
    and, if ``maximum`` is given, at most ``maximum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """argparse type for a float flag that must be positive and finite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {value}")
    return value


# the flags of the code stages; a stage declares only those its handler reads
_CODE_FLAGS = {
    "--n": dict(type=_int_at_least(1), default=4),
    "--tau": dict(type=_positive_float, default=0.1),
    "--delta": dict(type=_positive_float, default=0.2),
    "--seed": dict(type=_int_at_least(0, _CODE_MAX_SEED), default=0),
    "--p": dict(help="named input distribution from the spec file"),
    "--code": dict(help="code file produced by 'build'"),
    "--reduced": dict(help="random-code file produced by 'reduce'"),
    "--out": dict(help="write the resulting code here"),
    "--table": dict(help="write per-sequence metrics as CSV"),
    "--k": dict(type=_int_at_least(1), help="reduced family size"),
    "--epsilon": dict(type=_positive_float, default=0.25),
    "--prefix-len": dict(type=_int_at_least(0), default=4),
    "--secrecy-events": dict(action="store_true"),
}

# stage -> (handler, the flags it reads); "!" marks a required flag
_CODE_STAGES = {
    "build": (cmd_build, "--n --tau --delta --seed --p --out"),
    "evaluate": (cmd_evaluate, "--code! --table"),
    "robustify": (cmd_robustify, "--code!"),
    "reduce": (cmd_reduce, "--code! --k --epsilon --seed --out"),
    "eliminate": (cmd_eliminate, "--reduced! --prefix-len --out"),
    "verify-lemmas": (cmd_verify_lemmas, "--n --delta --p --code --secrecy-events"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avwc",
        description="Structure tests, secrecy bounds and coding pipeline for "
        "arbitrarily varying wiretap channels",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_structure = sub.add_parser("structure", help="symmetrisability and best-channel tests")
    p_structure.add_argument("spec")
    p_structure.add_argument("--tol", type=_positive_float, default=1e-8)
    p_structure.add_argument("--format", choices=("json", "text"), default="text")
    p_structure.set_defaults(handler=cmd_structure)

    defaults = BoundOptions()
    p_bounds = sub.add_parser("bounds", help="secrecy-capacity bounds")
    p_bounds.add_argument("spec")
    p_bounds.add_argument(
        "--grid", type=_int_at_least(1), default=defaults.p_grid_denominator, help="simplex grid denominator"
    )
    p_bounds.add_argument(
        "--starts", type=_int_at_least(1), default=defaults.starts, help="ascent multi-start count"
    )
    p_bounds.add_argument(
        "--n", type=_int_at_least(0), default=0, help="also evaluate the n-letter bound (0 skips it)"
    )
    p_bounds.add_argument("--format", choices=("json", "text"), default="text")
    p_bounds.set_defaults(handler=cmd_bounds)

    p_code = sub.add_parser("code", help="code construction pipeline")
    p_code.add_argument("spec")
    stages = p_code.add_subparsers(dest="stage", required=True)
    for name, (handler, flags) in _CODE_STAGES.items():
        p_stage = stages.add_parser(name, help=handler.__doc__)
        for flag in flags.split():
            option = flag.rstrip("!")
            p_stage.add_argument(option, required=flag.endswith("!"), **_CODE_FLAGS[option])
        p_stage.add_argument("--format", choices=("json", "text"), default="text")
        p_stage.set_defaults(handler=handler)
    return parser


# the first matching entry wins
_EXIT_BY_ERROR = ((SpecFormatError, 2), (ResourceLimitError, 3), ((ValueError, AvwcError, OSError), 4))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        results = args.handler(args, load_spec(args.spec))
    except Exception as exc:  # noqa: BLE001 - exit-code mapping below
        for err_type, code in _EXIT_BY_ERROR:
            if isinstance(exc, err_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise
    report = {
        "command": "avwc " + " ".join(argv),
        "input_sha256": _digest(args.spec),
        "seed": getattr(args, "seed", None),
        "results": results,
        "timing_seconds": round(time.perf_counter() - started, 6),
        "version": __version__,
    }
    text = json.dumps(report, indent=2, sort_keys=True) if args.format == "json" else _render_text(report)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader left early (``| head``): send what is left, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
