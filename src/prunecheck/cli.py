"""Command-line front end.

Subcommands: check, prune, sweep, features, validate, export-dtmc.
Exit codes: 0 ok; 2 parse error in any input; 3 invalid model; 4 limits
exceeded; 5 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .environments import from_uri, is_builtin_uri
from .errors import PrunecheckError, UnknownLabelWarning
from .induced import BuildLimits, build_induced_dtmc, induced_to_explicit
from .model import EnvironmentModel, load_explicit_model, validate_model
from .policy import NeuralPolicy, dump_policy, load_policy
from .pruning import PruneSpec, dump_mask, prune
from .workflow import (
    feature_importance,
    measure,
    report_to_dict,
    sweep,
    write_text,
)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise PrunecheckError(f"cannot read {path}: {err.strerror}") from err


def _write_output(text: str, out: str | None) -> None:
    """Write ``text`` to stdout, or to the file ``out``; either way it ends in a newline."""
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        write_text(out, text)
    except OSError as err:
        raise PrunecheckError(f"cannot write {out}: {err.strerror}") from err


def _load_model(spec: str) -> EnvironmentModel:
    if is_builtin_uri(spec):
        return from_uri(spec)
    return load_explicit_model(_read_file(spec))


def _load_policy(path: str) -> NeuralPolicy:
    return load_policy(_read_file(path))


def _property_text(args: argparse.Namespace) -> str:
    if args.prop is not None:
        return args.prop
    lines = [
        line.strip()
        for line in _read_file(args.prop_file).splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise PrunecheckError(f"property file {args.prop_file} holds no property text")
    return " ".join(lines)


def _limits(args: argparse.Namespace) -> BuildLimits:
    return BuildLimits(max_states=args.max_states)


def _spec_from_args(args: argparse.Namespace) -> PruneSpec:
    return PruneSpec(
        method=args.method,
        layer=args.layer,
        fraction=args.fraction,
        seed=args.seed,
        feature=args.feature,
    )


# ===== Subcommand handlers =====


def _cmd_check(args: argparse.Namespace) -> int:
    env = _load_model(args.model)
    policy = _load_policy(args.policy)
    report = measure(
        env,
        policy,
        _property_text(args),
        _limits(args),
        model_id=args.model,
        policy_id=args.policy,
    )
    if args.json:
        _write_output(json.dumps(report_to_dict(report, args.timings), indent=2), args.out)
    else:
        lines = [f"property: {report.property_text}", f"m: {report.m!r}"]
        if report.satisfied is not None:
            lines.append(f"satisfied: {'yes' if report.satisfied else 'no'}")
        lines.append(f"states: {report.original.states}")
        lines.append(f"transitions: {report.original.transitions}")
        _write_output("\n".join(lines), args.out)
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    policy = _load_policy(args.policy)
    pruned, mask = prune(policy, _spec_from_args(args))
    _write_output(dump_policy(pruned), args.out)
    mask_out = args.mask_out
    if mask_out is None and args.out is not None:
        mask_out = args.out + ".mask.json"
    if mask_out is not None:
        try:
            _write_output(dump_mask(mask), mask_out)
        except PrunecheckError:
            if args.out is not None:  # leave no policy without its mask
                os.remove(args.out)
            raise
    sys.stderr.write(f"zeroed {mask.size} weights\n")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    env = _load_model(args.model)
    policy = _load_policy(args.policy)
    seeds = ()
    if args.seeds:
        try:
            seeds = tuple(int(part) for part in args.seeds.split(","))
        except ValueError:
            raise PrunecheckError(f"--seeds {args.seeds!r}: expected comma-separated integers") from None
    text = sweep(
        env,
        policy,
        _property_text(args),
        method=args.method,
        layer=args.layer,
        fraction_grid=args.fractions,
        seeds=seeds,
        limits=_limits(args),
        lower_is_safer=args.lower_is_safer,
        include_timings=args.timings,
    )
    _write_output(text, args.out)
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    env = _load_model(args.model)
    policy = _load_policy(args.policy)
    reports = feature_importance(
        env,
        policy,
        _property_text(args),
        _limits(args),
        lower_is_safer=args.lower_is_safer,
        model_id=args.model,
        policy_id=args.policy,
    )
    if args.json:
        _write_output(json.dumps([report_to_dict(r, args.timings) for r in reports], indent=2), args.out)
        return 0
    lines = [f"property: {reports[0].property_text}", f"m: {reports[0].m!r}", ""]
    lines.append(f"{'feature':<16}{'m_hat':<24}{'delta':<26}verdict")
    for report in reports:
        lines.append(
            f"{report.prune_spec.feature:<16}{report.m_hat!r:<24}{report.delta!r:<26}{report.verdict}"
        )
    _write_output("\n".join(lines), args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    env = _load_model(args.model)
    report = validate_model(env, max_states=args.max_states)
    if args.json:
        doc = {
            "states": report.states,
            "transitions": report.transitions,
            "violations": report.violations,
        }
        _write_output(json.dumps(doc, indent=2), args.out)
    else:
        lines = [f"states: {report.states}", f"transitions: {report.transitions}"]
        if report.ok:
            lines.append("ok")
        else:
            lines.extend(f"violation: {v}" for v in report.violations)
        _write_output("\n".join(lines), args.out)
    return 0 if report.ok else 3


def _cmd_export_dtmc(args: argparse.Namespace) -> int:
    env = _load_model(args.model)
    policy = _load_policy(args.policy)
    build = build_induced_dtmc(env, policy, _limits(args))
    _write_output(induced_to_explicit(build.dtmc, env.feature_schema), args.out)
    return 0


# ===== Parser wiring =====


def _state_cap(text: str) -> int:
    """An exploration cap: a whole number of states, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prunecheck",
        description="Prune neural control policies and measure exactly how safety probabilities change.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--model", required=True, help="builtin:<name>?... URI or explicit model file")

    policy_flags = argparse.ArgumentParser(add_help=False)
    policy_flags.add_argument("--policy", required=True, help="policy document file")

    prop_flags = argparse.ArgumentParser(add_help=False)
    group = prop_flags.add_mutually_exclusive_group(required=True)
    group.add_argument("--prop", help="property text, e.g. 'P=? [ F \"goal\" ]'")
    group.add_argument("--prop-file", help="file holding the property text (# comments allowed)")

    lower_flag = argparse.ArgumentParser(add_help=False)
    lower_flag.add_argument(
        "--lower-is-safer",
        action="store_true",
        help="for P=? queries, treat smaller values as safer when classifying deltas",
    )

    cap_flag = argparse.ArgumentParser(add_help=False)
    cap_flag.add_argument("--max-states", type=_state_cap, default=BuildLimits().max_states, metavar="N")

    out_flag = argparse.ArgumentParser(add_help=False)
    out_flag.add_argument("--out", help="write output to this path instead of stdout")

    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit JSON instead of text")

    timings_flag = argparse.ArgumentParser(add_help=False)
    timings_flag.add_argument(
        "--timings",
        action="store_true",
        help="emit real wall-clock times (breaks byte-for-byte reproducibility)",
    )

    # Each subcommand takes exactly the flags its handler reads.
    p = sub.add_parser(
        "check",
        parents=[model_flags, policy_flags, prop_flags, cap_flag, out_flag, json_flag, timings_flag],
        help="measure one property for one policy",
    )
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("prune", parents=[policy_flags, out_flag], help="write a pruned policy and its mask")
    p.add_argument("--method", required=True, choices=("l1", "random", "feature"))
    p.add_argument("--layer", type=int, help="1-based layer index (l1, random)")
    p.add_argument("--fraction", type=float, help="fraction of nonzeros to zero (l1, random)")
    p.add_argument("--seed", type=int, help="sample seed (random)")
    p.add_argument("--feature", help="input feature name (feature)")
    p.add_argument("--mask-out", help="mask path (default: <out>.mask.json)")
    p.set_defaults(handler=_cmd_prune)

    p = sub.add_parser(
        "sweep",
        parents=[model_flags, policy_flags, prop_flags, lower_flag, cap_flag, out_flag, timings_flag],
        help="prune over a fraction grid and emit CSV",
    )
    p.add_argument("--method", required=True, choices=("l1", "random"))
    p.add_argument("--layer", type=int, required=True, help="1-based layer index")
    p.add_argument("--fractions", required=True, metavar="START:STOP:STEP")
    p.add_argument("--seeds", help="comma-separated seeds (random method)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser(
        "features",
        parents=[model_flags, policy_flags, prop_flags, lower_flag, cap_flag, out_flag, json_flag, timings_flag],
        help="prune each input feature and report the deltas",
    )
    p.set_defaults(handler=_cmd_features)

    p = sub.add_parser(
        "validate", parents=[model_flags, cap_flag, out_flag, json_flag], help="walk a model and check invariants"
    )
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser(
        "export-dtmc",
        parents=[model_flags, policy_flags, cap_flag, out_flag],
        help="write the induced chain as an explicit model document",
    )
    p.set_defaults(handler=_cmd_export_dtmc)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UnknownLabelWarning)
            code = args.handler(args)
        for item in caught:
            sys.stderr.write(f"warning: {item.message}\n")
        return code
    except PrunecheckError as err:
        sys.stderr.write(f"error: {err}\n")
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
