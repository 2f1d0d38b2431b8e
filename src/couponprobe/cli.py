"""Command line front end.

Subcommands: run one policy and report summary statistics, compare several
policies on paired worlds, query the exact adaptive optimum, or validate an
instance file.  Reports are machine-readable text; apart from the opt-in
timing line, every field is a pure function of the instance bytes and flags.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

from .instance_io import load_instance
from .model import COST_MODE_THRESHOLD, COST_MODES, Instance
from .oracle import optimal_adaptive_value
from .relaxation import RelaxationConfig
from .rounding import Alg1Policy
from .sequencing import Alg2Policy, PolicyEvaluation, StochCpPolicy, evaluate_policy

POLICY_NAMES = ("alg1", "alg2", "stoch-cp", "e-alg1", "e-alg2", "e-stoch-cp", "opt-oracle")


def _resolve_policy_name(name: str, extended_flag: bool) -> tuple[str, bool]:
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}; choose from {', '.join(POLICY_NAMES)}")
    extended = extended_flag or name.startswith("e-")
    base = name[2:] if name.startswith("e-") else name
    return base, extended


def make_policy(name: str, instance: Instance, config: RelaxationConfig, extended_flag: bool = False):
    """Instantiate a policy by CLI name; 'e-' prefixes force extended mode."""
    base, extended = _resolve_policy_name(name, extended_flag)
    if base == "alg1":
        return Alg1Policy(instance, config, extended=extended)
    if base == "alg2":
        return Alg2Policy(instance, extended=extended)
    if base == "stoch-cp":
        return StochCpPolicy(instance, config, extended=extended)
    raise ValueError(f"policy {name!r} is not world-simulated; use the oracle subcommand")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _config_from_args(args) -> RelaxationConfig:
    return RelaxationConfig(
        beta=args.beta,
        delta=args.delta,
        marginal_samples=args.marginal_samples,
        rng_seed=args.seed,
        cost_mode=args.cost_mode,
    )


def _evaluate(args, instance: Instance, name: str) -> tuple[RelaxationConfig, bool, PolicyEvaluation, float]:
    """Evaluate one policy by CLI name: its config, whether it runs in
    extended mode, its evaluation and the seconds that took."""
    config = _config_from_args(args)
    base, extended = _resolve_policy_name(name, args.extended)
    start = time.perf_counter()
    if base == "opt-oracle":
        value = optimal_adaptive_value(instance, restricted=False, use_W=extended)
        evaluation = PolicyEvaluation(mean=value, stderr=0.0, worlds=0, violations=0)
    else:
        policy = make_policy(name, instance, config, args.extended)
        evaluation = evaluate_policy(instance, policy, args.worlds, args.seed)
    return config, extended, evaluation, time.perf_counter() - start


def _cmd_run(args) -> int:
    instance = load_instance(args.instance)
    digest = _sha256(args.instance)
    config, extended, evaluation, elapsed = _evaluate(args, instance, args.policy)
    lines = [
        f"policy {args.policy}",
        f"instance_sha256 {digest}",
        f"worlds {evaluation.worlds}",
        f"seed {args.seed}",
        f"beta {config.resolved_beta(extended)!r}",
        f"delta {args.delta!r}" if args.delta is not None else "delta auto",
        f"marginal_samples {args.marginal_samples}",
        f"cost_mode {args.cost_mode}",
        f"extended {str(extended).lower()}",
        f"mean {evaluation.mean!r}",
        f"stderr {evaluation.stderr!r}",
        f"violations {evaluation.violations}",
    ]
    for branch, count in sorted(evaluation.branch_counts.items()):
        lines.append(f"branch_{branch} {count / evaluation.worlds!r}")
    if args.timing:
        lines.append(f"elapsed_s {elapsed!r}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_compare(args) -> int:
    names: list[str] = []
    for chunk in args.policy:
        names.extend(p for p in chunk.split(",") if p)
    if len(names) < 2:
        raise ValueError("compare needs at least two policies")
    instance = load_instance(args.instance)
    out = [
        f"# instance_sha256 {_sha256(args.instance)}",
        f"# worlds {args.worlds}",
        f"# seed {args.seed}",
        "policy,mean,stderr,violations,error",
    ]
    for name in names:
        try:
            _, _, evaluation, _ = _evaluate(args, instance, name)
            out.append(f"{name},{evaluation.mean!r},{evaluation.stderr!r},{evaluation.violations},")
        except ValueError as exc:  # every refusal the package makes; keep comparing
            out.append(f"{name},,,,{str(exc).replace(',', ';')}")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    value = optimal_adaptive_value(instance, restricted=args.restricted, use_W=args.extended)
    sys.stdout.write(
        f"restricted {str(args.restricted).lower()}\n"
        f"extended {str(args.extended).lower()}\n"
        f"value {value!r}\n"
    )
    return 0


def _cmd_validate(args) -> int:
    instance = load_instance(args.instance)
    sys.stdout.write(
        f"ok users {instance.n_users} edges {len(instance.graph.edges)} "
        f"coupons {len(instance.coupons)} K {instance.K} B {instance.B!r}"
        + (f" W {instance.W}" if instance.W is not None else "")
        + "\n"
    )
    return 0


def non_negative_int(text: str) -> int:
    """argparse type for --seed: numpy seeds its generators from non-negative ints only."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type for --worlds and --marginal-samples, counts of at least 1,
    so a refusal names the flag."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("instance", help="instance file")
    parser.add_argument("--beta", type=float, default=None, help="constraint scaling in [0, 1/2]")
    parser.add_argument("--delta", type=float, default=None, help="ascent step size in (0, 1]")
    parser.add_argument("--worlds", type=positive_int, default=10000, help="simulated worlds per policy")
    parser.add_argument("--seed", type=non_negative_int, default=0, help="root RNG seed")
    parser.add_argument("--extended", action="store_true", help="enforce the cap on distinct users probed")
    parser.add_argument("--cost-mode", choices=COST_MODES, default=COST_MODE_THRESHOLD)
    parser.add_argument("--marginal-samples", type=positive_int, default=200)
    parser.add_argument("--timing", action="store_true", help="append the elapsed-time line to reports")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="couponprobe",
        description="Adaptive coupon probing policies for influence maximization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one policy and print a report")
    _add_common(p_run)
    p_run.add_argument("--policy", required=True, help=f"one of: {', '.join(POLICY_NAMES)}")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="evaluate several policies on paired worlds")
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--policy", action="append", required=True,
        help="policy name; repeat the flag or separate names with commas",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_orc = sub.add_parser("oracle", help="exact optimal adaptive value (tiny instances)")
    p_orc.add_argument("instance", help="instance file")
    p_orc.add_argument("--restricted", action="store_true",
                       help="force each user's offers into consecutive rounds")
    p_orc.add_argument("--extended", action="store_true",
                       help="enforce the cap on distinct users probed")
    p_orc.set_defaults(func=_cmd_oracle)

    p_val = sub.add_parser("validate", help="check an instance file and summarize it")
    p_val.add_argument("instance", help="instance file")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # InstanceFormatError and OracleSizeError included
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
