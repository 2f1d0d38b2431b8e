"""couponprobe benchmark: end-to-end CLI metrics and a traced run per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload relax48 --seed 1 --seconds 30 --trace 0

The seed generates the workload's batch of instance files and CLI flags
(`workloads.py`).  The run drives `couponprobe.cli.main(argv)` in a closed
loop, one command at a time, each in a fresh single-threaded process
(`worker.py`), cycling over the batch until `--seconds` are spent.  Every
report is checked: exit code 0, an empty `error` column, `violations 0`, the
reference values of `worker.reference`, and byte-identical output across the
commands of one instance.

With `--trace 0` the run reports the end-to-end metrics: per instance the
median over its commands, averaged over the batch, with times scaled to a
reference speed (`end_to_end`).  With `--trace 1` it follows each untraced
command with a traced one (`tracer.py`), reports the per-layer metrics and the
tracing overhead, and checks that traced and untraced reports are identical.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines above it print the same metrics
for people, with the unscaled times and `fail_rate`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")  # generated instances and cached references
MIN_CYCLES = 2
COMMAND_TIMEOUT_S = 150
STDERR_LIMIT = 4  # combined standard errors a simulated mean may stray
# one thread per process, and the same string hashing in every process
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1", PYTHONHASHSEED="0")

LAYERS = ("cli", "instance_io", "influence", "model", "relaxation", "simplex",
          "rounding", "sequencing", "oracle")

# per-call timings: metric name -> (span name, scale to the unit, unit)
TIMINGS = {
    "instance_io.load_ms": ("instance_io.load_instance", 1e-6, "ms"),
    "influence.singleton_table_s": ("influence.singleton_table", 1e-9, "s"),
    "influence.realized_influence_us": ("influence.realized_influence", 1e-3, "us"),
    "model.sample_world_us": ("model.sample_world", 1e-3, "us"),
    "model.check_trace_us": ("model.check_trace", 1e-3, "us"),
    "relaxation.continuous_greedy_s": ("relaxation.continuous_greedy", 1e-9, "s"),
    "relaxation.estimate_marginals_ms": ("relaxation.estimate_marginals", 1e-6, "ms"),
    "relaxation.solve_lp_ms": ("relaxation.solve_lp", 1e-6, "ms"),
    "relaxation.solve_lp_w_ms": ("relaxation.solve_lp_w", 1e-6, "ms"),
    "simplex.maximize_ms": ("simplex.maximize", 1e-6, "ms"),
    "rounding.independent_round_us": ("rounding.independent_round", 1e-3, "us"),
    "rounding.contention_one_us": ("rounding.contention_one", 1e-3, "us"),
    "rounding.contention_two_us": ("rounding.contention_two", 1e-3, "us"),
    "rounding.execute_probe_set_us": ("rounding.execute_probe_set", 1e-3, "us"),
    "sequencing.alg2_execute_us": ("sequencing.alg2_execute", 1e-3, "us"),
    "oracle.optimal_adaptive_value_s": ("oracle.optimal_adaptive_value", 1e-9, "s"),
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def spawn(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_path(argv: list[str]) -> str:
    """Cache file of one instance's reference values, keyed by file bytes and flags."""
    with open(os.path.join(ROOT, argv[1]), "rb") as fh:
        key = hashlib.sha256(fh.read() + json.dumps(argv).encode()).hexdigest()[:24]
    return os.path.join(WORK, f"ref-{key}.json")


def load_reference(argv: list[str]) -> dict | None:
    path = reference_path(argv)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(argv: list[str], reference: dict) -> None:
    path = reference_path(argv)
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
    os.replace(path + ".tmp", path)


def parse_report(text: str) -> dict[str, dict]:
    """Rows of a `run` report (key value lines) or `compare` table, by policy."""
    lines = text.splitlines()
    if "policy,mean,stderr,violations,error" in lines:
        rows = {}
        for line in lines[lines.index("policy,mean,stderr,violations,error") + 1:]:
            name, mean, stderr, violations, error = line.split(",", 4)
            rows[name] = {"mean": mean, "stderr": stderr, "violations": violations, "error": error}
        return rows
    fields = dict(line.split(" ", 1) for line in lines if " " in line)
    return {fields.get("policy", "?"): {
        "mean": fields.get("mean", ""), "stderr": fields.get("stderr", ""),
        "violations": fields.get("violations", ""), "error": ""}}


def check_report(result: dict, reference: dict) -> list[str]:
    """Problems with one command's report; empty when it is correct."""
    if result["rc"] != 0:
        return [f"exit code {result['rc']}: {result['stderr'].strip()}"]
    try:
        rows = parse_report(result["stdout"])
    except ValueError as exc:
        return [f"unreadable report: {exc}"]
    problems = []
    if sorted(rows) != sorted(reference):
        problems.append(f"policies {sorted(rows)} != {sorted(reference)}")
    for name, row in rows.items():
        if row["error"]:
            problems.append(f"{name}: error {row['error']}")
            continue
        if row["violations"] != "0":
            problems.append(f"{name}: violations {row['violations']}")
        ref = reference.get(name)
        if ref is None:
            continue
        try:
            mean, stderr = float(row["mean"]), float(row["stderr"])
        except ValueError:
            problems.append(f"{name}: unreadable mean {row['mean']!r} or stderr {row['stderr']!r}")
            continue
        if name == "opt-oracle":
            if mean != ref["exact"]:
                problems.append(f"{name}: value {mean!r} != recorded {ref['exact']!r}")
        elif "exact" in ref:
            if abs(mean - ref["exact"]) > STDERR_LIMIT * stderr:
                problems.append(f"{name}: mean {mean} vs closed form {ref['exact']} "
                                f"(stderr {stderr})")
        elif abs(mean - ref["mean"]) > STDERR_LIMIT * math.hypot(stderr, ref["stderr"]):
            problems.append(f"{name}: mean {mean} vs reference {ref['mean']} "
                            f"(stderr {stderr}, {ref['stderr']})")
    return problems


def tail(values: list[float]) -> tuple[str, float]:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it (else max)."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - q / 100) >= 10:
            return f"p{q:g}", ordered[math.ceil(q / 100 * n) - 1]
    return "max", ordered[-1] if ordered else 0.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def batch_mean(results: list[dict], value) -> float:
    """Mean over the batch's instances of each instance's median value."""
    by_instance = defaultdict(list)
    for r in results:
        by_instance[r["instance"]].append(value(r))
    return statistics.fmean(median(v) for v in by_instance.values())


def end_to_end(results: list[dict], scaled: bool = True) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, in reference-speed seconds unless not `scaled`.

    On a shared host (measured: 2 vCPUs) the same command runs up to 40%
    faster or slower from one second to the next.  Each command's times are multiplied by the speed
    factor its worker sampled while it ran (worker.SpeedProbe): over the
    whole command for `wall_s`, over set-up for `setup_s`, over
    `evaluate_policy` for `worlds_per_s`.
    """
    def speed(r, part=""):
        return r[part + "speed_factor"] if scaled else 1.0

    return {
        "wall_s": (batch_mean(results, lambda r: r["wall_s"] * speed(r)), "s"),
        "setup_s": (batch_mean(results, lambda r: r["setup_s"] * speed(r, "setup_")), "s"),
        "worlds_per_s": (batch_mean(
            results, lambda r: ratio(r["worlds"], r["eval_s"] * speed(r, "eval_"))), "1/s"),
        "peak_rss_mb": (batch_mean(results, lambda r: r["peak_rss_mb"]), "MB"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from the traced commands, notes on them, and problems.

    Per-call timings are pooled over the run's traced commands; counts are
    per command.  Each traced command's self times, summed over every span
    including the root's (the part no layer's span covers), must add up to
    its wall time.
    """
    durations, self_ns = defaultdict(list), defaultdict(list)
    counts, nested = Counter(), Counter()
    worlds: list[int] = []
    layer_self = defaultdict(list)
    problems = []
    for r in traced:
        t = r["trace"]
        for name, values in t["durations"].items():
            durations[name].extend(values)
        for name, values in t["self"].items():
            self_ns[name].extend(values)
        counts.update(t["counts"])
        nested.update(t["nested"])
        worlds.extend(t["worlds"])
        by_layer = Counter()
        for name, values in t["self"].items():
            by_layer[name.split(".", 1)[0]] += sum(values)
        for layer in LAYERS:
            layer_self[layer].append(by_layer[layer] / 1e9)
        total = sum(by_layer.values()) / 1e9
        if abs(total - r["wall_s"]) > 0.01 * r["wall_s"]:
            problems.append(f"self times sum to {total} s, traced wall_s is {r['wall_s']} s")
    n = len(traced)
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}

    def timing(metric: str, values: list[float], unit: str) -> None:
        label, value = tail(values)
        metrics[metric] = (median(values), unit)
        metrics[metric + ".tail"] = (value, unit)
        metrics[metric + ".n"] = (len(values) / n, "count")
        notes[metric + ".tail"] = f"{label} of {len(values)} calls"

    for metric, (span, scale, unit) in TIMINGS.items():
        timing(metric, [v * scale for v in durations.get(span, [])], unit)
    # evaluate_policy's own time, per world: mostly its two RNG constructions
    timing("sequencing.world_self_us",
           [s / w * 1e-3 for s, w in zip(self_ns.get("sequencing.evaluate_policy", []), worlds) if w],
           "us")
    metrics["model.sample_world_calls"] = (len(durations.get("model.sample_world", [])) / n, "count")
    metrics["relaxation.iterations"] = (
        len(durations.get("relaxation.estimate_marginals", [])) / n, "count")
    metrics["relaxation.utility_evals"] = (counts["relaxation.utility_evals"] / n, "count")
    metrics["simplex.share_of_solve_lp"] = (ratio(
        nested["relaxation.solve_lp>simplex.maximize"],
        sum(durations.get("relaxation.solve_lp", []))), "ratio")
    rounds = len(durations.get("rounding.independent_round", []))
    metrics["rounding.raw_actions"] = (ratio(counts["rounding.raw"], rounds), "count")
    metrics["rounding.contention_survival"] = (
        ratio(counts["rounding.resolved"], counts["rounding.raw"]), "ratio")
    metrics["rounding.gate_survival"] = (
        ratio(counts["rounding.probed"], counts["rounding.resolved"]), "ratio")
    metrics["rounding.spend_frac"] = (
        ratio(counts["rounding.spend_frac"], counts["rounding.executions"]), "ratio")
    metrics["policy.offers_per_world"] = (ratio(counts["policy.offers"], sum(worlds)), "count")
    metrics["policy.accepts_per_world"] = (ratio(counts["policy.accepts"], sum(worlds)), "count")
    # means, not medians, so that they add up to the mean traced wall time
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = (statistics.fmean(layer_self[layer]), "s")
    notes["self.cli_s"] = "CLI code plus the remainder no layer's span covers"
    traced_wall = end_to_end(traced)["wall_s"][0]
    metrics["traced_wall_s"] = (traced_wall, "s")
    metrics["trace_overhead_s"] = (traced_wall - end_to_end(untraced)["wall_s"][0], "s")
    return metrics, notes, problems


def run_commands(argvs: list[list[str]], seconds: float, traced: bool):
    """Closed loop, one command at a time, in whole cycles over the batch.

    A cycle runs every instance of the batch once; cycles repeat until
    `seconds` are spent, at least MIN_CYCLES of them untraced, so that every
    instance is measured more than once.  Traced runs follow each untraced
    command with a traced one.  Every report must be correct and
    byte-identical to the instance's first one.
    """
    results, problems = [], []
    references = [load_reference(argv) for argv in argvs]
    first: dict[int, str] = {}
    start = time.monotonic()
    cycles = 0
    reference_s = 0.0  # computing references is not part of the measured time
    while True:
        for k, argv in enumerate(argvs):
            for trace in ((0, 1) if traced else (0,)):
                want_reference = references[k] is None
                result = spawn({"argv": argv, "trace": trace, "reference": want_reference})
                result["instance"] = k
                if want_reference and "reference" in result:
                    reference_s += result["reference_s"]
                    references[k] = result.pop("reference")
                    save_reference(argv, references[k])
                found = check_report(result, references[k] or {})
                first.setdefault(k, result["stdout"])
                if result["stdout"] != first[k]:
                    found.append(f"instance {k}: {'traced' if trace else 'untraced'} report "
                                 "differs from its first report")
                result["problems"] = found
                problems.extend(found)
                results.append(result)
        cycles += 1
        elapsed = time.monotonic() - start - reference_s
        if cycles >= (1 if traced else MIN_CYCLES) and elapsed + elapsed / cycles > seconds:
            return results, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "couponprobe", "cli.py")):
        raise BenchmarkError(f"no couponprobe sources under {ROOT}/src")
    os.makedirs(WORK, exist_ok=True)
    argvs = workloads.generate(args.workload, args.seed, os.path.relpath(WORK, ROOT))
    results, problems = run_commands(argvs, args.seconds, bool(args.trace))
    plain = [r for r in results if "trace" not in r]
    tracing = [r for r in results if "trace" in r]

    print(f"workload {args.workload} seed {args.seed}: {len(argvs)} instances, "
          f"e.g. {' '.join(argvs[0])}")
    attempted = len(results)
    failed = sum(1 for r in results if r["problems"])
    notes: dict[str, str] = {}
    if args.trace:
        metrics, notes, trace_problems = per_layer(tracing, plain)
        problems.extend(trace_problems)
        for name in sorted({m for r in tracing for m in r["trace"]["missing"]}):
            print(f"note: {name} not found; its metrics read 0")
        layers = sum(metrics[f"self.{layer}_s"][0] for layer in LAYERS)
        print(f"mean self times by layer sum to {layers:.6g} s; mean unscaled traced wall_s "
              f"{statistics.fmean(r['wall_s'] for r in tracing):.6g} s")
    else:
        metrics = end_to_end(plain)
        for name, (value, unit) in end_to_end(plain, scaled=False).items():
            if name != "peak_rss_mb":
                notes[name] = f"unscaled {value:.6g} {unit}"
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(f"fail_rate {ratio(failed, attempted):.6g} ratio ({failed} of {attempted} commands)")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        raise SystemExit(1)
