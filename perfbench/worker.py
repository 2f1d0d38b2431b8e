"""Run one `couponprobe` CLI command in this fresh process and report on it.

Usage: python3 perfbench/worker.py '<json spec>'

The spec is {"argv": [...], "trace": 0|1, "reference": true|false}.  The
package is imported from the checkout's `src/` before the clock starts.  The
last line of standard output is one JSON object: the CLI's exit code and
report, the command's wall time, the times the end-to-end metrics need, peak
RSS and, when traced, the per-name span durations, self times and counters.
With "reference", the values `run.py` checks reports against are computed
after the clock and the RSS reading have stopped.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


# A fixed snippet of interpreter work, timed every PROBE_INTERVAL_S while a
# command runs.  Its two halves, a tight integer loop and Fraction
# arithmetic (calls, allocation, big-integer gcd), slow down with the host's
# load the way the package's own loops do.  REF_*_NS are their times at the
# reference speed.  The collector is off while the probe runs, so the size of
# the command's heap does not show up in the probe's time.
PROBE_INTERVAL_S = 0.02
REF_INT_NS = 80_000
REF_FRAC_NS = 60_000
_PROBE_FRACTION = Fraction(3, 2**53 + 7)


def _int_loop() -> int:
    s = 0
    for i in range(800):
        s += i * i % 7
    return s


def _fraction_sum() -> Fraction:
    f = Fraction(0)
    for i in range(12):
        f += _PROBE_FRACTION * i
    return f


class SpeedProbe:
    """Samples how fast this process runs while a command executes.

    Each SIGALRM runs the probe snippet and records when, and the reference
    time over the time it took.  The mean of those ratios over an interval is
    its speed factor: multiplying the interval's measured time by it gives the
    time it would have taken at the reference speed, since samples are spread
    evenly over wall time.  The probe's own time is charged to no span of the
    tracer.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples: list[tuple[int, float]] = []  # (perf_counter_ns, ratio)
        self.probe_ns = 0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        enabled = gc.isenabled()
        gc.disable()
        _int_loop()  # untimed: bring the probe's code and data back into cache
        _fraction_sum()
        t0 = time.perf_counter_ns()
        _int_loop()
        t1 = time.perf_counter_ns()
        _fraction_sum()
        t2 = time.perf_counter_ns()
        if enabled:
            gc.enable()
        self.samples.append((t0, (REF_INT_NS / (t1 - t0) * REF_FRAC_NS / (t2 - t1)) ** 0.5))
        spent = time.perf_counter_ns() - start
        self.probe_ns += spent
        for span in self.tracer.stack:  # keep the probe out of the spans it interrupted
            self.tracer.paused[span] += spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, spans=None) -> float:
        """Speed factor over the given spans' intervals, or the whole command.

        Falls back to the whole command's factor when no sample fell inside.
        """
        ratios = [r for t, r in self.samples
                  if spans is None or any(start <= t <= end for _, start, end, _ in spans)]
        if not ratios:
            ratios = [r for _, r in self.samples]
        return statistics.fmean(ratios) if ratios else 1.0


def _import_package():
    sys.path.insert(0, SRC)
    package = importlib.import_module("couponprobe")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"couponprobe came from {package.__file__}, not from {SRC}")
    # every module loaded now, so the tracer finds every namespace that binds a target
    for name in ("cli", "influence", "instance_io", "model", "oracle", "relaxation",
                 "rounding", "sequencing", "simplex"):
        importlib.import_module(f"couponprobe.{name}")
    return importlib.import_module("couponprobe.cli")


def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _policies(argv: list[str]) -> list[str]:
    return [p for p in _flag(argv, "--policy").split(",") if p]


def reference(cli, argv: list[str], policies: dict) -> dict:
    """Reference value per policy of the command that just ran.

    alg2 gets its closed form from the policy's own influence table.
    opt-oracle gets the oracle's value, which the report must match exactly.
    Every other policy is simulated again on worlds drawn from a different
    stream than the CLI's, so the check against it is statistical and still
    holds after a declared change of RNG streams.
    """
    from couponprobe.sequencing import alg2_value, evaluate_policy

    instance = cli.load_instance(argv[1])
    seed = int(_flag(argv, "--seed"))
    worlds = int(_flag(argv, "--worlds"))
    out = {}
    for name in _policies(argv):
        if name == "opt-oracle":
            out[name] = {"exact": cli.optimal_adaptive_value(instance)}
        elif name == "alg2":
            policy = policies[name]
            out[name] = {"exact": alg2_value(instance, policy.order, policy.table)}
        else:
            ev = evaluate_policy(instance, policies[name], worlds, rng_seed=seed + 7_777_777)
            out[name] = {"mean": ev.mean, "stderr": ev.stderr}
    return out


def command(cli, spec: dict) -> dict:
    from tracer import COARSE, COUNTED, DETAIL, Tracer

    argv = spec["argv"]
    tracer = Tracer()
    tracer.install(COARSE)
    if spec["trace"]:
        tracer.install(DETAIL, COUNTED, required=False)
    probe = SpeedProbe(tracer)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), probe:
        start = time.perf_counter_ns()
        try:
            rc = tracer.run("cli.main", cli.main, argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
        wall_ns = time.perf_counter_ns() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = tracer.summary()
    durations = summary["durations"]
    setup_names = ("instance_io.load_instance", "cli.make_policy", "oracle.optimal_adaptive_value")
    setup_ns = sum(sum(durations.get(name, ())) for name in setup_names)
    setup_spans = [s for s in tracer.spans if s[0] in setup_names]
    eval_spans = [s for s in tracer.spans if s[0] == "sequencing.evaluate_policy"]
    # the probe's own time is spread over the command; take its share out of each part
    net = 1.0 - probe.probe_ns / wall_ns
    result = {
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "wall_s": wall_ns * net / 1e9,
        "setup_s": setup_ns * net / 1e9,
        "eval_s": sum(durations.get("sequencing.evaluate_policy", ())) * net / 1e9,
        # the host's speed can change between set-up and simulation
        "speed_factor": probe.factor(),
        "setup_speed_factor": probe.factor(setup_spans),
        "eval_speed_factor": probe.factor(eval_spans),
        "worlds": sum(summary["worlds"]),
        "peak_rss_mb": peak_rss_mb,
    }
    if spec["trace"]:
        result["trace"] = summary
    if spec.get("reference") and rc == 0:
        start = time.perf_counter()
        result["reference"] = reference(cli, argv, tracer.policies)
        result["reference_s"] = time.perf_counter() - start
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = command(_import_package(), spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
