"""Outside-in tracer: spans around the package's public functions.

Nothing under `src/` is changed.  `Tracer.install` replaces each target
function with a wrapper in every `couponprobe` module that bound it, since a
`from .x import f` at import time leaves a second name that a patch of `x.f`
alone would miss.  Each call then records a span `[name, start_ns, end_ns,
parent]`, where `parent` is the index of the span that was open when the call
began (-1 at the root).  Counters are read from arguments and return values
only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict


def _size(rounded) -> int:
    # RoundedSet today; any plain collection of actions after a refactor
    return len(getattr(rounded, "actions", rounded))


def _solve_lp_name(args, kwargs) -> str:
    return "relaxation.solve_lp_w" if kwargs.get("use_W", args[3] if len(args) > 3 else False) \
        else "relaxation.solve_lp"


def _contention_name(args, kwargs) -> str:
    matroids = kwargs.get("matroids", args[2] if len(args) > 2 else "one")
    return f"rounding.contention_{matroids}"


def _count_rounded(key):
    def observe(tracer, args, kwargs, result):
        tracer.counts[key] += _size(result)
    return observe


def _observe_execute(tracer, args, kwargs, result):
    instance = args[0]
    steps = result.steps
    tracer.counts["rounding.probed"] += len({s.user for s in steps})
    tracer.counts["rounding.spend_frac"] += sum(s.coupon_value for s in steps if s.accepted) / instance.B
    tracer.counts["rounding.executions"] += 1


def _observe_generate(tracer, args, kwargs, result):
    tracer.counts["policy.offers"] += len(result.steps)
    tracer.counts["policy.accepts"] += sum(1 for s in result.steps if s.accepted)


def _observe_policy(tracer, args, kwargs, result):
    tracer.policies[args[0]] = result


def _observe_evaluation(tracer, args, kwargs, result):
    tracer.worlds.append(result.worlds)


# (module, attribute, span name or a function of the call's arguments, observer)
# COARSE is enough for the untraced end-to-end metrics: a handful of spans a
# command.  Traced commands add DETAIL.
COARSE = (
    ("couponprobe.instance_io", "load_instance", "instance_io.load_instance", None),
    ("couponprobe.cli", "make_policy", "cli.make_policy", _observe_policy),
    ("couponprobe.oracle", "optimal_adaptive_value", "oracle.optimal_adaptive_value", None),
    ("couponprobe.sequencing", "evaluate_policy", "sequencing.evaluate_policy", _observe_evaluation),
)

DETAIL = (
    ("couponprobe.influence", "singleton_influence_table", "influence.singleton_table", None),
    ("couponprobe.influence", "realized_influence", "influence.realized_influence", None),
    ("couponprobe.model", "sample_world", "model.sample_world", None),
    ("couponprobe.model", "check_trace", "model.check_trace", None),
    ("couponprobe.relaxation", "continuous_greedy", "relaxation.continuous_greedy", None),
    ("couponprobe.relaxation", "estimate_marginals", "relaxation.estimate_marginals", None),
    ("couponprobe.relaxation", "solve_lp", _solve_lp_name, None),
    ("couponprobe.simplex", "maximize", "simplex.maximize", None),
    ("couponprobe.rounding", "independent_round", "rounding.independent_round",
     _count_rounded("rounding.raw")),
    ("couponprobe.rounding", "contention_resolve", _contention_name,
     _count_rounded("rounding.resolved")),
    ("couponprobe.rounding", "execute_probe_set", "rounding.execute_probe_set", _observe_execute),
    ("couponprobe.rounding", "Alg1Policy.generate", "rounding.alg1_generate", _observe_generate),
    ("couponprobe.sequencing", "alg2_dp", "sequencing.alg2_dp", None),
    ("couponprobe.sequencing", "alg2_execute", "sequencing.alg2_execute", None),
    ("couponprobe.sequencing", "Alg2Policy.generate", "sequencing.alg2_generate", _observe_generate),
    ("couponprobe.sequencing", "StochCpPolicy.generate", "sequencing.stoch_cp_generate", None),
)

# Called hundreds of thousands of times on relax48: counted, not timed.
COUNTED = (
    ("couponprobe.relaxation", "action_set_utility", "relaxation.utility_evals"),
)


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # calls, action counts, summed spend fractions
        self.worlds: list[int] = []  # per evaluate_policy call, in call order
        self.policies: dict = {}  # CLI policy name -> the object make_policy built
        self.paused: Counter = Counter()  # span index -> ns spent in a speed probe inside it
        self.missing: list[str] = []

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def _wrap(self, fn, name, observe):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(args, kwargs), 0, 0,
                   stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, targets, counted=(), required=True) -> None:
        """Wrap each target everywhere the package bound it.

        A target that no longer exists raises when `required`, else it is
        listed in `missing` and its metrics read zero.
        """
        for module_name, attr, name, observe in targets:
            self._patch(module_name, attr, lambda fn: self._wrap(fn, name, observe), required)
        for module_name, attr, key in counted:
            self._patch(module_name, attr, lambda fn: self._counted(fn, key), required)

    def _patch(self, module_name, attr, make, required) -> None:
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            if required:
                raise
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapped = make(original)
        if path:  # a method: the class is one shared object
            setattr(owner, leaf, wrapped)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "couponprobe" and not mod_name.startswith("couponprobe."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def summary(self) -> dict:
        """Per-name call durations and self times (ns), time nested per
        parent/child name pair, and the counters.

        A span's duration leaves out the time the speed probe ran inside it.
        Self time is a span's duration minus the durations of its direct
        children, which nest inside it and never overlap on one thread.
        """
        spent = [end - start - self.paused[i] for i, (_, start, end, _) in enumerate(self.spans)]
        child_ns = [0] * len(self.spans)
        nested: Counter = Counter()  # "parent>child" -> ns spent in such children
        for i, (name, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += spent[i]
                nested[f"{self.spans[parent][0]}>{name}"] += spent[i]
        durations: defaultdict = defaultdict(list)
        self_ns: defaultdict = defaultdict(list)
        for i, (name, _, _, _) in enumerate(self.spans):
            durations[name].append(spent[i])
            self_ns[name].append(spent[i] - child_ns[i])
        return {
            "durations": dict(durations),
            "self": dict(self_ns),
            "nested": dict(nested),
            "counts": dict(self.counts),
            "worlds": self.worlds,
            "missing": self.missing,
        }
