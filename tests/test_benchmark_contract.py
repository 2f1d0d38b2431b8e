"""The names the benchmark harness under perfbench/ reaches into the package
by.  The harness is not part of the package, so a rename would otherwise
first fail in a benchmark run; these checks read the harness and change
nothing in it.
"""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from couponprobe import cli
from couponprobe.oracle import optimal_adaptive_value
from couponprobe.relaxation import RelaxationConfig
from couponprobe.sequencing import Alg2Policy, alg2_value

from helpers import uniform_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COARSE = _load("tracer").COARSE


@pytest.mark.parametrize("module, attr", [target[:2] for target in COARSE], ids=lambda x: x)
def test_every_coarse_target_resolves_and_the_cli_calls_it_by_name(module, attr) -> None:
    # the tracer replaces each target in every package module that bound it,
    # so the CLI must call it through a module-global name
    target = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
    assert getattr(cli, attr) is target


def test_every_module_the_worker_imports_exists() -> None:
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    function = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_import_package")
    names = [elt.value for node in ast.walk(function) if isinstance(node, ast.For)
             for elt in node.iter.elts]
    assert len(names) == 9
    for name in names:
        importlib.import_module(f"couponprobe.{name}")


def test_the_worker_reference_reads_the_alg2_plan() -> None:
    # worker.reference prices alg2 from the policy make_policy built
    inst = uniform_instance(3, (1.0, 2.0), ((0.2, 0.5),) * 3, K=1, B=2.0, edges=((0, 1, 0.5),))
    assert callable(cli.load_instance) and callable(cli.optimal_adaptive_value)
    policy = cli.make_policy("alg2", inst, RelaxationConfig())
    assert isinstance(policy, Alg2Policy)
    assert policy.order == (0, 1, 2)
    assert alg2_value(inst, policy.order, policy.table) == pytest.approx(0.5 * 1.5 + 0.5 * 0.5 + 0.25 * 0.5)


def test_a_worker_command_runs_and_checks_its_reference(tmp_path) -> None:
    # one fresh process, as the harness runs it: every coarse target
    # installed, and the references of alg2 and opt-oracle computed
    path = tmp_path / "inst.txt"
    path.write_text("nodes 2\nedge 0 1 0.5\ncoupons 1.0 2.0\nattract 0.2 0.5\nattract 0.3 0.6\nK 1\nB 2.0\n")
    argv = ["compare", str(path), "--policy", "alg2,opt-oracle", "--worlds", "100", "--seed", "3"]
    spec = {"argv": argv, "trace": 0, "reference": True}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0 and result["worlds"] == 100
    rows = {line.split(",")[0]: line.split(",") for line in result["stdout"].splitlines()[4:]}
    reference = result["reference"]
    assert float(rows["opt-oracle"][1]) == reference["opt-oracle"]["exact"]
    assert abs(float(rows["alg2"][1]) - reference["alg2"]["exact"]) <= 4 * float(rows["alg2"][2])


def test_the_oracle_accepts_every_oracle4_file(tmp_path) -> None:
    # the oracle's size limits must admit the benchmark's oracle4 batches,
    # at the tuning seeds and the held-out one
    workloads = _load("workloads")
    for seed in (1, 2, workloads.HELD_OUT_SEED):
        for argv in workloads.generate("oracle4", seed, str(tmp_path)):
            instance = cli.load_instance(argv[1])
            for restricted, use_W in itertools.product((False, True), repeat=2):
                assert optimal_adaptive_value(instance, restricted=restricted, use_W=use_W) > 0.0
