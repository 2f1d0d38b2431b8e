from __future__ import annotations

import time

import pytest

from couponprobe import cli, influence
from couponprobe.cli import main
from couponprobe.instance_io import InstanceFormatError, load_instance, save_instance
from couponprobe.model import MAX_ACTIONS
from couponprobe.oracle import MAX_ORACLE_STEPS, MAX_SPREAD_CELLS, optimal_adaptive_value
from couponprobe.influence import MAX_KERNEL_WORK

TOY = """\
# five users, two coupon values, per-user cap 1
nodes 5
coupons 1.0 2.0
attract 0.5 0.8
attract 0.5 0.8
attract 0.5 0.8
attract 0.5 0.8
attract 0.5 0.8
K 1
B 3.0
"""

TINY = """\
nodes 2
edge 0 1 0.5
coupons 1.0
attract 0.4
attract 0.6
K 1
B 3.0
"""


def _write(tmp_path, text: str, name: str = "inst.txt") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- file format


def test_load_toy_instance(tmp_path) -> None:
    inst = load_instance(_write(tmp_path, TOY))
    assert inst.n_users == 5
    assert inst.coupons == (1.0, 2.0)
    assert inst.K == 1 and inst.B == 3.0 and inst.W is None
    assert inst.attractiveness[4] == (0.5, 0.8)


def test_save_load_round_trip(tmp_path) -> None:
    first = _write(tmp_path, TINY + "W 1\n")
    inst = load_instance(first)
    second = str(tmp_path / "copy.txt")
    save_instance(inst, second)
    assert load_instance(second) == inst
    third = str(tmp_path / "again.txt")
    save_instance(load_instance(second), third)
    assert (tmp_path / "copy.txt").read_bytes() == (tmp_path / "again.txt").read_bytes()


def test_decreasing_attract_row_is_rejected_with_line(tmp_path) -> None:
    bad = TOY.replace("attract 0.5 0.8\nK 1", "attract 0.9 0.2\nK 1")
    path = _write(tmp_path, bad)
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    assert f"{path}:8:" in str(err.value)
    assert "drops" in str(err.value)


def test_negative_coupon_is_rejected(tmp_path) -> None:
    path = _write(tmp_path, TINY.replace("coupons 1.0", "coupons -1.0"))
    with pytest.raises(InstanceFormatError, match="not positive"):
        load_instance(path)


def test_duplicate_edge_names_both_lines(tmp_path) -> None:
    text = TINY.replace("edge 0 1 0.5", "edge 0 1 0.5\nedge 0 1 0.3")
    with pytest.raises(InstanceFormatError, match="first seen on line 2"):
        load_instance(_write(tmp_path, text))


def test_missing_directive_is_reported(tmp_path) -> None:
    with pytest.raises(InstanceFormatError, match="missing required directive 'B'"):
        load_instance(_write(tmp_path, TINY.replace("B 3.0\n", "")))


# Lines: 1 nodes / 2 edge / 3 coupons / 4-5 attract / 6 K / 7 B
TWO = """\
nodes 2
edge 0 1 0.5
coupons 1.0 2.0
attract 0.4 0.6
attract 0.5 0.7
K 1
B 3.0
"""


def _two(old: str, new: str) -> str:
    assert old in TWO
    return TWO.replace(old, new, 1)


# (file text, expected line or None for a whole-file error, key phrase)
LOADER_ERRORS = [
    # structure
    pytest.param(TWO + "budget 3\n", 8, "unknown directive 'budget'", id="unknown-directive"),
    pytest.param(_two("nodes 2", "nodes 2 3"), 1, "'nodes' takes", id="arity-nodes"),
    pytest.param(_two("edge 0 1 0.5", "edge 0 1"), 2, "'edge' takes", id="arity-edge"),
    pytest.param(_two("K 1", "K 1 2"), 6, "'K' takes", id="arity-K"),
    pytest.param(_two("B 3.0", "B"), 7, "'B' takes", id="arity-B"),
    pytest.param(TWO + "W\n", 8, "'W' takes", id="arity-W"),
    pytest.param(_two("nodes 2", "nodes two"), 1, "must be an integer, got 'two'", id="int-nodes"),
    pytest.param(_two("edge 0 1", "edge x 1"), 2, "must be an integer, got 'x'", id="int-edge"),
    pytest.param(_two("K 1", "K 1.5"), 6, "must be an integer, got '1.5'", id="int-K"),
    pytest.param(TWO + "W many\n", 8, "must be an integer, got 'many'", id="int-W"),
    pytest.param(_two("0 1 0.5", "0 1 half"), 2, "must be a number, got 'half'", id="float-edge"),
    pytest.param(_two("coupons 1.0 2.0", "coupons 1.0 two"), 3, "must be a number, got 'two'",
                 id="float-coupons"),
    pytest.param(_two("0.4 0.6", "0.4 high"), 4, "must be a number, got 'high'", id="float-attract"),
    pytest.param(_two("B 3.0", "B lots"), 7, "must be a number, got 'lots'", id="float-B"),
    pytest.param(TWO + "nodes 2\n", 8, "duplicate 'nodes' directive", id="duplicate-nodes"),
    pytest.param(TWO + "coupons 1.0\n", 8, "duplicate 'coupons' directive", id="duplicate-coupons"),
    pytest.param(TWO + "K 2\n", 8, "duplicate 'K' directive; first seen on line 6", id="duplicate-K"),
    pytest.param(TWO + "B 4.0\n", 8, "duplicate 'B' directive; first seen on line 7", id="duplicate-B"),
    pytest.param(TWO + "W 1\nW 2\n", 9, "duplicate 'W' directive; first seen on line 8",
                 id="duplicate-W"),
    pytest.param("coupons 1.0\nK 1\nB 3.0\n", None, "missing required directive 'nodes'",
                 id="missing-nodes"),
    pytest.param("nodes 1\nK 1\nB 3.0\n", None, "missing required directive 'coupons'",
                 id="missing-coupons"),
    pytest.param(_two("K 1\n", ""), None, "missing required directive 'K'", id="missing-K"),
    pytest.param(_two("B 3.0\n", ""), None, "missing required directive 'B'", id="missing-B"),
    # graph rules
    pytest.param("nodes 0\ncoupons 1.0\nK 1\nB 3.0\n", 1, "must be positive", id="nodes-zero"),
    pytest.param(_two("edge 0 1", "edge 0 5"), 2, "out of range", id="edge-range"),
    pytest.param(_two("edge 0 1", "edge 1 1"), 2, "self-loop at node 1", id="edge-self-loop"),
    pytest.param(_two("edge 0 1 0.5", "edge 0 1 0.5\nedge 0 1 0.3"), 3,
                 "duplicate edge (0, 1); first seen on line 2", id="edge-duplicate"),
    pytest.param(_two("0 1 0.5", "0 1 1.5"), 2, "outside [0, 1]", id="edge-probability-high"),
    pytest.param(_two("0 1 0.5", "0 1 -0.1"), 2, "outside [0, 1]", id="edge-probability-low"),
    pytest.param(_two("0 1 0.5", "0 1 nan"), 2, "outside [0, 1]", id="edge-probability-nan"),
    # coupon rules
    pytest.param(_two("coupons 1.0", "coupons -1.0"), 3, "not positive", id="coupon-negative"),
    pytest.param(_two("coupons 1.0", "coupons 0.0"), 3, "not positive", id="coupon-zero"),
    pytest.param(_two("coupons 1.0 2.0", "coupons 2.0 1.0"), 3, "strictly increasing",
                 id="coupons-decreasing"),
    pytest.param(_two("coupons 1.0 2.0", "coupons 1.0 1.0"), 3, "strictly increasing",
                 id="coupons-repeated"),
    pytest.param(_two("coupons 1.0 2.0", "coupons 1.0 nan"), 3, "not finite", id="coupon-nan"),
    pytest.param(_two("coupons 1.0 2.0", "coupons 1.0 inf"), 3, "not finite", id="coupon-inf"),
    # attractiveness rules
    pytest.param(_two("attract 0.5 0.7\n", "attract 0.5 0.7\nattract 0.1 0.2\n"), 6, "rows",
                 id="attract-extra-row"),
    pytest.param(_two("attract 0.5 0.7\n", ""), None, "rows", id="attract-missing-row"),
    pytest.param(_two("attract 0.4 0.6", "attract 0.4"), 4,
                 "user 0: expected 2 attractiveness values, got 1", id="attract-short-row"),
    pytest.param(_two("attract 0.5 0.7", "attract 0.5 0.7 0.9"), 5,
                 "user 1: expected 2 attractiveness values, got 3", id="attract-long-row"),
    pytest.param(_two("0.5 0.7", "0.5 1.4"), 5, "user 1: attractiveness 1.4 outside [0, 1]",
                 id="attract-range"),
    pytest.param(_two("0.4 0.6", "0.9 0.2"), 4, "user 0: attractiveness drops", id="attract-drops"),
    # constraint rules
    pytest.param(_two("K 1", "K -1"), 6, "non-negative", id="K-negative"),
    pytest.param(_two("B 3.0", "B 0.0"), 7, "B must be positive", id="B-zero"),
    pytest.param(_two("B 3.0", "B -2.0"), 7, "B must be positive", id="B-negative"),
    pytest.param(_two("B 3.0", "B nan"), 7, "finite", id="B-nan"),
    pytest.param(_two("B 3.0", "B inf"), 7, "finite", id="B-inf"),
    pytest.param(TWO + "W -1\n", 8, "non-negative", id="W-negative"),
]


@pytest.mark.parametrize("text, line, phrase", LOADER_ERRORS)
def test_loader_error_names_line_and_rule(tmp_path, text, line, phrase) -> None:
    path = _write(tmp_path, text)
    with pytest.raises(InstanceFormatError) as err:
        load_instance(path)
    where = f"{path}: " if line is None else f"{path}:{line}: "
    assert str(err.value).startswith(where)
    assert phrase in str(err.value)


def test_directives_may_come_in_any_order(tmp_path) -> None:
    reordered = "B 3.0\nK 1\nattract 0.4 0.6\nedge 0 1 0.5\nattract 0.5 0.7\ncoupons 1.0 2.0\nnodes 2\n"
    assert load_instance(_write(tmp_path, reordered)) == load_instance(_write(tmp_path, TWO, "two.txt"))


# ------------------------------------------------------------------- validate


def test_validate_ok_line(tmp_path, capsys) -> None:
    code, out, err = _run(capsys, ["validate", _write(tmp_path, TINY + "W 1\n")])
    assert code == 0 and err == ""
    assert out == "ok users 2 edges 1 coupons 1 K 1 B 3.0 W 1\n"


def test_validate_bad_file_exits_2(tmp_path, capsys) -> None:
    path = _write(tmp_path, TINY.replace("attract 0.4", "attract 1.4"))
    code, out, err = _run(capsys, ["validate", path])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}:4:")
    path = _write(tmp_path, TINY.replace("coupons 1.0", "coupons"), "no-coupons.txt")
    code, out, err = _run(capsys, ["validate", path])
    assert code == 2 and out == ""
    assert err == f"error: {path}:3: at least one coupon value is required\n"


# ------------------------------------------------------------------------ run


def test_run_is_byte_identical_across_invocations(tmp_path, capsys) -> None:
    path = _write(tmp_path, TOY)
    argv = ["run", path, "--policy", "alg2", "--seed", "7", "--worlds", "500"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
    assert "elapsed_s" not in first
    assert "policy alg2\n" in first
    assert "seed 7\n" in first
    assert "violations 0\n" in first


def test_run_timing_line_is_opt_in(tmp_path, capsys) -> None:
    path = _write(tmp_path, TOY)
    _, out, _ = _run(
        capsys,
        ["run", path, "--policy", "alg2", "--worlds", "100", "--timing"],
    )
    assert "elapsed_s " in out


def test_run_stoch_cp_reports_branches(tmp_path, capsys) -> None:
    path = _write(tmp_path, TOY)
    code, out, _ = _run(
        capsys,
        [
            "run", path, "--policy", "stoch-cp", "--worlds", "400",
            "--delta", "0.25", "--marginal-samples", "40",
        ],
    )
    assert code == 0
    assert "branch_alg1 " in out and "branch_alg2 " in out
    assert "violations 0\n" in out


def test_run_opt_oracle_policy(tmp_path, capsys) -> None:
    path = _write(tmp_path, TINY)
    code, out, _ = _run(capsys, ["run", path, "--policy", "opt-oracle"])
    assert code == 0
    fields = dict(
        line.split(" ", 1) for line in out.strip().splitlines()
    )
    assert fields["worlds"] == "0"
    assert float(fields["mean"]) == optimal_adaptive_value(load_instance(path))


def test_run_unknown_policy_names_the_options(tmp_path, capsys) -> None:
    path = _write(tmp_path, TINY)
    code, out, err = _run(capsys, ["run", path, "--policy", "nope"])
    assert code == 2 and out == ""
    assert "unknown policy 'nope'" in err
    assert "stoch-cp" in err and "alg1" in err


@pytest.mark.parametrize("command,policy", [("run", "alg2"), ("compare", "alg1,alg2")])
def test_negative_seed_is_rejected_naming_the_flag(tmp_path, capsys, command, policy) -> None:
    with pytest.raises(SystemExit) as exc:
        main([command, _write(tmp_path, TINY), "--policy", policy, "--seed", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "argument --seed: must be a non-negative integer, got -1" in captured.err


@pytest.mark.parametrize("flag", ["--worlds", "--marginal-samples"])
@pytest.mark.parametrize("command,policy", [("run", "alg2"), ("compare", "alg1,alg2")])
def test_zero_counts_are_rejected_naming_the_flag(tmp_path, capsys, command, policy, flag) -> None:
    # alg2 reads no marginal samples, yet a zero is refused for the whole
    # command, by its flag, not in a report row by a config field
    with pytest.raises(SystemExit) as exc:
        main([command, _write(tmp_path, TINY), "--policy", policy, flag, "0"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {flag}: must be a positive integer, got 0" in captured.err


# --------------------------------------------------------------------- oracle


def test_oracle_subcommand_value(tmp_path, capsys) -> None:
    path = _write(tmp_path, TINY)
    code, out, _ = _run(capsys, ["oracle", path])
    assert code == 0
    value = float(out.strip().splitlines()[-1].split()[1])
    assert value == optimal_adaptive_value(load_instance(path))


def _oracle_file(tmp_path, users: int, coupons: int, K: int, edges: list[str]) -> str:
    # users with strictly rising rows over coupons 1, 2, ...: 2 + L + (K - 1)
    # * (L - 1) local states and L + (K - 1) * L * (L - 1) / 2 moves each,
    # for K <= L
    rows = [" ".join(str(round(0.1 + 0.8 * (j + 1) / coupons - 0.01 * v, 6)) for j in range(coupons))
            for v in range(users)]
    return _write(tmp_path, "\n".join([
        f"nodes {users}", *edges,
        "coupons " + " ".join(str(float(c)) for c in range(1, coupons + 1)),
        *(f"attract {row}" for row in rows),
        f"K {K}",
        f"B {float(users)}",
    ]) + "\n")


@pytest.mark.parametrize("users", [5, 6])
def test_oracle_prints_a_value_on_five_and_six_users(tmp_path, capsys, users) -> None:
    # 3 coupons, K = 2: 7^5 and 7^6 memo states
    path = _oracle_file(tmp_path, users, 3, 2, [f"edge {v} {v + 1} 0.5" for v in range(users - 1)])
    code, out, _ = _run(capsys, ["oracle", path])
    assert code == 0
    assert out.splitlines()[-1] == f"value {optimal_adaptive_value(load_instance(path))!r}"


def test_oracle_size_guard_exits_2(tmp_path, capsys) -> None:
    # above either limit, each refused before the work starts: 7 users at 3
    # coupons, K = 2, 7^7 states with 6 moves per user's local states; one
    # user with 20,000 coupons, 40,001 states and 200,010,000 moves; or
    # (2^7 - 1) * 2^20 spread cells
    pairs = [f"edge {u} {v} 0.5" for u in range(7) for v in range(7) if u != v][:20]
    moves = 20_000 + 19_999 * 20_000 // 2
    for users, coupons, K, edges, message in [
        (7, 3, 2, [], f"backward induction needs {7**7 + 7 * 6 + 7 * 7**6 * 6} steps ({7**7} states, 42 moves "
                      f"to tabulate and {7 * 7**6 * 6} over the states), above the limit of {MAX_ORACLE_STEPS}"),
        (1, 20_000, 2, [], f"backward induction needs {40_001 + 2 * moves} steps (40001 states, {moves} moves "
                           f"to tabulate and {moves} over the states), above the limit of {MAX_ORACLE_STEPS}"),
        (7, 1, 1, pairs, f"the spread table needs {127 << 20} cells (7 users, 20 uncertain edges), "
                         f"above the limit of {MAX_SPREAD_CELLS}"),
    ]:
        path = _oracle_file(tmp_path, users, coupons, K, edges)
        start = time.perf_counter()
        code, out, err = _run(capsys, ["oracle", path])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def test_run_refuses_a_huge_action_space_exits_2(tmp_path, capsys) -> None:
    # L = K = 20: 2^20 - 1 actions per user, refused before any enumeration
    text = "\n".join([
        "nodes 1",
        "coupons " + " ".join(str(float(c)) for c in range(1, 21)),
        "attract " + " ".join(str(round(0.04 * c, 2)) for c in range(1, 21)),
        "K 20",
        "B 40.0",
    ]) + "\n"
    start = time.perf_counter()
    code, out, err = _run(capsys, ["run", _write(tmp_path, text), "--policy", "alg1"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        "error: the action space needs 1048575 actions (n = 1, "
        f"L = 20 low-value coupons, K = 20), above the limit of {MAX_ACTIONS}\n"
    )


def test_run_refuses_a_tiny_delta_exits_2(tmp_path, capsys) -> None:
    # delta 1e-7: ten million greedy steps, refused before any sample is
    # drawn; a step is 200 samples of 5 nodes, 5 seed sets and 5 actions,
    # and 64 * (5 + 64) for the LP
    start = time.perf_counter()
    code, out, err = _run(capsys, ["run", _write(tmp_path, TOY), "--policy", "alg1", "--delta", "1e-7"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        f"error: the continuous greedy needs {10000001 * (200 * 15 + 4416)} word operations (10000001 steps "
        "at delta = 1e-07, each 200 samples x 15 + 4416 for the LP over |S| = 5 actions; a larger delta (--delta) "
        f"takes fewer steps), above the limit of {MAX_KERNEL_WORK}\n"
    )


# -------------------------------------------------------------------- compare


def test_compare_needs_two_policies(tmp_path, capsys) -> None:
    path = _write(tmp_path, TOY)
    code, out, err = _run(capsys, ["compare", path, "--policy", "alg2"])
    assert code == 2
    assert "at least two" in err


def test_compare_rows_and_error_isolation(tmp_path, capsys) -> None:
    path = _write(tmp_path, TOY)
    argv = [
        "compare", path, "--policy", "alg2,e-alg1", "--policy", "alg1",
        "--worlds", "200", "--delta", "0.5", "--marginal-samples", "20",
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# instance_sha256 ")
    assert lines[3] == "policy,mean,stderr,violations,error"
    rows = {line.split(",")[0]: line.split(",") for line in lines[4:]}
    assert set(rows) == {"alg2", "e-alg1", "alg1"}
    # the toy has no W directive, so the extended variant fails in its row
    assert rows["e-alg1"][1] == "" and rows["e-alg1"][4] != ""
    assert rows["alg2"][4] == "" and float(rows["alg2"][1]) > 0
    assert rows["alg1"][4] == "" and float(rows["alg1"][1]) > 0
    # identical argv must reproduce the table byte for byte
    _, again, _ = _run(capsys, argv)
    assert again == out


@pytest.mark.parametrize("policy", ["e-alg1", "e-alg2", "e-stoch-cp"])
def test_compare_extended_policy_needs_w(tmp_path, capsys, policy) -> None:
    path = _write(tmp_path, TOY)  # no W directive
    code, out, _ = _run(capsys, ["compare", path, "--policy", f"alg2,{policy}", "--worlds", "50"])
    assert code == 0
    assert out.splitlines()[-1] == f"{policy},,,,extended mode requires an instance with W set"


def test_extended_oracle_without_w_refuses_like_the_policies(tmp_path, capsys) -> None:
    path = _write(tmp_path, TOY)  # no W directive
    message = "extended mode requires an instance with W set"
    code, out, err = _run(capsys, ["oracle", path, "--extended"])
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = _run(capsys, ["compare", path, "--policy", "opt-oracle,alg2", "--extended", "--worlds", "50"])
    assert code == 0
    assert out.splitlines()[-2:] == [f"{name},,,,{message}" for name in ("opt-oracle", "alg2")]


def test_compare_lets_programming_errors_through(tmp_path, capsys, monkeypatch) -> None:
    # only refusals (ValueError) become error cells; a bug stops the command
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a refusal")

    monkeypatch.setattr(cli, "make_policy", broken)
    with pytest.raises(TypeError, match="a bug, not a refusal"):
        main(["compare", _write(tmp_path, TOY), "--policy", "alg2,opt-oracle", "--worlds", "50"])


def test_compare_stoch_cp_mean_sits_between_branches(tmp_path, capsys) -> None:
    path = _write(tmp_path, TOY)
    code, out, _ = _run(
        capsys,
        [
            "compare", path, "--policy", "alg1,alg2,stoch-cp",
            "--worlds", "2000", "--delta", "0.25", "--marginal-samples", "40",
        ],
    )
    assert code == 0
    rows = {
        line.split(",")[0]: line.split(",")
        for line in out.strip().splitlines()[4:]
    }
    means = {name: float(row[1]) for name, row in rows.items()}
    slack = 4 * sum(float(row[2]) for row in rows.values())
    low = min(means["alg1"], means["alg2"])
    high = max(means["alg1"], means["alg2"])
    assert low - slack <= means["stoch-cp"] <= high + slack
    assert all(row[3] == "0" for row in rows.values())


def test_compare_builds_one_singleton_table_per_graph(tmp_path, capsys, monkeypatch) -> None:
    calls = {"singleton_influence_table": 0, "_exact_spreads": 0}
    for name in calls:
        original = getattr(influence, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(influence, name, counted)
    path = _write(tmp_path, TOY.replace("nodes 5", "nodes 5\nedge 0 1 0.5\nedge 1 2 0.4") + "W 2\n")
    code, out, _ = _run(capsys, [
        "compare", path, "--policy", "stoch-cp,e-stoch-cp", "--worlds", "50",
        "--delta", "0.5", "--marginal-samples", "10",
    ])
    assert code == 0
    assert [line.split(",")[4] for line in out.splitlines()[4:]] == ["", ""]
    assert calls == {"singleton_influence_table": 1, "_exact_spreads": 1}
