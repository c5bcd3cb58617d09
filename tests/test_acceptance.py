"""Acceptance gate: the eight shipping criteria for this package.

Each criterion is one test that prints a single ``ACCEPTANCE n:
PASS/FAIL`` line via the ``acceptance_report`` fixture (the lines are
echoed again in the terminal summary) and enforces the pinned
wall-clock budget. Shared corpora are session fixtures so the solver
work is attributed once; fixture build times are added to the budgets
of the criteria that consume them.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import helpers
from mtgames import cli
from mtgames.benchgen import (
    RobotWorld,
    gen_cleaning_robot,
    gen_multi_target_series,
    gen_random_game,
    scaled_rooms,
)
from mtgames.game import PLAYER0
from mtgames.gr1 import solve_gr1_emb
from mtgames.solver import SolveOptions, solve_mt
from mtgames.strategy import (
    Strategy,
    check_strategy,
    enumerate_memoryless_winning,
    extract_strategy,
)

_TIMINGS: dict[str, float] = {}

CORPUS_SIZE = 200
MUTATION_GOAL = 20


# ---------------------------------------------------------------------------
# Shared corpora


@pytest.fixture(scope="session")
def random_corpus():
    """200 random instances: n log-uniform in [10, 2000], m in 1..6,
    per-mode target counts in 1..3, mixed densities and owner layouts."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    instances = []
    for idx in range(CORPUS_SIZE):
        if idx == 0:
            n = 10
        elif idx == 1:
            n = 2000
        else:
            n = int(round(math.exp(rng.uniform(math.log(10.0), math.log(2000.0)))))
        m = int(rng.integers(1, 7))
        targets = [int(t) for t in rng.integers(1, 4, size=m)]
        density = float(rng.uniform(1.2, 3.0))
        game, spec = gen_random_game(
            n, m, targets, density, 100_000 + idx,
            alternate_owners=(idx % 17 == 0),
        )
        instances.append((game, spec))
    _TIMINGS["corpus"] = time.perf_counter() - t0
    return instances


@pytest.fixture(scope="session")
def cold_runs(random_corpus):
    """Both algorithms, cold, no recording, over the whole corpus."""
    t0 = time.perf_counter()
    opts = SolveOptions(warm=False, record=False)
    runs = []
    for game, spec in random_corpus:
        res_mt = solve_mt(game, spec, opts)
        res_emb = solve_gr1_emb(game, spec, opts)
        runs.append(
            {
                "mt": (helpers.frozen(res_mt.winning), res_mt.stats.pre_count),
                "gr1emb": (helpers.frozen(res_emb.winning), res_emb.stats.pre_count),
            }
        )
    _TIMINGS["cold"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="session")
def robot_runs():
    """Cleaning-robot gridworlds on a 16x16 grid, 1 to 4 rooms."""
    t0 = time.perf_counter()
    opts = SolveOptions(warm=False, record=False)
    runs = {}
    for k in (1, 2, 3, 4):
        world = RobotWorld(16, 16, scaled_rooms(16, 16, k))
        game, spec = gen_cleaning_robot(world)
        res_mt = solve_mt(game, spec, opts)
        res_emb = solve_gr1_emb(game, spec, opts)
        runs[k] = {
            "game": game,
            "spec": spec,
            "mt": (helpers.frozen(res_mt.winning), res_mt.stats.pre_count),
            "gr1emb": (helpers.frozen(res_emb.winning), res_emb.stats.pre_count),
        }
    _TIMINGS["robot"] = time.perf_counter() - t0
    return runs


# ---------------------------------------------------------------------------
# Criterion 1: the two algorithms compute the same winning set.


def test_criterion_1_winning_set_equality(
    random_corpus, cold_runs, robot_runs, acceptance_report
):
    t0 = time.perf_counter()
    mismatches = [
        i for i, runs in enumerate(cold_runs) if runs["mt"][0] != runs["gr1emb"][0]
    ]
    robot_mismatches = [
        k for k in (1, 2, 3) if robot_runs[k]["mt"][0] != robot_runs[k]["gr1emb"][0]
    ]
    elapsed = (
        _TIMINGS["corpus"]
        + _TIMINGS["cold"]
        + _TIMINGS["robot"]
        + (time.perf_counter() - t0)
    )
    ok = not mismatches and not robot_mismatches and elapsed < 300.0
    acceptance_report(
        1,
        ok,
        f"{len(cold_runs)} random + 3 robot instances, "
        f"exact equality, {elapsed:.1f}s < 300s",
    )
    assert not mismatches, f"winning sets differ on corpus indices {mismatches[:5]}"
    assert not robot_mismatches, f"winning sets differ on robot sizes {robot_mismatches}"
    assert elapsed < 300.0, f"criterion 1 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 2: agreement with the exhaustive strategy-enumeration oracle.


def test_criterion_2_exhaustive_oracle(acceptance_report):
    t0 = time.perf_counter()
    opts = SolveOptions(record=False)
    compared = 0
    mismatches = []
    seed = 0
    while compared < 110 and seed < 4000:
        n = 2 + seed % 7
        m = 1 + seed % 2
        targets = [1 + (seed // 7) % 2] * m
        game, spec = gen_random_game(n, m, targets, 1.5, 9_000 + seed)
        seed += 1
        product = 1
        for v in range(game.n):
            if game.owner(v) == PLAYER0:
                product *= game.successors(v).size
        if product > 10**6:
            continue
        by_enumeration = enumerate_memoryless_winning(game, spec)
        by_solver = solve_mt(game, spec, opts).winning
        if helpers.frozen(by_enumeration) != helpers.frozen(by_solver):
            mismatches.append(seed - 1)
        compared += 1
    elapsed = time.perf_counter() - t0
    ok = compared >= 100 and not mismatches and elapsed < 120.0
    acceptance_report(
        2,
        ok,
        f"{compared} tiny instances match brute-force enumeration, "
        f"{elapsed:.1f}s < 120s",
    )
    assert compared >= 100, f"only {compared} instances under the enumeration bound"
    assert not mismatches, f"oracle disagrees on generation seeds {mismatches[:5]}"
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 3: extracted strategies pass the checker; corrupted ones fail.


def _corrupt_and_check(game, spec, strategy, winning):
    """Redirect one controlled choice; return True when the checker
    rejects the corrupted strategy, False when the corruption happened
    to stay winning, None when no alternative edge exists."""
    target = None
    for v in sorted(strategy.choices):
        for w in game.successors(v):
            if not winning.bits[w]:
                target = (v, int(w))
                break
        if target:
            break
    if target is None:
        for v in sorted(strategy.choices):
            for w in game.successors(v):
                if int(w) != strategy.choices[v]:
                    target = (v, int(w))
                    break
            if target:
                break
    if target is None:
        return None
    v, w = target
    mutated = dict(strategy.choices)
    mutated[v] = w
    verdict = check_strategy(
        game, spec, Strategy(mutated, strategy.winning_size), winning
    )
    return not verdict.ok


def test_criterion_3_strategy_soundness(random_corpus, robot_runs, acceptance_report):
    t0 = time.perf_counter()
    pool = list(random_corpus) + [
        (robot_runs[k]["game"], robot_runs[k]["spec"]) for k in (1, 2)
    ]
    failures = []
    detections = 0
    for idx, (game, spec) in enumerate(pool):
        result = solve_mt(game, spec)  # recording on: extraction needs it
        strategy = extract_strategy(game, spec, result)
        verdict = check_strategy(game, spec, strategy, result.winning)
        if not verdict.ok:
            failures.append((idx, verdict.reason))
            continue
        if detections < MUTATION_GOAL and strategy.choices:
            if _corrupt_and_check(game, spec, strategy, result.winning) is True:
                detections += 1
    elapsed = _TIMINGS["corpus"] + (time.perf_counter() - t0)
    ok = not failures and detections >= MUTATION_GOAL and elapsed < 300.0
    acceptance_report(
        3,
        ok,
        f"{len(pool)} extracted strategies verified, "
        f"{detections} corruptions detected, {elapsed:.1f}s < 300s",
    )
    assert not failures, f"checker rejected extracted strategies: {failures[:5]}"
    assert detections >= MUTATION_GOAL, f"only {detections} corruptions detected"
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 4: predecessor-operation counts stay inside the stated budget.


def test_criterion_4_operation_budget(random_corpus, cold_runs, acceptance_report):
    worst_mt = 0.0
    worst_emb = 0.0
    violations = []
    for idx, ((game, spec), runs) in enumerate(zip(random_corpus, cold_runs)):
        n2 = game.n**2
        mt_bound = 10 * spec.sum_targets * n2
        emb_bound = 10 * spec.mode_count * spec.max_targets * n2
        worst_mt = max(worst_mt, runs["mt"][1] / mt_bound)
        worst_emb = max(worst_emb, runs["gr1emb"][1] / emb_bound)
        if runs["mt"][1] > mt_bound or runs["gr1emb"][1] > emb_bound:
            violations.append(idx)
    ok = not violations
    acceptance_report(
        4,
        ok,
        f"worst budget fractions: direct {worst_mt:.2e}, embedded {worst_emb:.2e}",
    )
    assert not violations, f"operation budget exceeded on corpus indices {violations[:5]}"


# ---------------------------------------------------------------------------
# Criterion 5: the cost ratio grows with the number of targets per mode.


def test_criterion_5_target_scaling_series(acceptance_report):
    t0 = time.perf_counter()
    opts = SolveOptions(record=False)
    seeds = range(20)
    extras = list(range(1, 11))
    ok = True
    summaries = []
    for m in (3, 6, 9):
        sums = [0.0] * len(extras)
        for seed in seeds:
            series = gen_multi_target_series(600, m, 2.0, seed, extras)
            for xi, (game, spec) in enumerate(series):
                res_mt = solve_mt(game, spec, opts)
                res_emb = solve_gr1_emb(game, spec, opts)
                sums[xi] += res_emb.stats.pre_count / res_mt.stats.pre_count
        ratios = [s / len(list(seeds)) for s in sums]
        dips = [i for i in range(len(ratios) - 1) if ratios[i + 1] < ratios[i]]
        deep_dips = [i for i in dips if ratios[i + 1] < 0.95 * ratios[i]]
        if min(ratios) < 1.0 or len(dips) > 1 or deep_dips:
            ok = False
        summaries.append(f"m={m}: {ratios[0]:.2f}->{ratios[-1]:.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    acceptance_report(
        5, ok, "; ".join(summaries) + f", {elapsed:.1f}s < 900s"
    )
    assert ok, f"ratio series not monotone within tolerance: {summaries}"
    assert elapsed < 900.0, f"criterion 5 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 6: the gap widens with the number of rooms on the gridworld.


def test_criterion_6_robot_scaling(robot_runs, acceptance_report):
    gaps = []
    ordered = True
    for k in (2, 3, 4):
        mt_pre = robot_runs[k]["mt"][1]
        emb_pre = robot_runs[k]["gr1emb"][1]
        if emb_pre < mt_pre:
            ordered = False
        gaps.append(emb_pre - mt_pre)
    monotone = gaps[0] <= gaps[1] <= gaps[2]
    elapsed = _TIMINGS["robot"]
    ok = ordered and monotone and elapsed < 900.0
    acceptance_report(
        6,
        ok,
        f"embedded-minus-direct gaps {gaps[0]}, {gaps[1]}, {gaps[2]}, "
        f"{elapsed:.1f}s < 900s",
    )
    assert ordered, f"embedded ran cheaper than direct somewhere: gaps {gaps}"
    assert monotone, f"gap not nondecreasing in room count: {gaps}"
    assert elapsed < 900.0, f"criterion 6 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 7: warm starts change nothing but the work done.


def test_criterion_7_warm_start(random_corpus, cold_runs, acceptance_report):
    warm_opts = SolveOptions(warm=True, record=False)
    changed = []
    reduced = 0
    total = 0
    for idx, ((game, spec), cold) in enumerate(zip(random_corpus, cold_runs)):
        for algo, solver in (("mt", solve_mt), ("gr1emb", solve_gr1_emb)):
            res = solver(game, spec, warm_opts)
            total += 1
            if helpers.frozen(res.winning) != cold[algo][0]:
                changed.append((idx, algo))
            if res.stats.pre_count <= cold[algo][1]:
                reduced += 1
    fraction = reduced / total
    ok = not changed and fraction >= 0.9
    acceptance_report(
        7,
        ok,
        f"winning sets unchanged on {total} runs, "
        f"work reduced-or-equal on {fraction:.0%}",
    )
    assert not changed, f"warm start changed winning sets: {changed[:5]}"
    assert fraction >= 0.9, f"work reduced-or-equal on only {fraction:.0%}"


# ---------------------------------------------------------------------------
# Criterion 8: repeated runs emit identical CSVs apart from timing.


def _rows_without_wall_ms(path):
    rows = []
    for line in path.read_text(encoding="utf-8").strip().splitlines():
        cols = line.split(",")
        if cols[0] != "algo":
            cols[7] = "_"
        rows.append(",".join(cols))
    return rows


def test_criterion_8_csv_determinism(tmp_path, monkeypatch, capsys, acceptance_report):
    d = tmp_path / "det"
    d.mkdir()
    for s in range(3):
        rc = cli.main(
            [
                "gen-random",
                "--states", str(40 + 7 * s),
                "--modes", "2",
                "--targets", "2,1",
                "--seed", str(s),
                "--out", str(d / f"det{s}"),
            ]
        )
        assert rc == 0

    solve_a = tmp_path / "solve_a.csv"
    solve_b = tmp_path / "solve_b.csv"
    for out in (solve_a, solve_b):
        rc = cli.main(
            ["solve", str(d / "det0.game"), str(d / "det0.spec"), "--csv", str(out)]
        )
        assert rc == 0

    compare_a = tmp_path / "compare_a.csv"
    compare_b = tmp_path / "compare_b.csv"
    monkeypatch.setenv("MTGAMES_THREADS", "2")
    assert cli.main(["compare", str(d), "--csv", str(compare_a)]) == 0
    monkeypatch.setenv("MTGAMES_THREADS", "5")
    assert cli.main(["compare", str(d), "--csv", str(compare_b)]) == 0
    capsys.readouterr()

    solve_same = _rows_without_wall_ms(solve_a) == _rows_without_wall_ms(solve_b)
    compare_same = _rows_without_wall_ms(compare_a) == _rows_without_wall_ms(compare_b)
    ok = solve_same and compare_same
    acceptance_report(
        8,
        ok,
        "solve and compare CSVs byte-identical apart from wall_ms, "
        "across reruns and thread counts",
    )
    assert solve_same, "solve CSV differs between identical runs"
    assert compare_same, "compare CSV differs across thread counts"
