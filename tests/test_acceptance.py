"""Acceptance gate: one test per go/no-go criterion, C1 through C10.

Each test records a single PASS/FAIL line (echoed in the terminal summary)
and then asserts on it, so a red test always carries its own verdict. The
fixed-point constants below were frozen from tests/oracle.py run to the
float64 fixed point before the package existed; the desk-scale statistical
checks use networks of 600 users, 400 items and 48k links with ten paired
realizations seeded from (1234, j).
"""

import functools
import math
import os
import time
from dataclasses import replace
from itertools import combinations, product

import numpy as np

from acceptance_log import record_acceptance
from nets import equals, fixed_point, random_bipartite
from oracle import oracle_ir, oracle_rr, oracle_rs_enumerated, project_rating

from reprank.graph import BenchmarkSet, RatingGraph, ingest_ratings
from reprank.metrics import (ranking_score, reputation_error_correlation,
                             top_fraction_benchmark)
from reprank.projection import ProjectionParams, project_graph
from reprank.ranking import ALGORITHMS, RankingConfig, rank
from reprank.sweep import SynthSource, find_optimum, grid_values, run_sweep
from reprank.synth import SynthSpec, generate_network

MASTER = 1234
N_REAL = 10
DESK = dict(num_users=600, num_items=400, num_links=48_000)
P_GRID = grid_values(0.05)


def report(tag, ok, detail):
    line = f"C{tag} {'PASS' if ok else 'FAIL'}: {detail}"
    record_acceptance(line)
    print(line)
    assert ok, line


# --------------------------------------------------- shared desk-scale runs

@functools.lru_cache(maxsize=None)
def desk_realization(case, j, spam):
    spec = SynthSpec(case=case, spam_fraction=spam, **DESK)
    rng = np.random.default_rng(np.random.SeedSequence([MASTER, j]))
    graph, truth = generate_network(spec, rng)
    return graph, truth, top_fraction_benchmark(truth, 0.05)


@functools.lru_cache(maxsize=None)
def identity_rank(case, j, algorithm, spam):
    graph, _, _ = desk_realization(case, j, spam)
    return rank(graph, RankingConfig(algorithm=algorithm))


def rs_at(graph, benchmark, config, p1, p2):
    projected = project_graph(graph, ProjectionParams(p1, p2))
    return ranking_score(rank(projected, config).qualities, benchmark).value


def slice_ratio(graph, benchmark, config):
    """Range of RS along the p1 axis over range along the p2 axis."""
    p1_slice = [rs_at(graph, benchmark, config, p, 0.5) for p in P_GRID]
    p2_slice = [rs_at(graph, benchmark, config, 0.5, p) for p in P_GRID]
    return float(np.ptp(p1_slice) / np.ptp(p2_slice))


# ------------------------------------------------------------ C1: ingestion

ML1M_ENV = "REPRANK_ML1M"


def _write_surrogate(path):
    """Same shape as the MovieLens-1M ratings file, synthetic content."""
    num_users, num_items, num_links = 6040, 3706, 1_000_209
    base, extra = divmod(num_links, num_users)
    covered = np.zeros(num_items, dtype=bool)
    with open(path, "w", encoding="utf-8") as fh:
        for u in range(num_users):
            degree = base + 1 if u < extra else base
            start = (u * 37) % num_items
            for step in range(degree):
                i = (start + step) % num_items
                covered[i] = True
                fh.write(f"{u + 1}::{i + 1}::{(u + i) % 5 + 1}::0\n")
    assert covered.all()


def test_c1_reference_scale_ingest(tmp_path):
    source = os.environ.get(ML1M_ENV)
    label = "ml-1m"
    if source is None:
        source = tmp_path / "surrogate.dat"
        _write_surrogate(source)
        label = "surrogate"
    t0 = time.perf_counter()
    graph = ingest_ratings(source, "movielens").graph
    elapsed = time.perf_counter() - t0
    ok = (graph.num_users == 6040 and graph.num_items == 3706
          and abs(graph.sparsity - 0.0447) <= 0.0005 and elapsed < 30.0)
    report(1, ok, f"{label}: users={graph.num_users} items={graph.num_items} "
                  f"sparsity={graph.sparsity:.4f} elapsed={elapsed:.1f}s")


# ----------------------------------------------------------- C2: reductions

def test_c2_structural_reductions():
    rng = np.random.default_rng(20260815)
    strip = RankingConfig(algorithm="rr", theta=1.0, delta=1e-30,
                          max_iterations=40)
    worst_pair = 0.0
    for _ in range(20):
        graph = random_bipartite(rng)
        trace_cr, trace_rr = [], []
        fixed_point(graph, replace(strip, algorithm="cr"), trace=trace_cr)
        fixed_point(graph, strip, use_penalty=False, use_damping=False,
                    trace=trace_rr)
        assert len(trace_cr) == len(trace_rr) >= 2
        for (qa, ra), (qb, rb) in zip(trace_cr, trace_rr):
            worst_pair = max(worst_pair,
                             float(np.max(np.abs(qa - qb))),
                             float(np.max(np.abs(ra - rb))))

    worst_beta = 0.0
    for _ in range(20):
        graph = random_bipartite(rng)
        flat = rank(graph, RankingConfig(algorithm="ir", beta=0.0))
        plain = rank(graph, RankingConfig(algorithm="mean"))
        worst_beta = max(worst_beta,
                         float(np.max(np.abs(flat.qualities - plain.qualities))))
    ok = worst_pair <= 1e-12 and worst_beta <= 1e-12
    report(2, ok, f"cr vs stripped rr per-iteration max|diff|={worst_pair:.2e}, "
                  f"ir(beta=0) vs mean max|diff|={worst_beta:.2e}, 20 graphs each")


# ----------------------------------------------------------- C3: projection

# rows: rating, p1, p2, expected projected value
ENDPOINTS = (
    (1.0, 0.0, 0.0, 1.0), (1.0, 1.0, 1.0, 1.0),
    (2.0, 0.0, 0.0, 1.0), (2.0, 0.0, 1.0, 1.0), (2.0, 1.0, 0.5, 3.0),
    (3.0, 0.0, 1.0, 3.0), (3.0, 1.0, 0.0, 3.0),
    (4.0, 0.5, 0.0, 3.0), (4.0, 0.0, 1.0, 5.0), (4.0, 1.0, 1.0, 5.0),
    (5.0, 0.0, 0.0, 5.0), (5.0, 1.0, 1.0, 5.0),
)


def test_c3_projection_identity_and_endpoints():
    rng = np.random.default_rng(7)
    graph = random_bipartite(rng, max_users=40, max_items=15)
    identity = project_graph(graph, ProjectionParams(0.5, 0.5))
    identity_ok = (equals(identity, graph)
                   and np.array_equal(identity.ratings, graph.ratings)
                   and project_rating(2.0, ProjectionParams(0.5, 0.5)) == 2.0
                   and project_rating(4.0, ProjectionParams(0.5, 0.5)) == 4.0)
    table_ok = all(
        project_rating(r, ProjectionParams(p1, p2)) == want
        for r, p1, p2, want in ENDPOINTS
    )
    report(3, identity_ok and table_ok,
           f"identity bit-exact={identity_ok}, "
           f"{len(ENDPOINTS)}-row endpoint table exact={table_ok}")


# --------------------------------------------- C4: frozen fixed-point values

T1 = dict(
    shape=(3, 2),
    links=((0, 0, 5), (0, 1, 3), (1, 0, 4), (1, 1, 2), (2, 0, 1), (2, 1, 5)),
    ir_q=(4.000000006666667, 2.0000000133333335),
    ir_r=(1.0000000100000006, 99999998.88888884, 0.11111111123456786),
    rr_q=(3.3333333333333335, 3.3333333333333335),
    rr_r=(0.0, 0.0, 0.0),
)
T2 = dict(
    shape=(4, 3),
    links=((0, 0, 5), (0, 1, 4), (0, 2, 3), (1, 0, 4), (1, 1, 4),
           (2, 1, 2), (2, 2, 5), (3, 0, 1), (3, 2, 2)),
    ir_q=(4.000000023845604, 3.9999999947549703, 3.09572392101541),
    ir_r=(2.9727604433664756, 99999997.01938432, 0.26225149201989245,
          0.19606668516816192),
    rr_q=(5.0, 4.0, 3.0),
    rr_r=(1.0, 0.0, 0.0, 0.0),
)
T3 = dict(
    shape=(5, 5),
    links=tuple((u, i, (5, 4, 3, 2, 1)[i]) for u in range(4)
                for i in range(5))
    + tuple((4, i, (1, 5, 2, 5, 3)[i]) for i in range(5)),
    ir_q=(4.999999998387096, 4.000000000403225, 2.9999999995967737,
          2.0000000012096772, 1.0000000008064516),
    ir_r=(99999999.98991935, 99999999.98991935, 99999999.98991935,
          99999999.98991935, 0.16129032245057232),
    rr_q=(5.0, 4.0, 3.0, 2.0, 1.0),
    rr_r=(1.0, 1.0, 1.0, 1.0, 0.0),
)


def _toy_graph(shape, links):
    users, items, ratings = (np.array(col, dtype=float)
                             for col in zip(*links))
    return RatingGraph.build(shape[0], shape[1],
                             users.astype(np.int64),
                             items.astype(np.int64), ratings)


def _scaled_gap(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


def test_c4_fixed_points_match_brute_force():
    worst = 0.0
    for toy in (T1, T2, T3):
        nu, ni = toy["shape"]
        links = toy["links"]
        # the live reference must still reproduce the frozen constants
        oq, orep, _, _, _ = oracle_ir(links, nu, ni)
        np.testing.assert_allclose(oq, toy["ir_q"], rtol=1e-12)
        np.testing.assert_allclose(orep, toy["ir_r"], rtol=1e-12)
        oq, orep, _, _, _ = oracle_rr(links, nu, ni)
        np.testing.assert_allclose(oq, toy["rr_q"], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(orep, toy["rr_r"], rtol=1e-12, atol=1e-12)

        graph = _toy_graph(toy["shape"], links)
        deep = dict(delta=1e-30, max_iterations=10 ** 6)
        res = rank(graph, RankingConfig(algorithm="ir", **deep))
        worst = max(worst, _scaled_gap(res.qualities, toy["ir_q"]),
                    _scaled_gap(res.reputations, toy["ir_r"]))
        res = rank(graph, RankingConfig(algorithm="rr", **deep))
        worst = max(worst, _scaled_gap(res.qualities, toy["rr_q"]),
                    _scaled_gap(res.reputations, toy["rr_r"]))
    report(4, worst <= 1e-8,
           f"ir/rr on 3 toy graphs, max gap vs frozen reference {worst:.2e} "
           f"(scaled by 1+|ref|)")


# -------------------------------------------------- C5: ranking-score ties

def test_c5_rs_tie_handling():
    worst = 0.0
    cases = 0
    for m in range(1, 5):
        for values in product((1.0, 2.0, 3.0, math.nan), repeat=m):
            q = np.array(values)
            for size in range(1, m + 1):
                for bench in combinations(range(m), size):
                    got = ranking_score(q, BenchmarkSet(frozenset(bench)))
                    want = oracle_rs_enumerated(values, bench)
                    worst = max(worst, abs(got.value - want))
                    cases += 1
    rng = np.random.default_rng(11)
    for _ in range(150):
        m = int(rng.integers(5, 7))
        values = tuple(rng.choice((1.0, 2.0, 3.0, 4.0, math.nan), size=m))
        size = int(rng.integers(1, m + 1))
        bench = tuple(rng.choice(m, size=size, replace=False))
        got = ranking_score(np.array(values), BenchmarkSet(frozenset(bench)))
        worst = max(worst, abs(got.value - oracle_rs_enumerated(values, bench)))
        cases += 1

    base = np.arange(1.0, 101.0)
    bench = BenchmarkSet(frozenset(range(5)))
    shuffles = [ranking_score(rng.permutation(base), bench).value
                for _ in range(1000)]
    shuffle_mean = float(np.mean(shuffles))
    ok = worst <= 1e-12 and abs(shuffle_mean - 0.5) <= 0.02
    report(5, ok, f"midrank RS vs tie enumeration: {cases} cases, "
                  f"max|diff|={worst:.2e}; shuffled mean={shuffle_mean:.4f}")


# ------------------------------------------- C6: correlation sweep optimum

def test_c6_cr_correlation_sweep_optimum():
    spec = SynthSpec(case=0, seed=MASTER, **DESK)
    t0 = time.perf_counter()
    grid = run_sweep(SynthSource(spec), RankingConfig(algorithm="cr"),
                     metric="correlation", n_realizations=N_REAL, threads=4)
    elapsed = time.perf_counter() - t0
    opt = find_optimum(grid)
    ok = (abs(opt.p1 - 0.5) <= 0.05 + 1e-9
          and abs(opt.p2 - 0.5) <= 0.05 + 1e-9 and elapsed < 600.0)
    report(6, ok, f"cr optimum at ({opt.p1:g}, {opt.p2:g}) "
                  f"corr={opt.value:.3f}, {elapsed:.0f}s on 4 workers")


# ------------------------------------------------- C7: slice shape effects

def test_c7a_p1_flat_p2_decisive():
    config = RankingConfig(algorithm="cr")
    ratios = []
    for j in range(N_REAL):
        graph, _, benchmark = desk_realization(0, j, 0.0)
        ratios.append(slice_ratio(graph, benchmark, config))
    wins = sum(r < 0.2 for r in ratios)
    report("7a", wins >= 9,
           f"cr/case0 RS range ratio p1/p2 < 0.2 in {wins}/10 "
           f"(max {max(ratios):.3f})")


def test_c7b_p2_direction_depends_on_case():
    wins = {}
    for case, low_is_better in ((3, True), (4, False)):
        for algorithm in ("cr", "rr"):
            config = RankingConfig(algorithm=algorithm)
            n = 0
            for j in range(N_REAL):
                graph, _, benchmark = desk_realization(case, j, 0.0)
                low = rs_at(graph, benchmark, config, 0.5, 0.05)
                high = rs_at(graph, benchmark, config, 0.5, 0.95)
                n += (low < high) if low_is_better else (high < low)
            wins[f"case{case}/{algorithm}"] = n
    ok = all(n >= 9 for n in wins.values())
    report("7b", ok, " ".join(f"{k}={n}/10" for k, n in wins.items()))


def test_c7c_case4_hardest_at_identity():
    wins = 0
    means = {case: [] for case in (1, 2, 3, 4)}
    for j in range(N_REAL):
        scores = {}
        for case in (1, 2, 3, 4):
            _, _, benchmark = desk_realization(case, j, 0.0)
            result = identity_rank(case, j, "ir", 0.0)
            scores[case] = ranking_score(result.qualities, benchmark).value
            means[case].append(scores[case])
        wins += all(scores[4] > scores[c] for c in (1, 2, 3))
    detail = " ".join(f"case{c}={float(np.mean(v)):.4f}"
                      for c, v in means.items())
    report("7c", wins >= 9, f"ir RS highest for case4 in {wins}/10 ({detail})")


def test_c7d_rr_correlation_magnitude_vs_cr():
    wins = 0
    cr_vals, rr_vals = [], []
    for j in range(N_REAL):
        _, truth, _ = desk_realization(0, j, 0.0)
        c = reputation_error_correlation(
            identity_rank(0, j, "cr", 0.0).reputations,
            truth.error_magnitude).value
        r = reputation_error_correlation(
            identity_rank(0, j, "rr", 0.0).reputations,
            truth.error_magnitude).value
        cr_vals.append(c)
        rr_vals.append(r)
        wins += abs(r) >= abs(c)
    report("7d", wins >= 9,
           f"|corr_rr| >= |corr_cr| in {wins}/10 "
           f"(means cr={float(np.mean(cr_vals)):.3f} "
           f"rr={float(np.mean(rr_vals)):.3f})")


# ----------------------------------------------------------- C8: spam flood

def test_c8_spam_degrades_every_algorithm():
    clean, spammed = {}, {}
    for algorithm in ALGORITHMS:
        c_scores, s_scores = [], []
        for j in range(N_REAL):
            _, _, benchmark = desk_realization(0, j, 0.0)
            c_scores.append(ranking_score(
                identity_rank(0, j, algorithm, 0.0).qualities,
                benchmark).value)
            _, _, benchmark = desk_realization(0, j, 0.9)
            s_scores.append(ranking_score(
                identity_rank(0, j, algorithm, 0.9).qualities,
                benchmark).value)
        clean[algorithm] = float(np.mean(c_scores))
        spammed[algorithm] = float(np.mean(s_scores))
    degraded = all(spammed[a] > clean[a] for a in ALGORITHMS)

    config = RankingConfig(algorithm="cr")
    ratios = []
    for j in range(N_REAL):
        graph, _, benchmark = desk_realization(0, j, 0.9)
        ratios.append(slice_ratio(graph, benchmark, config))
    shape_wins = sum(r < 0.2 for r in ratios)

    ok = degraded and shape_wins >= 9
    shift = " ".join(f"{a}:{clean[a]:.3f}->{spammed[a]:.3f}"
                     for a in ALGORITHMS)
    report(8, ok, f"RS clean->spam {shift}; p1/p2 ratio < 0.2 under spam "
                  f"in {shape_wins}/10")


# ------------------------------------------- C9: reputation tracks raters

def test_c9_reputation_anticorrelates_with_error():
    means = {}
    for algorithm in ("ir", "cr", "rr"):
        vals = []
        for j in range(N_REAL):
            _, truth, _ = desk_realization(0, j, 0.0)
            vals.append(reputation_error_correlation(
                identity_rank(0, j, algorithm, 0.0).reputations,
                truth.error_magnitude).value)
        means[algorithm] = float(np.mean(vals))
    ok = all(v < -0.3 for v in means.values())
    report(9, ok, "mean corr(reputation, rater error): " +
           " ".join(f"{a}={v:.3f}" for a, v in means.items()))


# ------------------------------------- C10: projected optimum never worse

def test_c10_projected_optimum_never_worse():
    spec = SynthSpec(num_users=150, num_items=100, num_links=6000, case=1,
                     seed=MASTER)
    margins = []
    for algorithm in ("mean", "cr"):
        grid = run_sweep(SynthSource(spec), RankingConfig(algorithm=algorithm),
                         metric="rs", p1_values=(0.0, 0.5, 1.0),
                         p2_values=(0.0, 0.5, 1.0), n_realizations=3)
        original = float(grid.mean[grid.cell(0.5, 0.5)])
        margins.append(original - find_optimum(grid).value)
    ok = all(m >= -1e-12 for m in margins)
    report(10, ok, "original RS minus optimum RS per sweep: " +
           " ".join(f"{m:.4f}" for m in margins) + " (>= 0 required)")
