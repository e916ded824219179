"""Output checks for the benchmark's operations.

Every check returns a list of problems; an empty list means the output
passed. The checks bound outputs to their documented ranges and test
internal consistency. They never pin a convergence result, so a later
correctness change to a ranker is not counted as a failure.
"""

from __future__ import annotations

import math

import numpy as np

SAMPLE_SIZE = 200
STEP_TOLERANCE = 1e-9       # |got - want| <= tol * (1 + |want|)
RANGE_SLACK = 1e-9          # float rounding of a weighted mean of ratings


def sample_users(num_users: int, seed) -> np.ndarray:
    """A seeded sample of user indices for the reputation-step check."""
    rng = np.random.default_rng(seed)
    size = min(SAMPLE_SIZE, num_users)
    return np.sort(rng.choice(num_users, size=size, replace=False))


def _outside_ratings(q: np.ndarray) -> bool:
    """Some value is not finite or not within the rating scale [1, 5]."""
    return not (np.isfinite(q).all() and q.min() >= 1.0 - RANGE_SLACK
                and q.max() <= 5.0 + RANGE_SLACK)


def _pearson(r: np.ndarray, q: np.ndarray) -> float:
    """Pearson correlation of one user's ratings and item qualities;
    0 when either vector is constant."""
    if r.max() == r.min() or q.max() == q.min():
        return 0.0
    dr = r - r.mean()
    dq = q - q.mean()
    den = math.sqrt(float(np.sum(dr * dr)) * float(np.sum(dq * dq)))
    if den == 0.0:
        return 0.0
    return min(max(float(np.sum(dr * dq)) / den, -1.0), 1.0)


def _user_links(graph, qualities, u):
    lo, hi = graph.user_ptr[u], graph.user_ptr[u + 1]
    return graph.ratings[lo:hi], qualities[graph.items[lo:hi]]


def expected_reputations(graph, qualities, config, users) -> np.ndarray:
    """The reputation step applied to `qualities`, one user at a time.

    ir: inverse power of the rating MSE. cr: clamped Pearson. rr: clamped
    Pearson times log-degree damping, then the power redistribution, whose
    normalisation sums over every user, so rr computes the trust of all
    users and returns the requested ones.
    """
    alg = config.algorithm
    if alg == "ir":
        out = []
        for u in users:
            r, q = _user_links(graph, qualities, u)
            mse = float(np.mean((r - q) ** 2))
            out.append((mse + config.epsilon) ** (-config.beta))
        return np.asarray(out)
    if alg == "cr":
        return np.asarray([max(_pearson(*_user_links(graph, qualities, u)),
                               0.0) for u in users])
    if alg == "rr":
        logk = np.log10(np.diff(graph.user_ptr).astype(np.float64))
        top = logk.max()
        trust = np.asarray([
            max(_pearson(*_user_links(graph, qualities, u)), 0.0)
            * (logk[u] / top if top > 0 else 0.0)
            for u in range(graph.num_users)])
        powered = trust ** config.theta
        mass = powered.sum()
        if mass == 0:
            return np.zeros(len(users))
        return (powered * (trust.sum() / mass))[np.asarray(users)]
    raise ValueError(f"no reputation step for {alg!r}")


def reputation_step_error(graph, result, config, users) -> float:
    """Largest scaled gap between the returned reputations and the
    reputation step applied to the returned qualities."""
    want = expected_reputations(graph, result.qualities, config, users)
    got = result.reputations[np.asarray(users)]
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


def check_rank(graph, result, config, users, rs: float | None = None):
    """Range, shape and consistency checks on one ranking result."""
    problems = []
    q, rep = result.qualities, result.reputations
    if q.shape != (graph.num_items,) or rep.shape != (graph.num_users,):
        return [f"shapes {q.shape}/{rep.shape} do not match the graph"]
    if not np.isfinite(q).all():
        problems.append("non-finite quality")
    elif config.algorithm != "rr" and _outside_ratings(q):
        problems.append(f"quality outside [1, 5]: {q.min()}..{q.max()}")
    if not np.isfinite(rep).all():
        problems.append("non-finite reputation")
    elif rep.min() < 0:
        problems.append(f"negative reputation {rep.min()}")
    if rs is not None and not 0.0 < rs <= 1.0:
        problems.append(f"ranking score {rs} outside (0, 1]")
    if result.converged and not result.final_residual < config.delta:
        problems.append("converged with residual >= delta")
    if problems:
        return problems
    if config.algorithm == "mean":
        if not (rep == 1.0).all():
            problems.append("mean reputations are not all 1")
    else:
        err = reputation_step_error(graph, result, config, users)
        if not err <= STEP_TOLERANCE:
            problems.append(f"reputations differ from the reputation step "
                            f"of the returned qualities by {err:.3e}")
    return problems


def below_config(text: str) -> str:
    """An output file without its `# config:` line, which echoes flags
    (threads, paths) that are allowed to differ."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# config:"))


def _data_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]     # drop the column header


def check_sweep_row(text: str, p2_values, realizations: int,
                    identity_mean: float):
    """A one-row sweep file: one line per p2 cell, every mean in (0, 1],
    and the identity cell equal to the directly computed mean."""
    rows = _data_rows(text)
    if len(rows) != len(p2_values):
        return [f"{len(rows)} grid rows, expected {len(p2_values)}"]
    problems = []
    for (p1, p2, mean, _std, n, _conv), want_p2 in zip(rows, p2_values):
        if float(p2) != want_p2 or float(p1) != 0.5 or int(n) != realizations:
            problems.append(f"unexpected cell ({p1}, {p2}, n={n})")
        if not 0.0 < float(mean) <= 1.0:
            problems.append(f"mean {mean} at p2={p2} outside (0, 1]")
        if float(p2) == 0.5 and not math.isclose(
                float(mean), identity_mean, rel_tol=STEP_TOLERANCE):
            problems.append(f"identity cell {mean} != {identity_mean!r}")
    return problems


def check_rank_tables(items_text: str, users_text: str,
                      num_items: int, num_users: int):
    """The qualities and reputations files of a cr `reprank rank` run."""
    problems = []
    items = _data_rows(items_text)
    users = _data_rows(users_text)
    if len(items) != num_items:
        problems.append(f"{len(items)} quality rows, expected {num_items}")
    if len(users) != num_users:
        problems.append(f"{len(users)} reputation rows, expected {num_users}")
    q = np.asarray([float(row[1]) for row in items])
    rep = np.asarray([float(row[1]) for row in users])
    if q.size and _outside_ratings(q):
        problems.append("quality outside [1, 5]")
    if rep.size and not (np.isfinite(rep).all() and rep.min() >= 0.0):
        problems.append("reputation negative or not finite")
    return problems
