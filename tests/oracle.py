"""Independent reference implementations for cross-checking the package.

Everything here is deliberately plain Python over dicts and lists: no
numpy vectorization, no code shared with src/. The iterative references
run to a hard cap and exit early only once the quality vector is
stationary at float64 resolution (residual below TINY), at which point
further iterations cannot change anything.
"""

import math
from itertools import permutations

CAP = 10 ** 6
TINY = 1e-30
URN_CHUNK = 1 << 17


def _index(links):
    by_user = {}
    by_item = {}
    for u, i, r in links:
        by_user.setdefault(u, []).append((i, float(r)))
        by_item.setdefault(i, []).append((u, float(r)))
    return by_user, by_item


def _residual(q_new, q_old, num_items):
    s = 0.0
    for i, v in q_new.items():
        d = v - q_old[i]
        s += d * d
    return s / num_items


def oracle_topology(num_users, num_items, num_links, rng):
    """Preferential-attachment links as lists, by the urn loop as first
    written: per attempt, one pair of doubles read from consecutive
    rng.random(URN_CHUNK) blocks."""
    n_u, n_i, n_l = num_users, num_items, num_links
    if n_l == n_u * n_i:
        return ([u for u in range(n_u) for _ in range(n_i)],
                [i for _ in range(n_u) for i in range(n_i)])

    user_urn = list(range(n_u))
    item_urn = list(range(n_i))
    seen = set()

    buf = []
    pos = 0
    while len(seen) < n_l:
        if pos + 1 >= len(buf):
            buf = rng.random(URN_CHUNK).tolist()
            pos = 0
        ulen = len(user_urn)
        ilen = len(item_urn)
        u = user_urn[min(int(buf[pos] * ulen), ulen - 1)]
        i = item_urn[min(int(buf[pos + 1] * ilen), ilen - 1)]
        pos += 2
        key = u * n_i + i
        if key in seen:
            continue
        seen.add(key)
        user_urn.append(u)
        item_urn.append(i)

    return user_urn[n_u:], item_urn[n_i:]


def project_rating(rating, params):
    """The (p1, p2) projection of a single rating, by exact comparison
    against the integer grid: 2 moves to 1 + 2*p1, 4 to 3 + 2*p2."""
    if not (1.0 <= rating <= 5.0):
        raise ValueError(f"rating out of bounds: {rating:g} not in [1, 5]")
    if rating == 2.0:
        return 1.0 + params.p1 * 2.0
    if rating == 4.0:
        return 3.0 + params.p2 * 2.0
    return float(rating)


def oracle_mean(links, num_items):
    _, by_item = _index(links)
    q = {}
    for i, raters in by_item.items():
        q[i] = sum(r for _, r in raters) / len(raters)
    return [q.get(i, math.nan) for i in range(num_items)]


def oracle_ir(links, num_users, num_items, beta=1.0, epsilon=1e-8,
              delta=0.0, max_iterations=CAP):
    """Reputation = (mean squared error + epsilon)^(-beta), init 1.

    delta=0 runs to the float64 fixed point (early exit below TINY).
    """
    by_user, by_item = _index(links)
    rep = {u: 1.0 for u in by_user}
    q_prev = None
    res = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        q = {}
        for i, raters in by_item.items():
            wtot = sum(rep[u] for u, _ in raters)
            if wtot > 0:
                q[i] = sum(rep[u] * r for u, r in raters) / wtot
            else:
                q[i] = sum(r for _, r in raters) / len(raters)
        for u, rated in by_user.items():
            mse = sum((r - q[i]) ** 2 for i, r in rated) / len(rated)
            rep[u] = (mse + epsilon) ** (-beta)
        if q_prev is not None:
            res = _residual(q, q_prev, num_items)
            if delta > 0 and res < delta:
                converged = True
                break
            if res < TINY:
                break
        q_prev = q
    qualities = [q.get(i, math.nan) for i in range(num_items)]
    reputations = [rep.get(u, 1.0) for u in range(num_users)]
    return qualities, reputations, iterations, converged, res


def oracle_rr(links, num_users, num_items, theta=5.0, delta=0.0,
              max_iterations=CAP, use_penalty=True, use_damping=True,
              trace=None, noise=None):
    """Correlation-trust iteration; with both factors off and theta=1 this
    is the plain correlation method. The penalty scales an item's weighted
    mean by its top rater reputation, capped at 1. `trace`, if given,
    collects each iteration's (qualities, reputations) lists; `noise`, if
    given, maps each iteration's reputations (a dict) to the ones the next
    iteration uses, to measure how far rounding moves the result."""
    by_user, by_item = _index(links)
    deg = {u: len(v) for u, v in by_user.items()}
    rep = {u: deg[u] / num_items for u in by_user}

    if use_damping:
        top = max(math.log10(k) for k in deg.values())
        damp = {u: (math.log10(deg[u]) / top if top > 0 else 0.0)
                for u in by_user}
    else:
        damp = {u: 1.0 for u in by_user}

    q_prev = None
    res = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        q = {}
        for i, raters in by_item.items():
            wtot = sum(rep[u] for u, _ in raters)
            if wtot > 0:
                q[i] = sum(rep[u] * r for u, r in raters) / wtot
                if use_penalty:
                    q[i] *= min(1.0, max(rep[u] for u, _ in raters))
            else:
                q[i] = sum(r for _, r in raters) / len(raters)

        trust = {}
        for u, rated in by_user.items():
            rs = [r for _, r in rated]
            qs = [q[i] for i, _ in rated]
            if max(rs) == min(rs) or max(qs) == min(qs):
                corr = 0.0
            else:
                k = len(rated)
                mr = sum(rs) / k
                mq = sum(qs) / k
                num = sum((r - mr) * (v - mq) for r, v in zip(rs, qs))
                den = math.sqrt(sum((r - mr) ** 2 for r in rs)
                                * sum((v - mq) ** 2 for v in qs))
                corr = 0.0 if den == 0.0 else max(-1.0, min(1.0, num / den))
            trust[u] = max(corr * damp[u], 0.0)

        mass = sum(t ** theta for t in trust.values())
        if mass > 0:
            total = sum(trust.values())
            rep = {u: (t ** theta) * total / mass for u, t in trust.items()}
        else:
            rep = {u: 0.0 for u in trust}
        if noise is not None:
            rep = noise(rep)
        if trace is not None:
            trace.append(([q.get(i, math.nan) for i in range(num_items)],
                          [rep.get(u, 0.0) for u in range(num_users)]))

        if q_prev is not None:
            res = _residual(q, q_prev, num_items)
            if delta > 0 and res < delta:
                converged = True
                break
            if res < TINY:
                break
        q_prev = q

    qualities = [q.get(i, math.nan) for i in range(num_items)]
    reputations = [rep.get(u, 0.0) for u in range(num_users)]
    return qualities, reputations, iterations, converged, res


def oracle_midranks(qualities):
    """1-based descending midranks by explicit tie-group averaging."""
    rated = [(q, i) for i, q in enumerate(qualities) if not math.isnan(q)]
    rated.sort(key=lambda t: -t[0])
    ranks = [0.0] * len(qualities)
    pos = 0
    while pos < len(rated):
        end = pos
        while end < len(rated) and rated[end][0] == rated[pos][0]:
            end += 1
        mid = (pos + 1 + end) / 2.0
        for _, i in rated[pos:end]:
            ranks[i] = mid
        pos = end
    n_rated = len(rated)
    n_missing = len(qualities) - n_rated
    for i, q in enumerate(qualities):
        if math.isnan(q):
            ranks[i] = n_rated + (n_missing + 1) / 2.0
    return ranks


def oracle_rs_enumerated(qualities, benchmark):
    """RS averaged over every quality-consistent total order.

    Feasible only for small item counts; NaN sorts below every number.
    """
    m = len(qualities)
    key = [(-math.inf if math.isnan(q) else q) for q in qualities]
    total = 0.0
    count = 0
    for perm in permutations(range(m)):
        if all(key[perm[a]] >= key[perm[a + 1]] for a in range(m - 1)):
            pos = {item: a + 1 for a, item in enumerate(perm)}
            total += sum(pos[b] for b in benchmark) / len(benchmark) / m
            count += 1
    return total / count
