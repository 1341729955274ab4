"""Pure helpers of the perfbench benchmark: percentile rules, the seeded
open-loop schedule, due-time latency, backlog detection and span self-time
arithmetic. Everything here is deterministic and free of I/O, so
test_benchlib.py can pin it down."""

import math
import random

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return float(vals[mid]) if n % 2 else (vals[mid - 1] + vals[mid]) / 2.0


def rank(n, pct):
    """1-based nearest rank of the pct-th percentile of n samples (rounded
    first, so 99.9 % of 10000 is rank 9990, not 9991)."""
    return min(n, max(1, math.ceil(round(pct * n / 100.0, 6))))


def nearest_rank(sorted_values, pct):
    """The nearest-rank percentile: the smallest sample with at least
    pct % of the samples at or below it."""
    return sorted_values[rank(len(sorted_values), pct) - 1]


def beyond_count(n, pct):
    """Samples strictly past the nearest-rank pct-th sample of n."""
    return n - rank(n, pct)


def tail(values):
    """(percentile, value, samples beyond) for the highest percentile of
    TAIL_PERCENTILES with at least MIN_BEYOND samples beyond it. With too
    few samples for any of them, the maximum is the tail (percentile 100,
    nothing beyond) - the caller prints the count."""
    vals = sorted(values)
    for pct in TAIL_PERCENTILES:
        if beyond_count(len(vals), pct) >= MIN_BEYOND:
            return pct, float(nearest_rank(vals, pct)), beyond_count(len(vals), pct)
    return 100.0, float(vals[-1]), 0


def choose(rng, mix):
    """Weighted choice over [(weight, item), ...]."""
    total = sum(w for w, _ in mix)
    x = rng.random() * total
    for w, item in mix:
        x -= w
        if x < 0:
            return item
    return mix[-1][1]


def schedule(seed, rung, rate_rps, count, mix):
    """The open-loop arrivals of one ladder rung: `count` requests due over
    exactly count / rate seconds. Arrival times are sorted uniforms over the
    window - a Poisson process conditioned on its count, so the offered rate
    is exact while gaps stay exponential-like. Each request draws its mix
    entry and a fresh run seed. Same (seed, rung) -> same schedule."""
    rng = random.Random("%s:%s" % (seed, rung))
    window = count / float(rate_rps)
    dues = sorted(rng.random() * window for _ in range(count))
    out = []
    for i, due in enumerate(dues):
        entry = choose(rng, mix)
        out.append({
            "index": i,
            "due_s": due,
            "algo": entry["algo"],
            "params": list(entry.get("params", [])),
            "seed": rng.randrange(1, 1 << 62),
        })
    return out


def due_latency_ms(due_ns, send_ns, done_ns):
    """(latency from the due time, generator lag) in ms. Timing from the
    due time charges a stalled generator's wait to the requests it
    delayed."""
    return (done_ns - due_ns) / 1e6, (send_ns - due_ns) / 1e6


def backlog_growing(latencies_in_due_order, limit_ms):
    """True when the queue grows over the rung: the median latency of the
    last third exceeds twice the first third's, by more than a quarter of
    the latency limit. A stable queue keeps both thirds alike."""
    n = len(latencies_in_due_order)
    if n < 9:
        return False
    third = n // 3
    early = median(latencies_in_due_order[:third])
    late = median(latencies_in_due_order[-third:])
    return late > 2.0 * early and late - early > limit_ms / 4.0


def rung_ok(latencies_in_due_order, failures, limit_ms):
    """A rung meets the bar with zero failures, a tail within the limit and
    no growing backlog."""
    if failures or not latencies_in_due_order:
        return False
    _, tail_ms, _ = tail(latencies_in_due_order)
    return tail_ms <= limit_ms and not backlog_growing(
        latencies_in_due_order, limit_ms)


def covered_ns(intervals, lo, hi):
    """Length of the union of [start, end) intervals, clipped to [lo, hi)."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover. `spans` maps id -> {"start_ns", "end_ns", "parent"};
    a child is clipped to its parent. Returns id -> self ns."""
    children = {}
    for sid, s in spans.items():
        children.setdefault(s["parent"], []).append(sid)
    out = {}
    for sid, s in spans.items():
        kids = [(spans[c]["start_ns"], spans[c]["end_ns"])
                for c in children.get(sid, [])]
        out[sid] = (s["end_ns"] - s["start_ns"]) - covered_ns(
            kids, s["start_ns"], s["end_ns"])
    return out


def subtree_ns(spans, selfs, root):
    """Sum of self times over the subtree under `root` (root included)."""
    children = {}
    for sid, s in spans.items():
        children.setdefault(s["parent"], []).append(sid)
    total, stack = 0, [root]
    while stack:
        sid = stack.pop()
        total += selfs[sid]
        stack.extend(children.get(sid, []))
    return total
