"""Pure helpers of the live benchmark: request plans, percentiles,
span self times and the correctness gate.

Nothing here touches a socket, a process or a file, so the benchmark's
own tests (``test_pbcore.py``) exercise every rule the runs rely on.
"""

import bisect
import itertools
import math
import random
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: keys are zipfian over this many keys ("k000" is the hottest).
KEYS = 1000
ZIPF_S = 0.99
#: closed-loop slots (requests in flight), split evenly over connections.
SLOTS = 16
#: bounded query ETs read with this import limit (the paper's epsilon).
EPSILON = 4
#: requests planned per slot per second of run; about three times what
#: two cores reach (some 200 per slot per second), so a plan never runs out.
PLAN_RATE_PER_SLOT = 600

INC = "inc"
QUERY = "query"

#: workload name -> (replica control method, share of bounded queries).
WORKLOADS: Dict[str, Tuple[str, float]] = {
    "commu-write": ("commu", 0.0),
    "commu-read": ("commu", 0.9),
    "ordup-write": ("ordup", 0.1),
}

Plan = List[List[Tuple[str, str]]]
#: one traced call: (id, name, start, end, parent id, tid or None).
Span = Tuple[int, str, float, float, Optional[int], Optional[str]]


def build_plan(workload: str, seed: int, seconds: float) -> Plan:
    """The whole request sequence of a run, one list per slot.

    Each slot draws from its own generator seeded by ``(seed, slot)``,
    so a slot's requests do not depend on how fast the others ran.
    """
    _, query_share = WORKLOADS[workload]
    weights = list(
        itertools.accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(KEYS))
    )
    keys = ["k%03d" % r for r in range(KEYS)]
    length = int(math.ceil(seconds * PLAN_RATE_PER_SLOT))
    plan: Plan = []
    for slot in range(SLOTS):
        rng = random.Random("%d:%d" % (seed, slot))
        picked = rng.choices(keys, cum_weights=weights, k=length)
        plan.append(
            [
                (QUERY if rng.random() < query_share else INC, key)
                for key in picked
            ]
        )
    return plan


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile of ``samples`` and the number of
    samples strictly above it (0.0 and 0 for no samples)."""
    if not samples:
        return 0.0, 0
    ordered = sorted(samples)
    rank = max(1, int(math.ceil(q / 100.0 * len(ordered))))
    value = ordered[rank - 1]
    beyond = len(ordered) - bisect.bisect_right(ordered, value)
    return value, beyond


def covered_length(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    ):
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part of it that its children
    cover.  Overlapping children are counted once and children running
    past their parent are clipped, so a self time is never negative."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: max(
            0.0, (end - start) - covered_length(children[sid], start, end)
        )
        for sid, _, start, end, _, _ in spans
    }


def layer_table(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """Span name -> (calls, total self time in seconds)."""
    own = self_times(spans)
    table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for sid, name, *_ in spans:
        row = table[name]
        row[0] += 1
        row[1] += own[sid]
    return {name: (int(c), t) for name, (c, t) in table.items()}


def root_breakdown(
    spans: Sequence[Span], root: str
) -> Tuple[int, Dict[str, float]]:
    """Self time per span name summed over the subtrees under every
    ``root`` span, divided by the number of roots: the mean time one
    root call spends in each layer.  Returns (roots, name -> seconds)."""
    own = self_times(spans)
    parent_of = {span[0]: span[4] for span in spans}
    roots = {span[0] for span in spans if span[1] == root}

    def root_of(sid: Optional[int]) -> Optional[int]:
        while sid is not None and sid not in roots:
            sid = parent_of.get(sid)
        return sid

    totals: Dict[str, float] = defaultdict(float)
    for sid, name, *_ in spans:
        if root_of(sid) is not None:
            totals[name] += own[sid]
    n = len(roots)
    return n, {name: t / n for name, t in totals.items()} if n else {}


def check_gate(
    site_values: Sequence[Mapping[str, float]],
    acked: Mapping[str, int],
    sent: Mapping[str, int],
    any_failed: bool,
    inconsistencies: Iterable[float],
    epsilon: float = EPSILON,
) -> List[str]:
    """Problems with a run's outcome (empty when the run is correct).

    Every replica must hold the same values; each key must equal its
    acknowledged increments (with failures: acked <= value <= sent);
    and no bounded query may report inconsistency above ``epsilon``.
    """
    problems: List[str] = []
    first = site_values[0]
    for index, values in enumerate(site_values[1:], start=1):
        if dict(values) != dict(first):
            diff = sorted(
                k for k in set(first) | set(values)
                if first.get(k) != values.get(k)
            )
            problems.append(
                "site%d differs from site0 on %d keys, e.g. %s"
                % (index, len(diff), diff[:3])
            )
    for key in sorted(set(first) | set(acked) | set(sent)):
        value = first.get(key, 0) or 0
        lo, hi = acked.get(key, 0), sent.get(key, 0)
        if any_failed:
            ok = lo <= value <= hi
        else:
            ok = value == lo
        if not ok:
            problems.append(
                "key %s holds %r, but %d increments were acked and %d sent"
                % (key, value, lo, hi)
            )
    over = [i for i in inconsistencies if i > epsilon]
    if over:
        problems.append(
            "%d queries reported inconsistency above %s (max %s)"
            % (len(over), epsilon, max(over))
        )
    return problems
