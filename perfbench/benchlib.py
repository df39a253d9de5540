"""Pure helpers of the end-to-end benchmark (perfbench/run.py).

Statistics, the serve request generator and the output checks live here,
free of process handling, so perfbench/test_benchlib.py can test them.
"""

import bisect
import hashlib
import math
import random
import statistics


# ------------------------------------------------------------ statistics

def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    return tuple(statistics.quantiles(values, n=4))


def iqr_spread(values):
    """Distance between the first and third quartile, as a share of the
    median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return 0.0 if q2 == 0 else (q3 - q1) / q2


def max_supported_percentile(n, tail_samples=10):
    """Highest percentile (0-100) that has at least `tail_samples` samples
    beyond it among n samples, or None when n is too small."""
    if n < tail_samples:
        return None
    return 100.0 * (1.0 - tail_samples / n)


def percentile(values, p, tail_samples=10):
    """The p-th percentile (nearest rank). Raises ValueError unless at
    least `tail_samples` samples lie beyond it: p99 needs 1000 samples."""
    n = len(values)
    supported = max_supported_percentile(n, tail_samples)
    if supported is None or p > supported + 1e-9:
        raise ValueError("p%g needs at least %d samples beyond it; have %d"
                         % (p, tail_samples, n))
    s = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return s[rank - 1]


# ------------------------------------------------------------ rate ladder

def ladder_search(rungs, passes):
    """Highest rung, walking up in order, before the first failing one.

    `passes(rate)` runs one rung and returns True when its p99 met the
    limit without a growing backlog. Rungs above the first failure are
    not run. Returns (best_rate or 0, [(rate, passed), ...])."""
    best = 0
    tried = []
    for rate in rungs:
        ok = bool(passes(rate))
        tried.append((rate, ok))
        if not ok:
            break
        best = rate
    return best, tried


def backlog_grows(lags_ms, slack_ms):
    """True when the generator or the server fell behind progressively:
    the last quarter's median lag exceeds the first quarter's by more than
    `slack_ms`. `lags_ms` are in schedule order."""
    n = len(lags_ms)
    if n < 8:
        return False
    q = n // 4
    return median(lags_ms[-q:]) - median(lags_ms[:q]) > slack_ms


# ------------------------------------------------------------ output checks

def file_digest(path, chunk=1 << 20):
    """SHA-256 hex digest of a file."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(chunk), b""):
            h.update(block)
    return h.hexdigest()


def check_against(reference, observed):
    """Names of the keys of `reference` whose value differs in `observed`
    (missing counts as different). Empty list = match."""
    return sorted(k for k, v in reference.items() if observed.get(k) != v)


# ------------------------------------------------------------ serve requests

def parse_catalog_domains(text):
    """{bus: [signal names in catalog order]} from an .ivsdb catalog."""
    domains = {}
    bus = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("message "):
            bus = None
            for field in stripped.split():
                if field.startswith("bus="):
                    bus = field[4:]
            domains.setdefault(bus, [])
        elif stripped.startswith("signal ") and bus is not None:
            domains[bus].append(stripped.split()[1])
    return domains


def signal_groups(domains, per_domain, rng, min_size=10, max_size=40):
    """Seeded per-domain signal groups (the paper's per-domain U_comb):
    `per_domain` groups per bus with sizes spread evenly over
    min_size..max_size (capped by the bus); which signals join a group
    is drawn from `rng`."""
    groups = []
    for bus in sorted(domains):
        names = domains[bus]
        if not names:
            continue
        hi = min(max_size, len(names))
        lo = min(min_size, hi)
        for k in range(per_domain):
            size = lo + (hi - lo) * k // max(1, per_domain - 1)
            groups.append((bus, sorted(rng.sample(names, size))))
    return groups


class Zipf:
    """Seeded Zipf(s) sampler over ranks 0..n-1 via the inverse CDF."""

    def __init__(self, n, s, rng):
        weights = [1.0 / (k + 1) ** s for k in range(n)]
        total = sum(weights)
        acc = 0.0
        self.cdf = []
        for w in weights:
            acc += w / total
            self.cdf.append(acc)
        self.rng = rng

    def sample(self):
        i = bisect.bisect_left(self.cdf, self.rng.random())
        return min(i, len(self.cdf) - 1)


# The op mix of bench/bench_serve.cpp (6 of 8 state, 1 extract, 1 stats),
# with its stats probe replaced by mine: the benchmark reads stats
# itself, and mine is the third user-facing op.
OP_MIX = (("state", 0.75), ("extract", 0.125), ("mine", 0.125))
# Unverified assumptions (no measured traffic exists; see README.md):
# Zipf exponent of (trace, group) popularity, and the share of state /
# extract requests that ask for the whole journey instead of a slice.
ZIPF_S = 1.0
FULL_JOURNEY_FRAC = 0.2


def make_schedule(seed, stream, traces, groups, rate_rps, count):
    """Open-loop request schedule, a pure function of its arguments.

    traces: [(name, min_t_ns, max_t_ns)]; groups: [(bus, [signals])].
    Popularity is Zipf over every (trace, group) pair. The sequence of
    (pair, op) depends on `stream` only, not on `seed`: it fixes the
    cache hit/miss pattern, so CPU per request does not swing with the
    seed. The seed draws the time slices (and, through the callers, the
    trace content and group membership). Requests are due every
    1/rate_rps seconds. Returns dicts with keys index, due_us, op,
    trace, min_t, max_t, signals, top_k (min_t / max_t are None for an
    unsliced request)."""
    items = [(t, g) for t in range(len(traces)) for g in range(len(groups))]
    shape = random.Random(stream)
    shape.shuffle(items)
    zipf = Zipf(len(items), ZIPF_S, shape)
    rng = random.Random(seed * 1000 + stream)
    ops = [name for name, _ in OP_MIX]
    cum = []
    acc = 0.0
    for _, share in OP_MIX:
        acc += share
        cum.append(acc)
    out = []
    for i in range(count):
        t, g = items[zipf.sample()]
        name, lo, hi = traces[t]
        op = ops[min(bisect.bisect_left(cum, shape.random() * acc),
                     len(ops) - 1)]
        min_t = max_t = None
        if op != "mine" and rng.random() >= FULL_JOURNEY_FRAC:
            span = hi - lo
            width = int(span * rng.uniform(0.1, 0.5))
            start = lo + int((span - width) * rng.random())
            min_t, max_t = start, start + width
        out.append({
            "index": i,
            "due_us": int(round(i * 1e6 / rate_rps)),
            "op": op,
            "trace": name,
            "min_t": min_t,
            "max_t": max_t,
            "signals": groups[g][1],
            "top_k": 10,
        })
    return out


def schedule_line(req):
    """One tab-separated schedule line as perfbench_probe reads it."""
    def bound(v):
        return "-" if v is None else str(v)
    return "\t".join([str(req["index"]), str(req["due_us"]), req["op"],
                      req["trace"], bound(req["min_t"]), bound(req["max_t"]),
                      ",".join(req["signals"]), str(req["top_k"])])


def ok_or_inf(rows, value):
    """value(row) for each answered request, +inf for a failed or refused
    one, so a percentile over every attempted request counts failures as
    misses and always has as many samples as requests were sent."""
    return [value(r) if r["ok"] else math.inf for r in rows]


def latencies_ms(rows):
    """Latency of each request from its due time (loadgen rows)."""
    return ok_or_inf(rows, lambda r: (r["done_ns"] - r["due_ns"]) / 1e6)


def sample_indices(count, k, seed):
    """Seeded sample of k request indices out of count, sorted."""
    return sorted(random.Random(seed).sample(range(count), min(k, count)))
