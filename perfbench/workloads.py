"""The three workloads: seeded inputs, timed operations and output checks.

Every input is drawn from the workload seed.  Each check compares a
library answer with something the library did not compute: the CLI's
own exit code and verdict plus cross-pass determinism (``verify``), the
closed form of the planar even-weight shift (``planar``), and the column
rule for integral non-degeneracy plus independent span and polynomial
arithmetic (``algebra``).  An operation that raises where no error is
expected, or whose output fails a check, counts as failed.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median

from starshift import cli, codes, gf2, laurent, rigidity, windows
from starshift.errors import DegenerateCodeError
from starshift.gf2 import F2Matrix
from starshift.laurent import LaurentPoly, LinearFormIdeal
from starshift.windows import WindowConfig

MODULES = {
    "gf2": gf2,
    "windows": windows,
    "codes": codes,
    "laurent": laurent,
    "rigidity": rigidity,
    "cli": cli,
}

# The caches a fresh `starshift` process finds empty.  Captured before any
# tracing wrapper replaces the module attributes.
CACHED = {
    "codes.is_integrally_nondegenerate": codes.is_integrally_nondegenerate,
    "codes.codewords_by_weight": codes.codewords_by_weight,
    "rigidity.exhaustive_toy_report": rigidity.exhaustive_toy_report,
}


def typical(logs: list["PassLog"], kind: str, period: int, field: str) -> list[float]:
    """Per-instance median time over every repeat in the given passes.

    Passes, and rounds within a pass, repeat the same operations in the
    same order, so the value at index i of the concatenated timings is
    instance ``i % period``.  ``field`` is "times" or "measured".
    """
    flat = [t for log in logs for t in getattr(log, field)[kind]]
    return [median(flat[i::period]) for i in range(period)]


# Probe time at the host's fast state, where the baseline was measured.
PROBE_REF_S = 0.00018


def probe() -> float:
    """Time a fixed loop of the benchmark's own code: a gauge of machine speed."""
    # creates no container objects, so no garbage collection runs inside it
    start = time.perf_counter()
    acc, table, big = 0, {}, (1 << 4000) - 1
    for i in range(800):
        acc += (i * i) % 7
        table[i & 255] = acc
        big ^= i << (i & 1023)
    return time.perf_counter() - start


class Gauge:
    """Samples machine speed while operations run, from a SIGALRM handler.

    A shared host flips between speeds that differ by up to 1.8x, every few
    seconds, with the load of other tenants.  Every tick times the probe
    loop, and an operation's time is scaled by ``PROBE_REF_S`` over the mean
    probe time during it, or over the latest probe for an operation shorter
    than a tick.  The probe never changes, so a change to starshift still
    moves a scaled time one for one.  The ticks add about 0.4 % to the
    measured time.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        self.samples = [probe()]

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int) -> float:
        """Reference-speed factor for an operation that began at ``mark``."""
        during = self.samples[mark:]
        return PROBE_REF_S / (statistics.fmean(during) if during else self.samples[mark - 1])


class PassLog:
    """Timings, outcomes and cache counts of one pass over a workload."""

    def __init__(self, gauge: Gauge, tracer=None):
        self.gauge = gauge
        self.tracer = tracer
        # times scaled to reference speed, and as measured
        self.times: dict[str, list[float]] = defaultdict(list)
        self.measured: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[tuple[int, str, str]] = []
        self.cache_counts: Counter = Counter()
        self.extra: Counter = Counter()

    def op(self, kind: str, fn, *args, expect: tuple = (), **kwargs):
        """Time one operation; returns ``(result, expected_error)``.

        An exception listed in ``expect`` is an answer to be checked; any
        other exception fails the operation.
        """
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id += 1
        mark = self.gauge.mark()
        start = time.perf_counter()
        try:
            result, error = fn(*args, **kwargs), None
        except expect as exc:
            result, error = None, exc
        except Exception as exc:  # a failed op is counted, the run goes on
            result, error = None, exc
            self.fail(kind, f"raised {exc!r}")
        elapsed = time.perf_counter() - start
        self.measured[kind].append(elapsed)
        self.times[kind].append(elapsed * self.gauge.scale(mark))
        return result, error

    def check(self, ok: bool, kind: str, message: str) -> bool:
        """Record a failed output check against the latest operation."""
        if not ok:
            self.fail(kind, message)
        return ok

    def fail(self, kind: str, message: str) -> None:
        self.failures.append((self.attempted, kind, message))

    @property
    def failed(self) -> int:
        return len({op for op, _, _ in self.failures})

    def wall(self, field: str) -> float:
        return sum(sum(ts) for ts in getattr(self, field).values())

    def clear_caches(self) -> None:
        """Empty every library cache, banking its hit and miss counts."""
        for name, fn in CACHED.items():
            info = fn.cache_info()
            self.cache_counts[name + ".cache_hits"] += info.hits
            self.cache_counts[name + ".cache_misses"] += info.misses
            fn.cache_clear()

    def fresh(self, name: str) -> bool:
        """Whether the cache computed exactly once and replayed nothing since clearing."""
        info = CACHED[name].cache_info()
        return info.misses == 1 and info.hits == 0


# --------------------------------------------------------------- verify


def _strip_millis(node):
    if isinstance(node, dict):
        return {k: _strip_millis(v) for k, v in node.items() if k != "millis"}
    if isinstance(node, list):
        return [_strip_millis(v) for v in node]
    return node


class Verify:
    """`starshift verify` in-process, with the exit code and JSON report checked."""

    # (role, d, box, samples) in pass order; roles map onto the end-to-end
    # metric slots.  The short d=8 run repeats between the long ones so that
    # its median is taken over moments spread across the pass.
    FULL = [
        ("op", 8, 2, 100), ("cold", 12, 2, 100), ("op", 8, 2, 100),
        ("cold2", 8, 3, 100), ("op", 8, 2, 100), ("op2", 10, 2, 100), ("op", 8, 2, 100),
    ]
    SMALL = [("op", 8, 2, 10), ("cold", 9, 2, 10), ("op", 8, 2, 10), ("cold2", 9, 2, 20), ("op2", 8, 2, 20)]
    # two passes at least: the second must reproduce the first byte for byte
    min_passes = 2

    def __init__(self, seed: int, small: bool, plant: bool, out_dir: Path):
        self.seed = seed
        self.configs = self.SMALL if small else self.FULL
        self.plant = plant
        self.out_dir = out_dir
        self.reference: dict[str, str] = {}

    def argv(self, d: int, box: int, samples: int, path: Path) -> list[str]:
        return [
            "verify", "-d", str(d), "--box", str(box), "--samples", str(samples),
            "--seed", str(self.seed), "--json", "-o", str(path),
        ]

    def run_pass(self, log: PassLog) -> None:
        for role, d, box, samples in self.configs:
            path = self.out_dir / f"verify-d{d}-b{box}-s{samples}.json"
            path.unlink(missing_ok=True)
            log.clear_caches()
            rc, _ = log.op(role, cli.main, self.argv(d, box, samples, path))
            if not log.check(rc == 0, role, f"verify -d {d} --box {box} exited {rc}"):
                continue
            report = json.loads(path.read_text(encoding="utf-8"))
            if self.plant and not self.reference:
                report["passed"] = not report["passed"]
            log.check(report["passed"] is True, role, f"verify -d {d} --box {box} did not pass")
            log.check(
                log.fresh("rigidity.exhaustive_toy_report"),
                role, "toy sweep replayed from cache instead of measured",
            )
            for c in report["checks"]:
                log.extra["rigidity.check." + c["name"].replace(":", ".") + ".ms"] += c["millis"]
            stripped = json.dumps(_strip_millis(report), sort_keys=True)
            first = self.reference.setdefault(role, stripped)
            log.check(stripped == first, role, "report differs from the first pass with the same seed")

    def metrics(self, logs: list[PassLog], field: str) -> tuple[dict, dict]:
        runs = {role: [t for log in logs for t in getattr(log, field)[role]] for role, *_ in self.configs}
        slots = {
            "cold_s": median(runs["cold"]),
            "cold2_s": median(runs["cold2"]),
            "op_ms": 1000.0 * median(runs["op"]),
            "op2_ms": 1000.0 * median(runs["op2"]),
        }
        named = {
            "verify_d12_s": (runs["cold"], "s"),
            "verify_box3_s": (runs["cold2"], "s"),
            "verify_d8_s": (runs["op"], "s"),
            "verify_d10_s": (runs["op2"], "s"),
        }
        return slots, named


# --------------------------------------------------------------- planar


def even_weight_plane_ok(bits: int, n: int) -> bool:
    """Closed-form membership for the even-weight code of length 2 on [0, n)^2.

    Each anchor (a, b) with a, b <= n - 2 requires x(a+1, b) == x(a, b+1).
    Site (a, b) is bit a*n + b, so the pair is bit i + n - 1 against bit
    i for i = a*n + b + 1: one shifted XOR under a mask.  Solutions are
    the configurations constant on every anti-diagonal, 2n - 1 free bits.
    """
    row = ((1 << (n - 1)) - 1) << 1  # c = 1 .. n-1 within one row
    mask = 0
    for a in range(n - 1):
        mask |= row << (a * n)
    return ((bits >> (n - 1)) ^ bits) & mask == 0


class Planar:
    """One large planar window space used two ways: draws write, checks read."""

    min_passes = 1
    # the draw-and-check stream repeats over the same seeds within a pass
    ROUNDS = 3
    # each round draws every seed this many times before checking the draws
    DRAW_REPEATS = 5

    def __init__(self, seed: int, small: bool, plant: bool, out_dir: Path):
        self.n = 24 if small else 150
        draws = 8 if small else 40
        self.plant = plant
        self.box = windows.cube(2, self.n)
        self.code = codes.even_weight_code(2)
        rng = random.Random(seed)
        self.first_seed = rng.getrandbits(32)
        self.draw_seeds = [rng.getrandbits(32) for _ in range(draws)]
        # One flipped site per draw, one draw per stratum of the site
        # order: a rejecting scan stops at a depth set by the site, so
        # stratifying keeps the check cost of a pass steady across seeds.
        # The two corner sites lie in no stencil and are never flipped.
        sites = self.n * self.n
        strata = list(range(draws))
        rng.shuffle(strata)
        self.flips = []
        for k in strata:
            lo, hi = k * sites // draws, (k + 1) * sites // draws
            pos = rng.randrange(lo, hi)
            while pos in (0, sites - 1):
                pos = rng.randrange(lo, hi)
            self.flips.append(pos)

    def build(self):
        return windows.build_window_space(self.box, self.code, max_sites=self.n * self.n + 500)

    def first_sample(self):
        space = self.build()
        return space, windows.sample(space, self.first_seed)

    def run_pass(self, log: PassLog) -> None:
        n = self.n
        result, _ = log.op("first_sample", self.first_sample)
        if result is None:
            return
        space, x = result
        log.check(windows.log2_count(space) == 2 * n - 1, "first_sample", "log2_count is not 2N-1")
        log.check(even_weight_plane_ok(x.bits, n), "first_sample", "first draw breaks the rule")
        # further builds alternate with stream rounds, spreading the repeats
        # whose median is reported across the pass
        for _ in range(self.ROUNDS):
            log.op("build", self.build)
            self.stream(log, space)

    def stream(self, log: PassLog, space) -> None:
        n = self.n
        draws = [log.op("draw", windows.sample, space, seed)[0] for seed in self.draw_seeds]
        for _ in range(self.DRAW_REPEATS - 1):
            again = [log.op("draw", windows.sample, space, seed)[0] for seed in self.draw_seeds]
            log.check(again == draws, "draw", "a seeded draw changed between repeats")
        for k, (x, flip) in enumerate(zip(draws, self.flips)):
            if x is None:
                continue
            if self.plant and k == 0:
                x = WindowConfig(self.box, x.bits ^ (1 << flip))
            log.check(even_weight_plane_ok(x.bits, n), "draw", "draw breaks the even-weight rule")
            ok, _ = log.op("check", windows.contains, space, x)
            log.check(ok is True, "check", "contains rejected a valid draw")
            bad = WindowConfig(self.box, x.bits ^ (1 << flip))
            log.check(not even_weight_plane_ok(bad.bits, n), "check", "corruption left a valid draw")
            ok, _ = log.op("check", windows.contains, space, bad)
            log.check(ok is False, "check", "contains accepted a corrupted draw")

    def metrics(self, logs: list[PassLog], field: str) -> tuple[dict, dict]:
        first = [t for log in logs for t in getattr(log, field)["first_sample"]]
        builds = [t for log in logs for t in getattr(log, field)["build"]]
        period = len(self.draw_seeds)
        draws = typical(logs, "draw", period, field)
        # a valid and a corrupted check of the same draw, averaged
        checks = typical(logs, "check", 2 * period, field)
        pairs = [(a + b) / 2 for a, b in zip(checks[0::2], checks[1::2])]
        slots = {
            "cold_s": median(first),
            "cold2_s": median(builds),
            "op_ms": 1000.0 * median(draws),
            "op2_ms": 1000.0 * median(pairs),
        }
        named = {
            "first_sample_s": (first, "s"),
            "build_s": (builds, "s"),
            "draws_per_s": ([1.0 / t for t in draws], "1/s"),
            "checks_per_s": ([1.0 / t for t in pairs], "1/s"),
        }
        return slots, named


# -------------------------------------------------------------- algebra


class SpanOracle:
    """Minimal GF(2) echelon over bit-packed rows, for span membership."""

    def __init__(self, rows):
        self.pivots: dict[int, int] = {}
        for r in rows:
            r = self.reduce(r)
            if r:
                self.pivots[r.bit_length() - 1] = r

    def reduce(self, v: int) -> int:
        while v:
            p = self.pivots.get(v.bit_length() - 1)
            if p is None:
                return v
            v ^= p
        return 0

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _bits_of(v: int):
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


class RandomCode:
    """A seeded code given by generator columns, with its column-rule facts.

    Integral non-degeneracy holds exactly when the generator columns are
    nonzero and pairwise distinct; the integer kernel is the vectors
    summing to zero on each class of equal nonzero columns.
    """

    def __init__(self, rng: random.Random, k: int, n: int, defect: str | None):
        while True:
            # bit 0 of every column set: generator row 0 is the all-ones word
            cols = [1 | (rng.getrandbits(k - 1) << 1) for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            if defect == "duplicate":
                cols[j] = cols[i]
            elif defect == "zero":
                cols[j] = 0
            elif len(set(cols)) < n:
                continue
            rows = [sum(((c >> r) & 1) << q for q, c in enumerate(cols)) for r in range(k)]
            self.span = SpanOracle(rows)
            if self.span.rank == k:
                break
        self.n = n
        self.rows = rows
        self.code = codes.code_from_generators(F2Matrix(tuple(rows), n))
        self.nondegenerate = 0 not in cols and len(set(cols)) == n
        self.has_all_ones = self.span.reduce((1 << n) - 1) == 0
        self.classes = defaultdict(list)
        for q, c in enumerate(cols):
            if c:
                self.classes[c].append(q)
        self.words = None
        if k <= 16:
            words = [0]
            for r in rows:
                words += [w ^ r for w in words]
            self.words = words

    def annihilates(self, m) -> bool:
        """Whether every codeword has support sum 0 against ``m``."""
        return all(sum(m[q] for q in cls) == 0 for cls in self.classes.values())

    def separates(self, m, word: int) -> bool:
        return self.span.reduce(word) == 0 and sum(m[q] for q in _bits_of(word)) != 0


def _cleared_degree(terms) -> int:
    if not terms:
        return 0
    d = len(next(iter(terms)))
    low = [min(t[i] for t in terms) for i in range(d)]
    return max(sum(e - m for e, m in zip(t, low)) for t in terms)


def _form_times(terms, mono, row: int) -> set:
    """Terms of mono * (sum of u_j over the support of ``row``), over GF(2)."""
    out = set(terms)
    for j in _bits_of(row):
        out ^= {tuple(e + (1 if i == j else 0) for i, e in enumerate(mono))}
    return out


def c4_query(rng: random.Random, member: bool) -> tuple[LinearFormIdeal, LaurentPoly]:
    """A query shaped like acceptance criterion C4: arity 1..4, cleared degree <= 6."""
    d = rng.randint(1, 4)
    rows = [r for r in (rng.getrandbits(d) for _ in range(rng.randint(1, min(3, d)))) if r]
    rows = rows or [1 | (1 << (d - 1))]
    ideal = LinearFormIdeal(d, codes.code_from_generators(F2Matrix(tuple(rows), d)))
    while True:
        terms: set = set()
        if member:
            for _ in range(rng.randint(1, 2)):
                mono = tuple(rng.randint(-1, 1) for _ in range(d))
                terms = _form_times(terms, mono, rng.choice(rows))
        else:
            for _ in range(rng.randint(1, 4)):
                terms ^= {tuple(rng.randint(-2, 2) for _ in range(d))}
        if _cleared_degree(terms) <= 6:
            return ideal, LaurentPoly(d, frozenset(terms))


class Algebra:
    """Non-degeneracy from cold caches, then witness and ideal-membership streams."""

    # (dimension, length, defect); the full sweep that degenerate codes
    # need grows as 2^dim * length^2, so they stay at dimension <= 11
    FULL = [(14, 18, None), (18, 22, None), (20, 24, None), (9, 13, "duplicate"), (11, 14, "zero")]
    SMALL = [(8, 12, None), (10, 14, None), (6, 9, "duplicate"), (7, 10, "zero")]
    min_passes = 1
    # witness rounds per code, run back to back while its caches are warm
    ROUNDS = 4

    def __init__(self, seed: int, small: bool, plant: bool, out_dir: Path):
        rng = random.Random(seed)
        self.plant = plant
        self.codes = [RandomCode(rng, k, n, defect) for k, n, defect in (self.SMALL if small else self.FULL)]
        per_code = 40 if small else 300
        self.vectors = [
            [tuple(rng.randint(-(10**6), 10**6) for _ in range(rc.n)) for _ in range(per_code)]
            for rc in self.codes
        ]
        n_queries = 100 if small else 1000
        self.queries = [(c4_query(rng, k % 2 == 0), k % 2 == 0) for k in range(n_queries)]

    @staticmethod
    def query(ideal: LinearFormIdeal, p: LaurentPoly):
        member = laurent.ideal_contains(ideal, p)
        cofactors = laurent.membership_cofactors(ideal, p)
        certified = cofactors is not None and laurent.verify_cofactors(ideal, p, cofactors)
        return member, cofactors, certified

    def run_pass(self, log: PassLog) -> None:
        for idx, (rc, vectors) in enumerate(zip(self.codes, self.vectors)):
            kind = "nondeg" if rc.nondegenerate else "nondeg_degenerate"
            log.clear_caches()
            cert, _ = log.op(kind, codes.is_integrally_nondegenerate, rc.code)
            if cert is None:
                continue
            verdict = cert.verdict != (self.plant and idx == 0)
            log.check(verdict == rc.nondegenerate, kind, f"verdict {verdict} contradicts the column rule")
            log.check(log.fresh("codes.is_integrally_nondegenerate"), kind, "verdict replayed from cache")
            if not cert.verdict:
                k = cert.kernel_witness
                ok = k is not None and any(k) and rc.annihilates(k)
                if ok and rc.words is not None:
                    ok = all(sum(k[q] for q in _bits_of(w)) == 0 for w in rc.words)
                log.check(ok, kind, "kernel witness is not annihilated by every codeword")
                w, err = log.op("kernel_witness", codes.nondegeneracy_witness, rc.code, k, expect=(ValueError,))
                self.check_witness(log, rc, False, k, w, err)
            for _ in range(self.ROUNDS):
                for j, m in enumerate(vectors):
                    mixing = j % 2 == 0
                    fn = laurent.mixing_certificate if mixing else codes.nondegeneracy_witness
                    w, err = log.op(f"witness{idx}", fn, rc.code, m, expect=(ValueError,))
                    self.check_witness(log, rc, mixing, m, w, err)
            # a membership round after every code spreads its repeats over the pass
            self.query_round(log)

    def query_round(self, log: PassLog) -> None:
        for (ideal, p), constructed in self.queries:
            result, _ = log.op("query", self.query, ideal, p)
            if result is None:
                continue
            member, cofactors, certified = result
            log.check(member == (cofactors is not None), "query", "ideal_contains disagrees with the cofactors")
            log.check(member or not constructed, "query", "a constructed member was rejected")
            if cofactors is not None:
                expanded: set = set()
                for vec, cof in cofactors:
                    for t in cof.terms:
                        expanded = _form_times(expanded, t, vec.bits)
                log.check(certified and expanded == set(p.terms), "query", "cofactors do not re-expand")

    def check_witness(self, log, rc: RandomCode, mixing: bool, m, w, err) -> None:
        if mixing and not rc.has_all_ones:
            expected = ValueError
        elif rc.annihilates(m) or (mixing and not rc.nondegenerate):
            expected = DegenerateCodeError
        else:
            expected = None
        if expected is None:
            ok = w is not None and w.length == rc.n and rc.separates(m, w.bits)
            log.check(ok, "witness", "witness is not a separating codeword")
        else:
            log.check(type(err) is expected, "witness", f"expected {expected.__name__}, got {err!r}")

    def metrics(self, logs: list[PassLog], field: str) -> tuple[dict, dict]:
        first = logs[0].times
        nondeg = typical(logs, "nondeg", len(first["nondeg"]), field)
        degenerate = typical(logs, "nondeg_degenerate", len(first["nondeg_degenerate"]), field)
        witness = [
            t for idx, vectors in enumerate(self.vectors) for t in typical(logs, f"witness{idx}", len(vectors), field)
        ]
        query = typical(logs, "query", len(self.queries), field)
        slots = {
            "cold_s": sum(nondeg),
            "cold2_s": sum(degenerate),
            "op_ms": 1000.0 * median(witness),
            "op2_ms": 1000.0 * median(query),
        }
        named = {
            "nondeg_s": (nondeg + degenerate, "s"),
            "nondeg_degenerate_s": (degenerate, "s"),
            "witnesses_per_s": ([1.0 / t for t in witness], "1/s"),
            "queries_per_s": ([1.0 / t for t in query], "1/s"),
        }
        return slots, named


WORKLOADS = {"verify": Verify, "planar": Planar, "algebra": Algebra}
