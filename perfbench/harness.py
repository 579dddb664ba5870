"""Drive ``sl2real.cli.main`` in-process and time every item from outside.

stdin and stdout are swapped for in-memory streams that stamp the time
each line is read and each line is written.  The CLI handles one stdin
line at a time, so a line is read only after the previous result was
written: a closed loop with one caller.

Times are scaled to a reference machine speed.  Other tenants of a
shared machine slow every process on it down for seconds at a time (by
up to 1.9x on a 2-core VM); a fixed probe timed between items tracks
that, and each item's time is multiplied by ``PROBE_REF_S / probe``,
with probe a low quantile of the probes around it.
"""

from __future__ import annotations

import gc
import io
import json
import math
import statistics
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from time import perf_counter

import checks

PROBE_EVERY_S = 0.05
# An item's scale comes from the probes that ended within this many
# seconds of its end (at least SCALE_MIN_PROBES of the nearest ones):
# their SCALE_QUANTILE, not their median.  The machine flips between a
# fast and a slow state (probes of 1.7 and 3.0 ms) many times a second,
# and each item keeps its lowest time over the passes, mostly one from
# the fast state; a low quantile of the probes measures that state too.
# Over seven 20-s atlas runs (probes every 0.1 s, a 1-s window) it cut
# the spread of item_p50_ms from 1.36x (median of the probes) to 1.05x.
SCALE_WINDOW_S = 0.5
SCALE_MIN_PROBES = 5
SCALE_QUANTILE = 0.2
# What one probe takes in the fast state of a 2-core x86-64 VM
# (Python 3.11); scaled times are times at that speed.
PROBE_REF_S = 0.0017


def spin(loops: int) -> float:
    """Seconds for a fixed pure-Python loop."""
    t0 = perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


@dataclass(frozen=True)
class _Pair:
    """A validated frozen value type, like the program's matrices."""

    a: int
    b: int

    def __post_init__(self):
        for x in (self.a, self.b):
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"not an int: {x!r}")

    def __matmul__(self, other):
        return _Pair(self.a * other.a + self.b, self.a * other.b - self.b)


PROBE_STEPS = 200


def probe_work() -> list:
    """A fixed mix of what the CLI spends its time on: validated frozen
    objects, big-int arithmetic, JSON and float formatting.  It slows
    down with the workloads under other tenants' load more closely than
    a tight integer loop does."""
    big = 7**300
    out = []
    p = _Pair(1, 2)
    for i in range(PROBE_STEPS):
        p = p @ _Pair(i % 9 + 1, i % 5)
        if p.a > 10**40:
            p = _Pair(p.a % 10_007, p.b % 10_007)
        big = (big * 3 + i) % 10**250
        out.append(json.dumps({"kind": "hyperbolic", "cycle": [str(i), str(i % 7)], "sign": 1}))
        out.append("%.4f,%.4f" % (i / 7.0, i * 0.37))
    return out


class SpeedProbe:
    """Times the probe between items, at most every PROBE_EVERY_S."""

    def __init__(self):
        self.events = []  # (start, end) of each probe
        self._next = 0.0

    def tick(self) -> None:
        start = perf_counter()
        if start < self._next:
            return
        probe_work()
        end = perf_counter()
        self.events.append((start, end))
        self._next = end + PROBE_EVERY_S

    def inside(self, starts, ends) -> list:
        """Per interval (start, end], in order: the probe time inside it."""
        events, k = self.events, 0
        spent = []
        for s, e in zip(starts, ends):
            inside = 0.0
            while k < len(events) and events[k][1] <= e:
                if events[k][0] >= s:
                    inside += events[k][1] - events[k][0]
                k += 1
            spent.append(inside)
        return spent

    def scales(self, times) -> list:
        """Per time: PROBE_REF_S over the low quantile of the probes near it."""
        ends = [e for _, e in self.events]
        took = [e - s for s, e in self.events]
        cache = {}
        out = []
        for t in times:
            lo = bisect_left(ends, t - SCALE_WINDOW_S)
            hi = bisect_right(ends, t + SCALE_WINDOW_S)
            if hi - lo < SCALE_MIN_PROBES:
                mid = bisect_left(ends, t)
                lo = max(0, min(mid - SCALE_MIN_PROBES // 2, len(ends) - SCALE_MIN_PROBES))
                hi = lo + SCALE_MIN_PROBES
            if (lo, hi) not in cache:
                near = sorted(took[lo:hi])
                cache[lo, hi] = PROBE_REF_S / near[int(len(near) * SCALE_QUANTILE)]
            out.append(cache[lo, hi])
        return out


class LineReader:
    """stdin stand-in that stamps the time each line is handed out."""

    def __init__(self, lines, probe):
        self._lines = iter(lines)
        self._probe = probe
        self.times = []

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._lines)
        self._probe.tick()
        self.times.append(perf_counter())
        return line


class LineWriter:
    """stdout stand-in that keeps each line and stamps when it ended."""

    def __init__(self, probe):
        self._probe = probe
        self.lines = []
        self.times = []
        self._parts = []

    def write(self, s):
        if s.endswith("\n"):
            now = perf_counter()
            self._parts.append(s[:-1])
            self.lines.append("".join(self._parts))
            self._parts.clear()
            self.times.append(now)
            self._probe.tick()
        else:
            self._parts.append(s)
        return len(s)

    def flush(self):
        pass


@dataclass
class CallResult:
    lines: list
    latencies: list  # per item, unscaled: read to write, or as ``Call.timing`` says
    spans: list  # per item, unscaled, without probes: previous write (or call start) to its write
    ends: list  # per item: when it was written
    busy_s: float  # without probes
    failed: int  # items with no output (stream aborted, crash, bad exit)
    error: str = ""


def run_call(main, call, probe=None) -> CallResult:
    probe = probe or SpeedProbe()
    probe.tick()
    reader = LineReader(call.stdin or (), probe)
    writer = LineWriter(probe)
    err = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = reader, writer, err
    error = ""
    t0 = perf_counter()
    try:
        code = main(list(call.argv))
    except Exception as exc:  # a crash of the program under test fails its items
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        t1 = perf_counter()
        sys.stdin, sys.stdout, sys.stderr = saved
    if code != 0 and not error:
        error = f"exit {code}: {err.getvalue().strip()[:300]}"
    ends = writer.times
    if call.timing == "whole":
        ends = [t1] if writer.lines else []
    starts = [t0] + ends[:-1]
    spans = [e - s - p for s, e, p in zip(starts, ends, probe.inside(starts, ends))]
    latencies = spans
    if call.timing == "lines":
        latencies = [w - r for r, w in zip(reader.times, writer.times)]
    done = min(len(spans), call.size)
    failed = max(call.size - done, 1 if error else 0)
    n = call.size - failed
    busy = t1 - t0 - sum(e - s for s, e in probe.events if s >= t0 and e <= t1)
    return CallResult(writer.lines, latencies[:n], spans[:n], ends[:n], busy, failed, error)


def _record_problems(check, item, line) -> list:
    try:
        rec = json.loads(line)
        return getattr(checks, "check_" + check)(item, rec)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable record: {type(exc).__name__}: {exc}"]


def check_call(call, res: CallResult) -> list:
    """(index, problem) pairs for one call's output, checked in full;
    index -1 marks a problem with the output as a whole."""
    problems = []
    if call.check == "svg":
        if res.lines:
            problems += [(0, p) for p in checks.check_svg(res.lines[0], int(call.argv[2]))]
    elif call.check == "atlas":
        problems += [(-1, p) for p in checks.check_atlas_output(res.lines, int(call.argv[-1]))]
        for i, line in enumerate(res.lines):
            problems += [(i, p) for p in _record_problems("atlas_record", None, line)]
    else:
        for i, (item, line) in enumerate(zip(call.items, res.lines)):
            problems += [(i, p) for p in _record_problems(call.check, item, line)]
    return problems


@dataclass
class Measurement:
    """Passes over one workload.  ``latency`` and ``span`` hold, per item,
    the lowest scaled time over all passes: the probe corrects most of a
    slowdown, and the lowest of several passes filters out the bursts it
    missed."""

    passes: int = 0
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    latency: list = field(default_factory=list)
    span: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    probe_s: float = 0.0  # median probe time: how fast the machine ran


def warm_up(main, workload) -> None:
    """Run a small slice of the workload untimed, so lazy set-up is done."""
    for call in workload.calls[:3]:
        argv = list(call.argv)
        if call.check == "atlas":
            argv[-1] = "3"
        small = type(call)(argv, call.check, call.items[:50], (call.stdin or [])[:50], call.timing)
        run_call(main, small)


def _keep_lowest(out: Measurement, probe: SpeedProbe, raw) -> None:
    """Scale the raw times of each call by the probes around them, and
    keep each item's lowest."""
    for offset, latencies, spans, ends in raw:
        for j, (lat, span, k) in enumerate(zip(latencies, spans, probe.scales(ends)), offset):
            out.latency[j] = min(out.latency[j], lat * k)
            out.span[j] = min(out.span[j], span * k)


def measure(main, workload, seconds: float, checked: bool = True, min_passes: int = 3) -> Measurement:
    """Whole passes over the workload until about ``seconds`` have passed.

    The first pass is checked in full; later passes must reproduce its
    output byte for byte (the CLI is deterministic).  A pass's times are
    scaled when the next pass has ended, so that each item's scale can
    use the probes on both sides of it, and the raw times of at most two
    passes are held: peak RSS does not grow with the number of passes.
    """
    offsets, total = [], 0
    for call in workload.calls:
        offsets.append(total)
        total += call.size
    out = Measurement(latency=[math.inf] * total, span=[math.inf] * total)
    probe = SpeedProbe()
    reference = []
    raw = []  # (offset, latencies, spans, ends) of the calls not yet scaled
    start = perf_counter()
    measured = 0.0  # pass time, without the first pass's checks
    while True:
        gc.collect()
        pass_start = perf_counter()
        checking = 0.0
        for ci, call in enumerate(workload.calls):
            res = run_call(main, call, probe)
            out.attempted += call.size
            out.busy_s += res.busy_s
            raw.append((offsets[ci], res.latencies, res.spans, res.ends))
            if res.error:
                out.problems.append((call.check, -1, f"pass {out.passes + 1}: {res.error}"))
            digest = checks.sha256_lines(res.lines)
            if out.passes == 0:
                t = perf_counter()
                found = check_call(call, res) if checked else []
                out.problems += [(call.check, i, p) for i, p in found[:20]]
                bad = {i for i, _ in found}
                # an index of -1 (bad count or digest) fails every item of the call
                reference.append((digest, call.size if -1 in bad else len(bad)))
                checking += perf_counter() - t
            elif digest != reference[ci][0]:
                out.problems.append((call.check, -1, f"pass {out.passes + 1} output differs from pass 1"))
                reference[ci] = (reference[ci][0], call.size)
            out.failed += max(res.failed, reference[ci][1])
            del res  # keep one call's output alive at a time
        out.passes += 1
        pass_s = perf_counter() - pass_start - checking
        measured += pass_s
        earlier = len(raw) - len(workload.calls)
        _keep_lowest(out, probe, raw[:earlier])
        del raw[:earlier]
        if out.passes >= min_passes and measured + pass_s / 2 >= seconds:
            break
    out.wall_s = perf_counter() - start
    _keep_lowest(out, probe, raw)
    out.probe_s = statistics.median(e - s for s, e in probe.events)
    return out
