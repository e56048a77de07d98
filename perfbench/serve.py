"""The ``serve`` workload: cache hits and misses side by side.

``python -m repro.service serve`` runs in its own process on a fresh,
empty cache directory.  Set-up starts it and pre-warms :data:`WARM_SET`
(every pre-warm request must be a miss that computes).  Then this
process, the only client, sends an **open-loop** seeded schedule for
the measuring time:

* hits — :data:`HIT_RATE` per second, drawn uniformly from the warm
  set, on one connection of their own;
* misses — :data:`MISS_RATE` per second, a cheap localization unit and
  a cheap waveform unit with fresh ``base_seed``\\ s, over at most
  ``nproc`` connections; the single compute thread is then roughly
  half busy, so the synchronous on-loop ``store.get`` and interpreter
  lock contention show up in hit latency;
* pairs — a share :data:`PAIR_SHARE` of the misses is sent twice at
  once, which exercises in-flight dedup.

Hits and misses each arrive as a Poisson process conditioned on its
count: ``round(rate * seconds)`` arrivals at uniformly random times, so
every run of one length sends the same number of requests and the
server's CPU seconds (``cpu_s``) do not swing with a random count.

Latency is timed from each request's scheduled (due) time, so a stall
also counts against the requests queued behind it; how late the
generator itself dispatched is ``client.lag_p99_ms``.  Hits and misses
use separate connections so a computing miss never holds a hit back on
the client side.

The oracle: every response is 200 with the expected ``X-Cache``; every
hit body is byte-equal to the body its pre-warm miss returned; a pair's
two bodies are equal; every miss body is ``status == "ok"`` with finite
values; the server's ``/stats`` deltas equal the schedule and the
client's own tallies; and the warm bodies of every fresh server in the
run are byte-identical.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layers
import spans
from probe import HostProbe

#: ``(experiment, variant, scale, backend)`` units pre-warmed at set-up;
#: hits are drawn from these.
WARM_SET: Tuple[Tuple[str, str, float, Optional[str]], ...] = (
    ("fig18", "dock", 0.125, None),
    ("fig18", "boathouse", 0.125, None),
    ("fig20", "device1", 0.125, None),
    ("fig20", "device2", 0.125, None),
    ("fig13", "default", 0.05, "batch"),
    ("fig14", "default", 0.05, "batch"),
    ("fig15", "default", 0.05, "batch"),
    ("fig22", "default", 1.0, "batch"),
    ("fig16", "default", 0.25, None),
    ("fleet", "contention", 0.25, None),
)

#: Units a miss computes (with a fresh ``base_seed`` each): ~20-120 ms
#: of localization and ~50 ms of waveform work on 2 vCPU.
MISS_UNITS: Tuple[Tuple[str, str, float, Optional[str]], ...] = (
    ("fig18", "dock", 0.125, None),
    ("fig13", "default", 0.05, "batch"),
)

HIT_RATE = 100.0  # requests per second
MISS_RATE = 8.0  # miss events per second (a pair is one event)
PAIR_SHARE = 0.05
REQUEST_TIMEOUT_S = 60.0
#: Seconds between host-speed probes while the schedule runs.
PROBE_INTERVAL_S = 0.2
START_TIMEOUT_S = 120.0

_READY = re.compile(r"serving campaigns on http://127\.0\.0\.1:(\d+)")


def _body(unit, base_seed: int) -> bytes:
    experiment, variant, scale, backend = unit
    request = {"experiment": experiment, "variant": variant, "scale": scale, "base_seed": base_seed}
    if backend is not None:
        request["backend"] = backend
    return json.dumps(request, sort_keys=True).encode("utf-8")


# ---------------------------------------------------------------------------
# HTTP (one request per connection, as the server speaks it)
# ---------------------------------------------------------------------------


async def _request(port: int, method: str, path: str, body: bytes = b""):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head_bytes, _, payload = data.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload


async def _timed_request(port: int, method: str, path: str, body: bytes = b""):
    try:
        return await asyncio.wait_for(_request(port, method, path, body), REQUEST_TIMEOUT_S)
    except (OSError, asyncio.TimeoutError, ValueError, IndexError) as exc:
        return 0, {"error": repr(exc)}, b""


def _stats(port: int) -> Dict[str, Any]:
    status, _, payload = asyncio.run(_timed_request(port, "GET", "/stats"))
    if status != 200:
        raise RuntimeError(f"GET /stats answered {status}")
    return json.loads(payload)


# ---------------------------------------------------------------------------
# Server lifecycle
# ---------------------------------------------------------------------------


class Server:
    """One server process on a fresh cache directory under ``out_dir``."""

    def __init__(self, out_dir: str, tag: str, trace_out: Optional[str] = None):
        self.cache_dir = os.path.join(out_dir, f"serve-cache-{os.getpid()}-{tag}")
        self.log_path = os.path.join(out_dir, f"serve-{os.getpid()}-{tag}.log")
        self.trace_out = trace_out
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        args = ["serve", "--host", "127.0.0.1", "--port", "0", "--cache-dir", self.cache_dir]
        if self.trace_out is None:
            cmd = [sys.executable, "-m", "repro.service"] + args
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_server.py")
            cmd = [sys.executable, launcher, self.trace_out] + args
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            with open(self.log_path, encoding="utf-8", errors="replace") as fh:
                match = _READY.search(fh.read())
            if match:
                self.port = int(match.group(1))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        """Peak resident memory (VmHWM), read from outside the server."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """User plus system CPU seconds of the server so far, all threads."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        # fields[0] is the state (field 3 of proc(5)); utime, stime are 14, 15.
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc = None
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        if os.path.exists(self.log_path):
            os.remove(self.log_path)


def _prewarm(server: Server, seed: int) -> Tuple[List[bytes], List[str]]:
    """Pre-warm the warm set; returns its bodies and any problems."""

    async def run():
        out = []
        for unit in WARM_SET:
            out.append(await _timed_request(server.port, "POST", "/campaign", _body(unit, seed)))
        return out

    bodies, problems = [], []
    for unit, (status, headers, payload) in zip(WARM_SET, asyncio.run(run())):
        if status != 200 or headers.get("x-cache") != "miss":
            problems.append(f"pre-warm {unit[0]}-{unit[1]}: {status} {headers.get('x-cache')}")
        bodies.append(payload)
    return bodies, problems


def _setup(out_dir: str, seed: int, tag: str, trace_out: Optional[str] = None):
    """Start a server and pre-warm it: ``(server, seconds, bodies, problems)``."""
    start = time.perf_counter()
    server = Server(out_dir, tag, trace_out)
    try:
        server.start()
        bodies, problems = _prewarm(server, seed)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start, bodies, problems


# ---------------------------------------------------------------------------
# The open-loop schedule
# ---------------------------------------------------------------------------


@dataclass
class Item:
    due: float
    kind: str  # "hit" | "miss" | "pair"
    body: bytes
    warm_index: int = -1


@dataclass
class Record:
    item: Item
    lag_s: float
    latencies_s: List[float] = field(default_factory=list)
    responses: List[Tuple[int, Dict[str, str], bytes]] = field(default_factory=list)


def _arrivals(rng: random.Random, rate: float, seconds: float) -> List[float]:
    """``round(rate * seconds)`` arrival times, uniform over the window."""
    return sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))


def build_schedule(seed: int, seconds: float) -> List[Item]:
    rng = random.Random(seed)
    items: List[Item] = []
    for t in _arrivals(rng, HIT_RATE, seconds):
        index = rng.randrange(len(WARM_SET))
        items.append(Item(t, "hit", _body(WARM_SET[index], seed), index))
    used = {seed}
    for k, t in enumerate(_arrivals(rng, MISS_RATE, seconds)):
        base_seed = seed
        while base_seed in used:
            base_seed = rng.randrange(1_000_000, 2**31)
        used.add(base_seed)
        kind = "pair" if rng.random() < PAIR_SHARE else "miss"
        items.append(Item(t, kind, _body(MISS_UNITS[k % len(MISS_UNITS)], base_seed)))
    items.sort(key=lambda item: item.due)
    return items


async def _drive(port: int, items: Sequence[Item], miss_connections: int, probe: HostProbe):
    """Send the schedule, timing ``probe`` as it goes; returns ``(t0, records)``."""
    hit_q: asyncio.Queue = asyncio.Queue()
    miss_q: asyncio.Queue = asyncio.Queue()
    miss_slots = asyncio.Semaphore(miss_connections)
    pair_lock = asyncio.Lock()
    records: List[Record] = []
    t0 = time.perf_counter() + 0.05

    async def send(record: Record, copies: int) -> None:
        due = t0 + record.item.due
        results = await asyncio.gather(
            *(_timed_request(port, "POST", "/campaign", record.item.body) for _ in range(copies))
        )
        done = time.perf_counter()
        record.responses.extend(results)
        record.latencies_s.extend([done - due] * copies)

    async def hit_worker() -> None:
        while (record := await hit_q.get()) is not None:
            await send(record, 1)

    async def miss_worker() -> None:
        while (record := await miss_q.get()) is not None:
            if record.item.kind == "pair":
                async with pair_lock:
                    await miss_slots.acquire()
                    await miss_slots.acquire()
                try:
                    await send(record, 2)
                finally:
                    miss_slots.release()
                    miss_slots.release()
            else:
                async with miss_slots:
                    await send(record, 1)

    async def probe_worker() -> None:
        # ~3 ms every PROBE_INTERVAL_S: 1.5% of the loop's time, so about
        # that share of hits waits up to one probe longer.
        while True:
            await asyncio.sleep(PROBE_INTERVAL_S)
            probe()

    workers = [asyncio.create_task(hit_worker())]
    workers += [asyncio.create_task(miss_worker()) for _ in range(miss_connections)]
    prober = asyncio.create_task(probe_worker())
    for item in items:
        delay = t0 + item.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        record = Record(item, time.perf_counter() - (t0 + item.due))
        records.append(record)
        (hit_q if item.kind == "hit" else miss_q).put_nowait(record)
    hit_q.put_nowait(None)
    for _ in range(miss_connections):
        miss_q.put_nowait(None)
    await asyncio.gather(*workers)
    prober.cancel()
    return t0, records


def _measured_ok(payload: bytes) -> bool:
    try:
        result = json.loads(payload).get("result", {})
    except ValueError:
        return False
    if result.get("status") != "ok":
        return False

    def finite(value) -> bool:
        if isinstance(value, dict):
            return all(finite(v) for v in value.values())
        if isinstance(value, list):
            return all(finite(v) for v in value)
        return value is not None  # jsonify writes non-finite floats as null

    return finite(result.get("measured"))


@dataclass
class Phase:
    """One server lifetime: set-up, schedule, counters."""

    setup_s: float
    run_s: float
    cpu_s: float
    peak_rss_mb: float
    records: List[Record]
    stats_delta: Dict[str, int]
    store_bytes: int
    warm_bodies: List[bytes]
    window: Tuple[float, float]
    attempted: int
    failed: int
    problems: List[str]


def _run_phase(server: Server, setup_s: float, warm: List[bytes], seed: int, seconds: float,
               miss_connections: int, problems: List[str], probe: HostProbe) -> Phase:
    items = build_schedule(seed, seconds)
    before = _stats(server.port)
    cpu_before = server.cpu_s()
    t0, records = asyncio.run(_drive(server.port, items, miss_connections, probe))
    t_end = time.perf_counter()
    cpu_s = server.cpu_s() - cpu_before
    after = _stats(server.port)
    rss = server.peak_rss_mb()
    counters = ("requests", "hits", "misses", "dedup_waits", "engine_calls", "errors")
    delta = {c: after[c] - before[c] for c in counters}

    attempted = failed = 0
    tally = {"hit": 0, "miss": 0}
    for record in records:
        item = record.item
        expect = "hit" if item.kind == "hit" else "miss"
        bad = False
        for status, headers, payload in record.responses:
            attempted += 1
            cache = headers.get("x-cache")
            if cache in tally:
                tally[cache] += 1
            if status != 200 or cache != expect:
                bad = True
            elif item.kind == "hit":
                bad = payload != warm[item.warm_index]
            elif not _measured_ok(payload):
                bad = True
        if item.kind == "pair" and record.responses[0][2] != record.responses[1][2]:
            bad = True
        if bad:
            failed += len(record.responses)
            problems.append(f"{item.kind} due {item.due:.3f}s: {[r[:2] for r in record.responses]}")

    hits = sum(1 for i in items if i.kind == "hit")
    pairs = sum(1 for i in items if i.kind == "pair")
    singles = sum(1 for i in items if i.kind == "miss")
    expected = {
        "requests": len(items) + pairs + 1,  # + the closing GET /stats
        "hits": hits,
        "misses": singles + 2 * pairs,
        "dedup_waits": pairs,
        "engine_calls": singles + pairs,
        "errors": 0,
    }
    for name, value in expected.items():
        if delta[name] != value:
            problems.append(f"/stats {name} moved by {delta[name]}, schedule implies {value}")
    if tally["hit"] != delta["hits"] or tally["miss"] != delta["misses"]:
        problems.append(f"client tallies {tally} disagree with /stats deltas {delta}")

    return Phase(
        setup_s=setup_s,
        run_s=max(t_end, t0) - t0,
        cpu_s=cpu_s,
        peak_rss_mb=rss,
        records=records,
        stats_delta=delta,
        store_bytes=int(after["store"]["total_bytes"]),
        warm_bodies=warm,
        window=(t0, t_end),
        attempted=attempted,
        failed=failed,
        problems=problems,
    )


def _latencies(records: Sequence[Record], kinds: Tuple[str, ...]) -> List[float]:
    return [lat * 1e3 for r in records if r.item.kind in kinds for lat in r.latencies_s]


def client_metrics(phase: Phase) -> Dict[str, float]:
    hits = _latencies(phase.records, ("hit",))
    misses = _latencies(phase.records, ("miss", "pair"))
    return {
        "hit_p50_ms": layers.percentile(hits, 50),
        "hit_p99_ms": layers.percentile(hits, 99),
        "miss_p50_ms": layers.percentile(misses, 50),
        "miss_p90_ms": layers.percentile(misses, 90),
        "client.lag_p99_ms": layers.percentile([r.lag_s * 1e3 for r in phase.records], 99),
        "hit_samples": float(len(hits)),
        "miss_samples": float(len(misses)),
    }


def _digest(bodies: Sequence[bytes]) -> str:
    digest = hashlib.sha256()
    for body in bodies:
        digest.update(body)
        digest.update(b"\0")
    return digest.hexdigest()


def _one_phase(out_dir, seed, seconds, miss_connections, probe, tag, trace_out=None) -> Phase:
    server, setup_s, warm, problems = _setup(out_dir, seed, tag, trace_out)
    try:
        return _run_phase(server, setup_s, warm, seed, seconds, miss_connections, problems, probe)
    finally:
        server.stop()


def measure(
    seed: int,
    seconds: float,
    trace: bool,
    expected_digest: Optional[str],
    out_dir: str,
    nproc: int,
    trace_path: Optional[str],
) -> Dict[str, Any]:
    miss_connections = max(1, nproc)
    problems: List[str] = []
    probe = HostProbe()
    if not trace:
        # Two extra throw-away set-ups, so setup_s is a median of three.
        setup_times, warm_sets = [], []
        for tag in ("setup1", "setup2"):
            server, setup_s, warm, setup_problems = _setup(out_dir, seed, tag)
            server.stop()
            setup_times.append(setup_s)
            warm_sets.append(warm)
            problems += setup_problems
        phase = _one_phase(out_dir, seed, seconds, miss_connections, probe, "run")
        setup_times.append(phase.setup_s)
        if any(w != phase.warm_bodies for w in warm_sets):
            problems.append("warm bodies differ between fresh servers")
        setup_times.sort()
        out = {
            "setup_s": setup_times[1],
            "setup_samples_s": setup_times,
            "run_s": phase.run_s,
            "cpu_s": phase.cpu_s,
            "peak_rss_mb": phase.peak_rss_mb,
            "client": client_metrics(phase),
            "stats_delta": phase.stats_delta,
        }
        phases = [phase]
    else:
        half = seconds / 2.0
        plain = _one_phase(out_dir, seed, half, miss_connections, probe, "plain")
        server_spans = os.path.join(out_dir, f"serve-spans-{os.getpid()}.json")
        traced = _one_phase(out_dir, seed, half, miss_connections, probe, "traced", server_spans)
        with open(server_spans, encoding="utf-8") as fh:
            dumped = json.load(fh)
        os.remove(server_spans)
        if dumped["counts"].get(spans.NOTE_ERRORS):
            problems.append(f"{dumped['counts'][spans.NOTE_ERRORS]} span notes raised")
        all_spans = dumped["spans"]  # span tuples come back as lists
        lo, hi = traced.window
        window_spans = [s for s in all_spans if lo <= s[2] <= hi]
        values = layers.layer_metrics(window_spans, dumped["counts"], 1, (), hi - lo)
        delta = traced.stats_delta
        values.update({f"service.{k}": float(v) for k, v in delta.items()})
        values["service.hit_ratio"] = delta["hits"] / max(1, delta["hits"] + delta["misses"])
        values["service.store.bytes"] = float(traced.store_bytes)
        values["run_s"] = plain.run_s
        values["cpu_s"] = plain.cpu_s
        plain_client = client_metrics(plain)
        values.update(plain_client)
        values["trace.overhead_frac"] = (
            client_metrics(traced)["hit_p50_ms"] / plain_client["hit_p50_ms"] - 1.0
        )
        if plain.warm_bodies != traced.warm_bodies:
            problems.append("traced server bodies differ from the untraced server's")
        plain_miss = {r.item.body: r.responses[0][2] for r in plain.records if r.item.kind != "hit"}
        traced_miss = {r.item.body: r.responses[0][2] for r in traced.records if r.item.kind != "hit"}
        if plain_miss != traced_miss:
            problems.append("traced miss bodies differ from the untraced run's")
        if trace_path:
            spans.write_chrome_trace(trace_path, window_spans, dumped["counts"])
        out = {"layers": values, "client": plain_client}
        phases = [plain, traced]

    if trace:
        out["layers"]["host.probe_ms"] = probe.median_s() * 1e3
    for phase in phases:
        problems += phase.problems
    digest = _digest(phases[0].warm_bodies)
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"warm-set digest {digest} != committed {expected_digest}")
    out.update(
        {
            "probe_s": probe.median_s(),
            "attempted": sum(p.attempted for p in phases),
            "failed": sum(p.failed for p in phases),
            "problems": problems,
            "digest": digest,
        }
    )
    return out
