"""Closed-loop load generation against a live ``repro serve``.

``repro bench-serve`` drives the server the way the serving traces in
the PIM literature drive an accelerator: a fixed fleet of closed-loop
workers (each sends, waits, sends again) paced to a target aggregate
QPS, with a controllable **duplicate ratio** -- the fraction of
requests that name one hot cell instead of drawing from a distinct-cell
pool.  Duplicates are what make coalescing and caching measurable;
overload legs push the target QPS past capacity with a small queue
limit, which is what makes shedding measurable.

Each leg yields a :class:`LegReport`: latency percentiles (p50/p95/p99
over *successful* requests), shed and coalesce rates, and the maximum
queue depth a background sampler observed.  Reports serialize into the
frozen ``BENCH_PR*.json`` layout (``schema: 1``, ``runs: [...]``) with
``commands_per_s`` carrying achieved QPS, so a serving payload reads
like the archived baselines beside it; the serving-specific fields
ride along as extra keys.
"""

from __future__ import annotations

import dataclasses
import json
import random
import threading
import time
import typing

from repro.serve.client import ServeClient

#: Shed/refusal codes counted as "shed" (pressure, not failure).
SHED_CODES = frozenset(
    {"ERR_OVERLOAD", "ERR_QUOTA", "ERR_DRAINING", "ERR_CIRCUIT_OPEN"}
)


def percentile(sorted_values: "typing.Sequence[float]", q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    rank = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclasses.dataclass(frozen=True)
class LoadLeg:
    """One benchmark leg's shape."""

    name: str
    duration_s: float = 5.0
    target_qps: float = 20.0
    concurrency: int = 4
    #: Fraction of requests naming the single hot cell (the coalescing
    #: and cache-hit driver); the rest draw from ``distinct_cells``
    #: rank variants, which is the cold/warm mix knob.
    duplicate_ratio: float = 0.8
    distinct_cells: int = 4
    benchmark: str = "vecadd"
    device: str = "bank"
    ranks: int = 32
    deadline_s: "float | None" = None
    vector: bool = False
    seed: int = 0


@dataclasses.dataclass
class LegReport:
    """What one leg measured."""

    name: str
    duration_s: float
    sent: int
    ok: int
    shed: int
    failed: int
    p50_s: float
    p95_s: float
    p99_s: float
    achieved_qps: float
    shed_rate: float
    coalesce_rate: float
    cache_hit_count: int
    max_queue_depth: int
    codes: "dict[str, int]"

    def to_run_dict(self) -> "dict[str, object]":
        """One ``runs`` entry of the ``schema: 1`` BENCH payload."""
        return {
            "run": self.name,
            "wall_s": round(self.duration_s, 4),
            "commands_simulated": self.ok,
            "commands_per_s": round(self.achieved_qps, 3),
            "p50_s": round(self.p50_s, 5),
            "p95_s": round(self.p95_s, 5),
            "p99_s": round(self.p99_s, 5),
            "sent": self.sent,
            "shed": self.shed,
            "failed": self.failed,
            "shed_rate": round(self.shed_rate, 4),
            "coalesce_rate": round(self.coalesce_rate, 4),
            "cache_hits": self.cache_hit_count,
            "max_queue_depth": self.max_queue_depth,
            "codes": dict(sorted(self.codes.items())),
        }


class _QueueDepthSampler(threading.Thread):
    """Samples ``/statusz`` queue depth while a leg runs."""

    def __init__(
        self, make_client: "typing.Callable[[], ServeClient]",
        interval_s: float = 0.05,
    ) -> None:
        super().__init__(daemon=True)
        self._make_client = make_client
        self._interval_s = interval_s
        self._halt = threading.Event()
        self.max_depth = 0

    def run(self) -> None:
        with self._make_client() as client:
            while not self._halt.is_set():
                try:
                    status, payload = client.get_json("/statusz")
                    if status == 200:
                        self.max_depth = max(
                            self.max_depth, int(payload.get("inflight", 0))
                        )
                except (OSError, ValueError):
                    client.close()
                self._halt.wait(self._interval_s)

    def stop(self) -> int:
        self._halt.set()
        self.join(timeout=2.0)
        return self.max_depth


def _request_body(leg: LoadLeg, rng: random.Random) -> bytes:
    """The next request a worker sends (hot cell or a distinct variant)."""
    if rng.random() < leg.duplicate_ratio:
        ranks = leg.ranks
    else:
        # Distinct cells come from varying the rank count -- each is a
        # different cache key, so these are the cold/working-set part.
        ranks = leg.ranks + 1 + rng.randrange(max(1, leg.distinct_cells))
    fields: "dict[str, object]" = {
        "benchmark": leg.benchmark,
        "device": leg.device,
        "ranks": ranks,
        "vector": leg.vector,
    }
    if leg.deadline_s is not None:
        fields["deadline_s"] = leg.deadline_s
    return json.dumps(fields).encode("utf-8")


def run_leg(
    make_client: "typing.Callable[[], ServeClient]",
    leg: LoadLeg,
) -> LegReport:
    """Drive one closed-loop leg and measure it.

    ``make_client`` builds one connection per worker thread (plus one
    for the queue-depth sampler); the coalesce/cache tallies come from
    the server's ``/statusz`` deltas around the leg.
    """
    lock = threading.Lock()
    latencies: "list[float]" = []
    codes: "dict[str, int]" = {}
    tallies = {"sent": 0, "ok": 0, "shed": 0, "failed": 0}
    per_worker_qps = leg.target_qps / max(1, leg.concurrency)
    pace_s = 1.0 / per_worker_qps if per_worker_qps > 0 else 0.0
    stop_at = time.monotonic() + leg.duration_s

    def worker(index: int) -> None:
        rng = random.Random((leg.seed << 16) ^ index)
        with make_client() as client:
            next_send = time.monotonic()
            while True:
                now = time.monotonic()
                if now >= stop_at:
                    return
                if pace_s and now < next_send:
                    time.sleep(min(next_send - now, stop_at - now))
                    if time.monotonic() >= stop_at:
                        return
                next_send = max(next_send + pace_s, time.monotonic())
                body = _request_body(leg, rng)
                begin = time.monotonic()
                try:
                    status, _, raw = client.request("POST", "/v1/cell", body)
                    payload = json.loads(raw.decode("utf-8"))
                except (OSError, ValueError) as exc:
                    with lock:
                        tallies["sent"] += 1
                        tallies["failed"] += 1
                        codes[type(exc).__name__] = (
                            codes.get(type(exc).__name__, 0) + 1
                        )
                    client.close()
                    continue
                elapsed = time.monotonic() - begin
                code = str(payload.get("code", "OK" if status == 200 else "?"))
                with lock:
                    tallies["sent"] += 1
                    codes[code] = codes.get(code, 0) + 1
                    if status == 200:
                        tallies["ok"] += 1
                        latencies.append(elapsed)
                    elif code in SHED_CODES:
                        tallies["shed"] += 1
                    else:
                        tallies["failed"] += 1

    with make_client() as probe:
        _, before = probe.get_json("/statusz")
    sampler = _QueueDepthSampler(make_client)
    sampler.start()
    begin = time.monotonic()
    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(leg.concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - begin
    max_depth = sampler.stop()
    with make_client() as probe:
        _, after = probe.get_json("/statusz")

    def delta(field: str) -> int:
        return max(0, int(after.get(field, 0)) - int(before.get(field, 0)))

    def counter_delta(name: str) -> int:
        before_c = before.get("counters") or {}
        after_c = after.get("counters") or {}
        return max(
            0, int(after_c.get(name, 0) or 0) - int(before_c.get(name, 0) or 0)
        )

    latencies.sort()
    sent = tallies["sent"]
    report = LegReport(
        name=leg.name,
        duration_s=wall,
        sent=sent,
        ok=tallies["ok"],
        shed=tallies["shed"],
        failed=tallies["failed"],
        p50_s=percentile(latencies, 0.50),
        p95_s=percentile(latencies, 0.95),
        p99_s=percentile(latencies, 0.99),
        achieved_qps=tallies["ok"] / wall if wall > 0 else 0.0,
        shed_rate=tallies["shed"] / sent if sent else 0.0,
        coalesce_rate=delta("coalesced") / sent if sent else 0.0,
        cache_hit_count=counter_delta("serve.cache_hits"),
        max_queue_depth=max(max_depth, int(after.get("max_inflight", 0))),
        codes=codes,
    )
    return report


def bench_payload(reports: "typing.Sequence[LegReport]") -> "dict[str, object]":
    """The archivable BENCH_PR8.json payload."""
    return {"schema": 1, "runs": [r.to_run_dict() for r in reports]}


def format_reports(reports: "typing.Sequence[LegReport]") -> str:
    """The human-readable table ``repro bench-serve`` prints."""
    lines = [
        f"{'leg':<18s} {'sent':>6s} {'ok':>6s} {'shed':>6s} {'qps':>8s} "
        f"{'p50 ms':>8s} {'p95 ms':>8s} {'p99 ms':>8s} "
        f"{'coalesce':>9s} {'maxdepth':>9s}"
    ]
    for r in reports:
        lines.append(
            f"{r.name:<18s} {r.sent:>6d} {r.ok:>6d} {r.shed:>6d} "
            f"{r.achieved_qps:>8.1f} {r.p50_s * 1e3:>8.1f} "
            f"{r.p95_s * 1e3:>8.1f} {r.p99_s * 1e3:>8.1f} "
            f"{r.coalesce_rate:>9.2%} {r.max_queue_depth:>9d}"
        )
    return "\n".join(lines)
