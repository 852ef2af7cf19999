"""Timing, the correctness gate and the summary statistics of one run.

Each operation is one timed call.  A call that raises a GorlabError is a
refusal; any other exception is an error.  A served value is rendered to
canonical text outside the timed region and compared with the digest
recorded for that operation: a mismatch is a wrong output.  Refusals, errors
and wrong outputs all count as failed; errors and wrong outputs also make the
run incorrect.  An operation recorded as a refusal that now serves a value
counts as a success and is listed for review.  Reported times are scaled to
a reference machine speed measured in the same run (see calibrate).
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from gorlab.errors import GorlabError

TAIL_BEYOND = 10   # samples required beyond the reported tail percentile
# median calibrate() time on the machine the benchmark was defined on
# (2 vCPU Xeon VM, Python 3.11, numpy 2.4 on OpenBLAS 0.3.31)
CALIBRATION_REF_S = 0.05
CALIBRATE_EVERY_S = 1.0   # batch time between two calibrations


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def calibrate() -> float:
    """Seconds for a fixed probe that runs no gorlab code: an interpreter
    loop and int64 arithmetic mod p over an array larger than the caches.

    The machine this benchmark was defined on is a shared VM whose speed
    drifts by a third within minutes.  Interpreter-bound work (the CLI's
    JSON encoding, small resolutions) followed an interpreter loop, and
    array-bound work (large eliminations) followed it about half as far, so
    the probe holds one of each in about equal parts.  A run calibrates
    between operations once per CALIBRATE_EVERY_S of batch time and reports
    times scaled by CALIBRATION_REF_S over the median calibration, i.e. in
    seconds at the reference speed.  No change to gorlab moves the probe,
    so the scaling cancels drift and nothing else.
    """
    big = np.arange(2_000_000, dtype=np.int64)
    out = np.empty_like(big)   # in place: page faults would follow heap state
    out[:] = 0
    t0 = time.perf_counter()
    acc = 0
    for i in range(350_000):
        acc += i % 7
    for _ in range(2):
        np.multiply(big, 3, out=out)
        np.add(out, 1, out=out)
        np.remainder(out, 101, out=out)
    return time.perf_counter() - t0


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A beta-weighted mean of all order statistics.  A run holds 21 to 50
    operations of very different sizes, and a single order statistic then
    jumps between neighbouring operations from run to run; the weighted mean
    moves smoothly.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ xs)


def tail(values) -> tuple[float, float]:
    """(estimate, percentile) at the highest percentile that has at least
    TAIL_BEYOND samples beyond it."""
    n = len(values)
    rank = n - TAIL_BEYOND
    if rank < 1:
        raise ValueError(f"{n} samples: the tail needs at least "
                         f"{TAIL_BEYOND + 1}")
    return quantile(values, rank / n), 100.0 * rank / n


@dataclass
class Gate:
    """Times operations and checks what they serve against recorded digests.

    expected maps an operation key to {"view": sha256} (the seed-invariant
    rendering), optionally "full" (the exact bytes at seed 0), or to
    {"refusal": error type}.  check_full says whether "full" applies.
    """

    expected: dict
    check_full: bool
    tracer: object = None
    calibrating: bool = False
    calibrations: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    attempted: int = 0
    refused: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    review: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)
    untimed_s: float = 0.0     # checking outputs and calibrating
    _next_calibration: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.refused) + len(self.wrong) + len(self.errors)

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.errors

    def call(self, key: str, fn, render):
        """Run fn() as one timed operation; render(value) gives the pair
        (seed-invariant text, exact text or None) checked against the
        digests.  Returns the served value, or None after a refusal."""
        if self.calibrating and time.perf_counter() >= self._next_calibration:
            self.calibrate()
        self.attempted += 1
        span = self.tracer.open_op(key) if self.tracer else None
        t0 = time.perf_counter()
        try:
            out = fn()
        except GorlabError as ex:
            self.latencies.append(time.perf_counter() - t0)
            self._close(span)
            self._refusal(key, type(ex).__name__)
            return None
        except Exception as ex:   # an engine fault: never a served value
            self.latencies.append(time.perf_counter() - t0)
            self._close(span)
            self.errors.append(f"{key}: {type(ex).__name__}: {ex}")
            return None
        self.latencies.append(time.perf_counter() - t0)
        self._close(span)
        c0 = time.perf_counter()
        self._check(key, *render(out))
        self.untimed_s += time.perf_counter() - c0
        return out

    def calibrate(self):
        c0 = time.perf_counter()
        self.calibrations.append(calibrate())
        now = time.perf_counter()
        self.untimed_s += now - c0
        self._next_calibration = now + CALIBRATE_EVERY_S

    def _close(self, span):
        if span is not None:
            self.tracer.close_op(span)

    def _refusal(self, key, kind):
        self.refused.append(f"{key}: {kind}")
        self.observed[key] = {"refusal": kind}

    def _check(self, key, view, full):
        got = {"view": digest(view)}
        if full is not None and full != view:
            got["full"] = digest(full)
        self.observed[key] = got
        want = self.expected.get(key)
        if want is None:
            self.errors.append(f"{key}: no recorded digest")
        elif "refusal" in want:
            self.review.append(f"{key}: recorded as {want['refusal']}, "
                               f"now serves a value")
        elif want["view"] != got["view"] or (
                self.check_full and want.get("full", want["view"])
                != got.get("full", got["view"])):
            self.wrong.append(f"{key}: output differs from its digest")

    def require(self, key: str, ok: bool, what: str):
        """An independent check on a served value."""
        if not ok:
            self.wrong.append(f"{key}: {what}")


def summarize(gate: Gate, walls, setups, peak_rss_mb: float,
              speed: float) -> tuple[dict, float]:
    """End-to-end metrics of one run, times scaled by speed (the reference
    calibration over this run's); returns them with the tail percentile."""
    tail_s, pct = tail(gate.latencies)
    times = {"setup_s": statistics.median(setups),
             "wall_s": statistics.median(walls),
             "op_p50_s": quantile(gate.latencies, 0.5),
             "op_tail_s": tail_s}
    metrics = {k: {"value": v * speed, "unit": "s"} for k, v in times.items()}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    metrics["served_share"] = {
        "value": (gate.attempted - gate.failed) / gate.attempted,
        "unit": "share"}
    return metrics, pct
