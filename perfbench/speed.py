"""Times as they would read on a machine of fixed speed.

The machines this benchmark runs on are shared. Their speed switches between
a fast and a slow state (the slow one ~40% slower) within seconds, and the
share of slow time drifts over minutes, so two runs of the same code minutes
apart differ by far more than the bounds in BENCHMARK.json. A sensor process,
pinned to the benchmark's CPU, runs a fixed reference kernel every
SENSOR_PERIOD_S and logs how long it took; it sees the same slowdowns as the
work it interleaves with. A pass's seconds times REFERENCE_S over the mean
kernel time logged during that pass are seconds at reference speed, the speed
at which the kernel takes REFERENCE_S. The kernel does the kinds of work
lanecast does (numpy calls on ~100x32 arrays, scalar Python math, JSON
parsing); no code of the program runs inside it, so a change to the program
cannot move it. The sensor takes a few percent of the CPU, the same share in
every run.

    python3 perfbench/speed.py LOG_FILE CPU    # the sensor loop itself
"""

from __future__ import annotations

import bisect
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.003
KERNEL_ROUNDS = 50
SENSOR_PERIOD_S = 0.1
STARTUP_TIMEOUT_S = 60


def kernel_seconds():
    """Wall time of one run of the reference kernel."""
    x = np.linspace(-1.0, 1.0, 3200).reshape(100, 32)
    w = np.linspace(-0.5, 0.5, 1024).reshape(32, 32)
    doc = json.dumps([[i * 0.5, -i * 0.25] for i in range(30)])
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(KERNEL_ROUNDS):
        acc += float(np.maximum(x @ w, 0.0).sum())
        for px, py in json.loads(doc):
            acc += math.hypot(px, py)
    dt = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite sum")
    return dt


class Sensor:
    """Context manager: pins this process to one CPU and runs the sensor
    process beside it; after exit, `factor(t0, t1)` converts seconds spent
    in the monotonic-clock interval [t0, t1] to reference speed."""

    def __init__(self, log_path):
        self.log_path = log_path
        self.times, self.kernel_s = [], []

    def __enter__(self):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        self.log_path.write_text("")
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.log_path), str(cpu)])
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while not self.log_path.read_text().count("\n"):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self._stop()
                raise RuntimeError("speed sensor did not start")
            time.sleep(SENSOR_PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._stop()
        for line in self.log_path.read_text().splitlines():
            t, dt = line.split()
            self.times.append(float(t))
            self.kernel_s.append(float(dt))
        return False

    def _stop(self):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def factor(self, t0, t1):
        """REFERENCE_S over the mean kernel time logged in [t0, t1] (the
        nearest log entry when none falls inside)."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi <= lo:
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        window = self.kernel_s[lo:hi]
        return REFERENCE_S * len(window) / sum(window)


def sense(log_path, cpu):
    """Log (start time, kernel seconds) every SENSOR_PERIOD_S until the
    process that started this one is gone."""
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    with open(log_path, "a", buffering=1, encoding="utf-8") as log:
        while os.getppid() == parent:
            t = time.monotonic()
            log.write(f"{t:.6f} {kernel_seconds():.9f}\n")
            time.sleep(SENSOR_PERIOD_S)


if __name__ == "__main__":
    sense(sys.argv[1], int(sys.argv[2]))
