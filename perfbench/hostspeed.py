"""The host's speed, sampled while a grid runs.

On a small shared VM the same grid runs up to ~60% slower from one minute
to the next with the VM itself idle and no steal time reported: other
tenants share the physical cores and caches, and the process's CPU time
grows with its wall-clock. A grid's raw wall-clock therefore says as much
about the neighbours as about the program.

``SpeedProbe`` samples that slowdown from inside the worker. Every
``PERIOD_S`` of wall-clock a SIGALRM handler runs ``reference``, a fixed
job of the same kind as eatcl's work (plain-NumPy training steps of a
16-32-10 MLP on a batch of 32), and records the CPU time it took. The grid's
wall-clock minus the time spent in the probe, multiplied by ``REF_S`` over
the mean probe time, is the grid's wall-clock at the host's typical speed
(``normalised``). The handler runs between the program's bytecodes, shares
no state with it and only reads its own arrays, so the program's outputs
are unchanged (the correctness gate compares them with a run without
probes).

The reference is the benchmark's own code: a change to eatcl moves the
grid's time and not the probe's, so it shows in the normalised figure as it
would in the raw one. The probe times its own thread's CPU time, so threads
or processes the program may start later do not stretch it.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

PERIOD_S = 0.5
# Median CPU time of one ``reference`` call inside a grid on the 2-vCPU
# 2.1 GHz Xeon VM the benchmark was defined on; it only sets the scale of
# normalised times, so that they read about as that VM's wall-clock.
REF_S = 0.0173

_rng = np.random.default_rng(0)
_W = (_rng.standard_normal((16, 32)) * 0.25, _rng.standard_normal((32, 10)) * 0.18)
_X = _rng.standard_normal((64, 16))
_Y = _rng.integers(0, 10, 64)
_ROWS = np.arange(32)


@dataclass
class _Model:
    weights: list
    biases: list


def reference(steps: int = 200) -> float:
    """Fixed work: ``steps`` SGD steps of a 16-32-10 ReLU MLP with softmax
    cross-entropy on batches of 32. Returns the last loss."""
    model = _Model([w.copy() for w in _W], [np.zeros(32), np.zeros(10)])
    loss = 0.0
    for i in range(steps):
        lo = (i * 8) % 32
        xb, yb = _X[lo:lo + 32], _Y[lo:lo + 32]
        acts, h = [xb], xb
        for j, (w, b) in enumerate(zip(model.weights, model.biases)):
            h = h @ w + b
            if j == 0:
                h = np.maximum(h, 0.0)
            acts.append(h)
        z = h - h.max(axis=1, keepdims=True)
        p = np.exp(z)
        total = p.sum(axis=1, keepdims=True)
        loss = float(np.mean(np.log(total[:, 0]) - z[_ROWS, yb]))
        p /= total
        p[_ROWS, yb] -= 1.0
        delta = p / 32
        grads_w, grads_b = [None, None], [None, None]
        for j in (1, 0):
            grads_w[j] = acts[j].T @ delta
            grads_b[j] = delta.sum(axis=0)
            if j:
                delta = (delta @ model.weights[j].T) * (acts[j] > 0)
        model = _Model([w - 0.05 * g for w, g in zip(model.weights, grads_w)],
                       [b - 0.05 * g for b, g in zip(model.biases, grads_b)])
    return loss


class SpeedProbe:
    """Runs ``reference`` every ``PERIOD_S`` between ``start`` and ``stop``.

    ``spent_s`` is the wall-clock the probes took; ``samples`` their CPU
    times. ``stop`` takes one sample itself, after the timed span, if the
    timer never fired.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, *_):
        wall, cpu = time.perf_counter(), time.thread_time()
        reference()
        self.samples.append(time.thread_time() - cpu)
        self.spent_s += time.perf_counter() - wall

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Cancel the timer; returns ``time.perf_counter()`` at that moment."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        stopped = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._tick()
            self.spent_s = 0.0  # taken after the timed span
        return stopped

    def slowdown(self) -> float:
        """Mean probe CPU time over ``REF_S``: above 1 when the host is slow."""
        return sum(self.samples) / len(self.samples) / REF_S

    def normalised(self, wall_s: float) -> float:
        """``wall_s`` (which includes the probes) at the host's typical speed."""
        return (wall_s - self.spent_s) / self.slowdown()
