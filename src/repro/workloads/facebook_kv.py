"""The Facebook key-value store workload (Atikoglu et al., SIGMETRICS '12).

The LITE paper drives Figures 12 and 13 with this trace's statistical
shape: small keys (tens of bytes), bimodal values (most tiny, a heavy
tail of multi-KB objects), and bursty inter-arrival times.  We sample
from parametric fits of the published ETC-pool distributions:

- key sizes: log-normal-ish, clipped to [16, 250] B, median ~31 B;
- value sizes: a discrete mixture — the paper's ETC pool has strong
  modes at a few bytes and a generalized-Pareto tail;
- inter-arrivals: generalized Pareto (heavy-tailed burstiness), with an
  "amplification factor" knob exactly like Figure 13's x-axis.
"""

from __future__ import annotations

import random
from typing import List, Optional

__all__ = ["FacebookKV"]


class FacebookKV:
    """Sampler for the ETC key-value workload."""

    # Value-size mixture: (probability, low, high) byte ranges, ETC-like.
    _VALUE_MIXTURE = [
        (0.40, 2, 10),       # tiny values dominate request counts
        (0.25, 11, 100),
        (0.20, 101, 500),
        (0.10, 501, 2048),
        (0.05, 2049, 4096),  # tail, capped at 4 KB for RPC benches
    ]

    def __init__(self, seed: int = 1, max_value: int = 4096,
                 mean_inter_arrival_us: float = 1000.0):
        self.rng = random.Random(seed)
        self.max_value = max_value
        self.mean_inter_arrival_us = mean_inter_arrival_us

    # -- sizes --------------------------------------------------------------
    def key_size(self) -> int:
        """Key length in bytes: median ~31, clipped to [16, 250]."""
        size = int(self.rng.lognormvariate(3.43, 0.35))
        return max(16, min(250, size))

    def value_size(self) -> int:
        """Value length: bimodal mixture with a heavy tail."""
        u = self.rng.random()
        acc = 0.0
        for prob, low, high in self._VALUE_MIXTURE:
            acc += prob
            if u <= acc:
                return min(self.max_value, self.rng.randint(low, high))
        return min(self.max_value, self._VALUE_MIXTURE[-1][2])

    # -- timing --------------------------------------------------------------
    def inter_arrival(self, amplification: float = 1.0) -> float:
        """Gap to the next request (µs); amplification stretches it.

        Generalized Pareto with xi=0.15: bursty but finite-mean.  The
        Figure 13 experiment multiplies the gaps by 1x..8x to sweep the
        offered load downward.
        """
        xi = 0.15
        u = self.rng.random()
        # Inverse CDF of GPD, scaled so the mean matches the target.
        scale = self.mean_inter_arrival_us * (1 - xi)
        gap = scale / xi * ((1 - u) ** (-xi) - 1)
        return gap * amplification

    # -- trace construction -----------------------------------------------
    def arrival_times(self, count: int, amplification: float = 1.0,
                      start: float = 0.0) -> List[float]:
        """Absolute timestamps of ``count`` consecutive requests."""
        now = start
        times = []
        for _ in range(count):
            now += self.inter_arrival(amplification)
            times.append(now)
        return times
