"""Per-run measurement: raw accumulators and the four summary figures
(latency, success rate, energy, energy efficiency)."""

from dataclasses import dataclass, field


@dataclass
class RunMetrics:
    generated: int = 0
    delivered: int = 0
    latency_sum: float = 0.0
    latencies: list = field(default_factory=list)
    delivered_bits: int = 0

    def record_generated(self):
        self.generated += 1

    def record_delivered(self, created_at: float, now: float, bits: int):
        if now < created_at:
            raise ValueError("delivery before creation")
        self.delivered += 1
        self.latency_sum += now - created_at
        self.latencies.append(now - created_at)
        self.delivered_bits += bits

    @property
    def latency_mean(self):
        """Mean seconds from generation to sink arrival; None when nothing
        was delivered (an absent value, not a zero)."""
        if self.delivered == 0:
            return None
        return self.latency_sum / self.delivered

    def latency_percentiles(self):
        """(p50, p95, max) seconds from generation to sink arrival; all None
        when nothing was delivered. A percentile interpolates linearly between
        the two nearest order statistics (Hyndman-Fan type 7, numpy's default
        method), computed here without numpy's percentile, whose first call
        imports numpy.ma and adds about 2 MB to the process."""
        if not self.latencies:
            return None, None, None
        ordered = sorted(self.latencies)
        last = len(ordered) - 1

        def percentile(q):
            pos = last * q
            lo = int(pos)
            hi = min(lo + 1, last)
            return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
        return percentile(0.5), percentile(0.95), ordered[-1]

    @property
    def success_rate_pct(self) -> float:
        if self.generated == 0:
            return 0.0
        return 100.0 * self.delivered / self.generated

    def efficiency_kbit_per_j(self, energy_total: float) -> float:
        """Delivered kilobits per Joule consumed network-wide."""
        if self.delivered == 0 or energy_total <= 0:
            return 0.0
        return (self.delivered_bits / 1000.0) / energy_total
