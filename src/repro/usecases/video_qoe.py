"""Video-streaming QoE estimation from a throughput series (paper §C.2).

Given a downlink-throughput time series (measured, or predicted from
GenDT-generated radio KPIs), simulate an adaptive-bitrate video session over
it and score the user experience.  The player substrate is a standard
buffer-dynamics model:

* the player picks the highest ladder bitrate below a safety fraction of a
  throughput estimate (harmonic mean of recent samples),
* the buffer fills at ``downloaded_seconds = throughput / bitrate`` per
  wall-clock second and drains at 1 s/s while playing,
* playback stalls when the buffer empties and resumes after it refills to a
  threshold.

The session metrics (average bitrate, stall ratio, bitrate switches) are
combined into a 1-5 MOS-like score with the usual impairment weighting
(stalls dominate, then low bitrate, then switching).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

#: Default bitrate ladder (Mbps), a typical HD set.
DEFAULT_LADDER = (0.6, 1.2, 2.4, 4.0, 6.0)


@dataclass(frozen=True)
class PlayerConfig:
    """Adaptive-bitrate player parameters."""

    ladder_mbps: Tuple[float, ...] = DEFAULT_LADDER
    safety_fraction: float = 0.8
    estimate_window: int = 5
    startup_buffer_s: float = 2.0
    rebuffer_target_s: float = 3.0
    max_buffer_s: float = 30.0


@dataclass
class VideoSession:
    """Outcome of one simulated streaming session."""

    bitrates_mbps: np.ndarray      #: chosen bitrate per second
    buffer_s: np.ndarray           #: buffer level per second
    stalled: np.ndarray            #: bool, was playback stalled this second

    @property
    def average_bitrate_mbps(self) -> float:
        playing = ~self.stalled
        if not playing.any():
            return 0.0
        return float(self.bitrates_mbps[playing].mean())

    @property
    def stall_ratio(self) -> float:
        return float(self.stalled.mean())

    @property
    def n_switches(self) -> int:
        return int(np.count_nonzero(np.diff(self.bitrates_mbps)))

    def qoe_score(self, ladder_max: float = DEFAULT_LADDER[-1]) -> float:
        """MOS-like score in [1, 5]: stalls, low bitrate, switching."""
        bitrate_term = self.average_bitrate_mbps / ladder_max          # [0, 1]
        stall_penalty = 3.0 * self.stall_ratio
        switch_penalty = 0.5 * min(
            self.n_switches / max(len(self.bitrates_mbps), 1) * 10.0, 1.0
        )
        raw = 1.0 + 4.0 * bitrate_term - stall_penalty - switch_penalty
        return float(np.clip(raw, 1.0, 5.0))


def simulate_session(
    throughput_mbps: np.ndarray, config: PlayerConfig = PlayerConfig()
) -> VideoSession:
    """Run the buffer-dynamics player over a 1 s-granularity throughput trace."""
    throughput = np.maximum(np.asarray(throughput_mbps, dtype=float), 0.0)
    n = len(throughput)
    if n == 0:
        raise ValueError("empty throughput series")
    ladder = np.asarray(config.ladder_mbps)

    bitrates = np.empty(n)
    buffer_levels = np.empty(n)
    stalled = np.zeros(n, dtype=bool)

    buffer_s = 0.0
    playing = False
    history: List[float] = []
    current_bitrate = ladder[0]
    for t in range(n):
        history.append(max(throughput[t], 1e-3))
        recent = history[-config.estimate_window :]
        estimate = len(recent) / np.sum(1.0 / np.asarray(recent))  # harmonic mean
        target = config.safety_fraction * estimate
        eligible = ladder[ladder <= target]
        current_bitrate = float(eligible[-1]) if len(eligible) else float(ladder[0])

        # One wall-clock second of downloading at the chosen bitrate.
        buffer_s = min(
            buffer_s + throughput[t] / current_bitrate, config.max_buffer_s
        )
        if playing:
            buffer_s -= 1.0
            if buffer_s <= 0.0:
                buffer_s = 0.0
                playing = False
        else:
            threshold = (
                config.startup_buffer_s if t < config.estimate_window
                else config.rebuffer_target_s
            )
            if buffer_s >= threshold:
                playing = True
        stalled[t] = not playing
        bitrates[t] = current_bitrate
        buffer_levels[t] = buffer_s

    return VideoSession(bitrates_mbps=bitrates, buffer_s=buffer_levels, stalled=stalled)
