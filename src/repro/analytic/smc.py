"""SMC performance bounds (Section 5.2).

Two limits govern SMC effective bandwidth:

* the **startup delay** Delta_1 — the processor's wait for the first
  element of the last read-stream while the MSU fills a FIFO's worth
  of each earlier read-stream (eq. 5.16 for CLI, 5.17 for PI); it
  grows with FIFO depth and read-stream count but is one-time;
* the **asymptotic bus-turnaround bound** Delta_2 — with deep FIFOs
  and long vectors the only recurring overhead is the t_RW read/write
  turnaround paid once per round-robin tour (eq. 5.18); it shrinks as
  FIFO depth grows.

Both are converted to percent-of-peak with eq. 5.15.  The *combined*
limit charges both delays; its ascending portion (in FIFO depth) is
the asymptotic bound and its descending or flat portion is the
startup bound, exactly the dashed curves of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.analytic import equations as eq
from repro.memsys.config import ELEMENTS_PER_PACKET, MemorySystemConfig


@dataclass(frozen=True)
class SmcBound:
    """SMC bandwidth bounds for one configuration.

    Attributes:
        startup_delay: Delta_1 in cycles.
        turnaround_delay: Delta_2 in cycles.
        percent_startup_limit: Bound charging Delta_1 alone.
        percent_asymptotic_limit: Bound charging Delta_2 alone.
        percent_combined_limit: Bound charging both.
    """

    startup_delay: float
    turnaround_delay: float
    percent_startup_limit: float
    percent_asymptotic_limit: float
    percent_combined_limit: float


def smc_bound(
    config: MemorySystemConfig,
    num_read_streams: int,
    num_write_streams: int,
    length: int,
    fifo_depth: int,
    stride: int = 1,
) -> SmcBound:
    """Compute the Section 5.2 bounds for one SMC configuration.

    The paper presents the unit-stride equations and defers non-unit
    strides to Hong's thesis ("see [11] for extensions to non-unit
    strides"); the extension is mechanical: at any stride above one,
    each DATA packet carries a single useful 64-bit element, so the
    effective elements-per-packet w_p drops from 2 to 1, doubling both
    the per-element transfer time in eq. 5.15's base term and the
    FIFO-fill time inside the startup delay.  The resulting limits are
    relative to the stride-limited *attainable* bandwidth (50 % of
    peak), matching Figure 9's y-axis.

    Args:
        config: Memory organization (CLI picks eq. 5.16, PI eq. 5.17).
        num_read_streams: The paper's s_r.
        num_write_streams: The paper's s_w.
        length: Vector length in elements (L_s).
        fifo_depth: FIFO depth in elements (f).
        stride: Vector stride in 64-bit words.

    Returns:
        All three bounds (startup-only, asymptotic-only, combined).
    """
    if fifo_depth <= 0 or length <= 0:
        raise ConfigurationError("length and fifo_depth must be positive")
    if stride <= 0:
        raise ConfigurationError("stride must be positive")
    timing = config.timing
    s = num_read_streams + num_write_streams
    w_p = ELEMENTS_PER_PACKET if stride == 1 else 1
    if config.interleaving == "cli":
        delta_1 = eq.eq_5_16_startup_delay_cli(
            timing, num_read_streams, fifo_depth, w_p
        )
    else:
        delta_1 = eq.eq_5_17_startup_delay_pi(
            timing, num_read_streams, fifo_depth, w_p
        )
    if num_write_streams and num_read_streams:
        delta_2 = eq.eq_5_18_turnaround_delay(timing, length, s, fifo_depth)
    else:
        # A loop with only reads (or only writes) never cycles the bus
        # direction, so no turnaround is ever paid.
        delta_2 = 0.0
    return SmcBound(
        startup_delay=delta_1,
        turnaround_delay=delta_2,
        percent_startup_limit=eq.eq_5_15_percent_peak(
            timing, length, s, w_p, delta_1
        ),
        percent_asymptotic_limit=eq.eq_5_15_percent_peak(
            timing, length, s, w_p, delta_2
        ),
        percent_combined_limit=eq.eq_5_15_percent_peak(
            timing, length, s, w_p, delta_1 + delta_2
        ),
    )
