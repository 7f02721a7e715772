"""Natural-order cacheline access bounds (Section 5.1), reconciled.

The paper's optimistic bounds for a traditional controller that
fetches cachelines in program order.  The model here is a *reconciled*
form of the printed equations: the printed open-page pipeline equation
(5.9) is degenerate (it predicts a saturated data bus for any stream
count) and the closed-page form (5.4-5.6) reproduces none of the
paper's quoted natural-order numbers.  Re-deriving with the read/write
bus-turnaround delay the paper's own Section 6 points to ("loops with
more streams exploit the Direct RDRAM's available concurrency better
by enabling more pipelined loads or stores to be performed between
each bus-turnaround delay") recovers all four quoted values:

* 8 streams, stride 1:  our CLI 76.2 % (paper 76.11 %), our PI 88.9 %
  (paper 88.68 %);
* 8 streams, stride 4:  our CLI 19.0 % (paper 19.03 %), our PI 22.2 %
  (paper 22.17 %).

Model: in steady state the loop body moves one cacheline per stream
per *group*.  Groups pipeline across the device's banks; each group
with at least one write stream pays one write-to-read bus turnaround
(t_RW) plus the read round-trip t_RDLY when the bus switches back.

* closed page (CLI):
    T_group = t_RAC + max(t_RR, (L_c/w_p) * t_PACK) * (s - 1) + X
  — the paper's eq. 5.4 plus the turnaround term X.
* open page (PI): command overheads hide behind open-page data
  streaming, so the group cost is the data itself plus the turnaround:
    T_group = (L_c/w_p) * t_PACK * s + X
  with X = t_RW + t_RDLY when s_w > 0, else 0.

Per-page overheads for PI (precharge and row activation at page
crossings) are ignored, as Section 4.1 assumes ("they can be
overlapped with accesses to other banks").  Dirty-writeback traffic is
ignored, as Section 5.1 does; stores are modeled as full-line writes
following Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.analytic import equations as eq
from repro.memsys.config import ELEMENTS_PER_PACKET, MemorySystemConfig


@dataclass(frozen=True)
class CacheBound:
    """A natural-order performance bound.

    Attributes:
        percent_of_peak: Percentage of the 1.6 GB/s peak exploited.
        group_cycles: Steady-state cycles per group (one line per
            stream).
        useful_words_per_group: 64-bit words of stream data per group.
        stride: Stride the bound was computed for.
        cycles: Total cycles when a finite length was given, else 0.
    """

    percent_of_peak: float
    group_cycles: float
    useful_words_per_group: float
    stride: int = 1
    cycles: float = 0.0

    @property
    def percent_of_attainable(self) -> float:
        """Relative to the stride-limited attainable ceiling: 100 % of
        peak at stride one, 50 % beyond (used by Figure 9)."""
        if self.stride == 1:
            return self.percent_of_peak
        return min(100.0, 2.0 * self.percent_of_peak)


def useful_words_per_line(config: MemorySystemConfig, stride: int) -> float:
    """Useful 64-bit words a line fill delivers at the given stride."""
    l_c = config.elements_per_cacheline
    if stride <= 0:
        raise ConfigurationError("stride must be positive")
    if stride > l_c:
        return 1.0
    return l_c / stride


def natural_order_bound(
    config: MemorySystemConfig,
    num_read_streams: int,
    num_write_streams: int,
    stride: int = 1,
    length: int = 0,
) -> CacheBound:
    """Bound on % peak for natural-order cacheline accesses.

    Args:
        config: Memory organization (selects the CLI or PI model).
        num_read_streams: The paper's s_r.
        num_write_streams: The paper's s_w.
        stride: Vector stride in 64-bit words.
        length: Vector length for the finite-length correction; 0
            requests the asymptotic bound.

    Returns:
        The bound, including the group decomposition for inspection.
    """
    timing = config.timing
    s = num_read_streams + num_write_streams
    if s < 1:
        raise ConfigurationError("need at least one stream")
    l_c = config.elements_per_cacheline
    w_p = ELEMENTS_PER_PACKET
    packets_per_line = l_c // w_p
    turnaround = timing.t_rw + timing.t_rdly if num_write_streams else 0

    if config.interleaving == "cli":
        if s == 1:
            # No pipelining partner: fall back to the serial line time
            # of eq. 5.2/5.3.
            group = eq.eq_5_2_t_lcc(timing, l_c, w_p) + turnaround
        else:
            group = (
                eq.eq_5_4_t_pipe_closed(timing, l_c, w_p, s) + turnaround
            )
        t_last = eq.eq_5_5_t_last_closed(timing, l_c, w_p, s) + turnaround
        t_init = 0.0
    else:
        group = packets_per_line * timing.t_pack * s + turnaround
        t_last = group
        t_init = eq.eq_5_10_t_init_open(timing, l_c, w_p, max(s, 2))

    useful = s * useful_words_per_line(config, stride)
    total_cycles = 0.0
    if length:
        groups = max(1, length // l_c)
        if config.interleaving == "cli":
            total_cycles = (groups - 1) * group + t_last
        else:
            total_cycles = t_init + groups * group
        total_useful = useful * groups
        percent = 100.0 * (total_useful * 8) / (total_cycles * 4)
    else:
        percent = 100.0 * (useful * 8) / (group * 4)

    return CacheBound(
        percent_of_peak=percent,
        group_cycles=group,
        useful_words_per_group=useful,
        stride=stride,
        cycles=total_cycles,
    )


def single_stream_fill_bound(
    config: MemorySystemConfig,
    stride: int,
    include_page_overhead: bool = True,
) -> float:
    """% peak for natural-order cacheline fills of one stream (Figure 8).

    Implements eq. 5.2/5.3 for closed-page (CLI) systems and
    eq. 5.7/5.8 for open-page (PI) systems.

    Args:
        config: Memory organization.
        stride: Vector stride in 64-bit words.
        include_page_overhead: For PI, whether the per-page t_RP +
            first-line miss cost of eq. 5.8 is charged.  The printed
            equation charges it; the text's claim that the curve "remains
            constant once the stride exceeds the number of words in the
            cacheline" corresponds to dropping it (page misses
            overlapped with accesses to other banks, per Section 4.1).

    Returns:
        Percent of peak bandwidth.
    """
    timing = config.timing
    l_c = config.elements_per_cacheline
    l_p = config.elements_per_page
    w_p = ELEMENTS_PER_PACKET
    if config.interleaving == "cli":
        t_avg = eq.eq_5_3_single_stream_closed(timing, l_c, w_p, stride)
    elif include_page_overhead:
        t_avg = eq.eq_5_8_single_stream_open(timing, l_c, l_p, w_p, stride)
    else:
        useful = useful_words_per_line(config, stride)
        t_avg = eq.eq_5_7_t_lco(timing, l_c, w_p) / useful
    return eq.eq_5_1_percent_peak(t_avg, w_p, timing.t_pack)
