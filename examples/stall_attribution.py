#!/usr/bin/env python3
"""Where did the bandwidth go?  Exact stall attribution for a run.

The simulators report *how much* of peak bandwidth a configuration
delivers; the observability layer explains *why* the rest was lost.
Attach an Instrumentation to a run and every idle DATA-bus cycle is
classified into exactly one bucket — write-to-read turnaround,
precharge/activate latency, command-bus occupancy, FIFO stalls,
refresh interference, scheduler idling, or the final drain — with the
buckets plus busy cycles summing exactly to the run's cycle count.

The same machinery drives ``repro-simulate --stats/--json/--trace-out``
and the ``repro-obs trace`` file inspector; exports open directly in
Perfetto (https://ui.perfetto.dev).

Run: python examples/stall_attribution.py
"""

from repro import Instrumentation, RunSpec, attribute_stalls, simulate
from repro.obs.export import write_chrome_trace


def attribute(kernel: str, org: str, **kwargs) -> None:
    obs = Instrumentation()
    result = simulate(
        RunSpec(kernel, org, length=1024, fifo_depth=64, **kwargs), obs=obs
    )
    stalls = attribute_stalls(obs)
    print(f"--- {kernel} on {result.organization} "
          f"({result.percent_of_peak:.2f}% of peak) ---")
    print(stalls.table())
    print()


def main() -> None:
    # The closed-page CLI organization pays for a precharge/activate
    # on every cacheline; the open-page PI organization trades most of
    # that for occasional FIFO and scheduling stalls.
    attribute("daxpy", "cli")
    attribute("daxpy", "pi")

    # Refresh is ignored by the paper; measured, it costs little.
    attribute("daxpy", "pi", refresh=True)

    # Everything above is also exportable for interactive inspection.
    obs = Instrumentation()
    result = simulate(RunSpec("vaxpy", "pi", length=1024), obs=obs)
    stalls = attribute_stalls(obs)
    events = write_chrome_trace("/tmp/repro_vaxpy_trace.json", obs,
                                stalls=stalls.as_dict())
    print(f"wrote {events} trace events to /tmp/repro_vaxpy_trace.json "
          "(open in Perfetto, or run: repro-obs trace "
          "/tmp/repro_vaxpy_trace.json --stalls)")
    assert stalls.busy + stalls.idle == result.cycles


if __name__ == "__main__":
    main()
