"""repro — reproduction of "Access Order and Effective Bandwidth for
Streams on a Direct Rambus Memory" (Hong, McKee, Salinas, Klenke,
Aylor, Wulf; HPCA 1999).

The package models a single Direct RDRAM device at the cycle level,
two memory organizations (cacheline-interleaved/closed-page and
page-interleaved/open-page), a traditional natural-order cacheline
controller, and the paper's Stream Memory Controller (SMC), together
with the analytic performance bounds of Section 5 and an experiment
harness regenerating every table and figure.

Quickstart::

    from repro import RunSpec, simulate
    spec = RunSpec(kernel="daxpy", organization="pi",
                   length=1024, fifo_depth=64)
    print(simulate(spec).percent_of_peak)

:func:`simulate` is the single simulation entry point.  It runs a
spec on a bit-identical vectorized fast path whenever the spec
supports it, and on the discrete-event kernel otherwise.
"""

from repro.cache import (
    CacheConfig,
    CacheModel,
    CachedNaturalOrderController,
)
from repro.compiler import (
    choose_fifo_depth,
    compile_loop,
    detect_streams,
    simulate_loop,
)
from repro.analytic import (
    CacheBound,
    SmcBound,
    natural_order_bound,
    single_stream_fill_bound,
    smc_bound,
)
from repro.core import (
    IndexedStreamDescriptor,
    build_gather_system,
    simulate_gather,
    BankAwarePolicy,
    MemorySchedulingUnit,
    RoundRobinPolicy,
    SchedulingPolicy,
    SmcSystem,
    SpeculativePrechargePolicy,
    StreamBufferUnit,
    build_smc_system,
)
from repro.cpu import (
    KERNELS,
    PAPER_KERNELS,
    Alignment,
    Direction,
    Kernel,
    StreamDescriptor,
    StreamProcessor,
    get_kernel,
    place_streams,
)
from repro.errors import (
    CompileError,
    ConfigurationError,
    ExecutionError,
    ObservabilityError,
    ProtocolError,
    ReproError,
    SchedulingError,
    StreamError,
)
from repro.memsys import (
    Interleaving,
    Location,
    MemorySystemConfig,
    PagePolicy,
)
from repro.fpm import FpmMemorySystem, run_fpm
from repro.obs import Instrumentation, StallAttribution, attribute_stalls
from repro.naturalorder import NaturalOrderController
from repro.rdram import (
    ChannelGeometry,
    RambusChannel,
    RefreshEngine,
    make_memory,
    DRAM_FAMILIES,
    PEAK_BANDWIDTH_BYTES_PER_SEC,
    RdramDevice,
    RdramGeometry,
    RdramTiming,
    audit_trace,
)
from repro.sim import (
    EventScheduler,
    ResultBuilder,
    RunSpec,
    Simulation,
    SimulationResult,
    Sweep,
    TraceMetrics,
    bank_imbalance,
    measure_trace,
    pivot,
    run_smc,
    simulate,
    sweep,
)
from repro.exec import ResultCache, execution, run_specs
from repro.experiments.registry import get_experiment, list_experiments

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "CacheModel",
    "CachedNaturalOrderController",
    "choose_fifo_depth",
    "compile_loop",
    "detect_streams",
    "simulate_loop",
    "CacheBound",
    "SmcBound",
    "natural_order_bound",
    "single_stream_fill_bound",
    "smc_bound",
    "IndexedStreamDescriptor",
    "build_gather_system",
    "simulate_gather",
    "BankAwarePolicy",
    "MemorySchedulingUnit",
    "RoundRobinPolicy",
    "SchedulingPolicy",
    "SmcSystem",
    "SpeculativePrechargePolicy",
    "StreamBufferUnit",
    "build_smc_system",
    "KERNELS",
    "PAPER_KERNELS",
    "Alignment",
    "Direction",
    "Kernel",
    "StreamDescriptor",
    "StreamProcessor",
    "get_kernel",
    "place_streams",
    "CompileError",
    "ConfigurationError",
    "ExecutionError",
    "ObservabilityError",
    "ProtocolError",
    "ReproError",
    "SchedulingError",
    "StreamError",
    "Interleaving",
    "Location",
    "MemorySystemConfig",
    "PagePolicy",
    "FpmMemorySystem",
    "run_fpm",
    "Instrumentation",
    "StallAttribution",
    "attribute_stalls",
    "NaturalOrderController",
    "ChannelGeometry",
    "RambusChannel",
    "RefreshEngine",
    "make_memory",
    "DRAM_FAMILIES",
    "PEAK_BANDWIDTH_BYTES_PER_SEC",
    "RdramDevice",
    "RdramGeometry",
    "RdramTiming",
    "audit_trace",
    "EventScheduler",
    "ResultBuilder",
    "RunSpec",
    "Simulation",
    "SimulationResult",
    "Sweep",
    "TraceMetrics",
    "bank_imbalance",
    "measure_trace",
    "pivot",
    "run_smc",
    "simulate",
    "sweep",
    "ResultCache",
    "execution",
    "run_specs",
    "get_experiment",
    "list_experiments",
    "__version__",
]
