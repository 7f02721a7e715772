"""Loop-to-SMC compilation front end.

Combines stream detection with kernel construction and FIFO-depth
selection, so a user can go from loop source to a simulated SMC run in
one call:

    >>> from repro.compiler import simulate_loop
    >>> result = simulate_loop("y[i] = a*x[i] + y[i]", length=1024)
    >>> result.kernel
    'loop'
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.errors import CompileError
from repro.compiler.stream_detect import detect_streams
from repro.cpu.kernels import Kernel
from repro.cpu.streams import Alignment
from repro.analytic.smc import smc_bound
from repro.memsys.config import MemorySystemConfig
from repro.sim.results import SimulationResult
from repro.sim.runner import RunSpec, resolve_config
from repro.sim.runner import simulate as _simulate

#: FIFO depths a hardware SMC plausibly implements.
CANDIDATE_DEPTHS: Tuple[int, ...] = (8, 16, 32, 64, 128, 256)


def compile_loop(source: str, name: str = "loop", index: str = "i") -> Kernel:
    """Compile a loop body into a :class:`~repro.cpu.kernels.Kernel`.

    Args:
        source: Assignment statement(s) forming the loop body.
        name: Kernel name for reports.
        index: Loop induction variable name.

    Returns:
        A kernel whose streams are the detected array references, in
        natural access order.

    Raises:
        CompileError: If the body cannot be expressed as streams.
    """
    specs = detect_streams(source, index=index)
    return Kernel(
        name=name,
        expression="; ".join(line.strip() for line in source.strip().splitlines()),
        streams=tuple(specs),
    )


def choose_fifo_depth(
    kernel: Kernel,
    organization: Union[str, MemorySystemConfig] = "cli",
    length: int = 1024,
    candidates: Sequence[int] = CANDIDATE_DEPTHS,
    simulate: bool = False,
    stride: int = 1,
) -> int:
    """Pick a FIFO depth for a computation.

    The paper notes the Section 5.2 limits "do not help in calculating
    appropriate FIFO depths for a computation a priori" and that "the
    best FIFO depth must be chosen experimentally."  Accordingly,
    ``simulate=True`` sweeps real simulations and returns the
    empirical argmax; the default uses the cheap combined analytic
    bound as a screening heuristic.

    Args:
        kernel: The compiled (or hand-written) kernel.
        organization: "cli", "pi", or a full configuration.
        length: Vector length the loop will run at.
        candidates: Depths to consider.
        simulate: Sweep full simulations instead of the bound.
        stride: Stride of the computation.

    Returns:
        The chosen depth.
    """
    if not candidates:
        raise CompileError("no candidate FIFO depths given")
    config = resolve_config(organization)
    best_depth = None
    best_score = -1.0
    for depth in candidates:
        if simulate:
            spec = RunSpec(
                kernel=kernel, organization=config,
                length=length, fifo_depth=depth, stride=stride,
            )
            score = _simulate(spec).percent_of_peak
        else:
            score = smc_bound(
                config,
                kernel.num_read_streams,
                kernel.num_write_streams,
                length,
                depth,
            ).percent_combined_limit
        if score > best_score:
            best_score = score
            best_depth = depth
    assert best_depth is not None
    return best_depth


def simulate_loop(
    source: str,
    organization: Union[str, MemorySystemConfig] = "cli",
    length: int = 1024,
    fifo_depth: Optional[int] = None,
    stride: int = 1,
    alignment: Union[str, Alignment] = Alignment.STAGGERED,
    index: str = "i",
    **simulate_kwargs,
) -> SimulationResult:
    """Compile a loop and simulate it on the SMC in one call.

    Args:
        source: Loop body source.
        organization: Memory organization.
        length: Vector length in elements.
        fifo_depth: FIFO depth; None picks one via
            :func:`choose_fifo_depth`.
        stride: Computation stride.
        alignment: Vector placement.
        index: Loop induction variable name.
        **simulate_kwargs: Extra :class:`~repro.sim.runner.RunSpec`
            fields (policy, audit, refresh, ...) plus an
            optional ``obs`` instrumentation, forwarded to
            :func:`repro.sim.runner.simulate`.

    Returns:
        The simulation result.
    """
    kernel = compile_loop(source, index=index)
    if fifo_depth is None:
        fifo_depth = choose_fifo_depth(
            kernel, organization, length=length, stride=stride
        )
    obs = simulate_kwargs.pop("obs", None)
    spec = RunSpec(
        kernel=kernel,
        organization=organization,
        length=length,
        fifo_depth=fifo_depth,
        stride=stride,
        alignment=alignment,
        **simulate_kwargs,
    )
    return _simulate(spec, obs=obs)
