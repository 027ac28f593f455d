"""Shift-sweep dispatcher: the scalar oracle or the one stream kernel.

The paper's asynchronous rendezvous guarantee (Section 2) quantifies
over *all* relative wake-up offsets, and its Table-1 comparison rests
on worst-case TTRs — so honest reproduction means exhaustive shift
sweeps, not samples.  The scalar path in
:mod:`repro.core.verification` answers "when do these two schedules
first coincide at relative shift ``s``?" one shift at a time; the
streaming row-table kernel of :mod:`repro.core.stream` answers it for
a whole shift set in one vectorized pass (methodology write-up:
``docs/BENCHMARKS.md``):

* a shift only enters the comparison through the pair of phase offsets
  ``(s mod period_A, 0)`` (``s >= 0``: B wakes later) or
  ``(0, -s mod period_B)`` (``s < 0``), so shifts are deduplicated down
  to their distinct offset pairs before any work happens;
* coincidence tiles come from the cheapest source each schedule offers
  — window views of a warm period table, a closed-form
  ``channel_block`` / ``channel_gather``, or a store memmap slice;
* the scan stops at ``lcm(period_A, period_B)`` slots even when the
  caller's horizon is larger: the joint pattern is periodic, so a shift
  silent for a full joint period never rendezvouses.

``ttr_sweep`` is the engine *dispatcher*: tiny joint periods go to the
scalar reference loop (vectorized setup would dominate) and everything
else to the stream kernel — correctness never depends on the path, and
``engine=`` forces one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from repro.core import stream as _stream
from repro.core import telemetry
from repro.core.environment import Environment, effective_horizon
from repro.core.schedule import Schedule

__all__ = [
    "ttr_sweep",
    "choose_engine",
    "SCALAR_JOINT_LIMIT",
    "ENGINES",
]

#: Joint periods (lcm of the pair) at or below this go to the scalar
#: reference loop under ``engine="auto"`` — at this size the stream
#: kernel's vectorized setup costs more than the whole scan.
SCALAR_JOINT_LIMIT = 64

#: Valid values for the ``engine`` selector.
ENGINES = ("auto", "stream", "scalar")


def ttr_sweep(
    a: Schedule | np.ndarray,
    b: Schedule | np.ndarray,
    shifts: Iterable[int],
    horizon: int,
    engine: str = "auto",
    tile_bytes: int | None = None,
    stream_workers: int | None = None,
    checkpoint: _stream.SweepCheckpoint | None = None,
    environment: Environment | None = None,
) -> dict[int, int | None]:
    """TTR for every relative shift, in one streamed pass.

    Semantics are identical to calling
    :func:`repro.core.verification.ttr_for_shift` per shift: the result
    maps each shift to the first slot (counted from the later wake-up)
    where the schedules coincide, or ``None`` when no coincidence occurs
    within ``horizon`` slots.

    ``engine`` selects the execution path (see :data:`ENGINES`):
    ``"auto"`` — the default — resolves through :func:`choose_engine`
    (the scalar loop for tiny joint periods, the stream kernel
    otherwise); the explicit names force one path.  Every call counts
    the engine that ran as ``dispatch.engine.<name>`` and, under
    ``"auto"``, the rule that picked it as ``dispatch.rule.<name>``.
    ``tile_bytes`` pins the streaming tile budget and ``stream_workers``
    the stream kernel's intra-pair thread lanes (both ``None`` by
    default: the auto-tuner sizes tiles from the machine's cache
    topology and uses one lane per CPU — see
    :func:`repro.core.stream.plan_tiles` and ``docs/TUNING.md``).  Both
    engines return bit-identical results.

    ``checkpoint`` attaches a
    :class:`~repro.core.stream.SweepCheckpoint` for a resumable scan;
    checkpointing is a stream-kernel feature, so ``"auto"`` then
    dispatches straight to the stream path and forcing ``"scalar"``
    raises ``ValueError``.

    Either side may be a raw 1-D period array instead of a
    :class:`~repro.core.schedule.Schedule` — e.g. a read-only memmap
    attached from a :class:`~repro.core.store.ScheduleStore`.  An
    int64 table is used as-is, never copied (other dtypes are
    converted once): the array *is* the period table, its length the
    period.

    ``environment`` applies a deterministic per-slot validity mask
    (:mod:`repro.core.environment`) to every coincidence, evaluated on
    the TTR clock — bit-identical across both engines.  An aperiodic
    mask disables the lcm early-stop: the scan then covers the caller's
    full horizon (:func:`repro.core.environment.effective_horizon`).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if checkpoint is not None and engine == "scalar":
        raise ValueError(
            f"checkpointing needs the streaming engine, got engine={engine!r}"
        )
    a = _coerce_schedule(a)
    b = _coerce_schedule(b)
    shift_list = [int(s) for s in shifts]
    if not shift_list:
        return {}
    if horizon <= 0:
        return {s: None for s in shift_list}
    if engine == "auto":
        engine, rule = _dispatch(a, b, checkpoint is not None)
        telemetry.count(f"dispatch.rule.{rule}")
    telemetry.count(f"dispatch.engine.{engine}")
    if engine == "scalar":
        # The joint pattern repeats every lcm slots, so capping the
        # scalar scan there preserves every answer (including misses) —
        # unless an aperiodic environment mask breaks the periodicity
        # argument, in which case the full horizon is scanned.
        joint = math.lcm(a.period, b.period)
        return _scalar_sweep(
            a, b, shift_list, effective_horizon(horizon, joint, environment),
            environment,
        )
    return _stream.ttr_sweep_stream(
        a,
        b,
        shift_list,
        horizon,
        tile_bytes=tile_bytes,
        workers=stream_workers,
        checkpoint=checkpoint,
        environment=environment,
    )


def choose_engine(
    a: Schedule | np.ndarray,
    b: Schedule | np.ndarray,
    num_shifts: int,
    checkpoint: bool = False,
) -> str:
    """The engine ``engine="auto"`` resolves to for one sweep shape.

    Pure decision function (no sweeping happens) — the single source of
    the auto-dispatch policy, exposed so tests can pin each regime and
    callers can preview a dispatch.  Returns ``"scalar"`` when the
    joint period is at most :data:`SCALAR_JOINT_LIMIT` (and no
    ``checkpoint`` is attached), ``"stream"`` otherwise.  Neither the
    shift count nor table warmth enters: the stream kernel reads warm
    tables through window views and cold ones through the schedule's
    chunk hooks.  ``num_shifts`` keeps the signature callers preview a
    sweep shape with.
    """
    return _dispatch(_coerce_schedule(a), _coerce_schedule(b), checkpoint)[0]


def _dispatch(a: Schedule, b: Schedule, checkpoint: bool) -> tuple[str, str]:
    """``(engine, rule)`` for ``engine="auto"``; the rule (``checkpoint``,
    ``tiny_joint`` or ``default``) names the ``dispatch.rule.*`` counter."""
    if checkpoint:
        return "stream", "checkpoint"
    if math.lcm(a.period, b.period) <= SCALAR_JOINT_LIMIT:
        return "scalar", "tiny_joint"
    return "stream", "default"


def _coerce_schedule(x: Schedule | np.ndarray) -> Schedule:
    """Shared raw-array adapter (see :func:`repro.core.store.coerce_schedule`)."""
    from repro.core.store import coerce_schedule

    return coerce_schedule(x)


def _scalar_sweep(
    a: Schedule,
    b: Schedule,
    shifts: list[int],
    horizon: int,
    environment: Environment | None = None,
) -> dict[int, int | None]:
    from repro.core.verification import ttr_for_shift

    with telemetry.span("scalar.sweep"):
        return {
            s: ttr_for_shift(a, b, s, horizon, environment=environment)
            for s in shifts
        }
