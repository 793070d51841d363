"""The MJ runtime: values, event stream, deterministic scheduler, interpreter."""

from .events import (
    AccessEvent,
    EventSink,
    LocationInterner,
    LogCorruptError,
    LogNotFoundError,
    LogSchemaError,
    LogSchemaMismatchError,
    MemoryLocation,
    MulticastSink,
    ObjectKind,
    RecordingSink,
    replay_entries,
    validate_entries,
)
from .binlog import (
    BinaryLogReader,
    BinaryLogSink,
    LogStatsSink,
    log_source,
    open_log,
    temporary_binary_log,
    write_binary_log,
)
from .compiled import CompiledInterpreter
from .interpreter import Frame, Interpreter, RunResult, run_program

#: Engine registry: name -> :class:`Interpreter` class.  Every entry
#: point that executes MJ (CLI, harness, difflab, replay) selects
#: through this table so engines stay interchangeable.  The harness
#: constructs the engine separately from running it, keeping code
#: generation outside its timed region.
ENGINES = {
    "ast": Interpreter,
    "compiled": CompiledInterpreter,
}

#: The default engine; the AST interpreter remains the reference
#: semantics that the compiled engine is differentially tested against.
#: ``REPRO_ENGINE`` overrides the default process-wide — CI uses it to
#: run the whole tier-1 suite under each engine without touching tests.
import os as _os

DEFAULT_ENGINE = _os.environ.get("REPRO_ENGINE", "ast")
if DEFAULT_ENGINE not in ENGINES:
    raise ValueError(
        f"REPRO_ENGINE={DEFAULT_ENGINE!r} is not an engine "
        f"(choose from: {', '.join(sorted(ENGINES))})"
    )


def engine_class(engine: str):
    """Resolve an engine name to its :class:`Interpreter` subclass."""
    try:
        return ENGINES[engine]
    except KeyError:
        known = ", ".join(sorted(ENGINES))
        raise ValueError(f"unknown engine {engine!r} (choose from: {known})")


def engine_runner(engine: str):
    """Resolve an engine name to a :func:`run_program`-compatible
    runner: ``runner(resolved, **options)`` constructs the engine and
    runs it once."""
    cls = engine_class(engine)
    return lambda resolved, **options: cls(resolved, **options).run()

from .replay import (
    FallbackReplayPolicy,
    RecordingPolicy,
    ReplayDivergence,
    ReplayPolicy,
    ScheduleTrace,
    TraceExhausted,
    record_run,
    replay_run,
)
from .scheduler import (
    DeadlockError,
    RandomPolicy,
    RoundRobinPolicy,
    Scheduler,
    SchedulingPolicy,
    StepLimitExceeded,
    ThreadState,
    ThreadStatus,
)
from .values import MJArray, MJClassObject, MJObject, Monitor, Reference, mj_repr

__all__ = [
    "AccessEvent",
    "CompiledInterpreter",
    "DEFAULT_ENGINE",
    "DeadlockError",
    "ENGINES",
    "EventSink",
    "FallbackReplayPolicy",
    "Frame",
    "Interpreter",
    "LocationInterner",
    "LogSchemaError",
    "MJArray",
    "MJClassObject",
    "MJObject",
    "MemoryLocation",
    "Monitor",
    "MulticastSink",
    "ObjectKind",
    "RandomPolicy",
    "RecordingPolicy",
    "RecordingSink",
    "ReplayDivergence",
    "ReplayPolicy",
    "ScheduleTrace",
    "Reference",
    "RoundRobinPolicy",
    "RunResult",
    "Scheduler",
    "SchedulingPolicy",
    "StepLimitExceeded",
    "ThreadState",
    "ThreadStatus",
    "TraceExhausted",
    "engine_class",
    "engine_runner",
    "mj_repr",
    "record_run",
    "replay_entries",
    "replay_run",
    "run_program",
    "validate_entries",
]
