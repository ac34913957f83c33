"""Runtime hooks: opt-in verification of every compiled program.

``--check`` on ``run``/``sweep``/``dse run`` flips a process-wide flag
(mirrored into the ``REPRO_CHECK`` environment variable so process-pool
workers inherit it); while it is set, the compile pipeline and the sweep
executor pass every program through :func:`verify_or_raise` -- the full
static verifier plus the race detector -- and abort with
:class:`StaticAnalysisError` on the first error-severity finding.

Verification is memoized per program instance (an attribute stamped on the
program, same trick as the engine's ``_sim_columns`` cache), so a cached
program re-simulated across a 96-point sweep is verified once.  The
off-path cost when the flag is unset is one truthiness test; the
``bench_check.py`` benchmark holds it under the same <1% budget as the
disabled-span fast path.

Emits ``check.verify`` / ``check.races`` spans and ``check.programs`` /
``check.findings`` / ``check.errors`` counters on the PR 7 registry.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.analyze.diagnostics import Report, merge_reports
from repro.analyze.races import detect_races
from repro.analyze.verifier import verify_program
from repro.isa.program import QCCDProgram
from repro.obs.metrics import registry as _metrics_registry
from repro.obs.trace import span

#: Environment variable carrying the flag across process boundaries.
ENV_FLAG = "REPRO_CHECK"

_enabled: Optional[bool] = None


class StaticAnalysisError(ValueError):
    """A compiled program failed static verification under ``--check``."""

    def __init__(self, report: Report) -> None:
        super().__init__(report.format())
        self.report = report


def checks_enabled() -> bool:
    """Whether ``--check`` verification is active in this process."""

    if _enabled is not None:
        return _enabled
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def enable_checks(enabled: bool = True) -> None:
    """Turn runtime verification on (or off) for this process and children.

    The environment mirror is what carries the flag into pool workers --
    they are spawned after the CLI parses ``--check`` and re-read the
    variable on import of this module's callers.
    """

    global _enabled
    _enabled = enabled
    if enabled:
        os.environ[ENV_FLAG] = "1"
    else:
        os.environ.pop(ENV_FLAG, None)


def reset_checks() -> None:
    """Forget any explicit setting; fall back to the environment (tests)."""

    global _enabled
    _enabled = None


def verify_or_raise(program: QCCDProgram, device=None, *,
                    races: bool = True) -> None:
    """Verify ``program`` (once per instance), raising on error findings."""

    if getattr(program, "_analyze_ok", None) is program.operations:
        return
    registry = _metrics_registry()
    registry.counter("check.programs").inc()
    with span("check.verify", ops=len(program.operations)):
        report = verify_program(program, device)
    if races:
        with span("check.races"):
            report = merge_reports([report, detect_races(program)])
    registry.counter("check.findings").inc(len(report))
    errors = report.errors
    if errors:
        registry.counter("check.errors").inc(len(errors))
        raise StaticAnalysisError(report)
    program._analyze_ok = program.operations
