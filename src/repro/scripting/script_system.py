"""ScriptSystem: designer scripts as first-class scheduled systems.

    "As scripts are sometimes processed every animation frame, seemingly
    innocuous code can cripple the performance of a game."

A :class:`ScriptSystem` runs a compiled GSL script once per scheduled
tick (the script sees ``dt`` and ``tick`` bindings plus the full stdlib).
Two protections wrap it, because designer code must not take the server
down:

* a per-frame **instruction budget** — overruns are counted, optionally
  auto-disabling the script after ``max_strikes`` (the "three strikes"
  policy live games actually use); and
* an **error quarantine** — a script exception disables that script and
  raises a ``script.error`` engine event instead of unwinding the tick.

Construction runs the static cost analyzer; a script whose estimated
degree exceeds ``max_degree`` is rejected at *registration* time, which
is where a studio pipeline wants the failure.
"""

from __future__ import annotations

from typing import Any

from repro.core.systems import System
from repro.errors import BudgetExceededError, ScriptError, ScriptRuntimeError
from repro.scripting.analyzer import CostAnalyzer
from repro.scripting.batch_lowering import lower_script
from repro.scripting.interpreter import CompiledScript, Interpreter
from repro.scripting.restrictions import LanguageProfile, UNRESTRICTED
from repro.scripting.stdlib import build_stdlib


class ScriptSystem(System):
    """Run one GSL script per scheduled frame, with guard rails.

    Parameters
    ----------
    name:
        Scheduler name (also used in ``script.error`` events).
    source:
        GSL source; compiled (and restriction-checked) immediately.
    profile:
        Language profile; its instruction budget is enforced per frame.
    interval:
        Run every Nth tick (AI throttling).
    max_degree:
        Reject the script at construction when the static analyzer
        estimates a higher polynomial degree in the entity count
        (``None`` disables the gate).
    max_strikes:
        Budget overruns/errors tolerated before the script is disabled
        (``None`` = never auto-disable).
    batch:
        ``"auto"`` (default) lowers eligible per-entity loops to
        set-at-a-time execution (see
        :mod:`repro.scripting.batch_lowering`); ``"off"`` always runs the
        interpreter.  Lowering is only attempted for profiles without an
        instruction budget, because batched frames bypass the meter.
    """

    def __init__(
        self,
        name: str,
        source: str,
        profile: LanguageProfile = UNRESTRICTED,
        interval: int = 1,
        max_degree: int | None = None,
        max_strikes: int | None = 3,
        batch: str = "auto",
    ):
        super().__init__(name, interval=interval)
        self.compiled = CompiledScript(source, profile, source_name=f"system:{name}")
        if max_degree is not None:
            report = CostAnalyzer().analyze(self.compiled.tree)
            if report.worst_degree > max_degree:
                worst = report.worst()
                detail = f": {worst.message} (line {worst.line})" if worst else ""
                raise ScriptError(
                    f"script system {name!r} rejected: estimated "
                    f"O(n^{report.worst_degree}) exceeds the allowed "
                    f"O(n^{max_degree}){detail}"
                )
        if batch not in ("auto", "off"):
            raise ScriptError(
                f"script system {name!r}: batch must be 'auto' or 'off', "
                f"got {batch!r}"
            )
        self.profile = profile
        self.max_strikes = max_strikes
        self.strikes = 0
        self.overruns = 0
        self.errors = 0
        self.instructions_last_run = 0
        self.batch = batch
        self.batched_runs = 0
        self.lowered = None
        if batch == "auto" and profile.instruction_budget is None:
            self.lowered = lower_script(self.compiled.tree)
        self._interpreter: Interpreter | None = None

    def run(self, world: Any, dt: float) -> None:
        """Execute one frame of the script under the guard rails.

        When the world's tracer is enabled the frame gets a
        ``script:<name>`` span carrying the executed instruction count;
        the count also feeds a ``script.instructions`` counter when the
        world's obs bundle carries a metrics registry.
        """
        obs = getattr(world, "obs", None)
        tracer = obs.tracer if obs is not None else None
        if tracer is None or not tracer.enabled:
            self._run_guarded(world, dt, obs)
            return
        with tracer.span(f"script:{self.name}", cat="script") as sp:
            self._run_guarded(world, dt, obs)
            sp.set(instructions=self.instructions_last_run, strikes=self.strikes)

    def _run_guarded(self, world: Any, dt: float, obs: Any = None) -> None:
        self.runs += 1
        if self.lowered is not None and self.lowered.execute(
            world, {"dt": dt, "tick": world.clock.tick}
        ):
            # Set-at-a-time frame: interpreter dispatch never ran, so no
            # instructions were metered.  A False return above means the
            # batch aborted before any write; the interpreter then runs
            # the frame normally (and reports errors with full fidelity).
            self.batched_runs += 1
            self.instructions_last_run = 0
            return
        interp = self._interpreter
        if interp is None or interp.world is not world:
            interp = Interpreter(world, build_stdlib(world))
            self._interpreter = interp
        before = interp.instructions_executed
        try:
            interp.run(
                self.compiled,
                {"dt": dt, "tick": world.clock.tick},
            )
        except BudgetExceededError:
            self.overruns += 1
            self._strike(world, "budget")
        except ScriptRuntimeError as exc:
            self.errors += 1
            self._strike(world, f"error: {exc}")
        finally:
            self.instructions_last_run = interp.instructions_executed - before
            if obs is not None and obs.metrics is not None:
                obs.metrics.counter(
                    "script.instructions", system=self.name
                ).inc(self.instructions_last_run)

    def _strike(self, world: Any, reason: str) -> None:
        self.strikes += 1
        disabled = (
            self.max_strikes is not None and self.strikes >= self.max_strikes
        )
        if disabled:
            self.enabled = False
        world.emit(
            "script.error",
            {
                "system": self.name,
                "reason": reason,
                "strikes": self.strikes,
                "disabled": disabled,
            },
        )


def add_script_system(
    world: Any,
    name: str,
    source: str,
    profile: LanguageProfile = UNRESTRICTED,
    priority: int = 100,
    interval: int = 1,
    max_degree: int | None = None,
    max_strikes: int | None = 3,
    batch: str = "auto",
) -> ScriptSystem:
    """Compile, gate, and register a script system in one call."""
    system = ScriptSystem(
        name, source, profile,
        interval=interval, max_degree=max_degree, max_strikes=max_strikes,
        batch=batch,
    )
    world.add_system(system, priority=priority)
    return system
