"""Spans around calls into each layer, recorded from outside ``src/``.

:class:`Tracer` patches public functions and methods for the length of
one traced pass and restores them afterwards.  Synchronous calls get
wall-clock spans; generator calls that advance simulated time get
simulated-time spans read from ``sim.now``.  A span records its name,
clock, start, end and parent; the spans of one deploy, broadcast or
fuzz iteration share the id of their root span.  Spans stay in memory
until :meth:`Tracer.write` is called at the end of the run.

Generator spans keep the parent chain exact across interleaved
simulated processes: the wrapper drives the wrapped generator itself
and marks its span current only while that generator runs.  A
broadcast leg runs in its own simulated process, so calls on a target
inside a broadcast are parented to the broadcast through the target's
CodeFlow.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Optional

WALL, SIM = "wall", "sim"
#: Parent placeholder: whichever span is running when the call starts.
_CURRENT = object()


class Span:
    __slots__ = ("sid", "name", "clock", "start", "end", "parent")

    def __init__(self, sid, name, clock, start, parent):
        self.sid = sid
        self.name = name
        self.clock = clock
        self.start = start
        self.end = None
        self.parent = parent


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.current: Optional[Span] = None
        #: id(CodeFlow) -> the broadcast span currently updating it.
        self._broadcast_of: dict[int, Span] = {}
        #: id(DeployReport) -> the inject span that produced it.
        self._inject_of: dict[int, Span] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name, clock, start, parent=_CURRENT) -> Span:
        span = Span(len(self.spans), name, clock, start,
                    self.current if parent is _CURRENT else parent)
        self.spans.append(span)
        return span

    def wall(self, name: str, fn, parents: bool = True):
        """Wall-clock span around ``fn``; with ``parents`` off (the
        event loop) calls made inside it keep their enclosing parent."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name, WALL, time.perf_counter())
            prev = tracer.current
            if parents:
                tracer.current = span
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.current = prev

        return traced

    def sim(self, name: str, genfn, target_of=None, claims=None):
        """Simulated-time span around generator method ``genfn``.

        ``target_of(self, args, kwargs)`` names the CodeFlow a call acts
        on, so a call inside a broadcast leg finds its broadcast;
        ``claims(self)`` lists the CodeFlows a broadcast span owns while
        it is open.
        """
        tracer = self

        def traced(owner, *args, **kwargs):
            parent = _CURRENT
            if target_of is not None:
                parent = tracer._broadcast_of.get(
                    id(target_of(owner, args, kwargs)), _CURRENT
                )
            clock = owner.sim
            span = tracer._open(name, SIM, clock.now, parent)
            claimed = [id(cf) for cf in claims(owner)] if claims else []
            for key in claimed:
                tracer._broadcast_of[key] = span
            gen = genfn(owner, *args, **kwargs)
            value, exc = None, None
            try:
                while True:
                    prev, tracer.current = tracer.current, span
                    try:
                        if exc is None:
                            yielded = gen.send(value)
                        else:
                            yielded = gen.throw(exc)
                    except StopIteration as stop:
                        if name == "control.inject":
                            # A serve ticket adopts the inject span that
                            # produced its report (see _submit_wrapper).
                            tracer._inject_of[id(stop.value)] = span
                        return stop.value
                    finally:
                        tracer.current = prev
                    try:
                        value, exc = (yield yielded), None
                    except BaseException as err:  # re-thrown into ``gen``
                        value, exc = None, err
            finally:
                span.end = clock.now
                for key in claimed:
                    tracer._broadcast_of.pop(key, None)

        return traced

    def count(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every traced call site; :meth:`uninstall` undoes it."""
        from repro.core import control_plane
        from repro.core.broadcast import CodeFlowGroup
        from repro.core.codeflow import CodeFlow
        from repro.core.control_plane import RdxControlPlane
        from repro.ebpf import program
        from repro.ebpf.interpreter import Interpreter
        from repro.fuzz import engine
        from repro.hb import checker
        from repro.hb import events as hb_events
        from repro.obs.flight import FlightRecorder
        from repro.obs.segment import TelemetrySegment
        from repro.serve import DeployService
        from repro.sim.core import Simulator
        from repro.sim.trace import TraceRecorder

        wall = [
            (control_plane, "verify", "ebpf.verify"),
            (control_plane, "jit_compile", "ebpf.jit"),
            (program, "encode_program", "ebpf.encode"),
            (Interpreter, "run", "ebpf.interp"),
            (FlightRecorder, "note_metrics", "obs.flight"),
            (checker, "check_recorder", "hb.check"),
            (checker, "extract", "hb.extract"),
            (hb_events, "extract", "hb.extract"),
            (engine, "run_plan", "fuzz.run_plan"),
        ]
        for owner, attr, name in wall:
            self._patch(owner, attr, self.wall(name, owner.__dict__[attr]))
        for attr in ("run", "run_process"):
            self._patch(
                Simulator, attr,
                self.wall("sim.loop", Simulator.__dict__[attr], parents=False),
            )

        def flow_arg(owner, args, kwargs):
            return args[0] if args else kwargs.get("codeflow")

        def flow_self(owner, args, kwargs):
            return owner

        sims = [
            (RdxControlPlane, "inject", "control.inject", flow_arg),
            (RdxControlPlane, "prepare", "control.prepare", None),
            (CodeFlow, "link_code", "codeflow.link", flow_self),
            (CodeFlow, "deploy_prog", "codeflow.deploy", flow_self),
        ]
        for owner, attr, name, target_of in sims:
            self._patch(
                owner, attr, self.sim(name, owner.__dict__[attr], target_of)
            )
        self._patch(
            CodeFlowGroup, "broadcast",
            self.sim(
                "broadcast", CodeFlowGroup.__dict__["broadcast"],
                claims=lambda group: group.codeflows,
            ),
        )
        self._patch(
            DeployService, "submit",
            self._submit_wrapper(DeployService.__dict__["submit"]),
        )
        self._patch(
            TraceRecorder, "record",
            self.count("obs.trace_records", TraceRecorder.__dict__["record"]),
        )
        for attr in ("inc", "set_gauge", "observe", "note_exec"):
            self._patch(
                TelemetrySegment, attr,
                self.count("obs.segment_stores", TelemetrySegment.__dict__[attr]),
            )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _submit_wrapper(self, submit):
        tracer = self

        def wrapper(service, *args, **kwargs):
            ticket = submit(service, *args, **kwargs)
            if not ticket.accepted:
                return ticket
            span = tracer._open("serve.ticket", SIM, ticket.submitted_us, None)

            def close(_event):
                # The worker's inject span joins the ticket it served.
                span.end = service.sim.now
                inject = tracer._inject_of.pop(id(ticket.report), None)
                if inject is not None:
                    inject.parent = span

            ticket.done.callbacks.append(close)
            return ticket

        return wrapper

    # -- reporting ----------------------------------------------------------------

    def root_of(self, span: Span) -> Span:
        while span.parent is not None:
            span = span.parent
        return span

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self time).  Self time is a span's duration
        minus the part of it its same-clock children cover, in that
        clock's unit (wall s, simulated us).  Wall spans of one thread
        nest in time, so a wall span's children are the wall spans it
        directly encloses; a simulated span's children are the
        simulated spans whose nearest simulated ancestor it is."""
        done = [span for span in self.spans if span.end is not None]
        children: dict[int, list] = {}
        stack: list[Span] = []
        for span in sorted(
            (s for s in done if s.clock == WALL), key=lambda s: (s.start, -s.end)
        ):
            while stack and stack[-1].end <= span.start:
                stack.pop()
            if stack:
                children.setdefault(stack[-1].sid, []).append((span.start, span.end))
            stack.append(span)
        for span in done:
            if span.clock != SIM:
                continue
            up = span.parent
            while up is not None and up.clock != SIM:
                up = up.parent
            if up is not None:
                children.setdefault(up.sid, []).append((span.start, span.end))
        totals: dict[str, list] = {}
        for span in done:
            covered = 0.0
            edge = span.start
            for start, end in sorted(children.get(span.sid, ())):
                start, end = max(start, edge), min(end, span.end)
                if end > start:
                    covered += end - start
                    edge = end
            entry = totals.setdefault(span.name, [0, 0.0])
            entry[0] += 1
            entry[1] += (span.end - span.start) - covered
        return {name: (calls, own) for name, (calls, own) in totals.items()}

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans
                if s.name == name and s.end is not None]

    def write(self, path: str) -> None:
        """One JSON line per span: name, clock, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.sid,
                    "name": span.name,
                    "clock": span.clock,
                    "start": span.start,
                    "end": span.end,
                    "parent": None if span.parent is None else span.parent.sid,
                    "op": self.root_of(span).sid,
                }) + "\n")
