"""The artifact store: §3.2's "validate once, deploy anywhere" cache.

Two stages, owned by the control plane (DESIGN.md §11):

* **compiled** -- a validated + JIT-compiled binary, keyed by
  everything validate and JIT read: image tag, arch, the map names,
  each map slot's ``(key_size, value_size)`` and the ctx size, so a
  binary is only reused where its verification holds.  Single-flight
  on misses; LRU under :data:`repro.params.RDX_REGISTRY_CAP`.
* **linked** -- a compiled artifact patched for one target layout,
  keyed by (compiled key, GOT-layout fingerprint).  The fingerprint
  hashes the resolved addresses and is recomputed against the live
  layout on every lookup, so address churn misses instead of serving
  stale bytes.  Only a validated compile is ever linked in here.  LRU
  under :data:`repro.params.RDX_LINKED_CAP`, independent of the
  compiled stage, so a linked entry outlives its compiled one.

The serial arm (``RDX_PIPELINED_DEPLOY=0``) never touches the linked
stage.  This is the only module that builds or reads a store key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro import params
from repro.ebpf.jit import JitBinary
from repro.ebpf.program import BpfProgram
from repro.ebpf.verifier import VerifierStats
from repro.obs import telemetry_of
from repro.obs.spans import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.codeflow import CodeFlow
    from repro.core.control_plane import RdxControlPlane


@dataclass
class CompiledArtifact:
    """One validated + compiled program (the compiled stage's value)."""

    key: tuple
    program: BpfProgram
    arch: str
    stats: VerifierStats
    binary: JitBinary


@dataclass
class LinkedArtifact:
    """A compiled artifact linked for one GOT layout."""

    linked: JitBinary
    #: (arch, fingerprint): what a delta deploy must find unchanged.
    layout: tuple
    #: ``(RelocKind, symbol)`` pairs re-resolved on every lookup.
    relocs: tuple


class ArtifactStore:
    """The control plane's compiled + linked artifact cache."""

    def __init__(self, control_plane: "RdxControlPlane"):
        self.plane = control_plane
        self.obs = telemetry_of(control_plane.sim)
        #: compiled key -> CompiledArtifact; dict order is the LRU list.
        self.compiled: dict[tuple, CompiledArtifact] = {}
        #: compiled key -> in-flight compile event (single flight).
        self._inflight: dict[tuple, object] = {}
        #: (compiled key, fingerprint) -> LinkedArtifact; LRU order.
        self.linked: dict[tuple, LinkedArtifact] = {}
        #: compiled key -> fingerprints resident for it, so a lookup
        #: probes one index entry instead of scanning the stage.
        self._layouts: dict[tuple, set[int]] = {}
        #: Serve telemetry segment mirroring the ``warm.*`` counters
        #: (installed by :class:`repro.serve.DeployService`).
        self.segment = None
        self.cache_hits = 0
        self.cache_evictions = 0
        self.prepare_coalesced = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: reason -> count; every linked-stage miss is attributed.
        self.miss_reasons: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.linked)

    @staticmethod
    def key(program: BpfProgram, arch: str, maps=(), ctx_size: int = 256) -> tuple:
        """The compiled-stage key: everything validate and JIT read."""
        return (
            program.tag(),
            arch,
            tuple(program.map_names),
            tuple((m.key_size, m.value_size) for m in maps),
            ctx_size,
        )

    # -- compiled stage --------------------------------------------------------

    def compile(
        self,
        program: BpfProgram,
        maps=(),
        arch: str = "x86_64",
        ctx_size: int = 256,
        principal=None,
        parent_span: Optional[Span] = None,
    ) -> Generator:
        """Process body: the compiled artifact for ``program``.

        The first miss on a key becomes the leader and runs
        validate+JIT; everyone else parks on its in-flight event and
        receives the same artifact -- N parallel injects of one
        program cost exactly one compile.  A leader failure
        propagates to every waiter and clears the in-flight slot so a
        later retry compiles fresh.
        """
        key = self.key(program, arch, maps, ctx_size)
        entry = self.compiled.get(key)
        if entry is not None:
            self.cache_hits += 1
            self.obs.counter("rdx.cache.hit").inc()
            self.compiled[key] = self.compiled.pop(key)  # LRU touch
            return entry
        pending = self._inflight.get(key)
        if pending is not None:
            self.prepare_coalesced += 1
            self.obs.counter("rdx.prepare.coalesced").inc()
            entry = yield pending
            return entry
        self.obs.counter("rdx.cache.miss").inc()
        done = self.plane.sim.event()
        self._inflight[key] = done
        try:
            stats = yield from self.plane.validate_code(
                program, maps, ctx_size=ctx_size, principal=principal,
                parent_span=parent_span,
            )
            binary = yield from self.plane.jit_compile_code(
                program, arch=arch, principal=principal, parent_span=parent_span
            )
        except BaseException as err:
            self._inflight.pop(key, None)
            done.fail(err)
            raise
        entry = CompiledArtifact(key, program, arch, stats, binary)
        self.compiled[key] = entry
        while len(self.compiled) > params.RDX_REGISTRY_CAP:
            del self.compiled[next(iter(self.compiled))]
            self.cache_evictions += 1
            self.obs.counter("rdx.cache.evict").inc()
        self._inflight.pop(key, None)
        done.succeed(entry)
        return entry

    # -- linked stage ----------------------------------------------------------

    def _find(self, codeflow: "CodeFlow", key: tuple) -> tuple:
        """(LinkedArtifact or None, miss reason) against the live layout."""
        fingerprints = self._layouts.get(key)
        if not fingerprints:
            return None, "absent"
        # Every entry of one compiled key has the same relocations, so
        # one entry's relocs give the target's fingerprint for all.
        some = self.linked[(key, next(iter(fingerprints)))]
        fingerprint = codeflow.layout_fingerprint(some.relocs)
        if fingerprint is None:
            return None, "unresolved"
        if fingerprint not in fingerprints:
            # Layout churn: the resident images would be byte-wrong here.
            return None, "layout-changed"
        return self.linked[(key, fingerprint)], ""

    def lookup(
        self, codeflow: "CodeFlow", key: tuple, parent_span: Optional[Span] = None
    ) -> Generator:
        """Process body: probe the linked stage for ``key`` on ``codeflow``.

        A hit charges one control-plane probe and returns the
        :class:`LinkedArtifact`; a miss charges nothing, counts its
        reason and returns None.
        """
        entry, reason = self._find(codeflow, key)
        if entry is None:
            self.misses += 1
            self.miss_reasons[reason] = self.miss_reasons.get(reason, 0) + 1
            self.obs.counter("rdx.link.cache_miss", reason=reason).inc()
            self._mirror("warm.miss")
            return None
        full = (key, entry.layout[1])
        self.linked[full] = self.linked.pop(full)  # LRU touch
        self.hits += 1
        self.obs.counter("rdx.link.cache_hit").inc()
        self._mirror("warm.hit")
        with self.obs.span(
            "rdx.link", parent=parent_span, target=codeflow.sandbox.name,
            cached=True,
        ):
            yield from self.plane.host.cpu.run(params.RDX_LINK_CACHE_LOOKUP_US)
        return entry

    def insert(
        self, codeflow: "CodeFlow", key: tuple, binary: JitBinary,
        linked: JitBinary,
    ) -> Optional[LinkedArtifact]:
        """Store ``linked`` (``binary`` patched for ``codeflow``).

        Returns the stored artifact, or None when a relocation does not
        resolve on the target (nothing is stored then).
        """
        relocs = tuple((r.kind, r.symbol) for r in binary.relocations)
        fingerprint = codeflow.layout_fingerprint(relocs)
        if fingerprint is None:
            return None
        entry = LinkedArtifact(linked, (binary.arch, fingerprint), relocs)
        self.linked.pop((key, fingerprint), None)
        self.linked[(key, fingerprint)] = entry
        self._layouts.setdefault(key, set()).add(fingerprint)
        while len(self.linked) > params.RDX_LINKED_CAP:
            self._evict(next(iter(self.linked)))
        return entry

    def _evict(self, full: tuple) -> None:
        key, fingerprint = full
        del self.linked[full]
        survivors = self._layouts[key]
        survivors.discard(fingerprint)
        if not survivors:
            del self._layouts[key]
        self.evictions += 1
        self.obs.counter("rdx.link.cache_evict").inc()
        self._mirror("warm.evict")

    def _mirror(self, name: str) -> None:
        if self.segment is not None:
            self.segment.inc(name)

    # -- operations ------------------------------------------------------------

    def prewarm(
        self, codeflow: "CodeFlow", program: BpfProgram, maps=(), principal=None
    ) -> Generator:
        """Process body: compile and link ``program`` for ``codeflow``.

        Off the critical path, no deploy: a fleet's dominant layouts
        can be warmed at service start so even a program's *first*
        deploy to a target is a linked hit.  Not a deploy lookup, so
        it moves no hit/miss counter.  Returns whether the linked stage
        now holds the image (never on the serial arm).
        """
        entry = yield from self.plane.prepare_for(
            codeflow, program, maps=maps, principal=principal
        )
        found = self._find(codeflow, entry.key)[0]
        if found is None:
            yield from codeflow.link_code(entry.binary, key=entry.key)
            found = self._find(codeflow, entry.key)[0]
        return found is not None
