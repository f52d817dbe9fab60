"""CodeFlow: the per-target handle for remote extension lifecycle.

A CodeFlow binds the remote control plane to one sandbox (Fig 3).  All
its mutating operations are simulation processes (generators) because
they move real bytes over the simulated RDMA fabric; none of them
charge CPU time on the *target* host -- that is the agentless
property the experiments measure.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Generator, Optional, TYPE_CHECKING

from repro import params
from repro.errors import DeployError, StaleEpochError, XStateError
from repro.hb import events as hb
from repro.ebpf.jit import JitBinary, RelocKind
from repro.ebpf.maps import BpfMap
from repro.ebpf.program import BpfProgram
from repro.mem.memory import RegionAllocator
from repro.obs import target_label, telemetry_of
from repro.rdma.rnic import RNIC_MTU_BYTES
from repro.obs.spans import Span
from repro.sandbox.metadata import MetadataBlock, SLOT_DETACHED, SLOT_LIVE
from repro.sandbox.sandbox import Sandbox
from repro.core.linker import RemoteLinker
from repro.core.sync import RemoteSync
from repro.core.xstate import (
    RemoteScratchpad,
    XStateHandle,
    XStateSpec,
    encode_xstate_header,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.control_plane import RdxControlPlane

_deploy_ids = itertools.count(1)


@dataclass
class DeployReport:
    """Per-phase latency breakdown of one deployment (Fig 4b)."""

    deploy_id: int
    program_name: str
    started_us: float
    dispatch_us: float = 0.0
    link_us: float = 0.0
    write_us: float = 0.0
    commit_us: float = 0.0
    cc_us: float = 0.0
    total_us: float = 0.0
    #: Where the image landed -- the join key between this deploy's
    #: trace and the sandbox-side first-exec edge (obs/spans.py).
    code_addr: int = 0
    #: "full" (entire image staged into a fresh extent) or "delta"
    #: (only the dirty chunks written into the baseline extent).
    mode: str = "full"
    #: Dirty MTU chunks shipped (delta mode; 0 = metadata-only bump).
    delta_chunks: int = 0
    #: Bytes that crossed the wire for image + metadata descriptor.
    bytes_moved: int = 0
    #: Version of the baseline image the delta was diffed against.
    delta_base_version: int = 0
    #: True when the image came out of the artifact store's linked
    #: stage -- validate+JIT+link were all skipped.
    warm: bool = False

    def phases(self) -> dict[str, float]:
        return {
            "dispatch": self.dispatch_us,
            "link": self.link_us,
            "write": self.write_us,
            "commit": self.commit_us,
            "cc": self.cc_us,
        }


@dataclass
class DeployedProgram:
    """Control-plane record of one live extension on the target."""

    program: BpfProgram
    hook_name: str
    code_addr: int
    code_len: int
    metadata_slot: int
    version: int = 1
    #: Previous code addresses, newest last (rollback targets).
    history: list[int] = field(default_factory=list)
    #: Exact bytes of the live image (None when unknown, e.g. after a
    #: rollback flip) -- what the next deploy diffs against once this
    #: extent becomes the baseline.
    image: Optional[bytes] = None
    #: (arch, GOT-layout fingerprint) the image was linked under: what
    #: a delta deploy must find unchanged.
    layout: Optional[tuple] = None
    #: Superseded-but-resident extent kept alive as the delta diff
    #: base (None when no baseline is registered).
    baseline_addr: Optional[int] = None
    #: Exact bytes resident at ``baseline_addr``.
    baseline_image: Optional[bytes] = None
    #: Version the baseline image shipped as (delta provenance).
    baseline_version: int = 0


@dataclass
class _DeltaPlan:
    """A certified delta: which dirty spans go into which extent."""

    existing: DeployedProgram
    target_addr: int
    ranges: list[tuple[int, bytes]]
    base_version: int


def _delta_ranges(old: bytes, new: bytes) -> list[tuple[int, bytes]]:
    """Dirty spans of ``new`` against ``old`` at MTU-chunk granularity.

    One ``(offset, payload)`` entry per RNIC MTU chunk that differs,
    with the payload trimmed to the chunk's dirty span and widened to
    whole cache lines -- the coherence flush that follows operates on
    lines, so sub-line trims save nothing.
    """
    line = params.CACHE_LINE_BYTES
    ranges: list[tuple[int, bytes]] = []
    for base in range(0, len(new), RNIC_MTU_BYTES):
        old_chunk = old[base : base + RNIC_MTU_BYTES]
        new_chunk = new[base : base + RNIC_MTU_BYTES]
        if old_chunk == new_chunk:
            continue
        dirty = [
            index
            for index in range(len(new_chunk))
            if new_chunk[index] != old_chunk[index]
        ]
        lo = dirty[0] // line * line
        hi = min(len(new_chunk), (dirty[-1] // line + 1) * line)
        ranges.append((base + lo, new_chunk[lo:hi]))
    return ranges


class CodeFlow:
    """Handle bound to one remote sandbox (rdx_create_codeflow result)."""

    def __init__(
        self,
        control_plane: "RdxControlPlane",
        sandbox: Sandbox,
        sync: RemoteSync,
        helper_addresses: dict[str, int],
    ):
        self.control_plane = control_plane
        self.sim = control_plane.sim
        self.obs = telemetry_of(self.sim)
        self.sandbox = sandbox
        self.sync = sync
        manifest = sandbox.ctx_manifest
        if manifest is None:
            raise DeployError(f"{sandbox.name}: ctx_register has not run")
        self.manifest = manifest
        self.scratchpad = RemoteScratchpad(
            manifest.scratchpad_addr,
            manifest.scratchpad_bytes,
            manifest.meta_xstate_slots,
        )
        self.code_allocator = RegionAllocator(
            manifest.code_addr, manifest.code_bytes, label=f"{sandbox.name}.rcode"
        )
        self.linker = RemoteLinker(
            helper_addresses, self._map_address_of
        )
        self._metadata_used: set[int] = set()
        self.deployed: dict[str, DeployedProgram] = {}
        #: hook name -> program name currently owning that hook.
        self._hook_owner: dict[str, str] = {}
        self.reports: list[DeployReport] = []
        self._lock_token = 0xC0DE_0000 + sandbox.sandbox_id
        #: Tenant label stamped on this target's deploy metrics and
        #: trace roots (multi-tenant aggregation; "" = unowned).
        self.tenant = ""
        #: True when the last image came out of the artifact store's
        #: linked stage -- the fast deploy path then skips the stub
        #: rendezvous (the layout is already known).
        self._last_link_cached = False
        #: (arch, GOT fingerprint) of the last image linked or found
        #: here -- what certifies a delta deploy's layout assumption.
        #: None when the linked stage does not hold it.
        self._last_layout: Optional[tuple] = None
        #: Extents retired by the previous generation, freed only once
        #: the *next* commit CAS is visible (no in-flight exec can
        #: still be decoding them by then).
        self._retired: list[int] = []
        #: The deployment epoch this handle writes under (fencing token);
        #: set by :meth:`stamp_epoch` during rdx_create_codeflow.
        self.epoch = 0
        self.closed = False
        #: CPU pool that pays deploy dispatch cost.  None means the
        #: control plane's own cores; a tree-broadcast relay points it
        #: at the relaying sandbox's host while the relayed leg runs,
        #: so rack-scale fan-out does not serialize on one host's CPU.
        self.dispatch_cpu = None
        #: ((local verbs ctx, local qp), (target verbs ctx, target qp)),
        #: populated by the control plane for teardown.
        self._qp_pair: tuple = ()

    # -- deployment epochs (fencing) ------------------------------------------

    def _read_remote_epoch(self) -> Generator:
        raw = yield from self.sync.read(self.sandbox.epoch_addr, 8)
        return int.from_bytes(raw, "little")

    def stamp_epoch(self, epoch: int) -> Generator:
        """Install ``epoch`` as the target's fencing word.

        Epochs only move forward: if the target already carries a newer
        one, another control-plane incarnation owns it and this writer
        must stand down (:class:`StaleEpochError`) -- the CAS makes the
        read-check-write race-free against a concurrent claimant.
        """
        current = yield from self._read_remote_epoch()
        if current > epoch:
            self._fenced(current)
        if current != epoch:
            prior = yield from self.sync.cas(
                self.sandbox.epoch_addr, current, epoch
            )
            if prior != current:
                self._fenced(prior)
            self.sync.hb_epoch = epoch
            yield from self.sync.cc_event(self.sandbox.epoch_addr, 8)
        self.epoch = epoch
        self.sync.hb_epoch = epoch

    def check_fence(self) -> Generator:
        """Refuse to mutate a target whose epoch has moved past ours.

        One 8-byte read before any mutating bytes land; this is what
        keeps a stale control plane resuming after a partition from
        overwriting its successor's work.
        """
        current = yield from self._read_remote_epoch()
        if current > self.epoch:
            self._fenced(current)

    def _fenced(self, remote_epoch: int) -> None:
        self.obs.counter(
            "rdx.epoch.fenced",
            target=target_label(
                self.sandbox.name, self.control_plane.shard
            ),
        ).inc()
        raise StaleEpochError(
            f"{self.sandbox.name}: target epoch {remote_epoch} supersedes "
            f"ours ({self.epoch}); this control plane has been fenced"
        )

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        """Release the QP pair backing this handle (local teardown)."""
        if self.closed:
            return
        for ctx, qp in self._qp_pair:
            ctx.destroy_qp(qp)
        self.closed = True

    def _map_address_of(self, name: str) -> Optional[int]:
        handle = self.scratchpad.by_name(name)
        if handle is not None:
            return handle.data_addr
        # Fall back to maps the sandbox exported in its boot-time GOT.
        symbol = self.sandbox.got.lookup(name)
        if symbol is not None:
            return symbol.address
        return None

    # -- rdx_link_code -------------------------------------------------------

    def find_linked(
        self, key: tuple, parent_span: Optional[Span] = None
    ) -> Generator:
        """Probe the artifact store's linked stage for compiled ``key``.

        Returns the image linked for this target's *current* layout,
        or None on a miss -- and always on the serial arm, which never
        reads the linked stage.  A hit lets the deploy body skip the
        stub rendezvous: the layout is already known.
        """
        if not params.RDX_PIPELINED_DEPLOY:
            return None
        found = yield from self.control_plane.artifacts.lookup(
            self, key, parent_span=parent_span
        )
        if found is None:
            return None
        self._last_link_cached = True
        self._last_layout = found.layout
        return found.linked

    def link_code(
        self,
        binary: JitBinary,
        parent_span: Optional[Span] = None,
        key: Optional[tuple] = None,
    ) -> Generator:
        """Link ``binary`` against this target; returns the linked image.

        With ``key`` -- the compiled-stage key ``binary`` was stored
        under -- the pipelined arm stores the result in the linked
        stage for this target's GOT layout.  Without one (an
        unvalidated binary) nothing is stored.
        """
        self._last_link_cached = False
        plane = self.control_plane
        with self.obs.span("rdx.link", parent=parent_span, target=self.sandbox.name):
            linked, cost_us = self.linker.link(binary)
            yield from plane.host.cpu.run(cost_us)
        stored = None
        if key is not None and params.RDX_PIPELINED_DEPLOY:
            stored = plane.artifacts.insert(self, key, binary, linked)
        self._last_layout = stored.layout if stored is not None else None
        self.obs.histogram("rdx.link.cpu_us").observe(cost_us)
        return linked

    def link_compiled(
        self, compiled, parent_span: Optional[Span] = None
    ) -> Generator:
        """The linked image of ``compiled`` (a CompiledArtifact) for
        this target: a linked-stage hit, else a fresh link it stores."""
        linked = yield from self.find_linked(compiled.key, parent_span)
        if linked is None:
            linked = yield from self.link_code(
                compiled.binary, parent_span=parent_span, key=compiled.key
            )
        return linked

    def layout_fingerprint(self, relocs) -> Optional[int]:
        """GOT-layout fingerprint of ``relocs`` against *this* target.

        ``relocs`` is an iterable of ``(RelocKind, symbol)`` pairs; the
        hash covers the *resolved addresses*, so it certifies that a
        fresh link of the same image would produce identical bytes on
        this target -- and naturally changes when layout churns (e.g.
        address reuse after a warm reboot).  Returns ``None`` when a
        symbol does not resolve.
        """
        parts = []
        for kind, symbol in relocs:
            if kind is RelocKind.HELPER:
                address = self.linker.helper_addresses.get(symbol)
            else:
                address = self._map_address_of(symbol)
            if address is None:
                return None
            parts.append(f"{kind.value}:{symbol}={address:x}")
        return zlib.crc32(";".join(parts).encode()) & 0xFFFFFFFF

    # -- rdx_deploy_prog ------------------------------------------------------

    def deploy_prog(
        self,
        program: BpfProgram,
        linked: JitBinary,
        hook_name: str,
        flush_hook: bool = True,
        retain_history: bool = True,
        parent_span: Optional[Span] = None,
        fenced: bool = False,
    ) -> Generator:
        """One-sided injection of a linked image + metadata + hook flip.

        Returns a :class:`DeployReport`.  The hook flip is a
        transactional qword swap, optionally followed by a
        cache-coherence event on the hook line.  With ``retain_history``
        the previous image stays resident as a rollback target; without
        it, its code pages are freed.

        With :data:`repro.params.RDX_PIPELINED_DEPLOY` set (default)
        the body runs on the batched path (one WR chain for image, or
        a delta's dirty spans, + metadata, direct CAS commit); the
        serial path remains as the paper-calibrated baseline.
        ``fenced`` certifies the caller already ran :meth:`check_fence`
        for this operation (a broadcast leg fences when its bubble
        rises); the pipelined path then skips the duplicate epoch read
        -- one fence per transaction, not one per op.
        """
        if not linked.is_linked:
            raise DeployError(f"{program.name}: image has unresolved relocations")
        report = DeployReport(
            deploy_id=next(_deploy_ids),
            program_name=program.name,
            started_us=self.sim.now,
        )
        span = self.obs.span(
            "rdx.deploy", parent=parent_span,
            program=program.name, target=self.sandbox.name, hook=hook_name,
        )
        body = (
            self._deploy_body_pipelined
            if params.RDX_PIPELINED_DEPLOY
            else self._deploy_body
        )
        # Trace context rides the sync layer for the body's duration:
        # every WR chain, chunk land, commit CAS, and cc flush below
        # is recorded under this span's trace id.
        saved_trace, self.sync.trace_span = self.sync.trace_span, span
        try:
            report = yield from body(
                program, linked, hook_name, flush_hook, retain_history,
                report, fenced,
            )
        except BaseException as err:
            span.status = "error"
            span.finish(error=str(err))
            raise
        finally:
            self.sync.trace_span = saved_trace
        span.finish(total_us=report.total_us, code_addr=report.code_addr)
        self._observe_deploy(report, len(linked.code))
        return report

    def _deploy_body(
        self,
        program: BpfProgram,
        linked: JitBinary,
        hook_name: str,
        flush_hook: bool,
        retain_history: bool,
        report: DeployReport,
        fenced: bool = False,
    ) -> Generator:
        # Fence first: no byte may land on a target owned by a newer
        # control-plane epoch.  The serial baseline always re-fences
        # (``fenced`` is a fast-path optimization).
        del fenced
        yield from self.check_fence()

        # Dispatch: registry lookup, WQE prep, completion polling --
        # initiator CPU only (the control plane, or a relaying host).
        mark = self.sim.now
        yield from (
            self.dispatch_cpu or self.control_plane.host.cpu
        ).run(params.RDX_DISPATCH_US)
        yield self.sim.timeout(params.RDX_STUB_RENDEZVOUS_US)
        report.dispatch_us = self.sim.now - mark

        # Stage the image into fresh code pages.  The CAS expectation
        # is whatever currently owns the hook (possibly a different
        # program being replaced).
        mark = self.sim.now
        owner_name = self._hook_owner.get(hook_name)
        existing = self.deployed.get(owner_name) if owner_name else None
        code_addr = self.code_allocator.alloc(len(linked.code), align=64)
        # One hb transaction ties the body writes to their commit CAS:
        # the race checker requires the commit to be HB-after every
        # write carrying the same txn id.
        txn = (
            hb.txn_note(publishes=(code_addr, len(linked.code)))
            if params.RDX_HB_CHECK
            else None
        )
        body = {"txn": txn["txn"]} if txn else None
        yield from self.sync.write(code_addr, linked.code, note=body)
        report.write_us = self.sim.now - mark

        # Metadata slot fill (one 256-byte write).
        slot = self._pick_metadata_slot()
        block = MetadataBlock(
            state=SLOT_LIVE,
            prog_id=program.prog_id,
            insn_cnt=len(program.insns),
            ref_count=1,
            code_addr=code_addr,
            code_len=len(linked.code),
            hook_slot=self.manifest.hook_layout.get(hook_name, -1),
            version=(existing.version + 1) if existing else 1,
            tag=program.tag().encode()[:16],
            name=program.name,
        )
        yield from self.sync.write(
            self.manifest.metadata_addr + slot * 256, block.encode(), note=body
        )

        # Commit: transactional pointer flip on the hook qword.
        mark = self.sim.now
        hook_addr = self._hook_addr(hook_name)
        expected = existing.code_addr if existing else 0
        prior = yield from self.sync.tx(
            obj_addr=code_addr,
            obj_bytes=b"",  # image already staged above
            qword_addr=hook_addr,
            new_qword=code_addr,
            expect=expected,
            note=txn,
        )
        if prior != expected:
            self._unwind_failed_deploy(code_addr, slot)
            raise DeployError(
                f"{program.name}: hook {hook_name!r} CAS expected "
                f"{expected:#x}, found {prior:#x} (concurrent update?)"
            )
        report.commit_us = self.sim.now - mark

        if flush_hook:
            mark = self.sim.now
            yield from self.sync.cc_event(hook_addr, 8)
            report.cc_us = self.sim.now - mark

        self._bookkeep(
            program, hook_name, code_addr, len(linked.code), slot,
            block.version, existing, retain_history, report,
            image=linked.code,
        )
        return report

    def _deploy_body_pipelined(
        self,
        program: BpfProgram,
        linked: JitBinary,
        hook_name: str,
        flush_hook: bool,
        retain_history: bool,
        report: DeployReport,
        fenced: bool = False,
    ) -> Generator:
        """Pipelined deploy: image (or its delta) + metadata as one WR chain.

        Differences from the serial body, and why each is sound:

        * Dispatch prepares the whole WQE list once and polls a single
          signaled completion (:data:`repro.params.RDX_DISPATCH_FAST_US`
          instead of :data:`repro.params.RDX_DISPATCH_US`).
        * The stub rendezvous is skipped when the linked image came out
          of the layout-fingerprinted cache -- a hit certifies the
          Meta descriptor + GOT window already match this layout.
        * Code and metadata descriptor ride one chain (one doorbell,
          selective signaling); torn-write semantics per WR are
          unchanged because the RNIC still lands MTU chunks.
        * The commit is a direct CAS with no separate ordering fence:
          the chain's signaled completion *is* the ordering point (RC
          ordering retires every chained WR before the CAS issues on
          the same QP), so the serial path's
          :data:`repro.params.RDX_TX_COMMIT_US` wait disappears.  The
          completion still guarantees nothing about remote *CPU*
          visibility -- that remains ``rdx_cc_event``'s job below.
        * With ``fenced`` the epoch read is elided: the caller fenced
          this same transaction moments ago (broadcast fences when the
          bubble rises), and fencing is advisory at op start either
          way -- the window between fence and CAS exists at any grain.

        What the chain carries is :meth:`_delta_plan`'s decision.  With
        no plan the whole image goes to a fresh extent.  With one, the
        target already holds a resident, non-live extent whose exact
        bytes the control plane knows -- the *baseline*, the image
        superseded one generation ago and kept alive by
        :meth:`_bookkeep` -- and only the cache-line-trimmed dirty
        spans are written *into the baseline extent*.  The commit CAS
        then flips the hook from the live extent to the rewritten
        baseline; the two extents ping-pong roles on every subsequent
        delta.
        """
        plan = self._delta_plan(linked, hook_name)
        if not fenced:
            yield from self.check_fence()

        mark = self.sim.now
        yield from (
            self.dispatch_cpu or self.control_plane.host.cpu
        ).run(params.RDX_DISPATCH_FAST_US)
        if not self._last_link_cached:
            yield self.sim.timeout(params.RDX_STUB_RENDEZVOUS_US)
        report.dispatch_us = self.sim.now - mark

        hook_addr = self._hook_addr(hook_name)
        if plan is None:
            owner_name = self._hook_owner.get(hook_name)
            existing = self.deployed.get(owner_name) if owner_name else None
            code_addr = self.code_allocator.alloc(len(linked.code), align=64)
            spans = [(0, linked.code)]
        else:
            existing = plan.existing
            code_addr = plan.target_addr
            spans = plan.ranges
        expected = existing.code_addr if existing else 0
        slot = self._pick_metadata_slot()
        block = MetadataBlock(
            state=SLOT_LIVE,
            prog_id=program.prog_id,
            insn_cnt=len(program.insns),
            ref_count=1,
            code_addr=code_addr,
            code_len=len(linked.code),
            hook_slot=self.manifest.hook_layout.get(hook_name, -1),
            version=(existing.version + 1) if existing else 1,
            tag=program.tag().encode()[:16],
            name=program.name,
        )

        def unwind() -> None:
            if plan is None:
                self._unwind_failed_deploy(code_addr, slot)
            else:
                self._unwind_failed_delta(existing, slot)

        # The txn publishes the whole extent the flipped pointer makes
        # reachable, not just a delta's dirty spans: the checker holds
        # a delta commit to the same standard as a full-image install.
        txn = (
            hb.txn_note(publishes=(code_addr, len(linked.code)))
            if params.RDX_HB_CHECK
            else None
        )
        body = {"txn": txn["txn"]} if txn else None
        ops = [(code_addr + offset, payload) for offset, payload in spans]
        ops.append((self.manifest.metadata_addr + slot * 256, block.encode()))
        mark = self.sim.now
        try:
            yield from self.sync.write_batch(ops, note=body)
        except BaseException:
            unwind()
            raise
        report.write_us = self.sim.now - mark

        mark = self.sim.now
        prior = yield from self.sync.cas(hook_addr, expected, code_addr, note=txn)
        if prior != expected:
            unwind()
            raise DeployError(
                f"{program.name}: hook {hook_name!r} CAS expected "
                f"{expected:#x}, found {prior:#x} (concurrent update?)"
            )
        # Semantic parity with the serial path: this was a
        # transactional install, just with the fence folded into the
        # chain completion.
        self.sync.tx_count += 1
        report.commit_us = self.sim.now - mark

        if flush_hook:
            mark = self.sim.now
            if plan is not None:
                # The reused extent was live (and executed) two
                # generations ago, so the target CPU may still cache
                # its old lines, and DMA writes leave those snapshots
                # stale.  Flush the dirty spans *before* the hook line:
                # the code must be coherent before the pointer that
                # reaches it is.
                for offset, payload in spans:
                    yield from self.sync.cc_event(
                        code_addr + offset, len(payload)
                    )
            yield from self.sync.cc_event(hook_addr, 8)
            report.cc_us = self.sim.now - mark

        if plan is not None:
            report.mode = "delta"
            report.delta_chunks = len(spans)
            report.bytes_moved = sum(len(payload) for _, payload in spans) + 256
            report.delta_base_version = plan.base_version
        self._bookkeep(
            program, hook_name, code_addr, len(linked.code), slot,
            block.version, existing, retain_history, report,
            image=linked.code,
        )
        return report

    def _delta_plan(
        self, linked: JitBinary, hook_name: str
    ) -> Optional[_DeltaPlan]:
        """Decide whether this deploy can ship as a delta.

        Eligibility is conservative: the hook must already be owned by
        a record carrying a registered baseline whose layout
        fingerprint matches the one this image was linked or found under,
        the image size must be unchanged, and the diff must be under
        break-even.  Anything else returns None (with the reason
        counted in ``rdx.delta.fallback``) and the pipelined body ships
        the full image instead -- correctness never depends on delta
        eligibility.  The break-even is
        :data:`repro.params.RDX_DELTA_MAX_CHUNKS`.
        """

        def fallback(reason: str) -> None:
            self.obs.counter("rdx.delta.fallback", reason=reason).inc()
            return None

        owner_name = self._hook_owner.get(hook_name)
        existing = self.deployed.get(owner_name) if owner_name else None
        if existing is None:
            return fallback("first-deploy")
        if existing.baseline_addr is None or existing.baseline_image is None:
            return fallback("no-baseline")
        layout = self._last_layout
        if layout is None or existing.layout != layout:
            # The artifact store could not certify the (arch, GOT
            # fingerprint) layout is unchanged: resolved addresses may
            # have moved, so a byte diff would be meaningless.
            return fallback("layout-changed")
        if len(linked.code) != len(existing.baseline_image):
            return fallback("size-changed")
        ranges = _delta_ranges(existing.baseline_image, linked.code)
        if len(ranges) > params.RDX_DELTA_MAX_CHUNKS:
            return fallback("past-break-even")
        if sum(len(payload) for _, payload in ranges) >= len(linked.code):
            return fallback("no-savings")
        return _DeltaPlan(
            existing=existing,
            target_addr=existing.baseline_addr,
            ranges=ranges,
            base_version=existing.baseline_version,
        )

    def _unwind_failed_delta(
        self, existing: DeployedProgram, slot: int
    ) -> None:
        """Roll back a delta body that failed before its commit.

        The baseline extent may now hold a half-rewritten image, so it
        can never serve as a diff base (or rollback target) again:
        drop the registration and retire the extent.  Nothing points
        at it -- the hook never flipped -- so the deferred free is
        purely conservative.
        """
        self._metadata_used.discard(slot)
        addr = existing.baseline_addr
        if addr is not None:
            self._retired.append(addr)
            existing.history = [a for a in existing.history if a != addr]
        existing.baseline_addr = None
        existing.baseline_image = None
        existing.baseline_version = 0

    def _unwind_failed_deploy(self, code_addr: int, slot: int) -> None:
        """Release local resources a failed deploy body had claimed.

        Both the code pages *and* the metadata slot go back -- leaking
        the slot on a CAS conflict used to exhaust the descriptor
        array under repeated contention.
        """
        self.code_allocator.free(code_addr)
        self._metadata_used.discard(slot)

    def _bookkeep(
        self,
        program: BpfProgram,
        hook_name: str,
        code_addr: int,
        code_len: int,
        slot: int,
        version: int,
        existing: Optional[DeployedProgram],
        retain_history: bool,
        report: DeployReport,
        image: Optional[bytes] = None,
    ) -> None:
        """Shared post-commit record keeping for all deploy bodies."""
        # This deploy's commit CAS (and hook flush) is now visible, so
        # extents retired by the *previous* generation have outlived
        # every exec that could still have been decoding them: the
        # deferred frees drain here, never at retire time.
        self._drain_retired()
        record = DeployedProgram(
            program=program,
            hook_name=hook_name,
            code_addr=code_addr,
            code_len=code_len,
            metadata_slot=slot,
            version=version,
            image=image,
            layout=self._last_layout,
        )
        if existing:
            # The superseded descriptor slot is reusable either way.
            self._metadata_used.discard(existing.metadata_slot)
            if report.mode == "delta":
                # Ping-pong: the new image went *into* the old baseline
                # extent, and the superseded live extent becomes the
                # next baseline.  The consumed baseline leaves the
                # rollback history -- it holds live bytes now -- so
                # delta chains cap rollback depth at one generation.
                record.history = [
                    addr for addr in existing.history if addr != code_addr
                ]
                if retain_history:
                    record.history.append(existing.code_addr)
                record.baseline_addr = existing.code_addr
                record.baseline_image = existing.image
                record.baseline_version = existing.version
            else:
                if retain_history:
                    record.history = existing.history + [existing.code_addr]
                else:
                    record.history = list(existing.history)
                if existing.image is not None:
                    # The superseded extent stays resident as the delta
                    # baseline: its exact bytes are known, so the next
                    # deploy of this layout can ship only the changed
                    # chunks.
                    record.baseline_addr = existing.code_addr
                    record.baseline_image = existing.image
                    record.baseline_version = existing.version
                elif not retain_history:
                    # No known bytes and no history reference: the
                    # extent is garbage, but in-flight execs may still
                    # be reading it.  Defer the free until the next
                    # commit CAS is visible -- freeing it here (the old
                    # behaviour) destroyed the extent under the data
                    # path.
                    self._retired.append(existing.code_addr)
            # The previous baseline is superseded unless something
            # still references it (the new baseline, the live extent,
            # or a rollback target).
            old_baseline = existing.baseline_addr
            if (
                old_baseline is not None
                and old_baseline != record.baseline_addr
                and old_baseline != record.code_addr
                and old_baseline not in record.history
            ):
                self._retired.append(old_baseline)
            if existing.program.name != program.name:
                del self.deployed[existing.program.name]
        self.deployed[program.name] = record
        self._hook_owner[hook_name] = program.name
        report.total_us = self.sim.now - report.started_us
        report.code_addr = code_addr
        if report.mode != "delta":
            report.bytes_moved = code_len + 256
        self.reports.append(report)
        self.control_plane.trace.record(
            self.sim.now,
            "rdx.deploy.done",
            program=program.name,
            target=self.sandbox.name,
            total_us=report.total_us,
        )

    def _drain_retired(self) -> None:
        """Free extents whose deferred-free window has closed."""
        for addr in self._retired:
            if self.code_allocator.size_of(addr) is not None:
                self.code_allocator.free(addr)
        self._retired.clear()

    def _observe_deploy(self, report: DeployReport, code_bytes: int) -> None:
        """Feed one successful deploy into the metrics registry."""
        self.obs.counter("rdx.deploy.count").inc()
        # What actually crossed the wire: the full image + 256-byte
        # metadata descriptor, or just a delta's trimmed dirty spans.
        self.obs.counter("rdx.deploy.bytes_written").inc(
            report.bytes_moved or (code_bytes + 256)
        )
        if report.mode == "delta":
            self.obs.counter("rdx.deploy.delta").inc()
            self.obs.histogram("rdx.delta.chunks").observe(
                report.delta_chunks
            )
            self.obs.histogram("rdx.delta.bytes_moved").observe(
                report.bytes_moved
            )
        for phase, value in report.phases().items():
            if phase == "link":
                continue  # linking is measured by its own rdx.link span
            self.obs.histogram(f"rdx.deploy.{phase}_us").observe(value)
        # Install-visible latency, exported per target and per tenant:
        # total_us ends after the cc flush, i.e. when a data-path read
        # can first observe the new pointer.
        self.obs.histogram(
            "rdx.deploy.install_visible_us",
            target=target_label(
                self.sandbox.name, self.control_plane.shard
            ),
            tenant=self.tenant,
        ).observe(report.total_us)
        self.obs.histogram(
            "rdx.tenant.install_visible_us", tenant=self.tenant
        ).observe(report.total_us)

    def _pick_metadata_slot(self) -> int:
        for index in range(self.manifest.metadata_slots):
            if index not in self._metadata_used:
                self._metadata_used.add(index)
                return index
        raise DeployError(f"{self.sandbox.name}: metadata array full")

    def _hook_addr(self, hook_name: str) -> int:
        try:
            slot = self.manifest.hook_layout[hook_name]
        except KeyError:
            raise DeployError(
                f"{self.sandbox.name} has no hook {hook_name!r}"
            ) from None
        return self.manifest.hook_table_addr + slot * 8

    # -- detach / rollback support ----------------------------------------------

    def detach(self, program_name: str, record_intent: bool = True) -> Generator:
        """Remove the extension: hook -> 0, metadata -> detached."""
        record = self._record(program_name)
        yield from self.check_fence()
        txn = None
        if record_intent:
            plane = self.control_plane
            txn = plane._mint_txn("detach")
            plane.journal.begin(
                txn, "detach", plane.epoch,
                target=self.sandbox.name, name=program_name,
            )
        try:
            yield from self._detach_body(program_name, record)
        except BaseException as err:
            if txn is not None and not self.control_plane.crashed:
                self.control_plane.journal.abort(txn, reason=str(err))
            raise
        if txn is not None:
            self.control_plane.journal.commit(
                txn, target=self.sandbox.name, name=program_name
            )

    def _detach_body(
        self, program_name: str, record: DeployedProgram
    ) -> Generator:
        hook_addr = self._hook_addr(record.hook_name)
        prior = yield from self.sync.tx(
            obj_addr=record.code_addr,
            obj_bytes=b"",
            qword_addr=hook_addr,
            new_qword=0,
            expect=record.code_addr,
        )
        if prior != record.code_addr:
            raise DeployError(
                f"detach of {program_name}: hook moved underneath us"
            )
        yield from self.sync.cc_event(hook_addr, 8)
        state_addr = self.manifest.metadata_addr + record.metadata_slot * 256
        yield from self.sync.write(
            state_addr, SLOT_DETACHED.to_bytes(4, "little")
        )
        self.code_allocator.free(record.code_addr)
        if (
            record.baseline_addr is not None
            and record.baseline_addr != record.code_addr
            and record.baseline_addr not in record.history
            and self.code_allocator.size_of(record.baseline_addr) is not None
        ):
            self.code_allocator.free(record.baseline_addr)
        self._metadata_used.discard(record.metadata_slot)
        if self._hook_owner.get(record.hook_name) == program_name:
            del self._hook_owner[record.hook_name]
        del self.deployed[program_name]

    def flip_to(self, program_name: str, code_addr: int) -> Generator:
        """Point the hook at an already-resident image (rollback path)."""
        record = self._record(program_name)
        hook_addr = self._hook_addr(record.hook_name)
        prior = yield from self.sync.tx(
            obj_addr=code_addr,
            obj_bytes=b"",
            qword_addr=hook_addr,
            new_qword=code_addr,
            expect=record.code_addr,
        )
        if prior != record.code_addr:
            raise DeployError(f"flip of {program_name}: concurrent update")
        yield from self.sync.cc_event(hook_addr, 8)
        record.history.append(record.code_addr)
        record.code_addr = code_addr
        record.version += 1
        # Rollback breaks the delta chain: the record no longer knows
        # the live extent's exact bytes, so the baseline pairing is
        # void.  The baseline extent stays resident while history (or
        # the hook itself) references it; otherwise it is retired.
        if (
            record.baseline_addr is not None
            and record.baseline_addr != record.code_addr
            and record.baseline_addr not in record.history
        ):
            self._retired.append(record.baseline_addr)
        record.image = None
        record.layout = None
        record.baseline_addr = None
        record.baseline_image = None
        record.baseline_version = 0

    def _record(self, program_name: str) -> DeployedProgram:
        record = self.deployed.get(program_name)
        if record is None:
            raise DeployError(f"{program_name!r} is not deployed")
        return record

    # -- recovery support (reconciler) -------------------------------------------

    def reset_after_reboot(self) -> None:
        """Forget all per-target records after the sandbox warm-rebooted.

        The target wiped its volatile control surface, so every record
        this handle holds describes unreachable bytes.  Allocators and
        the scratchpad mirror start over; the epoch drops to 0 so the
        next :meth:`stamp_epoch` re-fences the target.
        """
        manifest = self.manifest
        self.scratchpad = RemoteScratchpad(
            manifest.scratchpad_addr,
            manifest.scratchpad_bytes,
            manifest.meta_xstate_slots,
        )
        self.code_allocator = RegionAllocator(
            manifest.code_addr, manifest.code_bytes,
            label=f"{self.sandbox.name}.rcode",
        )
        self._metadata_used.clear()
        self.deployed.clear()
        self._hook_owner.clear()
        # Retired addresses and the last layout describe the wiped
        # address space -- both are meaningless now.
        self._retired.clear()
        self._last_layout = None
        self.epoch = 0
        self.sync.hb_epoch = None  # unknown until the next stamp_epoch

    def adopt(
        self,
        program: BpfProgram,
        hook_name: str,
        slot: int,
        block: MetadataBlock,
        image: Optional[bytes] = None,
    ) -> DeployedProgram:
        """Adopt a live remote deployment into this handle's books.

        A restarted control plane's fresh CodeFlow starts with empty
        records while the target still runs images a previous
        incarnation deployed.  Adoption reconstructs the
        :class:`DeployedProgram` record -- reserving the code pages in
        place -- so ordinary deploy/detach CAS expectations line up
        with remote reality again.  ``image`` is the CRC-verified
        bytes the reconciler read back: recording them lets the first
        post-recovery full deploy register this extent as a delta
        baseline (the deploy itself still ships full -- the adopted
        record carries no layout fingerprint).
        """
        self.code_allocator.reserve(block.code_addr, block.code_len)
        self._metadata_used.add(slot)
        record = DeployedProgram(
            program=program,
            hook_name=hook_name,
            code_addr=block.code_addr,
            code_len=block.code_len,
            metadata_slot=slot,
            version=block.version,
            image=image,
        )
        self.deployed[program.name] = record
        if hook_name:
            self._hook_owner[hook_name] = program.name
        return record

    # -- rdx_deploy_xstate (§3.4) -------------------------------------------------

    def deploy_xstate(
        self,
        spec: XStateSpec,
        initial: Optional[BpfMap] = None,
        record_intent: bool = True,
    ) -> Generator:
        """Allocate + inject one XState; returns an :class:`XStateHandle`.

        Steps (paper §3.4): (1) allocate a chunk from the scratchpad,
        (2) write the self-describing header + initial image, (3) write
        the Meta-XState index entry, then flush so the data path can
        adopt the new state immediately.
        """
        from repro.core.journal import xstate_spec_detail

        yield from self.check_fence()
        txn = None
        if record_intent:
            plane = self.control_plane
            txn = plane._mint_txn("xstate")
            plane.journal.begin(
                txn, "xstate", plane.epoch,
                target=self.sandbox.name, spec=xstate_spec_detail(spec),
            )
        try:
            handle = yield from self._deploy_xstate_body(spec, initial)
        except BaseException as err:
            if txn is not None and not self.control_plane.crashed:
                self.control_plane.journal.abort(txn, reason=str(err))
            raise
        if txn is not None:
            # Placement rides along in the COMMIT record so a restarted
            # control plane can adopt the chunk where it already lives.
            placed = dict(xstate_spec_detail(spec))
            placed["meta_index"] = handle.meta_index
            placed["header_addr"] = handle.header_addr
            self.control_plane.journal.commit(
                txn, target=self.sandbox.name, spec=placed
            )
        return handle

    def _deploy_xstate_body(
        self, spec: XStateSpec, initial: Optional[BpfMap]
    ) -> Generator:
        handle = self.scratchpad.allocate(spec)
        if initial is None:
            initial = BpfMap(
                spec.map_type, spec.key_size, spec.value_size, spec.max_entries,
                name=spec.name,
            )
        image = initial.serialize()
        if len(image) != spec.data_bytes():
            self.scratchpad.release(handle)
            raise XStateError(
                f"{spec.name}: initial image is {len(image)} bytes, "
                f"spec wants {spec.data_bytes()}"
            )
        with self.obs.span(
            "rdx.xstate.deploy", xstate=spec.name, target=self.sandbox.name
        ):
            yield from self.sync.write(
                handle.header_addr, encode_xstate_header(spec) + image
            )
            meta_addr = self.scratchpad.meta_entry_addr(handle.meta_index)
            prior = yield from self.sync.tx(
                obj_addr=handle.header_addr,
                obj_bytes=b"",
                qword_addr=meta_addr,
                new_qword=handle.header_addr,
                expect=0,
            )
            if prior != 0:
                self.scratchpad.release(handle)
                raise XStateError(
                    f"{spec.name}: meta slot {handle.meta_index} already taken"
                )
            yield from self.sync.cc_event(
                handle.header_addr, params.XSTATE_HEADER_BYTES
            )
        self.obs.counter("rdx.xstate.bytes_written").inc(
            params.XSTATE_HEADER_BYTES + len(image)
        )
        return handle

    def destroy_xstate(
        self, handle: XStateHandle, record_intent: bool = True
    ) -> Generator:
        """Clear the meta entry and free the chunk."""
        if record_intent:
            plane = self.control_plane
            txn = plane._mint_txn("xstate_destroy")
            plane.journal.begin(
                txn, "xstate_destroy", plane.epoch,
                target=self.sandbox.name, name=handle.name,
            )
        yield from self._destroy_xstate_body(handle)
        if record_intent:
            plane.journal.commit(
                txn, target=self.sandbox.name, name=handle.name
            )

    def _destroy_xstate_body(self, handle: XStateHandle) -> Generator:
        meta_addr = self.scratchpad.meta_entry_addr(handle.meta_index)
        prior = yield from self.sync.cas(meta_addr, handle.header_addr, 0)
        if prior != handle.header_addr:
            raise XStateError(f"{handle.name}: meta entry changed underneath us")
        # Poison the header magic so stale pointers cannot re-adopt it.
        yield from self.sync.write(handle.header_addr, b"\x00")
        yield from self.sync.cc_event(handle.header_addr, params.XSTATE_HEADER_BYTES)
        self.scratchpad.release(handle)

    # -- XState access (inspector APIs) ---------------------------------------------

    def xstate_lookup(self, handle: XStateHandle, key: bytes) -> Generator:
        """Remote map lookup via one-sided READs (no target CPU)."""
        spec = handle.spec
        slot_bytes = spec.slot_bytes()
        image = yield from self.read_raw(handle.data_addr, spec.data_bytes())
        rebuilt = BpfMap.deserialize(
            image, spec.map_type, spec.key_size, spec.value_size,
            spec.max_entries, name=spec.name,
        )
        del slot_bytes
        return rebuilt.lookup(key)

    def xstate_update(
        self, handle: XStateHandle, key: bytes, value: bytes
    ) -> Generator:
        """Remote map update: locate the slot, then write it in place."""
        spec = handle.spec
        if len(key) != spec.key_size or len(value) != spec.value_size:
            raise XStateError(f"{handle.name}: bad key/value geometry")
        slot_bytes = spec.slot_bytes()
        image = yield from self.read_raw(handle.data_addr, spec.data_bytes())
        target_slot = None
        free_slot = None
        for index in range(spec.max_entries):
            chunk = image[index * slot_bytes : (index + 1) * slot_bytes]
            if chunk[0] and chunk[8 : 8 + spec.key_size] == key:
                target_slot = index
                break
            if not chunk[0] and free_slot is None:
                free_slot = index
        if target_slot is None:
            target_slot = free_slot
        if target_slot is None:
            raise XStateError(f"{handle.name}: map full")
        slot_addr = handle.data_addr + target_slot * slot_bytes
        payload = b"\x01" + bytes(7) + key + value
        yield from self.sync.write(slot_addr, payload)
        yield from self.sync.cc_event(slot_addr, len(payload))

    def read_raw(self, addr: int, length: int) -> Generator:
        """One-sided READ helper."""
        data = yield from self.sync.read(addr, length)
        return data
