"""The batched columnar KSM scan engine.

:class:`BatchKsmScanner` executes each scan burst as columnar kernels
over whole worklist segments instead of the per-page ``_examine`` loop
of :class:`repro.ksm.scanner.KsmScanner`, while producing bit-identical
merges, :class:`repro.ksm.stats.KsmStats`, scan-cost charging and
convergence history under all three scan policies.  It rides the same
pass machinery (worklist installation, pass boundaries, history
sampling) as the object engine — only the examination of an installed
worklist is vectorized.

Why whole-segment batching is safe
----------------------------------

During a scan burst only the scanner mutates memory, and every mutation
it performs is *token-local*:

* a merge re-points one vpn at a frame holding the **same** token (the
  frame backing any not-yet-examined page stays alive — its own mapping
  holds a reference — and frame tokens never change mid-burst);
* ``ksm_stable`` is only ever set on frames whose token equals the
  group's token;
* the token index and volatility map are keyed by token and vpn, and a
  worklist never repeats a vpn.

Hence pages of *different* tokens cannot affect each other's
examination, and the examined-at-segment-start snapshot of
(fid, token, stable) is exact.  The engine therefore:

1. **gathers** the segment as flat columns: a per-worklist vpn column
   plus its bulk translation (:meth:`PageTable.translate_many`), cached
   and keyed by ``(version, remap_epoch)`` so the steady state — where
   no mapping moves between passes — re-translates nothing; frame
   state and token columns come from the
   :class:`repro.mem.physmem.FrameMirror` (zero-copy numpy views over
   its ``array('Q')``/``bytearray`` storage).
   Unmapped and already-stable pages drop out in one vectorized mask —
   the steady-state hot path, where almost every page is merged;
2. **groups** the survivors by content token with the shared
   ``ops.group_sizes`` kernel (a stable argsort, so in-group order is
   segment order — the only order that matters);
3. dispatches **singleton groups** — the common case — through one
   fused kernel: a bulk index probe (:meth:`TokenIndex.bulk_lookup`),
   the volatility filter with a single ``volatile_skips``/recheck
   update, one bulk fresh-unstable insert
   (:meth:`TokenIndex.bulk_set_unstable_fresh`), and one
   :meth:`HostPhysicalMemory.merge_many` call for the elected
   stable-tree merges;
4. runs **multi-page groups** (and the rare stale/unstable tails)
   through :meth:`_examine_row`, a faithful per-row replica of the
   object engine's state machine, in segment order.

Tokens are full unsigned 64-bit hashes (and tests may feed arbitrary
ints), so the gather groups by the mirror's *masked* uint64 key
column while all semantic operations use the exact Python tokens; a
masked collision can only route a group to the slow per-row path, never
change a result.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.columnar.backend import NumpyOps
from repro.ksm.index import STABLE
from repro.ksm.scanner import KsmConfig, KsmScanner, ScanPolicy
from repro.mem.address_space import PageTable
from repro.mem.physmem import FrameMirror, HostPhysicalMemory
from repro.sim.clock import SimClock

#: Row = (vpn, fid, token); multi-page groups carry them in segment order.
Row = Tuple[int, int, int]


class BatchKsmScanner(KsmScanner):
    """Columnar scan engine, bit-identical to the object scanner."""

    def __init__(
        self,
        physmem: HostPhysicalMemory,
        clock: SimClock,
        config: Optional[KsmConfig] = None,
    ) -> None:
        super().__init__(physmem, clock, config)
        self._ops = NumpyOps()
        self._np = self._ops.np
        self._mirror = physmem.attach_frame_mirror()
        # Columnar worklist state: per-table persistent caches for the
        # (version-cached) full worklists, and the columns of whatever
        # worklist is currently installed.  ``fids`` lazily mirrors the
        # vpn column's translation, keyed by (version, remap_epoch) —
        # exact because any translation change bumps one of the two.
        self._column_cache: Dict[PageTable, dict] = {}
        self._cur: Optional[dict] = None
        # Stable-tree fid column for the per-pass history gauges,
        # cached against the index's stable revision.
        self._stable_cache: Optional[tuple] = None

    # ------------------------------------------------------------------
    # The burst loop: same shape as the object engine, but the current
    # worklist is consumed in whole remaining-budget slices.
    # ------------------------------------------------------------------

    def scan_pages(self, budget: int) -> int:
        """Examine up to ``budget`` pages; returns the number examined."""
        if budget <= 0 or not self._tables:
            return 0
        if not self._work_hint and self._scan_pos >= len(self._scan_list):
            if self._started_pass:
                self._table_cursor = (
                    self._table_cursor + 2
                ) % len(self._tables)
            return 0
        examined = 0
        empty_rounds = 0
        while examined < budget:
            if self._scan_pos >= len(self._scan_list):
                if not self._advance_table():
                    empty_rounds += 1
                    if empty_rounds > len(self._tables) + 1:
                        self._work_hint = False
                        break
                    continue
                empty_rounds = 0
            take = min(
                budget - examined, len(self._scan_list) - self._scan_pos
            )
            start = self._scan_pos
            self._scan_pos += take
            self._examine_segment(
                self._tables[self._table_cursor], start, self._scan_pos
            )
            examined += take
            self._pass_examined += take
        self.stats.pages_scanned += examined
        return examined

    # ------------------------------------------------------------------
    # Worklist columns (primed at install, cached across passes)
    # ------------------------------------------------------------------

    def _install_full_worklist(self, table: PageTable) -> None:
        super()._install_full_worklist(table)
        cached = self._column_cache.get(table)
        if cached is None or cached["vpns"] is not self._scan_list:
            # The base class hands out the same list object while the
            # table's mapping set is unchanged, so identity is the key.
            cached = self._fresh_columns(self._scan_list)
            self._column_cache[table] = cached
        self._cur = cached

    def _install_incremental_worklist(self, table: PageTable) -> None:
        """Same worklist as the object engine, with the mapped/unmapped
        partition of the drained log done through one bulk translate."""
        drained = table.drain_dirty()
        if drained:
            self.stats.dirty_log_drained += len(drained)
        due = set()
        last = self._last_tokens[table]
        if drained:
            dead: List[int] = []
            for vpn, fid in zip(drained, table.translate_many(drained)):
                if fid >= 0:
                    due.add(vpn)
                else:
                    dead.append(vpn)
            for vpn in dead:
                previous = last.pop(vpn, None)
                if previous is None:
                    continue
                node = self._index.lookup(previous)
                if (
                    node is not None
                    and node[0] != STABLE
                    and node[1] is table
                    and node[2] == vpn
                ):
                    self._index.drop(previous)
        recheck = self._recheck[table]
        if recheck:
            due.update(vpn for vpn in recheck if table.is_mapped(vpn))
            recheck.clear()
        hints = self._cold_hints[table]
        if hints:
            due.update(vpn for vpn in hints if table.is_mapped(vpn))
            hints.clear()
        self._scan_list = sorted(due)
        self._scan_pos = 0
        # Incremental worklists are fresh objects every pass; no reuse.
        self._cur = self._fresh_columns(self._scan_list)

    def _fresh_columns(self, vpns: List[int]) -> dict:
        np = self._np
        return {
            "vpns": vpns,
            "vpn_arr": np.fromiter(vpns, np.int64, len(vpns)),
            "fids": None,
            "fid_arr": None,
            "fkey": None,
        }

    def _segment_fids(self, table: PageTable, cur: dict):
        """The worklist's translation column, rebuilt only when some
        translation may have moved since it was built."""
        fkey = (table.version, table.remap_epoch)
        if cur["fids"] is None or cur["fkey"] != fkey:
            fids = table.translate_many(cur["vpns"])
            cur["fids"] = fids
            cur["fid_arr"] = self._np.fromiter(
                fids, self._np.int64, len(fids)
            )
            cur["fkey"] = fkey
        return cur

    # ------------------------------------------------------------------
    # Stage A/B: gather + group
    # ------------------------------------------------------------------

    def _examine_segment(
        self, table: PageTable, start: int, stop: int
    ) -> None:
        cur = self._segment_fids(table, self._cur)
        gathered = self._gather_numpy(cur, start, stop)
        if gathered is not None:
            self._process_groups(table, *gathered)

    def _gather_numpy(self, cur: dict, start: int, stop: int):
        np = self._np
        mirror = self._mirror
        fid_view = cur["fid_arr"][start:stop]
        # Zero-copy views over the mirror columns.  Slot 0 is a
        # permanent FREE pad, so unmapped translations (-1) clamp to it
        # and fall out of the active mask with no extra branch.  The
        # views never outlive this call, and in-burst mutations only
        # store into existing slots (no resize), so exporting the
        # buffers is safe.
        states = np.frombuffer(mirror.states, dtype=np.uint8)
        active = (
            states[np.where(fid_view >= 0, fid_view, 0)]
            == FrameMirror.ACTIVE
        )
        if not active.any():
            return None
        act_f = fid_view[active]
        act_v = cur["vpn_arr"][start:stop][active]
        masked = np.frombuffer(mirror.masked, dtype=np.uint64)
        order, sizes = self._ops.group_sizes(masked[act_f])
        ov = act_v[order].tolist()
        of = act_f[order].tolist()
        tokens = mirror.tokens
        if bool((sizes == 1).all()):
            return ov, of, [tokens[f] for f in of], ()
        sv: List[int] = []
        sf: List[int] = []
        st: List[int] = []
        multis: List[List[Row]] = []
        sizes_list = sizes.tolist()
        i = 0
        total = len(ov)
        while i < total:
            size = sizes_list[i]
            if size == 1:
                f = of[i]
                sv.append(ov[i])
                sf.append(f)
                st.append(tokens[f])
            else:
                multis.append(
                    [
                        (ov[j], of[j], tokens[of[j]])
                        for j in range(i, i + size)
                    ]
                )
            i += size
        return sv, sf, st, multis

    # ------------------------------------------------------------------
    # Stage C/D: the fused singleton kernel + per-row group tails
    # ------------------------------------------------------------------

    def _process_groups(
        self,
        table: PageTable,
        sv: List[int],
        sf: List[int],
        st: List[int],
        multis,
    ) -> None:
        # Token groups are independent (module docstring), so group
        # processing order is free; in-group order is segment order.
        if sv:
            index = self._index
            physmem = self.physmem
            frame_of = physmem.frame
            row = self._examine_row
            last = self._last_tokens[table]
            last_get = last.get
            track_recheck = self.config.scan_policy is not ScanPolicy.FULL
            recheck = self._recheck[table] if track_recheck else None
            volatile = 0
            fresh_v: List[int] = []
            fresh_t: List[int] = []
            merges: List[Tuple[int, int]] = []
            for vpn, fid, token, node in zip(
                sv, sf, st, index.bulk_lookup(st)
            ):
                if node is None:
                    # Volatility filter, then a fresh unstable insert
                    # for the settled survivors (applied in bulk below).
                    previous = last_get(vpn)
                    last[vpn] = token
                    if previous != token:
                        volatile += 1
                        if track_recheck:
                            recheck.add(vpn)
                    else:
                        fresh_v.append(vpn)
                        fresh_t.append(token)
                elif node[0] == STABLE:
                    stable_fid = node[1]
                    stable_frame = frame_of(stable_fid)
                    if (
                        stable_frame is None
                        or stable_frame.token != token
                        or not stable_frame.ksm_stable
                    ):
                        # Dead stable node: prune, then rerun the row —
                        # the re-probe misses, exactly the object
                        # engine's fall-through.
                        index.drop(token)
                        row(table, vpn, fid, token)
                    elif stable_fid != fid:
                        # Split-on-KSM-merge happens eagerly (matching
                        # the object engine's examination order) even
                        # though the merge itself is deferred — splits
                        # are idempotent and blocks never re-form
                        # mid-pass, so the deferral cannot diverge.
                        self._split_for_merge(fid)
                        merges.append((vpn, stable_fid))
                    # else: this frame *is* the stable node.
                else:
                    row(table, vpn, fid, token)
            if volatile:
                self.stats.volatile_skips += volatile
            if fresh_v:
                index.bulk_set_unstable_fresh(fresh_t, table, fresh_v)
            if merges:
                self.stats.merges += physmem.merge_many(table, merges)
        for rows in multis:
            for vpn, fid, token in rows:
                self._examine_row(table, vpn, fid, token)

    def _examine_row(
        self, table: PageTable, vpn: int, fid: int, token: int
    ) -> None:
        """The object engine's state machine for one pre-gathered row.

        Must stay in lockstep with ``KsmScanner._examine`` (minus the
        translate/stable-skip prologue the gather already applied); the
        live ``ksm_stable`` re-check matters because an earlier row of
        the same group may have just promoted this frame.
        """
        physmem = self.physmem
        frame = physmem.get_frame(fid)
        if frame.ksm_stable:
            return
        node = self._index.lookup(token)

        if node is not None and node[0] == STABLE:
            stable_fid = node[1]
            stable_frame = physmem.frame(stable_fid)
            if (
                stable_frame is None
                or stable_frame.token != token
                or not stable_frame.ksm_stable
            ):
                self._index.drop(token)
                node = None
            elif stable_fid != fid:
                self._split_for_merge(fid)
                physmem.merge_into(table, vpn, stable_fid)
                self.stats.merges += 1
                return
            else:
                return

        last = self._last_tokens[table]
        previous = last.get(vpn)
        last[vpn] = token
        if previous != token:
            self.stats.volatile_skips += 1
            if self.config.scan_policy is not ScanPolicy.FULL:
                self._recheck[table].add(vpn)
            return

        if node is None:
            self._index.set_unstable(token, table, vpn)
            return
        _, partner_table, partner_vpn = node
        if partner_table is table and partner_vpn == vpn:
            return
        partner_fid = partner_table.translate(partner_vpn)
        if partner_fid is None:
            self.stats.stale_drops += 1
            self._index.set_unstable(token, table, vpn)
            return
        partner_frame = physmem.get_frame(partner_fid)
        if partner_frame.token != token:
            self.stats.stale_drops += 1
            self._index.set_unstable(token, table, vpn)
            return
        if partner_fid == fid:
            self._split_for_merge(fid)
            physmem.mark_ksm_stable(fid)
            self._index.set_stable(token, fid)
            return
        self._split_for_merge(partner_fid)
        self._split_for_merge(fid)
        physmem.mark_ksm_stable(partner_fid)
        self._index.set_stable(token, partner_fid)
        physmem.merge_into(table, vpn, partner_fid)
        self.stats.merges += 1

    # ------------------------------------------------------------------
    # Bookkeeping hooks
    # ------------------------------------------------------------------

    def _record_history(self) -> None:
        """The per-pass sharing gauges, computed over mirror columns.

        Equivalent to the object engine's stable-tree walk: a stable
        node's frame is alive *and* ``ksm_stable`` exactly when its
        mirror state is STABLE (``mark_ksm_stable`` is the only setter,
        frees reset the state, and fids are never reused), and the
        mirror's ``refs`` column tracks ``Frame.refcount`` exactly.
        """
        index = self._index
        rev = index.stable_rev
        cache = self._stable_cache
        if cache is None or cache[0] != rev:
            fids = index.stable_fids()
            arr = self._np.fromiter(fids, self._np.int64, len(fids))
            cache = self._stable_cache = (rev, arr)
        mirror = self._mirror
        np = self._np
        fid_arr = cache[1]
        states = np.frombuffer(mirror.states, dtype=np.uint8)[fid_arr]
        alive = states == FrameMirror.STABLE
        shared = int(alive.sum())
        refs = np.frombuffer(mirror.refs, dtype=np.int64)[fid_arr]
        sharing = int(refs[alive].sum())
        self.history.append((self.clock.now_ms, shared, sharing))

    def unregister(self, table: PageTable) -> None:
        super().unregister(table)
        self._column_cache.pop(table, None)
