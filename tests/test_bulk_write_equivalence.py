"""The bulk page-write path against page-by-page writes.

``GuestProcess.write_pages`` resolves every gfn of a batch first and
hands the batch to ``KvmGuestVm.write_gfns`` →
``HostPhysicalMemory.write_tokens`` in one call.  A random sparse batch
is written once that way and once through one-page ``write_token`` calls,
on twin hosts whose pages start out unmapped, exclusively owned,
copy-on-write shared, KSM-stable or in the compressed pool, with the KSM
scanner and a working-set estimator listening to the dirty log.  Every
observable piece of state must come out identical, including when the
batch runs the guest out of memory and the balloon deflates mid-batch.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.guestos.kernel import GuestKernel, OutOfGuestMemoryError
from repro.guestos.pagecache import BackingFile
from repro.hypervisor.balloon import BalloonDriver
from repro.hypervisor.kvm import KvmHost
from repro.mem.address_space import PageTable
from repro.mem.workingset import WorkingSetEstimator
from repro.units import MiB

PAGE = 4096
VMA_PAGES = 24
GUEST_PAGES = 40

UNMAPPED, EXCLUSIVE, COW_SHARED, STABLE, STABLE_SHARED, COMPRESSED = range(6)


class Universe:
    """One host with one guest process whose VMA pages are in given states."""

    def __init__(self, states, balloon):
        self.host = KvmHost(64 * MiB, seed=11)
        self.physmem = self.host.physmem
        self.mirror = self.physmem.attach_frame_mirror()
        self.store = self.host.enable_compression()
        self.vm = self.host.create_guest("vm1", GUEST_PAGES * PAGE)
        self.kernel = GuestKernel(self.vm, self.host.rng.derive("g"))
        self.process = self.kernel.spawn("java")
        self.vma = self.process.mmap_anon(VMA_PAGES * PAGE, "java:heap")
        self.other = PageTable("host:other")
        self.sink_calls = []
        table = self.vm.page_table
        table.attach_dirty_sink(self.sink_calls.append)
        self.estimator = WorkingSetEstimator(PAGE)
        self.estimator.track(table)
        for page, state in enumerate(states):
            if state == UNMAPPED:
                continue
            self.process.write_token(self.vma, page, 1000 + page % 5)
            vpn = self.host_vpn(page)
            fid = table.translate(vpn)
            if state in (COW_SHARED, STABLE_SHARED):
                self.physmem.share_mapping(self.other, page, fid)
            if state in (STABLE, STABLE_SHARED):
                self.physmem.mark_ksm_stable(fid)
            if state == COMPRESSED:
                self.store.compress_page(table, vpn)
        self.balloon = None
        if balloon:
            self.balloon = BalloonDriver(self.vm, self.kernel)
            self.balloon.inflate(self.kernel.free_pages * PAGE)
            assert self.kernel.free_pages == 0
        self.host.ksm.run_for_ms(20)

    def host_vpn(self, page):
        gfn = self.process.page_table.translate(self.vma.vpn_of(page))
        return self.vm.guest_host_base_vpn + gfn

    def assert_mirror_coherent(self):
        """The columnar mirror agrees with the frame table, fid by fid."""
        mirror = self.mirror
        for fid in range(1, self.physmem.frames_ever_allocated + 1):
            frame = self.physmem.frame(fid)
            if frame is None:
                assert mirror.states[fid] == mirror.FREE
                continue
            assert mirror.tokens[fid] == frame.token
            assert mirror.masked[fid] == frame.token & (2**64 - 1)
            assert mirror.refs[fid] == frame.refcount
            assert mirror.states[fid] == (
                mirror.STABLE if frame.ksm_stable else mirror.ACTIVE
            )

    def observe(self):
        physmem = self.physmem
        frames = {}
        for fid in range(1, physmem.frames_ever_allocated + 1):
            frame = physmem.frame(fid)
            if frame is not None:
                frames[fid] = (frame.token, frame.refcount, frame.ksm_stable)
        table = self.vm.page_table
        return {
            "frames": frames,
            "frames_ever_allocated": physmem.frames_ever_allocated,
            "mirror": (
                list(self.mirror.tokens),
                self.mirror.masked.tolist(),
                bytes(self.mirror.states),
                self.mirror.refs.tolist(),
            ),
            "host_table": table.snapshot(),
            "other_table": self.other.snapshot(),
            "dirty_log": table.pending_dirty_vpns(),
            "sink_calls": list(self.sink_calls),
            "hot_vpns": self.estimator.hot_vpns(table),
            "cow_breaks": physmem.cow_breaks,
            "pool_bytes": physmem.pool_bytes,
            "compression": vars(self.store.stats).copy(),
            "guest_table": self.process.page_table.snapshot(),
            "owners": self.kernel.owners_snapshot(),
            "free_pages": self.kernel.free_pages,
            "oom_deflates": self.balloon.oom_deflates if self.balloon else 0,
            "tokens": [self.peek(page) for page in range(VMA_PAGES)],
        }

    def peek(self, page):
        """The token at a VMA page, without faulting a compressed page in."""
        if self.process.page_table.translate(self.vma.vpn_of(page)) is None:
            return None
        vpn = self.host_vpn(page)
        table = self.vm.page_table
        if self.store.is_compressed(table, vpn):
            return "compressed"
        return self.physmem.read_token(table, vpn)


def write_bulk(universe, pages, tokens):
    universe.process.write_pages(universe.vma, pages, tokens)


def write_page_by_page(universe, pages, tokens):
    for page, token in zip(pages, tokens):
        universe.process.write_token(universe.vma, page, token)


def run(write, states, balloon, pages, tokens):
    universe = Universe(states, balloon)
    error = None
    try:
        write(universe, pages, tokens)
    except OutOfGuestMemoryError as exc:
        error = type(exc)
    universe.estimator.advance_epoch()
    universe.assert_mirror_coherent()
    return error, universe.observe()


batches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=VMA_PAGES - 1),
        # A small token alphabet (0 is the zero page) so that writes
        # often store content that already exists elsewhere.
        st.sampled_from([0, 1000, 1001, 7, 8, 9]),
    ),
    max_size=40,
)


@settings(max_examples=120, deadline=None)
@given(
    states=st.lists(
        st.integers(min_value=UNMAPPED, max_value=COMPRESSED),
        min_size=VMA_PAGES,
        max_size=VMA_PAGES,
    ),
    batch=batches,
    balloon=st.booleans(),
)
def test_bulk_batch_matches_page_by_page(states, batch, balloon):
    pages = [page for page, _ in batch]
    tokens = [token for _, token in batch]
    bulk = run(write_bulk, states, balloon, pages, tokens)
    single = run(write_page_by_page, states, balloon, pages, tokens)
    assert bulk == single


def test_balloon_deflates_mid_batch():
    """A fully ballooned guest: the batch's first fresh page pops it."""
    states = [EXCLUSIVE] * 8 + [UNMAPPED] * (VMA_PAGES - 8)
    pages = list(range(VMA_PAGES - 1, -1, -2))
    tokens = [5000 + page for page in pages]
    error, bulk = run(write_bulk, states, True, pages, tokens)
    assert error is None
    assert bulk["oom_deflates"] == 1
    assert run(write_page_by_page, states, True, pages, tokens) == (
        None, bulk
    )


def test_out_of_memory_mid_batch_matches_page_by_page():
    """Without a balloon the guest runs dry part-way: the pages before the
    failing one are written, exactly as page-by-page writes leave them."""

    def exhaust_then(write):
        def go(universe, pages, tokens):
            filler = universe.kernel.spawn("filler")
            spare = universe.kernel.free_pages - 5
            vma = filler.mmap_anon(spare * PAGE, "fill")
            filler.write_tokens(vma, [3] * spare)
            write(universe, pages, tokens)

        return go

    states = [UNMAPPED] * VMA_PAGES
    pages = list(range(10))
    tokens = [6000 + page for page in pages]
    bulk = run(exhaust_then(write_bulk), states, False, pages, tokens)
    single = run(exhaust_then(write_page_by_page), states, False, pages, tokens)
    assert bulk[0] is OutOfGuestMemoryError
    assert bulk[1]["tokens"][:6] == [6000, 6001, 6002, 6003, 6004, None]
    assert bulk == single


class TestNoHalfWrittenBatches:
    @pytest.fixture
    def universe(self):
        return Universe([EXCLUSIVE] * 4 + [UNMAPPED] * (VMA_PAGES - 4), False)

    def assert_untouched(self, universe, before):
        assert universe.observe() == before

    def test_out_of_range_index_mid_batch(self, universe):
        before = universe.observe()
        free = universe.kernel.free_pages
        with pytest.raises(IndexError):
            universe.process.write_pages(
                universe.vma, [0, 5, 6, VMA_PAGES, 7], [1, 2, 3, 4, 5]
            )
        assert universe.kernel.free_pages == free
        self.assert_untouched(universe, before)

    def test_negative_index_mid_batch(self, universe):
        before = universe.observe()
        with pytest.raises(IndexError):
            universe.process.write_pages(universe.vma, [9, -1, 10], [1, 2, 3])
        self.assert_untouched(universe, before)

    def test_token_count_mismatch(self, universe):
        before = universe.observe()
        with pytest.raises(ValueError):
            universe.process.write_pages(universe.vma, [8, 9], [1])
        self.assert_untouched(universe, before)

    def test_file_backed_vma_rejected(self, universe):
        backing = BackingFile("lib.so", 4 * PAGE, PAGE)
        vma = universe.process.mmap_file(backing, "lib")
        before = universe.observe()
        with pytest.raises(ValueError):
            universe.process.write_pages(vma, [0, 1], [1, 2])
        self.assert_untouched(universe, before)

    @pytest.mark.parametrize(
        "gfns, tokens",
        [([0, 1, GUEST_PAGES], [1, 2, 3]), ([0, 1, 2], [1, 2])],
        ids=["gfn-out-of-range", "token-count-mismatch"],
    )
    def test_bad_gfn_batch_rejected_before_any_write(
        self, universe, gfns, tokens
    ):
        # Page 3's frame goes to the compressed pool, so a batch over it
        # would be split around the restore.
        universe.store.compress_page(
            universe.vm.page_table, universe.host_vpn(3)
        )
        gfns = [universe.host_vpn(3) - universe.vm.guest_host_base_vpn] + gfns
        tokens = [9] + tokens
        before = universe.observe()
        with pytest.raises(ValueError):
            universe.vm.write_gfns(gfns, tokens)
        self.assert_untouched(universe, before)
