"""Tests for the shuffle manager's registry and fetch accounting."""

import sys
import threading

import pytest

from repro.common.errors import ShuffleError
from repro.engine.batch import RecordBatch
from repro.engine.shuffle import FetchStats, ShuffleManager


@pytest.fixture
def mgr():
    return ShuffleManager(block_header=10.0)


def put(mgr, shuffle_id, map_id, node, blocks):
    return mgr.put_map_output(shuffle_id, map_id, node, blocks)


class TestRegistry:
    def test_fetch_unregistered_raises(self, mgr):
        with pytest.raises(ShuffleError):
            mgr.fetch(99, 0, "a")

    def test_reregister_same_dims_is_noop(self, mgr):
        """Resubmitted map stages re-register; stored blocks must survive."""
        mgr.register(1, 1, 2)
        put(mgr, 1, 0, "a", {0: ([("k", 1)], 100.0)})
        mgr.register(1, 1, 2)
        assert mgr.bytes_written(1) == pytest.approx(110.0)
        records, _stats = mgr.fetch(1, 0, "a")
        assert records == [("k", 1)]

    def test_reregister_different_dims_raises(self, mgr):
        mgr.register(1, 2, 2)
        with pytest.raises(ShuffleError, match="different dimensions"):
            mgr.register(1, 2, 4)
        with pytest.raises(ShuffleError, match="different dimensions"):
            mgr.register(1, 3, 2)

    def test_out_of_range_map_id(self, mgr):
        mgr.register(1, 2, 2)
        with pytest.raises(ShuffleError):
            put(mgr, 1, 5, "a", {0: ([("k", 1)], 1.0)})

    def test_out_of_range_reduce_id(self, mgr):
        mgr.register(1, 1, 2)
        with pytest.raises(ShuffleError):
            put(mgr, 1, 0, "a", {7: ([("k", 1)], 1.0)})


class TestWriteAccounting:
    def test_header_added_per_nonempty_block(self, mgr):
        mgr.register(1, 1, 3)
        written = put(
            mgr, 1, 0, "a",
            {0: ([("k", 1)], 100.0), 1: ([], 0.0), 2: ([("j", 2)], 50.0)},
        )
        assert written == pytest.approx(100.0 + 50.0 + 2 * 10.0)

    def test_bytes_written_accumulates(self, mgr):
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("k", 1)], 30.0)})
        put(mgr, 1, 1, "b", {0: ([("k", 2)], 20.0)})
        assert mgr.bytes_written(1) == pytest.approx(30.0 + 20.0 + 2 * 10.0)

    def test_num_reduces(self, mgr):
        mgr.register(3, 1, 7)
        assert mgr.num_reduces(3) == 7


class TestFetch:
    def test_fetch_before_all_maps_raises(self, mgr):
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("k", 1)], 1.0)})
        with pytest.raises(ShuffleError):
            mgr.fetch(1, 0, "a")

    def test_fetch_collects_records_in_map_order(self, mgr):
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 1.0)})
        put(mgr, 1, 1, "b", {0: ([("y", 2)], 1.0)})
        records, _stats = mgr.fetch(1, 0, "a")
        assert records == [("x", 1), ("y", 2)]

    def test_local_vs_remote_accounting(self, mgr):
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 100.0)})
        put(mgr, 1, 1, "b", {0: ([("y", 2)], 40.0)})
        _records, stats = mgr.fetch(1, 0, "a")
        assert stats.local_bytes == pytest.approx(110.0)
        assert stats.remote_bytes_by_src == {"b": pytest.approx(50.0)}
        assert stats.remote_bytes == pytest.approx(50.0)
        assert stats.total_bytes == pytest.approx(160.0)
        assert stats.n_blocks == 2

    def test_empty_blocks_not_fetched(self, mgr):
        mgr.register(1, 2, 2)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 1.0)})
        put(mgr, 1, 1, "b", {1: ([("y", 2)], 1.0)})
        records, stats = mgr.fetch(1, 0, "c")
        assert records == [("x", 1)]
        assert stats.n_blocks == 1

    def test_map_output_nodes(self, mgr):
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 100.0)})
        put(mgr, 1, 1, "a", {0: ([("y", 2)], 30.0)})
        by_node = mgr.map_output_nodes(1, 0)
        assert by_node == {"a": pytest.approx(150.0)}

    def test_clear(self, mgr):
        mgr.register(1, 1, 1)
        mgr.clear()
        with pytest.raises(ShuffleError):
            mgr.bytes_written(1)


class TestReexecution:
    def test_overwrite_map_output_does_not_double_count(self, mgr):
        """Speculative/retried map tasks replace their blocks."""
        mgr.register(1, 1, 2)
        put(mgr, 1, 0, "a", {0: ([("k", 1)], 100.0)})
        put(mgr, 1, 0, "b", {0: ([("k", 1)], 100.0)})
        assert mgr.bytes_written(1) == pytest.approx(110.0)
        records, stats = mgr.fetch(1, 0, "b")
        assert records == [("k", 1)]
        assert stats.local_bytes == pytest.approx(110.0)

    def test_rerun_on_different_node_moves_block(self, mgr):
        """A map task re-run on another node relocates its output fully."""
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 100.0)})
        put(mgr, 1, 1, "c", {0: ([("y", 2)], 40.0)})
        # Map 0 re-runs on node b (retry or speculation win there).
        put(mgr, 1, 0, "b", {0: ([("x", 1)], 100.0)})
        # Locality view reports the new node only — no ghost copy on a.
        by_node = mgr.map_output_nodes(1, 0)
        assert by_node == {"b": pytest.approx(110.0), "c": pytest.approx(50.0)}
        assert mgr.bytes_written(1) == pytest.approx(110.0 + 50.0)
        # Fetch accounting follows the block to its new home.
        _records, stats = mgr.fetch(1, 0, "b")
        assert stats.local_bytes == pytest.approx(110.0)
        assert stats.remote_bytes_by_src == {"c": pytest.approx(50.0)}


class TestZeroCopyFetch:
    def test_single_block_returns_registered_container(self, mgr):
        """One non-empty contributing block: fetch hands it back uncopied."""
        mgr.register(1, 2, 2)
        block = [("x", 1), ("y", 2)]
        put(mgr, 1, 0, "a", {0: (block, 1.0)})
        put(mgr, 1, 1, "b", {1: ([("z", 3)], 1.0)})
        records, _stats = mgr.fetch(1, 0, "a")
        assert records is block

    def test_single_batch_block_returns_same_batch(self, mgr):
        mgr.register(1, 2, 2)
        batch = RecordBatch.from_records([("x", 1), ("y", 2)])
        put(mgr, 1, 0, "a", {0: (batch, 1.0)})
        put(mgr, 1, 1, "b", {1: ([("z", 3)], 1.0)})
        records, _stats = mgr.fetch(1, 0, "a")
        assert records is batch

    def test_multi_block_fetch_does_not_mutate_registered_lists(self, mgr):
        mgr.register(1, 2, 1)
        block_a = [("x", 1)]
        block_b = [("y", 2)]
        put(mgr, 1, 0, "a", {0: (block_a, 1.0)})
        put(mgr, 1, 1, "b", {0: (block_b, 1.0)})
        records, _stats = mgr.fetch(1, 0, "a")
        assert records == [("x", 1), ("y", 2)]
        assert records is not block_a and records is not block_b
        # Repeated fetches (task retries, speculation) see pristine blocks.
        assert block_a == [("x", 1)] and block_b == [("y", 2)]
        again, _stats = mgr.fetch(1, 0, "a")
        assert again == [("x", 1), ("y", 2)]

    def test_multi_block_fetch_does_not_mutate_registered_batches(self, mgr):
        mgr.register(1, 2, 1)
        batch_a = RecordBatch.from_records([("x", 1.5), ("y", 2.5)])
        batch_b = RecordBatch.from_records([("z", 3.5)])
        put(mgr, 1, 0, "a", {0: (batch_a, 1.0)})
        put(mgr, 1, 1, "b", {0: (batch_b, 1.0)})
        records, _stats = mgr.fetch(1, 0, "a")
        assert isinstance(records, RecordBatch)
        assert records.to_records() == [("x", 1.5), ("y", 2.5), ("z", 3.5)]
        assert batch_a.to_records() == [("x", 1.5), ("y", 2.5)]
        assert batch_b.to_records() == [("z", 3.5)]

    def test_mixed_block_types_flatten_to_records(self, mgr):
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: (RecordBatch.from_records([("x", 1)]), 1.0)})
        put(mgr, 1, 1, "b", {0: ([("y", 2)], 1.0)})
        records, _stats = mgr.fetch(1, 0, "a")
        assert list(records) == [("x", 1), ("y", 2)]


class TestNodeLoss:
    def test_invalidate_node_reports_lost_maps(self, mgr):
        mgr.register(1, 2, 1)
        mgr.register(2, 1, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 100.0)})
        put(mgr, 1, 1, "b", {0: ([("y", 2)], 40.0)})
        put(mgr, 2, 0, "a", {0: ([("z", 3)], 10.0)})
        lost = mgr.invalidate_node("a")
        assert lost == {1: [0], 2: [0]}
        assert mgr.missing_map_ids(1) == [0]
        assert mgr.missing_map_ids(2) == [0]
        # Surviving bytes only.
        assert mgr.bytes_written(1) == pytest.approx(50.0)
        assert mgr.bytes_written(2) == pytest.approx(0.0)

    def test_invalidate_node_without_outputs_is_empty(self, mgr):
        mgr.register(1, 1, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 1.0)})
        assert mgr.invalidate_node("zz") == {}
        assert mgr.missing_map_ids(1) == []

    def test_fetch_after_loss_raises_typed_failure(self, mgr):
        from repro.common.errors import FetchFailure

        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 100.0)})
        put(mgr, 1, 1, "b", {0: ([("y", 2)], 40.0)})
        mgr.invalidate_node("a")
        with pytest.raises(FetchFailure) as exc_info:
            mgr.fetch(1, 0, "b")
        failure = exc_info.value
        assert isinstance(failure, ShuffleError)
        assert failure.shuffle_id == 1
        assert failure.map_ids == [0]
        assert failure.node == "a"

    def test_rebuilt_output_heals_shuffle(self, mgr):
        mgr.register(1, 2, 1)
        put(mgr, 1, 0, "a", {0: ([("x", 1)], 100.0)})
        put(mgr, 1, 1, "b", {0: ([("y", 2)], 40.0)})
        mgr.invalidate_node("a")
        put(mgr, 1, 0, "b", {0: ([("x", 1)], 100.0)})
        assert mgr.missing_map_ids(1) == []
        records, _stats = mgr.fetch(1, 0, "b")
        assert records == [("x", 1), ("y", 2)]


def scan_every_map(mgr, shuffle_id, reduce_id, dst_node, map_range=None):
    """Reference fetch: probe every map id in order, as before the index."""
    state = mgr._shuffles[shuffle_id]
    lo, hi = (0, state.num_maps) if map_range is None else map_range
    records, stats = [], FetchStats()
    for map_id in range(max(0, lo), min(state.num_maps, hi)):
        block = state.blocks[map_id].get(reduce_id)
        if block is None:
            continue
        records.extend(block.records)
        stats.n_blocks += 1
        if block.node == dst_node:
            stats.local_bytes += block.nbytes
        else:
            stats.remote_bytes_by_src[block.node] = (
                stats.remote_bytes_by_src.get(block.node, 0.0) + block.nbytes
            )
    return records, stats


def assert_fetch_matches_scan(mgr, shuffle_id, dst_node="a", map_range=None):
    for reduce_id in range(mgr.num_reduces(shuffle_id)):
        got, got_stats = mgr.fetch(shuffle_id, reduce_id, dst_node, map_range)
        want, want_stats = scan_every_map(
            mgr, shuffle_id, reduce_id, dst_node, map_range
        )
        assert list(got) == want
        assert got_stats == want_stats
        # Source order is visible: it orders labeled counter creation.
        assert list(got_stats.remote_bytes_by_src) == list(
            want_stats.remote_bytes_by_src
        )


def fill(mgr, shuffle_id=1, num_maps=6, num_reduces=5, nodes="abc"):
    """Maps write to a map-dependent subset of reduces, some left empty."""
    mgr.register(shuffle_id, num_maps, num_reduces)
    for map_id in range(num_maps):
        blocks = {
            r: ([(f"k{map_id}.{r}", map_id * 10 + r)], 7.0 + map_id + r)
            for r in range(num_reduces)
            if (map_id + r) % 3 != 0
        }
        blocks[num_reduces - 1] = ([], 0.0)  # empty: never stored
        put(mgr, shuffle_id, map_id, nodes[map_id % len(nodes)], blocks)


class TestFetchIndex:
    """The per-reduce map index must serve exactly what a full scan would."""

    def test_matches_full_scan(self, mgr):
        fill(mgr)
        assert_fetch_matches_scan(mgr, 1)
        assert_fetch_matches_scan(mgr, 1, dst_node="zz")
        mgr.drop_fetch_indexes()  # as at job end: the next fetch rebuilds
        assert_fetch_matches_scan(mgr, 1)

    def test_reput_after_fetch(self, mgr):
        # A retried or speculative map re-registers its output after the
        # index was built, writing to other reduces on another node.
        fill(mgr)
        assert_fetch_matches_scan(mgr, 1)
        put(mgr, 1, 3, "c", {r: ([("re", r)], 3.0) for r in range(5)})
        assert_fetch_matches_scan(mgr, 1)
        put(mgr, 1, 0, "b", {2: ([("only", 2)], 1.0)})
        assert_fetch_matches_scan(mgr, 1)

    def test_invalidate_then_resubmit(self, mgr):
        from repro.common.errors import FetchFailure

        fill(mgr)
        assert_fetch_matches_scan(mgr, 1)
        lost = mgr.invalidate_node("b")[1]
        with pytest.raises(FetchFailure):
            mgr.fetch(1, 0, "a")
        for map_id in lost:  # the resubmitted map stage, on survivors
            put(mgr, 1, map_id, "c", {
                r: ([(f"rebuilt{map_id}", r)], 2.0 + r) for r in (0, 2, 3)
            })
        assert_fetch_matches_scan(mgr, 1)

    @pytest.mark.parametrize(
        "map_range", [(0, 6), (0, 3), (2, 5), (4, 4), (5, 6), (-3, 2), (3, 99)]
    )
    def test_map_range_slices(self, mgr, map_range):
        fill(mgr)
        assert_fetch_matches_scan(mgr, 1)  # index built before slicing
        assert_fetch_matches_scan(mgr, 1, map_range=map_range)

    def test_concurrent_fetches_race_the_lazy_build(self, mgr):
        # Threaded task bodies fetch concurrently, so several threads can
        # build the index at once; each fetch must still see a full scan.
        fill(mgr, num_maps=40, num_reduces=30)
        want = {r: scan_every_map(mgr, 1, r, "a") for r in range(30)}
        wrong = []

        def fetch_all(offset):
            for i in range(30):
                r = (i + offset) % 30
                got, stats = mgr.fetch(1, r, "a")
                if list(got) != want[r][0] or stats != want[r][1]:
                    wrong.append(r)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                mgr.drop_fetch_indexes()
                threads = [
                    threading.Thread(target=fetch_all, args=(k,)) for k in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_spilled_blocks(self, tmp_path):
        from repro.engine.storage import SpillManager

        spill = SpillManager(20.0, directory=str(tmp_path))
        try:
            mgr = ShuffleManager(block_header=10.0, spill=spill)
            fill(mgr)
            assert mgr.spilled_blocks() > 0
            assert_fetch_matches_scan(mgr, 1)
            put(mgr, 1, 2, "a", {1: ([("spill-reput", 1)], 30.0)})
            assert_fetch_matches_scan(mgr, 1)
            assert_fetch_matches_scan(mgr, 1, map_range=(1, 4))
        finally:
            spill.close()
