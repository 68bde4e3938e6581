"""PCQ and MPQ semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queues import (
    MigrationPendingQueue,
    MigrationRequest,
    PromotionCandidateQueue,
)
from repro.mem.frame import Frame
from repro.mmu.address_space import AddressSpace


def request(pfn=0, vpn=0):
    frame = Frame(pfn, 1)
    space = AddressSpace(16)
    frame.add_rmap(space, vpn)
    return MigrationRequest(frame, space, vpn, frame.generation)


def test_pcq_push_and_membership():
    pcq = PromotionCandidateQueue(4)
    req = request()
    pcq.push(req)
    assert len(pcq) == 1
    assert req.frame in pcq


def test_pcq_duplicate_push_ignored():
    pcq = PromotionCandidateQueue(4)
    req = request()
    pcq.push(req)
    pcq.push(MigrationRequest(req.frame, req.space, req.vpn, req.generation))
    assert len(pcq) == 1


def test_pcq_capacity_evicts_oldest():
    pcq = PromotionCandidateQueue(2)
    reqs = [request(pfn=i) for i in range(3)]
    for req in reqs:
        pcq.push(req)
    assert len(pcq) == 2
    assert reqs[0].frame not in pcq
    assert reqs[2].frame in pcq


def test_pcq_scan_hot_pops_hot_keeps_cold():
    pcq = PromotionCandidateQueue(8)
    hot_req = request(pfn=1)
    cold_req = request(pfn=2)
    pcq.push(hot_req)
    pcq.push(cold_req)
    hot = pcq.scan_hot(lambda r: r is hot_req, limit=8)
    assert hot == [hot_req]
    assert len(pcq) == 1
    assert cold_req.frame in pcq


def test_pcq_scan_respects_limit():
    pcq = PromotionCandidateQueue(16)
    reqs = [request(pfn=i) for i in range(10)]
    for req in reqs:
        pcq.push(req)
    hot = pcq.scan_hot(lambda r: True, limit=3)
    assert len(hot) == 3
    assert len(pcq) == 7


def test_pcq_scan_drops_stale_requests():
    pcq = PromotionCandidateQueue(8)
    req = request()
    pcq.push(req)
    req.frame.remove_rmap(req.space, req.vpn)  # freed concurrently
    hot = pcq.scan_hot(lambda r: True, limit=8)
    assert hot == []
    assert len(pcq) == 0


def test_pcq_scan_drops_reallocated_frames():
    pcq = PromotionCandidateQueue(8)
    req = request()
    pcq.push(req)
    req.frame.remove_rmap(req.space, req.vpn)
    req.frame.reset()  # generation bump
    req.frame.add_rmap(req.space, req.vpn)
    hot = pcq.scan_hot(lambda r: True, limit=8)
    assert hot == []


def reference_scan_hot(pcq, is_hot, limit):
    """The scan as first written: every probe leaves the member map, and
    a cold probe is re-added when it is requeued."""
    hot = []
    queue = pcq._queue
    members = pcq._members
    for _ in range(min(limit, len(queue))):
        request = queue.popleft()
        frame = request.frame
        del members[id(frame)]
        if not frame.rmap or frame.generation != request.generation:
            continue
        if is_hot(request):
            hot.append(request)
        else:
            queue.append(request)
            members[id(frame)] = request
    return hot


_NR_FRAMES = 12
_pcq_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, _NR_FRAMES - 1)),
        st.tuples(st.just("unmap"), st.integers(0, _NR_FRAMES - 1)),
        st.tuples(st.just("realloc"), st.integers(0, _NR_FRAMES - 1)),
        st.tuples(
            st.just("scan"),
            st.frozensets(st.integers(0, _NR_FRAMES - 1)),
            st.integers(0, 20),
        ),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 16), _pcq_ops)
def test_pcq_scan_matches_reference(capacity, ops):
    """Random pushes, stale entries (rmap removed or generation bumped),
    hot sets and limits: the scan returns the reference's hot list and
    leaves the same queue order and the same members."""
    space = AddressSpace(64)
    frames = [Frame(pfn, 1) for pfn in range(_NR_FRAMES)]
    for pfn, frame in enumerate(frames):
        frame.add_rmap(space, pfn)
    pcq = PromotionCandidateQueue(capacity)
    ref = PromotionCandidateQueue(capacity)
    for op in ops:
        if op[0] == "push":
            frame = frames[op[1]]
            req = MigrationRequest(frame, space, op[1], frame.generation)
            assert pcq.push(req) is ref.push(req)
        elif op[0] == "unmap":
            frame = frames[op[1]]
            if frame.rmap:
                frame.remove_rmap(space, op[1])
        elif op[0] == "realloc":
            frame = frames[op[1]]
            if frame.rmap:
                frame.remove_rmap(space, op[1])
            frame.reset()
            frame.add_rmap(space, op[1])
        else:
            _, hot_vpns, limit = op

            def is_hot(request):
                return request.vpn in hot_vpns

            got = pcq.scan_hot(is_hot, limit)
            want = reference_scan_hot(ref, is_hot, limit)
            assert [id(r) for r in got] == [id(r) for r in want]
        assert [id(r) for r in pcq._queue] == [id(r) for r in ref._queue]
        assert {k: id(v) for k, v in pcq._members.items()} == {
            k: id(v) for k, v in ref._members.items()
        }


def test_pcq_invalid_capacity():
    with pytest.raises(ValueError):
        PromotionCandidateQueue(0)


def test_mpq_fifo():
    mpq = MigrationPendingQueue()
    reqs = [request(pfn=i) for i in range(3)]
    for req in reqs:
        assert mpq.push(req)
    assert mpq.pop() is reqs[0]
    assert mpq.pop() is reqs[1]
    assert len(mpq) == 1


def test_mpq_duplicate_rejected():
    mpq = MigrationPendingQueue()
    req = request()
    assert mpq.push(req)
    assert not mpq.push(req)


def test_mpq_capacity():
    mpq = MigrationPendingQueue(capacity=2)
    for i in range(3):
        mpq.push(request(pfn=i))
    assert len(mpq) == 2
    assert mpq.dropped == 1


def test_mpq_pop_empty():
    assert MigrationPendingQueue().pop() is None


def test_mpq_retry_bounded():
    mpq = MigrationPendingQueue(max_attempts=3)
    req = request()
    assert mpq.retry(req)  # attempt 1
    mpq.pop()
    assert mpq.retry(req)  # attempt 2
    mpq.pop()
    assert not mpq.retry(req)  # attempt 3 -> dropped
    assert mpq.dropped == 1
    assert len(mpq) == 0


# ----------------------------------------------------------------------
# Edge cases with tracepoints: the drop/evict paths must both return
# the documented value AND tell the trace stream why.
# ----------------------------------------------------------------------
def traced_obs():
    """An enabled ObsManager on a minimal machine-shaped host."""
    from types import SimpleNamespace

    from repro.obs.tracepoints import ObsManager

    host = SimpleNamespace(engine=SimpleNamespace(now=0.0))
    return ObsManager(host).enable(sample_period=None)


def test_mpq_retry_into_full_queue_drops_as_full():
    # An aborted transaction with attempts to spare retries into a queue
    # that filled up meanwhile: the re-push fails as a capacity drop,
    # not a retry exhaustion, and the tracepoint says so.
    obs = traced_obs()
    mpq = MigrationPendingQueue(capacity=1, max_attempts=4, obs=obs)
    blocker = request(pfn=1)
    assert mpq.push(blocker)
    victim = request(pfn=2, vpn=7)
    assert not mpq.retry(victim)
    assert victim.attempts == 1  # attempt was consumed by the retry
    assert mpq.dropped == 1
    drops = obs.select("mpq.drop")
    assert len(drops) == 1
    assert drops[0].args == {"vpn": 7, "reason": "full", "depth": 1}
    # The queue itself is untouched by the failed retry.
    assert len(mpq) == 1 and blocker.frame in mpq


def test_mpq_retry_exhaustion_traces_max_attempts():
    obs = traced_obs()
    mpq = MigrationPendingQueue(max_attempts=2, obs=obs)
    req = request(vpn=9)
    assert mpq.retry(req)  # attempt 1: requeued (and traced)
    mpq.pop()
    assert not mpq.retry(req)  # attempt 2: dropped
    retries = obs.select("mpq.retry")
    assert [r.args["attempts"] for r in retries] == [1]
    drops = obs.select("mpq.drop")
    assert len(drops) == 1
    assert drops[0].args["reason"] == "max_attempts"
    assert drops[0].args["vpn"] == 9


def test_pcq_push_returns_evicted_request_and_traces_it():
    obs = traced_obs()
    pcq = PromotionCandidateQueue(capacity=2, obs=obs)
    oldest = request(pfn=1, vpn=11)
    pcq.push(oldest)
    assert pcq.push(request(pfn=2)) is None  # room left: nothing evicted
    evicted = pcq.push(request(pfn=3))
    assert evicted is oldest
    assert oldest.frame not in pcq and len(pcq) == 2
    evts = obs.select("pcq.evict")
    assert len(evts) == 1
    assert evts[0].args["vpn"] == 11


def test_pcq_duplicate_push_never_evicts():
    # Re-pushing a queued frame at capacity must be a no-op, not an
    # eviction of somebody else.
    pcq = PromotionCandidateQueue(capacity=2)
    a, b = request(pfn=1), request(pfn=2)
    pcq.push(a)
    pcq.push(b)
    assert pcq.push(MigrationRequest(a.frame, a.space, a.vpn, a.generation)) is None
    assert a.frame in pcq and b.frame in pcq
