package shmem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// memTransport executes one-sided operations directly against the target
// heap from the initiating goroutine — the software analogue of NIC-side
// RDMA/atomic offload: the target PE's worker code is never involved. It
// serves both TransportLocal and TransportShm; the two differ only in
// what the code can observe of the backing store, all keyed on seg:
//
//   - Backing store: Go-allocated heaps on local (newPEState, so it runs
//     where shm is unsupported), one MAP_SHARED segment on shm
//     (newPEStateMapped), where the target heap may belong to another OS
//     process.
//   - Wake and park: with a segment, mutating operations wake the target
//     PE's parked waiters, and WaitUntil64 and the heap barrier spin then
//     park on the segment's wake words (spinThenPark). Without one there
//     is nothing to wake and waits poll.
//   - NBI delivery: local hands each injection to a per-target applier
//     goroutine, so a steal-completion store may land at the target well
//     after the thief has moved on — the weak ordering the protocols must
//     tolerate — and Quiet waits for the appliers. On a cache-coherent
//     shared mapping injection and completion are the same event: NBIs
//     apply inline and Quiet has nothing to wait for.
//
// Blocking operations charge LatencyModel.BlockingRTT (+ bandwidth) before
// applying, emulating the initiator waiting on a network round trip;
// non-blocking ones charge only the injection overhead.
type memTransport struct {
	w        *World
	seg      *shmSegment   // nil on local
	spin     int           // bounded-spin budget before a wait parks (seg only)
	appliers []*nbiApplier // per target PE; nil on shm

	closeOnce sync.Once
	closeErr  error
}

// nbiOp is a deferred non-blocking operation on its way to an applier:
// just the fields an NBI heapOp uses, keeping the channel element small.
type nbiOp struct {
	op    Op
	from  int
	addr  Addr
	val   uint64
	data  *[]byte // pooled copy of a put's source, recycled by the applier
	span  uint64  // causal span tag, recorded at apply time
	delay time.Duration
	dup   bool
}

// nbiApplier serializes deferred operations onto one target PE's heap.
type nbiApplier struct {
	target *peState
	ch     chan nbiOp
	done   chan struct{}
}

// nbiQueueDepth bounds each applier's backlog: deep enough that an
// injection almost never waits on a busy applier, and when one does, the
// initiator blocks as it would on a NIC's full send queue.
const nbiQueueDepth = 1024

// newMemTransport builds the in-memory transport over w.pes, whose heaps
// alias seg when it is non-nil.
func newMemTransport(w *World, seg *shmSegment) *memTransport {
	t := &memTransport{w: w, seg: seg, spin: resolveSpinBudget(w.cfg.SpinBudget)}
	if seg == nil {
		t.appliers = make([]*nbiApplier, len(w.pes))
		for i, pe := range w.pes {
			a := &nbiApplier{target: pe, ch: make(chan nbiOp, nbiQueueDepth), done: make(chan struct{})}
			t.appliers[i] = a
			go t.runApplier(a)
		}
	}
	w.mem = t
	return t
}

func (t *memTransport) runApplier(a *nbiApplier) {
	defer close(a.done)
	for op := range a.ch {
		if op.delay > 0 {
			time.Sleep(op.delay)
		}
		o := heapOp{op: op.op, addr: op.addr, v1: op.val}
		if op.data != nil {
			o.buf = *op.data
		}
		t.deliver(a.target, op.from, &o, op.dup, op.span)
		if op.data != nil {
			putBuf(op.data)
		}
		t.w.pes[op.from].nbiPending.Add(-1)
	}
}

func (t *memTransport) pe(to int) (*peState, error) {
	if to < 0 || to >= len(t.w.pes) {
		return nil, fmt.Errorf("shmem: target PE %d out of range [0, %d)", to, len(t.w.pes))
	}
	return t.w.pes[to], nil
}

// do runs one blocking operation: validate it, take the fault verdict,
// charge the round trip, apply it at the target, wake the target's parked
// waiters, and stamp the victim-side flight event.
func (t *memTransport) do(from, to int, o *heapOp, span uint64) (uint64, []byte, error) {
	pe, err := t.pe(to)
	if err != nil {
		return 0, nil, err
	}
	if err := pe.check(o); err != nil {
		return 0, nil, err
	}
	v := t.w.verdict(o.op, from, to, o.addr)
	lat := &t.w.cfg.Latency
	at := lat.charge(lat.blockingCost(len(o.buf)) + v.Delay)
	if err := v.failure(); err != nil {
		return 0, nil, opError(o.op, from, to, err)
	}
	val, data, err := pe.apply(t.w, o, nil)
	if err != nil {
		return 0, nil, err
	}
	if v.Duplicate && o.idempotent() {
		pe.apply(t.w, o, nil)
	}
	if o.op == OpFetchAddGet {
		// The same round trip carries the handler-selected payload back.
		if end := lat.charge(lat.bandwidth(len(data))); end != 0 {
			at = end
		}
	}
	t.wake(pe, o)
	t.w.flightVictim(at, o.op, from, to, span)
	return val, data, nil
}

// inject issues one non-blocking operation: take the fault verdict (a
// drop silently loses it, Quiet unaffected; a delay stalls its delivery;
// a duplicate re-delivers an idempotent one), charge the injection
// overhead, and deliver it — inline on shm, through the target's applier
// on local. Ctx has already validated o against the symmetric heap
// geometry (checkNBI), which every heap here shares.
func (t *memTransport) inject(from, to int, o *heapOp, span uint64) error {
	pe := t.w.pes[to]
	v := t.w.verdict(o.op, from, to, o.addr)
	if v.dropped() {
		return nil
	}
	dup := v.Duplicate && o.idempotent()
	t.w.cfg.Latency.charge(t.w.cfg.Latency.InjectOverhead)
	if t.seg != nil {
		if v.Delay > 0 {
			time.Sleep(v.Delay)
		}
		t.deliver(pe, from, o, dup, span)
		return nil
	}
	var data *[]byte
	if o.op == OpPutNBI {
		// The applier must own a copy of src: the caller may reuse it the
		// moment we return.
		data = getBuf(len(o.buf))
		copy(*data, o.buf)
	}
	t.w.pes[from].nbiPending.Add(1)
	t.appliers[to].ch <- nbiOp{op: o.op, from: from, addr: o.addr, val: o.v1, data: data, span: span, delay: v.Delay, dup: dup}
	return nil
}

// deliver applies a non-blocking operation at its target.
func (t *memTransport) deliver(pe *peState, from int, o *heapOp, dup bool, span uint64) {
	pe.apply(t.w, o, nil)
	if dup {
		pe.apply(t.w, o, nil)
	}
	t.wake(pe, o)
	t.w.flightVictim(0, o.op, from, pe.rank, span)
}

// wake unparks waiters parked on pe's heap after a mutating op; without
// a segment no one parks.
func (t *memTransport) wake(pe *peState, o *heapOp) {
	if t.seg == nil || !o.mutates() {
		return
	}
	t.seg.wake(pe.rank)
}

func (t *memTransport) put(from, to int, addr Addr, src []byte, span uint64) error {
	_, _, err := t.do(from, to, &heapOp{op: OpPut, addr: addr, buf: src}, span)
	return err
}

func (t *memTransport) get(from, to int, addr Addr, dst []byte, span uint64) error {
	_, _, err := t.do(from, to, &heapOp{op: OpGet, addr: addr, buf: dst}, span)
	return err
}

func (t *memTransport) getv(from, to int, spans []Span, dst []byte, span uint64) error {
	var first Addr
	if len(spans) > 0 {
		first = spans[0].Addr // fault injectors key on the leading address
	}
	_, _, err := t.do(from, to, &heapOp{op: OpGetV, addr: first, buf: dst, spans: spans}, span)
	return err
}

func (t *memTransport) fetchAdd64(from, to int, addr Addr, delta uint64, span uint64) (uint64, error) {
	v, _, err := t.do(from, to, &heapOp{op: OpFetchAdd, addr: addr, v1: delta}, span)
	return v, err
}

func (t *memTransport) swap64(from, to int, addr Addr, val uint64, span uint64) (uint64, error) {
	v, _, err := t.do(from, to, &heapOp{op: OpSwap, addr: addr, v1: val}, span)
	return v, err
}

func (t *memTransport) compareSwap64(from, to int, addr Addr, old, new uint64, span uint64) (uint64, error) {
	v, _, err := t.do(from, to, &heapOp{op: OpCompareSwap, addr: addr, v1: old, v2: new}, span)
	return v, err
}

func (t *memTransport) load64(from, to int, addr Addr, span uint64) (uint64, error) {
	v, _, err := t.do(from, to, &heapOp{op: OpLoad, addr: addr}, span)
	return v, err
}

func (t *memTransport) store64(from, to int, addr Addr, val uint64, span uint64) error {
	_, _, err := t.do(from, to, &heapOp{op: OpStore, addr: addr, v1: val}, span)
	return err
}

func (t *memTransport) fetchAddGet(from, to int, addr Addr, delta uint64, id uint64, span uint64) (uint64, []byte, error) {
	// The handler is SPMD-registered everywhere, so the initiator runs it
	// against the target heap directly — the "NIC-side" gather with no
	// target CPU involved, as on real offload hardware.
	return t.do(from, to, &heapOp{op: OpFetchAddGet, addr: addr, v1: delta, v2: id}, span)
}

func (t *memTransport) storeNBI(from, to int, addr Addr, val uint64, span uint64) error {
	return t.inject(from, to, &heapOp{op: OpStoreNBI, addr: addr, v1: val}, span)
}

func (t *memTransport) addNBI(from, to int, addr Addr, delta uint64, span uint64) error {
	return t.inject(from, to, &heapOp{op: OpAddNBI, addr: addr, v1: delta}, span)
}

func (t *memTransport) putNBI(from, to int, addr Addr, src []byte, span uint64) error {
	return t.inject(from, to, &heapOp{op: OpPutNBI, addr: addr, buf: src}, span)
}

// quiet waits for from's injections still queued at local appliers; on
// shm every injection was applied before it returned, so the count is
// already zero.
func (t *memTransport) quiet(from int) error {
	pe := t.w.pes[from]
	return t.w.spinUntil(func() bool { return pe.nbiPending.Load() == 0 })
}

func (t *memTransport) close() error {
	t.closeOnce.Do(func() {
		for _, a := range t.appliers {
			close(a.ch)
		}
		for _, a := range t.appliers {
			<-a.done
		}
		if t.seg != nil {
			if r := t.w.localRank; r >= 0 {
				t.seg.detachRank(r)
			}
			t.closeErr = t.seg.close()
		}
	})
	return t.closeErr
}

// waitWord waits until pred holds for pe's heap word at wordIdx. stop is
// evaluated every iteration to unwind on world failure, peer death, or
// deadline; it receives the last observed value for error messages. When
// the heap lives in a shm segment the wait spins, then parks until a
// mutating operation wakes it; every other world polls, yielding and
// sleeping a microsecond every 64th iteration.
func (w *World) waitWord(pe *peState, wordIdx int, pred func(uint64) bool, stop func(uint64) error) (uint64, error) {
	if m := w.mem; m != nil && m.seg != nil {
		return m.spinThenPark(pe, wordIdx, pred, stop)
	}
	word := &pe.words[wordIdx]
	for spins := 0; ; spins++ {
		v := atomic.LoadUint64(word)
		if pred(v) {
			return v, nil
		}
		if err := stop(v); err != nil {
			return 0, err
		}
		if spins%64 == 63 {
			time.Sleep(time.Microsecond)
		} else {
			yield()
		}
	}
}
