package shmem

import (
	"fmt"
	"sync/atomic"
)

// heapOp is one one-sided operation as its target heap sees it. Every
// transport ends in the same target-side executor (peState.check and
// peState.apply): the in-memory transport runs it on the initiator's
// goroutine, the sim scheduler when it wakes the initiator, and the tcp
// server when a request arrives. Only the path to the heap differs.
type heapOp struct {
	op    Op
	addr  Addr
	v1    uint64 // delta, stored value, or compare-swap expected value
	v2    uint64 // compare-swap replacement, or fused handler id
	buf   []byte // put source, or get/getv destination
	spans []Span // getv gather list, filling buf in order
}

// mutates reports whether o may write the heap (so parked waiters on it
// need a wake).
func (o *heapOp) mutates() bool {
	return o.op != OpGet && o.op != OpGetV && o.op != OpLoad
}

// idempotent reports whether applying o twice equals applying it once —
// the only operations a Duplicate fault verdict may re-deliver. Atomics on
// a reliable fabric are never blindly retransmitted.
func (o *heapOp) idempotent() bool {
	switch o.op {
	case OpPut, OpPutNBI, OpStore, OpStoreNBI:
		return true
	}
	return false
}

// check validates o against this heap's geometry without touching heap
// memory: word alignment and bounds for atomics, byte bounds for
// transfers, and a getv span list that covers buf exactly.
func (p *peState) check(o *heapOp) error {
	switch o.op {
	case OpPut, OpPutNBI, OpGet:
		return p.checkRange(o.addr, len(o.buf))
	case OpGetV:
		total := 0
		for _, sp := range o.spans {
			if err := p.checkRange(sp.Addr, sp.N); err != nil {
				return err
			}
			total += sp.N
		}
		if total != len(o.buf) {
			return fmt.Errorf("shmem: getv spans cover %d bytes, dst holds %d", total, len(o.buf))
		}
		return nil
	case OpFetchAdd, OpSwap, OpCompareSwap, OpLoad, OpStore, OpStoreNBI, OpAddNBI, OpFetchAddGet:
		_, err := p.checkWord(o.addr)
		return err
	default:
		return fmt.Errorf("shmem: unknown heap op %v", o.op)
	}
}

// apply executes o, which must have passed check, and returns the fetched
// word and the bytes read: buf for get and getv, the handler-selected
// payload for fetch-add-get (gathered into scratch when its capacity
// suffices, else freshly allocated). Compare-swap is SHMEM's fetching
// form: it returns the prior value whether or not the swap happened.
func (p *peState) apply(w *World, o *heapOp, scratch []byte) (uint64, []byte, error) {
	switch o.op {
	case OpPut, OpPutNBI:
		p.copyIn(o.addr, o.buf)
	case OpGet:
		p.copyOut(o.addr, o.buf)
		return 0, o.buf, nil
	case OpGetV:
		off := 0
		for _, sp := range o.spans {
			p.copyOut(sp.Addr, o.buf[off:off+sp.N])
			off += sp.N
		}
		return 0, o.buf, nil
	case OpFetchAdd:
		return atomic.AddUint64(p.wordAt(o.addr), o.v1) - o.v1, nil, nil
	case OpAddNBI:
		atomic.AddUint64(p.wordAt(o.addr), o.v1)
	case OpSwap:
		return atomic.SwapUint64(p.wordAt(o.addr), o.v1), nil, nil
	case OpCompareSwap:
		word := p.wordAt(o.addr)
		for {
			cur := atomic.LoadUint64(word)
			if cur != o.v1 {
				return cur, nil, nil
			}
			if atomic.CompareAndSwapUint64(word, o.v1, o.v2) {
				return o.v1, nil, nil
			}
		}
	case OpLoad:
		return atomic.LoadUint64(p.wordAt(o.addr)), nil, nil
	case OpStore, OpStoreNBI:
		atomic.StoreUint64(p.wordAt(o.addr), o.v1)
	case OpFetchAddGet:
		old := atomic.AddUint64(p.wordAt(o.addr), o.v1) - o.v1
		data, err := w.applyFusedInto(p, old, o.v2, scratch)
		if err != nil {
			return 0, nil, err
		}
		return old, data, nil
	}
	return 0, nil, nil
}

// exec validates and applies o in one step, for executors with nothing
// to do between the two.
func (p *peState) exec(w *World, o *heapOp, scratch []byte) (uint64, []byte, error) {
	if err := p.check(o); err != nil {
		return 0, nil, err
	}
	return p.apply(w, o, scratch)
}
