package shmem

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// tcpTransport marshals every one-sided operation over loopback TCP to a
// per-PE service goroutine that applies it to the target heap. This is the
// "emulate RMA over RPC" substitution: the service goroutine plays the role
// of the NIC — the target PE's worker code is still never involved.
//
// Each (initiator, target) pair uses up to two connections:
//   - a sync connection carrying request/response round-trips for blocking
//     operations, and
//   - an async connection carrying pipelined non-blocking operations whose
//     acks are drained by a reader goroutine into the initiator's
//     nbiPending counter (consumed by Quiet).
//
// The wire path is allocation-free in steady state: each connection owns
// header scratch and reusable payload staging, response payloads for get
// and getv are read directly into the caller's destination, and async
// traffic is coalesced — injections buffer until Config.AckBatch ops (or a
// blocking op, Quiet, or the background flusher) force them out, and the
// server acks batches with a single count frame instead of a byte per op.
type tcpTransport struct {
	w         *World
	listeners []net.Listener
	addrs     []string

	mu          sync.Mutex
	sync_       map[connKey]*syncConn
	async       map[connKey]*asyncConn
	asyncByFrom [][]*asyncConn // per initiator rank, for Quiet/flusher sweeps

	stop   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
}

type connKey struct {
	from, to int
	kind     byte
}

const (
	connSync  byte = 0
	connAsync byte = 1
)

// spanWireSize is one getv span table entry: addr uint64, n uint32.
const spanWireSize = 12

// Wire format. All integers little-endian.
//
// Connection preamble (initiator -> server):
//   kind uint8, from uint32
// Request:
//   op uint8, addr uint64, val1 uint64, val2 uint64, span uint64,
//   plen uint32, payload
//   (for OpGetV: val1 = span count, val2 = total bytes, payload = span
//   table of (addr uint64, n uint32) entries; span is the reserved
//   causal-span word — zero for untagged traffic)
// Sync response:
//   status uint8, val uint64, plen uint32, payload
//   (status 0 = ok; otherwise payload is an error string)
// Async ack (server -> initiator): count uint32 per batch of applied ops.

const (
	reqHdrSize = 37
	rspHdrSize = 13
)

type syncConn struct {
	mu   sync.Mutex
	rw   *bufio.ReadWriter
	c    net.Conn
	whdr [reqHdrSize]byte // request header scratch (guarded by mu)
	rhdr [rspHdrSize]byte // response header scratch (guarded by mu)
}

type asyncConn struct {
	t        *tcpTransport
	from, to int

	mu        sync.Mutex // serializes writers
	w         *bufio.Writer
	c         net.Conn
	whdr      [reqHdrSize]byte // request header scratch (guarded by mu)
	unflushed int              // ops buffered since the last flush (guarded by mu)

	// outstanding counts this connection's injected-but-unacked ops. When
	// the peer dies the acks never arrive; reconcile() credits the count
	// back to the initiator's global nbiPending so Quiet completes.
	outstanding atomic.Int64
	// broken marks a connection whose peer is gone: writes are discarded
	// and every inject is immediately reconciled.
	broken atomic.Bool
}

func (ac *asyncConn) flush() error {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.flushLocked()
}

func (ac *asyncConn) flushLocked() error {
	if ac.unflushed == 0 {
		return nil
	}
	ac.unflushed = 0
	if ac.broken.Load() {
		ac.reconcile()
		return nil
	}
	if dl := ac.t.w.cfg.OpTimeout; dl > 0 {
		_ = ac.c.SetWriteDeadline(time.Now().Add(dl))
	}
	err := ac.w.Flush()
	if err != nil && ac.t.peerGone(ac.to) {
		// The peer died with injections in flight: write them off (and
		// credit the pending count back) instead of surfacing a fatal
		// transport error for traffic no one can receive.
		ac.markBrokenLocked()
		return nil
	}
	return err
}

// markBrokenLocked points the writer at a discard sink (a bufio.Writer is
// sticky-errored after a failed flush) and reconciles outstanding acks.
// Caller holds ac.mu.
func (ac *asyncConn) markBrokenLocked() {
	if ac.broken.Swap(true) {
		return
	}
	ac.w.Reset(io.Discard)
	ac.reconcile()
}

func (ac *asyncConn) markBroken() {
	ac.mu.Lock()
	ac.markBrokenLocked()
	ac.mu.Unlock()
}

// reconcile credits this connection's never-arriving acks back to the
// initiator's global pending count. Safe to race with the ack reader: both
// sides move the same conserved quantity, so the net effect is exact.
func (ac *asyncConn) reconcile() {
	if rem := ac.outstanding.Swap(0); rem != 0 {
		ac.t.w.pes[ac.from].nbiPending.Add(-rem)
	}
}

// peerGone reports whether rank can no longer receive traffic: crashed or
// declared dead (or the whole transport is shutting down).
func (t *tcpTransport) peerGone(rank int) bool {
	if t.closed.Load() {
		return true
	}
	lv := t.w.live
	return lv != nil && (lv.Killed(rank) || !lv.Alive(rank))
}

// tcpShell builds the common transport skeleton shared by the in-process
// constructor and the multi-process (dist) one.
func tcpShell(w *World, numPEs int) *tcpTransport {
	return &tcpTransport{
		w:           w,
		sync_:       make(map[connKey]*syncConn),
		async:       make(map[connKey]*asyncConn),
		asyncByFrom: make([][]*asyncConn, numPEs),
		stop:        make(chan struct{}),
		listeners:   make([]net.Listener, numPEs),
		addrs:       make([]string, numPEs),
	}
}

func newTCPTransport(w *World) (*tcpTransport, error) {
	t := tcpShell(w, len(w.pes))
	for i := range w.pes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = t.close()
			return nil, fmt.Errorf("listen for PE %d: %w", i, err)
		}
		t.listeners[i] = ln
		t.addrs[i] = ln.Addr().String()
		t.wg.Add(1)
		go t.serve(i, ln)
	}
	t.startFlusher()
	return t, nil
}

// startFlusher launches the background goroutine that periodically flushes
// every initiator-side async connection. Coalescing buffers completion
// notifications, and an owner polling a completion word has no reverse
// channel to request a flush — the flusher bounds how stale a buffered
// notification can get when neither the watermark nor a blocking op forces
// it out.
func (t *tcpTransport) startFlusher() {
	ivl := t.w.cfg.FlushInterval
	if ivl <= 0 {
		return
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(ivl)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
			t.mu.Lock()
			for _, acs := range t.asyncByFrom {
				for _, ac := range acs {
					if err := ac.flush(); err != nil {
						// flushLocked already swallows dead-peer errors;
						// anything left is a live-peer failure. Distributed
						// worlds write the connection off (the crash will
						// be detected shortly); in-process worlds fail.
						if t.closed.Load() || t.w.localRank >= 0 {
							ac.markBroken()
							continue
						}
						t.w.fail(fmt.Errorf("shmem/tcp: background flush: %w", err))
						t.mu.Unlock()
						return
					}
				}
			}
			t.mu.Unlock()
		}
	}()
}

func (t *tcpTransport) serve(rank int, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !t.closed.Load() {
				t.w.fail(fmt.Errorf("shmem/tcp: accept on PE %d: %w", rank, err))
			}
			return
		}
		t.wg.Add(1)
		go t.handle(rank, conn)
	}
}

// handle services one connection against this PE's heap. All scratch is
// per-connection, so the service loop allocates nothing in steady state.
func (t *tcpTransport) handle(rank int, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	r := bufio.NewReaderSize(conn, t.w.cfg.SockBufBytes)
	w := bufio.NewWriterSize(conn, t.w.cfg.SockBufBytes)
	var pre [5]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return // peer vanished before preamble; nothing to clean up
	}
	kind := pre[0]
	from := int(binary.LittleEndian.Uint32(pre[1:]))
	pe := t.w.pes[rank]
	ackBatch := t.w.cfg.AckBatch
	var (
		reqHdr  [reqHdrSize]byte
		rspHdr  [rspHdrSize]byte
		ackFrm  [4]byte
		reqBuf  []byte // request payload staging
		rspBuf  []byte // response payload staging (get/getv/fused gather)
		spans   []Span // getv span table staging
		pending int    // applied async ops not yet acked
	)
	flushAcks := func() error {
		if pending == 0 {
			return nil
		}
		binary.LittleEndian.PutUint32(ackFrm[:], uint32(pending))
		pending = 0
		if _, err := w.Write(ackFrm[:]); err != nil {
			return err
		}
		return w.Flush()
	}
	for {
		op, addr, v1, v2, span, payload, err := readRequest(r, reqHdr[:], &reqBuf)
		if err != nil {
			// An abruptly severed connection from a crashed initiator
			// (RST, not FIN) is survivable: in distributed worlds and for
			// peers the failure detector already wrote off, just drop the
			// connection. Only an in-process world with a live initiator
			// treats it as a runtime bug.
			if !t.closed.Load() && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) &&
				!t.peerGone(from) && t.w.localRank < 0 {
				t.w.fail(fmt.Errorf("shmem/tcp: PE %d read request: %w", rank, err))
			}
			return
		}
		status := byte(0)
		var rv uint64
		var rp []byte
		o, aerr := decodeOp(pe, op, addr, v1, v2, payload, &rspBuf, &spans)
		if aerr == nil {
			rv, rp, aerr = pe.exec(t.w, &o, rspBuf[:0])
		}
		if aerr != nil {
			status, rv, rp = 1, 0, []byte(aerr.Error())
		} else {
			if op == OpFetchAddGet && rp != nil {
				rspBuf = rp // keep any growth for the next op
			}
			t.w.flightVictim(0, op, from, rank, span)
		}
		if kind == connSync {
			if err := writeResponse(w, rspHdr[:], status, rv, rp); err != nil {
				if !t.closed.Load() && !t.peerGone(from) && t.w.localRank < 0 {
					t.w.fail(fmt.Errorf("shmem/tcp: PE %d write response: %w", rank, err))
				}
				return
			}
		} else {
			if status != 0 {
				t.w.fail(fmt.Errorf("shmem/tcp: PE %d async op failed: %s", rank, rp))
			}
			// Coalesce acks: flush on the watermark or when the request
			// stream goes idle (nothing more buffered to apply first).
			pending++
			if pending >= ackBatch || r.Buffered() == 0 {
				if err := flushAcks(); err != nil {
					return
				}
			}
		}
	}
}

// decodeOp turns one wire request into the heap operation it names. Get
// and getv destinations are staged in *scratch (grown as needed, reused
// across requests) and a getv span table is decoded into *spans; the
// lengths that size them come from a socket, so they are checked here
// against the heap before anything is allocated. Everything else is the
// shared executor's job.
func decodeOp(pe *peState, op Op, addr Addr, v1, v2 uint64, payload []byte, scratch *[]byte, spans *[]Span) (heapOp, error) {
	o := heapOp{op: op, addr: addr, v1: v1, v2: v2}
	switch op {
	case OpPut, OpPutNBI:
		o.buf = payload
	case OpGet:
		if v1 > uint64(len(pe.bytes)) {
			return o, fmt.Errorf("shmem/tcp: get of %d bytes exceeds the %d-byte heap", v1, len(pe.bytes))
		}
		o.buf = growScratch(scratch, int(v1))
	case OpGetV:
		nspans := int(v1)
		if nspans < 0 || len(payload) != nspans*spanWireSize {
			return o, fmt.Errorf("shmem/tcp: getv span table is %d bytes, want %d", len(payload), nspans*spanWireSize)
		}
		if v2 > uint64(len(pe.bytes))*uint64(nspans) {
			return o, fmt.Errorf("shmem/tcp: getv total %d exceeds %d spans of the %d-byte heap", v2, nspans, len(pe.bytes))
		}
		sp := (*spans)[:0]
		for i := 0; i < nspans; i++ {
			sp = append(sp, Span{
				Addr: Addr(binary.LittleEndian.Uint64(payload[i*spanWireSize:])),
				N:    int(binary.LittleEndian.Uint32(payload[i*spanWireSize+8:])),
			})
		}
		*spans = sp
		o.spans, o.buf = sp, growScratch(scratch, int(v2))
	}
	return o, nil
}

// readRequest reads one request using the caller's header scratch; a
// payload, if present, is staged in *payloadBuf (grown as needed) and the
// returned slice aliases it until the next call.
func readRequest(r *bufio.Reader, hdr []byte, payloadBuf *[]byte) (Op, Addr, uint64, uint64, uint64, []byte, error) {
	hdr = hdr[:reqHdrSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, 0, 0, 0, nil, err
	}
	op := Op(hdr[0])
	addr := Addr(binary.LittleEndian.Uint64(hdr[1:9]))
	v1 := binary.LittleEndian.Uint64(hdr[9:17])
	v2 := binary.LittleEndian.Uint64(hdr[17:25])
	span := binary.LittleEndian.Uint64(hdr[25:33])
	plen := binary.LittleEndian.Uint32(hdr[33:37])
	var payload []byte
	if plen > 0 {
		payload = growScratch(payloadBuf, int(plen))
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, 0, 0, 0, 0, nil, err
		}
	}
	return op, addr, v1, v2, span, payload, nil
}

// writeRequest buffers one request using the caller's header scratch. It
// does NOT flush: sync callers flush before awaiting the response, async
// callers coalesce (watermark, blocking op, Quiet, or background flusher).
func writeRequest(w *bufio.Writer, hdr []byte, op Op, addr Addr, v1, v2, span uint64, payload []byte) error {
	hdr = hdr[:reqHdrSize]
	hdr[0] = byte(op)
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(addr))
	binary.LittleEndian.PutUint64(hdr[9:17], v1)
	binary.LittleEndian.PutUint64(hdr[17:25], v2)
	binary.LittleEndian.PutUint64(hdr[25:33], span)
	binary.LittleEndian.PutUint32(hdr[33:37], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

func writeResponse(w *bufio.Writer, hdr []byte, status byte, val uint64, payload []byte) error {
	hdr = hdr[:rspHdrSize]
	hdr[0] = status
	binary.LittleEndian.PutUint64(hdr[1:9], val)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return w.Flush()
}

// readResponse reads one response using the caller's header scratch. When
// the op succeeded and the payload length matches len(into), the payload is
// read directly into into (the caller's destination buffer) — the zero-copy
// fast path for get/getv. Otherwise (error strings, fused payloads whose
// length the caller doesn't know) it allocates.
func readResponse(r *bufio.Reader, hdr []byte, into []byte) (byte, uint64, []byte, error) {
	hdr = hdr[:rspHdrSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, err
	}
	status := hdr[0]
	val := binary.LittleEndian.Uint64(hdr[1:9])
	plen := binary.LittleEndian.Uint32(hdr[9:13])
	var payload []byte
	if plen > 0 {
		if status == 0 && len(into) == int(plen) {
			payload = into
		} else {
			payload = make([]byte, plen)
		}
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, 0, nil, err
		}
	}
	return status, val, payload, nil
}

func (t *tcpTransport) dial(from, to int, kind byte) (net.Conn, error) {
	if to < 0 || to >= len(t.addrs) {
		return nil, fmt.Errorf("shmem/tcp: target PE %d out of range [0, %d)", to, len(t.addrs))
	}
	conn, err := net.DialTimeout("tcp", t.addrs[to], t.w.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("shmem/tcp: dial PE %d: %w", to, err)
	}
	var pre [5]byte
	pre[0] = kind
	binary.LittleEndian.PutUint32(pre[1:], uint32(from))
	if _, err := conn.Write(pre[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("shmem/tcp: preamble to PE %d: %w", to, err)
	}
	return conn, nil
}

func (t *tcpTransport) syncConn(from, to int) (*syncConn, error) {
	key := connKey{from, to, connSync}
	t.mu.Lock()
	if sc, ok := t.sync_[key]; ok {
		t.mu.Unlock()
		return sc, nil
	}
	t.mu.Unlock()
	conn, err := t.dial(from, to, connSync)
	if err != nil {
		return nil, err
	}
	sc := &syncConn{
		rw: bufio.NewReadWriter(
			bufio.NewReaderSize(conn, t.w.cfg.SockBufBytes),
			bufio.NewWriterSize(conn, t.w.cfg.SockBufBytes)),
		c: conn,
	}
	t.mu.Lock()
	if prior, ok := t.sync_[key]; ok {
		t.mu.Unlock()
		conn.Close()
		return prior, nil
	}
	t.sync_[key] = sc
	t.mu.Unlock()
	return sc, nil
}

func (t *tcpTransport) asyncConn(from, to int) (*asyncConn, error) {
	key := connKey{from, to, connAsync}
	t.mu.Lock()
	if ac, ok := t.async[key]; ok {
		t.mu.Unlock()
		return ac, nil
	}
	t.mu.Unlock()
	conn, err := t.dial(from, to, connAsync)
	if err != nil {
		return nil, err
	}
	ac := &asyncConn{t: t, from: from, to: to, w: bufio.NewWriterSize(conn, t.w.cfg.SockBufBytes), c: conn}
	t.mu.Lock()
	if prior, ok := t.async[key]; ok {
		t.mu.Unlock()
		conn.Close()
		return prior, nil
	}
	t.async[key] = ac
	t.asyncByFrom[from] = append(t.asyncByFrom[from], ac)
	t.mu.Unlock()
	// Drain count-frame acks into the initiator's pending counter.
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		r := bufio.NewReaderSize(conn, 64)
		var frame [4]byte
		for {
			if _, err := io.ReadFull(r, frame[:]); err != nil {
				if !t.closed.Load() && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) &&
					!t.peerGone(to) && t.w.localRank < 0 {
					// In-process worlds treat a broken ack stream to a live
					// peer as a runtime bug. Distributed worlds can't: the
					// connection is the first thing to die when a peer
					// process crashes, often before the failure detector
					// notices.
					t.w.fail(fmt.Errorf("shmem/tcp: ack reader %d->%d: %w", from, to, err))
					return
				}
				// Whatever was still in flight will never be acked; credit
				// it back so Quiet can complete without the peer.
				ac.markBroken()
				return
			}
			k := int64(binary.LittleEndian.Uint32(frame[:]))
			ac.outstanding.Add(-k)
			t.w.pes[from].nbiPending.Add(-k)
		}
	}()
	return ac, nil
}

// flushAsyncTo flushes the initiator's buffered injections to one target.
func (t *tcpTransport) flushAsyncTo(from, to int) error {
	t.mu.Lock()
	ac := t.async[connKey{from, to, connAsync}]
	t.mu.Unlock()
	if ac == nil {
		return nil
	}
	return ac.flush()
}

// flushFrom flushes every async connection this initiator has open.
func (t *tcpTransport) flushFrom(from int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ac := range t.asyncByFrom[from] {
		if err := ac.flush(); err != nil {
			return err
		}
	}
	return nil
}

// remoteStatusErr marks an application-level failure reported by the
// target: the op reached the target and was rejected there. Definitive,
// never retried.
type remoteStatusErr struct{ msg string }

func (e *remoteStatusErr) Error() string { return e.msg }

// opIdempotent reports whether retrying op after its request may have
// reached the target is safe. Atomics (fetch-add, swap, cas, fused) are
// not: a lost *response* still applied the side effect, and a retry would
// apply it twice. Pure reads and overwrites are.
func opIdempotent(op Op) bool {
	switch op {
	case OpPut, OpGet, OpGetV, OpLoad, OpStore:
		return true
	}
	return false
}

// retryBackoff is exponential with jitter — ~1, 2, 4 ms... capped at 50ms,
// each scattered over [base/2, base] so retries from many PEs don't march
// in lockstep.
func retryBackoff(attempt int) time.Duration {
	if attempt > 5 {
		attempt = 5
	}
	base := time.Millisecond << uint(attempt)
	if base > 50*time.Millisecond {
		base = 50 * time.Millisecond
	}
	return base/2 + time.Duration(rand.Int63n(int64(base/2)+1))
}

func isNetTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// evictSync closes and forgets a sync connection whose request/response
// stream may be desynchronized (after a timeout the straggling response
// could arrive later and be mistaken for the next op's). The next op to
// this target dials fresh.
func (t *tcpTransport) evictSync(from, to int, sc *syncConn) {
	key := connKey{from, to, connSync}
	t.mu.Lock()
	if t.sync_[key] == sc {
		delete(t.sync_, key)
	}
	t.mu.Unlock()
	sc.c.Close()
}

// roundTrip performs one blocking request/response on the sync connection,
// failing fast on a per-op deadline and retrying transient connection
// errors with bounded exponential backoff. respInto, if non-nil, receives
// a success payload of exactly matching length without an intermediate
// copy.
func (t *tcpTransport) roundTrip(from, to int, op Op, addr Addr, v1, v2, span uint64, payload, respInto []byte) (uint64, []byte, error) {
	v := t.w.verdict(op, from, to, addr)
	charge(v.Delay)
	if err := v.failure(); err != nil {
		return 0, nil, opError(op, from, to, err)
	}
	t.w.cfg.Latency.charge(t.w.cfg.Latency.blockingCost(len(payload)))
	// A blocking op must not overtake this initiator's coalesced
	// injections to the same target: flush them first so buffering never
	// reorders a completion notification after a later round trip.
	if err := t.flushAsyncTo(from, to); err != nil {
		return 0, nil, opError(op, from, to, fmt.Errorf("flushing injections: %w", err))
	}
	retries := t.w.cfg.OpRetries
	if retries < 0 {
		retries = 0
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		val, rp, wrote, err := t.attemptSync(from, to, op, addr, v1, v2, span, payload, respInto)
		if err == nil {
			return val, rp, nil
		}
		var rse *remoteStatusErr
		if errors.As(err, &rse) {
			// The target executed the request and said no; retrying
			// cannot change the answer.
			return 0, nil, opError(op, from, to, err)
		}
		lastErr = err
		if t.peerGone(to) {
			return 0, nil, opError(op, from, to, fmt.Errorf("%v: %w", err, ErrPeerDead))
		}
		if wrote && !opIdempotent(op) {
			// The request bytes may have reached the target, which may or
			// may not have applied the atomic — a retry risks applying it
			// twice. Surface the failure instead.
			break
		}
		if attempt >= retries || t.closed.Load() {
			break
		}
		time.Sleep(retryBackoff(attempt))
	}
	if isNetTimeout(lastErr) {
		return 0, nil, opError(op, from, to, fmt.Errorf("%v: %w", lastErr, ErrOpTimeout))
	}
	return 0, nil, opError(op, from, to, lastErr)
}

// attemptSync is one try of roundTrip's request/response exchange. wrote
// reports whether any request bytes may have left this process (false only
// when establishing the connection failed). Connection-level failures
// evict the sync conn — its stream can no longer be trusted to be aligned.
func (t *tcpTransport) attemptSync(from, to int, op Op, addr Addr, v1, v2, span uint64, payload, respInto []byte) (uint64, []byte, bool, error) {
	sc, err := t.syncConn(from, to)
	if err != nil {
		return 0, nil, false, err
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if dl := t.w.cfg.OpTimeout; dl > 0 {
		_ = sc.c.SetDeadline(time.Now().Add(dl))
	}
	if err := writeRequest(sc.rw.Writer, sc.whdr[:], op, addr, v1, v2, span, payload); err != nil {
		t.evictSync(from, to, sc)
		return 0, nil, true, err
	}
	if err := sc.rw.Writer.Flush(); err != nil {
		t.evictSync(from, to, sc)
		return 0, nil, true, err
	}
	status, val, rp, err := readResponse(sc.rw.Reader, sc.rhdr[:], respInto)
	if err != nil {
		t.evictSync(from, to, sc)
		return 0, nil, true, fmt.Errorf("response: %w", err)
	}
	if status != 0 {
		return 0, nil, true, &remoteStatusErr{msg: string(rp)}
	}
	return val, rp, true, nil
}

// injectAsync pipelines one non-blocking request. The write lands in the
// connection's buffer; it is flushed once AckBatch ops accumulate, or
// earlier by a blocking op to the same target, Quiet, or the background
// flusher.
func (t *tcpTransport) injectAsync(from, to int, op Op, addr Addr, v1, span uint64, payload []byte) error {
	v := t.w.verdict(op, from, to, addr)
	charge(v.Delay)
	if v.dropped() {
		// Silently lost before reaching the wire: nothing pending, Quiet
		// unaffected.
		return nil
	}
	dup := v.Duplicate && op != OpAddNBI // atomics are never blindly retransmitted
	t.w.cfg.Latency.charge(t.w.cfg.Latency.InjectOverhead)
	ac, err := t.asyncConn(from, to)
	if err != nil {
		return err
	}
	n := int64(1)
	if dup {
		n = 2
	}
	t.w.pes[from].nbiPending.Add(n)
	ac.mu.Lock()
	defer ac.mu.Unlock()
	ac.outstanding.Add(n)
	if ac.broken.Load() {
		// The peer is gone: the injection drops on the floor, exactly as a
		// NIC drops packets to a vanished endpoint. Quiet stays balanced.
		ac.reconcile()
		return nil
	}
	if err := writeRequest(ac.w, ac.whdr[:], op, addr, v1, 0, span, payload); err != nil {
		ac.outstanding.Add(-n)
		t.w.pes[from].nbiPending.Add(-n)
		if t.peerGone(to) {
			ac.markBrokenLocked()
			return nil
		}
		return opError(op, from, to, err)
	}
	if dup {
		if err := writeRequest(ac.w, ac.whdr[:], op, addr, v1, 0, span, payload); err != nil {
			ac.outstanding.Add(-1)
			t.w.pes[from].nbiPending.Add(-1)
			if t.peerGone(to) {
				ac.markBrokenLocked()
				return nil
			}
			return opError(op, from, to, fmt.Errorf("duplicate: %w", err))
		}
	}
	ac.unflushed += int(n)
	if ac.unflushed >= t.w.cfg.AckBatch {
		if err := ac.flushLocked(); err != nil {
			return opError(op, from, to, fmt.Errorf("flushing: %w", err))
		}
	}
	return nil
}

func (t *tcpTransport) put(from, to int, addr Addr, src []byte, span uint64) error {
	_, _, err := t.roundTrip(from, to, OpPut, addr, 0, 0, span, src, nil)
	return err
}

func (t *tcpTransport) get(from, to int, addr Addr, dst []byte, span uint64) error {
	// Charge bandwidth for the returned payload (request carries none).
	t.w.cfg.Latency.charge(t.w.cfg.Latency.bandwidth(len(dst)))
	_, rp, err := t.roundTrip(from, to, OpGet, addr, uint64(len(dst)), 0, span, nil, dst)
	if err != nil {
		return err
	}
	if len(rp) != len(dst) {
		return fmt.Errorf("shmem/tcp: get from PE %d returned %d bytes, want %d", to, len(rp), len(dst))
	}
	if len(dst) > 0 && &rp[0] != &dst[0] {
		copy(dst, rp)
	}
	return nil
}

func (t *tcpTransport) getv(from, to int, spans []Span, dst []byte, span uint64) error {
	total := 0
	for _, sp := range spans {
		if sp.N < 0 {
			return fmt.Errorf("shmem/tcp: getv span with negative length %d", sp.N)
		}
		total += sp.N
	}
	if total != len(dst) {
		return fmt.Errorf("shmem/tcp: getv spans cover %d bytes, dst holds %d", total, len(dst))
	}
	t.w.cfg.Latency.charge(t.w.cfg.Latency.bandwidth(len(dst)))
	var first Addr
	if len(spans) > 0 {
		first = spans[0].Addr // fault injectors key on the leading address
	}
	tbl := getBuf(len(spans) * spanWireSize)
	for i, sp := range spans {
		binary.LittleEndian.PutUint64((*tbl)[i*spanWireSize:], uint64(sp.Addr))
		binary.LittleEndian.PutUint32((*tbl)[i*spanWireSize+8:], uint32(sp.N))
	}
	_, rp, err := t.roundTrip(from, to, OpGetV, first, uint64(len(spans)), uint64(total), span, *tbl, dst)
	putBuf(tbl)
	if err != nil {
		return err
	}
	if len(rp) != len(dst) {
		return fmt.Errorf("shmem/tcp: getv from PE %d returned %d bytes, want %d", to, len(rp), len(dst))
	}
	if len(dst) > 0 && &rp[0] != &dst[0] {
		copy(dst, rp)
	}
	return nil
}

func (t *tcpTransport) fetchAdd64(from, to int, addr Addr, delta uint64, span uint64) (uint64, error) {
	v, _, err := t.roundTrip(from, to, OpFetchAdd, addr, delta, 0, span, nil, nil)
	return v, err
}

func (t *tcpTransport) swap64(from, to int, addr Addr, val uint64, span uint64) (uint64, error) {
	v, _, err := t.roundTrip(from, to, OpSwap, addr, val, 0, span, nil, nil)
	return v, err
}

func (t *tcpTransport) compareSwap64(from, to int, addr Addr, old, new uint64, span uint64) (uint64, error) {
	v, _, err := t.roundTrip(from, to, OpCompareSwap, addr, old, new, span, nil, nil)
	return v, err
}

func (t *tcpTransport) load64(from, to int, addr Addr, span uint64) (uint64, error) {
	v, _, err := t.roundTrip(from, to, OpLoad, addr, 0, 0, span, nil, nil)
	return v, err
}

func (t *tcpTransport) store64(from, to int, addr Addr, val uint64, span uint64) error {
	_, _, err := t.roundTrip(from, to, OpStore, addr, val, 0, span, nil, nil)
	return err
}

func (t *tcpTransport) fetchAddGet(from, to int, addr Addr, delta uint64, id uint64, span uint64) (uint64, []byte, error) {
	return t.roundTrip(from, to, OpFetchAddGet, addr, delta, id, span, nil, nil)
}

func (t *tcpTransport) storeNBI(from, to int, addr Addr, val uint64, span uint64) error {
	return t.injectAsync(from, to, OpStoreNBI, addr, val, span, nil)
}

func (t *tcpTransport) addNBI(from, to int, addr Addr, delta uint64, span uint64) error {
	return t.injectAsync(from, to, OpAddNBI, addr, delta, span, nil)
}

func (t *tcpTransport) putNBI(from, to int, addr Addr, src []byte, span uint64) error {
	return t.injectAsync(from, to, OpPutNBI, addr, 0, span, src)
}

func (t *tcpTransport) quiet(from int) error {
	pe := t.w.pes[from]
	// Flush our buffered injections, then wait for their acks. The spin
	// periodically re-flushes to cover injections raced in by concurrent
	// goroutines on this PE after the initial sweep.
	var ferr error
	polls := 0
	err := t.w.spinUntil(func() bool {
		if pe.nbiPending.Load() == 0 {
			return true
		}
		polls++
		if polls&1023 == 1 {
			if ferr = t.flushFrom(from); ferr != nil {
				return true
			}
		}
		return false
	})
	if ferr != nil {
		return ferr
	}
	return err
}

func (t *tcpTransport) close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.stop)
	var errs []error
	for _, ln := range t.listeners {
		if ln != nil {
			if err := ln.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	t.mu.Lock()
	for _, sc := range t.sync_ {
		sc.c.Close()
	}
	for _, ac := range t.async {
		ac.c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return errors.Join(errs...)
}
