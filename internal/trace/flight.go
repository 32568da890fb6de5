package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"sws/internal/ptimer"
)

// Flight is one PE's always-on flight-recorder ring: a bounded,
// overwrite-oldest journal of span events, queue-depth samples, epoch
// flips, and liveness transitions, kept cheap enough to leave running in
// production and dumped to disk only when something goes wrong.
//
// Unlike Buffer, a Flight has many writers — transport handler
// goroutines record victim-side events into the target PE's ring while
// the PE's own workers record initiator-side events — so slots are
// claimed with a single atomic increment and written without further
// synchronization. A writer lapped mid-store can leave a torn slot; the
// ring is only ever read at dump time, after a failure has already
// stopped the run, and the dump format is per-line JSON so a rare torn
// slot corrupts one line, not the journal.
type Flight struct {
	pe     int
	epoch  ptimer.Tick // monotonic base for Event.At
	wall   int64       // epoch as wall-clock UnixNano, for cross-process alignment
	events []Event     // length is a power of two, so slot index is a mask
	mask   uint64      // len(events) - 1
	n      atomic.Uint64
}

// Record claims the next slot and stores the event. Nil-safe and safe
// for concurrent use; see the type comment for the torn-slot caveat.
func (f *Flight) Record(k Kind, a, b int64, span uint64) {
	if f == nil || len(f.events) == 0 {
		return
	}
	f.RecordAt(ptimer.Since(f.epoch), k, a, b, span)
}

// RecordTick records with a tick the caller already holds (e.g. the end
// of an op-latency measurement), avoiding a second clock read on the hot
// path. A zero tick reads the clock like Record.
func (f *Flight) RecordTick(t ptimer.Tick, k Kind, a, b int64, span uint64) {
	if f == nil || len(f.events) == 0 {
		return
	}
	if t == 0 {
		t = ptimer.Now()
	}
	f.RecordAt(t.Sub(f.epoch), k, a, b, span)
}

// RecordAt records with an explicit timestamp relative to the ring's
// epoch (for tests building synthetic journals).
func (f *Flight) RecordAt(at time.Duration, k Kind, a, b int64, span uint64) {
	if f == nil || len(f.events) == 0 {
		return
	}
	pos := f.n.Add(1) - 1
	f.events[pos&f.mask] = Event{
		At: at, PE: f.pe, Kind: k, A: a, B: b, Span: span,
	}
}

// Len reports the number of retained events.
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	n := f.n.Load()
	if n < uint64(len(f.events)) {
		return int(n)
	}
	return len(f.events)
}

// Dropped reports how many events were overwritten.
func (f *Flight) Dropped() uint64 {
	if f == nil {
		return 0
	}
	n := f.n.Load()
	if n <= uint64(len(f.events)) {
		return 0
	}
	return n - uint64(len(f.events))
}

// Events returns the retained events, oldest first.
func (f *Flight) Events() []Event {
	if f == nil {
		return nil
	}
	n := f.n.Load()
	start := uint64(0)
	if n > uint64(len(f.events)) {
		start = n - uint64(len(f.events))
	}
	out := make([]Event, 0, n-start)
	for i := start; i < n; i++ {
		out = append(out, f.events[i%uint64(len(f.events))])
	}
	return out
}

// ceilPow2 rounds capacity up to a power of two so the hot-path slot
// index is a mask, not a division.
func ceilPow2(capacity int) int {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return n
}

// NewFlight returns one standalone ring outside any set. External
// journal writers use it — e.g. the sws-dist supervisor, which records
// the kill actions it performed on behalf of a process whose in-memory
// ring died with it (a negative pe marks a non-rank observer). The
// capacity is rounded up to a power of two.
func NewFlight(pe, capacity int) *Flight {
	if capacity < 1 {
		return nil
	}
	capacity = ceilPow2(capacity)
	epoch := time.Now()
	return &Flight{
		pe: pe, epoch: ptimer.TickOf(epoch), wall: epoch.UnixNano(),
		events: make([]Event, capacity), mask: uint64(capacity - 1),
	}
}

// FlightSet holds one flight ring per PE sharing an epoch, so event
// timestamps are comparable across the rings of one process.
type FlightSet struct {
	rings []*Flight
}

// NewFlightSet creates per-PE rings of the given capacity (rounded up
// to a power of two). A capacity < 1 returns a nil set, on which every
// method (and Flight.Record via the nil PE) is a no-op — the "recorder
// off" configuration.
func NewFlightSet(pes, capacity int) *FlightSet {
	if pes < 1 || capacity < 1 {
		return nil
	}
	capacity = ceilPow2(capacity)
	epoch := time.Now()
	tick, wall := ptimer.TickOf(epoch), epoch.UnixNano()
	s := &FlightSet{rings: make([]*Flight, pes)}
	for i := range s.rings {
		s.rings[i] = &Flight{
			pe: i, epoch: tick, wall: wall,
			events: make([]Event, capacity), mask: uint64(capacity - 1),
		}
	}
	return s
}

// PE returns the ring for a rank (nil-safe, so call sites record
// unconditionally).
func (s *FlightSet) PE(rank int) *Flight {
	if s == nil || rank < 0 || rank >= len(s.rings) {
		return nil
	}
	return s.rings[rank]
}

// NumPEs returns the number of rings.
func (s *FlightSet) NumPEs() int {
	if s == nil {
		return 0
	}
	return len(s.rings)
}

// flightHeader is the first JSONL record of a dump: which rank's ring
// this is, the world size, why it was dumped, and the ring's wall-clock
// epoch so dumps from different processes align on absolute time.
type flightHeader struct {
	Rank    int    `json:"rank"`
	NumPEs  int    `json:"npes"`
	Reason  string `json:"reason"`
	WallNS  int64  `json:"wall_ns"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// flightLine is one event record of a dump. Kind is the name string so
// journals stay readable and stable across kind-enum growth.
type flightLine struct {
	AtNS int64  `json:"at_ns"`
	PE   int    `json:"pe"`
	Kind string `json:"kind"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
	Span uint64 `json:"span,omitempty"`
}

// WriteTo dumps one ring as JSONL: a header record, then one event per
// line, oldest first.
func (f *Flight) WriteTo(w io.Writer, numPEs int, reason string) error {
	if f == nil {
		return fmt.Errorf("trace: WriteTo on nil Flight")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	evs := f.Events()
	if err := enc.Encode(flightHeader{
		Rank: f.pe, NumPEs: numPEs, Reason: reason,
		WallNS: f.wall, Events: len(evs), Dropped: f.Dropped(),
	}); err != nil {
		return err
	}
	for _, e := range evs {
		if err := enc.Encode(flightLine{
			AtNS: int64(e.At), PE: e.PE, Kind: e.Kind.String(),
			A: e.A, B: e.B, Span: e.Span,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FlightDumpName is the file name of rank's journal inside a dump
// directory; sws-inspect globs for this shape.
func FlightDumpName(rank int) string { return fmt.Sprintf("flight-rank%d.jsonl", rank) }

// DumpFile writes one ring's journal to dir/flight-rank<pe>.jsonl.
func (f *Flight) DumpFile(dir string, numPEs int, reason string) (string, error) {
	if f == nil {
		return "", fmt.Errorf("trace: DumpFile on nil Flight")
	}
	path := filepath.Join(dir, FlightDumpName(f.pe))
	file, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := f.WriteTo(file, numPEs, reason); err != nil {
		file.Close()
		return "", err
	}
	return path, file.Close()
}

// DumpAll writes every ring's journal into dir (creating it), for
// in-process worlds where one process hosts all PEs.
func (s *FlightSet) DumpAll(dir, reason string) error {
	if s == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range s.rings {
		if _, err := f.DumpFile(dir, len(s.rings), reason); err != nil {
			return err
		}
	}
	return nil
}

// FlightDump is one parsed journal file.
type FlightDump struct {
	Rank    int
	NumPEs  int
	Reason  string
	WallNS  int64
	Dropped uint64
	Events  []Event
}

// ReadFlightDump parses a JSONL journal produced by WriteTo. Lines that
// fail to parse (torn ring slots) are skipped and counted.
func ReadFlightDump(r io.Reader) (FlightDump, error) {
	var d FlightDump
	dec := json.NewDecoder(r)
	var hdr flightHeader
	if err := dec.Decode(&hdr); err != nil {
		return d, fmt.Errorf("trace: reading flight header: %w", err)
	}
	d.Rank, d.NumPEs, d.Reason = hdr.Rank, hdr.NumPEs, hdr.Reason
	d.WallNS, d.Dropped = hdr.WallNS, hdr.Dropped
	for {
		var ln flightLine
		if err := dec.Decode(&ln); err != nil {
			if err == io.EOF {
				break
			}
			// A torn slot corrupts at most its own line; note it and stop
			// (the decoder cannot resync mid-stream).
			d.Dropped++
			break
		}
		k, ok := KindByName(ln.Kind)
		if !ok {
			d.Dropped++
			continue
		}
		d.Events = append(d.Events, Event{
			At: time.Duration(ln.AtNS), PE: ln.PE, Kind: k,
			A: ln.A, B: ln.B, Span: ln.Span,
		})
	}
	return d, nil
}

// ReadFlightDumpFile parses one journal file.
func ReadFlightDumpFile(path string) (FlightDump, error) {
	f, err := os.Open(path)
	if err != nil {
		return FlightDump{}, err
	}
	defer f.Close()
	d, err := ReadFlightDump(f)
	if err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// MergeFlightDumps aligns journals from (possibly) different processes
// on absolute wall time and returns one timeline, oldest first. The
// returned events' At values are relative to the earliest journal's
// epoch; ties break by PE for determinism.
func MergeFlightDumps(dumps []FlightDump) []Event {
	if len(dumps) == 0 {
		return nil
	}
	base := dumps[0].WallNS
	for _, d := range dumps[1:] {
		if d.WallNS < base {
			base = d.WallNS
		}
	}
	var all []Event
	for _, d := range dumps {
		off := time.Duration(d.WallNS - base)
		for _, e := range d.Events {
			e.At += off
			all = append(all, e)
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		return all[i].PE < all[j].PE
	})
	return all
}
