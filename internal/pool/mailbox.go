package pool

import (
	"fmt"
	"time"

	"sws/internal/shmem"
	"sws/internal/task"
)

// mailbox implements remote task spawning (§3 of the paper: "a process
// may spawn tasks onto remote queues, although with more overhead due to
// communication"). Thieves cannot push into a victim's split queue — its
// local portion is owner-private — so remote spawns go through a separate
// one-sided inbox ring on the target:
//
//   - the sender claims a slot with a remote fetch-add on the write
//     cursor, waits for the slot to be free (it almost always is), puts
//     the encoded descriptor, and marks the slot ready with an atomic
//     store: 3–4 communications per remote spawn, vs 0 for a local one;
//   - the owner drains ready slots into its own queue during its regular
//     progress work, marking them free again.
//
// Each slot's state word is lap-tagged, as in a Vyukov sequence cell
// (internal/ldeque): for lap L = seq / slots the slot is free at 2L and
// ready at 2L+1, and the drain frees it for the next lap by storing
// 2(L+1). Two senders whose claims are a full ring apart therefore wait
// for different values — the later one cannot mistake the earlier one's
// free slot for its own and overwrite a descriptor not yet put. The
// state word hands the slot between sender and owner with
// release/acquire ordering.
type mailbox struct {
	ctx   *shmem.Ctx
	codec task.Codec
	slots int

	writeAddr shmem.Addr // word: global write cursor (fetch-add by senders)
	stateAddr shmem.Addr // slots words: lap-tagged state (slotFree / slotReady)
	dataAddr  shmem.Addr // slots * slotSize bytes

	readCursor uint64 // owner-local

	// enc and dec are slot-sized scratch for send and drain. Both run on
	// the owner goroutine only (workers' remote spawns reach send through
	// the owner's outbox flush); they are separate because drain's push
	// callback may forward a task through send mid-drain.
	enc, dec []byte

	// sendTimeout bounds the wait for a free slot (a full inbox means the
	// owner is not draining).
	sendTimeout time.Duration
}

const defaultMailboxSlots = 256

// slotFree and slotReady are a slot's state word values for lap.
func slotFree(lap uint64) uint64  { return 2 * lap }
func slotReady(lap uint64) uint64 { return 2*lap + 1 }

// newMailbox collectively allocates the inbox (same order on every PE).
func newMailbox(ctx *shmem.Ctx, codec task.Codec, slots int, sendTimeout time.Duration) (*mailbox, error) {
	if slots < 1 {
		return nil, fmt.Errorf("pool: mailbox needs at least 1 slot, got %d", slots)
	}
	m := &mailbox{
		ctx: ctx, codec: codec, slots: slots, sendTimeout: sendTimeout,
		enc: make([]byte, codec.SlotSize()), dec: make([]byte, codec.SlotSize()),
	}
	var err error
	if m.writeAddr, err = ctx.Alloc(shmem.WordSize); err != nil {
		return nil, err
	}
	if m.stateAddr, err = ctx.Alloc(slots * shmem.WordSize); err != nil {
		return nil, err
	}
	if m.dataAddr, err = ctx.Alloc(slots * codec.SlotSize()); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *mailbox) slotState(i int) shmem.Addr {
	return m.stateAddr + shmem.Addr(i*shmem.WordSize)
}

func (m *mailbox) slotData(i int) shmem.Addr {
	return m.dataAddr + shmem.Addr(i*m.codec.SlotSize())
}

// send delivers a descriptor into pe's inbox.
func (m *mailbox) send(pe int, d task.Desc) error {
	clear(m.enc) // the slot's bytes past the payload stay zero, as before reuse
	if err := m.codec.Encode(m.enc, d); err != nil {
		return err
	}
	seq, err := m.ctx.FetchAdd64(pe, m.writeAddr, 1)
	if err != nil {
		return err
	}
	slot, lap := int(seq%uint64(m.slots)), seq/uint64(m.slots)
	// Wait for the slot to drain if a full ring lap is outstanding.
	deadline := time.Now().Add(m.sendTimeout)
	for {
		st, err := m.ctx.Load64(pe, m.slotState(slot))
		if err != nil {
			return err
		}
		if st == slotFree(lap) {
			break
		}
		if werr := m.ctx.Err(); werr != nil {
			return werr
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pool: PE %d inbox slot %d stayed full for %v (receiver not draining?)",
				pe, slot, m.sendTimeout)
		}
		m.ctx.Relax()
	}
	if err := m.ctx.Put(pe, m.slotData(slot), m.enc); err != nil {
		return err
	}
	// The ready store is the release edge the owner's drain acquires.
	return m.ctx.Store64(pe, m.slotState(slot), slotReady(lap))
}

// drain moves every ready inbox task into the owner's queue via push,
// returning how many were delivered.
func (m *mailbox) drain(push func(task.Desc) error) (int, error) {
	me := m.ctx.Rank()
	delivered := 0
	for {
		slot, lap := int(m.readCursor%uint64(m.slots)), m.readCursor/uint64(m.slots)
		st, err := m.ctx.Load64(me, m.slotState(slot))
		if err != nil {
			return delivered, err
		}
		if st != slotReady(lap) {
			return delivered, nil
		}
		if err := m.ctx.Get(me, m.slotData(slot), m.dec); err != nil {
			return delivered, err
		}
		d, err := m.codec.Decode(m.dec) // copies the payload out of dec
		if err != nil {
			return delivered, fmt.Errorf("pool: corrupt inbox slot %d: %w", slot, err)
		}
		if err := push(d); err != nil {
			return delivered, err
		}
		if err := m.ctx.Store64(me, m.slotState(slot), slotFree(lap+1)); err != nil {
			return delivered, err
		}
		m.readCursor++
		delivered++
	}
}
