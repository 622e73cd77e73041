package fsr

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"fsr/internal/core"
	"fsr/internal/serve"
	"fsr/internal/wal"
	"fsr/internal/wire"
)

// incarnationBits is the width of the per-incarnation MsgID band: each
// restart of a durable node advances the origin-local counter to
// generation << incarnationBits, so IDs minted after a crash can never
// collide with IDs of a previous life that may still sit in survivors'
// recovery buffers.
const incarnationBits = 40

// restore builds the member's pump with what it owns rebuilt from snapshot
// + WAL — the committed log, the state machine and the publish index —
// before the protocol stack exists, so the engine starts exactly where the
// previous incarnation stopped; without a durable directory the log starts
// empty in memory, and now seeds the incarnation. It also returns the
// incarnation and the MsgID band it seeds. newNode attaches the serving
// engine once it exists.
func restore(cfg Config, log *slog.Logger, now time.Time) (p *pump, incarnation, startLocal uint64, err error) {
	p = &pump{self: cfg.Self, sm: cfg.StateMachine, sess: newSessSrv(cfg.Self),
		snapEvery: cfg.SnapshotEvery, asm: newAssembler()}
	p.cond = sync.NewCond(&p.mu)
	if cfg.DurableDir == "" {
		// No durable identity: a boot timestamp keeps incarnations of one
		// ID monotone enough for the membership layer's restart handling,
		// and seeds the MsgID band so a fast-restarted ephemeral node
		// cannot re-mint IDs its previous life may still have in flight
		// (~4ms resolution, wrapping after ~19h — far beyond any pending
		// message's lifetime).
		inc := uint64(now.UnixNano())
		// No durable log: retain a bounded in-memory tail of the applied
		// order for subscribers. The horizon rises past anything this
		// member never delivered (a joiner's missed prefix, holes).
		p.clog = serve.NewRingLog(memberTailCap, appSnapshot)
		return p, inc, ((inc >> 22) & (1<<24 - 1)) << incarnationBits, nil
	}
	wlog, err := wal.Open(cfg.DurableDir, wal.Options{
		SegmentBytes: cfg.WALSegmentBytes,
		FS:           cfg.WALFS,
		Logger:       log,
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("fsr: open durable dir: %w", err)
	}
	var applied uint64
	if snap, ok := wlog.LatestSnapshot(); ok {
		// Snapshots are node-level: the publish index rides in front of
		// the application state (see wrapSnapshot).
		idxBytes, app := openSnapshot(snap.Data)
		if idxBytes != nil {
			p.sess.index, _ = decodePubIndex(idxBytes)
		}
		if cfg.StateMachine != nil {
			if err := cfg.StateMachine.Restore(app); err != nil {
				_ = wlog.Close()
				return nil, 0, 0, fmt.Errorf("fsr: restore snapshot at %d: %w", snap.Seq, err)
			}
		}
		applied = snap.Seq
	}
	err = wlog.Replay(applied, func(e wal.Entry) error {
		if e.Origin >= uint32(ClientIDBase) {
			p.sess.index.add(ProcID(e.Origin), e.LogicalID, e.Seq)
		}
		if cfg.StateMachine != nil {
			cfg.StateMachine.Apply(Message{
				Seq:       e.Seq,
				Origin:    ProcID(e.Origin),
				LogicalID: e.LogicalID,
				Payload:   e.Payload,
			})
		}
		applied = e.Seq
		return nil
	})
	if err != nil {
		_ = wlog.Close()
		return nil, 0, 0, fmt.Errorf("fsr: replay WAL: %w", err)
	}
	p.wlog = wlog
	p.clog = serve.NewWALLog(wlog, applied, appSnapshot)
	return p, wlog.Generation(), wlog.Generation() << incarnationBits, nil
}

// appSnapshot is what a subscriber is handed from a snapshot as a member
// stores it: snapshots are node-level, the publish index rides in front.
func appSnapshot(stored []byte) []byte {
	_, app := openSnapshot(stored)
	return app
}

// pump is the member's apply side. It takes engine deliveries and
// recovered history from the event loop, reassembles them into messages,
// and moves them to the member's three outputs — the durable log, the state
// machine and the committed Log every subscriber reads — on its own
// goroutine, so slow consumers cannot stall the protocol loop. Each batch is
// persisted (one fsync) before any of it becomes visible: nothing an
// application ever observed can be lost by a crash.
//
// While a catch-up transfer is in flight the live stream is held back and
// only recovered history is applied, so neither the state machine nor a
// subscriber ever sees the order with a gap.
type pump struct {
	self      ProcID
	clog      *serve.Log
	wlog      *wal.Log // nil without a durable directory
	sm        StateMachine
	sess      *sessSrv
	srv       *serve.Server
	snapEvery int

	// The hand-off from the event loop, guarded by mu.
	mu   sync.Mutex
	cond *sync.Cond
	asm  *assembler
	live []Message
	// recovered carries catch-up history from the event loop. While held
	// the live stream waits entirely until the transfer fills the hole
	// below it (the transfer covers everything above the applied frontier,
	// so held live copies simply deduplicate afterwards).
	recovered  []catchItem
	held       bool
	busy       bool // a popped batch is being persisted
	recovering bool // the popped batch carries recovered history
	snapPend   bool // an admin-triggered snapshot awaits the pump
	done       bool

	// Pump goroutine only.
	sinceSnap int                     // messages applied since the last snapshot
	scratch   []wire.ClientEventEntry // the entries of the batch being applied
}

// deliver moves fresh engine deliveries through the assembler into the
// pump's queue. A message the assembler cannot rebuild — its head predates
// this process's delivery horizon — is a hole: a durable member holds the
// live stream and returns its seq for catch-up to repair before anything
// later may be applied; an ephemeral one raises its subscriber horizon past
// it. Event loop.
func (p *pump) deliver(ds []core.Delivery) (hole uint64) {
	var horizon uint64
	applied := p.clog.Applied()
	p.mu.Lock()
	for _, d := range ds {
		msg, res := p.asm.add(d)
		if res != asmComplete {
			if res == asmDropped && msg.Seq > applied {
				if p.wlog != nil {
					hole = msg.Seq
				} else {
					horizon = msg.Seq // ephemeral: an unservable hole
				}
			}
			continue
		}
		p.live = append(p.live, msg)
	}
	if hole > 0 {
		// Hold the pump before releasing the lock: nothing live may be
		// applied until catch-up fills the hole (the transfer re-covers
		// any overlap, which the pump deduplicates).
		p.held = true
	}
	p.cond.Signal()
	p.mu.Unlock()
	if horizon > 0 {
		p.clog.RaiseHorizon(horizon)
	}
	return hole
}

// hold keeps the live stream back while a catch-up transfer is in flight
// (on), or lets it flow again once the transfer is over.
func (p *pump) hold(on bool) {
	p.mu.Lock()
	p.held = on
	p.cond.Signal()
	p.mu.Unlock()
}

// recover queues one page of recovered history for the pump.
func (p *pump) recover(items []catchItem) {
	p.mu.Lock()
	p.recovered = append(p.recovered, items...)
	p.cond.Signal()
	p.mu.Unlock()
}

// backlog reports how many recovered messages await the pump.
func (p *pump) backlog() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.recovered)
}

// drained reports that nothing handed to the pump is waiting or mid-persist.
func (p *pump) drained() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.live) == 0 && len(p.recovered) == 0 && !p.busy
}

// catchingUp is the one answer to "is this member catching up": true from
// the start of a transfer until the pump has applied everything the
// transfer handed over. Any goroutine.
func (p *pump) catchingUp() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held || p.recovering || len(p.recovered) > 0
}

// triggerSnapshot asks the pump for a snapshot ahead of its cadence; false
// without a durable log or state machine.
func (p *pump) triggerSnapshot() bool {
	if p.wlog == nil || p.sm == nil {
		return false
	}
	p.mu.Lock()
	p.snapPend = true
	p.cond.Signal()
	p.mu.Unlock()
	return true
}

// close wakes the pump for shutdown: run returns once nothing it may apply
// is left.
func (p *pump) close() {
	p.mu.Lock()
	p.done = true
	p.cond.Signal()
	p.mu.Unlock()
}

// run is the pump goroutine: it waits for work and steps. It returns nil
// once closed with nothing left to apply, or the error that must fail-stop
// the member.
func (p *pump) run() error {
	for {
		p.mu.Lock()
		for len(p.recovered) == 0 && (p.held || len(p.live) == 0) && !p.done && !p.snapPend {
			p.cond.Wait()
		}
		done := p.done
		p.mu.Unlock()
		if idle, err := p.step(); err != nil || idle && done {
			return err
		}
	}
}

// step pops one batch — the recovered history, the live stream unless it
// is held, a pending snapshot request — and applies it through applyBatch,
// without waiting: with nothing to apply it reports idle. One hand-off lock
// per batch.
func (p *pump) step() (idle bool, err error) {
	p.mu.Lock()
	recovered := p.recovered
	p.recovered = nil
	var live []Message
	if !p.held {
		live = p.live
		p.live = nil
	}
	forceSnap := p.snapPend
	p.snapPend = false
	p.busy = len(recovered) > 0 || len(live) > 0
	p.recovering = len(recovered) > 0
	p.mu.Unlock()
	if len(recovered) == 0 && len(live) == 0 && !forceSnap {
		return true, nil
	}
	return false, p.applyBatch(recovered, live, forceSnap)
}

// applyBatch runs one pump batch through the durability pipeline: open
// each message's envelope (filtering duplicate client publishes out of the
// order — a deterministic decision, every member's index evolves from the
// same applied prefix), append every surviving message to the Log and fold
// it into the state machine, sync the Log once — a member acknowledges what
// it commits, so the batch is durable before it is visible — commit the
// batch (the Log moves the applied frontier to what the batch left in it
// and wakes subscribers), then acknowledge the batch's publishes — a PUBACK
// to a client, the Receipt of a local one; the only place either kind
// resolves — fan it out to attached subscribers and take a snapshot if the
// cadence is due.
//
// Recovered history and live messages are merged by sequence number (both
// streams arrive ascending), so the state machine always sees the total
// order: a view change can leave not-yet-applied live deliveries below the
// recovered range in flight. Where the streams overlap the first copy is
// applied and the other is skipped by the cursor, which stays local: a
// filtered duplicate moves it but not the frontier. Pump goroutine only.
func (p *pump) applyBatch(recovered []catchItem, live []Message, forceSnap bool) error {
	cursor := p.clog.Applied() // only this goroutine moves it
	entries := p.scratch[:0]   // applied messages in final form
	var acks []pubAck
	appended := false
	snapJump := false // a snapshot transfer advanced the cursor past entries
	apply := func(m Message, isLive bool) error {
		if m.Seq <= cursor {
			// Already recovered (replay, catch-up overlap, or inside a
			// transferred snapshot). A local publish is committed all the
			// same, and this copy may be the only one the pump ever sees.
			if m.Origin == p.self {
				acks = append(acks, pubAck{cid: m.Origin, pub: m.LogicalID, seq: m.Seq})
			}
			return nil
		}
		// Live messages carry the ring envelope; recovered history arrives
		// in final form from a peer's (already filtered) log.
		final, dup, ack := p.sess.classify(m, isLive)
		if ack != nil {
			acks = append(acks, *ack)
		}
		cursor = m.Seq
		if dup {
			return nil // duplicate client publish: filtered from the order
		}
		entry := wire.ClientEventEntry{
			Seq:     final.Seq,
			Origin:  final.Origin,
			Logical: final.LogicalID,
			Payload: final.Payload,
		}
		if err := p.clog.Append(entry); err != nil {
			return err
		}
		appended = true
		if p.sm != nil {
			p.sm.Apply(final)
		}
		p.sinceSnap++
		entries = append(entries, entry)
		return nil
	}
	applyRecovered := func(it catchItem) error {
		if it.snap == nil {
			return apply(it.msg, false)
		}
		if it.snap.Seq <= cursor {
			return nil // stale transfer; local state is already past it
		}
		// A transferred snapshot is node-level: publish index + app state.
		idxBytes, app := openSnapshot(it.snap.Data)
		if idxBytes != nil {
			p.sess.restoreIndex(idxBytes)
		}
		if p.sm != nil {
			if err := p.sm.Restore(app); err != nil {
				return fmt.Errorf("fsr: restore transferred snapshot at %d: %w", it.snap.Seq, err)
			}
		}
		if err := p.clog.InstallSnapshot(it.snap.Seq, it.snap.Data); err != nil {
			return err
		}
		cursor = it.snap.Seq
		snapJump = true
		p.sinceSnap = 0
		return nil
	}
	ri, li := 0, 0
	for ri < len(recovered) || li < len(live) {
		// A snapshot transfer always goes first: live messages at or below
		// its seq are part of the state it carries, and applying them first
		// would push the cursor past the snapshot, discarding the transfer
		// and leaving the gap below it unfilled forever.
		takeLive := li < len(live) &&
			(ri == len(recovered) ||
				(recovered[ri].snap == nil && live[li].Seq <= recovered[ri].msg.Seq))
		if takeLive {
			if err := apply(live[li], true); err != nil {
				return err
			}
			li++
			continue
		}
		if err := applyRecovered(recovered[ri]); err != nil {
			return err
		}
		ri++
	}
	if appended {
		if err := p.clog.Sync(); err != nil {
			return err
		}
	}
	// Batch durable: make it visible (entries and frontier together, so no
	// pager sees one without the other), then acknowledge the publishes it
	// committed — PUBACKs queued to the per-client writers, never blocking
	// the pump; a local Receipt resolved unless shutdown or eviction failed
	// it first — and fan it out to attached subscribers, one encode for
	// all of them. A snapshot transfer has no entry stream for
	// the range it covers, so it first demotes every attached subscription
	// to pager catch-up, which serves the snapshot.
	p.clog.Commit(entries)
	p.mu.Lock()
	p.busy, p.recovering = false, false // applied now covers the batch
	p.mu.Unlock()
	for _, a := range acks {
		if a.cid != p.self {
			p.srv.Ack(a.cid, a.pub, a.seq)
		} else if r := p.sess.takeLocal(a.pub); r != nil {
			r.resolve(a.seq)
		}
	}
	if snapJump {
		p.srv.DetachAll()
	}
	p.srv.PublishTail(entries)
	p.scratch = entries
	// A snapshot is taken at the frontier, not the cursor: slots filtered
	// at the end of the batch hold nothing a restart could rebuild.
	frontier := p.clog.Applied()
	if p.wlog != nil && p.sm != nil &&
		(p.sinceSnap >= p.snapEvery || (forceSnap && frontier > 0)) {
		data, err := p.sm.Snapshot()
		if err != nil {
			return fmt.Errorf("fsr: state machine snapshot: %w", err)
		}
		if err := p.wlog.WriteSnapshot(frontier, wrapSnapshot(p.sess.snapshotIndex(), data)); err != nil {
			return err
		}
		p.sinceSnap = 0
	}
	return nil
}
