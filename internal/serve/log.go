package serve

import (
	"sort"
	"sync"

	"fsr/internal/deque"
	"fsr/internal/wal"
	"fsr/internal/wire"
)

// Log is a host's replica of the committed order, written and read in one
// place: the entries, the applied frontier, the signal that wakes whoever
// waits on it, and the snapshot standing in for a truncated prefix. Ring
// members and edge replicas each build one, write it from their one
// applying goroutine and hand it to New as the Source; in-process
// subscribers page the same Log with the same call.
//
// Entries live in one of two backings, chosen by whether the host has a
// durable directory; only this type knows which:
//
//   - a ring of the newest entries in memory. Older ones fall below the
//     horizon (BelowHorizon — the client tries another host) unless an
//     installed snapshot covers them. Append, Sync, Writable and Close
//     have nothing to do;
//   - a write-ahead log, appended to, synced and read in place; its latest
//     snapshot is handed over when the entries a subscriber needs were
//     truncated behind it.
//
// The writer's calls for one batch, in order: Append per entry (or
// InstallSnapshot, for a state transfer), then Commit to make it servable.
// A member calls Sync between the two, because what it commits it also
// acknowledges; an edge commits unsynced and calls Sync from a timer,
// because what a crash loses it refetches upstream. A failed write leaves
// the frontier where it was, and the host fail-stops.
//
// Sequence numbers are ascending but not dense — members filter duplicate
// client publishes out of the order while still consuming their slot — so
// both backings search by Seq. Payloads are never mutated after Commit, so
// pages hand out references.
//
// All methods are safe from any goroutine; Append, Sync, Commit,
// InstallSnapshot and RaiseHorizon are called by the host's single writer.
type Log struct {
	wal     *wal.Log
	appSnap func(stored []byte) []byte // application part of a snapshot as the host stores it
	ringCap int

	mu      sync.Mutex
	applied uint64
	moved   chan struct{} // closed and replaced when the frontier advances
	ring    deque.Deque[wire.ClientEventEntry]
	base    uint64 // ring backing: every retained entry's Seq is > base
	snap    []byte // ring backing: application snapshot at snapSeq, nil if none
	snapSeq uint64
}

// NewRingLog returns a Log that retains the newest ringCap entries in
// memory. The ring grows on demand up to that cap. appSnapshot extracts
// what a subscriber is handed from a snapshot as the host stores it; nil
// means the stored bytes are the application snapshot.
func NewRingLog(ringCap int, appSnapshot func(stored []byte) []byte) *Log {
	if appSnapshot == nil {
		appSnapshot = func(stored []byte) []byte { return stored }
	}
	return &Log{ringCap: ringCap, appSnap: appSnapshot, moved: make(chan struct{})}
}

// NewWALLog returns a Log written to and served out of w, which it owns
// from here, with the frontier at applied: what the host recovered from w,
// which a replay cut short by a bad read leaves below w.LastSeq.
func NewWALLog(w *wal.Log, applied uint64, appSnapshot func(stored []byte) []byte) *Log {
	l := NewRingLog(0, appSnapshot)
	l.wal, l.applied = w, applied
	return l
}

// Applied implements Source.
func (l *Log) Applied() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applied
}

// Watch implements Source. Take the channel before sampling Applied: an
// advance after the sample then closes the channel already held, so a
// caller that found nothing to read cannot sleep through it.
func (l *Log) Watch() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.moved
}

// Append writes one entry of the batch being applied. It is not servable
// before Commit, nor durable before Sync.
func (l *Log) Append(e wire.ClientEventEntry) error {
	if l.wal == nil {
		return nil // the ring retains the batch at Commit
	}
	return l.wal.Append(wal.Entry{
		Seq:       e.Seq,
		Origin:    uint32(e.Origin),
		LogicalID: e.Logical,
		Payload:   e.Payload,
	})
}

// Sync makes every appended entry durable.
func (l *Log) Sync() error {
	if l.wal == nil {
		return nil
	}
	return l.wal.Sync()
}

// Commit makes a batch servable: entries (ascending; ones at or below what
// is already held are ignored) are retained and the frontier moves to
// frontier — at least the last entry's Seq, higher when the batch ended in
// filtered slots or an installed snapshot. On the WAL backing the entries
// are the ones Append wrote, so only the frontier moves.
func (l *Log) Commit(entries []wire.ClientEventEntry, frontier uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		held := l.base
		if n := l.ring.Len(); n > 0 {
			held = l.ring.At(n - 1).Seq
		}
		for i := range entries {
			if entries[i].Seq <= held {
				continue
			}
			if l.ring.Len() >= l.ringCap {
				l.base = l.ring.PopFront().Seq
			}
			l.ring.PushBack(entries[i])
			held = entries[i].Seq
		}
	}
	l.advanceLocked(frontier)
}

// InstallSnapshot records that the order up to seq is represented by a
// snapshot rather than entries (a state transfer); stored is the snapshot
// as the host keeps it. The WAL writes it durably and truncates the entries
// it covers; the ring keeps its application part as the snapshot floor and
// restarts the entry tail above it. Like Append it moves no frontier: the
// Commit that ends the batch does, at seq or above. A snapshot at or below
// the frontier is stale and ignored.
func (l *Log) InstallSnapshot(seq uint64, stored []byte) error {
	if seq <= l.Applied() {
		return nil // only the caller moves the frontier, so this cannot race
	}
	if l.wal != nil {
		return l.wal.WriteSnapshot(seq, stored)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.snap, l.snapSeq, l.base = l.appSnap(stored), seq, seq
	l.ring.Clear()
	return nil
}

// RaiseHorizon marks everything at or below seq as never held by this
// host (an ephemeral joiner's missed prefix, a hole the assembler had to
// drop): subscribers wanting older offsets are sent elsewhere. The WAL
// backing has no such holes — a durable host fills them by catch-up.
func (l *Log) RaiseHorizon(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal != nil || seq <= l.base {
		return
	}
	l.base = seq
	for l.ring.Len() > 0 && l.ring.Front().Seq <= seq {
		l.ring.PopFront()
	}
}

// WALStats snapshots the WAL's counters, taking no lock; ok is false on the
// ring backing.
func (l *Log) WALStats() (st wal.Stats, ok bool) {
	if l.wal == nil {
		return wal.Stats{}, false
	}
	return l.wal.Stats(), true
}

// Writable probes the durable directory, if any (see wal.Log.Writable).
func (l *Log) Writable() error {
	if l.wal == nil {
		return nil
	}
	return l.wal.Writable()
}

// Close syncs and releases the WAL, if any; nothing may be written after.
func (l *Log) Close() error {
	if l.wal == nil {
		return nil
	}
	return l.wal.Close()
}

func (l *Log) advanceLocked(frontier uint64) {
	if frontier <= l.applied {
		return
	}
	l.applied = frontier
	close(l.moved)
	l.moved = make(chan struct{})
}

// Held reports what the Log retains: the horizon (offsets at or below it
// are not held as entries), the number of entries held in memory — zero on
// the WAL backing, which reads them from disk — and the offset the held
// snapshot covers (0 when none).
func (l *Log) Held() (base uint64, entries int, snapSeq uint64) {
	if l.wal != nil {
		seq := l.wal.Stats().SnapshotSeq
		return seq, 0, seq
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base, l.ring.Len(), l.snapSeq
}

// ReadCommitted implements Source: one page of entries in (cursor,
// applied], cut at maxEntries entries or once maxBytes of payload are in
// it (so a page always makes progress). A cursor below what is held as
// entries gets the snapshot covering it, or BelowHorizon.
func (l *Log) ReadCommitted(cursor, applied uint64, maxEntries, maxBytes int) (Page, error) {
	if l.wal != nil {
		return l.readWAL(cursor, applied, maxEntries, maxBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor < l.base {
		if l.snap != nil && l.snapSeq > cursor {
			return Page{Snap: l.snap, SnapSeq: l.snapSeq, Cursor: l.snapSeq}, nil
		}
		return Page{BelowHorizon: true}, nil
	}
	i := sort.Search(l.ring.Len(), func(i int) bool { return l.ring.At(i).Seq > cursor })
	page := Page{Cursor: applied, Entries: make([]wire.ClientEventEntry, 0, min(maxEntries, l.ring.Len()-i))}
	bytes := 0
	for ; i < l.ring.Len(); i++ {
		e := l.ring.At(i)
		if e.Seq > applied {
			break
		}
		if n := len(page.Entries); n > 0 && (n >= maxEntries || bytes >= maxBytes) {
			page.Cursor = page.Entries[n-1].Seq
			break
		}
		page.Entries = append(page.Entries, *e)
		bytes += len(e.Payload)
	}
	return page, nil
}

func (l *Log) readWAL(cursor, applied uint64, maxEntries, maxBytes int) (Page, error) {
	if snap, ok := l.wal.LatestSnapshot(); ok && snap.Seq > cursor {
		if first, _ := l.wal.Bounds(); first == 0 || first > cursor+1 {
			// The entries the subscriber needs are truncated behind the
			// snapshot: hand over the application state instead.
			return Page{Snap: l.appSnap(snap.Data), SnapSeq: snap.Seq, Cursor: snap.Seq}, nil
		}
	}
	entries, more, err := l.wal.ReadFrom(cursor, applied, maxEntries, maxBytes)
	if err != nil {
		return Page{}, err
	}
	page := Page{Cursor: applied, Entries: make([]wire.ClientEventEntry, len(entries))}
	for i := range entries {
		e := &entries[i]
		page.Entries[i] = wire.ClientEventEntry{
			Seq:     e.Seq,
			Origin:  ProcID(e.Origin),
			Logical: e.LogicalID,
			Payload: e.Payload,
		}
	}
	if more {
		page.Cursor = entries[len(entries)-1].Seq
	}
	return page, nil
}
