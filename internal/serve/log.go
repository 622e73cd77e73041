package serve

import (
	"sort"
	"sync"

	"fsr/internal/deque"
	"fsr/internal/wal"
	"fsr/internal/wire"
)

// Log is a host's committed order as the serving layer reads it: the
// applied frontier, the signal that wakes whoever waits on it, and the
// entries behind it. Ring members and edge replicas each build one and
// hand it to New as the Source; in-process subscribers page the same Log
// with the same call.
//
// Entries come from one of two backings, chosen by whether the host has a
// durable directory:
//
//   - a ring of the newest entries in memory. Older ones fall below the
//     horizon (BelowHorizon — the client tries another host) unless a
//     snapshot set by SetSnapshot covers them;
//   - the host's write-ahead log, read in place. The host appends and
//     syncs it; the Log only reads, handing over the WAL's latest snapshot
//     when the entries a subscriber needs were truncated behind it.
//
// Sequence numbers are ascending but not dense — members filter duplicate
// client publishes out of the order while still consuming their slot — so
// both backings search by Seq. Payloads are never mutated after Commit, so
// pages hand out references.
//
// All methods are safe from any goroutine; Commit, SetSnapshot and
// RaiseHorizon are called by the host's single writer.
type Log struct {
	wal     *wal.Log
	appSnap func(stored []byte) []byte // WAL backing: application part of a stored snapshot
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
// memory. The ring grows on demand up to that cap.
func NewRingLog(ringCap int) *Log {
	return &Log{ringCap: ringCap, moved: make(chan struct{})}
}

// NewWALLog returns a Log served out of w, with the frontier at applied:
// what the host recovered from w, which a replay cut short by a bad read
// leaves below w.LastSeq. appSnapshot extracts what a subscriber is handed
// from a snapshot as the host stored it; nil means the stored bytes are
// the application snapshot.
func NewWALLog(w *wal.Log, applied uint64, appSnapshot func(stored []byte) []byte) *Log {
	return &Log{wal: w, appSnap: appSnapshot, applied: applied, moved: make(chan struct{})}
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

// Commit makes a batch servable: entries (ascending; ones at or below what
// is already held are ignored) are retained and the frontier moves to
// frontier — at least the last entry's Seq, higher when the batch ended in
// filtered slots or a snapshot transfer. On the WAL backing the host has
// already appended and synced the entries, so only the frontier moves.
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

// SetSnapshot records that the order up to seq is represented by an
// application snapshot rather than entries (an edge's upstream state
// transfer) and moves the frontier there. The ring backing keeps data as
// its snapshot floor and restarts the entry tail above it; on the WAL
// backing the host has written the snapshot to the WAL, which serves it.
func (l *Log) SetSnapshot(seq uint64, data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq <= l.applied {
		return // stale: the log already covers this prefix
	}
	if l.wal == nil {
		l.snap, l.snapSeq, l.base = data, seq, seq
		l.ring.Clear()
	}
	l.advanceLocked(seq)
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
		if snap, ok := l.wal.LatestSnapshot(); ok {
			return snap.Seq, 0, snap.Seq
		}
		return 0, 0, 0
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
			app := snap.Data
			if l.appSnap != nil {
				app = l.appSnap(app)
			}
			return Page{Snap: app, SnapSeq: snap.Seq, Cursor: snap.Seq}, nil
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
