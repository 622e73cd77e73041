package serve

import (
	"bytes"
	"fmt"
	"testing"

	"fsr/internal/wal"
	"fsr/internal/wal/walfault"
	"fsr/internal/wire"
)

// hostLog is a Log driven the way a member's pump drives it: Append each
// entry the host does not hold yet, Sync, Commit.
type hostLog struct{ *Log }

func entryOf(seq uint64) wire.ClientEventEntry {
	return wire.ClientEventEntry{Seq: seq, Origin: 7, Logical: seq, Payload: payloadOf(seq)}
}

func (h hostLog) commit(t *testing.T, seqs ...uint64) {
	t.Helper()
	entries := make([]wire.ClientEventEntry, len(seqs))
	for i, seq := range seqs {
		entries[i] = entryOf(seq)
		if seq > h.Applied() { // hosts skip what a restarted stream re-delivers
			if err := h.Append(entries[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	h.Commit(entries)
}

// snapshot is a state transfer as a host applies it: install, then commit,
// which moves the frontier to it.
func (h hostLog) snapshot(t *testing.T, seq uint64, data []byte) {
	t.Helper()
	if err := h.InstallSnapshot(seq, data); err != nil {
		t.Fatal(err)
	}
	h.Commit(nil)
}

// payloadOf is ten bytes naming the entry.
func payloadOf(seq uint64) []byte { return []byte(fmt.Sprintf("p%09d", seq)) }

func seqsOf(p Page) []uint64 {
	out := make([]uint64, len(p.Entries))
	for i, e := range p.Entries {
		out[i] = e.Seq
	}
	return out
}

func wantPage(t *testing.T, p Page, err error, cursor uint64, seqs ...uint64) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if p.BelowHorizon || p.Snap != nil {
		t.Fatalf("page = %+v, want entries %v", p, seqs)
	}
	if got := seqsOf(p); fmt.Sprint(got) != fmt.Sprint(seqs) {
		t.Fatalf("page entries %v, want %v", got, seqs)
	}
	for _, e := range p.Entries {
		if e.Origin != 7 || e.Logical != e.Seq || !bytes.Equal(e.Payload, payloadOf(e.Seq)) {
			t.Fatalf("entry %d came back as %+v", e.Seq, e)
		}
	}
	if p.Cursor != cursor {
		t.Fatalf("page cursor %d, want %d", p.Cursor, cursor)
	}
}

func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// trimIndex is a host's appSnapshot: its stored snapshots carry an index in
// front of the application state.
func trimIndex(stored []byte) []byte { return bytes.TrimPrefix(stored, []byte("index|")) }

// TestLog runs one set of cases over both backings: the committed order is
// written with the same calls and pages identically whether it is held in
// the ring or in the WAL. Where the backings differ by design — only the
// ring has a horizon, only the WAL has writes that can fail — the case says
// so.
func TestLog(t *testing.T) {
	const ringCap = 4
	backings := []struct {
		name string
		// open returns the Log and, where the backing has a disk, the switch
		// that makes every later fsync on it fail.
		open func(t *testing.T) (hostLog, func())
	}{
		{"ring", func(t *testing.T) (hostLog, func()) { return hostLog{NewRingLog(ringCap, trimIndex)}, nil }},
		{"wal", func(t *testing.T) (hostLog, func()) {
			fopts := walfault.NoOneShots()
			fopts.FsyncErrEvery = 1
			ffs := walfault.New(nil, fopts)
			ffs.Disarm()
			w, err := wal.Open(t.TempDir(), wal.Options{FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			l := NewWALLog(w, w.LastSeq(), trimIndex)
			t.Cleanup(func() { _ = l.Close() })
			return hostLog{l}, ffs.Arm
		}},
	}
	for _, b := range backings {
		durable := b.name == "wal"
		open := func(t *testing.T) hostLog {
			l, _ := b.open(t)
			return l
		}
		t.Run(b.name, func(t *testing.T) {
			// What the writer appended is nobody's to read until Commit.
			t.Run("visible at Commit", func(t *testing.T) {
				l := open(t)
				moved := l.Watch()
				if err := l.Append(entryOf(1)); err != nil {
					t.Fatal(err)
				}
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
				if l.Applied() != 0 || closed(moved) {
					t.Fatalf("before Commit: applied %d, watchers woken %v", l.Applied(), closed(moved))
				}
				l.Commit([]wire.ClientEventEntry{entryOf(1)})
				if l.Applied() != 1 || !closed(moved) {
					t.Fatalf("after Commit: applied %d, watchers woken %v", l.Applied(), closed(moved))
				}
				p, err := l.ReadCommitted(0, 1, 16, 1<<20)
				wantPage(t, p, err, 1, 1)
			})

			// The fail-stop a host builds on (TestEdgePoisonedStore): after a
			// failed write nothing moves the frontier.
			t.Run("write error leaves the frontier", func(t *testing.T) {
				l, failDisk := b.open(t)
				l.commit(t, 1, 2, 3)
				if err := l.Writable(); err != nil {
					t.Fatalf("healthy log not writable: %v", err)
				}
				if !durable {
					return // a ring has no write that can fail
				}
				failDisk()
				err := l.Append(entryOf(4))
				if err == nil {
					err = l.Sync()
				}
				if err == nil {
					t.Fatal("append+sync onto a failing disk succeeded")
				}
				if err := l.InstallSnapshot(20, []byte("index|state@20")); err == nil {
					t.Fatal("InstallSnapshot onto a failing disk succeeded")
				}
				if l.Applied() != 3 {
					t.Fatalf("failed writes moved the frontier to %d", l.Applied())
				}
				if st, ok := l.WALStats(); !ok || !st.Poisoned || l.Writable() == nil {
					t.Fatalf("after a failed write: stats %+v ok=%v, writable err %v", st, ok, l.Writable())
				}
			})

			// Members filter duplicate publishes out of the order while
			// still consuming their slot, so seqs skip values (bug #12). A
			// filtered slot after the last entry moves no frontier: a
			// restart could not rebuild it.
			t.Run("sparse seqs", func(t *testing.T) {
				l := open(t)
				l.commit(t, 2, 5, 6, 9) // 10 was a filtered slot
				if l.Applied() != 9 {
					t.Fatalf("applied %d, want 9", l.Applied())
				}
				p, err := l.ReadCommitted(0, 9, 16, 1<<20)
				wantPage(t, p, err, 9, 2, 5, 6, 9)
				p, err = l.ReadCommitted(5, 9, 16, 1<<20)
				wantPage(t, p, err, 9, 6, 9)
				p, err = l.ReadCommitted(3, 9, 16, 1<<20) // no entry at 3 or 4
				wantPage(t, p, err, 9, 5, 6, 9)
				p, err = l.ReadCommitted(9, 9, 16, 1<<20)
				wantPage(t, p, err, 9)
			})

			t.Run("page cut by entries", func(t *testing.T) {
				l := open(t)
				l.commit(t, 2, 5, 6, 9)
				p, err := l.ReadCommitted(0, 9, 2, 1<<20)
				wantPage(t, p, err, 5, 2, 5)
				p, err = l.ReadCommitted(p.Cursor, 9, 2, 1<<20)
				wantPage(t, p, err, 9, 6, 9)
			})

			t.Run("page cut by bytes", func(t *testing.T) {
				l := open(t)
				l.commit(t, 2, 5, 6, 9)
				// Ten-byte payloads: the page closes once it holds 15 bytes
				// or more, and always takes at least one entry.
				p, err := l.ReadCommitted(0, 9, 16, 15)
				wantPage(t, p, err, 5, 2, 5)
				p, err = l.ReadCommitted(p.Cursor, 9, 16, 1)
				wantPage(t, p, err, 6, 6)
			})

			// A pager samples the frontier, then reads; the tail may have
			// run on in between. The page stays within the sample and the
			// cursor never falls behind what was served.
			t.Run("tail past the sampled frontier", func(t *testing.T) {
				l := open(t)
				l.commit(t, 1, 2, 3)
				sampled := l.Applied()
				l.commit(t, 4)
				p, err := l.ReadCommitted(1, sampled, 16, 1<<20)
				wantPage(t, p, err, 3, 2, 3)
				p, err = l.ReadCommitted(p.Cursor, l.Applied(), 16, 1<<20)
				wantPage(t, p, err, 4, 4)
			})

			t.Run("eviction raises the horizon", func(t *testing.T) {
				l := open(t)
				l.commit(t, 1, 2, 3, 4, 5, 6)
				base, held, _ := l.Held()
				p, err := l.ReadCommitted(0, 6, 16, 1<<20)
				if durable {
					// The WAL retains everything and holds nothing in memory.
					if base != 0 || held != 0 {
						t.Fatalf("held base=%d entries=%d, want 0, 0", base, held)
					}
					wantPage(t, p, err, 6, 1, 2, 3, 4, 5, 6)
					return
				}
				if base != 2 || held != ringCap {
					t.Fatalf("held base=%d entries=%d, want 2, %d", base, held, ringCap)
				}
				if err != nil || !p.BelowHorizon {
					t.Fatalf("read below the horizon = %+v, %v", p, err)
				}
				p, err = l.ReadCommitted(base, 6, 16, 1<<20)
				wantPage(t, p, err, 6, 3, 4, 5, 6)
			})

			t.Run("snapshot floor", func(t *testing.T) {
				l := open(t)
				l.commit(t, 1, 2, 3)
				moved := l.Watch()
				if err := l.InstallSnapshot(20, []byte("index|state@20")); err != nil {
					t.Fatal(err)
				}
				if l.Applied() != 3 || closed(moved) {
					t.Fatalf("before Commit: applied %d, watchers woken %v", l.Applied(), closed(moved))
				}
				l.Commit(nil)
				if l.Applied() != 20 || !closed(moved) {
					t.Fatalf("snapshot: applied %d, watchers woken %v", l.Applied(), closed(moved))
				}
				if _, held, snapSeq := l.Held(); held != 0 || snapSeq != 20 {
					t.Fatalf("held entries=%d snapSeq=%d, want 0, 20", held, snapSeq)
				}
				p, err := l.ReadCommitted(1, 20, 16, 1<<20)
				if err != nil || string(p.Snap) != "state@20" || p.SnapSeq != 20 || p.Cursor != 20 || len(p.Entries) != 0 {
					t.Fatalf("read below the snapshot = %+v, %v", p, err)
				}
				l.commit(t, 21, 22)
				p, err = l.ReadCommitted(20, 22, 16, 1<<20)
				wantPage(t, p, err, 22, 21, 22)
				l.snapshot(t, 10, []byte("index|stale")) // behind the frontier: ignored
				p, _ = l.ReadCommitted(1, 22, 16, 1<<20)
				if string(p.Snap) != "state@20" {
					t.Fatalf("stale snapshot replaced the floor: %+v", p)
				}
			})

			// An ephemeral joiner never sees the prefix the group delivered
			// before admitting it; a durable one fetches it by catch-up, so
			// the WAL backing has no horizon to raise.
			t.Run("RaiseHorizon", func(t *testing.T) {
				l := open(t)
				l.commit(t, 1, 2, 3)
				l.RaiseHorizon(10)
				if l.Applied() != 3 {
					t.Fatalf("RaiseHorizon moved the frontier to %d", l.Applied())
				}
				p, err := l.ReadCommitted(0, 3, 16, 1<<20)
				if durable {
					wantPage(t, p, err, 3, 1, 2, 3)
					return
				}
				if err != nil || !p.BelowHorizon {
					t.Fatalf("read below the raised horizon = %+v, %v", p, err)
				}
				if base, held, _ := l.Held(); base != 10 || held != 0 {
					t.Fatalf("held base=%d entries=%d, want 10, 0", base, held)
				}
				l.commit(t, 7, 11) // 7 is below the horizon: not retained
				p, err = l.ReadCommitted(10, 11, 16, 1<<20)
				wantPage(t, p, err, 11, 11)
			})

			// A restarted upstream stream re-delivers what the host already
			// holds.
			t.Run("stale commit ignored", func(t *testing.T) {
				l := open(t)
				l.commit(t, 1, 2, 3)
				moved := l.Watch()
				l.commit(t, 2)
				l.commit(t, 1, 2, 3)
				if l.Applied() != 3 || closed(moved) {
					t.Fatalf("stale commit: applied %d, watchers woken %v", l.Applied(), closed(moved))
				}
				p, err := l.ReadCommitted(0, 3, 16, 1<<20)
				wantPage(t, p, err, 3, 1, 2, 3)
				l.commit(t, 4)
				if l.Applied() != 4 || !closed(moved) {
					t.Fatalf("fresh commit: applied %d, watchers woken %v", l.Applied(), closed(moved))
				}
			})
		})
	}
}

// TestLogWALSnapshotUnwrap: a member stores node-level snapshots; the Log
// hands subscribers the application part.
func TestLogWALSnapshotUnwrap(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := NewWALLog(w, 0, trimIndex)
	defer l.Close()
	if err := l.InstallSnapshot(5, []byte("index|app")); err != nil {
		t.Fatal(err)
	}
	p, err := l.ReadCommitted(0, 5, 16, 1<<20)
	if err != nil || string(p.Snap) != "app" || p.SnapSeq != 5 {
		t.Fatalf("snapshot page = %+v, %v", p, err)
	}
}

// TestLogWALResumesAtLastSeq: a reopened WAL serves from where it stopped
// without loading anything into memory.
func TestLogWALResumesAtLastSeq(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := hostLog{NewWALLog(w, w.LastSeq(), nil)}
	l.commit(t, 2, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reopened := NewWALLog(w, w.LastSeq(), nil)
	if _, held, _ := reopened.Held(); reopened.Applied() != 5 || held != 0 {
		t.Fatalf("reopened: applied %d, %d entries in memory; want 5, 0", reopened.Applied(), held)
	}
	p, err := reopened.ReadCommitted(0, 5, 16, 1<<20)
	wantPage(t, p, err, 5, 2, 5)
}
