package wal_test

// Recycled segments, checked exhaustively on a small instance: a snapshot
// frees a segment holding an older life's records, the next segment reuses
// that file, and every torn write and every lying fsync the new life can
// suffer is tried in turn. Every reopen must recover a whole-record prefix
// of the new life — never an old record, never ErrCorrupt.

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fsr/internal/wal"
	"fsr/internal/wal/walfault"
)

// nosync is the real filesystem with every fsync a no-op: walfault alone
// decides what a crash keeps, and a thousand reopens stay fast.
type nosync struct{ wal.FS }

type nosyncFile struct{ wal.File }

func (nosyncFile) Sync() error          { return nil }
func (nosync) SyncDir(dir string) error { return nil }

func (n nosync) OpenFile(path string, flag int, perm fs.FileMode) (wal.File, error) {
	f, err := n.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return nosyncFile{f}, nil
}

func (n nosync) CreateTemp(dir, pattern string) (wal.File, error) {
	f, err := n.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return nosyncFile{f}, nil
}

const (
	oldEntries  = 12          // the older life: seqs 1..12, all covered by the snapshot that frees its file
	chainBytes  = 8 + 24 + 8  // header, fixed body, the base
	newBytes    = 8 + 24 + 16 // one new-life record: header, fixed body, 16-byte payload
	newPerBatch = 2
	newBatches  = 4
)

// oldEntry is a record of the older life. With a 16-byte payload its
// records line up with the new life's, so a torn or lost new record exposes
// a whole old one that validates on its own; with any other size the new
// life's end lands inside an old record.
func oldEntry(seq uint64, size int) wal.Entry {
	return wal.Entry{Seq: seq, Origin: 3, LogicalID: seq, Payload: bytes.Repeat([]byte{'o'}, size)}
}

func newEntry(seq uint64) wal.Entry {
	return wal.Entry{Seq: seq, Origin: 4, LogicalID: seq, Payload: []byte(fmt.Sprintf("new-%012d", seq))}
}

// recycledLog opens a log in dir on ffs whose active segment is a reused
// file still holding the older life: write 0 and fsync 0 carried the older
// life, fsync 1 the snapshot's, so the new life starts at write 1, fsync 2.
func recycledLog(t *testing.T, dir string, ffs *walfault.FS, oldSize int) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= oldEntries; seq++ {
		if err := l.Append(oldEntry(seq, oldSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(oldEntries, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Recycled; got != 1 {
		t.Fatalf("Recycled = %d after the snapshot freed the only segment, want 1", got)
	}
	return l
}

// wantNewPrefix reopens dir and requires exactly the first n new-life
// entries, then that the repaired log takes an append that a further
// reopen replays.
func wantNewPrefix(t *testing.T, dir string, n int, what string) {
	t.Helper()
	replay := func(l *wal.Log) []uint64 {
		var got []uint64
		if err := l.Replay(0, func(e wal.Entry) error {
			if !bytes.Equal(e.Payload, newEntry(e.Seq).Payload) {
				return fmt.Errorf("seq %d carries %q: an older life's record", e.Seq, e.Payload)
			}
			got = append(got, e.Seq)
			return nil
		}); err != nil {
			t.Fatalf("%s: replay: %v", what, err)
		}
		return got
	}
	check := func(got []uint64, n int) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s: recovered seqs %v, want the first %d of the new life", what, got, n)
		}
		for i, seq := range got {
			if seq != oldEntries+1+uint64(i) {
				t.Fatalf("%s: recovered seqs %v, want %d..%d", what, got, oldEntries+1, oldEntries+n)
			}
		}
	}
	opts := wal.Options{FS: nosync{wal.OS}}
	l, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	check(replay(l), n)
	if want := uint64(oldEntries + n); l.LastSeq() != want {
		t.Fatalf("%s: LastSeq = %d, want %d", what, l.LastSeq(), want)
	}
	if err := l.Append(newEntry(uint64(oldEntries + n + 1))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = wal.Open(dir, opts); err != nil {
		t.Fatalf("%s: reopen after the repair: %v", what, err)
	}
	defer l.Close()
	check(replay(l), n+1)
}

// TestRecycledSegmentTornWriteEveryOffset tears the new life's first batch
// — its chain record and three entries, one write — at every byte offset,
// then reopens with what the write left (a process crash) and after a power
// cut (the unsynced overwrite reverts to the older life).
func TestRecycledSegmentTornWriteEveryOffset(t *testing.T) {
	const batch = 3
	for _, oldSize := range []int{16, 5} {
		for keep := 0; keep <= chainBytes+batch*newBytes; keep++ {
			for _, cut := range []bool{false, true} {
				what := fmt.Sprintf("old payload %d B, write torn after %d B, power cut %v", oldSize, keep, cut)
				dir := t.TempDir()
				fopts := walfault.NoOneShots()
				fopts.FailWriteAt, fopts.FailWriteKeep = 1, keep
				ffs := walfault.New(nosync{wal.OS}, fopts)
				l := recycledLog(t, dir, ffs, oldSize)
				for seq := uint64(oldEntries + 1); seq <= oldEntries+batch; seq++ {
					if err := l.Append(newEntry(seq)); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.Sync(); !errors.Is(err, wal.ErrPoisoned) {
					t.Fatalf("%s: Sync = %v, want ErrPoisoned", what, err)
				}
				_ = l.Close()
				if got := ffs.Injected()["torn-write"]; got != 1 {
					t.Fatalf("%s: %d torn writes injected, want 1", what, got)
				}
				want := 0
				if cut {
					if err := ffs.Crash(); err != nil {
						t.Fatal(err)
					}
				} else if keep >= chainBytes {
					want = (keep - chainBytes) / newBytes
				}
				wantNewPrefix(t, dir, want, what)
			}
		}
	}
}

// TestRecycledSegmentLyingFsyncEveryBoundary lets the fsync after batch j
// lie, for every j up to the one Close makes, then cuts the power: the
// range the lie covered reads back as the older life.
func TestRecycledSegmentLyingFsyncEveryBoundary(t *testing.T) {
	for _, oldSize := range []int{16, 5} {
		for j := 0; j <= newBatches; j++ {
			what := fmt.Sprintf("old payload %d B, fsync after batch %d lies", oldSize, j)
			dir := t.TempDir()
			fopts := walfault.NoOneShots()
			fopts.LieFsyncAt = 2 + j // sticky: every later fsync of the segment lies too
			ffs := walfault.New(nosync{wal.OS}, fopts)
			l := recycledLog(t, dir, ffs, oldSize)
			seq := uint64(oldEntries)
			for range newBatches {
				for range newPerBatch {
					seq++
					if err := l.Append(newEntry(seq)); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ffs.Crash(); err != nil {
				t.Fatal(err)
			}
			if got := ffs.Injected()["lying-fsync"]; got != 1 {
				t.Fatalf("%s: %d lying fsyncs injected, want 1", what, got)
			}
			wantNewPrefix(t, dir, j*newPerBatch, what)
		}
	}
}

// TestRecycledSegmentReadsLiveBytes: while the reused file still holds the
// older life past the new records, Replay and ReadFrom stop at the live
// bytes, and Close cuts the file to them.
func TestRecycledSegmentReadsLiveBytes(t *testing.T) {
	dir := t.TempDir()
	l := recycledLog(t, dir, walfault.New(nil, walfault.NoOneShots()), 16)
	for seq := uint64(oldEntries + 1); seq <= oldEntries+2; seq++ {
		if err := l.Append(newEntry(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	wantSeqs(t, replaySeqs(t, l, 0), oldEntries+1, oldEntries+2)
	page, more, err := l.ReadFrom(0, 1<<20, 100, 1<<20)
	if err != nil || more || len(page) != 2 {
		t.Fatalf("ReadFrom over a reused segment: %d entries, more=%v, err=%v; want the 2 new ones", len(page), more, err)
	}
	live := l.Stats().Bytes
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", oldEntries+1)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != live {
		t.Fatalf("closed reused segment holds %d bytes, want its %d live bytes", st.Size(), live)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if strings.HasPrefix(de.Name(), "free-") {
			t.Fatalf("pool still holds %s after its only file was reused", de.Name())
		}
	}
}

// TestEmptiedSegmentRestartsAtRecoveredTail: an fsync lies on a segment,
// a rotation seals it, and the power is cut before the new segment's first
// fsync. The sealed segment comes back short of the new segment's base, and
// the new one with no entry: empty if it was created, holding only its
// earlier life if it was reused. The appends that fill the gap must land at
// or above their segment's base, or the next Open would take them for an
// earlier life's records, so every one must come back, and none as
// ErrCorrupt once the segment they landed in is sealed behind another.
func TestEmptiedSegmentRestartsAtRecoveredTail(t *testing.T) {
	const segBytes = chainBytes + 3*newBytes // three entries, then a rotation
	for _, tc := range []struct {
		name     string
		snapshot bool // a snapshot first pools two files, so the rotation reuses one
		lieAt    int  // the fsync of the segment's second batch
	}{
		{"created", false, 1},
		{"reused", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fopts := walfault.NoOneShots()
			fopts.LieFsyncAt = tc.lieAt // sticky: the rotation's own fsync of that segment lies too
			ffs := walfault.New(nosync{wal.OS}, fopts)
			l, err := wal.Open(dir, wal.Options{FS: ffs, SegmentBytes: segBytes})
			if err != nil {
				t.Fatal(err)
			}
			seq, after := uint64(0), uint64(0)
			appendSync := func(sync bool) {
				t.Helper()
				seq++
				if err := l.Append(newEntry(seq)); err != nil {
					t.Fatal(err)
				}
				if !sync {
					return
				}
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			if tc.snapshot {
				for range 5 { // fsync 0 seals wal-1 at seq 4
					appendSync(false)
				}
				appendSync(true)                                              // fsync 1
				if err := l.WriteSnapshot(6, []byte("state@6")); err != nil { // fsync 2
					t.Fatal(err)
				}
				after = 6
			}
			appendSync(true) // honest
			durable := seq
			for rotations := l.Stats().Rotations; ; {
				appendSync(false)
				if l.Stats().Rotations != rotations {
					break
				}
				if err := l.Sync(); err != nil { // lies, and so does every later fsync of this segment
					t.Fatal(err)
				}
			}
			// The rotation buffered the new segment's chain record and first
			// entry; the power is cut before they are written.
			if err := ffs.Crash(); err != nil {
				t.Fatal(err)
			}
			if got := ffs.Injected()["lying-fsync"]; got != 1 {
				t.Fatalf("%d lying fsyncs injected, want 1", got)
			}
			if tc.snapshot && l.Stats().Recycled != 2 {
				t.Fatalf("Recycled = %d, want 2: the rotation did not reuse a pooled file", l.Stats().Recycled)
			}
			opts := wal.Options{FS: nosync{wal.OS}, SegmentBytes: segBytes}
			l, err = wal.Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen after the power cut: %v", err)
			}
			if got := l.LastSeq(); got != durable || got+1 >= seq {
				t.Fatalf("recovered to seq %d, want %d, below the lost segment's base %d less one", got, durable, seq)
			}
			end := seq + 2*3 // past the lost base, through two more rotations
			for seq = durable; seq < end; {
				appendSync(false)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l, err = wal.Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen after filling the gap: %v", err)
			}
			defer l.Close()
			var want []uint64
			for s := after + 1; s <= end; s++ {
				want = append(want, s)
			}
			wantSeqs(t, replaySeqs(t, l, after), want...)
		})
	}
}
