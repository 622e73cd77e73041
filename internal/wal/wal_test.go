package wal

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"testing"
	"time"
)

func entry(seq uint64) Entry {
	return Entry{
		Seq:       seq,
		Origin:    uint32(seq % 5),
		LogicalID: seq * 7,
		Payload:   []byte(fmt.Sprintf("payload-%d", seq)),
	}
}

func appendN(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if err := l.Append(entry(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func replayAll(t *testing.T, l *Log, after uint64) []Entry {
	t.Helper()
	var out []Entry
	if err := l.Replay(after, func(e Entry) error {
		out = append(out, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 100)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 100 {
		t.Fatalf("LastSeq = %d, want 100", got)
	}
	out := replayAll(t, l2, 0)
	if len(out) != 100 {
		t.Fatalf("replayed %d entries, want 100", len(out))
	}
	for i, e := range out {
		want := entry(uint64(i + 1))
		if e.Seq != want.Seq || e.Origin != want.Origin || e.LogicalID != want.LogicalID ||
			!bytes.Equal(e.Payload, want.Payload) {
			t.Fatalf("entry %d mismatch: %+v", i, e)
		}
	}
	if got := replayAll(t, l2, 60); len(got) != 40 || got[0].Seq != 61 {
		t.Fatalf("Replay(60): %d entries starting at %d", len(got), got[0].Seq)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 200)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, _, err := scanDir(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if out := replayAll(t, l2, 0); len(out) != 200 {
		t.Fatalf("replayed %d entries across segments, want 200", len(out))
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop bytes off the active segment.
	segs, _, _, err := scanDir(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	path := segs[len(segs)-1].path
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := replayAll(t, l2, 0)
	if len(out) != 9 || out[len(out)-1].Seq != 9 {
		t.Fatalf("after torn tail: %d entries, last %d; want 9 ending at 9", len(out), out[len(out)-1].Seq)
	}
	// The log must accept appends at the healed position.
	if err := l2.Append(entry(10)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if out := replayAll(t, l3, 0); len(out) != 10 {
		t.Fatalf("after heal+append: %d entries, want 10", len(out))
	}
}

func TestSnapshotTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 200)
	before, _, _, err := scanDir(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(150, []byte("state@150")); err != nil {
		t.Fatal(err)
	}
	first, last := l.Bounds()
	if first == 0 || first > 151 || last != 200 {
		t.Fatalf("Bounds after snapshot = (%d, %d)", first, last)
	}
	after, _, _, err := scanDir(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Fatalf("snapshot kept %d of %d segments; truncation did not run", len(after), len(before))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snap, ok := l2.LatestSnapshot()
	if !ok || snap.Seq != 150 || string(snap.Data) != "state@150" {
		t.Fatalf("LatestSnapshot = %+v ok=%v", snap, ok)
	}
	// Replay behind the snapshot: only the retained suffix is available.
	out := replayAll(t, l2, snap.Seq)
	if len(out) == 0 || out[0].Seq > 151 || out[len(out)-1].Seq != 200 {
		t.Fatalf("replay after snapshot: %d entries [%d..%d]",
			len(out), out[0].Seq, out[len(out)-1].Seq)
	}
}

func TestReadFromPaging(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 100)

	var got []Entry
	after := uint64(20)
	for {
		page, more, err := l.ReadFrom(after, 80, 16, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page...)
		if len(page) > 0 {
			after = page[len(page)-1].Seq
		}
		if !more {
			break
		}
		if len(page) == 0 {
			t.Fatal("more=true with empty page")
		}
	}
	if len(got) != 60 || got[0].Seq != 21 || got[len(got)-1].Seq != 80 {
		t.Fatalf("paged read: %d entries [%d..%d], want 60 [21..80]",
			len(got), got[0].Seq, got[len(got)-1].Seq)
	}
	// Byte-capped pages behave the same way.
	page, more, err := l.ReadFrom(0, 100, 1000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) == 0 || !more {
		t.Fatalf("byte-capped page: %d entries, more=%v", len(page), more)
	}
}

func TestGenerationMonotone(t *testing.T) {
	dir := t.TempDir()
	var prev uint64
	for i := 0; i < 3; i++ {
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g := l.Generation(); g <= prev {
			t.Fatalf("generation %d not above previous %d", g, prev)
		} else {
			prev = g
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if prev != 3 {
		t.Fatalf("generation after three opens = %d, want 3", prev)
	}
}

// TestReplay10kUnderOneSecond is the acceptance bound: rebuilding state
// from a 10k-message log must be fast enough to make restarts routine.
func TestReplay10kUnderOneSecond(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(strings.Repeat("x", 128))
	for seq := uint64(1); seq <= 10_000; seq++ {
		if err := l.Append(Entry{Seq: seq, Origin: 1, LogicalID: seq, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	if err := l2.Replay(0, func(Entry) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("open+replay of %d entries took %v, want < 1s", n, elapsed)
	}
	if n != 10_000 {
		t.Fatalf("replayed %d entries, want 10000", n)
	}
}

// TestSnapshotJumpLeavesNoInteriorGap: a snapshot installed PAST the local
// tail (a catch-up state transfer) must reset the segment chain — appends
// continue far above the old entries, and a segment holding both sides of
// the jump would be served to catching-up peers as if it were contiguous,
// silently skipping the middle.
func TestSnapshotJumpLeavesNoInteriorGap(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 100)
	// State transfer: the group is at 500, everything local is stale.
	if err := l.WriteSnapshot(500, []byte("state@500")); err != nil {
		t.Fatal(err)
	}
	if first, _ := l.Bounds(); first != 0 {
		t.Fatalf("entries below the snapshot survived: first=%d", first)
	}
	appendN(t, l, 501, 520)

	first, last := l.Bounds()
	if first != 501 || last != 520 {
		t.Fatalf("Bounds after jump = (%d, %d), want (501, 520)", first, last)
	}
	// A peer asking for the pre-jump range must NOT be served a gap: the
	// retained entries start at 501, so serving code sees first > after+1
	// and falls back to the snapshot.
	page, _, err := l.ReadFrom(90, 520, 1000, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 20 || page[0].Seq != 501 {
		t.Fatalf("ReadFrom after jump: %d entries starting at %d", len(page), page[0].Seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// And the reset survives a reopen.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	out := replayAll(t, l2, 500)
	if len(out) != 20 || out[0].Seq != 501 || out[len(out)-1].Seq != 520 {
		t.Fatalf("replay after jump: %d entries [%d..%d]", len(out), out[0].Seq, out[len(out)-1].Seq)
	}
}

// TestReadFromPagingWithHint: paged reads resume mid-segment (the hint
// path) and still return every entry exactly once.
func TestReadFromPagingWithHint(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1 << 20}) // one big segment
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 500)
	var got []Entry
	after := uint64(0)
	pages := 0
	for {
		page, more, err := l.ReadFrom(after, 500, 64, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page...)
		pages++
		if len(page) > 0 {
			after = page[len(page)-1].Seq
		}
		if !more {
			break
		}
	}
	if len(got) != 500 || pages < 8 {
		t.Fatalf("paged read with hint: %d entries over %d pages", len(got), pages)
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
}

// countingFS counts the writes that reach segment files.
type countingFS struct {
	FS
	writes *int
}

func (c countingFS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil || !strings.HasSuffix(path, ".seg") {
		return f, err
	}
	return countingFile{f, c.writes}, nil
}

type countingFile struct {
	File
	writes *int
}

func (c countingFile) Write(p []byte) (int, error) {
	*c.writes++
	return c.File.Write(p)
}

// TestBatchReachesSegmentInOneWrite: a group-commit batch of 8 KiB records
// reaches the segment as a single write at Sync, not one write per record.
func TestBatchReachesSegmentInOneWrite(t *testing.T) {
	writes := 0
	l, err := Open(t.TempDir(), Options{FS: countingFS{OS, &writes}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{0xab}, 8<<10)
	for seq := uint64(1); seq <= 64; seq++ {
		if err := l.Append(Entry{Seq: seq, Origin: 1, LogicalID: seq, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if writes != 0 {
		t.Fatalf("%d segment writes before Sync, want 0", writes)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if writes != 1 {
		t.Fatalf("64 appends and one Sync made %d segment writes, want 1", writes)
	}
	if got := replayAll(t, l, 0); len(got) != 64 {
		t.Fatalf("replayed %d entries, want 64", len(got))
	}
}

// TestOversizeRecordRoundTrips: a record larger than the batch buffer's cap,
// between small records, survives ReadFrom (which writes the batch out
// unsynced) and Sync → reopen → Replay, and the buffer it grew is released.
func TestOversizeRecordRoundTrips(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{entry(1), entry(2), entry(3), entry(4), entry(5), entry(6), entry(7)}
	want[3].Payload = bytes.Repeat([]byte("big"), 1<<20) // 3 MiB
	for i, e := range want {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
		if e.Seq == 5 && cap(l.buf) > 2*batchCap {
			t.Fatalf("batch buffer still holds %d bytes after the record past the oversize one", cap(l.buf))
		}
		if i == 3 && cap(l.buf) <= batchCap {
			t.Fatalf("oversize record did not grow the batch buffer (cap %d)", cap(l.buf))
		}
	}
	check := func(what string, got []Entry) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Seq != want[i].Seq || got[i].LogicalID != want[i].LogicalID ||
				!bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("%s: entry %d mismatch (seq %d, %d payload bytes)", what, i, got[i].Seq, len(got[i].Payload))
			}
		}
	}
	page, more, err := l.ReadFrom(0, 7, 100, 64<<20)
	if err != nil || more {
		t.Fatalf("ReadFrom: more=%v err=%v", more, err)
	}
	check("ReadFrom", page)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	check("Replay after reopen", replayAll(t, l2, 0))
}

// TestPoolCyclesLeaveLiveBytesOnly runs snapshot cycles that retire sealed
// and active segments alike and reuse their files at rotation, with record
// sizes that make each life end short of or past the one before it. The
// pool never grows the directory past what it held before a truncation,
// Stats counts only live segments, and after Close every wal-*.seg holds
// nothing but live records — what a build without the pool recovers the
// same way.
func TestPoolCyclesLeaveLiveBytesOnly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	files := func() (wal, free int, walBytes int64) {
		t.Helper()
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			switch {
			case strings.HasPrefix(de.Name(), "wal-"):
				fi, err := de.Info()
				if err != nil {
					t.Fatal(err)
				}
				wal++
				walBytes += fi.Size()
			case strings.HasPrefix(de.Name(), "free-"):
				free++
			}
		}
		return wal, free, walBytes
	}
	seq := uint64(0)
	for cycle := 0; cycle < 12; cycle++ {
		for i := 0; i < 30+cycle%4*7; i++ {
			seq++
			e := entry(seq)
			e.Payload = bytes.Repeat([]byte{byte(seq)}, int(seq*37%61))
			if err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		wal, free, walBytes := files()
		if st := l.Stats(); st.Segments != wal || (!l.segs[len(l.segs)-1].recycled && st.Bytes != walBytes) {
			t.Fatalf("cycle %d: Stats counts %d segments of %d bytes, directory holds %d wal files of %d bytes",
				cycle, st.Segments, st.Bytes, wal, walBytes)
		}
		at := seq
		if cycle%3 == 1 {
			at = seq - 9 // leaves the active segment live: only sealed ones retire
		}
		if err := l.WriteSnapshot(at, []byte("state")); err != nil {
			t.Fatal(err)
		}
		if w, f, _ := files(); w+f > wal+free {
			t.Fatalf("cycle %d: %d wal and %d free files after the truncation, %d before", cycle, w, f, wal+free)
		}
	}
	if l.Stats().Recycled == 0 {
		t.Fatal("twelve snapshot cycles recycled no segment file")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, _, err := scanDir(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		f, err := OS.Open(s.path)
		if err != nil {
			t.Fatal(err)
		}
		records := 0
		_, err = scanRecords(f, 0, -1, func(e Entry) error {
			records++
			if (e.Seq == 0 && records > 1) || (e.Seq != 0 && e.Seq < s.base) {
				return fmt.Errorf("record %d (seq %d) is an earlier life's", records, e.Seq)
			}
			return nil
		})
		_ = f.Close()
		if err != nil {
			t.Fatalf("closed segment %s: %v", s.path, err)
		}
	}
}
