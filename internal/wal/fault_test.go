package wal_test

// Storage-fault regression tests: each exercises one of the WAL durability
// bugs through the walfault injection layer. The injected schedules here
// use precise one-shot indices so every test is deterministic on its own;
// the seeded statistical schedules run under the chaos harness's
// hostile-disk profile (internal/harness, FSR_SEED-replayable).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fsr/internal/wal"
	"fsr/internal/wal/walfault"
)

func fe(seq uint64) wal.Entry {
	return wal.Entry{Seq: seq, Origin: 7, LogicalID: seq, Payload: []byte(fmt.Sprintf("m-%04d", seq))}
}

// replaySeqs reopens nothing — it replays the given log above `after` and
// returns the recovered sequence numbers.
func replaySeqs(t *testing.T, l *wal.Log, after uint64) []uint64 {
	t.Helper()
	var seqs []uint64
	if err := l.Replay(after, func(e wal.Entry) error {
		seqs = append(seqs, e.Seq)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs
}

func wantSeqs(t *testing.T, got []uint64, want ...uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered seqs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered seqs %v, want %v", got, want)
		}
	}
}

// TestFsyncErrorPoisonsLog is the fsyncgate regression: a failed fsync
// must freeze the log permanently — a retried fsync that "succeeds" after
// the kernel dropped the dirty pages would otherwise claim durability for
// lost records. The log must return the same sticky error forever after,
// and reopening the directory must recover an intact prefix.
func TestFsyncErrorPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	fopts := walfault.NoOneShots()
	fopts.FailFsyncAt = 0
	ffs := walfault.New(nil, fopts)

	l, err := wal.Open(dir, wal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.Append(fe(seq)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	if err := l.Sync(); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("Sync after injected fsync error = %v, want ErrPoisoned", err)
	}
	// Sticky: every later operation returns the poison, none mutate disk.
	if err := l.Append(fe(6)); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("Append on poisoned log = %v, want ErrPoisoned", err)
	}
	if err := l.Sync(); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("second Sync = %v, want ErrPoisoned", err)
	}
	if !l.Stats().Poisoned {
		t.Fatal("Stats().Poisoned = false after fsync failure")
	}
	if err := l.Writable(); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("Writable on poisoned log = %v, want ErrPoisoned", err)
	}
	if err := l.Close(); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("Close on poisoned log = %v, want ErrPoisoned", err)
	}

	// Next incarnation on an honest disk: the flushed prefix survived the
	// reported-then-poisoned fsync, and the log is usable again.
	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Stats().Poisoned {
		t.Fatal("poison leaked across reopen")
	}
	wantSeqs(t, replaySeqs(t, l2, 0), 1, 2, 3, 4, 5)
	if err := l2.Append(fe(6)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
}

// TestShortWritePoisonsAndRecovers is the partial-append regression: a
// short write leaves garbage mid-segment, and the old code would happily
// append after it — turning a repairable torn tail into interior
// corruption that bricks the next Open with ErrCorrupt. With the fix, the
// first failed write poisons the log, the garbage stays a tail, and the
// next incarnation truncates it and recovers the pre-fault prefix.
func TestShortWritePoisonsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	fopts := walfault.NoOneShots()
	fopts.FailWriteAt = 3 // flushes 0..2 land; the 4th tears
	ffs := walfault.New(nil, fopts)

	l, err := wal.Open(dir, wal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(fe(seq)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("sync %d: %v", seq, err)
		}
	}
	if err := l.Append(fe(4)); err != nil {
		t.Fatalf("append 4 buffers only, must not fail: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("Sync over torn write = %v, want ErrPoisoned", err)
	}
	if err := l.Append(fe(5)); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("Append after torn write = %v, want ErrPoisoned (would write after garbage)", err)
	}
	_ = l.Close()

	// Reopen on an honest disk: the partial record is a torn TAIL —
	// truncated by recovery, never ErrCorrupt — and entries 1..3 survive.
	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer l2.Close()
	wantSeqs(t, replaySeqs(t, l2, 0), 1, 2, 3)
	if err := l2.Append(fe(4)); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatalf("sync after repair: %v", err)
	}
}

// TestLyingFsyncCrashLosesOnlyCleanSuffix models fsyncgate's worst case:
// the fsync *reports success* but the kernel already dropped the pages.
// The WAL cannot detect this — the loss only shows at the next power cut —
// so the guarantee under test is recovery-shaped: the crash loses exactly
// the unflushed suffix (a clean prefix survives), and the reopened log is
// consistent and usable. Cluster-level acked⇒durable over lying fsyncs is
// the hostile-disk chaos profile's job, where peers re-supply the suffix.
func TestLyingFsyncCrashLosesOnlyCleanSuffix(t *testing.T) {
	dir := t.TempDir()
	fopts := walfault.NoOneShots()
	fopts.LieFsyncAt = 1 // fsync 0 honest; fsync 1 (and all later) lie
	ffs := walfault.New(nil, fopts)

	l, err := wal.Open(dir, wal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(fe(seq)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("sync %d: %v", seq, err) // the lie: reports success
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Power cut: everything past the last HONEST fsync evaporates.
	if err := ffs.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if got := ffs.Injected()["lying-fsync"]; got != 1 {
		t.Fatalf("lying-fsync injections = %d, want 1 (sticky lies count once)", got)
	}

	l2, err := wal.Open(dir, wal.Options{FS: ffs})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer l2.Close()
	wantSeqs(t, replaySeqs(t, l2, 0), 1)
	if l2.LastSeq() != 1 {
		t.Fatalf("LastSeq = %d, want 1", l2.LastSeq())
	}
	// The disk is honest again post-crash; the node can rebuild from here.
	if err := l2.Append(fe(2)); err != nil {
		t.Fatalf("append after crash-recovery: %v", err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatalf("sync after crash-recovery: %v", err)
	}
}

// TestSnapshotCrashAtomicity injects a failure at each stage of
// WriteSnapshot — temp-file creation, rename, segment truncation — and
// asserts the invariant the atomic sequence exists for: a reopened log
// never loses entries above the last *durable* snapshot.
func TestSnapshotCrashAtomicity(t *testing.T) {
	t.Run("enospc-at-tmp-create", func(t *testing.T) {
		dir := t.TempDir()
		fopts := walfault.NoOneShots()
		fopts.FailCreateAt = 2 // 0: gen tmp, 1: first segment, 2: snapshot tmp
		ffs := walfault.New(nil, fopts)
		l, err := wal.Open(dir, wal.Options{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 5; seq++ {
			if err := l.Append(fe(seq)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.WriteSnapshot(3, []byte("state@3")); !errors.Is(err, wal.ErrPoisoned) {
			t.Fatalf("WriteSnapshot over ENOSPC = %v, want ErrPoisoned", err)
		}
		_ = l.Close()

		l2, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		if _, ok := l2.LatestSnapshot(); ok {
			t.Fatal("phantom snapshot after failed tmp create")
		}
		wantSeqs(t, replaySeqs(t, l2, 0), 1, 2, 3, 4, 5)
	})

	t.Run("enospc-at-rename", func(t *testing.T) {
		dir := t.TempDir()
		fopts := walfault.NoOneShots()
		fopts.FailRenameAt = 1 // 0: gen install at Open; 1: snapshot install
		ffs := walfault.New(nil, fopts)
		l, err := wal.Open(dir, wal.Options{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 5; seq++ {
			if err := l.Append(fe(seq)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.WriteSnapshot(3, []byte("state@3")); !errors.Is(err, wal.ErrPoisoned) {
			t.Fatalf("WriteSnapshot over rename failure = %v, want ErrPoisoned", err)
		}
		_ = l.Close()

		l2, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		if _, ok := l2.LatestSnapshot(); ok {
			t.Fatal("phantom snapshot after failed rename")
		}
		wantSeqs(t, replaySeqs(t, l2, 0), 1, 2, 3, 4, 5)
	})

	t.Run("eio-mid-truncation", func(t *testing.T) {
		dir := t.TempDir()
		fopts := walfault.NoOneShots()
		fopts.FailRemoveAt = 3 // 0: gen tmp defer, 1: snap tmp defer, 2: first covered seg, 3: second
		ffs := walfault.New(nil, fopts)
		// A chain record and one ~40-byte record fill a 64-byte segment.
		l, err := wal.Open(dir, wal.Options{FS: ffs, SegmentBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 10; seq++ {
			if err := l.Append(fe(seq)); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		// Snapshot is durably installed, then truncation dies halfway.
		if err := l.WriteSnapshot(8, []byte("state@8")); !errors.Is(err, wal.ErrPoisoned) {
			t.Fatalf("WriteSnapshot over truncation EIO = %v, want ErrPoisoned", err)
		}
		_ = l.Close()

		// The directory holds the new snapshot plus leftover covered
		// segments; those replay harmlessly and nothing above the durable
		// snapshot is lost.
		l2, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatalf("reopen with leftover segments: %v", err)
		}
		defer l2.Close()
		snap, ok := l2.LatestSnapshot()
		if !ok || snap.Seq != 8 {
			t.Fatalf("snapshot = %+v ok=%v, want durable snapshot at seq 8", snap, ok)
		}
		wantSeqs(t, replaySeqs(t, l2, 8), 9, 10)
		if l2.LastSeq() != 10 {
			t.Fatalf("LastSeq = %d, want 10", l2.LastSeq())
		}
	})
}

// TestSegmentChainRefusesInteriorHole is ledger row A without the harness:
// an fsync lies on a segment that is then sealed by a rotation, the next
// segment is synced honestly, and the power cut takes the sealed segment's
// tail. Each segment validates on its own — the cut is record-aligned and
// seqs are legally sparse — so only the chain record at the head of the
// surviving segment can tell that entries are missing between them, and
// Open must refuse rather than let Replay run over the hole.
func TestSegmentChainRefusesInteriorHole(t *testing.T) {
	dir := t.TempDir()
	fopts := walfault.NoOneShots()
	fopts.LieFsyncAt = 1 // sticky: the rotation's own fsync of that segment lies too
	ffs := walfault.New(nil, fopts)
	l, err := wal.Open(dir, wal.Options{FS: ffs, SegmentBytes: 150})
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	appendSync := func() {
		t.Helper()
		seq++
		if err := l.Append(fe(seq)); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	appendSync() // fsync 0: honest, seq 1 is durable
	durable := seq
	for l.Stats().Rotations == 0 {
		appendSync() // fsync 1 lies, and so does every later one on this segment
	}
	appendSync() // the new segment's fsyncs are honest
	if seq < durable+3 {
		t.Fatalf("rotated after seq %d: no lied-about entry was sealed behind the rotation", seq-1)
	}
	_ = l.Close()
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}

	l2, err := wal.Open(dir, wal.Options{})
	if err == nil {
		got := replaySeqs(t, l2, 0)
		_ = l2.Close()
		t.Fatalf("reopened over an interior hole; replay yields %v of 1..%d", got, seq)
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("reopen = %v, want ErrCorrupt", err)
	}
}

// TestSegmentChainAcceptsLegacyAndSnapshots: directories the chain must not
// refuse. A segment written before chain records existed is chain-unknown;
// a segment created behind WriteSnapshot's truncation chains to the
// snapshot's seq, which may be far above the last entry.
func TestSegmentChainAcceptsLegacyAndSnapshots(t *testing.T) {
	t.Run("snapshot jump", func(t *testing.T) {
		dir := t.TempDir()
		l, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 3; seq++ {
			if err := l.Append(fe(seq)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.WriteSnapshot(50, []byte("state@50")); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(fe(51)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatalf("reopen behind a snapshot jump: %v", err)
		}
		defer l2.Close()
		wantSeqs(t, replaySeqs(t, l2, 50), 51)
	})
	t.Run("segment without a chain record", func(t *testing.T) {
		dir := t.TempDir()
		l, err := wal.Open(dir, wal.Options{SegmentBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= 4; seq++ {
			if err := l.Append(fe(seq)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Strip every segment's chain record: what an older build wrote.
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		const chainRecord = 8 + 24 // record header + an entry with no payload
		for _, de := range names {
			if !strings.HasSuffix(de.Name(), ".seg") {
				continue
			}
			path := filepath.Join(dir, de.Name())
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[chainRecord:], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l2, err := wal.Open(dir, wal.Options{SegmentBytes: 64})
		if err != nil {
			t.Fatalf("reopen of a chain-less directory: %v", err)
		}
		defer l2.Close()
		wantSeqs(t, replaySeqs(t, l2, 0), 1, 2, 3, 4)
		if err := l2.Append(fe(5)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestENOSPCMidRotatePoisons: a full disk striking the rotation path (new
// segment creation) must poison, not leave a half-rotated log; the synced
// prefix reopens cleanly.
func TestENOSPCMidRotatePoisons(t *testing.T) {
	dir := t.TempDir()
	fopts := walfault.NoOneShots()
	fopts.FailCreateAt = 2 // 0: gen tmp, 1: first segment, 2: rotation's segment
	ffs := walfault.New(nil, fopts)

	l, err := wal.Open(dir, wal.Options{FS: ffs, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(fe(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(fe(2)); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("Append across ENOSPC rotation = %v, want ErrPoisoned", err)
	}
	if err := l.Append(fe(3)); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("Append after poisoned rotation = %v, want ErrPoisoned", err)
	}
	_ = l.Close()

	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	wantSeqs(t, replaySeqs(t, l2, 0), 1)
}

// TestBitFlipInteriorFailsLoud: read corruption inside an interior segment
// must surface as ErrCorrupt at Open — fail loud, never serve a log with a
// silent interior gap. (A flip in the *last* record is indistinguishable
// from a torn tail and heals by truncation; the cluster re-supplies the
// entry, which the hostile-disk profile asserts.)
func TestBitFlipInteriorFailsLoud(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 6; seq++ {
		if err := l.Append(fe(seq)); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	fopts := walfault.NoOneShots()
	fopts.FlipReadAt = 0 // first segment read during recovery
	ffs := walfault.New(nil, fopts)
	if _, err := wal.Open(dir, wal.Options{FS: ffs}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Open over interior bit-flip = %v, want ErrCorrupt", err)
	}
}

// TestFaultScheduleDeterminism: two injectors with the same seed fire the
// same faults over the same operation sequence — the property FSR_SEED
// replay rests on.
func TestFaultScheduleDeterminism(t *testing.T) {
	run := func(seed int64) (map[string]uint64, error) {
		dir := t.TempDir()
		fopts := walfault.NoOneShots()
		fopts.Seed = seed
		fopts.TornEvery = 5
		fopts.FsyncErrEvery = 7
		fopts.ENOSPCEvery = 9
		ffs := walfault.New(nil, fopts)
		l, err := wal.Open(dir, wal.Options{FS: ffs, SegmentBytes: 128})
		if err != nil {
			return ffs.Injected(), nil
		}
		for seq := uint64(1); seq <= 40; seq++ {
			if err := l.Append(fe(seq)); err != nil {
				break
			}
			if err := l.Sync(); err != nil {
				break
			}
		}
		_ = l.Close()
		return ffs.Injected(), nil
	}
	a, _ := run(42)
	b, _ := run(42)
	if len(a) != len(b) {
		t.Fatalf("schedules diverged: %v vs %v", a, b)
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("schedules diverged at %q: %v vs %v", k, a, b)
		}
	}
	total := uint64(0)
	for _, v := range a {
		total += v
	}
	if total == 0 {
		t.Fatal("seed 42 injected no faults over 40 synced appends; schedule too sparse for the test")
	}
}
