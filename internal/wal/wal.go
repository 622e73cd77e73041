// Package wal implements the durability substrate of an FSR node: a
// segmented, CRC-framed, append-only write-ahead log of the uniformly
// delivered total order, plus state-machine snapshots that bound replay and
// let old segments be truncated.
//
// Layout of a durable directory:
//
//	gen                incarnation counter, bumped by every Open
//	wal-<seq>.seg      log segments; the hex name is the sequence number
//	                   of the first entry the segment holds
//	snap-<seq>.snap    state-machine snapshots; the hex name is the last
//	                   sequence number folded into the snapshot
//
// Record framing follows the hand-rolled little-endian style of the wire
// codec: each entry is [length u32][crc32c u32][body] with body = seq u64,
// origin u32, logicalID u64, payload length u32, payload. Appends go
// through one buffered writer and are fsynced in batches (every
// Options.SyncEvery records, plus whenever the owner calls Sync before
// externalizing a delivery). A torn tail — the partial record a crash can
// leave mid-write — is detected by the length/CRC check on Open and
// truncated away; everything before it is intact because records are
// written sequentially.
//
// # Segment chain
//
// Record validation sees one segment at a time, and sequence numbers are
// legally sparse, so a sealed segment that lost a record-aligned tail (an
// fsync that lied, then a rotate, then a power cut) looks clean on its own
// while the honestly synced segment after it survives. Every segment
// therefore opens with a chain record — an ordinary record with seq 0, which
// no entry uses, whose logicalID is the highest sequence number recorded
// (entry or snapshot) when the segment was created. Open walks the chain:
// a segment whose chain record names a seq above everything recovered
// before it follows a hole, and Open refuses the directory with ErrCorrupt —
// the verdict an interior torn record gets — so the owner rejoins through
// state transfer instead of replaying over the gap. A segment following
// WriteSnapshot's truncation chains to the snapshot's seq. A segment
// without a chain record (written before the chain existed) is accepted as
// it was.
//
// # Failure model
//
// A failed write, flush or fsync permanently poisons the log: every later
// Append/Sync/WriteSnapshot/Replay/ReadFrom returns the same sticky error
// (ErrPoisoned) and the owner is expected to fail-stop. Two disk realities
// force this. First, fsyncgate: after a failed fsync the kernel may drop
// the dirty pages yet let a *retried* fsync succeed, so a log that shrugs
// off one fsync error can later claim durability for records that never
// hit the platter. Second, a short append leaves a partial record in the
// buffered writer; any further append would flush garbage into the
// segment's interior, turning a recoverable torn tail into ErrCorrupt on
// the next open. Freezing the log at the first failure keeps everything
// below the failure point recoverable: the next incarnation's Open truncates
// the torn tail and replays the intact prefix.
//
// The log is safe for concurrent use: the delivery goroutine appends while
// the protocol loop serves catch-up reads to restarted peers.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Entry is one record of the delivered total order: a reassembled
// application message identified by its final segment's global sequence
// number.
type Entry struct {
	Seq       uint64
	Origin    uint32
	LogicalID uint64
	Payload   []byte
}

// Snapshot is a state-machine snapshot: the serialized application state
// with every message up to and including Seq applied.
type Snapshot struct {
	Seq  uint64
	Data []byte
}

// Options tune a Log. Zero values select the defaults.
type Options struct {
	// SegmentBytes caps one segment file; appends past it rotate to a new
	// segment (the unit of truncation). Default 4 MiB.
	SegmentBytes int
	// SyncEvery bounds how many appended records may precede an automatic
	// fsync. The owner still calls Sync explicitly before externalizing a
	// batch; this cap just limits the window inside huge batches.
	// Default 256.
	SyncEvery int
	// FS overrides the filesystem the log runs on — the fault-injection
	// seam (internal/wal/walfault). Nil selects the real filesystem.
	FS FS
	// Logger receives structured events for segment rotation, torn-tail
	// repair, and snapshots. Nil discards them.
	Logger *slog.Logger
}

// Stats is a point-in-time snapshot of the log's durability counters —
// the storage-layer slice of the node's metrics surface, which exports it
// by the conversion fsr.WALMetrics(stats): the two agree field for field.
type Stats struct {
	Segments    int           // on-disk segment files (including the active one)
	Bytes       int64         // total bytes across all retained segments
	Appends     uint64        // entries appended this incarnation
	Fsyncs      uint64        // fsync calls on the active segment
	Rotations   uint64        // segment rotations this incarnation
	Snapshots   uint64        // snapshots written this incarnation
	SnapshotSeq uint64        // seq covered by the latest snapshot (0 if none)
	SnapshotAge time.Duration // since the latest snapshot written this incarnation (0 if none)
	Repairs     uint64        // torn tails truncated at Open
	Poisoned    bool          // a write/flush/fsync failed; the log is frozen
}

const (
	defaultSegmentBytes = 4 << 20
	defaultSyncEvery    = 256

	// maxRecordBytes rejects absurd record lengths, which on the last
	// segment indicates a torn tail rather than corruption.
	maxRecordBytes = 64 << 20

	recordHeader   = 8  // length + crc
	entryFixedSize = 24 // seq + origin + logicalID + payload length
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a log whose interior (not its tail) fails validation.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrPoisoned is the sticky error a failed write, flush or fsync leaves
// behind: the log refuses all further mutation and serving, so the owner
// fail-stops instead of acking records whose durability the disk already
// betrayed (see the package comment's failure model).
var ErrPoisoned = errors.New("wal: poisoned by storage failure")

// errTorn marks a record cut short at the end of the newest segment — the
// expected shape of a crash mid-append, healed by truncation.
var errTorn = errors.New("wal: torn tail")

// segment is one on-disk log file.
type segment struct {
	path  string
	first uint64 // seq of the first entry (0 while empty)
	last  uint64 // seq of the last entry (0 while empty)
	size  int64  // bytes, for the active segment including what is buffered
}

// Log is one process's write-ahead log plus snapshot store.
type Log struct {
	mu   sync.Mutex
	dir  string
	opts Options
	fsys FS
	gen  uint64

	segs     []segment // ascending by first seq; the final one is active
	f        File      // active segment
	w        *bufio.Writer
	unsynced int
	lastSeq  uint64 // highest entry or snapshot seq ever recorded

	snap *Snapshot // latest snapshot, kept in memory for serving
	hint readHint  // resume point for paged catch-up reads
	rec  []byte    // Append's record scratch, reused under mu

	log *slog.Logger

	// What Stats and Writable report. Written under mu, read without it: the
	// owner scrapes these on its event loop, and mu is held across a whole
	// fsync.
	poison   atomic.Pointer[error] // sticky; non-nil freezes the log
	segments atomic.Int64
	bytes    atomic.Int64 // across all retained segments
	appends  atomic.Uint64
	fsyncs   atomic.Uint64
	rotates  atomic.Uint64
	snaps    atomic.Uint64
	snapSeq  atomic.Uint64
	snapTime atomic.Int64 // UnixNano of the latest WriteSnapshot, 0 if none
	repairs  atomic.Uint64
}

// readHint remembers where the last ReadFrom page ended, so a paged
// catch-up transfer resumes scanning mid-segment instead of re-reading
// (and re-CRC-checking) the segment from byte 0 for every page.
type readHint struct {
	path  string
	after uint64
	off   int64
}

// Open recovers (or creates) the log in dir, validating every record,
// truncating a torn tail, loading the latest intact snapshot, and bumping
// the incarnation counter.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = defaultSyncEvery
	}
	if opts.FS == nil {
		opts.FS = OS
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, fsys: opts.FS, log: opts.Logger}
	if l.log == nil {
		l.log = slog.New(slog.DiscardHandler)
	}
	if err := l.bumpGeneration(); err != nil {
		return nil, err
	}
	segs, snaps, err := scanDir(l.fsys, dir)
	if err != nil {
		return nil, err
	}
	if err := l.loadSnapshot(snaps); err != nil {
		return nil, err
	}
	if l.snap != nil {
		l.lastSeq = l.snap.Seq
		l.snapSeq.Store(l.snap.Seq)
	}
	for i := range segs {
		if err := l.recoverSegment(&segs[i], i == len(segs)-1); err != nil {
			return nil, err
		}
		l.segs = append(l.segs, segs[i])
		l.bytes.Add(segs[i].size)
	}
	l.segments.Store(int64(len(l.segs)))
	if err := l.openActive(); err != nil {
		return nil, err
	}
	return l, nil
}

// bumpGeneration increments the on-disk incarnation counter. Each Open is
// one process incarnation; the owner derives collision-free ID bands from
// it.
func (l *Log) bumpGeneration() error {
	path := filepath.Join(l.dir, "gen")
	prev := uint64(0)
	if b, err := l.fsys.ReadFile(path); err == nil {
		if v, perr := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64); perr == nil {
			prev = v
		}
	}
	l.gen = prev + 1
	return writeFileAtomic(l.fsys, path, []byte(strconv.FormatUint(l.gen, 10)))
}

// scanDir classifies the directory contents.
func scanDir(fsys FS, dir string) (segs []segment, snapSeqs []uint64, err error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			if _, perr := strconv.ParseUint(name[4:len(name)-4], 16, 64); perr == nil {
				segs = append(segs, segment{path: filepath.Join(dir, name)})
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if seq, perr := strconv.ParseUint(name[5:len(name)-5], 16, 64); perr == nil {
				snapSeqs = append(snapSeqs, seq)
			}
		}
	}
	slices.SortFunc(segs, func(a, b segment) int { return strings.Compare(a.path, b.path) })
	slices.Sort(snapSeqs)
	return segs, snapSeqs, nil
}

// loadSnapshot loads the newest intact snapshot and removes broken ones.
func (l *Log) loadSnapshot(seqs []uint64) error {
	for i := len(seqs) - 1; i >= 0; i-- {
		path := l.snapPath(seqs[i])
		snap, err := readSnapshotFile(l.fsys, path)
		if err != nil {
			// A half-written snapshot (crash during WriteSnapshot before
			// the rename... cannot happen; after a partial disk write it
			// can): ignore it and fall back to the previous one.
			_ = l.fsys.Remove(path)
			continue
		}
		l.snap = &snap
		return nil
	}
	return nil
}

// recoverSegment validates one segment — its records, and its place in the
// segment chain against what the segments before it recovered — truncating
// a torn tail on the last one and recording its entry bounds.
func (l *Log) recoverSegment(s *segment, isLast bool) error {
	f, err := l.fsys.Open(s.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	valid, err := scanRecords(f, func(e Entry) error {
		if e.Seq == 0 {
			if prev := e.LogicalID; prev > l.lastSeq {
				return fmt.Errorf("%w: segment %s follows seq %d but the log before it ends at %d",
					ErrCorrupt, s.path, prev, l.lastSeq)
			}
			return nil
		}
		if s.first == 0 {
			s.first = e.Seq
		}
		s.last = e.Seq
		if e.Seq > l.lastSeq {
			l.lastSeq = e.Seq
		}
		return nil
	})
	s.size = valid
	if err == nil {
		return nil
	}
	if !errors.Is(err, errTorn) {
		return err
	}
	if !isLast {
		return fmt.Errorf("%w: torn record inside interior segment %s", ErrCorrupt, s.path)
	}
	l.repairs.Add(1)
	l.log.Info("wal repair", "segment", filepath.Base(s.path), "valid_bytes", valid, "last_seq", s.last)
	return l.fsys.Truncate(s.path, valid)
}

// openActive opens the newest segment for appending, creating the first
// one if the directory is fresh (or fully truncated).
func (l *Log) openActive() error {
	if len(l.segs) == 0 {
		return l.createSegment(l.lastSeq + 1)
	}
	s := &l.segs[len(l.segs)-1]
	f, err := l.fsys.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	if s.size == 0 {
		// Emptied by a crash or a repair, chain record and all: chain it to
		// what was recovered.
		return l.writeChainLocked()
	}
	return nil
}

// createSegment starts a fresh active segment whose first entry will be
// seq, chained to everything recorded so far. Callers hold the lock (or run
// before the log is shared).
func (l *Log) createSegment(seq uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%016x.seg", seq))
	f, err := l.fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.segs = append(l.segs, segment{path: path})
	l.segments.Store(int64(len(l.segs)))
	l.f = f
	l.w = bufio.NewWriter(f)
	return l.writeChainLocked()
}

// writeChainLocked opens the (empty) active segment with its chain record:
// seq 0, logicalID = the highest seq recorded before it (see the package
// comment). It is buffered, and reaches the disk with the segment's first
// entries — a crash that loses it loses them too, leaving an empty segment
// that chains to nothing and hides nothing.
func (l *Log) writeChainLocked() error {
	return l.writeRecordLocked(Entry{LogicalID: l.lastSeq})
}

// writeRecordLocked frames e into the active segment's buffer.
func (l *Log) writeRecordLocked(e Entry) error {
	rec := appendRecord(l.rec[:0], e)
	if cap(rec) <= maxRecordScratch {
		l.rec = rec // else: one huge entry must not pin its buffer for good
	}
	if _, err := l.w.Write(rec); err != nil {
		// A short write leaves a partial record in the buffer (and maybe
		// on disk). Poisoning here means no later append can flush bytes
		// after the garbage: what is on disk stays a torn TAIL, which the
		// next incarnation's Open truncates — never interior corruption.
		return l.poisonLocked(fmt.Errorf("wal: append: %w", err))
	}
	l.segs[len(l.segs)-1].size += int64(len(rec))
	l.bytes.Add(int64(len(rec)))
	return nil
}

// Generation returns this incarnation's counter (1 for the first Open of a
// directory).
func (l *Log) Generation() uint64 { return l.gen }

// LastSeq returns the highest sequence number recorded (entry or
// snapshot), 0 for an empty log.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Bounds returns the sequence numbers of the earliest and latest retained
// entries; first is 0 when no entries are retained (fresh log, or all
// truncated behind a snapshot).
func (l *Log) Bounds() (first, last uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.segs {
		if l.segs[i].first != 0 {
			return l.segs[i].first, l.lastSeq
		}
	}
	return 0, l.lastSeq
}

// LatestSnapshot returns the newest snapshot. The returned Data is shared;
// callers must treat it as read-only.
func (l *Log) LatestSnapshot() (Snapshot, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snap == nil {
		return Snapshot{}, false
	}
	return *l.snap, true
}

// poisonLocked records the first storage failure and freezes the log: the
// same sticky error comes back from every later mutation or read. Callers
// hold the lock.
func (l *Log) poisonLocked(err error) error {
	if l.poisoned() == nil {
		sticky := fmt.Errorf("%w: %w", ErrPoisoned, err)
		l.poison.Store(&sticky)
		l.log.Error("wal poisoned", "err", err)
	}
	return l.poisoned()
}

// poisoned returns the sticky error, nil while the log is healthy. It
// takes no lock.
func (l *Log) poisoned() error {
	if p := l.poison.Load(); p != nil {
		return *p
	}
	return nil
}

// Append writes one entry, rotating segments as they fill. The entry is
// durable only after the next Sync (explicit or batched).
func (l *Log) Append(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.poisoned(); err != nil {
		return err
	}
	if l.f == nil {
		return fmt.Errorf("wal: log closed")
	}
	if s := &l.segs[len(l.segs)-1]; s.first != 0 && s.size >= int64(l.opts.SegmentBytes) {
		if err := l.rotate(e.Seq); err != nil {
			return err
		}
	}
	if err := l.writeRecordLocked(e); err != nil {
		return err
	}
	s := &l.segs[len(l.segs)-1]
	if s.first == 0 {
		s.first = e.Seq
	}
	s.last = e.Seq
	if e.Seq > l.lastSeq {
		l.lastSeq = e.Seq
	}
	l.appends.Add(1)
	l.unsynced++
	if l.unsynced >= l.opts.SyncEvery {
		return l.syncLocked()
	}
	return nil
}

// rotate seals the active segment and opens a new one starting at seq.
func (l *Log) rotate(seq uint64) error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return l.poisonLocked(fmt.Errorf("wal: rotate: %w", err))
	}
	l.rotates.Add(1)
	l.log.Info("wal rotate", "first_seq", seq, "segments", len(l.segs)+1, "sealed_bytes", l.segs[len(l.segs)-1].size)
	if err := l.createSegment(seq); err != nil {
		return l.poisonLocked(err)
	}
	return nil
}

// Sync flushes buffered appends and fsyncs the active segment — the
// durability point the delivery pump hits before dispatching a batch.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// syncLocked is the durability point — and the fsyncgate guard. A failed
// flush or fsync must not be retried: the kernel may already have dropped
// the dirty pages, so a retried fsync that "succeeds" would claim
// durability for records that are gone. The first failure poisons the log
// permanently; the owner fail-stops and the next incarnation recovers the
// prefix that truly reached the disk.
func (l *Log) syncLocked() error {
	if err := l.poisoned(); err != nil {
		return err
	}
	if l.f == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return l.poisonLocked(fmt.Errorf("wal: flush: %w", err))
	}
	if err := l.f.Sync(); err != nil {
		return l.poisonLocked(fmt.Errorf("wal: fsync: %w", err))
	}
	l.fsyncs.Add(1)
	l.unsynced = 0
	return nil
}

// WriteSnapshot records a state-machine snapshot covering everything up to
// and including seq, then truncates segments made redundant by it. The
// caller hands over ownership of data.
//
// Crash atomicity: entries are fsynced first, the snapshot file lands via
// write-temp/fsync/rename/dir-sync, and only then are covered segments
// removed — so at every intermediate crash point the directory holds
// either the old snapshot with all its segments or the new snapshot
// (possibly with now-redundant segments, which replay harmlessly). Any
// failure mid-sequence poisons the log: a half-truncated directory must
// not accept further appends, but reopening it recovers every entry above
// the last durable snapshot.
func (l *Log) WriteSnapshot(seq uint64, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.syncLocked(); err != nil {
		return err
	}
	body := make([]byte, 0, 12+len(data))
	body = binary.LittleEndian.AppendUint64(body, seq)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(data)))
	body = append(body, data...)
	file := make([]byte, 0, 4+len(body))
	file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(body, crcTable))
	file = append(file, body...)
	if err := writeFileAtomic(l.fsys, l.snapPath(seq), file); err != nil {
		return l.poisonLocked(err)
	}
	prev := l.snap
	l.snap = &Snapshot{Seq: seq, Data: data}
	l.snaps.Add(1)
	l.snapSeq.Store(seq)
	l.snapTime.Store(time.Now().UnixNano())
	l.log.Info("wal snapshot", "seq", seq, "bytes", len(data))
	l.hint = readHint{} // segment set is about to change
	if seq > l.lastSeq {
		l.lastSeq = seq
	}
	if prev != nil && prev.Seq != seq {
		_ = l.fsys.Remove(l.snapPath(prev.Seq))
	}
	// Truncation: a non-active segment whose entries are all covered by
	// the snapshot will never be replayed or served again.
	for len(l.segs) > 1 && l.segs[0].last <= seq {
		if err := l.removeFirstLocked(); err != nil {
			return err
		}
	}
	// When the snapshot covers the active segment too — always true for
	// the cadence snapshot at the current cursor, and for a state
	// transfer that jumped past the local tail — reset to a fresh empty
	// segment based above it. Without this, appends after a jump would
	// land in a segment holding entries far below them, and catch-up
	// serving (which treats a segment as seq-contiguous) would silently
	// skip the interior gap.
	if last := &l.segs[len(l.segs)-1]; last.last <= seq {
		if err := l.f.Close(); err != nil {
			return l.poisonLocked(fmt.Errorf("wal: %w", err))
		}
		for len(l.segs) > 0 {
			if err := l.removeFirstLocked(); err != nil {
				return err
			}
		}
		if err := l.createSegment(seq + 1); err != nil {
			return l.poisonLocked(err)
		}
	}
	return nil
}

// removeFirstLocked deletes the oldest segment, which a snapshot has made
// redundant.
func (l *Log) removeFirstLocked() error {
	s := l.segs[0]
	if err := l.fsys.Remove(s.path); err != nil && !os.IsNotExist(err) {
		return l.poisonLocked(fmt.Errorf("wal: truncate: %w", err))
	}
	l.segs = l.segs[1:]
	l.segments.Store(int64(len(l.segs)))
	l.bytes.Add(-s.size)
	return nil
}

func (l *Log) snapPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("snap-%016x.snap", seq))
}

// Stats snapshots the durability counters. Bytes counts the active
// segment's buffered-but-unflushed tail too, so it tracks what Append has
// accepted rather than what has hit the disk. It takes no lock and touches
// no file, so it never waits behind an fsync; the fields are each current
// but not one coherent instant.
func (l *Log) Stats() Stats {
	st := Stats{
		Segments:    int(l.segments.Load()),
		Bytes:       l.bytes.Load(),
		Appends:     l.appends.Load(),
		Fsyncs:      l.fsyncs.Load(),
		Rotations:   l.rotates.Load(),
		Snapshots:   l.snaps.Load(),
		SnapshotSeq: l.snapSeq.Load(),
		Repairs:     l.repairs.Load(),
		Poisoned:    l.poisoned() != nil,
	}
	if t := l.snapTime.Load(); t != 0 {
		st.SnapshotAge = time.Since(time.Unix(0, t))
	}
	return st
}

// Writable probes whether the durable directory still accepts writes —
// the readiness check for a disk yanked out from under a running node. It
// creates and removes a marker file rather than testing permission bits,
// so remounted-read-only and ENOSPC failures are caught too. A poisoned
// log reports its sticky error without touching the disk: whatever the
// probe would say now, the log already refused to trust this disk. Like
// Stats it takes no lock.
func (l *Log) Writable() error {
	if err := l.poisoned(); err != nil {
		return err
	}
	f, err := l.fsys.CreateTemp(l.dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("wal: not writable: %w", err)
	}
	name := f.Name()
	_ = f.Close()
	if err := l.fsys.Remove(name); err != nil {
		return fmt.Errorf("wal: not writable: %w", err)
	}
	return nil
}

// Replay streams every retained entry with Seq > after, in order — the
// restart path that rebuilds the state machine behind the latest snapshot.
func (l *Log) Replay(after uint64, fn func(Entry) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.poisoned(); err != nil {
		return err
	}
	if l.w != nil {
		if err := l.w.Flush(); err != nil {
			return l.poisonLocked(fmt.Errorf("wal: flush: %w", err))
		}
	}
	for i := range l.segs {
		s := &l.segs[i]
		if s.first == 0 || s.last <= after {
			continue
		}
		f, err := l.fsys.Open(s.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		_, err = scanRecords(f, func(e Entry) error {
			if e.Seq <= after {
				return nil
			}
			return fn(e)
		})
		_ = f.Close()
		if err != nil && !errors.Is(err, errTorn) {
			return err
		}
	}
	return nil
}

// ReadFrom returns retained entries with after < Seq <= upTo, bounded by
// maxEntries and maxBytes of payload — one page of a catch-up transfer.
// more reports whether entries in range remain beyond the page.
func (l *Log) ReadFrom(after, upTo uint64, maxEntries, maxBytes int) (entries []Entry, more bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.poisoned(); err != nil {
		// A poisoned member must not serve catch-up: its buffered tail
		// never flushed, and flushing it now could write a partial record
		// into the interior. Peers rotate to another server.
		return nil, false, err
	}
	if l.w != nil {
		if err := l.w.Flush(); err != nil {
			return nil, false, l.poisonLocked(fmt.Errorf("wal: flush: %w", err))
		}
	}
	bytes := 0
	for i := range l.segs {
		s := &l.segs[i]
		if s.first == 0 || s.last <= after || s.first > upTo {
			continue
		}
		start := int64(0)
		if l.hint.path == s.path && l.hint.after == after {
			start = l.hint.off
		}
		f, err := l.fsys.Open(s.path)
		if err != nil {
			return nil, false, fmt.Errorf("wal: %w", err)
		}
		valid, serr := scanRecordsAt(f, start, func(e Entry) error {
			if e.Seq <= after || e.Seq > upTo {
				return nil
			}
			if len(entries) >= maxEntries || bytes >= maxBytes {
				more = true
				return errPageFull
			}
			entries = append(entries, e)
			bytes += len(e.Payload)
			return nil
		})
		_ = f.Close()
		if serr != nil && !errors.Is(serr, errTorn) && !errors.Is(serr, errPageFull) {
			return nil, false, serr
		}
		if more {
			if len(entries) > 0 {
				l.hint = readHint{path: s.path, after: entries[len(entries)-1].Seq, off: start + valid}
			}
			return entries, true, nil
		}
	}
	return entries, false, nil
}

// errPageFull stops a ReadFrom scan once the page limits are hit.
var errPageFull = errors.New("wal: page full")

// Close flushes, fsyncs and releases the active segment. A poisoned log
// releases the file handle without flushing (the buffer may hold a partial
// record) and returns the sticky error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.poisoned()
	if l.f == nil {
		return err
	}
	if err == nil {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	l.w = nil
	return err
}

// maxRecordScratch bounds the record buffer Append keeps between calls.
const maxRecordScratch = 4 << 20

// appendRecord frames one entry onto buf.
func appendRecord(buf []byte, e Entry) []byte {
	bodyLen := entryFixedSize + len(e.Payload)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodyLen))
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // crc placeholder
	bodyAt := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, e.Origin)
	buf = binary.LittleEndian.AppendUint64(buf, e.LogicalID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Payload)))
	buf = append(buf, e.Payload...)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc32.Checksum(buf[bodyAt:], crcTable))
	return buf
}

// scanRecords streams every intact record of one segment to fn. It returns
// the byte offset of the end of the last intact record; a short or
// corrupt tail is reported as errTorn (the caller decides whether that is
// legal), any error from fn is passed through.
func scanRecords(f File, fn func(Entry) error) (int64, error) {
	return scanRecordsAt(f, 0, fn)
}

// scanRecordsAt is scanRecords starting at byte offset off; the returned
// offset is relative to off.
func scanRecordsAt(f File, off int64, fn func(Entry) error) (int64, error) {
	if off > 0 {
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return 0, fmt.Errorf("wal: %w", err)
		}
	}
	r := bufio.NewReader(f)
	var valid int64
	hdr := make([]byte, recordHeader)
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			if errors.Is(err, io.EOF) {
				return valid, nil
			}
			return valid, errTorn // io.ErrUnexpectedEOF: partial header
		}
		length := binary.LittleEndian.Uint32(hdr)
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if length < entryFixedSize || length > maxRecordBytes {
			return valid, errTorn
		}
		if cap(body) < int(length) {
			body = make([]byte, length)
		}
		body = body[:length]
		if _, err := io.ReadFull(r, body); err != nil {
			return valid, errTorn
		}
		if crc32.Checksum(body, crcTable) != crc {
			return valid, errTorn
		}
		var e Entry
		e.Seq = binary.LittleEndian.Uint64(body)
		e.Origin = binary.LittleEndian.Uint32(body[8:])
		e.LogicalID = binary.LittleEndian.Uint64(body[12:])
		plen := binary.LittleEndian.Uint32(body[20:])
		if int(plen) != len(body)-entryFixedSize {
			return valid, errTorn
		}
		e.Payload = slices.Clone(body[entryFixedSize:])
		if err := fn(e); err != nil {
			return valid, err
		}
		valid += recordHeader + int64(length)
	}
}

// readSnapshotFile loads and validates one snapshot file.
func readSnapshotFile(fsys FS, path string) (Snapshot, error) {
	b, err := fsys.ReadFile(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("wal: %w", err)
	}
	if len(b) < 16 {
		return Snapshot{}, fmt.Errorf("%w: short snapshot %s", ErrCorrupt, path)
	}
	crc := binary.LittleEndian.Uint32(b)
	body := b[4:]
	if crc32.Checksum(body, crcTable) != crc {
		return Snapshot{}, fmt.Errorf("%w: snapshot crc %s", ErrCorrupt, path)
	}
	seq := binary.LittleEndian.Uint64(body)
	n := binary.LittleEndian.Uint32(body[8:])
	if int(n) != len(body)-12 {
		return Snapshot{}, fmt.Errorf("%w: snapshot length %s", ErrCorrupt, path)
	}
	return Snapshot{Seq: seq, Data: body[12:]}, nil
}

// writeFileAtomic writes data via a temp file, fsync and rename, then
// fsyncs the directory so the rename survives a crash.
func writeFileAtomic(fsys FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer fsys.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_ = fsys.SyncDir(dir)
	return nil
}
