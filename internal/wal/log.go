// Package wal implements the durability substrate of an FSR node: a
// segmented, CRC-framed, append-only write-ahead log of the uniformly
// delivered total order, plus state-machine snapshots that bound replay and
// let old segments be truncated.
//
// Layout of a durable directory:
//
//	gen                incarnation counter, bumped by every Open
//	wal-<seq>.seg      log segments; the hex name is the segment's base,
//	                   the sequence number its first entry holds or will
//	                   hold, and no entry in it is below the base
//	free-<seq>.seg     segment files a snapshot freed, pooled for reuse;
//	                   the hex name is at or above the seq of every record
//	                   the file still holds
//	snap-<seq>.snap    state-machine snapshots; the hex name is the last
//	                   sequence number folded into the snapshot
//
// Record framing follows the hand-rolled little-endian style of the wire
// codec: each entry is [length u32][crc32c u32][body] with body = seq u64,
// origin u32, logicalID u64, payload length u32, payload. Append frames
// each record straight onto one batch buffer the log owns, and Sync hands
// the whole batch to the kernel in a single write before it fsyncs: a
// delivery batch costs one write and one fsync (plus one of each per
// Options.SyncEvery records, and a write whenever the buffer would pass
// batchCap). A torn tail — the partial record a crash can leave mid-write
// — is detected by the length/CRC check on Open and truncated away;
// everything before it is intact because records are written
// sequentially.
//
// # Segment chain
//
// Record validation sees one segment at a time, and sequence numbers are
// legally sparse, so a sealed segment that lost a record-aligned tail (an
// fsync that lied, then a rotate, then a power cut) looks clean on its own
// while the honestly synced segment after it survives. Every segment
// therefore opens with a chain record — an ordinary record with seq 0, which
// no entry uses, whose logicalID is the highest sequence number recorded
// (entry or snapshot) when the segment was created and whose 8-byte payload
// is the segment's base. Open walks the chain:
// a segment whose chain record names a seq above everything recovered
// before it follows a hole, and Open refuses the directory with ErrCorrupt —
// the verdict an interior torn record gets — so the owner rejoins through
// state transfer instead of replaying over the gap. A segment following
// WriteSnapshot's truncation chains to the snapshot's seq. A segment
// without a chain record (written before the chain existed) is accepted as
// it was.
//
// # Recycled segments
//
// WriteSnapshot renames the segment files it frees out of the wal-*.seg
// namespace into the pool instead of deleting them, keeping as many as that
// truncation freed; a new segment takes a pooled file, renamed into place
// and overwritten from offset 0, before it creates one. In steady state an
// append then neither grows a file nor allocates a block, and its fsync
// commits no size change. The directory holds at most the live segments
// plus the pool, which is never more files than it held before the last
// truncation. A fresh directory has no pool and creates its files.
//
// A recycled file still holds its earlier lives' records past the bytes
// written in this one, and none of them may validate as an entry. The
// validity rule: every live entry's seq is at or above its segment's base;
// a file is pooled under a bound at or above every seq it holds, and only
// reused for a base above that bound; so every stale record's seq is below
// the base. Recovery therefore ends a segment's live bytes at an entry below
// the base, at a chain record that is not the segment's first record (seq 0
// marks a record that is not an entry; a later record kind must carry a seq
// to be held to the base), or at a first chain record that names another
// base (an earlier life's head, when this life reached the disk with
// nothing), and truncates what follows, as it does a torn tail. Open keeps
// the first half of the rule true: a newest segment that recovered no entry
// may be based above what the crash left of the log, so Open removes it and
// starts the active segment at the recovered tail. Replay and ReadFrom read
// only a segment's live bytes.
//
// Only a based segment, one whose chain record names its base, is held to
// the rule and pooled. A build that predates the pool wrote chain records
// that name no base, and after a crash that emptied its newest segment it
// appended entries below that segment's base; such a segment is read as
// that build read it, and truncation removes its file.
// Sealing a recycled segment, at rotation or Close, cuts it to its live
// bytes before its fsync, so no sealed segment carries stale bytes that
// would read as an interior tear.
//
// Renaming a pooled file into place, like creating a file, relies on the
// segment's first fsync committing its directory entry, as a journaling
// filesystem such as ext4 does; walfault does not model a lost directory
// entry. A cleanly closed directory reads the same under a build
// that predates the pool: it ignores free-*.seg, and every wal-*.seg ends
// at its live bytes. After a crash it must not be opened by such a build,
// whose recovery would take a recycled file's stale records for entries.
//
// # Failure model
//
// A failed write, flush or fsync permanently poisons the log: every later
// Append/Sync/WriteSnapshot/Replay/ReadFrom returns the same sticky error
// (ErrPoisoned) and the owner is expected to fail-stop. Two disk realities
// force this. First, fsyncgate: after a failed fsync the kernel may drop
// the dirty pages yet let a *retried* fsync succeed, so a log that shrugs
// off one fsync error can later claim durability for records that never
// hit the platter. Second, a short write of the batch leaves a partial
// record on disk; any further write would land after that garbage, in the
// segment's interior, turning a recoverable torn tail into ErrCorrupt on
// the next open. Freezing the log at the first failure keeps everything
// below the failure point recoverable: the next incarnation's Open truncates
// the torn tail and replays the intact prefix.
//
// The log is safe for concurrent use: the delivery goroutine appends while
// the protocol loop serves catch-up reads to restarted peers.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"path/filepath"
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
	Recycled    uint64        // pooled segment files reused this incarnation
	Snapshots   uint64        // snapshots written this incarnation
	SnapshotSeq uint64        // seq covered by the latest snapshot (0 if none)
	SnapshotAge time.Duration // since the latest snapshot written this incarnation (0 if none)
	Repairs     uint64        // torn tails truncated at Open
	Poisoned    bool          // a write/flush/fsync failed; the log is frozen
}

const (
	defaultSegmentBytes = 4 << 20
	defaultSyncEvery    = 256

	// batchCap bounds the batch buffer: Append writes it out before a
	// record would take it past this. It grows to it on demand, never
	// eagerly, because every Open would otherwise pay for it.
	batchCap = 1 << 20
)

// ErrCorrupt reports a log whose interior (not its tail) fails validation.
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrPoisoned is the sticky error a failed write, flush or fsync leaves
// behind: the log refuses all further mutation and serving, so the owner
// fail-stops instead of acking records whose durability the disk already
// betrayed (see the package comment's failure model).
var ErrPoisoned = errors.New("wal: poisoned by storage failure")

// Log is one process's write-ahead log plus snapshot store.
type Log struct {
	mu   sync.Mutex
	dir  string
	opts Options
	fsys FS
	gen  uint64

	segs     []segment // ascending by first seq; the final one is active
	pool     []pooled  // ascending by bound: the files truncation freed
	f        File      // active segment
	buf      []byte    // framed records not yet written to f; see flushLocked
	unsynced int
	lastSeq  uint64 // highest entry or snapshot seq ever recorded

	snap *Snapshot // latest snapshot, kept in memory for serving
	hint readHint  // resume point for paged catch-up reads

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
	recycled atomic.Uint64
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
	segs, pool, snaps, err := scanDir(l.fsys, dir)
	if err != nil {
		return nil, err
	}
	l.pool = pool
	if err := l.loadSnapshot(snaps); err != nil {
		return nil, err
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

// Stats snapshots the durability counters. Bytes counts the active
// segment's batched-but-unwritten tail too, so it tracks what Append has
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
		Recycled:    l.recycled.Load(),
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
	if err == nil {
		_ = f.Close()
		err = l.fsys.Remove(f.Name())
	}
	if err != nil {
		return fmt.Errorf("wal: not writable: %w", err)
	}
	return nil
}

// writeRecordLocked frames e onto the batch buffer, first writing out what
// the buffer holds if e would take it past batchCap.
func (l *Log) writeRecordLocked(e Entry) error {
	n := recordHeader + entryFixedSize + len(e.Payload)
	if len(l.buf) > 0 && len(l.buf)+n > batchCap {
		if err := l.flushLocked(); err != nil {
			return err
		}
	}
	l.buf = appendRecord(l.buf, e)
	l.segs[len(l.segs)-1].size += int64(n)
	l.bytes.Add(int64(n))
	return nil
}

// flushLocked hands the batch buffer to the active segment in one write (a
// non-empty buffer implies an open segment: Close drops both). A failed or
// short write may leave a partial record on disk; poisoning here means
// nothing is ever written after it, so it stays a torn TAIL, which the next
// incarnation's Open truncates — never interior corruption.
// The buffer is kept for the next batch unless one oversize record grew it
// past twice batchCap.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	n, err := l.f.Write(l.buf)
	if err == nil && n < len(l.buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return l.poisonLocked(fmt.Errorf("wal: write: %w", err))
	}
	l.buf = l.buf[:0]
	if cap(l.buf) > 2*batchCap {
		l.buf = nil
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

// Sync writes the batch in one write and fsyncs the active segment — the
// durability point the delivery pump hits before dispatching a batch.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// syncLocked is the durability point — and the fsyncgate guard. A failed
// write or fsync must not be retried: the kernel may already have dropped
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
	if err := l.flushLocked(); err != nil {
		return err
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
// retired to the pool — so at every intermediate crash point the directory
// holds either the old snapshot with all its segments or the new snapshot
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
	file := make([]byte, 16, 16+len(data)) // crc, then the body: seq, length, data
	binary.LittleEndian.PutUint64(file[4:], seq)
	binary.LittleEndian.PutUint32(file[12:], uint32(len(data)))
	file = append(file, data...)
	binary.LittleEndian.PutUint32(file, crc32.Checksum(file[4:], crcTable))
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
	freed := 0
	for len(l.segs) > 1 && l.segs[0].last <= seq {
		if err := l.retireFirstLocked(); err != nil {
			return err
		}
		freed++
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
		if err := l.retireFirstLocked(); err != nil {
			return err
		}
		freed++
	}
	if freed > 0 {
		if err := l.trimPoolLocked(freed); err != nil {
			return err
		}
	}
	if len(l.segs) == 0 {
		if err := l.createSegment(seq + 1); err != nil {
			return l.poisonLocked(err)
		}
	}
	return nil
}

func (l *Log) snapPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("snap-%016x.snap", seq))
}

// Replay streams every retained entry with Seq > after, in order — the
// restart path that rebuilds the state machine behind the latest snapshot.
func (l *Log) Replay(after uint64, fn func(Entry) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.poisoned(); err != nil {
		return err
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	for i := range l.segs {
		s := &l.segs[i]
		if s.first == 0 || s.last <= after {
			continue
		}
		if _, err := l.readSegment(s, 0, func(e Entry) error {
			if e.Seq <= after {
				return nil
			}
			return fn(e)
		}); err != nil {
			return err
		}
	}
	return nil
}

// readSegment scans a segment's live bytes for Replay and ReadFrom. Open
// already truncated every torn tail and the caller flushed the buffer, so a
// record that fails validation now came back from the disk corrupted (a bit
// flip on the read path): skipping the rest of the segment, as a torn tail
// is skipped on Open, would hand the caller the order with a hole in it. It
// is ErrCorrupt instead — the owner refuses the log (restart) or the page
// (serving).
func (l *Log) readSegment(s *segment, off int64, fn func(Entry) error) (int64, error) {
	f, err := l.fsys.Open(s.path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	valid, err := scanRecords(f, off, s.size, fn)
	if errors.Is(err, errTorn) {
		err = fmt.Errorf("%w: record in %s failed validation on read", ErrCorrupt, s.path)
	}
	return valid, err
}

// ReadFrom returns retained entries with after < Seq <= upTo, bounded by
// maxEntries and maxBytes of payload — one page of a catch-up transfer.
// more reports whether entries in range remain beyond the page.
func (l *Log) ReadFrom(after, upTo uint64, maxEntries, maxBytes int) (entries []Entry, more bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.poisoned(); err != nil {
		// A poisoned member must not serve catch-up: its batch never
		// reached the disk whole, and writing now could put bytes after a
		// partial record. Peers rotate to another server.
		return nil, false, err
	}
	if err := l.flushLocked(); err != nil {
		return nil, false, err
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
		valid, err := l.readSegment(s, start, func(e Entry) error {
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
		if err != nil && !errors.Is(err, errPageFull) {
			return nil, false, err
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

// Close writes the batch, seals and releases the active segment. A
// poisoned log releases the file handle without writing (a partial record
// may already be on disk) and returns the sticky error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.poisoned()
	if l.f == nil {
		return err
	}
	if err == nil {
		err = l.sealLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	l.buf = nil
	return err
}

// loadSnapshot loads the newest intact snapshot and removes broken ones.
func (l *Log) loadSnapshot(seqs []uint64) error {
	for i := len(seqs) - 1; i >= 0; i-- {
		path := l.snapPath(seqs[i])
		snap, err := readSnapshotFile(l.fsys, path)
		if err != nil {
			// A snapshot a partial disk write broke: fall back to the
			// previous one.
			_ = l.fsys.Remove(path)
			continue
		}
		l.snap, l.lastSeq = &snap, snap.Seq
		l.snapSeq.Store(snap.Seq)
		return nil
	}
	return nil
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
	body := b[4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(b) {
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
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_ = fsys.SyncDir(dir)
	return nil
}
