// Package walfault is a fault-injecting wal.FS: the storage-side twin of
// transport/chaos. It wraps a real (or in-memory) filesystem and, driven by
// a deterministic schedule hashed from (seed, operation kind, op index),
// injects the disk failures the WAL's failure model must survive:
//
//   - short/torn writes — a write persists a prefix and then fails
//     (ENOSPC or EIO), leaving a partial record on disk;
//   - fsync errors, and *lying* fsyncs — the fsync reports success but the
//     unflushed bytes are silently dropped at the next Crash, modelling
//     fsyncgate-class kernels that clear the error state after one report;
//   - ENOSPC on file creation (mid-rotate, mid-snapshot) and on rename;
//   - single-bit corruption on read, modelling latent sector rot.
//
// The schedule is a pure function of the seed: every fault a scenario
// injects is replayable from the one FSR_SEED that generated it. (As with
// the transport's schedule, *which operation* gets index i depends on the
// node's own goroutine interleaving, so replays are statistically — not
// bit-for-bit — identical.)
//
// Crash semantics: the layer tracks a durable watermark per tracked file
// (advanced by honest fsyncs, frozen once a file's fsync has lied) and
// Crash() truncates every tracked file back to its watermark — the
// power-cut that reveals which acks the disk actually honored. Writes land
// at the handle's offset, so a recycled file is overwritten in place: the
// first overwrite of durable bytes since the last honest fsync saves the
// file's durable image, and Crash() writes it back. A range an fsync lied
// about therefore reads back as the file's earlier life, the worst case a
// reused file can show. Directory entries (creates, renames, removes) are
// durable at once: the layer does not model a lost one.
//
// Scope restrictions keep the injected faults realistic rather than
// adversarial beyond the model: lying fsyncs and read bit-flips target only
// log segments (*.seg) and snapshots (*.snap); the one-line gen file is
// exempt so incarnations stay monotone, as a real store would guarantee
// with its own O_SYNC metadata write.
package walfault

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"fsr/internal/wal"
	"fsr/transport/chaos"
)

// Options configure the fault schedule. "Every" fields are mean periods:
// roughly one in every N operations of that kind faults, chosen by hashing
// (Seed, kind, op index) — 0 disables that fault. "At" fields are precise
// one-shots for unit tests: the fault fires on exactly that 0-based op
// index of its kind (-1, the zero value via NoOneShots, disables them; a
// plain zero Options therefore fires every "At" fault on op 0, so tests
// constructing Options piecemeal should start from NoOneShots()).
type Options struct {
	Seed int64

	TornEvery     int // short write then error, on segment appends
	FsyncErrEvery int // honest fsync error (reported, bytes kept)
	LieEvery      int // lying fsync: reports nil, watermark frozen
	ENOSPCEvery   int // create/rename failures (rotate & snapshot paths)
	FlipEvery     int // one-bit corruption on .seg/.snap reads

	FailWriteAt int // one-shot torn write on the Nth tracked write
	// FailWriteKeep is how many bytes of its write the one-shot torn write
	// lands (at most all of them; -1 draws a strict prefix from the seed).
	FailWriteKeep int
	FailFsyncAt   int // one-shot honest fsync error on the Nth fsync
	LieFsyncAt    int // one-shot lying fsync on the Nth fsync
	FailCreateAt  int // one-shot ENOSPC on the Nth create (OpenFile|CreateTemp)
	FailRenameAt  int // one-shot ENOSPC on the Nth rename
	FailRemoveAt  int // one-shot EIO on the Nth remove
	FlipReadAt    int // one-shot bit-flip on the Nth read op
}

// NoOneShots returns Options with every one-shot index disabled; callers
// then enable the faults they want.
func NoOneShots() Options {
	return Options{
		FailWriteAt:   -1,
		FailWriteKeep: -1,
		FailFsyncAt:   -1,
		LieFsyncAt:    -1,
		FailCreateAt:  -1,
		FailRenameAt:  -1,
		FailRemoveAt:  -1,
		FlipReadAt:    -1,
	}
}

// Op-kind salts for the schedule hash, so each fault family draws an
// independent stream from the same seed.
const (
	saltWrite  = 0x7052_11ad
	saltFsync  = 0xf5a6_c6a7
	saltLie    = 0x11e5_11e5
	saltCreate = 0xe205_bc01
	saltRename = 0x2e6a_3ed1
	saltRemove = 0x2e30_4ed1
	saltFlip   = 0xb17f_11b5
)

// fileState tracks what the fake platter holds for one file.
type fileState struct {
	size    int64  // bytes the file-layer has accepted
	durable int64  // bytes an honest fsync has committed
	lying   bool   // fsync has lied once; watermark frozen forever
	orig    []byte // durable bytes, saved at the first overwrite since an honest fsync
}

// FS is the injecting filesystem. One instance models one disk: share it
// across the incarnations of a single node, never across nodes.
type FS struct {
	inner wal.FS
	opts  Options

	mu      sync.Mutex
	files   map[string]*fileState // tracked (fault-eligible) files, by path
	writes  uint64                // op counters, one per fault family
	fsyncs  uint64
	creates uint64
	renames uint64
	removes uint64
	reads   uint64

	injected map[string]uint64 // fault tally by kind, for logs/tests
	disarmed bool              // faults suspended; tracking stays live
}

// New wraps inner (nil selects the real filesystem) with the fault layer.
func New(inner wal.FS, opts Options) *FS {
	if inner == nil {
		inner = wal.OS
	}
	return &FS{inner: inner, opts: opts, files: map[string]*fileState{}, injected: map[string]uint64{}}
}

// Disarm suspends fault injection: every operation passes straight
// through (op counters still advance, and segment size/durability
// tracking stays live, so a later Crash() remains accurate). Arm
// re-enables the schedule. The chaos harness boots members disarmed —
// the cluster must come up before the weather starts — and disarms again
// for the final recovery, so the checker judges what the faults left on
// the platter rather than fighting fresh ones.
func (f *FS) Disarm() {
	f.mu.Lock()
	f.disarmed = true
	f.mu.Unlock()
}

// Arm (re-)enables the fault schedule. A new FS starts armed.
func (f *FS) Arm() {
	f.mu.Lock()
	f.disarmed = false
	f.mu.Unlock()
}

// roll decides whether op index n of the family (salt, every, at) faults.
// Callers hold f.mu (which the disarmed check relies on).
func (f *FS) roll(salt uint64, n uint64, every int, at int) bool {
	if f.disarmed {
		return false
	}
	if at >= 0 && n == uint64(at) {
		return true
	}
	if every <= 0 {
		return false
	}
	return chaos.Mix(uint64(f.opts.Seed)^chaos.Mix(salt)^chaos.Mix(n))%uint64(every) == 0
}

// hash gives deterministic per-op entropy beyond the yes/no roll (torn
// lengths, bit positions, errno choice).
func (f *FS) hash(salt uint64, n uint64) uint64 {
	return chaos.Mix(uint64(f.opts.Seed) ^ chaos.Mix(salt^0x5ca1ab1e) ^ chaos.Mix(n))
}

func (f *FS) note(kind string) {
	f.injected[kind]++
}

// Injected reports how many faults of each kind have fired.
func (f *FS) Injected() map[string]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]uint64, len(f.injected))
	for k, v := range f.injected {
		out[k] = v
	}
	return out
}

// segFile reports whether path is a log segment (the torn-write /
// lying-fsync target set).
func segFile(path string) bool { return strings.HasSuffix(path, ".seg") }

// flipTarget reports whether path's reads may be bit-flipped.
func flipTarget(path string) bool {
	return strings.HasSuffix(path, ".seg") || strings.HasSuffix(path, ".snap")
}

// Crash simulates a power cut: every tracked file is truncated back to its
// durable watermark, dropping bytes that were written — and possibly
// "fsynced" by a lying fsync — but never honestly committed. Lying state
// resets: the next incarnation's disk starts honest. Call between Stop and
// Restart of the node that owns this disk.
func (f *FS) Crash() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var firstErr error
	for path, st := range f.files {
		if st.orig != nil {
			if err := f.restore(path, st.orig); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			st.orig = nil
		}
		if st.durable < st.size {
			if err := f.inner.Truncate(path, st.durable); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			st.size = st.durable
		}
		st.lying = false
	}
	return firstErr
}

// restore writes a file's saved durable image back over its head.
func (f *FS) restore(path string, orig []byte) error {
	w, err := f.inner.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = w.Write(orig)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// saveLocked keeps a file's durable image before the first write since the
// last honest fsync that lands inside it. Callers hold f.mu.
func (f *FS) saveLocked(path string, st *fileState) error {
	r, err := f.inner.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	orig := make([]byte, st.durable)
	if _, err := io.ReadFull(r, orig); err != nil {
		return err
	}
	st.orig = orig
	return nil
}

// --- wal.FS ---

func (f *FS) MkdirAll(path string, perm fs.FileMode) error { return f.inner.MkdirAll(path, perm) }
func (f *FS) ReadDir(dir string) ([]string, error)         { return f.inner.ReadDir(dir) }

func (f *FS) ReadFile(path string) ([]byte, error) {
	b, err := f.inner.ReadFile(path)
	if err != nil || !flipTarget(path) {
		return b, err
	}
	f.mu.Lock()
	n := f.reads
	f.reads++
	flip := len(b) > 0 && f.roll(saltFlip, n, f.opts.FlipEvery, f.opts.FlipReadAt)
	if flip {
		f.note("flip")
	}
	f.mu.Unlock()
	if flip {
		bit := f.hash(saltFlip, n) % uint64(len(b)*8)
		b[bit/8] ^= 1 << (bit % 8)
	}
	return b, err
}

func (f *FS) Open(path string) (wal.File, error) {
	inner, err := f.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner, path: path, readOnly: true}, nil
}

func (f *FS) OpenFile(path string, flag int, perm fs.FileMode) (wal.File, error) {
	if flag&os.O_CREATE != 0 {
		f.mu.Lock()
		n := f.creates
		f.creates++
		fail := f.roll(saltCreate, n, f.opts.ENOSPCEvery, f.opts.FailCreateAt)
		if fail {
			f.note("enospc-create")
		}
		f.mu.Unlock()
		if fail {
			return nil, &fs.PathError{Op: "open", Path: path, Err: syscall.ENOSPC}
		}
	}
	inner, err := f.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	fl := &file{fs: f, inner: inner, path: path, appending: flag&os.O_APPEND != 0}
	if segFile(path) {
		size, serr := inner.Size()
		if serr != nil {
			_ = inner.Close()
			return nil, serr
		}
		f.track(path, size)
	}
	return fl, nil
}

// track registers a fault-eligible file; existing bytes are assumed
// durable (they survived at least one earlier honest lifecycle).
func (f *FS) track(path string, size int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[path]; !ok {
		f.files[path] = &fileState{size: size, durable: size}
	}
}

func (f *FS) CreateTemp(dir, pattern string) (wal.File, error) {
	f.mu.Lock()
	n := f.creates
	f.creates++
	fail := f.roll(saltCreate, n, f.opts.ENOSPCEvery, f.opts.FailCreateAt)
	if fail {
		f.note("enospc-create")
	}
	f.mu.Unlock()
	if fail {
		return nil, &fs.PathError{Op: "createtemp", Path: filepath.Join(dir, pattern), Err: syscall.ENOSPC}
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner, path: inner.Name()}, nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	n := f.renames
	f.renames++
	fail := f.roll(saltRename, n, f.opts.ENOSPCEvery, f.opts.FailRenameAt)
	if fail {
		f.note("enospc-rename")
	}
	f.mu.Unlock()
	if fail {
		return &fs.PathError{Op: "rename", Path: newpath, Err: syscall.ENOSPC}
	}
	if err := f.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	if st, ok := f.files[oldpath]; ok {
		delete(f.files, oldpath)
		f.files[newpath] = st
	}
	f.mu.Unlock()
	return nil
}

func (f *FS) Remove(path string) error {
	f.mu.Lock()
	n := f.removes
	f.removes++
	fail := f.roll(saltRemove, n, 0, f.opts.FailRemoveAt)
	if fail {
		f.note("eio-remove")
	}
	f.mu.Unlock()
	if fail {
		return &fs.PathError{Op: "remove", Path: path, Err: syscall.EIO}
	}
	if err := f.inner.Remove(path); err != nil {
		return err
	}
	f.mu.Lock()
	delete(f.files, path)
	f.mu.Unlock()
	return nil
}

func (f *FS) Truncate(path string, size int64) error {
	if err := f.inner.Truncate(path, size); err != nil {
		return err
	}
	f.mu.Lock()
	if st, ok := f.files[path]; ok {
		if st.size > size {
			st.size = size
		}
		if st.durable > size {
			st.durable = size
		}
		if int64(len(st.orig)) > size {
			st.orig = st.orig[:size]
		}
	}
	f.mu.Unlock()
	return nil
}

func (f *FS) SyncDir(dir string) error { return f.inner.SyncDir(dir) }

// file wraps one open file with the per-op fault rolls.
type file struct {
	fs        *FS
	inner     wal.File
	path      string
	readOnly  bool
	appending bool  // O_APPEND: every write lands at the end
	off       int64 // where the next write lands otherwise (the log seeks only to read)
}

func (fl *file) Name() string         { return fl.inner.Name() }
func (fl *file) Size() (int64, error) { return fl.inner.Size() }
func (fl *file) Close() error         { return fl.inner.Close() }
func (fl *file) Seek(off int64, whence int) (int64, error) {
	return fl.inner.Seek(off, whence)
}

func (fl *file) Read(p []byte) (int, error) {
	n, err := fl.inner.Read(p)
	if n == 0 || !flipTarget(fl.path) {
		return n, err
	}
	f := fl.fs
	f.mu.Lock()
	i := f.reads
	f.reads++
	flip := f.roll(saltFlip, i, f.opts.FlipEvery, f.opts.FlipReadAt)
	if flip {
		f.note("flip")
	}
	f.mu.Unlock()
	if flip {
		bit := f.hash(saltFlip, i) % uint64(n*8)
		p[bit/8] ^= 1 << (bit % 8)
	}
	return n, err
}

// Write injects torn writes on tracked segment files: a deterministic
// prefix of p reaches the platter, then the write reports failure — the
// shape a full disk or an I/O error leaves behind a buffered flush.
func (fl *file) Write(p []byte) (int, error) {
	f := fl.fs
	if !segFile(fl.path) {
		return fl.inner.Write(p)
	}
	f.mu.Lock()
	i := f.writes
	f.writes++
	fail := f.roll(saltWrite, i, f.opts.TornEvery, f.opts.FailWriteAt)
	if fail {
		f.note("torn-write")
	}
	f.mu.Unlock()
	if !fail {
		return fl.write(p)
	}
	h := f.hash(saltWrite, i)
	keep := 0
	if i == uint64(f.opts.FailWriteAt) && f.opts.FailWriteKeep >= 0 {
		keep = min(f.opts.FailWriteKeep, len(p))
	} else if len(p) > 1 {
		keep = int(h % uint64(len(p))) // strict prefix: at least one byte lost
	}
	n, _ := fl.write(p[:keep])
	errno := syscall.ENOSPC
	if h&(1<<40) != 0 {
		errno = syscall.EIO
	}
	return n, &fs.PathError{Op: "write", Path: fl.path, Err: errno}
}

// write lands p on a tracked file at the handle's offset, saving the
// durable image first if p overwrites any of it.
func (fl *file) write(p []byte) (int, error) {
	f := fl.fs
	f.mu.Lock()
	st := f.files[fl.path]
	if st != nil {
		if fl.appending {
			fl.off = st.size
		}
		if st.orig == nil && fl.off < st.durable && len(p) > 0 {
			if err := f.saveLocked(fl.path, st); err != nil {
				f.mu.Unlock()
				return 0, err
			}
		}
	}
	f.mu.Unlock()
	n, err := fl.inner.Write(p)
	f.mu.Lock()
	fl.off += int64(n)
	if st != nil && fl.off > st.size {
		st.size = fl.off
	}
	f.mu.Unlock()
	return n, err
}

// Sync injects the two fsync pathologies on tracked segment files. An
// honest injected error reports failure while keeping bytes (the caller
// must treat them as un-durable — which the poisoned WAL does). A lying
// fsync reports success without advancing the durable watermark, and lies
// forever after on this file: fsyncgate semantics, where the first
// (unreported) failure clears the kernel's dirty state so no later fsync
// on the handle can truly commit the lost range.
func (fl *file) Sync() error {
	f := fl.fs
	if !segFile(fl.path) {
		return fl.inner.Sync()
	}
	f.mu.Lock()
	i := f.fsyncs
	f.fsyncs++
	st := f.files[fl.path]
	lie := (st != nil && st.lying) || f.roll(saltLie, i, f.opts.LieEvery, f.opts.LieFsyncAt)
	fail := !lie && f.roll(saltFsync, i, f.opts.FsyncErrEvery, f.opts.FailFsyncAt)
	if lie && st != nil && !st.lying {
		st.lying = true
		f.note("lying-fsync")
	}
	if fail {
		f.note("fsync-error")
	}
	f.mu.Unlock()
	if lie {
		return nil // watermark frozen; bytes vanish at the next Crash
	}
	if fail {
		return &fs.PathError{Op: "fsync", Path: fl.path, Err: syscall.EIO}
	}
	if err := fl.inner.Sync(); err != nil {
		return err
	}
	f.mu.Lock()
	if st := f.files[fl.path]; st != nil && !st.lying {
		st.durable, st.orig = st.size, nil
	}
	f.mu.Unlock()
	return nil
}

var _ wal.FS = (*FS)(nil)

// String summarizes the configured schedule for scenario logs.
func (o Options) String() string {
	return fmt.Sprintf("walfault{seed:%d torn:%d fsync:%d lie:%d enospc:%d flip:%d}",
		o.Seed, o.TornEvery, o.FsyncErrEvery, o.LieEvery, o.ENOSPCEvery, o.FlipEvery)
}
