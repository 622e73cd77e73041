package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// segment is one on-disk log file.
type segment struct {
	path  string
	base  uint64 // the hex in its name: no live entry's seq is below it
	first uint64 // seq of the first entry (0 while empty)
	last  uint64 // seq of the last entry (0 while empty)
	size  int64  // live bytes, for the active segment including what is buffered
	// based marks a segment whose chain record names its base: the validity
	// rule holds its entries to that base, and truncation may pool its file.
	// A segment an older build wrote is not based.
	based bool
	// recycled marks a file taken from the pool this incarnation and not
	// yet sealed: bytes of an earlier life may follow its live ones.
	recycled bool
}

// pooled is a segment file a snapshot freed, kept for reuse under the name
// free-<bound>.seg: no record in it carries a seq above bound.
type pooled struct {
	path  string
	bound uint64
}

// scanDir classifies the directory contents.
func scanDir(fsys FS, dir string) (segs []segment, pool []pooled, snapSeqs []uint64, err error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			if base, perr := strconv.ParseUint(name[4:len(name)-4], 16, 64); perr == nil {
				segs = append(segs, segment{path: path, base: base})
			}
		case strings.HasPrefix(name, "free-") && strings.HasSuffix(name, ".seg"):
			if bound, perr := strconv.ParseUint(name[5:len(name)-4], 16, 64); perr == nil {
				pool = append(pool, pooled{path: path, bound: bound})
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if seq, perr := strconv.ParseUint(name[5:len(name)-5], 16, 64); perr == nil {
				snapSeqs = append(snapSeqs, seq)
			}
		}
	}
	slices.SortFunc(segs, func(a, b segment) int { return strings.Compare(a.path, b.path) })
	slices.SortFunc(pool, func(a, b pooled) int { return strings.Compare(a.path, b.path) })
	slices.Sort(snapSeqs)
	return segs, pool, snapSeqs, nil
}

// recoverSegment validates one segment — its records, and its place in the
// segment chain against what the segments before it recovered — and records
// its entry bounds. The live bytes end at a torn record, or at a record an
// earlier life of a recycled file left behind: a head chain record naming
// another base, a chain record that is not the first record, or, in a based
// segment, an entry below the base. Either ending is truncated away, except
// that a torn interior segment is corrupt.
func (l *Log) recoverSegment(s *segment, isLast bool) error {
	f, err := l.fsys.Open(s.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	records := 0
	valid, err := scanRecords(f, 0, -1, func(e Entry) error {
		records++
		switch {
		case e.Seq == 0 && records > 1, e.Seq != 0 && s.based && e.Seq < s.base:
			return errStale
		case e.Seq == 0:
			if base, ok := chainBase(e); ok {
				if base != s.base {
					return errStale
				}
				s.based = true
			}
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
	switch {
	case err == nil:
		return nil
	case errors.Is(err, errTorn) && !isLast:
		return fmt.Errorf("%w: torn record inside interior segment %s", ErrCorrupt, s.path)
	case !errors.Is(err, errTorn) && !errors.Is(err, errStale):
		return err
	}
	l.repairs.Add(1)
	l.log.Info("wal repair", "segment", filepath.Base(s.path), "valid_bytes", valid, "last_seq", s.last)
	return l.fsys.Truncate(s.path, valid)
}

// openActive opens the newest segment for appending, creating the first
// one if the directory is fresh (or fully truncated). A newest segment that
// recovered no entry is started over at the recovered tail: a crash that
// lost its first batch may also have lost entries before its base, which
// the next appends must not land below, and a recycled file may keep only
// an earlier life's chain record, which must not stand in for this one's.
func (l *Log) openActive() error {
	if n := len(l.segs); n > 0 && l.segs[n-1].first == 0 {
		s := l.segs[n-1]
		if err := l.fsys.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: %w", err)
		}
		l.segs = l.segs[:n-1]
		l.segments.Store(int64(len(l.segs)))
		l.bytes.Add(-s.size)
	}
	if len(l.segs) == 0 {
		return l.createSegment(l.lastSeq + 1)
	}
	f, err := l.fsys.OpenFile(l.segs[len(l.segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	return nil
}

// createSegment starts a fresh active segment whose first entry will be
// seq, chained to everything recorded so far: a pooled file whose records
// all lie below seq, renamed into place and overwritten from offset 0, or
// else a new file. Callers hold the lock (or run before the log is shared).
func (l *Log) createSegment(seq uint64) error {
	s := segment{path: filepath.Join(l.dir, fmt.Sprintf("wal-%016x.seg", seq)), base: seq, based: true}
	f, err := l.recycleLocked(s.path, seq)
	s.recycled = f != nil
	if f == nil && err == nil {
		f, err = l.fsys.OpenFile(s.path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.segs = append(l.segs, s)
	l.segments.Store(int64(len(l.segs)))
	l.f = f
	return l.writeChainLocked()
}

// recycleLocked renames the most recently pooled file whose records all lie
// below base (the one likeliest still in the page cache) into place as path,
// and opens it for overwriting from offset 0. It returns a nil file when the
// pool holds none.
func (l *Log) recycleLocked(path string, base uint64) (File, error) {
	i := len(l.pool) - 1
	for i >= 0 && l.pool[i].bound >= base {
		i--
	}
	if i < 0 {
		return nil, nil
	}
	free := l.pool[i].path
	l.pool = slices.Delete(l.pool, i, i+1)
	if err := l.fsys.Rename(free, path); err != nil {
		return nil, err
	}
	f, err := l.fsys.OpenFile(path, os.O_WRONLY, 0o644)
	if err == nil {
		l.recycled.Add(1)
	}
	return f, err
}

// sealLocked makes the active segment durable as it is to stay: a recycled
// file is cut to its live bytes before the fsync, so the fsync commits the
// size with the records and no earlier life's bytes follow them.
func (l *Log) sealLocked() error {
	if err := l.poisoned(); err != nil {
		return err
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if s := &l.segs[len(l.segs)-1]; s.recycled {
		if err := l.fsys.Truncate(s.path, s.size); err != nil {
			return l.poisonLocked(fmt.Errorf("wal: seal: %w", err))
		}
		s.recycled = false
	}
	return l.syncLocked()
}

// rotate seals the active segment and opens a new one starting at seq.
func (l *Log) rotate(seq uint64) error {
	if err := l.sealLocked(); err != nil {
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

// retireFirstLocked takes the oldest segment, which a snapshot has made
// redundant, out of the log. A based segment's file joins the pool, named
// for the highest seq a record in it can carry: a live entry at most last, a
// record of an earlier life below base. Any other file is removed: no
// validity rule would tell its records from a later life's.
func (l *Log) retireFirstLocked() error {
	s := l.segs[0]
	bound := s.last
	if s.base > 0 {
		bound = max(bound, s.base-1)
	}
	free := filepath.Join(l.dir, fmt.Sprintf("free-%016x.seg", bound))
	var err error
	if !s.based || slices.ContainsFunc(l.pool, func(p pooled) bool { return p.path == free }) {
		err = l.fsys.Remove(s.path)
	} else if err = l.fsys.Rename(s.path, free); err == nil {
		l.pool = append(l.pool, pooled{path: free, bound: bound})
	}
	if err != nil && !os.IsNotExist(err) {
		return l.poisonLocked(fmt.Errorf("wal: truncate: %w", err))
	}
	l.segs = l.segs[1:]
	l.segments.Store(int64(len(l.segs)))
	l.bytes.Add(-s.size)
	return nil
}

// trimPoolLocked deletes the oldest pooled files beyond keep, the number of
// segments the truncation that just ran freed: the steady state reuses what
// each truncation frees before the next one, so the directory never holds
// more files than it did before the last truncation.
func (l *Log) trimPoolLocked(keep int) error {
	for len(l.pool) > keep {
		if err := l.fsys.Remove(l.pool[0].path); err != nil && !os.IsNotExist(err) {
			return l.poisonLocked(fmt.Errorf("wal: truncate: %w", err))
		}
		l.pool = l.pool[1:]
	}
	return nil
}
