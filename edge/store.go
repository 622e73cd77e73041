package edge

import (
	"fmt"
	"log/slog"

	"fsr/internal/serve"
	"fsr/internal/wal"
	"fsr/internal/wire"
)

// store is the writing side of the edge replica's copy of the committed
// order. Everything read — by subscribers, metrics, the tail loop's resume
// point — goes through log, the same serve.Log a ring member serves from:
// a bounded in-memory tail, or, with a durable directory, the WAL the
// store appends to (so a durable edge holds no entries in memory).
type store struct {
	log *serve.Log
	wal *wal.Log // nil for a memory-only tail
}

// openStore builds the replica's log: a tail of tailCap entries in memory,
// or the WAL in dir when dir is non-empty. fs overrides the filesystem the
// WAL runs on (nil selects the real one).
func openStore(dir string, tailCap int, fs wal.FS, logger *slog.Logger) (*store, error) {
	if dir == "" {
		return &store{log: serve.NewRingLog(tailCap)}, nil
	}
	w, err := wal.Open(dir, wal.Options{FS: fs, Logger: logger})
	if err != nil {
		return nil, fmt.Errorf("edge: open store: %w", err)
	}
	return &store{log: serve.NewWALLog(w, w.LastSeq(), nil), wal: w}, nil
}

// append folds one upstream message into the replica and reports whether
// the frontier advanced; stale duplicates (from an upstream re-subscribe)
// are skipped. Durable entries are flushed by the periodic sync, not here:
// an edge may lose that window on a crash and refetches it from upstream.
// A write error is returned — the entry is not readable back, so the
// frontier must not move over it.
func (st *store) append(e wire.ClientEventEntry) (bool, error) {
	if e.Seq <= st.log.Applied() {
		return false, nil
	}
	if st.wal != nil {
		err := st.wal.Append(wal.Entry{
			Seq:       e.Seq,
			Origin:    uint32(e.Origin),
			LogicalID: e.Logical,
			Payload:   e.Payload,
		})
		if err != nil {
			return false, err
		}
	}
	st.log.Commit([]wire.ClientEventEntry{e}, e.Seq)
	return true, nil
}

// setSnapshot installs an upstream state transfer at seq: the order's
// prefix up to seq is now represented by the application snapshot, and the
// entry tail restarts above it.
func (st *store) setSnapshot(seq uint64, data []byte) error {
	if seq <= st.log.Applied() {
		return nil // stale: the replica already covers this prefix
	}
	if st.wal != nil {
		if err := st.wal.WriteSnapshot(seq, data); err != nil {
			return err
		}
	}
	st.log.SetSnapshot(seq, data)
	return nil
}

// walStats snapshots the durable log's counters; ok is false for a
// memory-only store.
func (st *store) walStats() (wal.Stats, bool) {
	if st.wal == nil {
		return wal.Stats{}, false
	}
	return st.wal.Stats(), true
}

// writable probes the durable directory; nil for a memory-only store.
func (st *store) writable() error {
	if st.wal == nil {
		return nil
	}
	return st.wal.Writable()
}

// sync flushes the durable log, if any. A failure poisons the WAL; the
// next append reports it.
func (st *store) sync() {
	if st.wal != nil {
		_ = st.wal.Sync()
	}
}

// close flushes and releases the durable log, if any.
func (st *store) close() {
	if st.wal != nil {
		_ = st.wal.Close() // Close syncs first
	}
}
