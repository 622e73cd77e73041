package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOlderBuildSegmentBelowItsBase opens a directory as a build that
// predates based chain records could leave it: a crash emptied the newest
// segment, wal-4, after a lying fsync cost wal-1 its tail, and that build
// then chained wal-4 to seq 1 and appended 2 onwards into it. Its entries
// below the base are live, not an earlier life's: every one replays, and
// truncation removes such a segment instead of pooling it.
func TestOlderBuildSegmentBelowItsBase(t *testing.T) {
	dir := t.TempDir()
	write := func(base uint64, prev uint64, seqs ...uint64) {
		buf := appendRecord(nil, Entry{LogicalID: prev}) // a chain record that names no base
		for _, seq := range seqs {
			buf = appendRecord(buf, Entry{Seq: seq, Origin: 1, LogicalID: seq, Payload: []byte("older")})
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", base)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(1, 0, 1)
	write(4, 1, 2, 3, 4, 5)
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	if err := l.Replay(0, func(e Entry) error { got = append(got, e.Seq); return nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3 4 5]" {
		t.Fatalf("replayed %v, want [1 2 3 4 5]", got)
	}
	if err := l.Append(Entry{Seq: 6, Payload: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(6, []byte("state@6")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if strings.HasPrefix(de.Name(), "free-") {
			t.Fatalf("truncation pooled %s, a segment an older build wrote", de.Name())
		}
	}
}
