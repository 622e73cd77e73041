package wal

import (
	"io"
	"io/fs"
	"os"
)

// FS abstracts every filesystem operation the log performs. It exists for
// one consumer: fault injection (internal/wal/walfault wraps the real
// filesystem with a seeded schedule of torn writes, lying fsyncs, ENOSPC
// and read corruption, and the chaos harness's hostile-disk profile runs
// members on it). Production code leaves Options.FS nil and gets the real
// filesystem; the seam costs one interface indirection per filesystem
// call, none of which sit on the frame hot path.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir returns the names (not paths) of dir's entries.
	ReadDir(dir string) ([]string, error)
	ReadFile(path string) ([]byte, error)
	// Open opens an existing file for reading.
	Open(path string) (File, error)
	// OpenFile generalizes Open with os.OpenFile semantics.
	OpenFile(path string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp mirrors os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	Truncate(path string, size int64) error
	// SyncDir fsyncs a directory, making renames within it durable.
	SyncDir(dir string) error
}

// File is the per-file surface the log needs from an FS.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Name() string
	// Size returns the file's current size.
	Size() (int64, error)
}

// OS is the real-filesystem FS — the default when Options.FS is nil.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) Open(path string) (File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) Truncate(path string, size int64) error {
	return os.Truncate(path, size)
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

type osFile struct {
	*os.File
}

func (f osFile) Size() (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
