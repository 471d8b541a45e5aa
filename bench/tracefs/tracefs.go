// Package tracefs is the benchmark's window into the filesystem
// traffic of the segment log: a vfs.FS that forwards every call to
// vfs.OS, counts it, times it, and hands each timed call to an optional
// hook (the benchmark's span recorder). It is passed as
// segmentlog.Options.FS by the traced in-process passes only; the
// daemon runs on vfs.OS.
package tracefs

import (
	"io/fs"
	"os"
	"sync/atomic"
	"time"

	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// Op identifies one forwarded method.
type Op int

// The eleven FS methods, then the eight File methods.
const (
	FSOpenFile Op = iota
	FSOpen
	FSReadFile
	FSRename
	FSRemove
	FSRemoveAll
	FSReadDir
	FSStat
	FSMkdirAll
	FSTruncate
	FSGlob
	FileWrite
	FileWriteAt
	FileReadAt
	FileSeek
	FileClose
	FileSync
	FileTruncate
	FileFd
	NumOps
)

// Tally is the record of one op.
type Tally struct {
	Calls int64
	Bytes int64 // payload bytes moved (write, writeat, readat, readfile)
}

// FS wraps vfs.OS. The zero value is not usable; build one with New.
// Safe for concurrent use.
type FS struct {
	inner vfs.FS
	stats [NumOps]struct{ calls, bytes atomic.Int64 }
	// OnOp, when set before first use, receives every timed call. It
	// runs on the calling goroutine, which for the segment log may be a
	// shard worker or a compaction worker.
	OnOp func(op Op, start time.Time, d time.Duration)
}

var (
	_ vfs.FS   = (*FS)(nil)
	_ vfs.File = (*file)(nil)
)

// New wraps vfs.OS.
func New() *FS { return &FS{inner: vfs.OS} }

// Tally returns the record for op.
func (t *FS) Tally(op Op) Tally {
	s := &t.stats[op]
	return Tally{Calls: s.calls.Load(), Bytes: s.bytes.Load()}
}

func (t *FS) record(op Op, start time.Time, n int) {
	d := time.Since(start)
	s := &t.stats[op]
	s.calls.Add(1)
	s.bytes.Add(int64(n))
	if t.OnOp != nil {
		t.OnOp(op, start, d)
	}
}

func (t *FS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &file{inner: f, fs: t}, nil
}

func (t *FS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	defer t.record(FSOpenFile, time.Now(), 0)
	return t.wrap(t.inner.OpenFile(name, flag, perm))
}

func (t *FS) Open(name string) (vfs.File, error) {
	defer t.record(FSOpen, time.Now(), 0)
	return t.wrap(t.inner.Open(name))
}

func (t *FS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	b, err := t.inner.ReadFile(name)
	t.record(FSReadFile, start, len(b))
	return b, err
}

func (t *FS) Rename(oldpath, newpath string) error {
	defer t.record(FSRename, time.Now(), 0)
	return t.inner.Rename(oldpath, newpath)
}

func (t *FS) Remove(name string) error {
	defer t.record(FSRemove, time.Now(), 0)
	return t.inner.Remove(name)
}

func (t *FS) RemoveAll(path string) error {
	defer t.record(FSRemoveAll, time.Now(), 0)
	return t.inner.RemoveAll(path)
}

func (t *FS) ReadDir(name string) ([]fs.DirEntry, error) {
	defer t.record(FSReadDir, time.Now(), 0)
	return t.inner.ReadDir(name)
}

func (t *FS) Stat(name string) (fs.FileInfo, error) {
	defer t.record(FSStat, time.Now(), 0)
	return t.inner.Stat(name)
}

func (t *FS) MkdirAll(path string, perm os.FileMode) error {
	defer t.record(FSMkdirAll, time.Now(), 0)
	return t.inner.MkdirAll(path, perm)
}

func (t *FS) Truncate(name string, size int64) error {
	defer t.record(FSTruncate, time.Now(), 0)
	return t.inner.Truncate(name, size)
}

func (t *FS) Glob(pattern string) ([]string, error) {
	defer t.record(FSGlob, time.Now(), 0)
	return t.inner.Glob(pattern)
}

type file struct {
	inner vfs.File
	fs    *FS
}

func (f *file) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.inner.Write(p)
	f.fs.record(FileWrite, start, n)
	return n, err
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.inner.WriteAt(p, off)
	f.fs.record(FileWriteAt, start, n)
	return n, err
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.inner.ReadAt(p, off)
	f.fs.record(FileReadAt, start, n)
	return n, err
}

func (f *file) Seek(offset int64, whence int) (int64, error) {
	defer f.fs.record(FileSeek, time.Now(), 0)
	return f.inner.Seek(offset, whence)
}

func (f *file) Close() error {
	defer f.fs.record(FileClose, time.Now(), 0)
	return f.inner.Close()
}

func (f *file) Sync() error {
	defer f.fs.record(FileSync, time.Now(), 0)
	return f.inner.Sync()
}

func (f *file) Truncate(size int64) error {
	defer f.fs.record(FileTruncate, time.Now(), 0)
	return f.inner.Truncate(size)
}

func (f *file) Fd() uintptr {
	defer f.fs.record(FileFd, time.Now(), 0)
	return f.inner.Fd()
}
