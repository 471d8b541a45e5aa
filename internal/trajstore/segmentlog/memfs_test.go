package segmentlog

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// memFS is an in-memory vfs.FS for tests that open logs by the thousand
// (fuzzing): no syscalls, and Sync is a no-op. Paths are cleaned absolute
// names; a handle holds its file's node, so a rename or remove does not
// disturb it, as on a POSIX file system.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memNode
	dirs  map[string]bool
}

// memNode is one file's contents.
type memNode struct{ data []byte }

func newMemFS() *memFS {
	return &memFS{files: make(map[string]*memNode), dirs: map[string]bool{"/": true}}
}

// writeMemFile creates (or replaces) name holding data.
func writeMemFile(m *memFS, name string, data []byte) error {
	f, err := m.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	return err
}

func notExist(op, name string) error { return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist} }

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (vfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if m.dirs[name] {
		return &memFile{fs: m}, nil // a directory handle, for syncDir
	}
	n := m.files[name]
	switch {
	case n != nil && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case n == nil && flag&os.O_CREATE == 0, n == nil && !m.dirs[filepath.Dir(name)]:
		return nil, notExist("open", name)
	case n == nil:
		n = &memNode{}
		m.files[name] = n
	case flag&os.O_TRUNC != 0:
		n.data = n.data[:0]
	}
	return &memFile{fs: m, n: n}, nil
}

func (m *memFS) Open(name string) (vfs.File, error) { return m.OpenFile(name, os.O_RDONLY, 0) }

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.files[filepath.Clean(name)]
	if n == nil {
		return nil, notExist("open", name)
	}
	return slices.Clone(n.data), nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.files[filepath.Clean(oldpath)]
	if n == nil {
		return notExist("rename", oldpath)
	}
	delete(m.files, filepath.Clean(oldpath))
	m.files[filepath.Clean(newpath)] = n
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[filepath.Clean(name)] == nil {
		return notExist("remove", name)
	}
	delete(m.files, filepath.Clean(name))
	return nil
}

func (m *memFS) RemoveAll(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	under := func(p string) bool { return p == path || strings.HasPrefix(p, path+"/") }
	for p := range m.files {
		if under(p) {
			delete(m.files, p)
		}
	}
	for p := range m.dirs {
		if under(p) {
			delete(m.dirs, p)
		}
	}
	return nil
}

func (m *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if !m.dirs[name] {
		return nil, notExist("readdir", name)
	}
	var out []fs.DirEntry
	for p, n := range m.files {
		if filepath.Dir(p) == name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), size: int64(len(n.data))}))
		}
	}
	for p := range m.dirs {
		if p != name && filepath.Dir(p) == name {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), dir: true}))
		}
	}
	slices.SortFunc(out, func(a, b fs.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return out, nil
}

func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if m.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	if n := m.files[name]; n != nil {
		return memInfo{name: filepath.Base(name), size: int64(len(n.data))}, nil
	}
	return nil, notExist("stat", name)
}

func (m *memFS) MkdirAll(path string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := filepath.Clean(path); !m.dirs[p]; p = filepath.Dir(p) {
		m.dirs[p] = true
	}
	return nil
}

func (m *memFS) Truncate(name string, size int64) error {
	f, err := m.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	return f.Truncate(size)
}

func (m *memFS) Glob(pattern string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for p := range m.files {
		if ok, err := filepath.Match(pattern, p); err != nil {
			return nil, err
		} else if ok {
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return out, nil
}

// memFile is an open handle: a file's node and an offset, or (n nil) a
// directory.
type memFile struct {
	fs  *memFS
	n   *memNode
	off int64
}

func (f *memFile) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.off)
	f.off += int64(n)
	return n, err
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(f.n.data)) {
		f.n.data = append(f.n.data, make([]byte, end-int64(len(f.n.data)))...)
	}
	return copy(f.n.data[off:], p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off >= int64(len(f.n.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.n.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		f.fs.mu.Lock()
		offset += int64(len(f.n.data))
		f.fs.mu.Unlock()
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if size <= int64(len(f.n.data)) {
		f.n.data = f.n.data[:size]
	} else {
		f.n.data = append(f.n.data, make([]byte, size-int64(len(f.n.data)))...)
	}
	return nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }
func (f *memFile) Fd() uintptr  { return ^uintptr(0) }

// memInfo is a Stat or ReadDir answer.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) Sys() any           { return nil }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
