package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Op names one filesystem operation kind for fault-rule matching.
type Op string

// Operation kinds. FS-level and File-level operations share one
// namespace; a Rule with an empty Op matches all of them.
const (
	OpOpenFile  Op = "openfile"
	OpOpen      Op = "open"
	OpReadFile  Op = "readfile"
	OpRename    Op = "rename"
	OpRemove    Op = "remove"
	OpRemoveAll Op = "removeall"
	OpReadDir   Op = "readdir"
	OpStat      Op = "stat"
	OpMkdirAll  Op = "mkdirall"
	OpTruncate  Op = "truncate"
	OpGlob      Op = "glob"
	OpWrite     Op = "write"
	OpWriteAt   Op = "writeat"
	OpReadAt    Op = "readat"
	OpSeek      Op = "seek"
	OpSync      Op = "sync"
	OpClose     Op = "close"
)

// Fault is what happens when a rule fires.
type Fault int

const (
	// FaultEIO fails the operation with syscall.EIO. On a Sync it
	// additionally drops the file's un-synced bytes (fsyncgate
	// semantics — see Rule).
	FaultEIO Fault = iota
	// FaultENOSPC fails the operation with syscall.ENOSPC (same Sync
	// semantics as FaultEIO).
	FaultENOSPC
	// FaultShortWrite writes roughly half the buffer, then fails with
	// EIO. On non-write operations it behaves like FaultEIO.
	FaultShortWrite
	// FaultCrash simulates power loss at this operation: the operation
	// fails and the FaultFS crashes (see Crash).
	FaultCrash
)

// ErrCrashed reports an operation attempted after a simulated crash.
var ErrCrashed = errors.New("vfs: filesystem crashed")

// Rule arms one fault. Rules are evaluated in order; the first rule
// matching an operation decides it.
//
// Fsyncgate semantics: when a rule fails a Sync, the file is
// immediately cut back to its last durably-synced length — the kernel
// analogue of dirty pages being dropped and marked clean after a failed
// fsync. Code that retries the Sync and trusts a later success
// therefore loses data visibly, which is exactly the bug class this
// models.
type Rule struct {
	// Op restricts the rule to one operation kind; empty matches any.
	Op Op
	// Path, when non-empty, is a filepath.Match pattern tested
	// against the operation's base file name ("seg-*.log", "MANIFEST*").
	Path string
	// Fault is the injected failure.
	Fault Fault
	// After skips the first After matching operations.
	After int
	// Count fires on at most Count matches after the skip; 0 means
	// every one (a sustained fault, e.g. a full disk).
	Count int

	seen int
}

// FaultFS is a deterministic fault-injecting filesystem held in memory.
// Paths are cleaned and rooted at "/", which always exists; Glob matches
// files only. Directories are durable once made or removed; a file's
// bytes become durable at a successful Sync of it, and its name at a
// Sync of its directory. The zero value is not usable; construct with
// NewFaultFS. All methods are safe for concurrent use (one lock
// serializes them — this is a test filesystem, not a fast one).
type FaultFS struct {
	mu      sync.Mutex
	seed    int64
	rules   []*Rule
	ops     int
	crashed bool
	dirs    map[string]*dir
	// pending holds the creates and renames no directory fsync has
	// covered yet, oldest first: a crash keeps or drops each.
	pending []change
	locks   map[*node]*faultFile // Flock's table: a locked file's holder
}

// node is one file: its bytes and how many of them are durable.
type node struct {
	data   []byte
	synced int
}

// dir holds a directory's file entries: live, as the running system sees
// them, and durable, as the last fsync of the directory left them.
type dir struct{ live, durable map[string]*node }

// change is one create or rename in d: the entries it sets (a nil node
// removes one), which a crash applies to d.durable together or not at all.
type change struct {
	d   *dir
	set map[string]*node
}

func newDir() *dir { return &dir{live: map[string]*node{}, durable: map[string]*node{}} }

// NewFaultFS returns an empty FaultFS whose crash choices (which
// un-synced renames and creates survive) are drawn deterministically
// from seed.
func NewFaultFS(seed int64) *FaultFS {
	return &FaultFS{seed: seed, dirs: map[string]*dir{"/": newDir()}, locks: map[*node]*faultFile{}}
}

// AddRule arms one fault rule (appended after existing rules).
func (f *FaultFS) AddRule(r Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &r)
}

// ClearRules disarms every rule — the disk "recovers". Durable-state
// tracking and the op counter continue.
func (f *FaultFS) ClearRules() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Ops returns the number of operations observed so far, the coordinate
// system of Rule.After. An observer pass with no rules measures a
// workload's op count; a second run can then target any single op.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether a simulated crash has happened (by rule,
// Crash or Restart).
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Crash simulates power loss now. Bytes past a file's last successful
// Sync are lost; each create or rename no directory fsync covered is
// kept or rolled back on a coin flip seeded by the FaultFS's seed, drawn
// in the order the changes were made; truncations and removals were
// durable at once. Every further operation on f, and on every handle it
// opened, fails with ErrCrashed; Restart reads what survived.
func (f *FaultFS) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashLocked()
}

func (f *FaultFS) crashLocked() {
	if f.crashed {
		return
	}
	f.crashed = true
	rng := rand.New(rand.NewSource(f.seed))
	for _, c := range f.pending {
		if rng.Intn(2) == 0 {
			continue // this change never reached the disk
		}
		for name, n := range c.set {
			if n == nil {
				delete(c.d.durable, name)
			} else {
				c.d.durable[name] = n
			}
		}
	}
	f.pending = nil
}

// Restart models the machine coming back: it crashes f, unless a rule or
// Crash already has, and returns a fresh FaultFS with f's seed, no rules
// and no locks that holds only f's durable state — each durable entry
// with its synced bytes.
func (f *FaultFS) Restart() *FaultFS {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashLocked()
	g := NewFaultFS(f.seed)
	for p, d := range f.dirs {
		nd := newDir()
		for name, n := range d.durable {
			nd.live[name] = &node{data: slices.Clone(n.data[:n.synced]), synced: n.synced}
		}
		nd.durable = maps.Clone(nd.live)
		g.dirs[p] = nd
	}
	return g
}

// step counts one operation and returns the fault to inject, if any; a
// FaultCrash crashes f on the spot. Callers hold mu.
func (f *FaultFS) step(op Op, path string) (Fault, error) {
	if f.crashed {
		return 0, pathErr(op, path, ErrCrashed)
	}
	f.ops++
	for _, r := range f.rules {
		if r.Op != "" && r.Op != op {
			continue
		}
		if r.Path != "" {
			if ok, err := filepath.Match(r.Path, filepath.Base(path)); err != nil || !ok {
				continue
			}
		}
		if r.seen++; r.seen <= r.After || r.Count > 0 && r.seen > r.After+r.Count {
			continue
		}
		if r.Fault == FaultCrash {
			f.crashLocked()
		}
		if r.Fault == FaultENOSPC {
			return r.Fault, pathErr(op, path, syscall.ENOSPC)
		}
		return r.Fault, pathErr(op, path, syscall.EIO)
	}
	return 0, nil
}

func pathErr(op Op, path string, err error) error {
	return &os.PathError{Op: string(op), Path: path, Err: err}
}

// lookup returns the directory holding name, name's base in it and the
// file there (nil if none); ENOENT when that directory does not exist,
// or with must when the file does not.
func (f *FaultFS) lookup(op Op, name string, must bool) (*dir, string, *node, error) {
	name = filepath.Join("/", name)
	d := f.dirs[filepath.Dir(name)]
	base := filepath.Base(name)
	if d == nil || must && d.live[base] == nil {
		return nil, "", nil, pathErr(op, name, fs.ErrNotExist)
	}
	return d, base, d.live[base], nil
}

// forget drops name from d's pending changes: it was removed or renamed
// away, so no crash brings it back.
func (f *FaultFS) forget(d *dir, name string) {
	for _, c := range f.pending {
		if c.d == d {
			delete(c.set, name)
		}
	}
}

func (f *FaultFS) OpenFile(name string, flag int, _ os.FileMode) (File, error) {
	return f.open(OpOpenFile, name, flag)
}

func (f *FaultFS) Open(name string) (File, error) { return f.open(OpOpen, name, os.O_RDONLY) }

func (f *FaultFS) open(op Op, name string, flag int) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(op, name); err != nil {
		return nil, err
	}
	if f.dirs[filepath.Join("/", name)] != nil {
		return &faultFile{fs: f, path: filepath.Join("/", name)}, nil // for the directory's fsync
	}
	d, base, n, err := f.lookup(op, name, false)
	switch {
	case err != nil:
		return nil, err
	case n != nil && flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL:
		return nil, pathErr(op, name, fs.ErrExist)
	case n == nil && flag&os.O_CREATE == 0:
		return nil, pathErr(op, name, fs.ErrNotExist)
	case n == nil:
		n = &node{}
		d.live[base] = n
		f.pending = append(f.pending, change{d, map[string]*node{base: n}})
	case flag&os.O_TRUNC != 0:
		n.resize(0) // durable at once
	}
	return &faultFile{fs: f, path: filepath.Join("/", name), n: n}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(OpReadFile, name); err != nil {
		return nil, err
	}
	_, _, n, err := f.lookup(OpReadFile, name, true)
	if err != nil {
		return nil, err
	}
	return slices.Clone(n.data), nil
}

// Rename moves a file within its directory; the new name reaches the
// disk with the directory's next fsync.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(OpRename, newpath); err != nil {
		return err
	}
	d, from, n, err := f.lookup(OpRename, oldpath, true)
	if err != nil || oldpath == newpath {
		return err
	}
	to := filepath.Join("/", newpath)
	if f.dirs[filepath.Dir(to)] != d {
		return pathErr(OpRename, newpath, syscall.EXDEV)
	}
	to = filepath.Base(to)
	delete(d.live, from)
	f.forget(d, from)
	d.live[to] = n
	f.pending = append(f.pending, change{d, map[string]*node{to: n, from: nil}})
	return nil
}

// Remove removes a file, durably at once.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(OpRemove, name); err != nil {
		return err
	}
	d, base, _, err := f.lookup(OpRemove, name, true)
	if err == nil {
		delete(d.live, base)
		delete(d.durable, base)
		f.forget(d, base)
	}
	return err
}

// RemoveAll removes path and everything under it, durably at once.
func (f *FaultFS) RemoveAll(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(OpRemoveAll, path); err != nil {
		return err
	}
	path = filepath.Join("/", path)
	for p, d := range f.dirs {
		if p == path || strings.HasPrefix(p, path+"/") {
			delete(f.dirs, p)
			f.pending = slices.DeleteFunc(f.pending, func(c change) bool { return c.d == d })
		}
	}
	if d, base, _, err := f.lookup(OpRemoveAll, path, false); err == nil {
		delete(d.live, base)
		delete(d.durable, base)
		f.forget(d, base)
	}
	return nil
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(OpReadDir, name); err != nil {
		return nil, err
	}
	name = filepath.Join("/", name)
	if f.dirs[name] == nil {
		return nil, pathErr(OpReadDir, name, fs.ErrNotExist)
	}
	var out []fs.DirEntry
	for base, n := range f.dirs[name].live {
		out = append(out, fs.FileInfoToDirEntry(fileInfo{base, int64(len(n.data))}))
	}
	for p := range f.dirs {
		if p != name && filepath.Dir(p) == name {
			out = append(out, fs.FileInfoToDirEntry(fileInfo{filepath.Base(p), -1}))
		}
	}
	slices.SortFunc(out, func(a, b fs.DirEntry) int { return strings.Compare(a.Name(), b.Name()) })
	return out, nil
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(OpStat, name); err != nil {
		return nil, err
	}
	if f.dirs[filepath.Join("/", name)] != nil {
		return fileInfo{filepath.Base(name), -1}, nil
	}
	_, base, n, err := f.lookup(OpStat, name, true)
	if err != nil {
		return nil, err
	}
	return fileInfo{base, int64(len(n.data))}, nil
}

func (f *FaultFS) MkdirAll(path string, _ os.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(OpMkdirAll, path); err != nil {
		return err
	}
	for p := filepath.Join("/", path); f.dirs[p] == nil; p = filepath.Dir(p) {
		f.dirs[p] = newDir()
	}
	return nil
}

func (f *FaultFS) Truncate(name string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(OpTruncate, name); err != nil {
		return err
	}
	_, _, n, err := f.lookup(OpTruncate, name, true)
	if err == nil {
		n.resize(int(size))
	}
	return err
}

func (f *FaultFS) Glob(pattern string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(OpGlob, pattern); err != nil {
		return nil, err
	}
	var out []string
	for p, d := range f.dirs {
		for base := range d.live {
			if ok, err := filepath.Match(pattern, filepath.Join(p, base)); err != nil {
				return nil, err
			} else if ok {
				out = append(out, filepath.Join(p, base))
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// resize sets the file's length, zero-filling what it adds; bytes it
// cuts stop being durable at once.
func (n *node) resize(size int) {
	if old := len(n.data); size > old {
		n.data = slices.Grow(n.data, size-old)[:size]
		clear(n.data[old:])
	}
	n.data = n.data[:size]
	n.synced = min(n.synced, size)
}

// faultFile is one open handle: a file's node and an offset, or (n nil)
// a directory, which takes only Sync and Close. It holds the node, not
// the name, so a rename or remove does not disturb it, as on a POSIX
// file system.
type faultFile struct {
	fs   *FaultFS
	path string
	n    *node
	off  int64
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	n, err := ff.write(OpWrite, p, ff.off)
	ff.off += int64(n)
	return n, err
}

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	return ff.write(OpWriteAt, p, off)
}

// write is Write and WriteAt; a FaultShortWrite writes half of p first.
func (ff *faultFile) write(op Op, p []byte, off int64) (int, error) {
	fault, err := ff.fs.step(op, ff.path)
	if err != nil && fault != FaultShortWrite {
		return 0, err
	} else if err != nil {
		p = p[:len(p)/2]
	}
	if end := int(off) + len(p); end > len(ff.n.data) {
		ff.n.resize(end)
	}
	return copy(ff.n.data[off:], p), err
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if _, err := ff.fs.step(OpReadAt, ff.path); err != nil {
		return 0, err
	}
	if off >= int64(len(ff.n.data)) {
		return 0, io.EOF
	}
	if n := copy(p, ff.n.data[off:]); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if _, err := ff.fs.step(OpSeek, ff.path); err != nil {
		return 0, err
	}
	switch whence {
	case io.SeekCurrent:
		offset += ff.off
	case io.SeekEnd:
		offset += int64(len(ff.n.data))
	}
	ff.off = offset
	return offset, nil
}

// Sync makes a file's bytes durable, or a directory's entries. A failed
// Sync of a file drops its un-synced bytes on the spot (fsyncgate).
func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	_, err := ff.fs.step(OpSync, ff.path)
	switch d := ff.fs.dirs[ff.path]; {
	case ff.n != nil && err != nil:
		ff.n.resize(ff.n.synced)
	case ff.n != nil:
		ff.n.synced = len(ff.n.data)
	case err == nil && d != nil:
		d.durable = maps.Clone(d.live)
		ff.fs.pending = slices.DeleteFunc(ff.fs.pending, func(c change) bool { return c.d == d })
	}
	return err
}

func (ff *faultFile) Truncate(size int64) error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	_, err := ff.fs.step(OpTruncate, ff.path)
	if err == nil {
		ff.n.resize(int(size))
	}
	return err
}

// Close releases the handle's lock even when the close itself fails, as
// close(2) releases the descriptor.
func (ff *faultFile) Close() error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if ff.fs.locks[ff.n] == ff {
		delete(ff.fs.locks, ff.n)
	}
	_, err := ff.fs.step(OpClose, ff.path)
	return err
}

// Fd reports no descriptor: a FaultFS file exists only in memory.
func (ff *faultFile) Fd() uintptr { return ^uintptr(0) }

// flock is Flock on a FaultFS handle: a lock in its filesystem's table.
func (ff *faultFile) flock(how int) error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	switch holder := ff.fs.locks[ff.n]; {
	case ff.fs.crashed:
		return pathErr("flock", ff.path, ErrCrashed)
	case how&syscall.LOCK_UN != 0:
		if holder == ff {
			delete(ff.fs.locks, ff.n)
		}
	case holder != nil && holder != ff:
		return syscall.EWOULDBLOCK
	default:
		ff.fs.locks[ff.n] = ff
	}
	return nil
}

// fileInfo answers Stat and ReadDir; size -1 marks a directory.
type fileInfo struct {
	name string
	size int64
}

func (i fileInfo) Name() string       { return i.name }
func (i fileInfo) Size() int64        { return max(i.size, 0) }
func (i fileInfo) IsDir() bool        { return i.size < 0 }
func (i fileInfo) ModTime() time.Time { return time.Time{} }
func (i fileInfo) Sys() any           { return nil }
func (i fileInfo) Mode() fs.FileMode {
	if i.IsDir() {
		return fs.ModeDir | 0o755
	}
	return 0o644
}

// String aids test failure messages.
func (f *FaultFS) String() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fmt.Sprintf("FaultFS{ops: %d, rules: %d, crashed: %v}", f.ops, len(f.rules), f.crashed)
}
