package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

func write(t *testing.T, f File, data string) {
	t.Helper()
	if _, err := f.Write([]byte(data)); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func create(t *testing.T, fsys FS, path, data string) File {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	write(t, f, data)
	return f
}

func syncDir(t *testing.T, fsys FS, dir string) {
	t.Helper()
	d, err := fsys.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}

// readBack reads path on fsys; "" with ok false when it does not exist.
func readBack(t *testing.T, fsys FS, path string) (string, bool) {
	t.Helper()
	data, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return "", false
	}
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return string(data), true
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a.txt")
	f := create(t, OS, p, "hello")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := Flock(f, syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		t.Fatalf("flock: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := OS.ReadFile(p)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if err := OS.Rename(p, filepath.Join(dir, "b.txt")); err != nil {
		t.Fatal(err)
	}
	ents, err := OS.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "b.txt" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	matches, err := OS.Glob(filepath.Join(dir, "*.txt"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("Glob = %v, %v", matches, err)
	}
}

// TestFaultFSFiles: the in-memory tree answers as the os package does —
// exclusive create, missing parents, reads past the end, directories in
// ReadDir (Glob matches files only), and a handle that outlives its name.
func TestFaultFSFiles(t *testing.T) {
	ffs := NewFaultFS(1)
	if err := ffs.MkdirAll("/a/b", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := ffs.OpenFile("/nope/f", os.O_RDWR|os.O_CREATE, 0o644); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("create under a missing directory = %v, want ErrNotExist", err)
	}
	f := create(t, ffs, "/a/f", "0123")
	if _, err := ffs.OpenFile("/a/f", os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644); !errors.Is(err, os.ErrExist) {
		t.Fatalf("exclusive create of an existing file = %v, want ErrExist", err)
	}
	buf := make([]byte, 8)
	if n, err := f.ReadAt(buf, 2); n != 2 || string(buf[:n]) != "23" || err == nil {
		t.Fatalf("ReadAt past the end = %d %q, %v", n, buf[:n], err)
	}
	if _, err := f.WriteAt([]byte("x"), 6); err != nil {
		t.Fatal(err)
	}
	if got, _ := readBack(t, ffs, "/a/f"); got != "0123\x00\x00x" {
		t.Fatalf("a write past the end left %q, want a zero-filled hole", got)
	}
	ents, err := ffs.ReadDir("/a")
	if err != nil || len(ents) != 2 || ents[0].Name() != "b" || !ents[0].IsDir() || ents[1].Name() != "f" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if m, err := ffs.Glob("/a/*"); err != nil || !reflect.DeepEqual(m, []string{"/a/f"}) {
		t.Fatalf("Glob = %v, %v", m, err)
	}
	if err := ffs.Rename("/a/f", "/a/g"); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Remove("/a/g"); err != nil {
		t.Fatal(err)
	}
	write(t, f, "!") // the handle holds the file, not the name
	if _, err := ffs.Stat("/a/g"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Stat of a removed file = %v", err)
	}
	if err := ffs.RemoveAll("/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ffs.ReadDir("/a/b"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ReadDir after RemoveAll = %v", err)
	}
}

func TestFaultNthOp(t *testing.T) {
	ffs := NewFaultFS(1)

	// Observer pass: count the ops of the workload.
	f, err := ffs.OpenFile("/f", os.O_RDWR|os.O_CREATE, 0o644) // op 1
	if err != nil {
		t.Fatal(err)
	}
	write(t, f, "x") // op 2
	if err := f.Close(); err != nil {
		t.Fatal(err) // op 3
	}
	if got := ffs.Ops(); got != 3 {
		t.Fatalf("Ops = %d, want 3", got)
	}

	// Targeted pass: fail exactly the write (op 2) with ENOSPC.
	ffs2 := NewFaultFS(1)
	ffs2.AddRule(Rule{Fault: FaultENOSPC, After: 1, Count: 1})
	f2, err := ffs2.OpenFile("/g", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write = %v, want ENOSPC", err)
	}
	if _, err := f2.Write([]byte("x")); err != nil {
		t.Fatalf("write after window: %v", err)
	}
	f2.Close()
}

func TestFaultPattern(t *testing.T) {
	ffs := NewFaultFS(1)
	ffs.AddRule(Rule{Op: OpSync, Path: "seg-*.log", Fault: FaultEIO})
	seg := create(t, ffs, "/seg-00000001.log", "")
	other := create(t, ffs, "/other.log", "")
	if err := seg.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("seg sync = %v, want EIO", err)
	}
	if err := other.Sync(); err != nil {
		t.Fatalf("other sync = %v", err)
	}
	seg.Close()
	other.Close()
}

// TestFsyncgate pins the headline semantic: bytes written after the
// last successful Sync are DROPPED by a failed Sync — a later
// successful Sync does not resurrect them.
func TestFsyncgate(t *testing.T) {
	ffs := NewFaultFS(1)
	f := create(t, ffs, "/f", "durable")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	write(t, f, "-doomed")
	ffs.AddRule(Rule{Op: OpSync, Fault: FaultEIO, Count: 1})
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync = %v, want EIO", err)
	}
	// The dirty bytes are already gone; a retried (now passing) Sync
	// must not bring them back.
	if err := f.Sync(); err != nil {
		t.Fatalf("retried sync: %v", err)
	}
	if got, _ := readBack(t, ffs, "/f"); got != "durable" {
		t.Fatalf("content = %q, want %q (un-synced bytes must be lost)", got, "durable")
	}
	f.Close()
}

func TestShortWrite(t *testing.T) {
	ffs := NewFaultFS(1)
	f := create(t, ffs, "/f", "")
	ffs.AddRule(Rule{Op: OpWrite, Fault: FaultShortWrite, Count: 1})
	n, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("write = %v, want EIO", err)
	}
	if n != 5 {
		t.Fatalf("short write wrote %d bytes, want 5", n)
	}
	f.Close()
	if got, _ := readBack(t, ffs, "/f"); got != "01234" {
		t.Fatalf("content = %q, want the short prefix", got)
	}
}

func TestCrashLosesUnsynced(t *testing.T) {
	ffs := NewFaultFS(7)
	f := create(t, ffs, "/f", "durable")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	syncDir(t, ffs, "/")
	write(t, f, "-volatile")
	ffs.Crash()
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash = %v, want ErrCrashed", err)
	}
	if _, err := ffs.Open("/f"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open after crash = %v, want ErrCrashed", err)
	}
	// The restarted machine sees the durable prefix.
	if got, _ := readBack(t, ffs.Restart(), "/f"); got != "durable" {
		t.Fatalf("content after crash = %q, want %q", got, "durable")
	}
}

// TestCrashRename: an un-dir-synced rename either fully survives a crash
// or fully rolls back — never a mix — and a dir-synced rename always
// survives.
func TestCrashRename(t *testing.T) {
	publish := func(seed int64, dirSync bool) *FaultFS {
		ffs := NewFaultFS(seed)
		old := create(t, ffs, "/MANIFEST", "old")
		old.Sync()
		syncDir(t, ffs, "/")
		f := create(t, ffs, "/MANIFEST.tmp", "new")
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := ffs.Rename("/MANIFEST.tmp", "/MANIFEST"); err != nil {
			t.Fatal(err)
		}
		if dirSync {
			syncDir(t, ffs, "/")
		}
		return ffs.Restart()
	}
	sawOld, sawNew := false, false
	for seed := int64(0); seed < 20; seed++ {
		after := publish(seed, false)
		switch got, _ := readBack(t, after, "/MANIFEST"); got {
		case "old":
			sawOld = true
		case "new":
			sawNew = true
		default:
			t.Fatalf("seed %d: MANIFEST = %q, want old or new", seed, got)
		}
		if tmp, ok := readBack(t, after, "/MANIFEST.tmp"); ok {
			t.Fatalf("seed %d: the renamed temp file came back holding %q", seed, tmp)
		}
	}
	if !sawOld || !sawNew {
		t.Fatalf("20 seeds never exercised both rename outcomes (old=%v new=%v)", sawOld, sawNew)
	}
	for seed := int64(0); seed < 5; seed++ {
		if got, _ := readBack(t, publish(seed, true), "/MANIFEST"); got != "new" {
			t.Fatalf("seed %d: dir-synced rename lost (%q)", seed, got)
		}
	}
}

// TestCrashPendingCreate: a file created and fsynced but whose
// directory entry was never fsynced can vanish wholesale.
func TestCrashPendingCreate(t *testing.T) {
	create := func(seed int64, dirSync bool) *FaultFS {
		ffs := NewFaultFS(seed)
		f, err := ffs.OpenFile("/seg-00000001.log", os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		write(t, f, "data")
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if dirSync {
			syncDir(t, ffs, "/")
		}
		return ffs.Restart()
	}
	vanished := false
	for seed := int64(0); seed < 20 && !vanished; seed++ {
		_, ok := readBack(t, create(seed, false), "/seg-00000001.log")
		vanished = !ok
	}
	if !vanished {
		t.Fatal("20 seeds never made an un-dir-synced create vanish")
	}
	// With the directory fsynced, the file and its synced bytes persist.
	if got, _ := readBack(t, create(1, true), "/seg-00000001.log"); got != "data" {
		t.Fatalf("dir-synced create lost: %q", got)
	}
}

func TestSustainedENOSPCThenClear(t *testing.T) {
	ffs := NewFaultFS(1)
	f := create(t, ffs, "/f", "")
	ffs.AddRule(Rule{Op: OpWrite, Fault: FaultENOSPC}) // Count 0: every write
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("write %d = %v, want ENOSPC", i, err)
		}
	}
	ffs.ClearRules() // the operator freed disk space
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("write after clear: %v", err)
	}
	f.Close()
}

func TestCrashRule(t *testing.T) {
	ffs := NewFaultFS(3)
	ffs.AddRule(Rule{Op: OpWrite, Fault: FaultCrash, After: 1, Count: 1})
	f := create(t, ffs, "/f", "first")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	syncDir(t, ffs, "/")
	if _, err := f.Write([]byte("second")); err == nil {
		t.Fatal("crash-armed write succeeded")
	}
	if !ffs.Crashed() {
		t.Fatal("FS not crashed after FaultCrash rule fired")
	}
	if got, _ := readBack(t, ffs.Restart(), "/f"); got != "first" {
		t.Fatalf("content = %q, want synced prefix", got)
	}
}

// TestRestart: a restart keeps exactly the synced bytes under the
// durable entries, fails every handle from before it, replays its
// crash from the seed, and frees the locks.
func TestRestart(t *testing.T) {
	build := func(seed int64) (*FaultFS, File) {
		ffs := NewFaultFS(seed)
		if err := ffs.MkdirAll("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		kept := create(t, ffs, "/d/kept", "synced")
		kept.Sync()
		create(t, ffs, "/d/gone", "never synced").Sync()
		syncDir(t, ffs, "/d")
		write(t, kept, " and not")
		cut := create(t, ffs, "/d/cut", "0123456789")
		cut.Sync()
		syncDir(t, ffs, "/d")
		if err := ffs.Truncate("/d/cut", 4); err != nil {
			t.Fatal(err)
		}
		if err := ffs.Remove("/d/gone"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ { // pending creates for the coin flips
			create(t, ffs, filepath.Join("/d", string(rune('a'+i))), "x").Sync()
		}
		lock := create(t, ffs, "/d/LOCK", "")
		if err := Flock(lock, syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
			t.Fatal(err)
		}
		return ffs, kept
	}
	tree := func(fsys FS) map[string]string {
		ents, err := fsys.ReadDir("/d")
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range ents {
			out[e.Name()], _ = readBack(t, fsys, "/d/"+e.Name())
		}
		return out
	}

	ffs, kept := build(1)
	again, _ := build(1)
	after := ffs.Restart()
	if !ffs.Crashed() {
		t.Fatal("Restart did not crash the filesystem it restarted")
	}
	got := tree(after)
	if got["kept"] != "synced" || got["cut"] != "0123" {
		t.Fatalf("restarted tree %q: want kept's synced bytes and cut's truncation", got)
	}
	if _, ok := got["gone"]; ok {
		t.Fatal("a removed file came back")
	}
	if _, err := kept.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("a handle from before the restart read with %v, want ErrCrashed", err)
	}
	if want := tree(again.Restart()); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed 1 restarted to %q, then to %q", got, want)
	}
	other, _ := build(2)
	if reflect.DeepEqual(got, tree(other.Restart())) {
		t.Fatal("seeds 1 and 2 kept the same pending creates: the coin flips do not vary")
	}
	lock, err := after.OpenFile("/d/LOCK", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := Flock(lock, syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		t.Fatalf("the lock is still held after a restart: %v", err)
	}
	second, _ := after.Open("/d/LOCK")
	if err := Flock(second, syscall.LOCK_EX|syscall.LOCK_NB); !errors.Is(err, syscall.EWOULDBLOCK) {
		t.Fatalf("a second handle took a held lock: %v", err)
	}
	lock.Close()
	if err := Flock(second, syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		t.Fatalf("closing the holder did not free the lock: %v", err)
	}
}
