package tracefs

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestEveryMethodCountedOnce drives each of the 11 FS and 8 File
// methods exactly once through the wrapper and checks that the call
// reached the real filesystem, was tallied once, and reached the hook
// once.
func TestEveryMethodCountedOnce(t *testing.T) {
	dir := t.TempDir()
	fs := New()
	var hooked [NumOps]int
	fs.OnOp = func(op Op, _ time.Time, d time.Duration) {
		if d < 0 {
			t.Errorf("op %d: negative duration", op)
		}
		hooked[op]++
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	sub := filepath.Join(dir, "a", "b")
	must(fs.MkdirAll(sub, 0o755)) // FSMkdirAll
	path := filepath.Join(sub, "f")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644) // FSOpenFile
	must(err)
	if n, err := f.Write([]byte("hello")); err != nil || n != 5 { // FileWrite
		t.Fatalf("Write: %d, %v", n, err)
	}
	if n, err := f.WriteAt([]byte("J"), 0); err != nil || n != 1 { // FileWriteAt
		t.Fatalf("WriteAt: %d, %v", n, err)
	}
	buf := make([]byte, 5)
	if n, err := f.ReadAt(buf, 0); err != nil || string(buf[:n]) != "Jello" { // FileReadAt
		t.Fatalf("ReadAt: %q, %v", buf[:n], err)
	}
	if off, err := f.Seek(0, 2); err != nil || off != 5 { // FileSeek
		t.Fatalf("Seek: %d, %v", off, err)
	}
	must(f.Sync())                       // FileSync
	must(f.Truncate(4))                  // FileTruncate
	if fd := f.Fd(); fd == ^uintptr(0) { // FileFd
		t.Fatal("Fd: no descriptor")
	}
	must(f.Close()) // FileClose

	if b, err := fs.ReadFile(path); err != nil || string(b) != "Jell" { // FSReadFile
		t.Fatalf("ReadFile: %q, %v", b, err)
	}
	if fi, err := fs.Stat(path); err != nil || fi.Size() != 4 { // FSStat
		t.Fatalf("Stat: %v, %v", fi, err)
	}
	must(fs.Truncate(path, 2)) // FSTruncate
	moved := filepath.Join(sub, "g")
	must(fs.Rename(path, moved)) // FSRename
	r, err := fs.Open(moved)     // FSOpen
	must(err)
	if _, ok := r.(*file); !ok {
		t.Fatalf("Open returned %T, not a counting file", r)
	}
	if err := r.(*file).inner.Close(); err != nil { // closed behind the wrapper: FileClose stays at one
		t.Fatal(err)
	}
	if es, err := fs.ReadDir(sub); err != nil || len(es) != 1 || es[0].Name() != "g" { // FSReadDir
		t.Fatalf("ReadDir: %v, %v", es, err)
	}
	if m, err := fs.Glob(filepath.Join(sub, "*")); err != nil || len(m) != 1 { // FSGlob
		t.Fatalf("Glob: %v, %v", m, err)
	}
	must(fs.Remove(moved))                      // FSRemove
	must(fs.RemoveAll(filepath.Join(dir, "a"))) // FSRemoveAll
	if _, err := os.Stat(filepath.Join(dir, "a")); !os.IsNotExist(err) {
		t.Fatalf("RemoveAll left the tree behind: %v", err)
	}

	for op := Op(0); op < NumOps; op++ {
		if got := fs.Tally(op).Calls; got != 1 {
			t.Errorf("op %d: tallied %d times, want 1", op, got)
		}
		if hooked[op] != 1 {
			t.Errorf("op %d: hook saw it %d times, want 1", op, hooked[op])
		}
	}
	wantBytes := map[Op]int64{FileWrite: 5, FileWriteAt: 1, FileReadAt: 5, FSReadFile: 4}
	for op, want := range wantBytes {
		if got := fs.Tally(op).Bytes; got != want {
			t.Errorf("op %d: %d bytes, want %d", op, got, want)
		}
	}
}

// TestErrorsPassThrough checks a failing inner call surfaces unchanged
// and hands back no wrapped file.
func TestErrorsPassThrough(t *testing.T) {
	fs := New()
	f, err := fs.Open(filepath.Join(t.TempDir(), "missing"))
	if !os.IsNotExist(err) || f != nil {
		t.Fatalf("Open(missing) = %v, %v", f, err)
	}
	if fs.Tally(FSOpen).Calls != 1 {
		t.Fatal("failed call not counted")
	}
}
