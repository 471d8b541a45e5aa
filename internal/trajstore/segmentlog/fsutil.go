// Durable small-file helpers: the directory fsync, the one atomic replace
// every MANIFEST and SHARDS file goes through, the CRC trailer that seals
// the two text files, and the root LOCK.
package segmentlog

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// syncDir fsyncs a directory so entries for newly created files are
// durable. Some platforms/filesystems reject fsync on directories;
// those errors are ignored (matching common WAL implementations).
func syncDir(fsys vfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("segmentlog: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return fmt.Errorf("segmentlog: fsync dir: %w", err)
	}
	return nil
}

// publishFile atomically replaces dir/name with data: temp file
// (name.tmp), write, fsync, rename, directory fsync — the tree's one durable
// small-file write and its one rename; a partial temp file is removed. On
// any error the previous file is untouched, and a reader sees either the
// old content or the new, never a mixture. what names the file in errors.
func publishFile(fsys vfs.FS, what, dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+tmpSuffix)
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segmentlog: %s: %w", what, err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil { // else the write/fsync error is the story
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("segmentlog: %s: %w", what, err)
	}
	return syncDir(fsys, dir)
}

// tmpSuffix marks publishFile's staging file.
const tmpSuffix = ".tmp"

// sealText appends the trailer that seals the MANIFEST and SHARDS text
// files: a "crc xxxxxxxx" line carrying the CRC-32C of every preceding
// byte.
func sealText(text []byte) []byte {
	return fmt.Appendf(text, "crc %08x\n", crc32.Checksum(text, castagnoli))
}

// unsealText checks that trailer and returns the text it covers, final
// newline included. what names the file in errors.
func unsealText(what string, data []byte) ([]byte, error) {
	crcAt := bytes.LastIndex(data, []byte("\ncrc "))
	if crcAt < 0 {
		return nil, fmt.Errorf("%w: %s: missing crc line", ErrCorrupt, what)
	}
	covered := data[:crcAt+1]
	crcLine := string(data[crcAt+1:])
	if !strings.HasSuffix(crcLine, "\n") {
		return nil, fmt.Errorf("%w: %s: truncated crc line", ErrCorrupt, what)
	}
	crcHex := strings.TrimSuffix(strings.TrimPrefix(crcLine, "crc "), "\n")
	want, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil || len(crcHex) != 8 {
		return nil, fmt.Errorf("%w: %s: bad crc field", ErrCorrupt, what)
	}
	if got := crc32.Checksum(covered, castagnoli); got != uint32(want) {
		return nil, fmt.Errorf("%w: %s: crc mismatch (%08x != %08x)", ErrCorrupt, what, got, want)
	}
	return covered, nil
}

// acquireLock takes the directory's advisory write lock: an flock(2) on
// the LOCK file, which the kernel releases automatically if the process
// dies, so a crashed owner never wedges the directory. The holder's PID
// is written into the file purely as a diagnostic.
func acquireLock(fsys vfs.FS, dir string) (vfs.File, error) {
	f, err := fsys.OpenFile(filepath.Join(dir, lockName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		// Name the directory, not just the LOCK path buried in a
		// *PathError: a bqsd tenant-open failure must say which tenant
		// directory could not be locked.
		return nil, fmt.Errorf("segmentlog: locking %s: %w", dir, err)
	}
	if err := vfs.Flock(f, syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		if err != syscall.EWOULDBLOCK && err != syscall.EAGAIN {
			// Not contention (e.g. a filesystem without flock support):
			// report the real error, not a phantom lock holder.
			_ = f.Close()
			return nil, fmt.Errorf("segmentlog: flock %s: %w", dir, err)
		}
		pid := make([]byte, 32)
		n, _ := f.ReadAt(pid, 0)
		_ = f.Close()
		holder := strings.TrimSpace(string(pid[:n]))
		if holder == "" {
			return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
		}
		return nil, fmt.Errorf("%w: %s (held by pid %s)", ErrLocked, dir, holder)
	}
	if err := f.Truncate(0); err == nil {
		f.WriteAt([]byte(strconv.Itoa(os.Getpid())+"\n"), 0)
	}
	return f, nil
}
