package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// fsNames maps statfs magic numbers to the names mount(8) prints.
var fsNames = map[int64]string{
	0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
	0x794c7630: "overlayfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
}

// hostFingerprint records what a number from this run may be compared
// against: only another run with the same fingerprint.
func hostFingerprint(dataDir string) map[string]string {
	h := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        "unknown",
		"kernel":     "unknown",
		"fs":         "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h["kernel"] = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		if name, ok := fsNames[int64(st.Type)]; ok {
			h["fs"] = name
		} else {
			h["fs"] = fmt.Sprintf("%#x", st.Type)
		}
	}
	return h
}
