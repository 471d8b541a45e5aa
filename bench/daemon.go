package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env locates the checkout the benchmark runs in. Everything the
// benchmark writes — the bqsd binary, data directories, daemon logs,
// result and trace files — goes under bench/out.
type env struct {
	root string // module root (holds go.mod)
	out  string // <root>/bench/out
	bin  string // built bqsd
}

func findEnv() (*env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "bqsd")); err == nil {
				break
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("bench: no module root with cmd/bqsd above the working directory; run from a checkout of the repository")
		}
		dir = parent
	}
	out := filepath.Join(dir, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	return &env{root: dir, out: out, bin: filepath.Join(out, "bqsd")}, nil
}

// build compiles cmd/bqsd from the checkout's source. With a warm build
// cache this is the go tool's staleness check, which is what set-up
// pays on every run.
func (e *env) build() error {
	cmd := exec.Command("go", "build", "-o", e.bin, "./cmd/bqsd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/bqsd: %v\n%s", err, out)
	}
	return nil
}

// daemon is one running bqsd process, seen only through its flags, its
// sockets and /proc.
type daemon struct {
	cmd        *exec.Cmd
	execAt     time.Time // just before exec
	addr       string
	metricsURL string
	exited     chan struct{}
	waitErr    error
	stdoutDone chan struct{}
}

// startDaemon execs bqsd on ephemeral ports and waits for both
// listeners to be announced. stderr (the daemon's log) is appended to
// logPath.
func startDaemon(bin, dataDir, logPath string, flags []string) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor after Start
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-dir", dataDir}, baseFlags...)
	args = append(args, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = pw, logf
	d := &daemon{cmd: cmd, exited: make(chan struct{}), stdoutDone: make(chan struct{}), execAt: time.Now()}
	if err := cmd.Start(); err != nil {
		_ = pr.Close() // nothing was started; the pipe carries nothing
		_ = pw.Close()
		return nil, err
	}
	_ = pw.Close() // the child's copy keeps the write end open until it exits
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	lines := make(chan string, 2) // the two listener announcements
	go func() {
		defer close(d.stdoutDone)
		defer pr.Close()
		r := bufio.NewReader(pr)
		for n := 0; ; n++ {
			line, err := r.ReadString('\n')
			if n < 2 && line != "" {
				lines <- strings.TrimSpace(line)
			}
			if err != nil {
				close(lines)
				return
			}
		}
	}()
	for d.addr == "" || d.metricsURL == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				d.kill()
				return nil, fmt.Errorf("bqsd exited before announcing its listeners (see %s)", logPath)
			}
			switch {
			case strings.HasPrefix(line, "bqsd: listening on "):
				d.addr = strings.TrimPrefix(line, "bqsd: listening on ")
			case strings.HasPrefix(line, "bqsd: metrics on "):
				d.metricsURL = strings.TrimPrefix(line, "bqsd: metrics on ")
			}
		case <-time.After(30 * time.Second):
			d.kill()
			return nil, errors.New("bqsd did not announce its listeners within 30s")
		}
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// wait blocks until the process has exited and its stdout is drained.
func (d *daemon) wait(timeout time.Duration) error {
	select {
	case <-d.exited:
		<-d.stdoutDone
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("bqsd (pid %d) still running after %v", d.pid(), timeout)
	}
}

// term drains the daemon with SIGTERM; a clean drain exits 0.
func (d *daemon) term() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := d.wait(60 * time.Second); err != nil {
		d.kill()
		return err
	}
	if d.waitErr != nil {
		return fmt.Errorf("bqsd drain: %w", d.waitErr)
	}
	return nil
}

// kill is SIGKILL: no drain, no flush. Safe on an exited process.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already-exited is the only failure and is fine
	_ = d.wait(30 * time.Second)
}

// scrape fetches /metrics and returns the bench tenant's samples by
// family name.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.metricsURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	label := fmt.Sprintf("{tenant=%q} ", tenant)
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, label)
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %v", line, err)
		}
		out[name] = v
	}
	return out, nil
}

// procStat is the daemon's resource use from /proc/<pid>.
type procStat struct {
	cpuSeconds float64 // utime + stime
	writeBytes float64 // /proc/<pid>/io write_bytes
	syscw      float64 // write syscalls
	hwmMiB     float64 // VmHWM
}

const clockTick = 100.0 // USER_HZ; fixed at 100 on every Linux ABI Go supports

func (d *daemon) proc() (procStat, error) {
	var ps procStat
	base := fmt.Sprintf("/proc/%d/", d.pid())
	stat, err := os.ReadFile(base + "stat")
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the full line, 12 and 13 after the ")".
	rest := string(stat)[strings.LastIndexByte(string(stat), ')')+1:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("unparseable %sstat", base)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("unparseable %sstat", base)
	}
	ps.cpuSeconds = (ut + st) / clockTick
	io, err := os.ReadFile(base + "io")
	if err != nil {
		return ps, err
	}
	ps.writeBytes = procField(string(io), "write_bytes:")
	ps.syscw = procField(string(io), "syscw:")
	status, err := os.ReadFile(base + "status")
	if err != nil {
		return ps, err
	}
	ps.hwmMiB = procField(string(status), "VmHWM:") / 1024 // kB
	return ps, nil
}

// procField returns the first number after key in a /proc key-value
// file, 0 when absent.
func procField(text, key string) float64 {
	i := strings.Index(text, key)
	if i < 0 {
		return 0
	}
	f := strings.Fields(text[i+len(key):])
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
