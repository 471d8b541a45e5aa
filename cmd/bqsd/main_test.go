package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/server"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

func buildCmd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bqsd.bin")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// logBuffer collects the daemon's stderr; exec copies into it from its
// own goroutine while the test reads.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestDaemonLifecycle is the full smoke pass: start on an ephemeral
// port, ingest over the wire, flush + query, SIGHUP (the heal lever: a
// logged no-op on a healthy daemon, which keeps serving), SIGTERM-drain,
// then reopen the tenant's log directory and check it recovered clean and
// at rest: the drain's pass sealed the active segment, so every device
// written is one record — no two of its records chain.
func TestDaemonLifecycle(t *testing.T) {
	bin := buildCmd(t)
	dir := t.TempDir()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-dir", dir, "-tol", "2", "-trail", "16", "-compact-interval", "1h")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var logs logBuffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer cmd.Process.Kill()

	// First stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no address line: %v", sc.Err())
	}
	line := sc.Text()
	addr := line[strings.LastIndex(line, " ")+1:]
	if !strings.Contains(addr, ":") {
		t.Fatalf("cannot parse address from %q", line)
	}
	// The second announces /metrics, the line bench/ parses.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "bqsd: metrics on http://") {
		t.Fatalf("no metrics line: %q, %v", sc.Text(), sc.Err())
	}
	metricsURL := strings.TrimPrefix(sc.Text(), "bqsd: metrics on ")

	c, err := server.Dial(addr, "smoke")
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	keys := make([]trajstore.GeoKey, 40)
	for i := range keys {
		keys[i] = trajstore.GeoKey{
			Lat: float64(i%2) * 0.004,
			Lon: float64(i) * 0.0055,
			T:   1000 + uint32(i)*30,
		}
	}
	if _, err := c.IngestAll([]proto.DeviceBatch{{Device: "probe", Keys: keys}}, 10); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := c.Sync(true); err != nil {
		t.Fatalf("sync: %v", err)
	}
	recs, err := c.QueryTime("probe", 0, math.MaxUint32)
	if err != nil || len(recs) == 0 {
		t.Fatalf("query: %d records, err %v", len(recs), err)
	}
	w, err := c.QueryWindow(-1, -1, 1, 1, 0, math.MaxUint32)
	if err != nil || len(w) == 0 {
		t.Fatalf("window query: %d records, err %v", len(w), err)
	}

	// SIGHUP heals: nothing is degraded, so it only says so …
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatalf("signal: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(logs.String(), "SIGHUP — heal: parked trails written out and ingest resumed for tenants []"); {
		if time.Now().After(deadline) {
			t.Fatalf("no heal line after SIGHUP; the daemon logged:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// … and the daemon goes on taking fixes and answering queries.
	for i := range keys {
		keys[i].T += 40 * 30
	}
	if _, err := c.IngestAll([]proto.DeviceBatch{{Device: "probe", Keys: keys}}, 10); err != nil {
		t.Fatalf("ingest after SIGHUP: %v", err)
	}
	if err := c.Sync(true); err != nil {
		t.Fatalf("sync after SIGHUP: %v", err)
	}
	more, err := c.QueryTime("probe", 0, math.MaxUint32)
	if err != nil || len(more) <= len(recs) {
		t.Fatalf("query after SIGHUP: %d records (%d before), err %v", len(more), len(recs), err)
	}
	recs = more
	c.Close()

	// net/http's client reads /metrics off the daemon's own responder.
	resp, err := http.Get(metricsURL)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || !strings.Contains(string(body), `bqs_ingest_fixes_total{tenant="smoke"} 80`) {
		t.Fatalf("scrape: HTTP %d, err %v, body:\n%s", resp.StatusCode, err, body)
	}

	// A scrape in flight when SIGTERM lands is still answered: /metrics
	// stays up through the drain, and the daemon waits for it.
	scrapeConn, err := net.Dial("tcp", strings.TrimSuffix(strings.TrimPrefix(metricsURL, "http://"), "/metrics"))
	if err != nil {
		t.Fatalf("dial metrics: %v", err)
	}
	defer scrapeConn.Close()
	if _, err := scrapeConn.Write([]byte("GET /metrics HTTP/1.1\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}

	// SIGTERM must drain and exit 0 …
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(logs.String(), "draining"); {
		if time.Now().After(deadline) {
			t.Fatalf("no drain line after SIGTERM; the daemon logged:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := scrapeConn.Write([]byte("\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if answer, err := io.ReadAll(scrapeConn); err != nil || !bytes.HasPrefix(answer, []byte("HTTP/1.1 200 OK\r\n")) || !bytes.Contains(answer, []byte(`bqs_ingest_fixes_total{tenant="smoke"} 80`)) {
		t.Fatalf("scrape across the drain: err %v, answer:\n%s", err, answer)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited dirty: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	// … leaving a log directory that reopens without repair: the lock
	// is free, recovery truncates nothing, the data is still there.
	lg, err := segmentlog.OpenSharded(filepath.Join(dir, "smoke"), 0, segmentlog.Options{})
	if err != nil {
		t.Fatalf("reopen tenant log: %v", err)
	}
	defer lg.Close()
	if n := lg.Stats().Truncated; n != 0 {
		t.Fatalf("recovery truncated %d bytes after a clean drain", n)
	}
	// The wire answered 16-key chunks and two flushes' cuts, each starting
	// on the key point the last ended on; the drain left them joined.
	var want []trajstore.GeoKey
	for i, r := range recs {
		if i > 0 && r.Keys[0] != want[len(want)-1] {
			t.Fatalf("record %d of the wire's answer does not start where record %d ended", i, i-1)
		}
		want = append(want[:max(len(want)-1, 0)], r.Keys...)
	}
	if len(recs) < 5 {
		t.Fatalf("the wire answered %d records for 80 fixes chunked at 16 and flushed twice", len(recs))
	}
	for _, dev := range lg.Devices() {
		got, err := lg.Query(dev, 0, math.MaxUint32)
		if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0].Keys, want) {
			t.Fatalf("reopened log: %s has %d records, err %v; want one holding the wire's %d key points", dev, len(got), err, len(want))
		}
	}
}

func TestDaemonRequiresDir(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin).CombinedOutput()
	if err == nil {
		t.Fatalf("missing -dir accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "-dir is required") {
		t.Fatalf("unhelpful error:\n%s", out)
	}
}

// TestDaemonRefusesUnusableEngine: flags no tenant engine or log could be
// built from stop the daemon before it listens, instead of failing every
// Hello.
func TestDaemonRefusesUnusableEngine(t *testing.T) {
	bin := buildCmd(t)
	for _, c := range []struct {
		args []string
		want string // the template the error names
	}{
		{[]string{"-compressor", "nosuch"}, "Config.Engine"},
		{[]string{"-trail", "-5", "-idle", "-1s"}, "Config.Engine"},
		{[]string{"-compact-interval", "-1s"}, "Config.Log"},
	} {
		args := c.args
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		out, err := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0", "-dir", t.TempDir()}, args...)...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() <= 0 {
			t.Fatalf("bqsd %v: err = %v, want a non-zero exit (a kill by the timeout is the daemon running):\n%s", args, err, out)
		}
		if strings.Contains(string(out), "listening") || !strings.Contains(string(out), c.want) {
			t.Fatalf("bqsd %v listened, or did not say what was wrong:\n%s", args, out)
		}
	}
}
