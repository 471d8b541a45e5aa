// Package server puts the durable sharded ingestion engine behind a
// TCP listener speaking the proto frame protocol: batched fix frames
// in, ack/reject frames out, plus spatio-temporal window and per-device
// time-range queries answered by the engine — the log's records, then the
// trails no record holds yet (proto.Sync states the contract).
//
// Each tenant named in a connection's Hello maps to its own engine and
// sharded-log directory under Config.Dir, opened lazily on first use
// and flock-guarded by the log itself. Ingest uses the engine's
// non-blocking TryIngestTrail, which queues each device batch as the block
// the frame carried: a device batch that lands on a full shard
// queue is rejected in the ack with a retry-after hint — the server
// never buffers rejected fixes and an ingest frame never blocks its
// connection goroutine on a wedged persister. Sync and query frames do
// wait their turn in the shard queues.
package server

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

const (
	// DefaultRetryAfter is the base backpressure retry hint; the hint
	// scales up to 2x with the worst shard queue's occupancy.
	DefaultRetryAfter = 50 * time.Millisecond
	// DefaultDrainTimeout bounds how long Shutdown waits for in-flight
	// connections before force-closing them.
	DefaultDrainTimeout = 10 * time.Second
)

// validTenant admits one path component, the names
// [a-zA-Z0-9][a-zA-Z0-9._-]{0,63}: no separators, no dot-prefixed names
// (which also excludes "." and ".."), bounded length.
func validTenant(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		alnum := 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
		if !alnum && (i == 0 || c != '.' && c != '_' && c != '-') {
			return false
		}
	}
	return len(name) > 0 && len(name) <= 64
}

// Config parameterizes a Server.
type Config struct {
	// Dir is the root data directory; tenant <name> lives in Dir/<name>.
	Dir string
	// Engine is the per-tenant engine template. Persister and Shards
	// are overridden per tenant (the log's persisted shard count is
	// authoritative); everything else applies as-is.
	Engine engine.Config
	// Log is the per-tenant segment-log options template.
	Log segmentlog.Options
	// DrainTimeout bounds Shutdown's wait for in-flight connections.
	// Default DefaultDrainTimeout.
	DrainTimeout time.Duration
}

// tenantLog is the slice of segmentlog.ShardedLog the server consumes: the
// Persister it hands the tenant's engine (which appends to, reads and
// compacts it as a trajstore.Backend), the shard count, and /metrics'
// bookkeeping. Tests substitute it via openLog to wedge persistence.
type tenantLog interface {
	trajstore.Persister
	NumShards() int
	Stats() segmentlog.Stats
}

// openLog is the tenant-storage constructor; a test hook.
var openLog = func(dir string, shards int, opts segmentlog.Options) (tenantLog, error) {
	return segmentlog.OpenSharded(dir, shards, opts)
}

// tenant is one namespace: engine + log, opened at most once.
type tenant struct {
	name string
	once sync.Once
	eng  *engine.Engine
	log  tenantLog
	err  error
}

// Server serves the bqsd protocol over a listener.
type Server struct {
	cfg Config

	mu      sync.Mutex
	tenants map[string]*tenant
	conns   map[net.Conn]struct{}
	ln      net.Listener
	closing chan struct{} // closed by Shutdown, under mu: the server's whole lifecycle
	wg      sync.WaitGroup
}

// shuttingDown reports whether Shutdown has begun. Callers that must not
// race it — registering a listener, a connection or a tenant — hold s.mu.
func (s *Server) shuttingDown() bool {
	select {
	case <-s.closing:
		return true
	default:
		return false
	}
}

// New validates cfg and builds a Server. The engine template must be one
// engine.New accepts — compressor name, tolerance, the limits — which is
// proved by building a persister-less engine from it and closing it:
// failing here beats failing on every Hello.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("server: Config.Dir is required")
	}
	probe := cfg.Engine
	probe.Persister, probe.Shards = nil, 1
	eng, err := engine.New(probe)
	if err != nil {
		return nil, fmt.Errorf("server: Config.Engine: %w", err)
	}
	_ = eng.Close() // nothing was ingested and there is no persister to fail
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	return &Server{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		conns:   make(map[net.Conn]struct{}),
		closing: make(chan struct{}),
	}, nil
}

// Serve accepts connections on ln until Shutdown or a listener error.
// After Shutdown it returns nil.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shuttingDown() {
		s.mu.Unlock()
		_ = ln.Close() // server already shut down; nothing was served
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.shuttingDown() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.shuttingDown() {
			s.mu.Unlock()
			_ = conn.Close() // raced with Shutdown; nothing was written
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// tenant returns the namespace for name, opening engine + log on first
// use. The open runs outside s.mu (directory recovery can be slow);
// concurrent Hellos for the same tenant serialize on the tenant's once.
func (s *Server) tenant(name string) (*tenant, error) {
	if !validTenant(name) {
		return nil, fmt.Errorf("server: invalid tenant name %q", name)
	}
	s.mu.Lock()
	if s.shuttingDown() {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	t := s.tenants[name]
	if t == nil {
		t = &tenant{name: name}
		s.tenants[name] = t
	}
	s.mu.Unlock()
	t.once.Do(func() { t.open(s) })
	return t, t.err
}

func (t *tenant) open(s *Server) {
	lg, err := openLog(filepath.Join(s.cfg.Dir, t.name), s.cfg.Engine.Shards, s.cfg.Log)
	if err != nil {
		t.err = fmt.Errorf("server: open tenant %q: %w", t.name, err)
		return
	}
	ec := s.cfg.Engine
	ec.Shards = lg.NumShards() // the log's persisted count is authoritative
	ec.Persister = lg
	eng, err := engine.New(ec)
	if err != nil {
		_ = lg.Close() // engine construction failed; nothing was appended
		t.err = fmt.Errorf("server: engine for tenant %q: %w", t.name, err)
		return
	}
	t.eng, t.log = eng, lg
}

// retryMillis derives the backpressure hint: DefaultRetryAfter, scaled
// up to 2x by the worst shard queue's occupancy so a nearly-drained
// queue invites a quick retry and a pinned one backs clients off.
func retryMillis(eng *engine.Engine) uint32 {
	d := DefaultRetryAfter
	d += time.Duration(float64(d) * eng.QueueStats().Fullness())
	return uint32(d.Milliseconds())
}

// Shutdown drains and closes the server: stop accepting, abort idle
// connection reads, wait up to DrainTimeout for handlers, then flush
// sessions, sync, run a final compaction — the explicit pass, which leaves
// each log fully merged — and close every tenant. Later calls return nil.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.shuttingDown() {
		s.mu.Unlock()
		return nil
	}
	close(s.closing)
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		_ = ln.Close() // listeners carry no buffered writes
	}
	// Unpark readers waiting for the next frame; a response already
	// being written still goes out (the deadline only covers reads).
	for _, c := range conns {
		c.SetReadDeadline(time.Now()) //bqslint:ignore clockinject the deadline is compared by the kernel, not replayed by a test; the reader kick genuinely wants the wall clock
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close() // drain timed out; force-drop the stragglers
		}
		s.mu.Unlock()
		<-done
	}

	var errs []error
	for _, t := range s.openTenants() {
		fail := func(op string, err error) {
			if err != nil {
				errs = append(errs, fmt.Errorf("tenant %q: %s: %w", t.name, op, err))
			}
		}
		fail("flush", t.eng.FlushSessions())
		fail("sync", t.eng.Sync())
		fail("compact", t.eng.CompactNow())
		fail("close", t.eng.Close())
	}
	return errors.Join(errs...)
}

// Heal re-arms ingestion on every open tenant whose engine is degraded
// (see engine.Heal): the operator clears the underlying fault — frees
// disk space, remounts the volume — then calls Heal (bqsd: SIGHUP), and
// each engine re-probes its persister, drains the trajectories parked
// while degraded, and resumes accepting fixes. Tenants that were never
// degraded are no-ops; healed names the ones that were and no longer
// are. Per-tenant failures are joined; a tenant whose persister still
// fails stays degraded and can be healed again later.
func (s *Server) Heal() (healed []string, err error) {
	if s.shuttingDown() {
		return nil, ErrServerClosed
	}
	var errs []error
	for _, t := range s.openTenants() {
		was := t.eng.State().Cause != nil
		if err := t.eng.Heal(); err != nil {
			errs = append(errs, fmt.Errorf("tenant %q: heal: %w", t.name, err))
		} else if was {
			healed = append(healed, t.name)
		}
	}
	return healed, errors.Join(errs...)
}

// openTenants returns the tenants whose engine is open, in name order —
// so joined errors and scrapes are deterministic. Tenants still opening
// (or whose open failed) are skipped.
func (s *Server) openTenants() []*tenant {
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		if t.eng != nil {
			ts = append(ts, t)
		}
	}
	s.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	return ts
}

// handleConn owns one connection: Hello handshake, then a strict
// request/response loop. Any protocol violation gets an Error frame and
// the connection is dropped — resynchronizing a byte stream after a
// framing error is guesswork.
func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		_ = conn.Close() // responses are flushed per-frame before this runs
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()

	var buf, out []byte
	typ, payload, buf, err := proto.ReadFrame(conn, buf)
	if err != nil {
		return
	}
	if typ != proto.TypeHello {
		s.sendError(conn, "expected Hello")
		return
	}
	h, err := proto.ParseHello(payload)
	if err != nil {
		s.sendError(conn, err.Error())
		return
	}
	ack := proto.HelloAck{Version: proto.Version}
	var tn *tenant
	if h.Version != proto.Version {
		ack.Err = fmt.Sprintf("unsupported protocol version %d (want %d)", h.Version, proto.Version)
	} else if tn, err = s.tenant(h.Tenant); err != nil {
		ack.Err = err.Error()
	}
	if err := proto.WriteFrame(conn, proto.TypeHelloAck, proto.AppendHelloAck(out[:0], ack)); err != nil || ack.Err != "" {
		return
	}

	var frame proto.IngestFrame
	for {
		buf, out = shed(buf), shed(out)
		if cap(frame.Batches) > keepBatches {
			frame.Batches = nil
		}
		typ, payload, buf, err = proto.ReadFrame(conn, buf)
		if err != nil {
			return // EOF, drain deadline, or garbage framing — all terminal
		}
		switch typ {
		case proto.TypeIngest:
			if perr := frame.Walk(payload); perr != nil {
				s.sendError(conn, perr.Error())
				return
			}
			ack := s.ingest(tn, &frame)
			clear(frame.Batches) // the trails alias buf, which shed may drop
			out = proto.AppendIngestAck(out[:0], ack)
			if err := proto.WriteFrame(conn, proto.TypeIngestAck, out); err != nil {
				return
			}
		case proto.TypeSync:
			m, perr := proto.ParseSync(payload)
			if perr != nil {
				s.sendError(conn, perr.Error())
				return
			}
			ack := proto.SyncAck{Seq: m.Seq}
			serr := error(nil)
			if m.Flush {
				serr = tn.eng.FlushSessions()
			}
			if serr == nil {
				serr = tn.eng.Sync()
			}
			if serr != nil {
				ack.Err = serr.Error()
			}
			out = proto.AppendSyncAck(out[:0], ack)
			if err := proto.WriteFrame(conn, proto.TypeSyncAck, out); err != nil {
				return
			}
		case proto.TypeQueryWindow:
			q, perr := proto.ParseQueryWindow(payload)
			if perr != nil {
				s.sendError(conn, perr.Error())
				return
			}
			if !sendQuery(conn, q.Seq, func(visit func(trajstore.Block) error) error {
				return tn.eng.WindowBlocks(q.MinLon, q.MinLat, q.MaxLon, q.MaxLat, q.T0, q.T1, visit)
			}) {
				return
			}
		case proto.TypeQueryTime:
			q, perr := proto.ParseQueryTime(payload)
			if perr != nil {
				s.sendError(conn, perr.Error())
				return
			}
			if !sendQuery(conn, q.Seq, func(visit func(trajstore.Block) error) error {
				return tn.eng.DeviceBlocks(q.Device, q.T0, q.T1, visit)
			}) {
				return
			}
		default:
			s.sendError(conn, fmt.Sprintf("unexpected frame type %#x", typ))
			return
		}
	}
}

// ingest runs one walked Ingest frame through TryIngestTrail batch by batch.
// A device maps to exactly one shard, so each batch is accepted or rejected
// whole; rejected indices plus a retry hint go back in the ack. ack.Err is
// set only when a batch was refused for good (degraded engine, or closed) —
// the client learns the backend is sick now, not at the next Sync barrier.
// A failed background-compaction pass is not such a refusal: every fix was
// accepted and stays durable, so it shows in bqs_compact_failures_total and
// at Shutdown, never in an ack.
func (s *Server) ingest(tn *tenant, f *proto.IngestFrame) proto.IngestAck {
	ack := proto.IngestAck{Seq: f.Seq}
	for i := range f.Batches {
		b := &f.Batches[i]
		switch err := tn.eng.TryIngestTrail(b.Device, &b.Trail); {
		case err == nil:
			ack.Accepted += uint64(b.Trail.Len())
		case errors.Is(err, engine.ErrBackpressure):
			ack.Rejected = append(ack.Rejected, uint32(i))
		case errors.Is(err, engine.ErrDegraded):
			// Degraded read-only mode: the engine rejected the batch
			// whole and resends are futile until the fault clears, but
			// queries still answer. Flag it so the client stops retrying
			// instead of hammering a sick backend.
			ack.Degraded = true
			ack.Err = err.Error()
		default:
			ack.Err = err.Error() // engine closed
		}
	}
	if len(ack.Rejected) > 0 {
		ack.RetryAfterMillis = retryMillis(tn.eng)
	}
	if !ack.Degraded && tn.eng.State().Cause != nil {
		ack.Degraded = true // e.g. an empty Ingest frame used as a probe
	}
	return ack
}

// keepBuf is the most frame buffer a connection keeps between frames, and
// keepBatches (≈ 90 KiB) the most walked batches.
const keepBuf, keepBatches = 64 << 10, 1 << 10

// shed returns a connection's frame buffer for reuse, unless one large
// frame (they go up to proto.MaxFrame) grew it past keepBuf: a connection
// must not pin its high-water mark until it closes.
func shed(b []byte) []byte {
	if cap(b) > keepBuf {
		return nil
	}
	return b
}

// sendQuery answers one query. read streams the engine's matching blocks
// and each joins the answer as the slice the read handed over, behind a
// head proto.QueryRespWriter encodes: nothing is decoded or copied, and the
// frame leaves as net.Buffers (writev). At the record that takes the frame
// past proto.MaxFrame the read is stopped and the answer is an in-band
// error, as when the read itself fails; the connection stays usable either
// way. False means it is dead.
func sendQuery(conn net.Conn, seq uint64, read func(visit func(trajstore.Block) error) error) bool {
	w, n := proto.QueryRespWriter{Seq: seq}, 0
	err := read(func(blk trajstore.Block) error {
		if w.Block(blk.Device, blk.T0, blk.T1, blk.Payload) > proto.MaxFrame {
			return fmt.Errorf("result not sendable (over %d records): %w — narrow the window", n, proto.ErrFrameTooBig)
		}
		n++
		return nil
	})
	if err != nil {
		w = proto.QueryRespWriter{Seq: seq, Err: err.Error()}
	}
	_, err = w.WriteTo(conn)
	return err == nil
}

func (s *Server) sendError(conn net.Conn, msg string) {
	_ = proto.WriteFrame(conn, proto.TypeError, proto.AppendError(nil, proto.ErrorMsg{Err: msg}))
}
