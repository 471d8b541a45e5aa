package bqs

import (
	"github.com/trajcomp/bqs/internal/engine"
	"github.com/trajcomp/bqs/internal/stream"
)

// Ingestion engine: the server-side counterpart of the on-device
// compressors. An Engine manages thousands of concurrent device
// sessions, routing fixes to shard workers by a hash of the device ID so
// each device's stream is compressed in arrival order by exactly one
// goroutine, with key points flowing to EngineConfig.OnKey and, as
// trails, into the Persister (see OpenDurableEngine) — the one place
// history is kept. FlushSessions hands every open trail over without
// ending a trajectory: a device's next fix continues from the key point
// the flush ended on, so a flush costs at most one key point per device
// and compaction re-joins the records. Without a Persister the engine is a pure
// compressor fan-out: OnKey is its output and QueryWindow returns
// ErrNoPersister.
//
//	e, err := bqs.NewEngine(bqs.EngineConfig{Compressor: "fbqs", Tolerance: 10})
//	if err != nil { ... }
//	defer e.Close()
//	err = e.Ingest([]bqs.Fix{{Device: "bat-7", Point: p}})

// Fix is one device observation to ingest.
type Fix = engine.Fix

// Engine is the sharded, goroutine-safe ingestion engine.
type Engine = engine.Engine

// EngineConfig parameterizes NewEngine; see the field docs in
// internal/engine.
type EngineConfig = engine.Config

// EngineStats is a merged snapshot of engine activity.
type EngineStats = engine.Stats

// ErrEngineClosed reports an operation on a closed engine.
var ErrEngineClosed = engine.ErrClosed

// ErrNoPersister reports Engine.QueryWindow on an engine built without a
// Persister: it keeps no history to query.
var ErrNoPersister = engine.ErrNoPersister

// NewEngine returns a started ingestion engine; Close it to flush every
// session and stop the shard workers.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// Compressor registry: streaming compressors are constructible by
// configuration string. The built-in names are "bqs", "fbqs", "dr"
// (dead reckoning), "timesensitive", "bdp" and "bgd"; RegisterCompressor
// adds custom ones, which the Engine can then run by name. "fbqs" ends
// each segment at a point of a grid of step ε/5 within ε of its last fix,
// so its keys are not all fixes: NewFBQS's are.

// RegisterCompressor makes a compressor constructible by name (e.g. for
// EngineConfig.Compressor). Registering an existing name is an error.
func RegisterCompressor(name string, factory func(tolerance float64) (StreamCompressor, error)) error {
	return stream.Register(name, factory)
}

// NewNamedCompressor constructs a registered compressor by name: "fbqs"
// returns snapped key points, grid points that keep the bound, where
// NewFBQS returns fixes.
func NewNamedCompressor(name string, tolerance float64) (StreamCompressor, error) {
	return stream.New(name, tolerance)
}

// CompressorNames returns the registered compressor names, sorted.
func CompressorNames() []string { return stream.Names() }
