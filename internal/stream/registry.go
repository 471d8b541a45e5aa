package stream

import (
	"fmt"
	"sort"
	"sync"

	"github.com/trajcomp/bqs/internal/core"
)

// Factory constructs a Compressor with the given deviation tolerance in
// metres. Factories are registered under a name with Register and looked
// up with New, so compressors are constructible from configuration
// strings ("fbqs", "dr", ...) without the caller importing the
// implementing package.
type Factory func(tolerance float64) (Compressor, error)

// ErrUnknownCompressor reports a New call with an unregistered name.
var ErrUnknownCompressor = fmt.Errorf("stream: unknown compressor")

// ErrDuplicateCompressor reports a Register call with an already-taken
// name.
var ErrDuplicateCompressor = fmt.Errorf("stream: compressor already registered")

// ErrNilFactory reports a Register call with a nil factory.
var ErrNilFactory = fmt.Errorf("stream: nil compressor factory")

// entry is one registered name: how to build it, and what its tolerance
// bounds — the worst a track strays from what the key points the compressor
// made of it say.
type entry struct {
	factory   Factory
	deviation func(orig, keys []core.Point) float64
}

// polyline is the bound a name states unless its registration says
// otherwise: the line distance to the polyline's time-matched segment.
func polyline(orig, keys []core.Point) float64 {
	return core.Deviation(orig, keys, core.MetricLine.Dist)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]entry)
)

// Register makes a compressor constructible by name. Names are
// case-sensitive and must be non-empty; registering a name twice is an
// error (the first registration wins). Safe for concurrent use.
func Register(name string, f Factory) error { return register(name, f, polyline) }

func register(name string, f Factory, deviation func(orig, keys []core.Point) float64) error {
	if f == nil {
		return fmt.Errorf("%w: %q", ErrNilFactory, name)
	}
	if name == "" {
		return fmt.Errorf("stream: empty compressor name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateCompressor, name)
	}
	registry[name] = entry{f, deviation}
	return nil
}

// New constructs a registered compressor by name. The error distinguishes
// an unknown name (ErrUnknownCompressor, listing the registered names)
// from a factory failure (e.g. an invalid tolerance).
func New(name string, tolerance float64) (Compressor, error) {
	ent, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return ent.factory(tolerance)
}

func lookup(name string) (entry, error) {
	regMu.RLock()
	ent, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return ent, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownCompressor, name, Names())
	}
	return ent, nil
}

// Deviation measures what the named compressor's tolerance bounds: how far
// the track orig strays, at worst, from what keys — the key points that
// compressor made of it, which for "fbqs" are snapped grid points, not
// fixes — say. Every registered name is held to
// Deviation(name, orig, Compress(c, orig)) ≤ tolerance; DESIGN.md's "The
// contract" has the distance behind each name.
func Deviation(name string, orig, keys []core.Point) (float64, error) {
	ent, err := lookup(name)
	if err != nil {
		return 0, err
	}
	return ent.deviation(orig, keys), nil
}

// Names returns the registered compressor names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Resetter is implemented by compressors whose state can be cleared for
// reuse without reallocation; the ingestion engine pools such compressors
// across device sessions.
type Resetter interface {
	Reset()
}
