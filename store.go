package bqs

import (
	"github.com/trajcomp/bqs/internal/device"
	"github.com/trajcomp/bqs/internal/trajstore"
)

// Historical trajectory storage (the paper's Section V-F maintenance
// procedures) and the Camazotz device model behind Table II.

// Store is the on-device historical trajectory database with
// error-bounded merging and ageing. Obtain one with NewStore. It is a
// library of its own: the ingestion Engine keeps its history in the
// Persister, not in a Store, so to put merge-tolerance storage behind
// an engine feed a Store from EngineConfig.OnKey (examples/fleet).
type Store = trajstore.Store

// StoreConfig parameterizes a Store.
type StoreConfig = trajstore.Config

// StoredSegment is one stored compressed segment with merge bookkeeping.
type StoredSegment = trajstore.Segment

// GeoKey is a key point in the wire's geographic coordinates: degrees on
// a 1e-7° lattice and whole seconds.
type GeoKey = trajstore.GeoKey

// NewStore returns an empty trajectory store.
func NewStore(cfg StoreConfig) (*Store, error) { return trajstore.NewStore(cfg) }

// DeltaEncodeTrajectory serializes key points with zig-zag varint deltas —
// the block the durable log stores, about 6–8 bytes a key point against
// the paper's 12 per sample.
func DeltaEncodeTrajectory(keys []GeoKey) ([]byte, error) {
	return trajstore.DeltaEncode(keys)
}

// DeltaDecodeTrajectory inverts DeltaEncodeTrajectory.
func DeltaDecodeTrajectory(b []byte) ([]GeoKey, error) {
	return trajstore.DeltaDecode(b)
}

// StorageModel is the tracker's flash budget model; its OperationalDays
// reproduces Table II of the paper.
type StorageModel = device.StorageModel

// EnergyModel is the duty-cycle energy budget extension.
type EnergyModel = device.EnergyModel

// DefaultStorageModel returns the paper's Table II setup: 50 KB GPS
// budget, 12 bytes per sample, one sample per minute.
func DefaultStorageModel() StorageModel { return device.DefaultStorageModel() }

// DefaultEnergyModel returns Camazotz-class energy numbers.
func DefaultEnergyModel() EnergyModel { return device.DefaultEnergyModel() }
