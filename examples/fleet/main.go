// Fleet: serve a whole fleet of trackers with the sharded ingestion
// engine — the server-side counterpart of the on-device compressor. Many
// producer goroutines (think gateway connections) batch fixes from
// hundreds of devices into one engine; each device gets its own
// compressor session and idle devices are evicted with a final flush.
// This engine has no Persister, so it keeps no history itself: its
// output is OnKey, and the example feeds that into a Store it owns — the
// paper's Section V-F database with error-bounded merging — which is how
// to put merge-tolerance storage behind an engine.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/trajcomp/bqs"
)

const (
	devices   = 500
	gateways  = 8 // concurrent producer goroutines
	fixesPer  = 400
	tolerance = 10 // metres
)

func main() {
	store, err := bqs.NewStore(bqs.StoreConfig{MergeTolerance: 5})
	if err != nil {
		log.Fatal(err)
	}
	// Consecutive key points of a device form one stored segment. OnKey
	// is called from the shard workers — concurrently for distinct
	// devices, in order for one — and the Store is safe for concurrent use.
	var last sync.Map // device → its previous key point
	e, err := bqs.NewEngine(bqs.EngineConfig{
		Compressor:  "fbqs", // any registered name: bqs.CompressorNames()
		Tolerance:   tolerance,
		Shards:      4,
		IdleTimeout: 30 * time.Second,
		OnKey: func(device string, kp bqs.Point) {
			if prev, ok := last.Swap(device, kp); ok {
				store.Insert(prev.(bqs.Point), kp)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ingesting %d devices × %d fixes via %d gateways (registered compressors: %v)\n",
		devices, fixesPer, gateways, bqs.CompressorNames())

	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < gateways; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each gateway owns a slice of the fleet: per-device
			// trajectories from the paper's synthetic walk model,
			// reported in batched, interleaved arrival order.
			var ids []string
			var tracks [][]bqs.Point
			for d := g; d < devices; d += gateways {
				cfg := bqs.DefaultWalkConfig(int64(d))
				cfg.N = fixesPer
				ids = append(ids, fmt.Sprintf("bat-%03d", d))
				tracks = append(tracks, bqs.GenerateWalk(cfg).Points())
			}
			batch := make([]bqs.Fix, 0, len(ids))
			for i := 0; i < fixesPer; i++ {
				batch = batch[:0]
				for j := range ids {
					batch = append(batch, bqs.Fix{Device: ids[j], Point: tracks[j][i]})
				}
				if err := e.Ingest(batch); err != nil {
					log.Fatal(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := e.Close(); err != nil { // flushes every session
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	s := e.Stats()
	fmt.Printf("ingested %d fixes in %v (%.0f fixes/s)\n",
		s.Fixes, elapsed.Round(time.Millisecond), float64(s.Fixes)/elapsed.Seconds())
	fmt.Printf("sessions: %d opened, %d active after close\n", s.SessionsOpened, s.ActiveSessions)
	fmt.Printf("compressed to %d key points (rate %.4f)\n", s.KeyPoints, s.CompressionRate())
	_, merged := store.Stats()
	fmt.Printf("store: %d segments (%d merged as duplicates), %.1f KiB wire format\n",
		store.Len(), merged, float64(store.StorageBytes())/1024)

	// The store answers fleet-wide queries: who crossed this rectangle?
	hits := store.Query(4000, 4000, 6000, 6000)
	fmt.Printf("central 2 km × 2 km window intersects %d stored segments\n", len(hits))
}
