// Durable: the restartable fleet server. Phase 1 ingests a fleet through
// a durable engine whose finalized sessions land in an append-only,
// CRC-checksummed segment log. Phase 2 simulates a crash by chopping
// bytes off the log's tail. Phase 3 reopens the directory — recovery
// truncates the torn record, keeps everything synced before it — and
// answers device/time-range queries straight from disk, then resumes
// ingesting into the same log.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/trajcomp/bqs"
)

const (
	devices  = 20
	fixesPer = 200
)

func main() {
	dir, err := os.MkdirTemp("", "bqs-durable-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Phase 1: durable ingest. Close flushes every session into the log.
	e, err := bqs.OpenDurableEngine(dir, bqs.EngineConfig{
		Compressor: "fbqs",
		Tolerance:  10,
		Shards:     4,
	})
	if err != nil {
		log.Fatal(err)
	}
	for d := 0; d < devices; d++ {
		cfg := bqs.DefaultWalkConfig(int64(d) + 1)
		cfg.N = fixesPer
		id := fmt.Sprintf("bat-%03d", d)
		for _, p := range bqs.GenerateWalk(cfg).Points() {
			if err := e.Ingest([]bqs.Fix{{Device: id, Point: p}}); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := e.Close(); err != nil {
		log.Fatal(err)
	}
	s := e.Stats()
	fmt.Printf("ingested %d fixes, persisted %d trajectories (%d key points)\n",
		s.Fixes, s.Persisted, s.KeyPoints)

	// Phase 2: crash. Tear the last 11 bytes off the newest segment —
	// the tail record is now incomplete, exactly what a power cut
	// mid-write leaves behind. The durable engine stripes the log one
	// subdirectory per shard, so the torn file lives under shard-NNN/.
	segs, err := filepath.Glob(filepath.Join(dir, "shard-*", "seg-*.log"))
	if err != nil || len(segs) == 0 {
		log.Fatalf("no segment files: %v", err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-11); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated crash: tore 11 bytes off %s\n", filepath.Base(last))

	// Phase 3: reopen. Only the torn shard re-scans; the torn record is
	// dropped and every other trajectory survives byte-identically.
	lg, err := bqs.OpenShardedSegmentLog(dir, 0, bqs.SegmentLogOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ls := lg.Stats()
	fmt.Printf("recovered: %d trajectories intact, %d torn bytes dropped\n",
		ls.Records, ls.Truncated)

	// Query the recovered log from disk: where was bat-007?
	recs, err := lg.Query("bat-007", 0, ^uint32(0))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range recs {
		fmt.Printf("bat-007: %d key points over time [%d, %d], first at (%.7f, %.7f)\n",
			len(r.Keys), r.T0, r.T1, r.Keys[0].Lat, r.Keys[0].Lon)
	}
	if err := lg.Close(); err != nil {
		log.Fatal(err)
	}

	// The same directory keeps serving: a restarted engine appends after
	// the recovered prefix.
	e2, err := bqs.OpenDurableEngine(dir, bqs.EngineConfig{Compressor: "fbqs", Tolerance: 10, Shards: 2})
	if err != nil {
		log.Fatal(err)
	}
	cfg := bqs.DefaultWalkConfig(777)
	cfg.N = 50
	for _, p := range bqs.GenerateWalk(cfg).Points() {
		if err := e2.Ingest([]bqs.Fix{{Device: "bat-new", Point: p}}); err != nil {
			log.Fatal(err)
		}
	}
	if err := e2.Close(); err != nil {
		log.Fatal(err)
	}
	lg2, err := bqs.OpenShardedSegmentLog(dir, 0, bqs.SegmentLogOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer lg2.Close()
	fmt.Printf("after restart: %d trajectories from %d devices on disk\n",
		lg2.Stats().Records, lg2.Stats().Devices)
}
