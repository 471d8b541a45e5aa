// Streaming: run the compressor as a goroutine stage between a live point
// source and a sink, the way a tracking daemon would, with a bounded
// channel as backpressure and live statistics. Also races BQS and FBQS side
// by side on the same stream.
package main

import (
	"fmt"
	"log"
	"slices"
	"sync"

	"github.com/trajcomp/bqs"
)

func main() {
	walk := bqs.GenerateWalk(bqs.DefaultWalkConfig(99))
	points := walk.Points()
	fmt.Printf("streaming %d synthetic points through BQS and FBQS...\n", len(points))

	type result struct {
		name string
		keys []bqs.Point
		st   bqs.Stats
	}
	results := make([]result, 2)

	var wg sync.WaitGroup
	compressors := []struct {
		name string
		c    *bqs.BQS
	}{
		{"BQS", mustBQS(bqs.NewBQS(10))},
		{"FBQS", mustBQS(bqs.NewFBQS(10))},
	}
	for i, entry := range compressors {
		wg.Add(1)
		go func(i int, name string, c *bqs.BQS) {
			defer wg.Done()
			in := make(chan bqs.Point, 256)
			done := make(chan []bqs.Point)
			// Sink collects finalized key points as they appear.
			go func() {
				var keys []bqs.Point
				for kp := range in {
					keys = append(keys, kp)
				}
				done <- keys
			}()
			// The compressor consumes the shared stream.
			for _, p := range points {
				if kp, ok := c.Push(p); ok {
					in <- kp
				}
			}
			if kp, ok := c.Flush(); ok {
				in <- kp
			}
			close(in)
			results[i] = result{name: name, keys: <-done, st: c.Stats()}
		}(i, entry.name, entry.c)
	}
	wg.Wait()

	for _, r := range results {
		worst, ok := bqs.ValidateErrorBound(points, r.keys, 10, bqs.MetricLine)
		fmt.Printf("%-5s kept %5d points (rate %.2f%%), pruning %.3f, worst dev %.2f m, bound ok: %v\n",
			r.name, len(r.keys), 100*float64(len(r.keys))/float64(len(points)),
			r.st.PruningPower(), worst, ok)
	}

	// The paper prices FBQS's constant space in extra points. Under the line
	// metric FBQS keeps BQS's key points (its tangent wedge decides what the
	// quadrant scan would), so on this walk that space costs none.
	fmt.Printf("FBQS kept the same key points as BQS: %v, in O(1) space\n",
		slices.Equal(results[0].keys, results[1].keys))
}

func mustBQS(c *bqs.BQS, err error) *bqs.BQS {
	if err != nil {
		log.Fatal(err)
	}
	return c
}
