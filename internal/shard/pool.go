package shard

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// LastRunWorkers reports the most recent run's pool geometry: the
// worker bound it resolved, min(GOMAXPROCS, shards), and the peak
// number of worker goroutines observed running concurrently. Peak can
// never exceed the bound; the regression test for the old
// one-goroutine-per-shard fan-out pins both. Values are per-Engines and
// last-writer-wins under concurrent runs — a diagnostic, not a
// synchronization point.
func (e *Engines) LastRunWorkers() (bound, peak int) {
	return int(e.lastWorkers.Load()), int(e.lastPeak.Load())
}

// runPooled evaluates a sharded query on a pool of min(GOMAXPROCS,
// shards) workers. Each worker claims the next unstarted shard from an
// atomic index, opens that root range's run (core.NewShardRun), drives
// it to done on its own goroutine and finishes it, until no shard is
// left; every run offers into and prunes against the one shared top-k
// set. A shard's run therefore has one stepper, and is as exclusive as a
// RunContext: plain queue, unlocked arena, plain counters. Once the
// context is cancelled no further shard is claimed. It returns the
// per-shard stats and the peak number of workers running at once.
func (e *Engines) runPooled(ctx context.Context, shared *core.SharedTopK) ([]core.Stats, int64, error) {
	workers := max(min(runtime.GOMAXPROCS(0), e.p), 1)
	stats := make([]core.Stats, e.p)
	errs := make([]error, e.p)
	var next, running atomic.Int64
	var peak obs.Gauge
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			peak.Max(running.Add(1))
			defer running.Add(-1)
			for s := int(next.Add(1)) - 1; s < e.p && ctx.Err() == nil; s = int(next.Add(1)) - 1 {
				pr, err := e.eng.NewShardRun(ctx, shared, s, e.p)
				if err != nil {
					errs[s] = err
					continue
				}
				pr.Drive()
				stats[s], errs[s] = pr.Finish()
			}
		}()
	}
	wg.Wait()

	e.lastWorkers.Store(int64(workers))
	e.lastPeak.Store(peak.Value())
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return stats, peak.Value(), nil
}
