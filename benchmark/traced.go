package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// runTraced produces the per-layer metrics of one workload from two
// sources. (A) From outside: one boot and a single-client window a
// third of dur long, read through response fields, /metrics deltas and
// /proc — single-client so that a class's p50 is comparable with the
// replay. (B) The traced replay and the corpus-only layer measurements,
// in-process. The end-to-end metrics are never taken from this run.
func (e *env) runTraced(w *workload, dur time.Duration) (*result, error) {
	res := &result{workload: w.name, traced: true, metrics: make(map[string]float64)}
	for _, d := range perLayer {
		res.metrics[d.name] = 0
	}
	var t tally
	m := res.metrics

	// (A) the daemon, from outside.
	d, _, err := e.boot(w, &t)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	win, err := runWindow(e.ctx, d, w, dur/3, 0, nil)
	if err != nil {
		return nil, err
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	if m["store.private_rss_mb"], err = d.privateRSS(); err != nil {
		return nil, err
	}
	res.invalid = cacheAssumption(w, before, after)
	bodies := checkWindow(w, win, &t)
	e.verifySample(d, w, &t)
	d.stop() // the replay below should not share the cores with an idle daemon's GC

	classLat := make(map[int][]float64)
	classTook := make(map[int][]float64)
	var httpSelf []float64
	var n, bytesSum, matches, ops, pruned, prunedRemote, answers float64
	for i, s := range win.samples {
		b := bodies[i]
		if b == nil {
			continue
		}
		lat := float64(s.latNS) / 1e6
		classLat[s.class] = append(classLat[s.class], lat)
		classTook[s.class] = append(classTook[s.class], b.TookMS)
		httpSelf = append(httpSelf, lat-b.TookMS)
		n++
		bytesSum += float64(len(s.body))
		matches += float64(b.Matches)
		ops += float64(b.ServerOps)
		pruned += float64(b.Pruned)
		prunedRemote += float64(b.PrunedRemote)
		answers += float64(len(b.Answers))
	}
	if n == 0 {
		return nil, fmt.Errorf("%s: the traced window has no correct response", w.name)
	}
	classP50 := make(map[int]float64, len(classLat))
	var p50s, tooks []float64
	for ci, lats := range classLat {
		classP50[ci] = median(lats)
		p50s = append(p50s, classP50[ci])
		tooks = append(tooks, median(classTook[ci]))
		if w.warmup {
			m[classMetric(w.classes[ci].name)] = classP50[ci]
		}
	}
	m["whirlpoold.http_self_ms"] = median(httpSelf)
	m["whirlpoold.response_bytes"] = bytesSum / n
	m["whirlpoold.single_client_p50_ms"] = mean(p50s)
	m["core.took_ms"] = mean(tooks)
	m["core.matches_created"] = matches / n
	m["core.server_ops"] = ops / n
	m["core.pruned"] = pruned / n
	m["core.matches_per_answer"] = ratio(matches, answers)
	m["core.prune_ratio"] = ratio(pruned, matches)

	hits := float64(delta(before, after, "whirlpoold_engine_cache_hits_total"))
	misses := float64(delta(before, after, "whirlpoold_engine_cache_misses_total"))
	m["whirlpoold.engine_cache_hit_ratio"] = ratio(hits, hits+misses)
	planHits := float64(delta(before, after, "whirlpoold_plan_cache_hits_total"))
	planMisses := float64(delta(before, after, "whirlpoold_plan_cache_misses_total"))
	m["planner.hit_ratio"] = ratio(planHits, planHits+planMisses)
	m["planner.evictions"] = float64(delta(before, after, "whirlpoold_plan_cache_evictions"))
	m["planner.daemon_planning_us"] = histMean(before, after, "whirlpoold_planning_duration_us")

	// The whirlpool_shard_* series exist on a sharded daemon only.
	m["shard.steals"] = float64(delta(before, after, "whirlpool_shard_steal_batches_total")) / n
	m["shard.stolen_matches"] = float64(delta(before, after, "whirlpool_shard_steals_total")) / n
	m["shard.pruned_remote_ratio"] = ratio(prunedRemote, pruned)
	m["shard.skew"] = float64(after.value["whirlpool_shard_skew_permille"]) / 1000
	m["shard.workers_peak"] = float64(after.value["whirlpool_shard_workers_peak"])
	m["shard.merge_us"] = histMean(before, after, "whirlpool_shard_merge_duration_us")
	m["shard.run_ms"] = histMean(before, after, "whirlpool_shard_run_duration_us") / 1000

	// (B) in-process: the replay, then the corpus-only layers.
	rs, err := e.replay(w, dur/3, filepath.Join(e.outDir, "spans-"+w.name+".jsonl"))
	if err != nil {
		return nil, err
	}
	m["whirlpoold.decode_us"] = rs.stage[spanDecode] / 1e3
	m["whirlpoold.render_us"] = rs.stage[spanRender] / 1e3
	m["whirlpoold.encode_us"] = rs.stage[spanEncode] / 1e3
	m["pattern.parse_us"] = rs.stage[spanParse] / 1e3
	m["pattern.canonical_key_us"] = rs.canonicalKeyUS
	m["planner.plan_miss_us"] = rs.stage[spanPlanMiss] / 1e3
	m["planner.plan_hit_us"] = rs.stage[spanPlanHit] / 1e3
	m["core.engine_build_us"] = rs.stage[spanEngineBuild] / 1e3
	m["core.run_ms"] = rs.stage[spanRun] / 1e6
	m["core.seed_ms"], m["core.step_ms"], m["core.finish_ms"] = rs.seedMS, rs.stepMS, rs.finishMS
	m["core.join_comparisons"] = rs.joinComparisons
	m["core.peak_queue_depth"] = rs.peakQueueDepth
	m["core.threshold_updates"] = rs.thresholdRises
	m["core.ns_per_server_op"] = ratio(rs.runNS, rs.totalServerOps)
	m["core.allocs_per_run"] = rs.allocsPerRun
	m["core.bytes_per_run"] = rs.bytesPerRun
	m["trace.overhead_ratio"] = ratio(rs.tracedMS, rs.untracedMS)

	// The reported gap of ROADMAP aim 1, over the classes both sides saw:
	// as a mean, as a share of the daemon's time, and for the worst class
	// (which needs a quiet host or ten samples a class to mean anything).
	var gaps []float64
	var gapSum, p50Sum, maxRatio float64
	for ci, sum := range rs.classSum {
		p50, seen := classP50[ci]
		if !seen {
			continue
		}
		gaps = append(gaps, p50-sum)
		gapSum += p50 - sum
		p50Sum += p50
		maxRatio = math.Max(maxRatio, math.Abs(p50-sum)/p50)
	}
	m["whirlpoold.unattributed_ms"] = mean(gaps)
	m["whirlpoold.unattributed_ratio"] = ratio(math.Abs(gapSum), p50Sum)
	m["whirlpoold.unattributed_max_ratio"] = maxRatio

	ls, err := e.layers()
	if err != nil {
		return nil, err
	}
	m["xmltree.parse_ms"] = ls.parseMS
	m["index.build_ms"] = ls.indexBuildMS
	m["synopsis.build_ms"] = ls.synopsisBuildMS
	m["index.probe_ns"], m["index.candidates_per_probe"], m["index.probe_allocs"] = ls.indexProbe.ns, ls.indexProbe.candidates, ls.indexProbe.allocs
	m["store.snapshot_write_ms"] = ls.snapshotWriteMS
	m["store.snapshot_bytes_per_doc_byte"] = ls.snapshotBytesPerDocByte
	m["store.open_ms"], m["store.first_query_ms"] = ls.openMS, ls.firstQueryMS
	m["store.probe_ns"] = ls.storeProbe.ns
	m["shard.work_ratio"] = ls.workRatio
	m["shard.split_ms"] = ls.splitMS
	m["shard.probe_ns"] = ls.shardProbe.ns

	res.notes = append(res.notes, fmt.Sprintf(
		"daemon window: %d single-client requests in %.2fs; replay: %.0f ms traced, %.0f ms untraced over the same classes; spans in %s",
		len(win.samples), win.wall.Seconds(), rs.tracedMS, rs.untracedMS, filepath.Join("benchmark", "out", "spans-"+w.name+".jsonl")))
	res.attempted, res.failed, res.failures = t.attempted, t.failed, t.failures
	return res, nil
}

// ratio is a/b, 0 when there is no base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
