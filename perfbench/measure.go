package main

import (
	"runtime"
	"time"

	"adaptix"
)

// setups is how many times a round builds its index: setup_s is the
// median build time, and the last build is the one the round measures.
const setups = 7

// setUp calls build setups times, each after a collection so every
// build starts from the same heap, hands all but the last result to
// discard, and sets setup_s to the median of the times build reports.
func setUp[T any](rc *roundCtx, build func() (T, time.Duration, error), discard func(T)) (T, error) {
	times := make([]float64, setups)
	var x T
	for k := range times {
		if k > 0 {
			discard(x)
		}
		runtime.GC()
		var took time.Duration
		var err error
		x, took, err = build()
		if err != nil {
			return x, err
		}
		times[k] = took.Seconds()
	}
	rc.m["setup_s"] = median(times)
	return x, nil
}

// count is the number of operations in a dealt schedule.
func count(sched [][]op) int {
	n := 0
	for _, s := range sched {
		n += len(s)
	}
	return n
}

// checkExact counts every operation and fails each read whose answer
// differs from the reference, and each failed call.
func checkExact(rc *roundCtx, ref *reference, sched [][]op, recs [][]rec) {
	for c := range sched {
		for i, o := range sched[c] {
			r := recs[c][i]
			rc.attempted++
			switch {
			case r.err != nil:
				rc.fail(1, "%s [%d,%d): %v", spanNames[0][o.kind], o.lo, o.hi, r.err)
			case o.isRead():
				if want := ref.answer(o); r.got != want {
					rc.fail(1, "%s [%d,%d) = %d, want %d", spanNames[0][o.kind], o.lo, o.hi, r.got, want)
				}
			}
		}
	}
}

// stats reads Index.Stats inside a span.
func stats(rc *roundCtx, ix *adaptix.Index) adaptix.Stats {
	sp := rc.tr.begin("stats", rc.root)
	defer sp.end()
	return ix.Stats()
}

// sumRefine is the mean engine-side refinement time per read, in µs.
func sumRefine(sched [][]op, recs [][]rec) float64 {
	var total time.Duration
	var n int
	for c := range sched {
		for i, o := range sched[c] {
			if o.isRead() {
				total += recs[c][i].res.Refine
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return usD(total) / float64(n)
}

// latencies sets the read and write latency quantiles of a
// closed-loop phase, with their sample counts.
func latencies(rc *roundCtx, sched [][]op, recs [][]rec) {
	var reads, writes []int64
	for c := range sched {
		for i, o := range sched[c] {
			d := recs[c][i].end - recs[c][i].start
			if o.isRead() {
				reads = append(reads, d)
			} else {
				writes = append(writes, d)
			}
		}
	}
	setLatency(rc, "read", reads)
	if len(writes) > 0 {
		setLatency(rc, "write", writes)
	}
}

// setLatency sets <kind>_p50_us, _p90_us, _p99_us and _samples.
func setLatency(rc *roundCtx, kind string, ns []int64) {
	rc.m[kind+"_samples"] = float64(len(ns))
	rc.m[kind+"_p50_us"] = us(quantile(ns, 0.50))
	rc.m[kind+"_p90_us"] = us(quantile(ns, 0.90))
	rc.m[kind+"_p99_us"] = us(quantile(ns, 0.99))
}

// engineMetrics derives the latch, shard and epoch metrics from the
// per-query cost breakdown of in-process reads.
func engineMetrics(rc *roundCtx, sched [][]op, recs [][]rec) {
	var wait time.Duration
	var conflicts int64
	var crit, depth []int64
	for c := range sched {
		for i, o := range sched[c] {
			if !o.isRead() {
				continue
			}
			r := recs[c][i]
			wait += r.res.Wait
			conflicts += r.res.Conflicts
			crit = append(crit, int64(r.res.Critical))
			depth = append(depth, int64(r.res.Epochs))
		}
	}
	n := float64(len(crit))
	if n == 0 {
		return
	}
	rc.m["latch.wait_us_per_q"] = usD(wait) / n
	rc.m["latch.conflicts_per_q"] = float64(conflicts) / n
	rc.m["shard.critical_p50_us"] = us(quantile(crit, 0.50))
	rc.m["shard.critical_p99_us"] = us(quantile(crit, 0.99))
	rc.m["epoch.depth_p50"] = float64(quantile(depth, 0.50))
	rc.m["epoch.depth_max"] = float64(quantile(depth, 1))
}

// indexMetrics reads the refinement, routing, write-path and
// histogram counters of a Stats snapshot.
func indexMetrics(rc *roundCtx, ix *adaptix.Index, st adaptix.Stats, selectivity float64) {
	var pieces, cracks, skipped int64
	for _, s := range st.Shards {
		pieces += int64(s.Pieces)
		cracks += s.Cracks
		skipped += s.Skipped
	}
	if ix.Method() == adaptix.Crack {
		rc.m["crack.pieces"] = float64(pieces)
		rc.m["crack.pieces_per_q"] = float64(pieces) * selectivity
		if cracks+skipped > 0 {
			rc.m["crack.skipped_frac"] = float64(skipped) / float64(cracks+skipped)
		}
	}
	rc.m["latch.wait_p99_us"] = usD(st.Obs.LatchWaitP99)
	rc.m["latch.stalls"] = float64(st.Obs.LatchStalls)
	cv := st.Convergence
	if cv.Queries > 0 {
		rc.m["shard.visits_per_q"] = float64(cv.Visits) / float64(cv.Queries)
	}
	rc.m["shard.covered_frac"] = cv.CoveredFrac
	rc.m["shard.count"] = float64(ix.NumShards())
	in := st.Ingest
	rc.m["ingest.applied"] = float64(in.Applied)
	rc.m["ingest.seals"] = float64(in.EpochSeals)
	rc.m["ingest.splits"] = float64(in.Splits)
	rc.m["ingest.merges"] = float64(in.Merges)
	rc.m["ingest.checkpoints"] = float64(in.Checkpoints)
	rc.m["ingest.write_p99_us"] = usD(st.Obs.WriteLatencyP99)
	rc.m["ingest.writer_stall_p99_us"] = usD(st.Obs.WriterStallP99)
	rc.m["wal.group_syncs"] = float64(in.GroupSyncs)
	rc.m["wal.logged_writes"] = float64(in.LoggedWrites)
	rc.m["wal.fsync_p99_us"] = usD(st.Obs.FsyncP99)
}

func gcMetrics(rc *roundCtx, a, b gcState) {
	rc.m["proc.gc_cycles"] = float64(b.cycles - a.cycles)
	rc.m["proc.gc_pause_ms"] = float64(b.pauseNS-a.pauseNS) / 1e6
}

// sampleEpochs polls the pending differential updates every 50 ms in
// traced rounds and keeps the maximum as epoch.pending_max; the
// returned stop function ends the poller and waits for it. Only
// workloads with writes poll: Stats walks every piece, which on a
// read-only index of 10^5 pieces would itself stall the queries.
func sampleEpochs(rc *roundCtx, ix *adaptix.Index) (stop func()) {
	if !rc.traced {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var most int
		for {
			select {
			case <-quit:
				rc.m["epoch.pending_max"] = float64(most)
				return
			case <-tick.C:
				pending := 0
				for _, s := range ix.Stats().Shards {
					pending += s.PendingInserts + s.PendingDeletes
				}
				most = max(most, pending)
			}
		}
	}()
	return func() { close(quit); <-done }
}

// gcState is a snapshot of the collector's lifetime counters.
type gcState struct {
	cycles  uint32
	pauseNS uint64
}

func readGC() gcState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcState{cycles: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapGrowth is the live heap now, after a collection, minus base, in
// MiB.
func heapGrowth(base uint64) float64 {
	h := liveHeap()
	if h < base {
		return 0
	}
	return float64(h-base) / (1 << 20)
}
