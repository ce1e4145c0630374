package main

import (
	"math/rand/v2"
	"slices"
	"time"

	"adaptix"
)

// Sizes of the two read-only workloads.
const (
	readRows    = 1 << 20 // 12 MiB of values and row ids: 3x a 4 MiB L2
	readWidth   = readRows * keyStep / 1000
	coldQueries = 16384
)

// readOnly is read-uniform and amerge-zipf: two closed-loop clients
// issue Sum at 0.1% selectivity against a fresh in-memory index, first
// a cold phase of a fixed query count, then a warm phase of a fixed
// count (not a fixed duration: warm cost depends on how refined the
// index already is, so a fixed duration would feed speed back into
// the work done).
type readOnly struct {
	method     adaptix.Method
	column     []int64
	ref        *reference
	cold, warm [][]op
}

// warmQueries is the warm phase's size per method, each about three
// seconds on a 2-CPU machine.
var warmQueries = map[adaptix.Method]int{adaptix.Crack: 98304, adaptix.AMerge: 1 << 20}

func newReadUniform(seed uint64) runner {
	return newReadOnly(seed, adaptix.Crack, uniformReads)
}

func newAMergeZipf(seed uint64) runner {
	return newReadOnly(seed, adaptix.AMerge, zipfReads)
}

func newReadOnly(seed uint64, m adaptix.Method, gen func(r *rand.Rand, count int, domain, width int64) []op) runner {
	column, sorted := uniqueValues(readRows, seed)
	ops := gen(newRand(seed, streamReads), coldQueries+warmQueries[m], readRows*keyStep, readWidth)
	return &readOnly{
		method: m,
		column: column,
		ref:    newReference(sorted),
		cold:   deal(ops[:coldQueries], clients),
		warm:   deal(ops[coldQueries:], clients),
	}
}

func (w *readOnly) round(rc *roundCtx) {
	base := liveHeap()
	opts := []adaptix.Option{adaptix.WithMethod(w.method), adaptix.WithShards(shards)}
	if rc.traced {
		opts = append(opts, adaptix.WithObservability(adaptix.ObsOptions{SampleEvery: 1}))
	}
	ix, err := setUp(rc, func() (*adaptix.Index, time.Duration, error) {
		values := slices.Clone(w.column)
		sp := rc.tr.begin("new", rc.root)
		t := time.Now()
		ix, err := adaptix.New(values, opts...)
		took := time.Since(t)
		sp.end()
		return ix, took, err
	}, func(ix *adaptix.Index) { ix.Close() })
	if err != nil {
		rc.broken("New: %v", err)
		return
	}
	calls := []caller{indexCaller(ix), indexCaller(ix)}
	gc0 := readGC()

	cold, coldWall := closedLoop(rc, "cold", calls, w.cold, 0)
	rc.m["cold_s"] = coldWall.Seconds()
	st := stats(rc, ix)
	refine := sumRefine(w.cold, cold)
	if w.method == adaptix.AMerge {
		rc.m["amerge.refine_us_per_q"] = refine
		rc.m["amerge.touched_p50"] = float64(st.Convergence.TouchedP50)
	} else {
		rc.m["crack.refine_us_per_q"] = refine
		rc.m["crack.touched_p50"] = float64(st.Convergence.TouchedP50)
		rc.m["crack.touched_p99"] = float64(st.Convergence.TouchedP99)
	}

	warm, warmWall := closedLoop(rc, "warm", calls, w.warm, 0)
	gc1 := readGC()
	n := float64(count(w.warm))
	rc.m["ops_s"] = n / warmWall.Seconds()
	latencies(rc, w.warm, warm)
	engineMetrics(rc, w.warm, warm)
	st = stats(rc, ix)
	indexMetrics(rc, ix, st, float64(readWidth)/float64(readRows*keyStep))
	gcMetrics(rc, gc0, gc1)
	checkExact(rc, w.ref, w.cold, cold)
	checkExact(rc, w.ref, w.warm, warm)
	cold, warm = nil, nil
	rc.m["mem_mb"] = heapGrowth(base)
	sp := rc.tr.begin("close", rc.root)
	if err := ix.Close(); err != nil {
		rc.broken("Close: %v", err)
	}
	sp.end()
}
