package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"time"

	"adaptix"
)

// Sizes and policies of churn-durable.
//
// The store is small because a group-apply and a reopen replay every
// crack boundary, and deletes add boundaries: at 262,144 rows one Close
// and reopen took 5–18 s, leaving under a second of measurement per
// run. Reads select 1% because at 0.1% the closed loop was dominated
// by fsync and group-apply stalls, and its throughput spread 20–33%
// from run to run.
const (
	churnRows      = 1 << 16 // 768 KiB of values and row ids: fits a 4 MiB L2
	churnDomain    = churnRows * keyStep
	churnWidth     = churnDomain / 100
	churnWriteFrac = 0.2
	churnCold      = 16384
	churnWarm      = 114688
	churnSyncEvery = 64  // group-commit fsync every 64 logged writes
	churnApplyAt   = 256 // pending updates per shard that trigger a group-apply
	churnGrid      = 64  // read bounds fall on multiples of 64 keys, so the crack boundaries converge
	drainBlock     = 64
	churnProbes    = 64
)

// churnDurable is a durable store under a sliding retention window:
// two closed-loop clients run recency-skewed Sums mixed with inserts
// of fresh keys above the domain and deletes that drain the lowest
// keys. A small apply threshold makes group-applies run mid-run; the
// round ends with a timed Close and reopen whose contents are checked
// against every acknowledged write.
type churnDurable struct {
	column     []int64
	base       *reference
	final      *reference
	finalRows  int
	cold, warm [][]op
	probes     []op
}

func newChurnDurable(seed uint64) runner {
	column, sorted := uniqueValues(churnRows, seed)
	rw := newRand(seed, streamWrites)
	rr := newRand(seed, streamReads)

	// Deletes drain the lowest keys, shuffled within blocks.
	drain := slices.Clone(sorted)
	rd := newRand(seed, streamDrain)
	for b := 0; b < len(drain); b += drainBlock {
		blk := drain[b:min(b+drainBlock, len(drain))]
		rd.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}

	ops := make([]op, churnCold+churnWarm)
	var inserted, deleted int
	for i := range ops {
		if rw.Float64() < churnWriteFrac {
			if (inserted+deleted)%2 == 0 {
				ops[i] = op{kind: opInsert, lo: churnDomain + keyStep*int64(inserted)}
				inserted++
			} else {
				ops[i] = op{kind: opDelete, lo: drain[deleted]}
				deleted++
			}
			continue
		}
		// Reads lean toward the newest keys. The frontier follows the
		// schedule, not the live insert count, so every run earns the
		// same crack boundaries.
		frontier := churnDomain + keyStep*int64(inserted)
		hi := frontier - int64(rr.ExpFloat64()*churnDomain/8)
		lo := max(hi-churnWidth, 0) / churnGrid * churnGrid
		ops[i] = op{kind: opSum, lo: lo, hi: lo + churnWidth}
	}

	// The contents after every write: the undrained keys, then the
	// inserted ones (all above the domain).
	gone := make(map[int64]bool, deleted)
	for _, k := range drain[:deleted] {
		gone[k] = true
	}
	var final []int64
	for _, k := range sorted {
		if !gone[k] {
			final = append(final, k)
		}
	}
	for k := range inserted {
		final = append(final, churnDomain+keyStep*int64(k))
	}
	top := final[len(final)-1] + 1
	rp := newRand(seed, streamProbes)
	probes := []op{{kind: opCount, lo: 0, hi: top}, {kind: opSum, lo: 0, hi: top}}
	for range churnProbes {
		lo := rp.Int64N(top)
		hi := lo + rp.Int64N(top-lo) + 1
		probes = append(probes, op{kind: opCount, lo: lo, hi: hi}, op{kind: opSum, lo: lo, hi: hi})
	}
	return &churnDurable{
		column:    column,
		base:      newReference(sorted),
		final:     newReference(final),
		finalRows: len(final),
		cold:      deal(ops[:churnCold], clients),
		warm:      deal(ops[churnCold:], clients),
		probes:    probes,
	}
}

func (w *churnDurable) options(traced bool) []adaptix.Option {
	opts := []adaptix.Option{
		adaptix.WithShards(shards),
		adaptix.WithLogWrites(),
		adaptix.WithSyncEvery(churnSyncEvery),
		adaptix.WithIngestOptions(adaptix.IngestOptions{ApplyThreshold: churnApplyAt}),
	}
	if traced {
		opts = append(opts, adaptix.WithObservability(adaptix.ObsOptions{SampleEvery: 1}))
	}
	return opts
}

func (w *churnDurable) round(rc *roundCtx) {
	dir := filepath.Join(workdir, "stores", fmt.Sprintf("churn-%d-%d", os.Getpid(), rc.index))
	defer os.RemoveAll(dir)
	base := liveHeap()
	opts := w.options(rc.traced)

	// Each set-up opens a fresh store in the same directory.
	ix, err := setUp(rc, func() (*adaptix.Index, time.Duration, error) {
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		values := adaptix.WithValues(slices.Clone(w.column))
		sp := rc.tr.begin("open", rc.root)
		t := time.Now()
		ix, err := adaptix.Open(dir, append(opts, values)...)
		took := time.Since(t)
		sp.end()
		return ix, took, err
	}, func(ix *adaptix.Index) { ix.Close() })
	if err != nil {
		rc.broken("Open: %v", err)
		return
	}
	size0 := dirSize(dir)
	calls := []caller{indexCaller(ix), indexCaller(ix)}
	gc0 := readGC()
	stop := sampleEpochs(rc, ix)

	cold, coldWall := closedLoop(rc, "cold", calls, w.cold, 0)
	rc.m["cold_s"] = coldWall.Seconds()
	warm, warmWall := closedLoop(rc, "warm", calls, w.warm, 0)
	stop()
	gc1 := readGC()
	rc.m["ops_s"] = float64(count(w.warm)) / warmWall.Seconds()
	latencies(rc, w.warm, warm)
	engineMetrics(rc, w.warm, warm)
	rc.m["crack.refine_us_per_q"] = sumRefine(w.cold, cold)
	st := stats(rc, ix)
	indexMetrics(rc, ix, st, float64(churnWidth)/float64(churnDomain))
	gcMetrics(rc, gc0, gc1)
	if st.Ingest.EpochSeals < 1 || st.Ingest.Applied < 1 {
		rc.broken("no group-apply ran: %d epoch seals, %d applies", st.Ingest.EpochSeals, st.Ingest.Applied)
	}
	w.check(rc, [][][]op{w.cold, w.warm}, [][][]rec{cold, warm})
	cold, warm = nil, nil
	if err := ix.Validate(); err != nil {
		rc.broken("Validate before Close: %v", err)
	}
	if logged := st.Ingest.LoggedWrites; logged > 0 {
		rc.m["wal.bytes_per_write"] = float64(dirSize(dir)-size0) / float64(logged)
	}

	sp := rc.tr.begin("close", rc.root)
	t := time.Now()
	err = ix.Close()
	closeTook := time.Since(t)
	sp.end()
	if err != nil {
		rc.broken("Close: %v", err)
		return
	}
	rc.m["durable.close_s"] = closeTook.Seconds()
	rc.m["space_amp"] = float64(dirSize(dir)) / float64(w.finalRows*8)

	sp = rc.tr.begin("reopen", rc.root)
	t = time.Now()
	ix, err = adaptix.Open(dir, opts...)
	reopen := time.Since(t)
	sp.end()
	if err != nil {
		rc.broken("reopen: %v", err)
		return
	}
	defer ix.Close()
	rc.m["restart_s"] = (closeTook + reopen).Seconds()
	rs := ix.RecoveryStats()
	rc.m["durable.recover_load_ms"] = float64(rs.CheckpointLoad) / 1e6
	rc.m["durable.recover_walscan_ms"] = float64(rs.WALScan) / 1e6
	rc.m["durable.recover_replay_s"] = rs.Replay.Seconds()
	w.checkReopened(rc, ix)
	rc.m["mem_mb"] = heapGrowth(base)
}

// check verifies every operation of the run: writes succeed (a delete
// finds its key), and each read lies in the interval the writes that
// overlapped it allow.
func (w *churnDurable) check(rc *roundCtx, scheds [][][]op, phases [][][]rec) {
	var writes []timedWrite
	var reads []timedRead
	for p, sched := range scheds {
		for c := range sched {
			for i, o := range sched[c] {
				r := phases[p][c][i]
				rc.attempted++
				switch {
				case r.err != nil:
					rc.fail(1, "%s %d: %v", spanNames[0][o.kind], o.lo, r.err)
				case o.isRead():
					reads = append(reads, timedRead{o: o, start: r.start, end: r.end, got: r.got})
				case o.kind == opDelete && r.got != 1:
					rc.fail(1, "delete %d found nothing", o.lo)
				default:
					writes = append(writes, timedWrite{key: o.lo, insert: o.kind == opInsert, start: r.start, end: r.end})
				}
			}
		}
	}
	m, err := newWriteModel(w.base, writes)
	if err != nil {
		rc.broken("%v", err)
		return
	}
	if bad, first := m.check(reads); bad > 0 {
		rc.fail(int64(bad), "%d reads outside their allowed interval; first: %s", bad, first)
	}
}

// checkReopened verifies that the reopened store holds every
// acknowledged write.
func (w *churnDurable) checkReopened(rc *roundCtx, ix *adaptix.Index) {
	if !ix.Recovered() {
		rc.broken("reopened store did not recover")
	}
	if got := ix.Rows(); got != w.finalRows {
		rc.broken("reopened store holds %d rows, want %d", got, w.finalRows)
	}
	calls := []caller{indexCaller(ix)}
	recs, _ := closedLoop(rc, "probes", calls, [][]op{w.probes}, 0)
	checkExact(rc, w.final, [][]op{w.probes}, recs)
	if err := ix.Validate(); err != nil {
		rc.broken("Validate after reopen: %v", err)
	}
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil // a file removed mid-walk is simply not counted
	})
	return n
}
