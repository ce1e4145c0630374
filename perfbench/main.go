// Command perfbench is the repository benchmark: it drives four
// workloads through adaptix's public surface, checks every answer,
// and prints end-to-end metrics (untraced runs) or per-layer metrics
// (traced runs) as one JSON object on the last line of its output.
//
//	bash perfbench/run.sh --workload read-uniform --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare .bench_build/results-a .bench_build/results-b
//
// See perfbench/README.md for the workloads, the metrics and the
// findings they were built to keep visible.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// shards is the pinned shard count, so results do not shift with
// GOMAXPROCS.
const shards = 2

// clients is the number of closed-loop client goroutines, and of
// connections to the serving front.
const clients = 2

// workdir holds durable stores, result files and span dumps, relative
// to the repository root the benchmark runs from.
const workdir = ".bench_build"

// metric is a reported figure's name and unit, exactly as
// BENCHMARK.json lists them.
type metric struct{ name, unit string }

// endToEnd is what a user of the index sees; every workload reports
// every one of them from its untraced rounds.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cold_s", "s"},
	{"ops_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p90_us", "us"},
	{"mem_mb", "MB"},
}

// perLayer is read from the traced rounds. A layer a workload bypasses,
// or cannot observe through the surface it drives (the wire carries no
// engine cost breakdown), reads 0 there.
var perLayer = func() []metric {
	m := slices.Clone(untraced)
	m = append(m, []metric{
		{"fail_frac", "frac"},
		// crackindex / cracker
		{"crack.refine_us_per_q", "us"}, {"crack.touched_p50", "rows"}, {"crack.touched_p99", "rows"},
		{"crack.pieces", "count"}, {"crack.pieces_per_q", "count"}, {"crack.skipped_frac", "frac"},
		// latch
		{"latch.wait_us_per_q", "us"}, {"latch.wait_p99_us", "us"},
		{"latch.conflicts_per_q", "count"}, {"latch.stalls", "count"},
		// shard
		{"shard.critical_p50_us", "us"}, {"shard.critical_p99_us", "us"},
		{"shard.visits_per_q", "count"}, {"shard.covered_frac", "frac"}, {"shard.count", "count"},
		// epoch
		{"epoch.depth_p50", "count"}, {"epoch.depth_max", "count"}, {"epoch.pending_max", "count"},
		// ingest
		{"ingest.applied", "count"}, {"ingest.seals", "count"}, {"ingest.splits", "count"},
		{"ingest.merges", "count"}, {"ingest.checkpoints", "count"},
		{"ingest.write_p99_us", "us"}, {"ingest.writer_stall_p99_us", "us"},
		// wal
		{"wal.group_syncs", "count"}, {"wal.logged_writes", "count"},
		{"wal.fsync_p99_us", "us"}, {"wal.bytes_per_write", "B"},
		// durable
		{"durable.close_s", "s"}, {"durable.recover_load_ms", "ms"},
		{"durable.recover_walscan_ms", "ms"}, {"durable.recover_replay_s", "s"},
		// serve
		{"serve.batch_p50", "count"}, {"serve.batch_p99", "count"}, {"serve.coalesce_frac", "frac"},
		{"serve.queue_p99", "count"}, {"serve.rejected", "count"}, {"serve.overhead_p50_us", "us"},
		// amerge / pbtree / engine
		{"amerge.refine_us_per_q", "us"}, {"amerge.touched_p50", "rows"},
		// metrics / obs, and the process
		{"obs.trace_overhead_frac", "frac"}, {"proc.gc_cycles", "count"}, {"proc.gc_pause_ms", "ms"},
	}...)
	for _, c := range spanCalls {
		m = append(m, metric{"span." + c + ".self_p50_us", "us"}, metric{"span." + c + ".self_p99_us", "us"})
	}
	return m
}()

// untraced are the per-layer metrics that a traced run, like the
// end-to-end ones, takes from its untraced rounds, so that they do not
// include the cost of tracing: end-to-end figures too unsteady to gate
// (read_p99_us, the open-loop p99 per rate) or that only some
// workloads have, and the open-loop generator's lateness, which is
// part of every latency timed from a due time.
var untraced = func() []metric {
	m := []metric{
		{"read_p99_us", "us"}, {"write_p50_us", "us"}, {"write_p99_us", "us"},
		{"restart_s", "s"}, {"goodput_ops_s", "1/s"}, {"space_amp", "ratio"},
		{"read_samples", "count"}, {"write_samples", "count"},
	}
	for _, r := range openRates {
		m = append(m, metric{fmt.Sprintf("serve.p99_us.%d", r), "us"})
	}
	return append(m, metric{"gen.late_p50_ms", "ms"}, metric{"gen.late_p99_ms", "ms"}, metric{"gen.late_max_ms", "ms"})
}()

// spanCalls are the public calls the benchmark wraps in spans.
var spanCalls = []string{
	"new", "open", "close", "reopen", "stats",
	"sum", "count", "insert", "delete",
	"serve_addr", "dial_serve", "drain",
	"wire_sum", "wire_count", "wire_insert",
}

// roundCtx carries one round: a fresh index built, driven through the
// workload's phases, checked and closed.
type roundCtx struct {
	t0     time.Time
	tr     *tracer // nil in untraced rounds
	root   int64   // id of the round's span
	traced bool
	index  int

	m         map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func (rc *roundCtx) now() int64 { return int64(time.Since(rc.t0)) }

// fail counts n failed operations and keeps the first few reasons.
func (rc *roundCtx) fail(n int64, format string, args ...any) {
	rc.failed += n
	if len(rc.problems) < 8 {
		rc.problems = append(rc.problems, fmt.Sprintf(format, args...))
	}
}

// broken records a violated run invariant that is not an operation.
func (rc *roundCtx) broken(format string, args ...any) { rc.fail(0, format, args...) }

// runner is one workload: inputs generated once from the seed, then
// any number of identical rounds.
type runner interface {
	round(rc *roundCtx)
}

// workloads are the runnable workloads. BENCHMARK.json lists all but
// read-uniform, whose medians drift with the machine's state by more
// than its bounds between sets of runs (see README.md).
var workloads = map[string]func(seed uint64) runner{
	"read-uniform":  newReadUniform,
	"churn-durable": newChurnDurable,
	"served-open":   newServedOpen,
	"amerge-zipf":   newAMergeZipf,
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: read-uniform, churn-durable, served-open or amerge-zipf")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 30, "measuring time; whole rounds run until it is spent")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from traced rounds")
	_ = fs.Parse(os.Args[1:]) // ExitOnError

	if fs.Arg(0) == "compare" {
		os.Exit(compare(fs.Args()[1:]))
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res := run(mk(*seed), *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err := res.save(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

func run(w runner, name string, seed uint64, budget time.Duration, trace bool) *result {
	res := &result{Workload: name, Seed: seed, Trace: trace, Fingerprint: takeFingerprint()}
	t0 := time.Now()
	var plain, traced []map[string]float64
	var spans *tracer
	for i := 0; ; i++ {
		// A traced run alternates untraced and traced rounds, so the
		// tracing overhead is measured on the same inputs.
		rc := &roundCtx{t0: t0, traced: trace && i%2 == 1, index: i, m: map[string]float64{}}
		first := 0
		if rc.traced {
			if spans == nil {
				spans = newTracer(t0)
			}
			rc.tr = spans
			first = len(spans.spans)
		}
		start := time.Now()
		root := rc.tr.begin("round", 0)
		rc.root = root.id()
		w.round(rc)
		root.end()
		took := time.Since(start)
		if rc.traced {
			spanMetrics(rc, spans.spans[first:])
		}
		res.Attempted += rc.attempted
		res.Failed += rc.failed
		res.Problems = append(res.Problems, rc.problems...)
		rc.m["round_s"] = took.Seconds()
		rc.m["traced"] = float64(b2i(rc.traced))
		res.Rounds = append(res.Rounds, rc.m)
		if rc.traced {
			traced = append(traced, rc.m)
		} else {
			plain = append(plain, rc.m)
		}
		fmt.Printf("round %d (traced=%v): %.2fs\n", i, rc.traced, took.Seconds())
		need := 1
		if trace {
			need = 2
		}
		// Start another round only if it fits in the budget.
		if len(res.Rounds) >= need && (time.Since(t0)+took > budget || len(res.Problems) > 0) {
			break
		}
	}
	res.Values = map[string]float64{}
	res.Units = map[string]string{}
	from := plain
	res.Metrics = endToEnd
	if trace {
		from = traced
		res.Metrics = perLayer
	}
	for _, m := range res.Metrics {
		res.Values[m.name] = medianOf(from, m.name)
		res.Units[m.name] = m.unit
	}
	if trace {
		for _, m := range untraced {
			res.Values[m.name] = medianOf(plain, m.name)
		}
	}
	if trace {
		if u := medianOf(plain, "ops_s"); u > 0 {
			res.Values["obs.trace_overhead_frac"] = 1 - medianOf(traced, "ops_s")/u
		}
		path := filepath.Join(workdir, "traces", fmt.Sprintf("%s-seed%d.spans.tsv", name, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			if err := spans.write(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			}
		}
	}
	if trace && res.Attempted > 0 {
		res.Values["fail_frac"] = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0 && res.Attempted > 0
	return res
}

// spanMetrics sets the self-time quantiles of each wrapped call.
func spanMetrics(rc *roundCtx, spans []span) {
	self := selfTimes(spans)
	for _, c := range spanCalls {
		if ns := self[c]; len(ns) > 0 {
			rc.m["span."+c+".self_p50_us"] = us(quantile(ns, 0.50))
			rc.m["span."+c+".self_p99_us"] = us(quantile(ns, 0.99))
		}
	}
}

func medianOf(rounds []map[string]float64, name string) float64 {
	xs := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		xs = append(xs, r[name])
	}
	return median(xs)
}
