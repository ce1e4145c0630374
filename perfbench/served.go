package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"adaptix"
)

// Sizes and limits of served-open.
const (
	servedPool      = 256  // distinct read ranges, so the batcher has duplicates to coalesce
	servedWriteFrac = 0.1  // inserts of keys above the read domain
	servedCold      = 2048 // closed-loop operations on the fresh index
	servedWarm      = 4096 // closed-loop operations whose rate is ops_s
	stepWarm        = 250 * time.Millisecond
	lowestMeasure   = 10 * time.Second // the lowest rate's step gives read_p50_us and read_p90_us
	stepMeasure     = time.Second
	latencyLimit    = 10 * time.Millisecond // p99 limit of goodput_ops_s
	// lateLimit makes a step invalid when its generator sent 1% of the
	// operations later than the latency limit itself.
	lateLimit = latencyLimit
	// inFlightCap keeps each connection below the server's default
	// quota of 256, which counts a request until just after its reply
	// is queued: past it the generator waits, and runs late, instead
	// of being refused.
	inFlightCap = 192
	lowestTries = 3
)

// openRates are the offered rates of the open-loop steps, in ops/s.
var openRates = []int{2000, 4000, 8000, 16000}

// servedOpen is the adaptixd shape: an in-memory index behind the
// serving front on loopback, driven over two pipelined connections —
// first closed-loop (cold, then warm), then open-loop at doubling
// fixed offered rates. Reads draw Zipf-skewed from a pool of ranges;
// writes insert keys outside the read domain, so every read has one
// exact answer.
type servedOpen struct {
	column     []int64
	ref        *reference
	cold, warm [][]op
	steps      [][][]arrival // per rate, per connection
}

// arrival is one open-loop operation and when it is due, relative to
// the start of its step.
type arrival struct {
	due time.Duration
	o   op
}

func newServedOpen(seed uint64) runner {
	column, sorted := uniqueValues(readRows, seed)
	rr := newRand(seed, streamReads)
	pool := uniformReads(rr, servedPool, readRows*keyStep, readWidth)
	z := newZipf(servedPool, 1.0)
	fresh := int64(readRows * keyStep)
	next := func() op {
		if rr.Float64() < servedWriteFrac {
			fresh += keyStep
			return op{kind: opInsert, lo: fresh}
		}
		o := pool[z.rank(rr)]
		if rr.IntN(2) == 0 {
			o.kind = opCount
		}
		return o
	}
	mix := func(n int) []op {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = next()
		}
		return ops
	}
	w := &servedOpen{
		column: column,
		ref:    newReference(sorted),
		cold:   deal(mix(servedCold), clients),
		warm:   deal(mix(servedWarm), clients),
	}
	ra := newRand(seed, streamArrivals)
	for s, rate := range openRates {
		// Poisson arrivals, dealt round-robin to the connections.
		var all []arrival
		var at time.Duration
		length := stepWarm + stepMeasure
		if s == 0 {
			length = stepWarm + lowestMeasure
		}
		for at < length {
			all = append(all, arrival{due: at, o: next()})
			at += time.Duration(ra.ExpFloat64() * float64(time.Second) / float64(rate))
		}
		per := make([][]arrival, clients)
		for i, a := range all {
			per[i%clients] = append(per[i%clients], a)
		}
		w.steps = append(w.steps, per)
	}
	return w
}

// front is one index behind its serving front, with the client
// connections.
type front struct {
	ix    *adaptix.Index
	srv   *adaptix.Server
	conns []*adaptix.ServeClient
}

// setUp builds a front: New, ServeAddr and one DialServe per client.
func (w *servedOpen) setUp(rc *roundCtx, values []int64, opts []adaptix.Option) (*front, error) {
	f := &front{}
	sp := rc.tr.begin("new", rc.root)
	ix, err := adaptix.New(values, opts...)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("New: %w", err)
	}
	f.ix = ix
	sp = rc.tr.begin("serve_addr", rc.root)
	f.srv, err = ix.ServeAddr("127.0.0.1:0", adaptix.ServeOptions{})
	sp.end()
	if err != nil {
		f.close()
		return nil, fmt.Errorf("ServeAddr: %w", err)
	}
	for range clients {
		sp = rc.tr.begin("dial_serve", rc.root)
		c, err := adaptix.DialServe(f.srv.Addr().String())
		sp.end()
		if err != nil {
			f.close()
			return nil, fmt.Errorf("DialServe: %w", err)
		}
		f.conns = append(f.conns, c)
	}
	return f, nil
}

// close tears the front down abruptly; a round drains its own first.
func (f *front) close() {
	for _, c := range f.conns {
		c.Close()
	}
	if f.srv != nil {
		f.srv.Close()
	}
	f.ix.Close()
}

func (w *servedOpen) round(rc *roundCtx) {
	base := liveHeap()
	opts := []adaptix.Option{adaptix.WithShards(shards)}
	if rc.traced {
		opts = append(opts, adaptix.WithObservability(adaptix.ObsOptions{SampleEvery: 1}))
	}
	f, err := setUp(rc, func() (*front, time.Duration, error) {
		values := slices.Clone(w.column)
		t := time.Now()
		f, err := w.setUp(rc, values, opts)
		return f, time.Since(t), err
	}, (*front).close)
	if err != nil {
		rc.broken("%v", err)
		return
	}
	defer f.close()
	ix, srv, conns := f.ix, f.srv, f.conns
	var calls []caller
	for _, c := range conns {
		calls = append(calls, wireCaller(c))
	}
	gc0 := readGC()
	stop := sampleEpochs(rc, ix)

	cold, coldWall := closedLoop(rc, "cold", calls, w.cold, 1)
	rc.m["cold_s"] = coldWall.Seconds()
	checkExact(rc, w.ref, w.cold, cold)
	warm, warmWall := closedLoop(rc, "warm", calls, w.warm, 1)
	rc.m["ops_s"] = float64(count(w.warm)) / warmWall.Seconds()
	checkExact(rc, w.ref, w.warm, warm)
	cold, warm = nil, nil

	var lateMax, lateP99 time.Duration
	goodput := 0
	rejected0 := srv.Stats().Rejected
	for s, rate := range openRates {
		var st stepOut
		var valid bool
		// The lowest step gives the end-to-end read latency, so an
		// invalid attempt is measured again rather than reported.
		tries := 1
		if s == 0 {
			tries = lowestTries
		}
		for try := 0; try < tries && !valid; try++ {
			st = w.step(rc, conns, w.steps[s], rate)
			lateMax = max(lateMax, st.lateMax)
			lateP99 = max(lateP99, st.lateP99)
			valid = st.lateP99 <= lateLimit
			fmt.Printf("step %d/s: generator lateness p99 %.2f ms, max %.2f ms, valid=%v\n", rate, float64(st.lateP99)/1e6, float64(st.lateMax)/1e6, valid)
		}
		if s == 0 {
			if !valid {
				rc.broken("lowest step %d/s invalid %d times: generator lateness p99 %.2f ms > %v", rate, lowestTries, float64(st.lateP99)/1e6, lateLimit)
			}
			setLatency(rc, "read", st.reads)
			setLatency(rc, "write", st.writes)
			rc.m["gen.late_p50_ms"] = float64(st.lateP50) / 1e6
			rtt := quantile(st.rtt, 0.5)
			rc.m["serve.overhead_p50_us"] = us(rtt) - usD(ix.Stats().Obs.QueryLatencyP50)
		}
		all := append(st.reads, st.writes...)
		p99 := time.Duration(quantile(all, 0.99))
		if valid {
			rc.m[fmt.Sprintf("serve.p99_us.%d", rate)] = usD(p99)
		}
		rejected := srv.Stats().Rejected
		if valid && p99 <= latencyLimit && rejected == rejected0 && !st.backlog && st.failed == 0 {
			goodput = rate
		}
		rejected0 = rejected
	}
	stop()
	gcMetrics(rc, gc0, readGC())
	rc.m["goodput_ops_s"] = float64(goodput)
	rc.m["gen.late_p99_ms"] = float64(lateP99) / 1e6
	rc.m["gen.late_max_ms"] = float64(lateMax) / 1e6

	ss := srv.Stats()
	rc.m["serve.batch_p50"] = float64(ss.BatchP50)
	rc.m["serve.batch_p99"] = float64(ss.BatchP99)
	rc.m["serve.coalesce_frac"] = ss.CoalesceRate
	rc.m["serve.queue_p99"] = float64(ss.QueueP99)
	rc.m["serve.rejected"] = float64(ss.Rejected)
	indexMetrics(rc, ix, stats(rc, ix), float64(readWidth)/float64(readRows*keyStep))
	ix.Maintain() // let a group-apply in progress finish, so the heap is read at a quiet point
	rc.m["mem_mb"] = heapGrowth(base)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sp := rc.tr.begin("drain", rc.root)
	if err := srv.Drain(ctx); err != nil {
		rc.broken("Drain: %v", err)
	}
	sp.end()
}

// stepOut is the outcome of one open-loop step's measured window.
type stepOut struct {
	reads, writes []int64       // latency from the due time, ns
	rtt           []int64       // read latency from the send time, ns
	lateP50       time.Duration // generator lateness: send time minus due time
	lateP99       time.Duration
	lateMax       time.Duration
	backlog       bool // more than the latency limit's worth of arrivals unanswered at the last due time
	failed        int64
}

// step offers one rate: each connection's dispatcher sends every
// operation at its due time, whatever the state of earlier ones.
// Operations due in the warm-up are sent and checked but not timed.
func (w *servedOpen) step(rc *roundCtx, conns []*adaptix.ServeClient, sched [][]arrival, rate int) stepOut {
	ph := rc.tr.begin(fmt.Sprintf("open_%d", rate), rc.root)
	defer ph.end()
	type outcome struct {
		sent, end time.Duration
		got       int64
		err       error
	}
	outs := make([][]outcome, len(sched))
	lates := make([][]int64, len(sched))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range sched {
		outs[c] = make([]outcome, len(sched[c]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reqs sync.WaitGroup
			sem := make(chan struct{}, inFlightCap)
			ctx := context.Background()
			call := wireCaller(conns[c])
			for i, a := range sched[c] {
				if d := a.due - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				sem <- struct{}{}
				sent := time.Since(t0)
				lates[c] = append(lates[c], int64(sent-a.due))
				reqs.Add(1)
				go func() {
					defer reqs.Done()
					start := rc.now()
					got, _, err := call(ctx, a.o)
					outs[c][i] = outcome{sent: sent, end: time.Since(t0), got: got, err: err}
					rc.tr.add(spanNames[1][a.o.kind], ph.id(), int64(i), start, rc.now())
					<-sem
				}()
			}
			reqs.Wait()
		}()
	}
	wg.Wait()

	var st stepOut
	late := slices.Concat(lates...)
	st.lateP50 = time.Duration(quantile(late, 0.50))
	st.lateP99 = time.Duration(quantile(late, 0.99))
	st.lateMax = time.Duration(quantile(late, 1))
	var lastDue time.Duration
	for c := range sched {
		if n := len(sched[c]); n > 0 {
			lastDue = max(lastDue, sched[c][n-1].due)
		}
	}
	var unanswered int
	for c := range sched {
		for i, a := range sched[c] {
			out := outs[c][i]
			rc.attempted++
			if out.end > lastDue {
				unanswered++
			}
			switch {
			case out.err != nil:
				rc.fail(1, "%s [%d,%d) at %d/s: %v", spanNames[1][a.o.kind], a.o.lo, a.o.hi, rate, out.err)
				st.failed++
				continue
			case a.o.isRead():
				if want := w.ref.answer(a.o); out.got != want {
					rc.fail(1, "%s [%d,%d) = %d, want %d", spanNames[1][a.o.kind], a.o.lo, a.o.hi, out.got, want)
					st.failed++
					continue
				}
			}
			if a.due < stepWarm {
				continue
			}
			lat := int64(out.end - a.due)
			if a.o.isRead() {
				st.reads = append(st.reads, lat)
				st.rtt = append(st.rtt, int64(out.end-out.sent))
			} else {
				st.writes = append(st.writes, lat)
			}
		}
	}
	st.backlog = unanswered > int(float64(rate)*latencyLimit.Seconds())
	return st
}
