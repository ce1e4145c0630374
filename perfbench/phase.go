package main

import (
	"context"
	"sync"
	"time"

	"adaptix"
)

// rec is the outcome of one scheduled operation. Times are
// nanoseconds on the run's clock.
type rec struct {
	start, end int64
	got        int64 // answer of a read; 1 when a delete found its key
	err        error
	res        adaptix.Result // engine-side cost of an in-process read
}

// caller executes one scheduled operation.
type caller func(ctx context.Context, o op) (int64, adaptix.Result, error)

// indexCaller runs operations in-process against ix.
func indexCaller(ix *adaptix.Index) caller {
	return func(ctx context.Context, o op) (int64, adaptix.Result, error) {
		switch o.kind {
		case opSum:
			r, err := ix.Sum(ctx, o.lo, o.hi)
			return r.Value, r, err
		case opCount:
			r, err := ix.Count(ctx, o.lo, o.hi)
			return r.Value, r, err
		case opInsert:
			return 0, adaptix.Result{}, ix.Insert(ctx, o.lo)
		default:
			found, err := ix.Delete(ctx, o.lo)
			return b2i(found), adaptix.Result{}, err
		}
	}
}

// wireCaller runs operations over one protocol connection.
func wireCaller(c *adaptix.ServeClient) caller {
	return func(ctx context.Context, o op) (int64, adaptix.Result, error) {
		var v int64
		var err error
		switch o.kind {
		case opSum:
			v, err = c.Sum(ctx, o.lo, o.hi)
		case opCount:
			v, err = c.Count(ctx, o.lo, o.hi)
		case opInsert:
			err = c.Insert(ctx, o.lo)
		default:
			var found bool
			found, err = c.Delete(ctx, o.lo)
			v = b2i(found)
		}
		return v, adaptix.Result{}, err
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// spanNames names the span of each operation kind, in-process and on
// the wire.
var spanNames = [2][4]string{
	{"sum", "count", "insert", "delete"},
	{"wire_sum", "wire_count", "wire_insert", "wire_delete"},
}

// closedLoop runs each client's schedule back to back on its own
// goroutine — the next operation starts when the previous one
// returns — and returns every outcome and the phase's wall time.
func closedLoop(rc *roundCtx, name string, calls []caller, sched [][]op, wire int) ([][]rec, time.Duration) {
	ph := rc.tr.begin(name, rc.root)
	recs := make([][]rec, len(sched))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range sched {
		recs[c] = make([]rec, len(sched[c]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := rc.tr.buffer(len(sched[c]))
			ctx := context.Background()
			call := calls[c]
			for i, o := range sched[c] {
				r := &recs[c][i]
				r.start = rc.now()
				r.got, r.res, r.err = call(ctx, o)
				r.end = rc.now()
				buf.add(spanNames[wire][o.kind], ph.id(), int64(i), r.start, r.end)
			}
			buf.flush()
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	ph.end()
	return recs, wall
}
