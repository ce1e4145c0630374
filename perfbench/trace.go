package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call made by the benchmark into the system, or a
// phase enclosing such calls. Times are nanoseconds on the run's clock.
type span struct {
	name       string
	id, parent int64 // parent 0: a root span
	op         int64 // operation index within its phase (-1: none)
	start, end int64
}

// tracer keeps the spans of a run's traced rounds in memory. A nil tracer
// records nothing, so untraced rounds pay one nil check per call.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	// next is the last span id handed out.
	next  int64
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// openSpan is a span begun but not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// begin opens a span under parent (0 for a root span). A nil tracer
// returns a span whose end does nothing.
func (t *tracer) begin(name string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	o := openSpan{t: t, s: span{name: name, parent: parent, op: -1, start: t.now()}}
	t.mu.Lock()
	t.next++
	o.s.id = t.next
	t.mu.Unlock()
	return o
}

// id is the span's id, the parent of the spans opened inside it.
func (o openSpan) id() int64 { return o.s.id }

// end closes the span.
func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.end = o.t.now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// add records a finished leaf span from any goroutine.
func (t *tracer) add(name string, parent, opIdx, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{name: name, id: t.next, parent: parent, op: opIdx, start: start, end: end})
	t.mu.Unlock()
}

// buffer is a per-goroutine span list for hot loops, merged into the
// tracer once the loop ends so recording takes no lock per call.
type buffer struct {
	t     *tracer
	spans []span
}

func (t *tracer) buffer(capacity int) *buffer {
	if t == nil {
		return nil
	}
	return &buffer{t: t, spans: make([]span, 0, capacity)}
}

// add records a finished call; the ids of leaf spans are assigned at
// flush time.
func (b *buffer) add(name string, parent, opIdx, start, end int64) {
	if b == nil {
		return
	}
	b.spans = append(b.spans, span{name: name, parent: parent, op: opIdx, start: start, end: end})
}

func (b *buffer) flush() {
	if b == nil {
		return
	}
	b.t.mu.Lock()
	for i := range b.spans {
		b.t.next++
		b.spans[i].id = b.t.next
	}
	b.t.spans = append(b.t.spans, b.spans...)
	b.t.mu.Unlock()
	b.spans = nil
}

// selfTimes returns each span's self time keyed by span name: its
// duration minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string][]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string][]int64)
	for _, s := range spans {
		self := (s.end - s.start) - covered(s, children[s.id])
		out[s.name] = append(out[s.name], self)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	slices.SortFunc(iv, func(x, y [2]int64) int {
		switch {
		case x[0] < y[0]:
			return -1
		case x[0] > y[0]:
			return 1
		}
		return 0
	})
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range iv {
		if v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// write dumps the spans as tab-separated lines: id, parent, name, op,
// start_ns, end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\top\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.name, s.op, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
