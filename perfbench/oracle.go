package main

import (
	"fmt"
	"slices"
	"sort"
)

// reference answers Count and Sum exactly from a sorted copy of the
// column and its prefix sums.
type reference struct {
	sorted []int64
	prefix []int64 // prefix[i] = sum of sorted[:i]
}

func newReference(sorted []int64) *reference {
	prefix := make([]int64, len(sorted)+1)
	for i, v := range sorted {
		prefix[i+1] = prefix[i] + v
	}
	return &reference{sorted: sorted, prefix: prefix}
}

func (r *reference) span(lo, hi int64) (int, int) {
	if hi <= lo {
		return 0, 0
	}
	i := sort.Search(len(r.sorted), func(k int) bool { return r.sorted[k] >= lo })
	j := sort.Search(len(r.sorted), func(k int) bool { return r.sorted[k] >= hi })
	return i, j
}

// count is select count(*) where lo <= A < hi.
func (r *reference) count(lo, hi int64) int64 {
	i, j := r.span(lo, hi)
	return int64(j - i)
}

// sum is select sum(A) where lo <= A < hi.
func (r *reference) sum(lo, hi int64) int64 {
	i, j := r.span(lo, hi)
	return r.prefix[j] - r.prefix[i]
}

// answer is the exact answer to a scheduled read.
func (r *reference) answer(o op) int64 {
	if o.kind == opCount {
		return r.count(o.lo, o.hi)
	}
	return r.sum(o.lo, o.hi)
}

// timedWrite is one acknowledged write of the concurrent workload: a
// key inserted or deleted between start and end (nanoseconds on the
// run's clock).
type timedWrite struct {
	key        int64
	insert     bool
	start, end int64
}

// timedRead is one completed read with its answer.
type timedRead struct {
	o          op
	start, end int64
	got        int64
}

// writeModel checks the answers of reads that ran concurrently with
// writes. Each key is written at most once, so the writes a read may
// or may not have seen are exactly those that overlap it in time:
// writes acknowledged before the read began must be visible, writes
// begun after it returned must not be, and each overlapping write
// contributes either way. An answer is correct when it lies in the
// interval those choices allow.
type writeModel struct {
	base   *reference
	writes []timedWrite // sorted by key
}

func newWriteModel(base *reference, writes []timedWrite) (*writeModel, error) {
	w := slices.Clone(writes)
	slices.SortFunc(w, func(a, b timedWrite) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
	for i := 1; i < len(w); i++ {
		if w[i].key == w[i-1].key {
			return nil, fmt.Errorf("write model: key %d written twice", w[i].key)
		}
	}
	return &writeModel{base: base, writes: w}, nil
}

// bounds returns the least and greatest answer the read may return.
func (m *writeModel) bounds(rd timedRead) (lo, hi int64) {
	if rd.o.kind == opCount {
		lo = m.base.count(rd.o.lo, rd.o.hi)
	} else {
		lo = m.base.sum(rd.o.lo, rd.o.hi)
	}
	hi = lo
	i := sort.Search(len(m.writes), func(k int) bool { return m.writes[k].key >= rd.o.lo })
	for ; i < len(m.writes) && m.writes[i].key < rd.o.hi; i++ {
		w := m.writes[i]
		if w.start > rd.end {
			continue // issued after the read returned
		}
		d := w.key
		if rd.o.kind == opCount {
			d = 1
		}
		if !w.insert {
			d = -d
		}
		if w.end < rd.start {
			lo += d // acknowledged before the read began
			hi += d
		} else if d > 0 {
			hi += d
		} else {
			lo += d
		}
	}
	return lo, hi
}

// check returns the number of reads whose answer falls outside its
// allowed interval, and a description of the first one.
func (m *writeModel) check(reads []timedRead) (bad int, first string) {
	for _, rd := range reads {
		lo, hi := m.bounds(rd)
		if rd.got < lo || rd.got > hi {
			if bad == 0 {
				first = fmt.Sprintf("op %d [%d,%d) answered %d, allowed [%d,%d]", rd.o.kind, rd.o.lo, rd.o.hi, rd.got, lo, hi)
			}
			bad++
		}
	}
	return bad, first
}
