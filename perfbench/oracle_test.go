package main

import (
	"slices"
	"testing"
)

func TestReferenceMatchesBruteForce(t *testing.T) {
	column, sorted := uniqueValues(5000, 7)
	ref := newReference(sorted)
	r := newRand(7, 99)
	for range 500 {
		lo := r.Int64N(5000*keyStep+10) - 5
		hi := lo + r.Int64N(400) - 20 // some empty or inverted ranges
		var n, s int64
		for _, v := range column {
			if v >= lo && v < hi {
				n++
				s += v
			}
		}
		if got := ref.count(lo, hi); got != n {
			t.Fatalf("count[%d,%d) = %d, want %d", lo, hi, got, n)
		}
		if got := ref.sum(lo, hi); got != s {
			t.Fatalf("sum[%d,%d) = %d, want %d", lo, hi, got, s)
		}
	}
}

func TestInputsAreDeterministic(t *testing.T) {
	c1, s1 := uniqueValues(1000, 3)
	c2, _ := uniqueValues(1000, 3)
	c3, _ := uniqueValues(1000, 4)
	if !slices.Equal(c1, c2) {
		t.Error("the same seed gave different columns")
	}
	if slices.Equal(c1, c3) {
		t.Error("different seeds gave the same column")
	}
	if !slices.IsSorted(s1) || len(slices.Compact(slices.Clone(s1))) != len(s1) {
		t.Error("keys are not distinct")
	}
	a := zipfReads(newRand(3, 1), 100, 40000, 40)
	b := zipfReads(newRand(3, 1), 100, 40000, 40)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave different read schedules")
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	z := newZipf(100, 1.0)
	r := newRand(1, 1)
	var hits [100]int
	for range 100000 {
		hits[z.rank(r)]++
	}
	// P(rank 0) = 1/H(100) ≈ 0.193; P(rank 1) is half of it.
	if hits[0] < 18000 || hits[0] > 20600 || hits[1] < 8600 || hits[1] > 10700 {
		t.Errorf("rank 0 drawn %d, rank 1 %d times of 100000", hits[0], hits[1])
	}
}

func TestWriteModelInterval(t *testing.T) {
	base := newReference([]int64{10, 20, 30})
	m, err := newWriteModel(base, []timedWrite{
		{key: 25, insert: true, start: 0, end: 5},   // acknowledged before the read
		{key: 15, insert: true, start: 8, end: 12},  // overlaps it
		{key: 20, insert: false, start: 9, end: 30}, // overlaps it
		{key: 12, insert: true, start: 21, end: 22}, // issued after it returned
		{key: 40, insert: true, start: 0, end: 1},   // outside the range
	})
	if err != nil {
		t.Fatal(err)
	}
	rd := timedRead{o: op{kind: opSum, lo: 0, hi: 35}, start: 10, end: 20}
	lo, hi := m.bounds(rd)
	// 60 in the base, +25 certainly, +15 perhaps, -20 perhaps.
	if lo != 60+25-20 || hi != 60+25+15 {
		t.Errorf("sum bounds = [%d,%d], want [65,100]", lo, hi)
	}
	rd.o.kind = opCount
	if lo, hi := m.bounds(rd); lo != 3 || hi != 5 {
		t.Errorf("count bounds = [%d,%d], want [3,5]", lo, hi)
	}
	reads := []timedRead{
		{o: op{kind: opSum, lo: 0, hi: 35}, start: 10, end: 20, got: 85},  // saw 25 only
		{o: op{kind: opSum, lo: 0, hi: 35}, start: 10, end: 20, got: 100}, // saw 25 and 15
		{o: op{kind: opSum, lo: 0, hi: 35}, start: 10, end: 20, got: 60},  // missed an acknowledged insert
		{o: op{kind: opSum, lo: 0, hi: 35}, start: 10, end: 20, got: 112}, // saw a write issued later
	}
	if bad, _ := m.check(reads); bad != 2 {
		t.Errorf("check found %d wrong answers, want 2", bad)
	}
	if _, err := newWriteModel(base, []timedWrite{{key: 1}, {key: 1}}); err == nil {
		t.Error("a key written twice was accepted")
	}
}
