package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
)

// Operation kinds of a precomputed schedule.
const (
	opSum uint8 = iota
	opCount
	opInsert
	opDelete
)

// op is one scheduled operation: a range query over [lo, hi), or a
// write of key lo.
type op struct {
	kind   uint8
	lo, hi int64
}

func (o op) isRead() bool { return o.kind == opSum || o.kind == opCount }

// newRand returns the generator for one named input stream of a seed,
// so that adding a stream never shifts the values of another.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Input streams.
const (
	streamData uint64 = iota + 1
	streamReads
	streamWrites
	streamDrain
	streamProbes
	streamArrivals
	streamCells
)

// cellLayout seeds the order in which zipfReads ranks the domain's
// cells. It is the same for every seed: a query spans its cell and
// the next, so the cost of the warm phase depends on whether the
// hottest cells' neighbours are hot too, and a per-seed layout spread
// AMerge's warm throughput by 15–18% across seeds against 8% on one.
const cellLayout = 1

// uniqueValues returns n distinct keys, the i-th smallest drawn from
// [keyStep·i, keyStep·(i+1)), as a shuffled column plus its sorted
// copy. The domain is [0, keyStep·n).
func uniqueValues(n int, seed uint64) (column, sorted []int64) {
	r := newRand(seed, streamData)
	sorted = make([]int64, n)
	for i := range sorted {
		sorted[i] = keyStep*int64(i) + r.Int64N(keyStep)
	}
	column = slices.Clone(sorted)
	r.Shuffle(n, func(i, j int) { column[i], column[j] = column[j], column[i] })
	return column, sorted
}

// keyStep is the spacing of generated keys: the key domain is keyStep
// times the row count, so a range of w keys holds about w/keyStep rows.
const keyStep = 4

// zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s. It
// accepts s = 1, which math/rand's Zipf does not.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for k := range n {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) rank(r *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, r.Float64()), len(z.cdf)-1)
}

// uniformReads returns count Sum queries of width keys with lo
// uniform over [0, domain-width].
func uniformReads(r *rand.Rand, count int, domain, width int64) []op {
	ops := make([]op, count)
	for i := range ops {
		lo := r.Int64N(domain - width + 1)
		ops[i] = op{kind: opSum, lo: lo, hi: lo + width}
	}
	return ops
}

// zipfReads returns count Sum queries of width keys whose position is
// Zipf(1.0)-skewed: the domain is cut into cells of width keys, cell
// popularity follows Zipf over a fixed permutation of the cells (see
// cellLayout), and lo falls uniformly inside the chosen cell.
func zipfReads(r *rand.Rand, count int, domain, width int64) []op {
	cells := int(domain / width)
	perm := newRand(cellLayout, streamCells).Perm(cells)
	z := newZipf(cells, 1.0)
	ops := make([]op, count)
	for i := range ops {
		cell := int64(perm[z.rank(r)])
		lo := min(cell*width+r.Int64N(width), domain-width)
		ops[i] = op{kind: opSum, lo: lo, hi: lo + width}
	}
	return ops
}

// deal splits a global schedule between clients round-robin: client c
// runs operations c, c+clients, c+2·clients, ... in order.
func deal(ops []op, clients int) [][]op {
	out := make([][]op, clients)
	for i, o := range ops {
		out[i%clients] = append(out[i%clients], o)
	}
	return out
}
