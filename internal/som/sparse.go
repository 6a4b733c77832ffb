package som

import "math"

// This file holds the sparse encode kernel: BMU search over sparse
// inputs, bit-identical to the dense sweep.
//
// A level-2 word vector has at most 3×len(word) non-zero entries out of
// the char-map's unit count (91 in the paper's geometry), so the dense
// BMU sweep multiplies mostly by zero. The sparse kernel walks only the
// non-zero (index, value) pairs — but a skipped zero term must not
// change a single output bit, so the summation order is pinned to the
// dense kernel's exactly:
//
//   - dotProduct (and the hand-inlined sweep in BMU) splits indices
//     into four accumulator lanes — lane i%4 for i < dim&^3, lane 0 for
//     the tail — and reduces them as (s0+s1)+(s2+s3);
//   - BMUSparse assigns every non-zero term to the same lane, in the
//     same increasing-index order, and reduces identically (sorted
//     indices put every body term before every tail term, so it runs
//     the two ranges as separate loops);
//   - the skipped terms are x[i]*w[i] with x[i] = ±0.0, which contribute
//     exactly ±0.0: adding −0.0 is always a float64 identity, and adding
//     +0.0 is an identity unless the accumulator is −0.0 — impossible
//     here, because a lane only ever becomes −0.0 by summing −0.0
//     terms, in which case the sparse lane holds +0.0 and both reduce
//     to equal scores (−0.0 == +0.0 under the < that picks the BMU).
//
// TestBMUSparseLaneOrder pins the lane layout; if the dense kernel's
// accumulation scheme ever changes, that test (not a late parity
// failure) is what breaks.

// BMUSparse returns the best-matching unit of the sparse input whose
// dense expansion has val[k] at index idx[k] and zero everywhere else.
// Indices must be strictly increasing and within [0, Dim). The result —
// including tie-breaking towards the lower unit index — is bit-identical
// to calling BMU on the dense expansion (see the file comment for the
// exactness argument).
//
//tdlint:hotpath
func (m *Map) BMUSparse(idx []int32, val []float64) int {
	dim := m.cfg.Dim
	n4 := dim &^ 3
	val = val[:len(idx)]
	// Indices are sorted, so the unrolled-body indices (lane i&3) all
	// precede the tail indices (lane 0): two loops in index order give
	// every lane the terms the dense layout assigns it, in the same order.
	body := len(idx)
	for body > 0 && int(idx[body-1]) >= n4 {
		body--
	}
	bodyIdx, bodyVal := idx[:body], val[:body]
	tailIdx, tailVal := idx[body:], val[body:]
	best, bestS := 0, math.Inf(1)
	off := 0
	for u, n2 := range m.norm2 {
		w := m.flat[off : off+dim : off+dim]
		var s [4]float64
		for k, i := range bodyIdx {
			s[i&3] += bodyVal[k] * w[i]
		}
		for k, i := range tailIdx {
			s[0] += tailVal[k] * w[i]
		}
		sc := n2 - 2*((s[0]+s[1])+(s[2]+s[3]))
		if sc < bestS {
			best, bestS = u, sc
		}
		off += dim
	}
	return best
}
