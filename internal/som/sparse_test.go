package som

import (
	"math"
	"math/rand"
	"testing"
)

// sparseFixture trains a word-SOM-shaped map and builds n sparse inputs
// mimicking word vectors: a handful of non-zero entries with the
// 1, 1/2, 1/3 contribution values (plus sums thereof).
func sparseFixture(t testing.TB, n int) (*Map, [][]int32, [][]float64) {
	t.Helper()
	m, err := New(Config{
		Width: 8, Height: 8, Dim: 91, Epochs: 2,
		InitialLearningRate: 0.3, Seed: 7,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	train := make([][]float64, 64)
	for i := range train {
		ti, tv := randSparse(rng)
		train[i] = denseFromSparse(91, ti, tv)
	}
	if err := m.Train(train); err != nil {
		t.Fatal(err)
	}
	idxs := make([][]int32, n)
	vals := make([][]float64, n)
	for i := range idxs {
		idxs[i], vals[i] = randSparse(rng)
	}
	return m, idxs, vals
}

// randSparse draws a word-vector-shaped sparse input: sorted unique
// indices, values that are sums of 1, 1/2, 1/3 contributions.
func randSparse(rng *rand.Rand) ([]int32, []float64) {
	contrib := []float64{1, 0.5, 1.0 / 3.0}
	nnz := 3 + rng.Intn(18)
	seen := make(map[int32]float64)
	for k := 0; k < nnz; k++ {
		seen[int32(rng.Intn(91))] += contrib[rng.Intn(3)]
	}
	idx := make([]int32, 0, len(seen))
	for i := range seen {
		idx = append(idx, i)
	}
	for a := 1; a < len(idx); a++ { // insertion sort, small n
		for b := a; b > 0 && idx[b] < idx[b-1]; b-- {
			idx[b], idx[b-1] = idx[b-1], idx[b]
		}
	}
	val := make([]float64, len(idx))
	for k, i := range idx {
		val[k] = seen[i]
	}
	return idx, val
}

func denseFromSparse(dim int, idx []int32, val []float64) []float64 {
	x := make([]float64, dim)
	for k, i := range idx {
		x[i] = val[k]
	}
	return x
}

// TestBMUSparseMatchesDense is the kernel's bit-identity wall at the
// som level: for word-vector-shaped sparse inputs over a trained map,
// the sparse sweep must select exactly the unit the dense sweep does.
func TestBMUSparseMatchesDense(t *testing.T) {
	m, idxs, vals := sparseFixture(t, 500)
	for i := range idxs {
		dense := denseFromSparse(91, idxs[i], vals[i])
		want := m.BMU(dense)
		if got := m.BMUSparse(idxs[i], vals[i]); got != want {
			t.Fatalf("input %d: BMUSparse = %d, BMU = %d", i, got, want)
		}
	}
}

// TestBMUSparseTieBreak forces exact score ties (duplicated weight
// vectors) and checks both kernels break them towards the lower unit
// index.
func TestBMUSparseTieBreak(t *testing.T) {
	weights := make([][]float64, 6)
	for u := range weights {
		w := make([]float64, 8)
		for d := range w {
			w[d] = float64((u/2)*3+d) * 0.25 // units 0&1, 2&3, 4&5 identical
		}
		weights[u] = w
	}
	m, err := FromSnapshot(Snapshot{
		Config: Config{Width: 3, Height: 2, Dim: 8, Epochs: 1,
			InitialLearningRate: 0.1},
		Weights: weights,
	})
	if err != nil {
		t.Fatal(err)
	}
	idx := []int32{1, 4, 6}
	val := []float64{1, 0.5, 1.0 / 3.0}
	dense := denseFromSparse(8, idx, val)
	want := m.BMU(dense)
	if got := m.BMUSparse(idx, val); got != want {
		t.Fatalf("tie broken differently: sparse %d, dense %d", got, want)
	}
	// The winner must be the lower-indexed unit of its duplicate pair.
	if want%2 != 0 {
		t.Fatalf("dense BMU %d is not the lower unit of a duplicate pair", want)
	}
}

// sparseLane returns the dense kernel's accumulator lane for index i:
// lane i%4 inside the unrolled body, lane 0 in the scalar tail that
// starts at n4 = dim&^3. BMUSparse implements this assignment.
func sparseLane(i, n4 int) int {
	if i >= n4 {
		return 0
	}
	return i & 3
}

// TestBMUSparseLaneOrder pins the accumulator-lane contract the sparse
// kernel replicates: lane i%4 for i < dim&^3, lane 0 for the tail.
// If the dense dot kernel's unroll scheme changes, this fails before
// any parity test does.
func TestBMUSparseLaneOrder(t *testing.T) {
	for _, tc := range []struct{ i, n4, want int }{
		{0, 88, 0}, {1, 88, 1}, {2, 88, 2}, {3, 88, 3},
		{4, 88, 0}, {87, 88, 3},
		{88, 88, 0}, {89, 88, 0}, {90, 88, 0}, // scalar tail
		{0, 0, 0}, {2, 0, 0}, // dim < 4: everything is tail
	} {
		if got := sparseLane(tc.i, tc.n4); got != tc.want {
			t.Errorf("sparseLane(%d, %d) = %d, want %d", tc.i, tc.n4, got, tc.want)
		}
	}
	// Cross-check against the dense kernel on inputs whose per-lane sums
	// are order-sensitive: values of wildly different magnitudes make a
	// mis-laned term change low-order bits.
	m, err := FromSnapshot(Snapshot{
		Config: Config{Width: 2, Height: 1, Dim: 7, Epochs: 1,
			InitialLearningRate: 0.1},
		Weights: [][]float64{
			{1e-9, 1, 1e9, 1e-3, 7, 1e6, 1e-6},
			{3, 1e8, 1e-8, 2, 1e5, 1e-5, 11},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	idx := []int32{0, 2, 3, 5, 6}
	val := []float64{1e9, 1e-9, 1, 1e-6, 1e6}
	dense := denseFromSparse(7, idx, val)
	for u := 0; u < m.Units(); u++ {
		want := m.score(dense, u)
		var s [4]float64
		n4 := 7 &^ 3
		w := m.Weights(u)
		for k, i := range idx {
			s[sparseLane(int(i), n4)] += val[k] * w[i]
		}
		got := m.norm2[u] - 2*((s[0]+s[1])+(s[2]+s[3]))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("unit %d: sparse score %x, dense %x", u, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestSparseKernelZeroAlloc is the no-alloc contract of the
// //tdlint:hotpath sparse kernel, enforced by `make encode-smoke`.
func TestSparseKernelZeroAlloc(t *testing.T) {
	m, idxs, vals := sparseFixture(t, 4)
	sink := 0
	if n := testing.AllocsPerRun(100, func() {
		sink += m.BMUSparse(idxs[0], vals[0])
	}); n != 0 {
		t.Errorf("BMUSparse allocates %v per op", n)
	}
	if sink < 0 {
		t.Fatal("impossible")
	}
}
