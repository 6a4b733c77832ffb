package som

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchMap builds a trained-shape map and input set matching the paper's
// word-SOM workload: an 8x8 grid over 91-dimensional word vectors.
func benchMap(b *testing.B, n int) (*Map, [][]float64) {
	b.Helper()
	m, err := New(Config{
		Width: 8, Height: 8, Dim: 91, Epochs: 1,
		InitialLearningRate: 0.3, Seed: 1,
	}, 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	inputs := make([][]float64, n)
	for i := range inputs {
		v := make([]float64, 91)
		for d := range v {
			v[d] = rng.Float64() * 3
		}
		inputs[i] = v
	}
	return m, inputs
}

func BenchmarkBMU(b *testing.B) {
	m, inputs := benchMap(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BMU(inputs[i%len(inputs)])
	}
}

func BenchmarkBMUBatch(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			m, inputs := benchMap(b, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.BMUBatch(inputs, workers)
			}
		})
	}
}

// BenchmarkBMUSparse compares the dense level-2 sweep against the
// sparse kernel on word-vector-shaped inputs (~3×wordlen non-zeros of
// 91 dims).
func BenchmarkBMUSparse(b *testing.B) {
	m, idxs, vals := sparseFixture(b, 256)
	dense := make([][]float64, len(idxs))
	for i := range idxs {
		dense[i] = denseFromSparse(91, idxs[i], vals[i])
	}
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.BMU(dense[i%len(dense)])
		}
	})
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % len(idxs)
			m.BMUSparse(idxs[j], vals[j])
		}
	})
}

func BenchmarkTrainEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inputs := make([][]float64, 2000)
	for i := range inputs {
		inputs[i] = []float64{1 + rng.Float64()*25, 1 + rng.Float64()*24}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(Config{
			Width: 7, Height: 13, Dim: 2, Epochs: 1,
			InitialLearningRate: 0.5, Seed: int64(i),
		}, 26)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Train(inputs); err != nil {
			b.Fatal(err)
		}
	}
}
