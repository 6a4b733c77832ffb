package hsom

import (
	"math"
	"strings"
	"sync"
	"testing"

	"temporaldoc/internal/telemetry"
)

// TestFanoutTableMatchesNearestK is the table's bit-exactness wall:
// every (letter, position) cell must hold exactly what the live search
// returns — ranks, tie-breaks and all.
func TestFanoutTableMatchesNearestK(t *testing.T) {
	enc := trainedEncoder(t)
	fan := enc.fan
	if fan == nil {
		t.Fatal("trained encoder has no fanout table")
	}
	if fan.k != enc.cfg.BMUFanout {
		t.Fatalf("fanout k = %d, want %d", fan.k, enc.cfg.BMUFanout)
	}
	for letter := 0; letter < 26; letter++ {
		for pos := 1; pos <= fan.maxPos; pos++ {
			in := []float64{float64(letter) + 1, float64(2*pos - 1)}
			want := enc.charMap.NearestK(in, fan.k)
			got := fan.row(letter, pos)
			for r := range want {
				if int(got[r]) != want[r] {
					t.Fatalf("letter %c pos %d rank %d: table %d, NearestK %d",
						'a'+letter, pos, r, got[r], want[r])
				}
			}
		}
	}
}

// tableVsFallback recomputes word's vector with the table disabled and
// asserts bit-identity with the table-driven result.
func tableVsFallback(t *testing.T, enc *Encoder, word string) []float64 {
	t.Helper()
	withTable := append([]float64(nil), enc.WordVector(word)...)
	fan := enc.fan
	enc.fan = nil
	enc.ClearWordCache()
	noTable := enc.WordVector(word)
	enc.fan = fan
	enc.ClearWordCache()
	if len(withTable) != len(noTable) {
		t.Fatalf("%q: dims differ: %d vs %d", word, len(withTable), len(noTable))
	}
	for i := range withTable {
		if math.Float64bits(withTable[i]) != math.Float64bits(noTable[i]) {
			t.Fatalf("%q dim %d: table %x, fallback %x", word, i,
				math.Float64bits(withTable[i]), math.Float64bits(noTable[i]))
		}
	}
	return withTable
}

// TestWordVectorTableEdgeCases drives the CharInputs edge cases through
// both the table path and the live-search fallback: words past the
// table bound, all-non-letter words, and mixed-case input must all
// produce bit-identical vectors either way.
func TestWordVectorTableEdgeCases(t *testing.T) {
	enc := trainedEncoder(t)
	long := strings.Repeat("abcdefgh", 6) // 48 letters: positions 33..48 take the fallback
	if len(long) <= fanoutMaxPos {
		t.Fatal("long word does not exceed the table bound")
	}
	for _, word := range []string{
		"profit",
		long,
		"1234!?",    // all non-letters: zero vector
		"",          // empty
		"PrO-FiT99", // mixed case + noise must normalise before the table index
	} {
		tableVsFallback(t, enc, word)
	}

	// Mixed case and noise must hit the same cache-independent vector as
	// the clean lowercase form.
	clean := append([]float64(nil), enc.WordVector("profit")...)
	noisy := enc.WordVector("PrO-FiT99")
	for i := range clean {
		if math.Float64bits(clean[i]) != math.Float64bits(noisy[i]) {
			t.Fatalf("dim %d: clean %g, noisy %g", i, clean[i], noisy[i])
		}
	}

	// All-non-letter words must encode as the zero vector with an empty
	// sparse form.
	en := enc.lookupWord("1234!?")
	for i, v := range en.dense {
		if v != 0 {
			t.Fatalf("non-letter word has mass at dim %d: %g", i, v)
		}
	}
	if len(en.idx) != 0 || len(en.val) != 0 {
		t.Fatalf("non-letter word has non-empty sparse form: %d indices", len(en.idx))
	}
}

// TestWordVectorFallbackCounter checks only positions beyond the table
// bound reach the live search.
func TestWordVectorFallbackCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := tinyCfg()
	cfg.Metrics = reg
	enc, err := Train(cfg, trainDocs())
	if err != nil {
		t.Fatal(err)
	}
	fallback := reg.Counter("hsom.wordvec.fanout.fallback")
	base := fallback.Value()
	enc.WordVector("short")
	if got := fallback.Value(); got != base {
		t.Fatalf("short word took %d fallback searches", got-base)
	}
	enc.WordVector(strings.Repeat("z", fanoutMaxPos+5))
	if got := fallback.Value() - base; got != 5 {
		t.Fatalf("long word took %d fallback searches, want 5", got)
	}
}

// TestWordEntrySparseMatchesDense checks every cached entry's sparse
// form is exactly the non-zero subset of its dense vector, indices
// sorted.
func TestWordEntrySparseMatchesDense(t *testing.T) {
	enc := trainedEncoder(t)
	for _, w := range []string{"profit", "dividend", "wheat", "a", strings.Repeat("xyz", 20)} {
		en := enc.lookupWord(w)
		j := 0
		for i, v := range en.dense {
			zero := math.Float64bits(v) == 0
			if zero {
				continue
			}
			if j >= len(en.idx) || int(en.idx[j]) != i {
				t.Fatalf("%q: dense dim %d missing from sparse form", w, i)
			}
			if math.Float64bits(en.val[j]) != math.Float64bits(v) {
				t.Fatalf("%q dim %d: sparse val %g, dense %g", w, i, en.val[j], v)
			}
			j++
		}
		if j != len(en.idx) {
			t.Fatalf("%q: sparse form has %d extra entries", w, len(en.idx)-j)
		}
	}
}

// TestLookupWordStampede hammers one cold word from many goroutines:
// the per-character computation must run exactly once (one miss), every
// caller must get the same entry, and the discarded-duplicate counter
// must account for every registration race.
func TestLookupWordStampede(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := tinyCfg()
	cfg.Metrics = reg
	enc, err := Train(cfg, trainDocs())
	if err != nil {
		t.Fatal(err)
	}
	enc.ClearWordCache()
	miss := reg.Counter("hsom.wordvec.cache.misses")
	stampede := reg.Counter("hsom.wordvec.cache.stampede")
	hit := reg.Counter("hsom.wordvec.cache.hits")
	miss0, hit0 := miss.Value(), hit.Value()

	const workers = 32
	entries := make([]*wordEntry, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer done.Done()
			start.Wait()
			entries[w] = enc.lookupWord("stampede")
		}(w)
	}
	start.Done()
	done.Wait()

	for w := 1; w < workers; w++ {
		if entries[w] != entries[0] {
			t.Fatalf("worker %d got a different entry", w)
		}
	}
	if got := miss.Value() - miss0; got != 1 {
		t.Fatalf("cold word computed %d times, want exactly 1", got)
	}
	// Every lookup is either the fast-path hit, the single registration,
	// or a counted discarded duplicate.
	races := stampede.Value()
	hits := hit.Value() - hit0
	if hits+races+1 != workers {
		t.Fatalf("accounting off: %d hits + %d stampedes + 1 miss != %d lookups",
			hits, races, workers)
	}
}

// TestClearWordCache checks clearing forces a recompute that lands on
// identical bytes (the cache is a pure function of the frozen map).
func TestClearWordCache(t *testing.T) {
	enc := trainedEncoder(t)
	before := append([]float64(nil), enc.WordVector("profit")...)
	en1 := enc.lookupWord("profit")
	enc.ClearWordCache()
	en2 := enc.lookupWord("profit")
	if en1 == en2 {
		t.Fatal("ClearWordCache kept the old entry")
	}
	for i, v := range en2.dense {
		if math.Float64bits(v) != math.Float64bits(before[i]) {
			t.Fatalf("dim %d changed across cache clear", i)
		}
	}
}
