package hsom

import (
	"math"
	"reflect"
	"testing"
)

// encodeAll encodes a fixed word list against every category.
func encodeAll(t *testing.T, enc *Encoder) map[string][]WordCode {
	t.Helper()
	words := []string{
		"profit", "dividend", "quarter", "shares", "wheat", "tonnes",
		"harvest", "crop", "unseen", "zzzz",
	}
	out := make(map[string][]WordCode)
	for _, cat := range enc.Categories() {
		codes, err := enc.Encode(cat, words)
		if err != nil {
			t.Fatalf("Encode %s: %v", cat, err)
		}
		out[cat] = codes
	}
	return out
}

// denseEncode is the dense reference of Encode: the word vector built
// by the live per-character NearestK search, the dense BMU sweep and the
// dense Gaussian evaluation.
func denseEncode(t *testing.T, enc *Encoder, cat string, words []string) []WordCode {
	t.Helper()
	ce := enc.Category(cat)
	units := float64(ce.Map.Units() - 1)
	out := make([]WordCode, 0, len(words))
	for _, w := range words {
		dense := make([]float64, enc.CharMap().Units())
		for _, in := range CharInputs(w) {
			for rank, u := range enc.CharMap().NearestK(in, enc.cfg.BMUFanout) {
				dense[u] += 1 / float64(rank+1)
			}
		}
		u := ce.Map.BMU(dense)
		code := WordCode{Word: w, Unit: u}
		if g, ok := ce.gauss[u]; ok {
			if raw := g.Eval(dense); raw >= g.MinValue {
				code.Member = true
				code.NormIndex = float64(u) / units
				code.Membership = math.Min(raw/g.MaxValue, 1)
			}
		}
		out = append(out, code)
	}
	return out
}

// TestEncodeKernelParity is the hsom-level byte-identity wall: Encode
// (fanout table, sparse BMU sweep, sparse membership) must produce
// exactly the word codes of the dense reference computation — units,
// memberships, member flags, all bits.
func TestEncodeKernelParity(t *testing.T) {
	enc := trainedEncoder(t)
	fast := encodeAll(t, enc)
	for cat, codes := range fast {
		words := make([]string, len(codes))
		for i, c := range codes {
			words[i] = c.Word
		}
		if want := denseEncode(t, enc, cat, words); !reflect.DeepEqual(codes, want) {
			t.Fatalf("%s: sparse and dense encodings disagree:\nsparse: %+v\ndense:  %+v", cat, codes, want)
		}
	}
}

// TestEvalSparseMatchesEval checks the sparse Gaussian evaluation is
// bit-identical to the dense one on real cached word entries.
func TestEvalSparseMatchesEval(t *testing.T) {
	enc := trainedEncoder(t)
	for _, cat := range enc.Categories() {
		ce := enc.Category(cat)
		for _, g := range ce.gauss {
			for _, w := range []string{"profit", "wheat", "unseen", "1234"} {
				en := enc.lookupWord(w)
				want := g.Eval(en.dense)
				got := g.EvalSparse(en.idx, en.val)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %q: EvalSparse %x, Eval %x", cat, w,
						math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestEncodeKernelsZeroAlloc is the //tdlint:hotpath no-alloc contract
// of the steady-state encode path: warm cache lookup, sparse BMU sweep
// and sparse membership must not allocate.
func TestEncodeKernelsZeroAlloc(t *testing.T) {
	enc := trainedEncoder(t)
	cat := enc.Categories()[0]
	ce := enc.Category(cat)
	var g *Gaussian
	for _, cand := range ce.gauss {
		g = cand
		break
	}
	if g == nil {
		t.Fatal("no gaussian on first category")
	}
	en := enc.lookupWord("profit") // warm the cache
	sink := 0
	var fsink float64
	if n := testing.AllocsPerRun(100, func() {
		en = enc.lookupWord("profit")
	}); n != 0 {
		t.Errorf("warm lookupWord allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sink += ce.Map.BMUSparse(en.idx, en.val)
	}); n != 0 {
		t.Errorf("BMUSparse allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		fsink += g.EvalSparse(en.idx, en.val)
	}); n != 0 {
		t.Errorf("EvalSparse allocates %v per op", n)
	}
	if sink < 0 || fsink < 0 {
		t.Fatal("impossible")
	}
}
