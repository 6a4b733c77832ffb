package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/lgp"
)

// referenceInputs encodes a document for one category the way the
// table is defined: keep-set filter, hsom.Encoder.Encode, member codes
// only, DropMembershipInput applied. It also returns each input's word
// and position in the original document.
func referenceInputs(t testing.TB, m *Model, cat string, doc *corpus.Document) ([][]float64, []string, []int) {
	t.Helper()
	keep := m.Keep(cat)
	var words []string
	var positions []int
	for i, w := range doc.Words {
		if keep[w] {
			words = append(words, w)
			positions = append(positions, i)
		}
	}
	codes, err := m.Encoder().Encode(cat, words)
	if err != nil {
		t.Fatal(err)
	}
	var inputs [][]float64
	var memberWords []string
	var memberPos []int
	for k, c := range codes {
		if !c.Member {
			continue
		}
		membership := c.Membership
		if m.cfg.DropMembershipInput {
			membership = 0
		}
		inputs = append(inputs, []float64{c.NormIndex, membership})
		memberWords = append(memberWords, c.Word)
		memberPos = append(memberPos, positions[k])
	}
	return inputs, memberWords, memberPos
}

// referencePredictions scores a document on every category through the
// reference path: referenceInputs plus a fresh machine's RunSequence.
func referencePredictions(t testing.TB, m *Model, doc *corpus.Document) []Prediction {
	t.Helper()
	machine := lgp.NewMachine(m.cfg.GP.NumRegisters)
	out := make([]Prediction, 0, len(m.cats))
	for _, cat := range m.cats {
		cm := m.CategoryModelFor(cat)
		inputs, _, _ := referenceInputs(t, m, cat, doc)
		var score float64
		if m.cfg.GP.Recurrent {
			score = machine.RunSequence(cm.Program, inputs)
		} else {
			score = machine.RunSequenceNonRecurrent(cm.Program, inputs)
		}
		out = append(out, Prediction{Category: cat, Score: score, InClass: score > cm.Threshold})
	}
	return out
}

func samePredictions(a, b []Prediction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Category != b[i].Category || a[i].InClass != b[i].InClass ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// checkTableParity requires ClassifyDoc over the full test split to be
// bit-identical to the reference path.
func checkTableParity(t *testing.T, m *Model, docs []corpus.Document) {
	t.Helper()
	for i := range docs {
		got, err := m.ClassifyDoc(&docs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := referencePredictions(t, m, &docs[i]); !samePredictions(got, want) {
			t.Fatalf("doc %d: table %+v, reference %+v", i, got, want)
		}
	}
}

// TestKernelParityClassification is the system-level byte-identity
// wall: table-driven scoring must produce the exact prediction bytes —
// scores included — that hsom.Encoder.Encode plus Machine.RunSequence
// produce, over the full synthetic test split.
func TestKernelParityClassification(t *testing.T) {
	m, c := trainedModel(t)
	checkTableParity(t, m, c.Test)
}

// TestEncodeTableParityAcrossMethods repeats the parity wall for every
// feature-selection method and for the membership-dropping ablation,
// whose table entries carry a zero membership.
func TestEncodeTableParityAcrossMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("trains one model per method")
	}
	c := smallCorpus(t)
	for _, tc := range []struct {
		method featsel.Method
		drop   bool
	}{{featsel.IG, false}, {featsel.MI, false}, {featsel.Nouns, false}, {featsel.DF, true}} {
		t.Run(fmt.Sprintf("%s/drop=%v", tc.method, tc.drop), func(t *testing.T) {
			cfg := fastConfig(tc.method)
			cfg.GP.Tournaments = 40
			cfg.DropMembershipInput = tc.drop
			m, err := Train(cfg, c)
			if err != nil {
				t.Fatal(err)
			}
			checkTableParity(t, m, c.Test)
		})
	}
}

// TestTraceParityWithReference checks Trace and TraceAll report exactly
// the reference path's member words, original positions and output
// bits.
func TestTraceParityWithReference(t *testing.T) {
	m, c := trainedModel(t)
	machine := lgp.NewMachine(m.cfg.GP.NumRegisters)
	for i := range c.Test {
		doc := &c.Test[i]
		all, err := m.TraceAll(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cat := range m.Categories() {
			inputs, words, positions := referenceInputs(t, m, cat, doc)
			outs := machine.Trace(m.CategoryModelFor(cat).Program, inputs)
			got, err := m.Trace(cat, doc)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(outs) || len(all[cat]) != len(outs) {
				t.Fatalf("doc %d %s: trace lengths %d/%d, reference %d", i, cat, len(got), len(all[cat]), len(outs))
			}
			for k := range outs {
				for _, p := range []TracePoint{got[k], all[cat][k]} {
					if p.Word != words[k] || p.WordIndex != positions[k] ||
						math.Float64bits(p.Output) != math.Float64bits(outs[k]) {
						t.Fatalf("doc %d %s point %d: %+v, reference %q@%d %v", i, cat, k, p, words[k], positions[k], outs[k])
					}
				}
			}
		}
	}
}

// TestSnapshotUnchangedByKernel checks the encode kernels' state — the
// char-map fanout table and the model's encode table — is derived,
// never persisted: Save → Load → Save reproduces the snapshot bytes,
// and the loaded model rebuilds a table of the same size.
func TestSnapshotUnchangedByKernel(t *testing.T) {
	m, _ := trainedModel(t)
	var base bytes.Buffer
	if err := m.Save(&base); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(base.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.Bytes(), resaved.Bytes()) {
		t.Fatal("save → load → save changed snapshot bytes")
	}
	want, got := m.EncodeTable(), loaded.EncodeTable()
	if got.Entries == 0 || got.Entries != want.Entries {
		t.Fatalf("loaded table has %d entries, trained %d", got.Entries, want.Entries)
	}
	keepWords := 0
	for _, cat := range m.Categories() {
		keepWords += len(m.Keep(cat))
	}
	if got.Entries != keepWords {
		t.Fatalf("table has %d entries, keep sets hold %d words", got.Entries, keepWords)
	}
}

// relabel copies docs under fresh IDs with the given prefix.
func relabel(docs []corpus.Document, prefix string) []corpus.Document {
	out := make([]corpus.Document, len(docs))
	for i, d := range docs {
		d.ID = fmt.Sprintf("%s-%d", prefix, i)
		out[i] = d
	}
	return out
}

// TestClassifyDocZeroAlloc is the allocation contract of the serving
// entry point on distinct documents: with a reused out slice,
// ClassifyDoc allocates nothing, whatever the document. Every measured
// document carries an ID the model has never seen.
func TestClassifyDocZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless there")
	}
	m, c := trainedModel(t)
	out := make([]Prediction, 0, len(m.Categories()))
	// Grow the pooled buffers to the longest document first.
	for i := range c.Test {
		if _, err := m.ClassifyDoc(&c.Test[i], out[:0]); err != nil {
			t.Fatal(err)
		}
	}
	docs := relabel(c.Test, "zero-alloc")
	i := 0
	n := testing.AllocsPerRun(len(docs)-1, func() {
		var err error
		if out, err = m.ClassifyDoc(&docs[i%len(docs)], out[:0]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if n != 0 {
		t.Fatalf("ClassifyDoc allocates %v per distinct document", n)
	}
}

// TestClassifyDocConcurrentDistinct classifies distinct documents from
// 8 goroutines on one shared model; every result must equal, bit for
// bit, a sequential run of the reference path. The same goroutines also
// send identical words under different IDs and different words under
// one shared ID: a result may depend on doc.Words and nothing else.
func TestClassifyDocConcurrentDistinct(t *testing.T) {
	m, c := trainedModel(t)
	docs := c.Test
	want := make([][]Prediction, len(docs))
	for i := range docs {
		want[i] = referencePredictions(t, m, &docs[i])
	}
	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]Prediction, 0, len(m.Categories()))
			check := func(doc corpus.Document, i int, what string) bool {
				got, err := m.ClassifyDoc(&doc, out[:0])
				if err == nil && !samePredictions(got, want[i]) {
					err = fmt.Errorf("%s: doc %d scored %+v, reference %+v", what, i, got, want[i])
				}
				if err != nil {
					errs <- err
					return false
				}
				return true
			}
			for i := w; i < len(docs); i += workers {
				doc := docs[i]
				// Distinct documents; then the same words under another
				// ID; then another document's words under this ID.
				other := (i + 1) % len(docs)
				if !check(doc, i, "distinct") ||
					!check(corpus.Document{ID: fmt.Sprintf("renamed-%d", i), Words: doc.Words}, i, "same words, new ID") ||
					!check(corpus.Document{ID: doc.ID, Words: docs[other].Words}, other, "new words, reused ID") ||
					!check(corpus.Document{ID: "shared", Words: doc.Words}, i, "shared ID") {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkClassifyDistinct measures ClassifyDoc over the test split,
// cycled, with a reused out slice — the serving path on traffic that
// never repeats a document.
func BenchmarkClassifyDistinct(b *testing.B) {
	m, c := trainedModel(b)
	docs := relabel(c.Test, "bench")
	out := make([]Prediction, 0, len(m.Categories()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if out, err = m.ClassifyDoc(&docs[i%len(docs)], out[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildCodeTable measures the encode-table build as Load runs
// it: on an encoder whose word-vector cache is cold.
func BenchmarkBuildCodeTable(b *testing.B) {
	trained, _ := trainedModel(b)
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		b.Fatal(err)
	}
	m, err := Load(&buf)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m.Encoder().ClearWordCache()
		b.StartTimer()
		if err := m.buildEncodeTable(); err != nil {
			b.Fatal(err)
		}
	}
}
