package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"

	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/experiments"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/metrics"
	"temporaldoc/internal/reuters"
	"temporaldoc/internal/textproc"
)

// fixtureSeed is the corpus and training seed of the serving fixtures
// and of the train-quick quality reference: the quick profile's own
// seed, so fixture models (and the F1 they score) do not change with the
// workload seed. Workload seeds drive everything the programs are fed.
const fixtureSeed = 1

// quickProfile is the quick profile (7×13 / 8×8 maps) with its corpus
// and training seed set to seed.
func quickProfile(seed int64) experiments.Profile {
	p := experiments.QuickProfile()
	p.Seed = seed
	return p
}

// fixture is one trained, saved snapshot and its offline twin: the
// model core.LoadFile reads back from the same file the server loads.
type fixture struct {
	method featsel.Method
	path   string
	sha    string
	model  *core.Model
	// macroF1 and microF1 score the model on its corpus's test split.
	macroF1, microF1 float64
}

// trainFixture trains a quick-profile model with the given method and
// seed, saves it to path, loads it back and scores it on the test split.
func trainFixture(method featsel.Method, seed int64, path string) (*fixture, error) {
	p := quickProfile(seed)
	c, err := p.Corpus()
	if err != nil {
		return nil, err
	}
	m, err := core.Train(p.CoreConfig(method), c)
	if err != nil {
		return nil, fmt.Errorf("train %s fixture: %w", method, err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	loaded, info, err := core.LoadFile(path)
	if err != nil {
		return nil, err
	}
	set, err := loaded.Evaluate(c.Test)
	if err != nil {
		return nil, err
	}
	return &fixture{method: method, path: path, sha: info.SHA256, model: loaded,
		macroF1: set.MacroF1(), microF1: set.MicroF1()}, nil
}

// parallel runs fn(i) for i < n on at most nproc goroutines and returns
// the first error.
func parallel(n int, fn func(i int) error) error {
	workers := min(runtime.NumCPU(), n)
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// heldOutCorpora is how many synthetic corpora the served documents
// are drawn from. The generator draws phrase and tail vocabularies per
// corpus, and encoding cost follows them, so one corpus per seed would
// make the serve figures vary with the seed; several average that out.
const heldOutCorpora = 4

// heldOutDocs generates the labelled documents served to the server:
// heldOutCorpora synthetic corpora of the given scale (train and test
// splits together) from seeds derived from the workload seed, never the
// fixture seed, shuffled by the workload seed so any prefix mixes every
// category and corpus.
func heldOutDocs(seed int64, scale float64) ([]corpus.Document, error) {
	var docs []corpus.Document
	for i := 0; i < heldOutCorpora; i++ {
		cfg := reuters.DefaultGenConfig()
		cfg.Scale = scale
		cfg.Seed = int64(splitmix(seed, uint64(1000+i)) >> 1)
		if cfg.Seed == fixtureSeed || cfg.Seed == fixtureSeed+1 {
			cfg.Seed += 2
		}
		c, err := reuters.GenerateCorpus(cfg)
		if err != nil {
			return nil, err
		}
		docs = append(append(docs, c.Train...), c.Test...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	return docs, nil
}

// noise is what raw newswire puts between content words; the server's
// preprocessor must strip all of it.
var noise = []string{"the", "of", "and", "to", "in", "said", "12.5", "1987", "3,000", ",", ".", "<b>", "</b>", "&amp;", "it's"}

// docText renders a document's words as raw text with markup noise,
// capitalised sentence starts and a dateline, as a client would send it.
func docText(rng *rand.Rand, words []string) string {
	var b strings.Builder
	b.WriteString("NEW YORK, March 3 - ")
	for i, w := range words {
		if i > 0 && rng.Intn(4) == 0 {
			b.WriteString(noise[rng.Intn(len(noise))])
			b.WriteByte(' ')
		}
		if rng.Intn(12) == 0 {
			w = strings.ToUpper(w[:1]) + w[1:]
		}
		b.WriteString(w)
		b.WriteByte(' ')
	}
	b.WriteString("Reuter")
	return b.String()
}

// pre tokenises texts exactly as the server does.
var pre = textproc.NewPreprocessor(textproc.Options{})

// expectCategories is the offline answer for one document text: the
// in-class categories of Model.ClassifyDoc on the server's tokenisation.
func expectCategories(m *core.Model, id, text string) ([]string, error) {
	doc := corpus.Document{ID: id, Words: pre.Process(text)}
	preds, err := m.ClassifyDoc(&doc, nil)
	if err != nil {
		return nil, err
	}
	out := []string{}
	for _, p := range preds {
		if p.InClass {
			out = append(out, p.Category)
		}
	}
	return out, nil
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// f1Set accumulates served answers against the generator's labels.
type f1Set struct {
	cats []string
	set  *metrics.Set
}

func newF1Set(cats []string) *f1Set { return &f1Set{cats: cats, set: metrics.NewSet()} }

func (f *f1Set) observe(labels, predicted []string) {
	for _, c := range f.cats {
		f.set.Observe(c, contains(labels, c), contains(predicted, c))
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// addFixtureF1 records macro_f1 and micro_f1: the mean test-split F1 of
// the models a workload trains or serves. Served answers are checked
// equal to these models' offline answers, so this is also the quality
// the server delivers.
func addFixtureF1(s *metricSet, fxs ...*fixture) {
	var macro, micro float64
	names := ""
	for _, fx := range fxs {
		macro += fx.macroF1 / float64(len(fxs))
		micro += fx.microF1 / float64(len(fxs))
		names += " " + string(fx.method)
	}
	detail := fmt.Sprintf("test split, quick model(s)%s, corpus seed %d", names, fixtureSeed)
	s.add("macro_f1", macro, detail)
	s.add("micro_f1", micro, detail)
}

// addServedF1 records the F1 of the served answers against the
// generator's labels; it varies with the workload seed's documents.
func addServedF1(s *metricSet, f *f1Set) {
	s.add("served_macro_f1", f.set.MacroF1(), "served answers vs generator labels")
	s.add("served_micro_f1", f.set.MicroF1(), "served answers vs generator labels")
}
