package core

import (
	"strings"
	"testing"

	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/hsom"
	"temporaldoc/internal/lgp"
	"temporaldoc/internal/reuters"
)

// fastConfig returns a heavily scaled-down configuration that still
// exercises every stage.
func fastConfig(method featsel.Method) Config {
	gp := lgp.DefaultConfig()
	gp.PopulationSize = 25
	gp.Tournaments = 500
	gp.MaxPages = 4
	gp.MaxPageSize = 4
	gp.DSS = &lgp.DSSConfig{SubsetSize: 20, Interval: 25}
	return Config{
		FeatureMethod: method,
		FeatureConfig: featsel.Config{GlobalN: 60, PerCategoryN: 25},
		Encoder: hsom.Config{
			CharWidth: 5, CharHeight: 5,
			WordWidth: 4, WordHeight: 4,
			CharEpochs: 2, WordEpochs: 4,
			BMUFanout: 3,
			Seed:      3,
		},
		GP:       gp,
		Restarts: 1,
		Seed:     5,
	}
}

func smallCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	cfg := reuters.DefaultGenConfig()
	cfg.Scale = 0.01
	cfg.Seed = 11
	c, err := reuters.GenerateCorpus(cfg)
	if err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	return c
}

// trainedModel caches one trained model across tests in this package.
var cachedModel *Model
var cachedCorpus *corpus.Corpus

func trainedModel(t testing.TB) (*Model, *corpus.Corpus) {
	t.Helper()
	if cachedModel != nil {
		return cachedModel, cachedCorpus
	}
	c := smallCorpus(t)
	m, err := Train(fastConfig(featsel.DF), c)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	cachedModel, cachedCorpus = m, c
	return m, c
}

func TestTrainRejectsInvalidCorpus(t *testing.T) {
	if _, err := Train(fastConfig(featsel.DF), &corpus.Corpus{}); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestTrainBuildsAllCategories(t *testing.T) {
	m, c := trainedModel(t)
	if got := m.Categories(); len(got) != len(c.Categories) {
		t.Fatalf("Categories = %v", got)
	}
	for _, cat := range c.Categories {
		cm := m.CategoryModelFor(cat)
		if cm == nil {
			t.Fatalf("category %s missing", cat)
		}
		if cm.Program == nil || len(cm.Program.Code) == 0 {
			t.Errorf("category %s has empty program", cat)
		}
		if cm.Threshold < -1 || cm.Threshold > 1 {
			t.Errorf("category %s threshold %v out of [-1,1]", cat, cm.Threshold)
		}
	}
	if m.CategoryModelFor("bogus") != nil {
		t.Error("unknown category returned a model")
	}
}

func TestModelClassifiesBetterThanChance(t *testing.T) {
	m, c := trainedModel(t)
	set, err := m.Evaluate(c.Test)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// With a tiny GP budget we only demand clear better-than-random
	// aggregate behaviour, not paper-level F1.
	if micro := set.MicroF1(); micro < 0.2 {
		t.Errorf("micro F1 = %v, want >= 0.2", micro)
	}
	// earn (largest, most distinctive) should be learnable even at this
	// budget.
	if f1 := set.Table("earn").F1(); f1 < 0.3 {
		t.Errorf("earn F1 = %v", f1)
	}
}

func TestScoreWithinSquashRange(t *testing.T) {
	m, c := trainedModel(t)
	for i := range c.Test[:10] {
		s, err := m.Score("earn", &c.Test[i])
		if err != nil {
			t.Fatal(err)
		}
		if s < -1 || s > 1 {
			t.Errorf("score %v out of [-1,1]", s)
		}
	}
	if _, err := m.Score("bogus", &c.Test[0]); err == nil {
		t.Error("unknown category accepted")
	}
}

func TestClassifyReturnsInventoryOrder(t *testing.T) {
	m, c := trainedModel(t)
	pos := map[string]int{}
	for i, cat := range c.Categories {
		pos[cat] = i
	}
	for i := range c.Test[:20] {
		got, err := m.Classify(&c.Test[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(got); j++ {
			if pos[got[j-1]] > pos[got[j]] {
				t.Fatalf("labels out of inventory order: %v", got)
			}
		}
	}
}

func TestTraceShapesAndThresholdConsistency(t *testing.T) {
	m, c := trainedModel(t)
	doc := &c.Test[0]
	tr, err := m.Trace("earn", doc)
	if err != nil {
		t.Fatal(err)
	}
	cm := m.CategoryModelFor("earn")
	for i, p := range tr {
		if p.Output < -1 || p.Output > 1 {
			t.Errorf("trace[%d] output %v out of range", i, p.Output)
		}
		if p.InClass != (p.Output > cm.Threshold) {
			t.Errorf("trace[%d] InClass inconsistent", i)
		}
		if p.Word == "" {
			t.Errorf("trace[%d] empty word", i)
		}
	}
	// Final trace output equals Score.
	if len(tr) > 0 {
		s, err := m.Score("earn", doc)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr[len(tr)-1].Output; got != s {
			t.Errorf("trace end %v != score %v", got, s)
		}
	}
	if _, err := m.Trace("bogus", doc); err == nil {
		t.Error("unknown category accepted")
	}
}

func TestTraceAllCoversEveryCategory(t *testing.T) {
	m, c := trainedModel(t)
	all, err := m.TraceAll(&c.Test[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(c.Categories) {
		t.Errorf("TraceAll covers %d categories, want %d", len(all), len(c.Categories))
	}
}

func TestRuleDisassembly(t *testing.T) {
	m, _ := trainedModel(t)
	rule, err := m.Rule("earn")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rule, "R0=R0") && !strings.Contains(rule, "R") {
		t.Errorf("rule looks wrong: %q", rule)
	}
	if _, err := m.Rule("bogus"); err == nil {
		t.Error("unknown category accepted")
	}
}

func TestEvaluateCountsEveryDocumentOnce(t *testing.T) {
	m, c := trainedModel(t)
	set, err := m.Evaluate(c.Test)
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range c.Categories {
		if got := set.Table(cat).Total(); got != len(c.Test) {
			t.Errorf("category %s observed %d docs, want %d", cat, got, len(c.Test))
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{1, 3}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, tc := range cases {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// median must not mutate its input.
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its input in place")
	}
}

func TestTrainPerCategoryFeatureSelection(t *testing.T) {
	// MI selection is per-category; training must still succeed and use
	// disjoint keep-sets.
	c := smallCorpus(t)
	cfg := fastConfig(featsel.MI)
	cfg.GP.Tournaments = 40
	m, err := Train(cfg, c)
	if err != nil {
		t.Fatalf("Train(MI): %v", err)
	}
	if m.Selection().IsGlobal() {
		t.Error("MI selection reported global")
	}
}

func TestTrainDeterministic(t *testing.T) {
	c := smallCorpus(t)
	cfg := fastConfig(featsel.DF)
	cfg.GP.Tournaments = 40
	train := func() float64 {
		m, err := Train(cfg, c)
		if err != nil {
			t.Fatal(err)
		}
		return m.CategoryModelFor("earn").Fitness
	}
	if a, b := train(), train(); a != b {
		t.Errorf("training not deterministic: %v vs %v", a, b)
	}
}

func TestNonRecurrentAblationConfig(t *testing.T) {
	c := smallCorpus(t)
	cfg := fastConfig(featsel.DF)
	cfg.GP.Tournaments = 40
	cfg.GP.Recurrent = false
	m, err := Train(cfg, c)
	if err != nil {
		t.Fatalf("Train(non-recurrent): %v", err)
	}
	if _, err := m.Evaluate(c.Test[:5]); err != nil {
		t.Errorf("Evaluate: %v", err)
	}
}
