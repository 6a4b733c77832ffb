package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"temporaldoc/internal/core"
	"temporaldoc/internal/corpus"
	"temporaldoc/internal/featsel"
	"temporaldoc/internal/reuters"
)

// trainQuick is the train-quick workload: in-process corpus generation,
// core.Train and Model.Save at the quick profile with DF features. A run
// trains a set of corpora drawn from the workload seed round-robin for
// the window; every retraining of a corpus must write the same bytes.
type trainQuick struct {
	o   options
	dir string
}

const (
	// trainCorpora is how many corpora a run trains. The first is the
	// fixture seed's corpus, whose model is the quality reference (its
	// test-split F1 is deterministic); the others come from the workload
	// seed. core.Train time varies by about 10% from corpus to corpus,
	// so one corpus per seed would make the figures follow the seed.
	trainCorpora = 8
	// corpusGenerations is how many times set-up generates each corpus;
	// every repeat must be equal. setup_s sums each corpus's median
	// generation time: the set-up of one run's corpora.
	corpusGenerations = 3
)

func (w *trainQuick) prepare(ctx context.Context) error { return nil }

// trainCorpusSeeds are the corpus seeds of a run: the fixture seed, then
// seeds derived from the workload seed, never the fixture seed.
func trainCorpusSeeds(seed int64) []int64 {
	seeds := []int64{fixtureSeed}
	for i := 1; i < trainCorpora; i++ {
		s := int64(splitmix(seed, uint64(2000+i)) >> 1)
		if s == fixtureSeed {
			s += 2
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// trainObserver turns core.Observer events into spans and phase marks.
// Epoch spans are children of the encoder span and tournament spans of
// their category's span; those parents end later, so their IDs are
// reserved at the first child.
type trainObserver struct {
	tr   *tracer
	root int64

	mu                 sync.Mutex
	encoderID          int64
	categoryID         map[string]int64
	charSOM, wordSOM   time.Duration
	encoderDur         time.Duration
	encReady, lastCat  time.Time
	cpuEnc, cpuLastCat time.Duration
	tournaments        int
}

func (ob *trainObserver) OnTrainEvent(e core.TrainEvent) {
	now := time.Now()
	ob.mu.Lock()
	defer ob.mu.Unlock()
	if ob.encoderID == 0 {
		ob.encoderID = ob.tr.newID()
		ob.categoryID = map[string]int64{}
	}
	catID := ob.categoryID[e.Category]
	if catID == 0 && e.Category != "" {
		catID = ob.tr.newID()
		ob.categoryID[e.Category] = catID
	}
	switch e.Kind {
	case core.EventSOMEpoch:
		if e.Level == "char" {
			ob.charSOM += e.Duration
		} else {
			ob.wordSOM += e.Duration
		}
		ob.tr.record(0, "hsom.som_epoch."+e.Level, ob.encoderID, e.Category, now, e.Duration)
	case core.EventEncoderReady:
		ob.encoderDur, ob.encReady, ob.cpuEnc = e.Duration, now, cpuTime()
		ob.tr.record(ob.encoderID, "hsom.Train", ob.root, "", now, e.Duration)
	case core.EventGeneration:
		ob.tournaments++
		ob.tr.record(0, "lgp.tournament", catID, e.Category, now, e.Duration)
	case core.EventCategoryTrained:
		ob.lastCat, ob.cpuLastCat = now, cpuTime()
		ob.tr.record(catID, "lgp.category", ob.root, e.Category, now, e.Duration)
	}
}

// cpuTime is this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (w *trainQuick) run(ctx context.Context, tr *tracer) (*outcome, error) {
	out := newOutcome()
	// Every corpus is trained with the quick profile's own training seed,
	// so the workload seed varies the inputs, not the evolution.
	p := quickProfile(fixtureSeed)

	// Set-up: corpus generation, each corpus repeated; every repeat must
	// be equal.
	seeds := trainCorpusSeeds(w.o.seed)
	corpora := make([]*corpus.Corpus, len(seeds))
	var gens []float64
	setup := 0.0
	for k, seed := range seeds {
		cfg := reuters.DefaultGenConfig()
		cfg.Scale, cfg.Seed = p.Scale, seed
		var reps []float64
		for i := 0; i < corpusGenerations; i++ {
			_, end := tr.begin("reuters.GenerateCorpus", 0, "")
			start := time.Now()
			c, err := reuters.GenerateCorpus(cfg)
			reps = append(reps, time.Since(start).Seconds())
			end()
			if err != nil {
				return nil, err
			}
			if corpora[k] != nil && !reflect.DeepEqual(corpora[k], c) {
				out.fail("corpus %d: generation %d differs from the first", seed, i)
			}
			corpora[k] = c
		}
		gens = append(gens, reps...)
		setup += median(reps)
	}

	snapPath := filepath.Join(w.dir, "model.json")
	perCorpus := make([][]float64, len(corpora))
	firstSnap := make([][]byte, len(corpora))
	var trains, saves, loads, selects, charS, wordS, encS, encUtil, evolveS, evolveUtil, tournaments []float64
	var ref fixture
	var seedMacro, seedMicro []float64
	deadline := time.Now().Add(w.o.window())
	// One round over the corpora plus one retraining at least, so every
	// run checks that a retraining writes the same bytes.
	for iter := 0; iter <= len(corpora) || time.Now().Before(deadline); iter++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		k := iter % len(corpora)
		c := corpora[k]
		req := fmt.Sprintf("train-%d", iter)
		cfg := p.CoreConfig(featsel.DF)
		var ob *trainObserver
		if tr != nil {
			// featsel.Select with the inputs core.Train gives it.
			_, end := tr.begin("featsel.Select", 0, req)
			start := time.Now()
			if _, err := featsel.Select(cfg.FeatureMethod, c.Train, c.Categories, cfg.FeatureConfig); err != nil {
				return nil, err
			}
			selects = append(selects, time.Since(start).Seconds())
			end()
		}
		root, end := tr.begin("core.Train", 0, req)
		if tr != nil {
			ob = &trainObserver{tr: tr, root: root}
			cfg.Observer = ob
		}
		cpu0 := cpuTime()
		trainStart := time.Now()
		m, err := core.Train(cfg, c)
		trainDur := time.Since(trainStart)
		end()
		if err != nil {
			return nil, err
		}
		trains = append(trains, trainDur.Seconds())
		perCorpus[k] = append(perCorpus[k], trainDur.Seconds())
		out.attempted++
		failedBefore := out.nFailures

		_, end = tr.begin("core.Model.Save", 0, req)
		start := time.Now()
		var buf bytes.Buffer
		err = m.Save(&buf)
		saves = append(saves, ms(time.Since(start)))
		end()
		if err != nil {
			return nil, err
		}
		if firstSnap[k] == nil {
			firstSnap[k] = buf.Bytes()
		} else if !bytes.Equal(firstSnap[k], buf.Bytes()) {
			out.fail("training %d wrote a snapshot of corpus %d that differs from its first training", iter, seeds[k])
		}
		if err := os.WriteFile(snapPath, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		_, end = tr.begin("core.LoadFile", 0, req)
		start = time.Now()
		loaded, _, err := core.LoadFile(snapPath)
		loads = append(loads, ms(time.Since(start)))
		end()
		if err != nil {
			out.fail("training %d: load of its own snapshot: %v", iter, err)
		} else if err := samePredictions(m, loaded, c.Test); err != nil {
			out.fail("training %d: Save → Load changed predictions: %v", iter, err)
		}
		if out.nFailures > failedBefore {
			out.failed++
		}
		if iter < len(corpora) {
			set, err := m.Evaluate(c.Test)
			if err != nil {
				return nil, err
			}
			if k == 0 {
				ref = fixture{method: featsel.DF, macroF1: set.MacroF1(), microF1: set.MicroF1()}
			} else {
				seedMacro = append(seedMacro, set.MacroF1())
				seedMicro = append(seedMicro, set.MicroF1())
			}
		}
		if ob != nil {
			nproc := float64(runtime.NumCPU())
			charS = append(charS, ob.charSOM.Seconds())
			wordS = append(wordS, ob.wordSOM.Seconds())
			encS = append(encS, ob.encoderDur.Seconds())
			encUtil = append(encUtil, (ob.cpuEnc-cpu0).Seconds()/(ob.encReady.Sub(trainStart).Seconds()*nproc))
			evolve := ob.lastCat.Sub(ob.encReady).Seconds()
			evolveS = append(evolveS, evolve)
			evolveUtil = append(evolveUtil, (ob.cpuLastCat-ob.cpuEnc).Seconds()/(evolve*nproc))
			tournaments = append(tournaments, float64(ob.tournaments))
		}
	}

	// Per corpus, the mean of its trainings: corpora trained twice count
	// once, so the figures describe the same set on every run.
	var corpusMs []float64
	var sumS float64
	docs := 0
	for k, ts := range perCorpus {
		corpusMs = append(corpusMs, 1000*mean(ts))
		sumS += mean(ts)
		docs += len(corpora[k].Train)
	}
	train := summarize(trains)
	out.e2e.add("setup_s", setup, fmt.Sprintf("%d corpora, each the median of %d generations: %s",
		len(corpora), corpusGenerations, summarize(gens).format("s")))
	out.e2e.add("p50_ms", median(corpusMs),
		fmt.Sprintf("median over %d corpora of core.Train wall time (%d trainings)", len(corpora), train.N))
	// trainCorpora samples hold no percentile with ten beyond it, so the
	// tail slot gets their upper quartile. The slowest corpus is a draw
	// from the seed's extremes: it spread 0.16 between seeds.
	sorted := append([]float64(nil), corpusMs...)
	sort.Float64s(sorted)
	out.e2e.add("p99_ms", quantile(sorted, 0.75),
		fmt.Sprintf("upper quartile of %d corpora (too few for a p99); per corpus %.0f ms", len(corpora), corpusMs))
	out.e2e.add("docs_per_s", float64(docs)/sumS,
		fmt.Sprintf("%d training documents of %d corpora / their summed core.Train time", docs, len(corpora)))
	if rss, err := vmHWM("/proc/self/status"); err == nil {
		out.e2e.add("rss_mb", rss, "peak RSS of the training process")
	}
	addFixtureF1(out.e2e, &ref)
	out.extra.addTiming("train_s", train)
	out.extra.add("seed_macro_f1", mean(seedMacro), fmt.Sprintf("mean over the seed's %d corpora", len(seedMacro)))
	out.extra.add("seed_micro_f1", mean(seedMicro), fmt.Sprintf("mean over the seed's %d corpora", len(seedMicro)))

	if tr != nil {
		l := out.layers
		l.addTiming("reuters.generate_s", summarize(gens))
		l.addTiming("featsel.select_s", summarize(selects))
		l.addTiming("hsom.char_train_s", summarize(charS))
		l.addTiming("hsom.word_train_s", summarize(wordS))
		l.addTiming("hsom.encoder_train_s", summarize(encS))
		l.add("hsom.encoder_cpu_util", median(encUtil), "process CPU / (wall × nproc), core.Train start → encoder_ready")
		l.addTiming("lgp.evolve_s", summarize(evolveS))
		l.add("lgp.evolve_cpu_util", median(evolveUtil), "process CPU / (wall × nproc), encoder_ready → last category_trained")
		l.add("lgp.tournaments", median(tournaments), "per training")
		l.addTiming("lgp.tournament_ms", summarize(msSamples(tr.durations("lgp.tournament"))))
		l.addTiming("core.save_ms", summarize(saves))
		l.addTiming("core.load_ms", summarize(loads))
		split := fmt.Sprintf("SOM (encoder) %.0f%% / lgp evolution %.0f%% of core.Train wall",
			100*median(encS)/train.P50, 100*median(evolveS)/train.P50)
		out.extra.add("encoder_train_share", median(encS)/train.P50, split)
	}
	return out, nil
}

// samePredictions checks that two models score every document to the
// same bits.
func samePredictions(a, b *core.Model, docs []corpus.Document) error {
	for i := range docs {
		pa, err := a.ClassifyDoc(&docs[i], nil)
		if err != nil {
			return err
		}
		pb, err := b.ClassifyDoc(&docs[i], nil)
		if err != nil {
			return err
		}
		if len(pa) != len(pb) {
			return fmt.Errorf("doc %s: %d vs %d predictions", docs[i].ID, len(pa), len(pb))
		}
		for k := range pa {
			if pa[k].Category != pb[k].Category || pa[k].InClass != pb[k].InClass ||
				math.Float64bits(pa[k].Score) != math.Float64bits(pb[k].Score) {
				return fmt.Errorf("doc %s category %s: %+v vs %+v", docs[i].ID, pa[k].Category, pa[k], pb[k])
			}
		}
	}
	return nil
}

// mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	if len(xs) == 0 {
		return 0
	}
	return sum / float64(len(xs))
}
