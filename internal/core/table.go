package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"temporaldoc/internal/corpus"
)

// A word's code on a category (section 6.2: normalised BMU index plus
// Gaussian membership, or "not a member word") depends only on the word
// and the category's frozen word SOM, and only words of the category's
// keep set ever reach the encoder. So each model precomputes every code
// it can ever need once, at the end of encoder training and on Load:
// scoring a document is then a vocabulary lookup per word plus a gather
// of each category's member codes, instead of a 64-unit BMU sweep per
// word per category. The table is derived state — rebuilt from the
// snapshot's encoder and keep sets, never persisted — and is filled by
// hsom.Encoder.Encode itself, so it holds exactly the codes the
// reference path produces (DESIGN.md §10).

// wordCode is one (category, vocabulary word) entry of the table.
type wordCode struct {
	// in is the classifier input (NormIndex, Membership), with
	// Config.DropMembershipInput already applied. Scoring hands slices
	// of it straight to the machine, which only reads them.
	in [2]float64
	// member reports whether the word is in the category's keep set and
	// passes its BMU and membership filters; non-members never reach
	// the classifier.
	member bool
}

// encodeTable is the model's precomputed word → code map.
type encodeTable struct {
	// vocab numbers the union of the category keep sets, in sorted word
	// order.
	vocab map[string]int32
	// rows holds one code per vocabulary id for each category.
	rows  map[string][]wordCode
	stats EncodeTableStats
}

// EncodeTableStats describes a model's encode-table build: a load phase
// of its own, reported by the serving layer so a change in load time
// can be attributed to it.
type EncodeTableStats struct {
	// Entries counts the (category, keep-set word) codes computed.
	Entries int `json:"entries"`
	// BuildMS is the wall time the build took, in milliseconds.
	BuildMS float64 `json:"build_ms"`
}

// EncodeTable reports the model's encode-table build.
func (m *Model) EncodeTable() EncodeTableStats { return m.table.stats }

// buildEncodeTable fills m.table from the frozen encoder and keep sets.
func (m *Model) buildEncodeTable() error {
	start := time.Now()
	vocab := make(map[string]int32)
	for _, cat := range m.cats {
		for w := range m.keepSets[cat] {
			vocab[w] = 0
		}
	}
	words := make([]string, 0, len(vocab))
	for w := range vocab {
		words = append(words, w)
	}
	sort.Strings(words)
	for id, w := range words {
		vocab[w] = int32(id)
	}
	rows := make(map[string][]wordCode, len(m.cats))
	flat := make([]wordCode, len(m.cats)*len(words))
	entries := 0
	for c, cat := range m.cats {
		row := flat[c*len(words) : (c+1)*len(words) : (c+1)*len(words)]
		if err := m.fillRow(cat, row, vocab); err != nil {
			return fmt.Errorf("core: encode table: %w", err)
		}
		rows[cat] = row
		entries += len(m.keepSets[cat])
	}
	m.table = encodeTable{
		vocab: vocab,
		rows:  rows,
		stats: EncodeTableStats{Entries: entries, BuildMS: float64(time.Since(start).Microseconds()) / 1000},
	}
	return nil
}

// fillRow encodes the category's sorted keep words through the
// reference path and stores their codes in row.
func (m *Model) fillRow(cat string, row []wordCode, vocab map[string]int32) error {
	keep := make([]string, 0, len(m.keepSets[cat]))
	for w := range m.keepSets[cat] {
		keep = append(keep, w)
	}
	sort.Strings(keep)
	codes, err := m.encoder.Encode(cat, keep)
	if err != nil {
		return err
	}
	for _, code := range codes {
		if !code.Member {
			continue
		}
		membership := code.Membership
		if m.cfg.DropMembershipInput {
			membership = 0
		}
		row[vocab[code.Word]] = wordCode{in: [2]float64{code.NormIndex, membership}, member: true}
	}
	return nil
}

// lookup appends the vocabulary ids of words to dst, in document
// order; words outside every keep set are dropped here, once per
// document.
func (t *encodeTable) lookup(dst []int32, words []string) []int32 {
	for _, w := range words {
		if id, ok := t.vocab[w]; ok {
			dst = append(dst, id)
		}
	}
	return dst
}

// gather appends the member codes of ids on one category's row to dst,
// in document order. The appended inputs alias the table and must be
// treated as read-only.
//
//tdlint:hotpath
func gather(dst [][]float64, row []wordCode, ids []int32) [][]float64 {
	for _, id := range ids {
		if c := &row[id]; c.member {
			dst = append(dst, c.in[:])
		}
	}
	return dst
}

// scratch is the pooled per-call state of table-driven scoring: a
// document's vocabulary ids and one category's gathered inputs.
type scratch struct {
	ids    []int32
	inputs [][]float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch returns pooled scratch with doc already mapped onto the
// model's vocabulary.
func (m *Model) getScratch(doc *corpus.Document) *scratch {
	s := scratchPool.Get().(*scratch)
	s.ids = m.table.lookup(s.ids[:0], doc.Words)
	return s
}

func putScratch(s *scratch) { scratchPool.Put(s) }
