package core

import (
	"fmt"

	"temporaldoc/internal/lgp"
)

// StreamState is the live state of one category classifier inside a
// Stream.
type StreamState struct {
	// Output is the squashed output-register value after the last
	// consumed word (0 before any word was consumed).
	Output float64
	// InClass reports Output > the category threshold.
	InClass bool
	// Members counts the member words consumed so far.
	Members int
}

// Stream runs every category classifier incrementally over a word
// stream: each pushed word is looked up in the model's encode table and,
// when it is a member word of a category, stepped through that
// category's recurrent machine. This is the online form of the paper's
// word tracking — the register state lives across the whole stream,
// which is what the conclusion's Topic Detection and Tracking proposal
// needs.
type Stream struct {
	model    *Model
	cats     []string
	machines map[string]*lgp.Machine
	states   map[string]*StreamState
	words    int
}

// NewStream starts an incremental run over the given categories (all
// trained categories when none are named).
func (m *Model) NewStream(categories ...string) (*Stream, error) {
	if len(categories) == 0 {
		categories = m.cats
	}
	s := &Stream{
		model:    m,
		cats:     append([]string(nil), categories...),
		machines: make(map[string]*lgp.Machine, len(categories)),
		states:   make(map[string]*StreamState, len(categories)),
	}
	for _, cat := range categories {
		if m.perCat[cat] == nil {
			return nil, fmt.Errorf("core: category %q not trained", cat)
		}
		s.machines[cat] = lgp.NewMachine(m.cfg.GP.NumRegisters)
		s.states[cat] = &StreamState{}
	}
	return s, nil
}

// Push consumes one word and returns the categories whose state changed
// (i.e. for which the word was a member word), with their new states.
func (s *Stream) Push(word string) (map[string]StreamState, error) {
	sp := s.model.met.streamPushLat.Start()
	defer sp.End()
	s.model.met.streamWords.Inc()
	s.words++
	changed := make(map[string]StreamState)
	id, ok := s.model.table.vocab[word]
	if !ok {
		return changed, nil
	}
	for _, cat := range s.cats {
		code := &s.model.table.rows[cat][id]
		if !code.member {
			continue
		}
		machine := s.machines[cat]
		if !s.model.cfg.GP.Recurrent {
			machine.Reset()
		}
		machine.Step(s.model.perCat[cat].Program, code.in[:])
		st := s.states[cat]
		st.Output = lgp.Squash(machine.Output())
		st.InClass = st.Output > s.model.perCat[cat].Threshold
		st.Members++
		changed[cat] = *st
	}
	return changed, nil
}

// PushAll consumes a word sequence, returning the final states.
func (s *Stream) PushAll(words []string) (map[string]StreamState, error) {
	for _, w := range words {
		if _, err := s.Push(w); err != nil {
			return nil, err
		}
	}
	return s.State(), nil
}

// State returns the current state of every tracked category.
func (s *Stream) State() map[string]StreamState {
	out := make(map[string]StreamState, len(s.states))
	for cat, st := range s.states {
		out[cat] = *st
	}
	return out
}

// Words returns how many words have been pushed (member or not).
func (s *Stream) Words() int { return s.words }

// Reset clears all register state and counters — a document boundary.
func (s *Stream) Reset() {
	s.words = 0
	for _, cat := range s.cats {
		s.machines[cat].Reset()
		*s.states[cat] = StreamState{}
	}
}
