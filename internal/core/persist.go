package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"temporaldoc/internal/featsel"
	"temporaldoc/internal/hsom"
	"temporaldoc/internal/lgp"
)

// snapshotVersion guards the persisted format.
const snapshotVersion = 1

// categorySnapshot is the serialisable state of one category model.
type categorySnapshot struct {
	Category  string   `json:"category"`
	Code      []uint32 `json:"code"`
	Threshold float64  `json:"threshold"`
	Fitness   float64  `json:"fitness"`
	Restart   int      `json:"restart"`
	Keep      []string `json:"keep"`
}

// modelSnapshot is the serialisable state of a trained model.
type modelSnapshot struct {
	Version        int                `json:"version"`
	FeatureMethod  featsel.Method     `json:"feature_method"`
	FeatureConfig  featsel.Config     `json:"feature_config"`
	GP             lgp.Config         `json:"gp"`
	Restarts       int                `json:"restarts"`
	Seed           int64              `json:"seed"`
	DropMembership bool               `json:"drop_membership,omitempty"`
	Categories     []string           `json:"categories"`
	Encoder        hsom.Snapshot      `json:"encoder"`
	Models         []categorySnapshot `json:"models"`
	Selection      *selectionSnapshot `json:"selection,omitempty"`
}

type selectionSnapshot struct {
	Method      featsel.Method      `json:"method"`
	Global      []string            `json:"global,omitempty"`
	PerCategory map[string][]string `json:"per_category,omitempty"`
}

// Save writes the trained model as JSON. The persisted form contains
// everything needed to classify and trace documents: the hierarchical
// SOM encoder, per-category keep-sets, evolved programs and thresholds.
func (m *Model) Save(w io.Writer) error {
	snap := modelSnapshot{
		Version:        snapshotVersion,
		FeatureMethod:  m.cfg.FeatureMethod,
		FeatureConfig:  m.cfg.FeatureConfig,
		GP:             m.cfg.GP,
		Restarts:       m.cfg.Restarts,
		Seed:           m.cfg.Seed,
		DropMembership: m.cfg.DropMembershipInput,
		Categories:     append([]string(nil), m.cats...),
		Encoder:        m.encoder.Snapshot(),
		Selection: &selectionSnapshot{
			Method:      m.selection.Method,
			Global:      m.selection.Global,
			PerCategory: m.selection.PerCategory,
		},
	}
	for _, cat := range m.cats {
		cm := m.perCat[cat]
		keep := make([]string, 0, len(m.keepSets[cat]))
		for w := range m.keepSets[cat] {
			keep = append(keep, w)
		}
		sort.Strings(keep)
		code := make([]uint32, len(cm.Program.Code))
		for i, in := range cm.Program.Code {
			code[i] = uint32(in)
		}
		snap.Models = append(snap.Models, categorySnapshot{
			Category:  cat,
			Code:      code,
			Threshold: cm.Threshold,
			Fitness:   cm.Fitness,
			Restart:   cm.Restart,
			Keep:      keep,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&snap)
}

// Load reconstructs a model persisted with Save.
func Load(r io.Reader) (*Model, error) {
	var snap modelSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported model version %d (want %d)", snap.Version, snapshotVersion)
	}
	if !featsel.Known(snap.FeatureMethod) {
		return nil, fmt.Errorf("core: snapshot records unknown feature-selection method %q (want one of %v)",
			snap.FeatureMethod, featsel.AllMethods())
	}
	if len(snap.Categories) == 0 || len(snap.Models) != len(snap.Categories) {
		return nil, fmt.Errorf("core: snapshot has %d categories and %d models", len(snap.Categories), len(snap.Models))
	}
	encoder, err := hsom.FromSnapshot(snap.Encoder)
	if err != nil {
		return nil, fmt.Errorf("core: encoder: %w", err)
	}
	m := &Model{
		cfg: Config{
			FeatureMethod:       snap.FeatureMethod,
			FeatureConfig:       snap.FeatureConfig,
			GP:                  snap.GP,
			Restarts:            snap.Restarts,
			Seed:                snap.Seed,
			DropMembershipInput: snap.DropMembership,
		},
		encoder:  encoder,
		keepSets: make(map[string]map[string]bool, len(snap.Models)),
		perCat:   make(map[string]*CategoryModel, len(snap.Models)),
		cats:     append([]string(nil), snap.Categories...),
	}
	if snap.Selection != nil {
		m.selection = &featsel.Selection{
			Method:      snap.Selection.Method,
			Global:      snap.Selection.Global,
			PerCategory: snap.Selection.PerCategory,
		}
	}
	if m.cfg.GP.NumRegisters <= 0 || m.cfg.GP.NumInputs <= 0 {
		return nil, fmt.Errorf("core: snapshot GP config invalid: %+v", m.cfg.GP)
	}
	for _, cs := range snap.Models {
		if encoder.Category(cs.Category) == nil {
			return nil, fmt.Errorf("core: snapshot model %q has no encoder", cs.Category)
		}
		if len(cs.Code) == 0 {
			return nil, fmt.Errorf("core: snapshot model %q has empty program", cs.Category)
		}
		code := make([]lgp.Instruction, len(cs.Code))
		for i, raw := range cs.Code {
			code[i] = lgp.Instruction(raw)
		}
		keep := make(map[string]bool, len(cs.Keep))
		for _, w := range cs.Keep {
			keep[w] = true
		}
		m.keepSets[cs.Category] = keep
		m.perCat[cs.Category] = &CategoryModel{
			Category:  cs.Category,
			Program:   &lgp.Program{Code: code},
			Threshold: cs.Threshold,
			Fitness:   cs.Fitness,
			Restart:   cs.Restart,
		}
	}
	for _, cat := range m.cats {
		if m.perCat[cat] == nil {
			return nil, fmt.Errorf("core: snapshot missing model for category %q", cat)
		}
	}
	if err := m.buildEncodeTable(); err != nil {
		return nil, err
	}
	return m, nil
}

// SnapshotHeader is the identity-bearing prefix of a persisted model
// snapshot: the fields a registry manifest needs without the cost of
// reconstructing the encoder and per-category programs. The same
// validations Load applies to these fields apply here, so a header
// that reads cleanly names a snapshot Load would at least get past
// format checks on.
type SnapshotHeader struct {
	Version       int            `json:"version"`
	FeatureMethod featsel.Method `json:"feature_method"`
	Categories    []string       `json:"categories"`
}

// ReadSnapshotHeader decodes and validates just the snapshot header.
// It is the cheap publish-time gate of the model registry: format
// version, a known feature-selection method and a non-empty category
// inventory — deep validation (encoder geometry, program bytes)
// still happens on the first real Load.
func ReadSnapshotHeader(r io.Reader) (SnapshotHeader, error) {
	var h SnapshotHeader
	if err := json.NewDecoder(r).Decode(&h); err != nil {
		return SnapshotHeader{}, fmt.Errorf("core: decode snapshot header: %w", err)
	}
	if h.Version != snapshotVersion {
		return SnapshotHeader{}, fmt.Errorf("core: unsupported model version %d (want %d)", h.Version, snapshotVersion)
	}
	if !featsel.Known(h.FeatureMethod) {
		return SnapshotHeader{}, fmt.Errorf("core: snapshot records unknown feature-selection method %q (want one of %v)",
			h.FeatureMethod, featsel.AllMethods())
	}
	if len(h.Categories) == 0 {
		return SnapshotHeader{}, fmt.Errorf("core: snapshot header has no categories")
	}
	return h, nil
}

// SnapshotInfo identifies a persisted snapshot file a model was loaded
// from. SHA256 is the hex digest of the exact on-disk bytes, so two
// models compare equal iff their snapshots are byte-identical — the
// serving layer embeds it in every response to prove which model
// scored a request across hot-reloads.
type SnapshotInfo struct {
	Path   string `json:"path"`
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// LoadFile reconstructs a model from a snapshot file and reports the
// snapshot's identity (content hash and size) alongside it.
func LoadFile(path string) (*Model, SnapshotInfo, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("core: read snapshot: %w", err)
	}
	m, err := Load(bytes.NewReader(b))
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	sum := sha256.Sum256(b)
	return m, SnapshotInfo{
		Path:   path,
		SHA256: hex.EncodeToString(sum[:]),
		Bytes:  int64(len(b)),
	}, nil
}
