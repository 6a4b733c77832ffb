package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"temporaldoc/internal/core"
	"temporaldoc/internal/featsel"
)

// PublishOptions parameterises one Publish call.
type PublishOptions struct {
	// CreatedAt stamps the manifest and orders versions; it must be set
	// by the caller (the registry itself never reads the clock at
	// publish time, so tests and replays stay deterministic).
	CreatedAt time.Time
	// Method, when non-empty, requires the snapshot header to record
	// exactly this feature-selection method.
	Method featsel.Method
}

// Publish copies the snapshot at srcPath into the registry as
// <root>/<model>/<version> with a freshly stamped manifest. The write
// is atomic: both files land in a dot-prefixed temp directory that is
// renamed into place, so a concurrent scan sees either nothing or the
// complete version. Versions are immutable — publishing over an
// existing (model, version) fails, as does any name that would not
// survive ValidateName.
//
// The snapshot header is validated (format version, known feature
// method, non-empty categories) and its feature method is what lands in
// the manifest; deep validation happens on the first load, where
// core.Load checks everything else.
func Publish(root, model, version, srcPath string, opts PublishOptions) (Manifest, error) {
	if err := ValidateName(model); err != nil {
		return Manifest{}, fmt.Errorf("registry: publish model: %w", err)
	}
	if err := ValidateName(version); err != nil {
		return Manifest{}, fmt.Errorf("registry: publish version: %w", err)
	}
	if opts.CreatedAt.IsZero() {
		return Manifest{}, errors.New("registry: publish needs PublishOptions.CreatedAt")
	}
	b, err := os.ReadFile(srcPath)
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: read snapshot: %w", err)
	}
	header, err := core.ReadSnapshotHeader(bytes.NewReader(b))
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: %s is not a model snapshot: %w", srcPath, err)
	}
	if opts.Method != "" && header.FeatureMethod != opts.Method {
		return Manifest{}, fmt.Errorf("registry: snapshot %s was trained with feature method %q, not the required %q",
			srcPath, header.FeatureMethod, opts.Method)
	}
	sum := sha256.Sum256(b)
	man := Manifest{
		Model:         model,
		Version:       version,
		SHA256:        hex.EncodeToString(sum[:]),
		Bytes:         int64(len(b)),
		FeatureMethod: string(header.FeatureMethod),
		CreatedAt:     opts.CreatedAt.UTC(),
	}
	if err := man.Validate(); err != nil {
		return Manifest{}, err
	}

	modelDir := filepath.Join(root, model)
	dest := filepath.Join(modelDir, version)
	if _, err := os.Stat(dest); err == nil {
		return Manifest{}, fmt.Errorf("registry: %s/%s is already published (versions are immutable)", model, version)
	} else if !errors.Is(err, os.ErrNotExist) {
		return Manifest{}, fmt.Errorf("registry: publish: %w", err)
	}
	if err := os.MkdirAll(modelDir, 0o755); err != nil {
		return Manifest{}, fmt.Errorf("registry: publish: %w", err)
	}
	tmp, err := os.MkdirTemp(modelDir, tempPrefix+version+"-")
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: publish: %w", err)
	}
	// A failed publish must not leave a half-written version visible;
	// the temp dir is removed on every error path (a crash before this
	// runs leaves only an invisible dot-dir a scan counts and skips).
	fail := func(err error) (Manifest, error) {
		if rmErr := os.RemoveAll(tmp); rmErr != nil {
			return Manifest{}, errors.Join(err, rmErr)
		}
		return Manifest{}, err
	}
	if err := os.WriteFile(filepath.Join(tmp, snapshotName), b, 0o644); err != nil {
		return fail(fmt.Errorf("registry: publish snapshot: %w", err))
	}
	mb, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return fail(fmt.Errorf("registry: publish manifest: %w", err))
	}
	if err := os.WriteFile(filepath.Join(tmp, manifestName), append(mb, '\n'), 0o644); err != nil {
		return fail(fmt.Errorf("registry: publish manifest: %w", err))
	}
	if err := os.Rename(tmp, dest); err != nil {
		return fail(fmt.Errorf("registry: publish %s/%s: %w", model, version, err))
	}
	//lint:ignore nilerr the immutability gate's stat error is ErrNotExist by design on every path that reaches here
	return man, nil
}
