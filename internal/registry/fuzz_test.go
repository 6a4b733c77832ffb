package registry

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzManifest drives DecodeManifest — the registry's untrusted-input
// surface — with arbitrary bytes. Two properties must hold for every
// input: the decoder never panics, and anything it accepts is a
// manifest whose names are safe single path segments (ValidateName
// passes, so traversal like "../x" or "a/b" can never reach a
// filesystem call) with a well-formed integrity record.
func FuzzManifest(f *testing.F) {
	f.Add([]byte(`{"model":"earn","version":"v1","sha256":"` + strings.Repeat("ab", 32) +
		`","bytes":10,"feature_method":"df","created_at":"2024-03-01T12:00:00Z"}`))
	f.Add([]byte(`{"model":"../../etc","version":"v1","sha256":"` + strings.Repeat("ab", 32) +
		`","bytes":10,"feature_method":"df","created_at":"2024-03-01T12:00:00Z"}`))
	f.Add([]byte(`{"model":".hidden","version":"..","sha256":"x","bytes":-1}`))
	f.Add([]byte(`{"model":"` + strings.Repeat("x", 100) + `"}`))
	f.Add([]byte(`{"model":"earn","version":"v1","surprise":true}`))
	f.Add([]byte(`{"model":"earn","version":"v1","sha256":"` + strings.Repeat("ab", 32) +
		`","bytes":10,"feature_method":"df","kernel":"float32","created_at":"2024-03-01T12:00:00Z"}`))
	f.Add([]byte(`{}{}`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted manifests must satisfy every invariant Validate
		// promises — in particular path-segment-safe names.
		if err := m.Validate(); err != nil {
			t.Fatalf("DecodeManifest accepted a manifest Validate rejects: %v\ninput: %q", err, data)
		}
		for _, name := range []string{m.Model, m.Version} {
			if strings.ContainsAny(name, `/\`) || strings.HasPrefix(name, ".") || name == "" || len(name) > maxNameLen {
				t.Fatalf("accepted unsafe name %q\ninput: %q", name, data)
			}
		}
	})
}
