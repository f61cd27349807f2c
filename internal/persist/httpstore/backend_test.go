// The client's own argument checking; the wire protocol's proof obligations
// (conformance, error taxonomy, leases, epochs) run against a live Server
// in internal/persist's httpbackend_test.go, next to the shared Backend
// conformance suite.
package httpstore

import "testing"

// TestHTTPBackendURLValidation pins NewBackend's argument checking and
// base-path normalization.
func TestHTTPBackendURLValidation(t *testing.T) {
	t.Parallel()
	for _, bad := range []string{"", "127.0.0.1:7070", "ftp://host", "http://", "://x"} {
		if _, err := NewBackend(bad, Options{}); err == nil {
			t.Errorf("NewBackend(%q) should fail", bad)
		}
	}
	hb, err := NewBackend("http://127.0.0.1:7070///", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hb.base != "http://127.0.0.1:7070" {
		t.Fatalf("trailing slashes not trimmed: %q", hb.base)
	}
}
