package ocd

import (
	"net/http"
	"testing"
)

// TestReadPlaneZeroAllocs enforces the read plane's allocation
// contract: once pooled scratch is warm, each snapshot read handler
// serves a request without allocating.
func TestReadPlaneZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's sync.Pool drops items at random")
	}
	d := benchDaemon(t, 1000)
	for _, e := range []struct {
		name string
		e    *endpoint
	}{
		{"filter", newEndpoint(d, http.MethodPost, "/v1/filter", benchFilterBody, (*Daemon).serveFilter)},
		{"prioritize", newEndpoint(d, http.MethodPost, "/v1/prioritize", benchPrioritizeBody, (*Daemon).servePrioritize)},
		{"status", newEndpoint(d, http.MethodGet, "/v1/status", nil, (*Daemon).serveStatus)},
		{"metrics", newEndpoint(d, http.MethodGet, "/metrics", nil, (*Daemon).serveMetrics)},
	} {
		if code := e.e.serve(); code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", e.name, code)
		}
		if n := testing.AllocsPerRun(50, func() { e.e.serve() }); n != 0 {
			t.Errorf("%s allocated %v times per request, want 0", e.name, n)
		}
	}
}
