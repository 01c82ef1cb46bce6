package ocd

import (
	"encoding/json"
	"testing"

	"immersionoc/internal/api"
)

// FuzzDecodeFastMatchesStrict is the native-fuzz form of
// TestDecodeFastMatchesStrict: whenever a fast parser accepts an input,
// json.Unmarshal must accept it too and produce the identical request.
// Declining is always allowed — the strict fallback answers those.
func FuzzDecodeFastMatchesStrict(f *testing.F) {
	for _, corpus := range [][]string{decodeFilterBodies, decodePrioritizeBodies, decodeDeclinedBodies} {
		for _, body := range corpus {
			f.Add([]byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast api.FilterRequest
		if parseFilterRequest(body, &fast) {
			var strict api.FilterRequest
			if err := json.Unmarshal(body, &strict); err != nil {
				t.Fatalf("fast filter parser accepted %q; strict decode rejects it: %v", body, err)
			}
			if fast != strict {
				t.Fatalf("filter decode of %q diverged:\nfast:   %+v\nstrict: %+v", body, fast, strict)
			}
		}

		pfast := api.PrioritizeRequest{Servers: make([]int, 0, 16)}
		if parsePrioritizeRequest(body, &pfast) {
			var strict api.PrioritizeRequest
			if err := json.Unmarshal(body, &strict); err != nil {
				t.Fatalf("fast prioritize parser accepted %q; strict decode rejects it: %v", body, err)
			}
			if pfast.Vers != strict.Vers || pfast.VM != strict.VM || len(pfast.Servers) != len(strict.Servers) {
				t.Fatalf("prioritize decode of %q diverged:\nfast:   %+v\nstrict: %+v", body, pfast, strict)
			}
			for i := range pfast.Servers {
				if pfast.Servers[i] != strict.Servers[i] {
					t.Fatalf("prioritize decode of %q diverged at servers[%d]: %d vs %d",
						body, i, pfast.Servers[i], strict.Servers[i])
				}
			}
		}
	})
}
