// Evaluation digests: the `octl all` byte-identity invariant as a
// test. Opt-in via EVALUATION_DIGESTS=1 because it replays the full
// calibrated evaluation (about 30 s on two cores); CI's verify job
// runs it.
package immersionoc_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"immersionoc/internal/experiments"
	"immersionoc/internal/runner"
)

// TestEvaluationDigests runs every table experiment through the runner
// at the zero Options and requires the SHA-256 of each result's text to
// match the digest the repository benchmark stores for it. The digest
// file is only read here; a deliberate output change updates it in the
// benchmark's own change.
func TestEvaluationDigests(t *testing.T) {
	if os.Getenv("EVALUATION_DIGESTS") == "" {
		t.Skip("set EVALUATION_DIGESTS=1 to run (replays the full evaluation)")
	}
	raw, err := os.ReadFile(filepath.Join("perfbench", "evaluation_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	exps := experiments.Tables()
	if len(exps) != len(want) {
		t.Errorf("%d table experiments, %d stored digests", len(exps), len(want))
	}
	r := runner.Run(context.Background(), exps, runner.Config{})
	for _, o := range r.Outcomes {
		if !o.OK() {
			t.Errorf("%s: %v", o.Name, o.Err)
			continue
		}
		sum := sha256.Sum256([]byte(o.Result.Text()))
		if got := hex.EncodeToString(sum[:]); got != want[o.Name] {
			t.Errorf("%s: digest %s, stored %q", o.Name, got, want[o.Name])
		}
	}
}
