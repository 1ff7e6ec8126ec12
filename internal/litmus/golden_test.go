package litmus

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/acceptance_report.txt")

// TestAcceptanceCampaignGolden runs the acceptance campaign of `make
// litmus` (`cwsplitmus -seed 1 -n 50`: 50 shapes x 11 schemes x 2 kernels
// = 1100 cells) in process and compares the sha256 of its JSON report,
// and its totals, with testdata/acceptance_report.txt. The report is the
// same at any pool width, so any change to it is a change to what the
// persist path does. Regenerate with:
//
//	go test ./internal/litmus -run AcceptanceCampaignGolden -update
func TestAcceptanceCampaignGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("1100-cell campaign")
	}
	rep, _, err := RunCampaign(CampaignOptions{
		Seed:   1,
		Tests:  50,
		Gen:    GenOptions{Cores: 2, Events: 5, Points: 2},
		Shrink: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.WriteJSON()
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Totals
	got := fmt.Sprintf("sha256 %x\ncells %d, injected %d (skipped %d), allowed %d, violations %d, detected %d, unjudged %d, errors %d\n",
		sha256.Sum256(b), tot.Cells, tot.Injected, tot.Skipped, tot.Allowed, tot.Violations, tot.Detected, tot.Unjudged, tot.Errors)
	path := filepath.Join("testdata", "acceptance_report.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with: go test ./internal/litmus -run AcceptanceCampaignGolden -update): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("acceptance campaign report drifted\ngolden:\n%sgot:\n%s", want, got)
	}
}
