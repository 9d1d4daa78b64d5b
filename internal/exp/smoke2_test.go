package exp

import "testing"

func TestQuickSmokePerfExps(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	for _, id := range []string{"fig17", "tab4"} {
		r, _ := Get(id)
		tab, err := r(Config{Seed: 42, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		t.Log("\n" + tab.String())
	}
}

func TestQuickSweepsAndExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	for _, id := range []string{"ablation-ctebuf", "ablation-recency", "ext-2dwalk"} {
		r, ok := Get(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tab, err := r(Config{Seed: 42, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty", id)
		}
	}
}

// TestEveryQuickExperimentBuilds runs every registered experiment in quick
// mode: each system geometry an experiment builds (TLB and CTE Buffer
// sweeps, the CTE cache overrides of the problem study, Figure 22's
// multi-MC interleavings) must pass construction's power-of-two check.
func TestEveryQuickExperimentBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	for _, id := range IDs() {
		r, _ := Get(id)
		if _, err := r(Config{Seed: 42, Quick: true}); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}
