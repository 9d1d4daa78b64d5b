package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q does not match %s", s.Name, nameRE)
		}
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("%s: unit %q does not match %s", s.Name, s.Unit, unitRE)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better = %q", s.Name, s.Better)
		}
		if seen[s.Name] {
			t.Errorf("metric %q listed twice", s.Name)
		}
		seen[s.Name] = true
	}
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestSimSeedFoldsOntoReferences(t *testing.T) {
	for _, c := range []struct {
		seed int64
		pass int
		want int64
	}{{42, 0, 42}, {42, 1, 1}, {1, 0, 1}, {7, 1, 42}, {8, 0, 42}, {9, 2, 3}, {16, 0, 42}, {-1, 0, 7}} {
		if got := passSeed(c.seed, c.pass); got != c.want {
			t.Errorf("passSeed(%d, %d) = %d, want %d", c.seed, c.pass, got, c.want)
		}
	}
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range refSeeds {
		for _, w := range workloads {
			if len(refs.forSeed(w, s)) == 0 {
				t.Errorf("no reference digests for %s at seed %d", w, s)
			}
		}
		if pressureFrac[s] == 0 {
			t.Errorf("no pressure budget share for seed %d", s)
		}
	}
	if got := refs.SuiteCSV["42"]; !strings.HasPrefix(got, "e8e6f704") || !strings.HasSuffix(got, "b419") {
		t.Errorf("seed-42 quick-suite CSV digest %s, want e8e6f704…b419", got)
	}
}

// pressurePasses runs the pressure workload once untraced and once traced
// (shared by the tests below; each pass takes a few seconds).
var pressurePasses = sync.OnceValues(func() ([2]passResult, *tracer) {
	tr := newTracer()
	return [2]passResult{runWorkload("pressure", 42, nil), runWorkload("pressure", 42, tr)}, tr
})

func checked(res passResult, ref digests) passResult {
	res.Failures = append([]string(nil), res.Failures...)
	res.check(ref, 42)
	return res
}

func TestCorruptedReferenceFails(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	passes, _ := pressurePasses()
	ref := refs.forSeed("pressure", 42)
	if ok := checked(passes[0], ref); ok.Failed != 0 {
		t.Fatalf("committed references fail: %v", ok.Failures)
	}
	bad := digests{}
	for k, v := range ref {
		bad[k] = v
	}
	bad["canneal/tmcc"] = strings.Repeat("0", 64)
	res := checked(passes[0], bad)
	if res.Failed != 1 {
		t.Fatalf("corrupted digest: %d failures %v, want 1", res.Failed, res.Failures)
	}
	r, _ := aggregate([]passRun{{res: res}}, nil, true, 0)
	if r.Correct || r.Metrics["failed_frac"].Value <= 0 {
		t.Errorf("corrupted digest: correct=%v failed_frac=%v, want false and > 0", r.Correct, r.Metrics["failed_frac"].Value)
	}
	delete(bad, "canneal/tmcc")
	if res := checked(passes[0], bad); res.Failed != 1 {
		t.Errorf("missing reference: %d failures, want 1", res.Failed)
	}
}

// TestTracedRunReportsEveryPerLayerMetric builds a traced result the way a
// --trace 1 run does (an untraced and a traced pass plus the probe) and
// checks that every per-layer metric was measured, not defaulted.
func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	passes, tr := pressurePasses()
	probe := probeLayers(42, 20, tr)
	if probe.Failed != 0 {
		t.Fatalf("probe failures: %v", probe.Failures)
	}
	runs := []passRun{{res: passes[0]}, {res: passes[1], pass: 1, traced: true}}
	_, vals := aggregate(runs, &probe, true, 0)
	for _, s := range perLayer {
		if _, ok := vals[s.Name]; !ok {
			t.Errorf("per-layer metric %s not measured", s.Name)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path, map[string]string{"seed": strconv.Itoa(42)}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []chromeEvent }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"pressure": false, "sim.NewRunner canneal/tmcc": false, "sim.Runner.Run canneal/tmcc": false, "dram.read_ns": false}
	for _, e := range doc.TraceEvents {
		if _, ok := want[e.Name]; ok {
			want[e.Name] = true
		}
		if e.Ph != "X" || e.Dur < 0 {
			t.Errorf("malformed span %+v", e)
		}
	}
	for name, found := range want {
		if !found {
			t.Errorf("trace has no %q span", name)
		}
	}
}

// TestSuitePassMeasuresEngine runs one quick-suite pass (about 15s on two
// CPUs) and checks its outputs and engine metrics.
func TestSuitePassMeasuresEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite")
	}
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	res := runWorkload("suite", 42, newTracer())
	res.check(refs.forSeed("suite", 42), 42)
	if res.Failed != 0 || res.Attempted != 25 {
		t.Fatalf("suite: %d/%d failed: %v", res.Failed, res.Attempted, res.Failures)
	}
	if res.suiteCSV != refs.SuiteCSV["42"] {
		t.Errorf("suite CSV digest %s, reference %s", res.suiteCSV, refs.SuiteCSV["42"])
	}
	_, vals := aggregate([]passRun{{res: res}, {res: res, pass: 1, traced: true}}, &passResult{}, true, 0)
	for _, name := range []string{"engine.runs", "engine.memo_hits", "engine.hit_ratio", "engine.run_ms_p50", "engine.run_ms_p90", "engine.busy_frac"} {
		if vals[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, vals[name])
		}
	}
}
