// Command perfbench is the simulator's benchmark: one command that times
// three workloads end to end and layer by layer, and checks that the
// simulated output is byte-for-byte the committed reference.
//
//	bash perfbench/run.sh --workload suite --seed 42 --seconds 30 --trace 0
//
// run.sh builds this program from source and runs it. Each measured pass
// runs in a fresh process, so every pass pays what one tmccsim invocation
// pays: a fresh experiment engine and cold per-process memos. Passes repeat
// until --seconds is spent (at least three run), stepping through the
// reference seeds from --seed; host values are medians over passes. With
// --trace 0 the last line holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, from untraced and traced passes in pairs on
// the same inputs plus one run of the per-layer timing loops, and the
// traced passes' spans are written as Chrome trace files. See
// perfbench/README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

func main() {
	var (
		wl      = flag.String("workload", "", "workload to measure: suite | irregular | pressure")
		seed    = flag.Int64("seed", 42, "input seed: passes step through the reference seeds starting from it")
		secs    = flag.Int("seconds", 30, "measuring time; passes repeat until it is spent (at least three run)")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics from traced passes and the layer timing loops")
		out     = flag.String("out", ".bench_build/perfbench", "directory for traces and records")
		pass    = flag.String("pass", "", "internal: run one pass of this workload (or \"probe\") and print its JSON result")
		spans   = flag.String("spans", "", "internal: with -pass, record spans and write them to this Chrome trace file")
		refsOut = flag.String("write-refs", "", "recompute every reference digest and write them to this file")
		compare = flag.Bool("compare", false, "compare two record files given as arguments (same host only)")
	)
	flag.Parse()
	switch {
	case *pass != "":
		os.Exit(childMain(*pass, *seed, *spans))
	case *refsOut != "":
		if err := writeRefs(*refsOut); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two record files"))
		}
		if err := compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
	default:
		if err := parentMain(*wl, *seed, *secs, *traced == 1, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runWorkload runs one pass of w at simulator seed seed in this process.
func runWorkload(w string, seed int64, tr *tracer) passResult {
	switch w {
	case "suite":
		return suitePass(seed, tr)
	case "irregular":
		return simPass(w, irregularSpec, seed, tr)
	case "pressure":
		return simPass(w, pressureSpec, seed, tr)
	}
	res := newPassResult()
	res.output(w, "", fmt.Errorf("unknown workload %q", w))
	return res
}

// childMain runs one pass (or the layer probe), checks its outputs and
// prints the result as one JSON line.
func childMain(w string, seed int64, spansPath string) int {
	var tr *tracer
	if spansPath != "" {
		tr = newTracer()
	}
	var res passResult
	if w == "probe" {
		res = probeLayers(seed, 1, tr)
	} else {
		refs, err := loadRefs()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		res = runWorkload(w, seed, tr)
		res.check(refs.forSeed(w, seed), seed)
	}
	if tr != nil {
		if err := tr.write(spansPath, map[string]string{"workload": w, "seed": strconv.FormatInt(seed, 10)}); err != nil {
			res.fail("writing spans: %v", err)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// passRun is one pass as the parent saw it.
type passRun struct {
	res    passResult
	pass   int
	traced bool
	rssMB  float64
	dur    time.Duration
}

// spawn runs one pass in a child process and collects its result and peak
// resident memory. The child is always waited for.
func spawn(args ...string) (passRun, error) {
	self, err := os.Executable()
	if err != nil {
		return passRun{}, err
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	run := passRun{dur: time.Since(t0)}
	if err != nil {
		return run, fmt.Errorf("pass %v: %w", args, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := json.Unmarshal(last, &run.res); err != nil {
		return run, fmt.Errorf("pass %v: unreadable result: %w", args, err)
	}
	return run, nil
}

// parentMain measures workload w for about secs seconds and prints the
// result line.
func parentMain(w string, seed int64, secs int, traced bool, out string) error {
	known := false
	for _, k := range workloads {
		known = known || k == w
	}
	if !known {
		return fmt.Errorf("--workload must be one of %v, got %q", workloads, w)
	}
	if secs < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", secs)
	}
	if _, err := loadRefs(); err != nil {
		return err
	}
	host := hostInfo()
	hb, _ := json.Marshal(host)
	fmt.Printf("host: %s\n", hb)
	fmt.Printf("workload %s, seed %d, %ds, trace %v\n", w, seed, secs, traced)

	budget := time.Duration(secs) * time.Second
	start := time.Now()
	var runs []passRun
	var errs []string
	for i := 0; ; i++ {
		// Start another pass only if it fits the budget, judged by the last
		// pass's length; minPasses always run. Traced runs go by whole
		// untraced/traced pairs, one pair at least.
		fits := func(n int) bool {
			return len(runs) > 0 && time.Since(start)+time.Duration(n)*runs[len(runs)-1].dur <= budget
		}
		if traced {
			if i >= 2 && i%2 == 0 && !fits(2) {
				break
			}
		} else if i >= minPasses && !fits(1) {
			break
		}
		// Traced runs pair each untraced pass with a traced one on the same
		// inputs, so the pair's difference is the tracing overhead.
		sseed := passSeed(seed, i)
		if traced {
			sseed = passSeed(seed, i/2)
		}
		args := []string{"-pass", w, "-seed", strconv.FormatInt(sseed, 10)}
		tracedPass := traced && i%2 == 1
		if tracedPass {
			args = append(args, "-spans", filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d-pass%d.json", w, seed, i)))
		}
		run, err := spawn(args...)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		run.pass, run.traced = i, tracedPass
		runs = append(runs, run)
		fmt.Printf("pass %d (simulator seed %d): wall %.3fs setup %.3fs rss %.1fMB traced %v failed %d/%d\n",
			i, sseed, run.res.WallS, sum(run.res.Setup), run.rssMB, tracedPass, run.res.Failed, run.res.Attempted)
		for _, f := range run.res.Failures {
			fmt.Printf("  failure: %s\n", f)
		}
	}
	var probe *passResult
	if traced {
		run, err := spawn("-pass", "probe", "-seed", strconv.FormatInt(passSeed(seed, 0), 10),
			"-spans", filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d-probe.json", w, seed)))
		if err != nil {
			errs = append(errs, err.Error())
		} else {
			probe = &run.res
			for _, f := range run.res.Failures {
				fmt.Printf("  probe failure: %s\n", f)
			}
		}
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	if len(runs) == 0 {
		return errors.New("no pass completed")
	}
	r, _ := aggregate(runs, probe, traced, len(errs))
	r.Correct = r.Failed == 0
	if err := writeRecord(out, record{Host: host, Workload: w, Seed: seed, Trace: traced, Result: r}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: record:", err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// minPasses is how many passes every run makes, whatever --seconds says.
const minPasses = 3

// setupSeconds is the run's set-up time per pass: each construction step's
// median over the passes, summed over the steps. Steps are short, so a
// burst of host load that slows a few of them in one pass is voted out
// step by step instead of moving the whole pass's total.
func setupSeconds(runs []passRun) float64 {
	steps := map[string][]float64{}
	for _, r := range runs {
		for name, s := range r.res.Setup {
			steps[name] = append(steps[name], s)
		}
	}
	var total float64
	for _, v := range steps {
		total += median(v)
	}
	return total
}

func sum(m map[string]float64) float64 {
	var t float64
	for _, v := range m {
		t += v
	}
	return t
}

func mean(runs []passRun, f func(passRun) float64) float64 {
	var sum float64
	for _, r := range runs {
		sum += f(r)
	}
	return sum / float64(len(runs))
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// aggregate folds the passes (and, when traced, the probe) into the
// reported metrics: medians over passes for host measurements. Passes
// that died before reporting count as failed attempts. It also returns the
// values actually measured, by metric name.
func aggregate(runs []passRun, probe *passResult, traced bool, lost int) (result, map[string]float64) {
	r := result{Attempted: lost, Failed: lost}
	col := func(f func(passRun) float64) []float64 {
		v := make([]float64, len(runs))
		for i, run := range runs {
			v[i] = f(run)
		}
		return v
	}
	for _, run := range runs {
		r.Attempted += run.res.Attempted
		r.Failed += run.res.Failed
	}
	vals := map[string]float64{}
	if !traced {
		vals["wall_s"] = median(col(func(p passRun) float64 { return p.res.WallS }))
		vals["setup_s"] = setupSeconds(runs)
		vals["ns_per_access"] = median(col(func(p passRun) float64 { return 1e9 * ratio(p.res.AccessS, float64(p.res.Accesses)) }))
		vals["alloc_mb"] = median(col(func(p passRun) float64 { return float64(p.res.AllocBytes) / 1e6 }))
		vals["max_rss_mb"] = median(col(func(p passRun) float64 { return p.rssMB }))
		// Simulated values: the mean over the first minPasses passes' inputs,
		// so a seed always reports the same figure.
		first := runs[:min(minPasses, len(runs))]
		vals["paper_err_pct"] = mean(first, func(p passRun) float64 { return p.res.PaperErrPct })
		vals["sim_speedup"] = mean(first, func(p passRun) float64 { return p.res.Speedup })
		return r.with(vals, endToEnd), vals
	}

	if probe != nil {
		r.Attempted += probe.Attempted
		r.Failed += probe.Failed
		for k, v := range probe.Layer {
			vals[k] = v
		}
	}
	// Pass-derived layer values override the probe's stand-ins.
	for k, v := range runs[0].res.Layer {
		vals[k] = v
	}
	var build, runMS, buildAlloc, overhead []float64
	untraced := map[int]float64{} // pass -> wall_s
	for _, run := range runs {
		if !run.traced {
			untraced[run.pass] = run.res.WallS
		}
	}
	for _, run := range runs {
		build = append(build, run.res.BuildMS...)
		runMS = append(runMS, run.res.RunMS...)
		if run.res.BuildAllocMB > 0 {
			buildAlloc = append(buildAlloc, run.res.BuildAllocMB)
		}
		if off, ok := untraced[run.pass-1]; ok && run.traced {
			overhead = append(overhead, run.res.WallS-off)
		}
	}
	if len(build) == 0 && probe != nil {
		build = probe.BuildMS
		buildAlloc = []float64{probe.BuildAllocMB}
	}
	vals["sim.build_ms_p50"] = quantile(build, 0.5)
	vals["sim.build_ms_p90"] = quantile(build, 0.9)
	vals["sim.build_alloc_mb"] = median(buildAlloc)
	vals["engine.run_ms_p50"] = quantile(runMS, 0.5)
	vals["engine.run_ms_p90"] = quantile(runMS, 0.9)
	if len(overhead) > 0 {
		vals["trace.overhead_s"] = median(overhead)
	}
	vals["failed_frac"] = ratio(float64(r.Failed), float64(r.Attempted))
	return r.with(vals, perLayer), vals
}

// with fills the metrics named by specs; a metric with no measurement is
// reported as 0 so every name is always present.
func (r result) with(vals map[string]float64, specs []metricSpec) result {
	r.Metrics = map[string]value{}
	for _, s := range specs {
		r.Metrics[s.Name] = value{Value: vals[s.Name], Unit: s.Unit}
	}
	return r
}
