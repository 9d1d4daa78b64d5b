package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// refSeeds are the simulator seeds with committed reference outputs: the
// default 42 and seven held-out seeds. Every pass's output is checked
// exactly against one of them.
var refSeeds = []int64{42, 1, 2, 3, 4, 5, 6, 7}

// passSeed maps a benchmark seed and a pass number to the simulator seed
// that pass's inputs come from. A reference seed starts at itself; any
// other seed folds onto the list (seed mod 8 picks the start). Successive
// passes step through the list, so one run covers several inputs and its
// medians depend less on any one of them.
func passSeed(seed int64, pass int) int64 {
	n := int64(len(refSeeds))
	start := (seed%n + n) % n
	for i, s := range refSeeds {
		if s == seed {
			start = int64(i)
		}
	}
	return refSeeds[(start+int64(pass))%n]
}

// references holds the expected outputs per workload, per simulator seed
// (decimal string key), per check: experiment id for the suite, point
// "benchmark/kind" for the access-path workloads.
type references struct {
	// SuiteCSV is the SHA-256 of the whole `tmccsim -all -quick -format
	// csv` output, kept to tie the per-experiment digests to it.
	SuiteCSV  map[string]string             `json:"suite_csv"`
	Workloads map[string]map[string]digests `json:"workloads"`
}

type digests = map[string]string

//go:embed refs.json
var refsJSON []byte

func loadRefs() (*references, error) {
	var r references
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return &r, nil
}

// forSeed returns the digests of one workload at one simulator seed (nil
// when none were committed, which fails every check of the pass).
func (r *references) forSeed(workload string, seed int64) digests {
	return r.Workloads[workload][strconv.FormatInt(seed, 10)]
}

// writeRefs recomputes every reference digest in this process and writes
// refs.json to path. Run it only when the simulator's output is meant to
// change, and say why in the commit.
func writeRefs(path string) error {
	r := references{SuiteCSV: map[string]string{}, Workloads: map[string]map[string]digests{}}
	for _, seed := range refSeeds {
		key := strconv.FormatInt(seed, 10)
		for _, w := range workloads {
			res := runWorkload(w, seed, nil)
			if res.Failed > 0 {
				return fmt.Errorf("seed %d: %s: %v", seed, w, res.Failures)
			}
			if r.Workloads[w] == nil {
				r.Workloads[w] = map[string]digests{}
			}
			r.Workloads[w][key] = res.digests
			if res.suiteCSV != "" {
				r.SuiteCSV[key] = res.suiteCSV
			}
		}
		fmt.Fprintf(os.Stderr, "refs: seed %d done\n", seed)
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
