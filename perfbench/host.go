package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host fingerprints the machine a record was measured on. Host times from
// different fingerprints are never compared.
type host struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
}

func hostInfo() host {
	return host{runtime.GOOS, runtime.GOARCH, cpuModel(), runtime.NumCPU(), runtime.Version()}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown" where
// there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is one run's result with what it was measured on.
type record struct {
	Host     host   `json:"host"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// writeRecord stores rec under dir/records, one file per workload, seed
// and trace mode (a rerun replaces it).
func writeRecord(dir string, rec record) error {
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "records", fmt.Sprintf("%s-seed%d-trace%v.json", rec.Workload, rec.Seed, rec.Trace))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var rec record
	b, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// compareRecords prints new/old per metric for two records of the same
// workload and trace mode. It refuses records from different hosts: a host
// time only means something next to one from the same machine.
func compareRecords(w io.Writer, oldPath, newPath string) error {
	old, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	cur, err := readRecord(newPath)
	if err != nil {
		return err
	}
	if old.Host != cur.Host {
		return fmt.Errorf("records come from different hosts (%+v vs %+v); not comparable", old.Host, cur.Host)
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		return fmt.Errorf("records measure different things (%s trace=%v vs %s trace=%v)", old.Workload, old.Trace, cur.Workload, cur.Trace)
	}
	names := make([]string, 0, len(cur.Result.Metrics))
	for n := range cur.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %14s %14s %8s\n", "metric", "old", "new", "new/old")
	for _, n := range names {
		nv, ov := cur.Result.Metrics[n], old.Result.Metrics[n]
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %8.3f %s\n", n, ov.Value, nv.Value, ratio(nv.Value, ov.Value), nv.Unit)
	}
	return nil
}
