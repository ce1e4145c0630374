package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// result is one run: the reported metrics plus what a later comparison
// needs to know about where they were measured.
type result struct {
	Workload    string               `json:"workload"`
	Seed        uint64               `json:"seed"`
	Trace       bool                 `json:"trace"`
	Fingerprint fingerprint          `json:"fingerprint"`
	Correct     bool                 `json:"correct"`
	Attempted   int64                `json:"attempted"`
	Failed      int64                `json:"failed"`
	Problems    []string             `json:"problems,omitempty"`
	Metrics     []metric             `json:"-"`
	Values      map[string]float64   `json:"values"`
	Rounds      []map[string]float64 `json:"rounds"`
	Units       map[string]string    `json:"units"`
}

// save writes the full result, per-round values included, for later
// comparison.
func (r *result) save() error {
	dir := filepath.Join(workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, b2i(r.Trace))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// print writes a readable table, the fingerprint, and last the result
// line: {"correct", "attempted", "failed", "metrics"}.
func (r *result) print(f *os.File) {
	w := bufio.NewWriter(f)
	defer w.Flush()
	for _, p := range r.Problems {
		fmt.Fprintln(w, "problem:", p)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", m.name, r.Values[m.name], m.unit)
	}
	fp, _ := json.Marshal(r.Fingerprint)
	fmt.Fprintf(w, "fingerprint %s\n", fp)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		out.Metrics[m.name] = value{r.Values[m.name], m.unit}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintln(w, string(b))
}

// fingerprint identifies the environment a result was measured in.
// Results are comparable only when everything but the commit agrees.
type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Shards     int    `json:"shards"`
	Commit     string `json:"commit"`
}

func takeFingerprint() fingerprint {
	fp := fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		Shards:     shards,
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// comparable reports whether two fingerprints describe the same
// environment (the commit may differ: that is what is compared).
func (f fingerprint) comparable(g fingerprint) bool {
	f.Commit, g.Commit = "", ""
	return f == g
}

// compare prints the medians of two directories of saved results, per
// workload and metric, and refuses (exit 2) when any two results were
// measured in different environments.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <resultsA> <resultsB>")
		return 2
	}
	sides := make([]map[string][]*result, 2)
	var ref *fingerprint
	for i, dir := range args {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(files) == 0 {
			fmt.Fprintf(os.Stderr, "compare: no results in %s\n", dir)
			return 2
		}
		sides[i] = map[string][]*result{}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				fmt.Fprintln(os.Stderr, "compare:", err)
				return 2
			}
			var r result
			if err := json.Unmarshal(b, &r); err != nil {
				fmt.Fprintf(os.Stderr, "compare: %s: %v\n", f, err)
				return 2
			}
			if ref == nil {
				ref = &r.Fingerprint
			} else if !ref.comparable(r.Fingerprint) {
				fmt.Fprintf(os.Stderr, "compare: refused: %s was measured in %+v, not %+v\n", f, r.Fingerprint, *ref)
				return 2
			}
			key := fmt.Sprintf("%s trace=%v", r.Workload, r.Trace)
			sides[i][key] = append(sides[i][key], &r)
		}
	}
	keys := make([]string, 0, len(sides[0]))
	for k := range sides[0] {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		a, b := sides[0][k], sides[1][k]
		if len(b) == 0 {
			continue
		}
		fmt.Printf("%s (%d vs %d runs)\n", k, len(a), len(b))
		names := make([]string, 0, len(a[0].Values))
		for n := range a[0].Values {
			names = append(names, n)
		}
		slices.Sort(names)
		for _, n := range names {
			va, vb := valuesOf(a, n), valuesOf(b, n)
			ma, mb := median(va), median(vb)
			spread := 0.0
			if len(va) >= 2 && ma != 0 {
				q1, q3 := quartiles(va)
				spread = (q3 - q1) / ma
			}
			change := 0.0
			if ma != 0 {
				change = mb/ma - 1
			}
			fmt.Printf("  %-32s %14.4f %14.4f %+8.1f%%  (A spread %.1f%%) %s\n", n, ma, mb, 100*change, 100*spread, a[0].Units[n])
		}
	}
	return 0
}

func valuesOf(rs []*result, name string) []float64 {
	xs := make([]float64, 0, len(rs))
	for _, r := range rs {
		xs = append(xs, r.Values[name])
	}
	return xs
}
