package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runSet holds the values of every (workload, metric) pair over the runs
// of one -out file.
type runSet map[string]map[string][]float64

func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec recordJSON
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// worsening is how much worse b's median is than a's, as a share of a's,
// in the metric's own direction; negative means better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, for every (metric, workload) pair present in both
// files, the medians, the relative difference and the verdict against the
// metric's bound: ok, BREACH, or unresolved when either input's own
// quartile spread exceeds the bound (the runs cannot tell a change of that
// size from noise). Per-layer metrics have no bound and are listed as info.
// The exit code is 1 on any breach.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var sets [2]runSet
	for i, path := range []string{pathA, pathB} {
		set, err := readRuns(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sets[i] = set
	}
	return compareSets(w, sets[0], sets[1])
}

func compareSets(w io.Writer, a, b runSet) int {
	breaches := 0
	fmt.Fprintf(w, "%-14s %-32s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "median a", "median b", "worse", "spread a", "spread b", "verdict")
	for _, wl := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				va, vb := a[wl.name][d.name], b[wl.name][d.name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				worse, sa, sb := worsening(d, ma, mb), quartileSpread(va), quartileSpread(vb)
				verdict := "info"
				switch {
				case d.bound == 0:
				case sa > d.bound || sb > d.bound:
					verdict = fmt.Sprintf("unresolved (spread above the %.0f%% bound)", d.bound*100)
				case worse > d.bound:
					verdict = fmt.Sprintf("BREACH of the %.0f%% bound", d.bound*100)
					breaches++
				default:
					verdict = fmt.Sprintf("ok within %.0f%%", d.bound*100)
				}
				fmt.Fprintf(w, "%-14s %-32s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n",
					wl.name, d.name, ma, mb, worse*100, sa*100, sb*100, verdict)
			}
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d breach(es)\n", breaches)
		return 1
	}
	return 0
}
