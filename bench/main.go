// Command bench is the repository's benchmark: five closed-loop DataLinks
// workloads, each built in-process, driven, checked for correctness, and
// reported as the end-to-end metrics (untraced) or the per-layer metrics
// (traced) that BENCHMARK.json lists. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// defaultSeconds is the measured phase when -seconds is not given; it
// equals run_seconds in BENCHMARK.json.
const defaultSeconds = 10

// runLimit aborts a run that stopped making progress (the program's lock
// timeout is 60 s; a distributed deadlock would otherwise sit it out).
const runLimit = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // 0 untraced, 1 traced, -1 both
	quick    bool
	runs     int
	outFile  string
	outDir   string
	dataRoot string
}

// metricJSON and resultJSON are the result line the driver reads.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// recordJSON is one line of an -out file: a result plus what produced it,
// the input of -compare.
type recordJSON struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	resultJSON
}

func (o *outcome) defs() []metricDef {
	if o.traced {
		return perLayer
	}
	return endToEnd
}

func (o *outcome) result() resultJSON {
	r := resultJSON{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	for _, d := range o.defs() {
		r.Metrics[d.name] = metricJSON{Value: o.m[d.name].value, Unit: d.unit}
	}
	return r
}

// report prints every metric of the run by name with its unit, sample
// count and regression bound.
func (o *outcome) report(w io.Writer) {
	pass := "untraced: end-to-end"
	if o.traced {
		pass = "traced: per-layer"
	}
	fmt.Fprintf(w, "== %s seed %d (%s) — attempted %d, failed %d, correct %v\n",
		o.workload, o.seed, pass, o.attempted, o.failed, o.correct)
	for _, p := range o.problems {
		fmt.Fprintf(w, "   INCORRECT: %s\n", p)
	}
	if o.firstErr != nil {
		fmt.Fprintf(w, "   first failure: %v\n", o.firstErr)
	}
	for _, d := range o.defs() {
		v := o.m[d.name]
		switch {
		case v.na:
			fmt.Fprintf(w, "   %-32s %14s %-8s\n", d.name, "n/a", d.unit)
		case d.bound > 0:
			fmt.Fprintf(w, "   %-32s %14.4f %-8s n=%-7d %s is better, bound %.0f%%\n", d.name, v.value, d.unit, v.n, d.better, d.bound*100)
		default:
			fmt.Fprintf(w, "   %-32s %14.4f %-8s n=%d\n", d.name, v.value, d.unit, v.n)
		}
	}
	for _, line := range o.notes {
		fmt.Fprintf(w, "   %s\n", line)
	}
}

// runOne runs one pass of one workload, reports it and appends it to the
// -out file.
func runOne(o options, def *workloadDef, seed int64, traced bool) (*outcome, error) {
	sc := fullScale
	seconds := o.seconds
	if o.quick {
		sc, seconds = quickScale, 0.3
	}
	var out *outcome
	var err error
	if traced {
		out, err = runTraced(def, seed, seconds, sc, o.dataRoot, o.outDir)
	} else {
		out, err = runUntraced(def, seed, seconds, sc, o.dataRoot)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	out.report(os.Stdout)
	if o.outFile != "" {
		trace := 0
		if traced {
			trace = 1
		}
		line, err := json.Marshal(recordJSON{Workload: def.name, Seed: seed, Trace: trace, resultJSON: out.result()})
		if err != nil {
			return nil, err
		}
		f, err := os.OpenFile(o.outFile, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// run runs the selected workloads and passes. The exit code is 1 when a
// run's outputs were incorrect; an error means the harness could not run.
func run(o options) (int, error) {
	if runtime.GOMAXPROCS(0) < clients {
		return 0, fmt.Errorf("GOMAXPROCS is %d; the load model is %d clients on %d cores", runtime.GOMAXPROCS(0), clients, clients)
	}
	defs := workloads
	if o.workload != "" {
		def := workloadByName(o.workload)
		if def == nil {
			return 0, fmt.Errorf("unknown workload %q", o.workload)
		}
		defs = []workloadDef{*def}
	}
	for _, dir := range []string{o.outDir, o.dataRoot} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
	}
	var passes []bool
	if o.trace <= 0 {
		passes = append(passes, false)
	}
	if o.trace != 0 {
		passes = append(passes, true)
	}
	code := 0
	var last *outcome
	for r := 0; r < o.runs; r++ {
		for i := range defs {
			for _, traced := range passes {
				watchdog := time.AfterFunc(runLimit, func() {
					fmt.Fprintf(os.Stderr, "bench: %s made no progress for %s, giving up\n", defs[i].name, runLimit)
					os.Exit(2)
				})
				out, err := runOne(o, &defs[i], o.seed+int64(r), traced)
				watchdog.Stop()
				if err != nil {
					return 0, err
				}
				if !out.correct {
					code = 1
				}
				last = out
			}
		}
	}
	// A single pass of a single workload is the driver's call: its result
	// is the last line of standard output.
	if o.workload != "" && o.trace >= 0 && o.runs == 1 {
		line, err := json.Marshal(last.result())
		if err != nil {
			return 0, err
		}
		fmt.Println(string(line))
	}
	return code, nil
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all five)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generator")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced pass (end-to-end metrics), 1: traced run (per-layer metrics), default both")
	flag.BoolVar(&o.quick, "quick", false, "about 1/50 of the counts and a 0.3 s measured phase: a smoke run, numbers mean nothing")
	flag.IntVar(&o.runs, "runs", 1, "repeat with seeds seed, seed+1, ...")
	flag.StringVar(&o.outFile, "out", "", "append each result as a JSON line to this file (input of -compare)")
	flag.StringVar(&o.outDir, "outdir", filepath.Join("bench", "out"), "directory for trace files and profiles")
	flag.StringVar(&o.dataRoot, "datadir", "", "parent directory of paged_durable's data (default <outdir>/data)")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to <outdir>/<name>")
	memProfile := flag.String("memprofile", "", "write a heap profile to <outdir>/<name>")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if o.dataRoot == "" {
		o.dataRoot = filepath.Join(o.outDir, "data")
	}
	fatal := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	if *cpuProfile != "" {
		fatal(os.MkdirAll(o.outDir, 0o755))
		f, err := os.Create(filepath.Join(o.outDir, *cpuProfile))
		fatal(err)
		fatal(pprof.StartCPUProfile(f))
	}
	code, err := run(o)
	pprof.StopCPUProfile()
	fatal(err)
	if *memProfile != "" {
		f, err := os.Create(filepath.Join(o.outDir, *memProfile))
		fatal(err)
		fatal(pprof.WriteHeapProfile(f))
		fatal(f.Close())
	}
	os.Exit(code)
}
