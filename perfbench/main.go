// Command perfbench is the repository benchmark. One invocation runs one
// named workload on one seed and prints, as the last line of standard
// output, a JSON result: the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run, --trace 1). Output checks that fail
// make the result report "correct": false and the process exit 1.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload croupier-5k --seed 1 --seconds 15 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the layer
// map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and collects its outputs.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	// manifest is the metric list BENCHMARK.json names for this run's
	// mode: end_to_end untraced, per_layer traced.
	manifest []manifestMetric

	res      result
	problems []string
	dropped  int // failed checks beyond maxProblems
}

// maxProblems caps the failed checks a run reports one by one.
const maxProblems = 20

// put records a metric; a value that is not a finite number fails the
// run's checks instead.
func (r *run) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s is %v", name, v)
		return
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// idle records as 0 every manifest metric of the given layers that the
// workload has not put: the layers it does not run at all, such as
// deploy on a simulated workload or sim on deploy-rx.
func (r *run) idle(layers ...string) {
	for _, m := range r.manifest {
		layer, _, _ := strings.Cut(m.Name, ".")
		if _, done := r.res.Metrics[m.Name]; done || !slices.Contains(layers, layer) {
			continue
		}
		r.res.Metrics[m.Name] = metric{Value: 0, Unit: m.Unit}
	}
}

// check records a failed output check when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	switch {
	case ok:
	case len(r.problems) < maxProblems:
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	default:
		r.dropped++
	}
}

// setups is how many times an untraced run sets its workload up;
// setup_s is their median. Traced runs set up once.
const setups = 3

var workloads = map[string]func(*run) error{
	"croupier-5k":       runSim,
	"cyclon-20k-2shard": runSim,
	"deploy-rx":         runRx,
}

func main() {
	var r run
	var trace int
	flag.StringVar(&r.workload, "workload", "", "workload name")
	flag.Int64Var(&r.seed, "seed", 1, "input seed")
	flag.Float64Var(&r.seconds, "seconds", 10, "measurement length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	manifestPath := flag.String("manifest", "BENCHMARK.json", "the benchmark manifest the printed metrics must match")
	flag.Parse()
	r.trace = trace == 1
	var err error
	if r.manifest, err = readManifest(*manifestPath, r.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	fn, ok := workloads[r.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", r.workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	stampEnvironment(&r)
	r.res = result{Correct: true, Metrics: map[string]metric{}}
	if err := fn(&r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	r.checkManifest()
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	if r.dropped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d more checks failed\n", r.dropped)
	}
	r.res.Correct = len(r.problems) == 0
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !r.res.Correct {
		os.Exit(1)
	}
}

// manifestMetric is one metric entry of BENCHMARK.json.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readManifest returns BENCHMARK.json's metric list for one mode.
func readManifest(path string, traced bool) ([]manifestMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	var m struct {
		EndToEnd []manifestMetric `json:"end_to_end"`
		PerLayer []manifestMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("parse manifest %s: %w", path, err)
	}
	if traced {
		return m.PerLayer, nil
	}
	return m.EndToEnd, nil
}

// checkManifest fails the run unless it measured exactly the manifest's
// metrics for its mode, each in the manifest's unit.
func (r *run) checkManifest() {
	want := map[string]string{}
	for _, m := range r.manifest {
		want[m.Name] = m.Unit
		got, ok := r.res.Metrics[m.Name]
		r.check(ok, "metric %s not measured", m.Name)
		r.check(!ok || got.Unit == m.Unit, "metric %s in %s, manifest says %s", m.Name, got.Unit, m.Unit)
	}
	for name := range r.res.Metrics {
		_, ok := want[name]
		r.check(ok, "metric %s is not in the manifest", name)
	}
}

// stampEnvironment prints the environment line every result carries:
// cores, GOMAXPROCS, toolchain, source revision and seed. run.sh passes
// the revision in: the git commit ("none" outside a repository) and a
// digest of the Go sources.
func stampEnvironment(r *run) {
	env := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"trace":      r.trace,
		"host_cores": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     os.Getenv("PERFBENCH_COMMIT"),
		"source":     os.Getenv("PERFBENCH_SOURCE"),
	}
	b, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Println("env " + string(b))
}
