// Command perfbench is the end-to-end step benchmark of the repository: it
// runs one workload in a fresh process, times the production path from
// outside (core.Run for the treecode, sph.Sim.Step for the hydro
// application), checks the results for correctness, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root (perfbench/run.py builds and runs it):
//
//	perfbench --workload plummer-32k-p8 --seed 1 --seconds 16 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics; with --trace 1 a
// separate cold process replays the step loop through the layers' public
// functions, times each call per rank, and reports the per-layer budget.
// README.md in this directory lists the workloads, the metrics, the
// correctness bounds and which metric each planned optimisation should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and its correctness verdicts.
type report struct {
	table     []metricSpec
	values    map[string]float64
	attempted int
	failures  []string
}

func newReport(table []metricSpec) *report {
	return &report{table: table, values: map[string]float64{}}
}

// set records a metric of the report's table; any other name is a bug.
func (r *report) set(name string, v float64) {
	for _, m := range r.table {
		if m.name == name {
			r.values[name] = v
			return
		}
	}
	panic("perfbench: metric " + name + " is not in this run's table")
}

// run counts one attempted simulation.
func (r *report) run() { r.attempted++ }

// failf records a breached check.
func (r *report) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check records a failure unless ok holds.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failf(format, args...)
	}
}

// options are the command-line parameters of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name ("+strings.Join(workloadNames(), ", ")+")")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the initial conditions are a pure function of it")
	fs.Float64Var(&o.seconds, "seconds", 16, "target length of the measured window; sizes the fixed step count")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced driver")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := workloadByName(o.workload)
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload in {%s}, --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	o.trace = trace == 1
	// One modeled rank per goroutine, host parallelism capped at the CPUs
	// the process may use.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	host := fingerprint()
	fmt.Printf("host: %s\n", host)
	steps := w.steps(o.seconds)
	if o.trace {
		steps = tracedSteps(steps)
	}
	fmt.Printf("workload: %s seed=%d steps=%d trace=%v (%s)\n", w.name, o.seed, steps, o.trace, w.why)

	table := endToEnd
	if o.trace {
		table = perLayer
	}
	rep := newReport(table)
	w.run(o, steps, rep)
	os.Exit(emit(rep))
}

// emit prints the metrics, the failures and the final JSON line, and returns
// the exit code: nonzero when any check failed. Every metric of the table
// is printed; one the run did not set (a layer the workload does not
// exercise) reads 0.
func emit(rep *report) int {
	failed := len(rep.failures)
	if failed > rep.attempted {
		failed = rep.attempted
	}
	metrics := map[string]metric{}
	for _, m := range rep.table {
		v := rep.values[m.name]
		if m.name == "failed_frac" {
			v = ratio(float64(failed), float64(rep.attempted))
		}
		metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("%-36s %14.6g %s\n", m.name, v, m.unit)
	}
	for _, f := range rep.failures {
		fmt.Printf("FAIL: %s\n", f)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.failures) == 0 && rep.attempted > 0, rep.attempted, failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 2
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
