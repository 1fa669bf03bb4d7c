// Command perfbench is the repository's end-to-end benchmark. It starts
// the repository's own daemons (cmd/palservd, or cmd/palrouter -spawn 2)
// from their command-line flags, drives them over loopback TCP with a
// closed loop of two client connections, checks every answer, and prints
// one JSON result line. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds the
// daemons and this program first:
//
//	bash perfbench/run.sh --workload attest-direct --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare <results-dir-A> <results-dir-B>
//	bash perfbench/run.sh write-reference
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// reports its per-layer metrics from a separate traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Paths relative to the repository root, where the benchmark runs.
const (
	binDir     = ".bench_build/bin"
	resultsDir = ".bench_build/results"
	specFile   = "BENCHMARK.json"
)

// setups is how many times a run boots its daemons; setup_s reports the
// median, and the last boot serves the measured phase. Boot time is
// heavy-tailed (RSA key generation searches for primes), hence several.
const setups = 15

// warmup lets the image cache, launch caches and threaded code fill
// before the measured window opens.
const warmup = time.Second

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "compare" || os.Args[1] == "write-reference") {
		var err error
		if os.Args[1] == "compare" {
			err = compare(os.Args[2:])
		} else {
			err = writeReference()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "workload seed: tenant names, image variants and inputs derive from it")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	correct, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

// spec is the part of BENCHMARK.json perfbench reads: the metric names,
// units and bounds are defined there once.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*spec, error) {
	b, err := os.ReadFile(specFile)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is the full run written under .bench_build/results for the
// compare step: the result plus the machine stamp and diagnostics.
type runRecord struct {
	Stamp       stamp              `json:"stamp"`
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Seconds     float64            `json:"seconds"`
	Result      result             `json:"result"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	Failures    []string           `json:"failures,omitempty"`
}

func run(w *workload, seed int64, measure time.Duration, traced bool) (bool, error) {
	sp, err := loadSpec()
	if err != nil {
		return false, err
	}
	st, err := machineStamp()
	if err != nil {
		return false, err
	}
	// A workload is identity-checked exactly when reference.json has an
	// entry for it.
	refs, err := loadReferences()
	if err != nil {
		return false, err
	}
	var ref *reference
	if r, ok := refs[w.name]; ok {
		ref = &r
	}
	b := &bench{w: w, seed: seed, tenants: w.tenantsFor(seed), ref: ref,
		vals: map[string]float64{}, diag: map[string]float64{}}
	defs := sp.EndToEnd
	if traced {
		defs = sp.PerLayer
		err = b.perLayer(measure)
	} else {
		err = b.endToEnd(measure)
	}
	if err != nil {
		return false, err
	}
	res := result{Correct: b.failed == 0 && len(b.identity) == 0,
		Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := b.vals[d.Name]
		if !ok {
			return false, fmt.Errorf("workload %s produced no value for %s", w.name, d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	failures := append(b.identity, b.failures...)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	rec := runRecord{Stamp: st, Workload: w.name, Seed: seed, Trace: traced,
		Seconds: measure.Seconds(), Result: res, Diagnostics: b.diag, Failures: failures}
	if err := saveRecord(&rec); err != nil {
		return false, err
	}
	if traced {
		printLayerTable(os.Stdout, b.vals)
	}
	sj, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", sj)
	out, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return res.Correct, nil
}

func saveRecord(rec *runRecord) error {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if rec.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s.seed%d.trace%d.json", rec.Workload, rec.Seed, trace)
	return os.WriteFile(filepath.Join(resultsDir, name), b, 0o644)
}

// bench is one invocation's state.
type bench struct {
	w       *workload
	seed    int64
	tenants []tenant
	ref     *reference

	attempted, failed int
	failures          []string
	identity          []string // identity-check violations, one per daemon instance
	vals, diag        map[string]float64
}

// daemonArgs returns the command line for one daemon instance.
func (b *bench) daemonArgs(traced bool) (bin string, args []string) {
	bin = filepath.Join(binDir, "palservd")
	if b.w.routed {
		bin = filepath.Join(binDir, "palrouter")
	}
	args = append([]string{"-addr", "127.0.0.1:0"}, b.w.args...)
	if b.w.maxBatch > 0 {
		args = append(args, "-quote-batch", strconv.Itoa(b.w.maxBatch))
	}
	if traced {
		args = append(args, "-trace")
		if !b.w.routed {
			args = append(args, "-debug", "127.0.0.1:0")
		}
	}
	return bin, args
}

// instance is one booted daemon and its identity check.
type instance struct {
	d     *daemon
	check *virtualCheck
	setup time.Duration
}

// boot starts a daemon instance and times exec → first successful job.
func (b *bench) boot(traced bool) (*instance, error) {
	bin, args := b.daemonArgs(traced)
	in := &instance{}
	if b.ref != nil {
		in.check = newVirtualCheck(*b.ref)
	}
	t0 := time.Now()
	d, err := startDaemon(bin, args, traced && !b.w.routed)
	if err != nil {
		return nil, err
	}
	in.d = d
	c, err := dial(d.addr)
	if err != nil {
		d.stop()
		return nil, err
	}
	defer c.Close()
	j := newJobGen(b.w, b.tenants, b.seed, -1).next()
	x, err := c.do(&j.req)
	b.attempted++
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("first job: %w", err)
	}
	in.check.observe(&x.resp)
	if why := b.w.checkOutput(&j, &x.resp); why != "" {
		b.fail("first job: " + why)
	}
	in.setup = time.Since(t0)
	return in, nil
}

func (b *bench) fail(why string) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, why)
	}
}

// retire stops an instance and records its identity verdict.
func (b *bench) retire(in *instance) {
	in.d.stop()
	if v := in.check.verdict(); v != "" {
		b.identity = append(b.identity, "identity check: "+v)
	}
}

// measurePhase runs the closed loop against in and folds its counts into b.
func (b *bench) measurePhase(in *instance, measure time.Duration, traced bool) *loadResult {
	p := &phase{w: b.w, addr: in.d.addr, tenants: b.tenants, seed: b.seed,
		warmup: warmup, measure: measure, traced: traced, check: in.check,
		pid: in.d.cmd.Process.Pid}
	r := p.run()
	b.attempted += r.attempted
	b.failed += r.failed
	for _, f := range r.failures {
		if len(b.failures) < 10 {
			b.failures = append(b.failures, f)
		}
	}
	return r
}

// endToEnd is the untraced run: setup_s over several boots, then the
// measured closed loop on the last one.
func (b *bench) endToEnd(measure time.Duration) error {
	var setupS []float64
	var in *instance
	for i := 0; i < setups; i++ {
		var err error
		if in, err = b.boot(false); err != nil {
			return err
		}
		setupS = append(setupS, in.setup.Seconds())
		if i < setups-1 {
			b.retire(in)
		}
	}
	r := b.measurePhase(in, measure, false)
	rss, err := in.d.peakRSSMiB()
	b.retire(in)
	if err != nil {
		return err
	}
	b.vals["cpu_mcycles_per_job"] = cpuMcyclesPerJob(r)
	b.vals["ok_ratio"] = okRatio(b.attempted, b.failed)
	b.vals["setup_s"] = median(setupS)
	b.vals["peak_rss_mb"] = rss
	// Throughput and latency move with how much of the shared host the
	// run gets; they are reported, not gated (README.md).
	wallClock(b.diag, r, measure)
	b.diag["samples"] = float64(len(r.jobs))
	b.diag["cpu.client_s"] = r.usage.client.Seconds()
	b.diag["cpu.clock_ghz"] = windowClockGHz(r)
	b.diag["cpu.daemon_ms_per_job"] = 1e3 * ratio(r.usage.daemon.Seconds(), float64(len(r.jobs)))
	b.diag["cluster.backend_share_max"] = backendShareMax(r.jobs)
	b.diag["cpu.steal_ratio"] = ratio(float64(r.usage.steal), float64(r.usage.ticks))
	b.diag["cpu.daemon_s"] = r.usage.daemon.Seconds()
	b.diag["cpu.machine_busy_s"] = float64(r.usage.busy) * clockTick.Seconds()
	b.diag["cpu.machine_steal_s"] = float64(r.usage.steal) * clockTick.Seconds()
	for i, s := range setupS {
		b.diag[fmt.Sprintf("setup_s.%d", i)] = s
	}
	return nil
}

// wallClock records a phase's wall-clock throughput and latency
// percentiles into v.
func wallClock(v map[string]float64, r *loadResult, window time.Duration) {
	lat := latenciesMS(r)
	v["jobs_per_s"] = float64(len(r.jobs)) / window.Seconds()
	v["latency_p50_ms"] = percentile(lat, 50)
	v["latency_p90_ms"] = percentile(lat, 90)
	v["tail.latency_p99_ms"] = percentile(lat, 99)
}

func okRatio(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

func latenciesMS(r *loadResult) []float64 {
	lat := make([]float64, len(r.jobs))
	for i, o := range r.jobs {
		lat[i] = float64(o.rtt.Nanoseconds()) / 1e6
	}
	return lat
}
