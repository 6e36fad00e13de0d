// Command perfbench is the repository benchmark. It runs one of three
// workloads over the user-facing paths of the propagation system and prints
// their metrics as JSON:
//
//   - cover: decode a spec and compute a PropCFD_SPC cover (propcfd),
//   - detect: stream-check an in-memory CSV against CFD rules (cfdcheck),
//   - serve: a closed loop of clients against an in-process daemon (propcfdd).
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	perfbench --workload cover --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer breakdown, measured by
// timing calls into each layer's public functions. The line before it is a
// run record: host stamp, seed, sample counts and output digests. README.md
// maps every metric to its workload and layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cfdprop/internal/bench"
	"cfdprop/internal/daemon"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics every untraced run reports. Each is
// defined on every workload (README.md gives the per-workload meaning).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// detectRuleNames name the detect rules in per-layer metric names, in the
// order of detectRules.
var detectRuleNames = []string{"zip_street", "cc_ac_city", "ac_city", "cc44_ac20_city"}

// perLayer lists the per-layer metrics every traced run reports. A metric
// of a layer the workload does not exercise reads 0.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"trace.overhead_ms", "ms"},
		// cover
		{"spec.decode_ms", "ms"},
		{"implication.mincover_ms", "ms"},
		{"implication.mincover_in", "count"},
		{"implication.mincover_out", "count"},
		{"core.rbr_ms", "ms"},
		{"core.rbr_out", "count"},
		{"implication.final_mincover_ms", "ms"},
		{"core.cover_size", "count"},
		{"cover.alloc_mb_per_op", "MB"},
		{"cover.gc_cycles_per_op", "count"},
		// detect
		{"stream.floor_ms", "ms"},
	}
	for _, r := range detectRuleNames {
		m = append(m,
			metricSpec{"stream.rule." + r + "_ms", "ms"},
			metricSpec{"stream.rule." + r + "_groups", "count"},
			metricSpec{"stream.rule." + r + "_violations", "count"})
	}
	return append(m, []metricSpec{
		{"stream.read_ms", "ms"},
		{"stream.multipass_ms", "ms"},
		{"stream.multipass_passes", "count"},
		{"stream.alloc_mb_per_op", "MB"},
		{"stream.gc_cycles_per_op", "count"},
		// serve
		{"daemon.server_check_mean_ms", "ms"},
		{"daemon.transport_ms", "ms"},
		{"daemon.decode_ms", "ms"},
		{"daemon.encode_ms", "ms"},
		{"daemon.edit_p50_ms", "ms"},
		{"propagation.check_ms", "ms"},
		{"propagation.pairs_per_check", "count"},
		{"propagation.instantiations_per_check", "count"},
		{"propagation.memo_hit_ratio", "ratio"},
		{"propagation.carry_ratio", "ratio"},
		{"implication.pool_edit_ms", "ms"},
		{"core.coversession_ms", "ms"},
		{"daemon.cache_hit_ratio", "ratio"},
		{"daemon.shed", "count"},
		{"daemon.alloc_mb_per_request", "MB"},
	}...)
}()

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// dir holds scratch files the workload writes while generating inputs.
	dir   string
	scale scale
	// tamper, when set, corrupts a workload's answers before they are
	// checked; tests use it to prove a wrong answer fails the run.
	tamper tamper
}

// tamper hooks, one per workload; each receives the op index.
type tamper struct {
	cover  func(op int, cover []string) []string
	detect func(op int, rep *reportView)
	serve  func(op int, resp *daemon.CheckResponse)
}

// scale sizes the workloads. fullScale is the benchmark; tests use smaller.
type scale struct {
	sigmaSizes []int // cover: one Σ of each listed size
	views      int   // cover: views sharing each Σ, run in a row
	samples    int   // cover: cover CFDs confirmed by propagation.Check per op
	rows       int   // detect: CSV rows per op
	unionK     int   // serve: disjuncts of the union universe
	setups     int   // set-ups per run; setup_s is their median
}

var fullScale = scale{
	// Sizes are weighted so that the op median falls inside the group of
	// fifteen Σ of 750 CFDs and the p90 inside the group of eight of 1500:
	// each percentile is then a median over several independent Σ, not the
	// cost of whichever few Σ a seed happens to put there. (With five Σ in
	// a percentile's group, that percentile of five seeds spread by up to a
	// tenth of itself on a quiet host.)
	sigmaSizes: []int{
		500, 500, 500,
		750, 750, 750, 750, 750, 750, 750, 750, 750, 750, 750, 750, 750, 750, 750,
		1000, 1000,
		1500, 1500, 1500, 1500, 1500, 1500, 1500, 1500,
		2000,
	},
	views:   2,
	samples: 3,
	// 60k rows (~2.2 MB): at 250k rows (~9 MB) detect's figures moved two
	// to three times as far with the load of other tenants.
	rows:   60_000,
	unionK: 12,
	setups: 20,
}

// outcome is what a workload returns: counts, run-level verdict, metric
// values by name, and a record of the run for the line before the result.
type outcome struct {
	attempted, failed int
	// wrong is set when a run-level check (not tied to one op) failed.
	wrong   bool
	metrics map[string]float64
	record  map[string]any
}

// failures counts failed ops and reports the first few on stderr. It is
// safe for concurrent use.
type failures struct {
	workload string
	mu       sync.Mutex
	n        int
}

func (f *failures) add(op int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if f.n <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", f.workload, op, err)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(config) (*outcome, error){
	"cover":  runCover,
	"detect": runDetect,
	"serve":  runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cover, detect or serve")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 30, "seconds of measurement")
	trace := fs.Int("trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload cover|detect|serve, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	dir := filepath.Join(".bench_build", "perfbench-tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir, scale: fullScale}
	res, rec, err := execute(*name, w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// execute runs one workload and shapes its outcome into the result line
// and the run record.
func execute(name string, w func(config) (*outcome, error), cfg config) (*result, map[string]any, error) {
	start := time.Now()
	calibrate() // warm the calibration up before any of it is timed
	out, err := w(cfg)
	if err != nil {
		return nil, nil, err
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res := &result{
		Correct:   out.failed == 0 && !out.wrong && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := out.metrics[s.name]
		if !ok && !cfg.trace {
			return nil, nil, fmt.Errorf("end-to-end metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	for k := range out.metrics {
		if _, ok := res.Metrics[k]; !ok {
			return nil, nil, fmt.Errorf("metric %s is not declared", k)
		}
	}
	rec := map[string]any{
		"host":     bench.HostInfo(),
		"workload": name,
		"seed":     cfg.seed,
		"trace":    cfg.trace,
		"wall_s":   time.Since(start).Seconds(),
	}
	for k, v := range out.record {
		rec[k] = v
	}
	return res, rec, nil
}
