package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"cfdprop/internal/cfd"
	"cfdprop/internal/daemon"
)

// smokeScale runs every workload in well under a second per pass.
var smokeScale = scale{
	sigmaSizes: []int{40, 60, 80},
	views:      2,
	samples:    2,
	rows:       30_000,
	unionK:     4,
	setups:     1,
}

func smokeConfig(t *testing.T, trace bool) config {
	return config{seed: 7, seconds: 0.3, trace: trace, dir: t.TempDir(), scale: smokeScale}
}

func TestWorkloadsSmoke(t *testing.T) {
	for name, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, rec, err := execute(name, w, smokeConfig(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m := res.Metrics[s.name]
				if m.Unit != s.unit || (!trace && m.Value <= 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", name, trace, s.name, m)
				}
			}
			if rec["host"] == nil {
				t.Errorf("%s: the run record has no host stamp", name)
			}
		}
	}
}

// TestTracedLayersReported checks that each workload's traced run measures
// the layers it exercises.
func TestTracedLayersReported(t *testing.T) {
	want := map[string][]string{
		"cover":  {"spec.decode_ms", "implication.mincover_ms", "core.rbr_ms", "implication.final_mincover_ms", "implication.mincover_in", "cover.alloc_mb_per_op"},
		"detect": {"stream.floor_ms", "stream.rule.zip_street_ms", "stream.rule.zip_street_groups", "stream.multipass_ms", "stream.alloc_mb_per_op"},
		"serve":  {"propagation.check_ms", "daemon.decode_ms", "daemon.encode_ms", "core.coversession_ms", "implication.pool_edit_ms", "propagation.pairs_per_check", "daemon.edit_p50_ms"},
	}
	for name, metrics := range want {
		cfg := smokeConfig(t, true)
		cfg.seconds = 2 // long enough for serve's first edits, even under -race
		res, _, err := execute(name, workloads[name], cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metrics {
			if res.Metrics[m].Value <= 0 {
				t.Errorf("%s: traced metric %s = %v, want > 0", name, m, res.Metrics[m].Value)
			}
		}
		if p := res.Metrics["stream.multipass_passes"].Value; name == "detect" && p < 2 {
			t.Errorf("detect: multipass guard ran %v passes, want several", p)
		}
	}
}

func TestCoverDigestRepeatsAcrossRuns(t *testing.T) {
	_, a, err := execute("cover", runCover, smokeConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := execute("cover", runCover, smokeConfig(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if a["cover_digest"] != b["cover_digest"] {
		t.Fatalf("cover digests differ between runs of one seed: %v vs %v", a["cover_digest"], b["cover_digest"])
	}
}

// TestPlantedWrongAnswersFail plants one wrong answer per workload and
// requires the run to report it as a failed op.
func TestPlantedWrongAnswersFail(t *testing.T) {
	cases := map[string]func(*config){
		"cover": func(c *config) {
			c.scale.samples = 1 << 20 // confirm every cover CFD
			c.tamper.cover = func(op int, cover []string) []string {
				if len(cover) == 0 {
					return cover
				}
				// V(A -> A='planted'): no generated view fixes A to that.
				attr := cfd.MustParse(cover[0]).RHS[0].Attr
				return append(cover, cfd.NewConstant("V", attr, "planted").String())
			}
		},
		"detect": func(c *config) {
			c.tamper.detect = func(op int, v *reportView) {
				if op == 0 {
					v.rules[0].vios = v.rules[0].vios[1:]
					v.rules[0].count--
				}
			}
		},
		"serve": func(c *config) {
			c.tamper.serve = func(op int, resp *daemon.CheckResponse) {
				if op == 0 {
					resp.Results[0].Propagated = !resp.Results[0].Propagated
				}
			}
		},
	}
	for name, plant := range cases {
		cfg := smokeConfig(t, false)
		plant(&cfg)
		res, _, err := execute(name, workloads[name], cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: planted wrong answer went unnoticed (correct=%v failed=%d)", name, res.Correct, res.Failed)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not a workload of the command", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the command prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestFiguresScaleWithCalibration checks that op figures are scaled by the
// calibrations taken beside them: the same op times measured while
// calibrate() ran twice as slow read half as long.
func TestFiguresScaleWithCalibration(t *testing.T) {
	figures := func(cal float64) map[string]float64 {
		times := opTimes{cpu: []float64{10, 20, 30, 40}}
		for range times.cpu {
			times.cal = append(times.cal, cal)
		}
		out := &outcome{metrics: map[string]float64{}, record: map[string]any{}}
		setOpFigures(out, times, 2, 1)
		return out.metrics
	}
	ref, slow := figures(calibRefMs), figures(2*calibRefMs)
	for _, name := range []string{"op_p50_ms", "op_p90_ms"} {
		if got, want := slow[name], ref[name]/2; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v with calibrations twice as slow, want %v", name, got, want)
		}
	}
	if got, want := slow["throughput_per_s"], ref["throughput_per_s"]*2; math.Abs(got-want) > 1e-9 {
		t.Errorf("throughput_per_s = %v with calibrations twice as slow, want %v", got, want)
	}
	if ms := calibrate(); ms <= 0 {
		t.Errorf("calibrate() took %v ms", ms)
	}
}
