package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"cfdprop/internal/bench"
	"cfdprop/internal/cfd"
	"cfdprop/internal/stream"
)

// The detect workload is the cfdcheck path: one op is stream.Check at one
// worker over an in-memory CSV from bench.GenerateStreamCSV, against the
// four rules of `benchfig -exp stream`. Keeping the input in memory keeps
// disk effects out of the numbers.

// detectRules are the rules of `benchfig -exp stream`: three standard CFDs
// of distinct group cardinality and one constant-pattern CFD.
var detectRules = []*cfd.CFD{
	cfd.MustParse("R([zip] -> [street])"),
	cfd.MustParse("R([CC, AC] -> [city])"),
	cfd.MustParse("R([AC] -> [city])"),
	cfd.MustParse("R([CC=44, AC=20] -> [city=c20])"),
}

// detectFloorRule has a constant LHS no generated row matches (CC is one
// of 01, 44, 86), so checking it alone costs CSV decode, chunking and the
// LHS filter and nothing else.
var detectFloorRule = cfd.MustParse("R([CC=99] -> [city])")

// The generator injects one street error at offset 500 and one city error
// at offset 900 of every 50k-row stripe.
const (
	detectStripe      = 50_000
	detectStreetError = 500
	detectCityError   = 900
)

// detectBlock is the number of ops per block of the end-to-end figures.
const detectBlock = 20

// reportView is the part of a report the oracle also produces: rows
// scanned and, per rule, the exact count and the retained violations.
type reportView struct {
	rows  int
	rules []ruleView
}

type ruleView struct {
	count int
	vios  []cfd.Violation
}

func viewOfReport(rep *stream.Report) (*reportView, error) {
	v := &reportView{rows: rep.Rows}
	for i := range rep.Rules {
		if err := rep.Rules[i].Err; err != nil {
			return nil, err
		}
		v.rules = append(v.rules, ruleView{count: rep.Rules[i].Count, vios: rep.Rules[i].Violations})
	}
	return v, nil
}

func (v *reportView) digest() string {
	parts := []string{strconv.Itoa(v.rows)}
	for _, r := range v.rules {
		parts = append(parts, r.digest())
	}
	return digest(parts...)
}

func (r ruleView) digest() string {
	parts := []string{strconv.Itoa(r.count)}
	for _, x := range r.vios {
		parts = append(parts, fmt.Sprintf("%d,%d,%d,%d,%s,%s", x.T1, x.T2, x.Line1, x.Line2, x.Attr, x.Reason))
	}
	return digest(parts...)
}

// detectInput generates the CSV through a scratch file and keeps it in
// memory.
func detectInput(cfg config) ([]byte, error) {
	path := filepath.Join(cfg.dir, fmt.Sprintf("detect-%d.csv", cfg.seed))
	if _, err := bench.GenerateStreamCSV(path, cfg.scale.rows, cfg.seed); err != nil {
		return nil, fmt.Errorf("generating input: %w", err)
	}
	defer os.Remove(path)
	return os.ReadFile(path)
}

// detectOp is the timed op.
func detectOp(data []byte, rules []*cfd.CFD, opts stream.Options) (*stream.Report, error) {
	return stream.Check(func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(data)), nil
	}, "detect.csv", rules, opts)
}

// detectOracle is the in-memory answer: stream.LoadInstance plus
// cfd.Violations per rule.
func detectOracle(data []byte, rules []*cfd.CFD) (*reportView, error) {
	in, err := stream.LoadInstance(bytes.NewReader(data), "detect.csv", "R")
	if err != nil {
		return nil, err
	}
	v := &reportView{rows: in.Len()}
	for _, c := range rules {
		vios, err := cfd.Violations(in, c)
		if err != nil {
			return nil, err
		}
		v.rules = append(v.rules, ruleView{count: len(vios), vios: vios})
	}
	return v, nil
}

// checkInjected holds the oracle to what the generator is known to plant:
// every violation involves an injected row of its kind (street errors for
// the zip rule, city errors for the others), and each standard rule has at
// least one violation.
func checkInjected(v *reportView, rows int) error {
	injected := func(offset int) map[int]bool {
		lines := map[int]bool{}
		for i := offset; i < rows; i += detectStripe {
			lines[i+2] = true // data row i sits on file line i+2 (line 1 is the header)
		}
		return lines
	}
	street, city := injected(detectStreetError), injected(detectCityError)
	for i, r := range v.rules {
		lines := city
		if i == 0 {
			lines = street
		}
		if i < 3 && r.count == 0 {
			return fmt.Errorf("rule %s: no violation, but the generator injects some", detectRules[i])
		}
		for _, x := range r.vios {
			if !lines[x.Line1] && !lines[x.Line2] {
				return fmt.Errorf("rule %s: violation at lines %d,%d involves no injected row", detectRules[i], x.Line1, x.Line2)
			}
		}
	}
	return nil
}

func runDetect(cfg config) (*outcome, error) {
	data, err := detectInput(cfg)
	if err != nil {
		return nil, err
	}
	opts := stream.Options{Parallel: 1}
	setupCPU, err := setupMedian(cfg.scale.setups, func(int) error {
		_, err := detectOp(data, detectRules, opts)
		return err
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	fail := &failures{workload: "detect"}
	op := 0
	var digests []string
	// pass runs untraced ops for at least d; each op's answer is kept as a
	// digest and compared with the oracle once the pass is over.
	pass := func(d time.Duration) opTimes {
		var t opTimes
		mem := readMem()
		cycles(d, 1, func(int) {
			sw := startWatch()
			rep, err := detectOp(data, detectRules, opts)
			t.add(sw)
			var v *reportView
			if err == nil {
				v, err = viewOfReport(rep)
			}
			if err != nil {
				fail.add(op, err)
				digests = append(digests, "")
			} else {
				if cfg.tamper.detect != nil {
					cfg.tamper.detect(op, v)
				}
				digests = append(digests, v.digest())
			}
			op++
		})
		t.allocMB, t.gcs = mem.perOp(len(t.cpu))
		t.peakRSS = peakRSSMiB()
		return t
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	out := &outcome{metrics: map[string]float64{}, record: map[string]any{"rows": cfg.scale.rows, "bytes": len(data)}}
	var times opTimes
	if cfg.trace {
		times = pass(total / 3)
		out.metrics["stream.alloc_mb_per_op"], out.metrics["stream.gc_cycles_per_op"] = times.allocMB, times.gcs
	} else {
		times = pass(total)
	}
	oracle, err := detectOracle(data, detectRules)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if err := checkInjected(oracle, cfg.scale.rows); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: detect oracle: %v\n", err)
		out.wrong = true
	}
	want := oracle.digest()
	for i, d := range digests {
		if d != "" && d != want {
			fail.add(i, fmt.Errorf("report differs from the in-memory oracle"))
		}
	}
	out.record["report_digest"] = want
	if !cfg.trace {
		setOpFigures(out, times, detectBlock, float64(cfg.scale.rows))
		out.metrics["setup_s"] = setupCPU
		out.attempted, out.failed = op, fail.n
		return out, nil
	}

	var l detectLayers
	cycles(total-total/3, 1, func(int) {
		if err := l.op(data, oracle); err != nil {
			fail.add(op, err)
		}
		op++
	})
	for name, xs := range l.series {
		out.metrics[name] = median(xs)
	}
	out.metrics["trace.overhead_ms"] = median(l.totals) - median(times.cpu)
	out.attempted, out.failed = op, fail.n
	out.record["ops"] = op
	out.record["untraced_op_p50_ms"] = median(times.cpu)
	return out, nil
}

// timedReader accumulates the time its caller spends blocked in Read.
type timedReader struct {
	r       io.Reader
	blocked time.Duration
}

func (t *timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := t.r.Read(p)
	t.blocked += time.Since(start)
	return n, err
}

// detectLayers collects per-op samples of the traced detect path: one
// series per per-layer metric, plus each op's traced total.
type detectLayers struct {
	series map[string][]float64
	totals []float64
}

// op times the pipeline's parts through stream.Check: the floor rule
// alone, each rule alone, the input reader's blocked time during a full
// check, and the zip rule forced into the multipass fallback. Every answer
// is compared with the oracle.
func (l *detectLayers) op(data []byte, oracle *reportView) error {
	vals := map[string]float64{}
	one := stream.Options{Parallel: 1}
	sw := startWatch()
	if _, err := detectOp(data, []*cfd.CFD{detectFloorRule}, one); err != nil {
		return err
	}
	floor := sw.lap()
	vals["stream.floor_ms"] = floor
	total := floor

	zipGroups := 0
	for i, c := range detectRules {
		sw = startWatch()
		rep, err := detectOp(data, []*cfd.CFD{c}, one)
		if err != nil {
			return err
		}
		el := sw.lap()
		v, err := viewOfReport(rep)
		if err != nil {
			return err
		}
		if v.rules[0].digest() != oracle.rules[i].digest() {
			return fmt.Errorf("rule %s alone differs from the oracle", c)
		}
		name := "stream.rule." + detectRuleNames[i]
		vals[name+"_ms"] = el
		vals[name+"_groups"] = float64(rep.Rules[0].Groups)
		vals[name+"_violations"] = float64(rep.Rules[0].Count)
		// One floor pass plus each rule's cost above it.
		total += el - floor
		if i == 0 {
			zipGroups = rep.Rules[0].Groups
		}
	}

	tr := &timedReader{r: bytes.NewReader(data)}
	rep, err := stream.Check(func() (io.ReadCloser, error) { return io.NopCloser(tr), nil }, "detect.csv", detectRules, one)
	if err != nil {
		return err
	}
	if v, err := viewOfReport(rep); err != nil || v.digest() != oracle.digest() {
		return fmt.Errorf("full check differs from the oracle (%v)", err)
	}
	vals["stream.read_ms"] = ms(tr.blocked)

	multi := stream.Options{Parallel: 1, MaxGroups: max(zipGroups/3, 1)}
	sw = startWatch()
	rep, err = detectOp(data, detectRules[:1], multi)
	if err != nil {
		return err
	}
	vals["stream.multipass_ms"] = sw.lap()
	vals["stream.multipass_passes"] = float64(rep.Rules[0].Passes)
	if v, err := viewOfReport(rep); err != nil || v.rules[0].digest() != oracle.rules[0].digest() {
		return fmt.Errorf("multipass zip rule differs from the oracle (%v)", err)
	}
	if l.series == nil {
		l.series = map[string][]float64{}
	}
	for k, v := range vals {
		l.series[k] = append(l.series[k], v)
	}
	l.totals = append(l.totals, total)
	return nil
}
