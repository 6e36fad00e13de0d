package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cfdprop/internal/algebra"
	"cfdprop/internal/cfd"
	"cfdprop/internal/core"
	"cfdprop/internal/gen"
	"cfdprop/internal/implication"
	"cfdprop/internal/propagation"
	"cfdprop/internal/spec"
)

// The cover workload is the propcfd path: one op decodes a generated spec,
// runs PropCFD_SPC (Fig. 2) at parallelism 1 and renders the cover. Ops
// cycle round-robin through a fixed problem set at the paper's §5 shape
// (var% 40, |Y| = 25, |F| = 10, |Ec| = 4), one Σ per entry of
// scale.sigmaSizes, each Σ shared by scale.views views in a row. Only whole
// cycles are measured, so every run weighs every problem equally.

// coverProblems generates the problem set, each problem a spec as propcfd
// reads it.
func coverProblems(seed int64, sc scale) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	var out [][]byte
	for _, n := range sc.sigmaSizes {
		db := gen.Schema(rng, gen.SchemaParams{})
		sigma := gen.CFDs(rng, db, gen.CFDParams{Num: n, LHSMin: 3, LHSMax: 9, VarPct: 40})
		for v := 0; v < sc.views; v++ {
			view := gen.View(rng, db, "V", gen.ViewParams{Y: 25, F: 10, Ec: 4})
			data, err := spec.Encode(db, sigma, algebra.Single(view))
			if err != nil {
				return nil, fmt.Errorf("encoding problem |Σ|=%d: %w", n, err)
			}
			out = append(out, data)
		}
	}
	return out, nil
}

func renderCFDs(cs []*cfd.CFD) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.String()
	}
	return out
}

// coverOp is the timed op; it returns the rendered cover.
func coverOp(data []byte) ([]string, error) {
	db, sigma, view, err := spec.Decode(data)
	if err != nil {
		return nil, err
	}
	res, err := core.PropCFDSPC(db, view.Disjuncts[0], sigma, core.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	return renderCFDs(res.Cover), nil
}

// coverChecker confirms covers: every repeat of a problem must render the
// same cover as its first computation, and a seeded sample of each cover's
// CFDs must be propagated according to propagation.Check.
type coverChecker struct {
	probs   [][]byte
	rng     *rand.Rand
	samples int
	ref     []string // cover digest per problem; "" until first computed
}

func (c *coverChecker) check(p int, cover []string) error {
	d := digest(cover...)
	switch {
	case c.ref[p] == "":
		c.ref[p] = d
	case c.ref[p] != d:
		return fmt.Errorf("problem %d: cover differs from its first computation", p)
	}
	k := min(c.samples, len(cover))
	if k == 0 {
		return nil
	}
	db, sigma, view, err := spec.Decode(c.probs[p])
	if err != nil {
		return err
	}
	for _, i := range c.rng.Perm(len(cover))[:k] {
		phi, err := cfd.Parse(cover[i])
		if err != nil {
			return fmt.Errorf("problem %d: cover CFD %q: %w", p, cover[i], err)
		}
		res, err := propagation.Check(db, view, sigma, phi, propagation.Options{Parallelism: 1})
		if err != nil {
			return fmt.Errorf("problem %d: checking %s: %w", p, phi, err)
		}
		if !res.Propagated || res.Stopped != propagation.StopNone {
			return fmt.Errorf("problem %d: cover CFD %s is not propagated", p, phi)
		}
	}
	return nil
}

func runCover(cfg config) (*outcome, error) {
	probs, err := coverProblems(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	// Set-up is one untimed op. The repeats cycle through the problems of
	// the median Σ size, so setup_s is a median over several Σ rather than
	// the cost of whichever one the seed put first.
	mid := cfg.scale.sigmaSizes[len(cfg.scale.sigmaSizes)/2]
	var warm [][]byte
	for i, n := range cfg.scale.sigmaSizes {
		if n == mid {
			warm = append(warm, probs[i*cfg.scale.views:(i+1)*cfg.scale.views]...)
		}
	}
	setupCPU, err := setupMedian(cfg.scale.setups, func(i int) error {
		_, err := coverOp(warm[i%len(warm)])
		return err
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	chk := &coverChecker{
		probs:   probs,
		rng:     rand.New(rand.NewSource(cfg.seed ^ 0x5eed)),
		samples: cfg.scale.samples,
		ref:     make([]string, len(probs)),
	}
	fail := &failures{workload: "cover"}
	op := 0
	// pass runs whole cycles of untraced ops for at least d. The covers are
	// checked once the pass is over, so the checks' own work and garbage
	// stay out of the timed ops.
	pass := func(d time.Duration) opTimes {
		var t opTimes
		type answer struct {
			op, problem int
			cover       []string
			err         error
		}
		var answers []answer
		mem := readMem()
		cycles(d, len(probs), func(i int) {
			sw := startWatch()
			cover, err := coverOp(probs[i])
			t.add(sw)
			answers = append(answers, answer{op, i, cover, err})
			op++
		})
		t.allocMB, t.gcs = mem.perOp(len(t.cpu))
		t.peakRSS = peakRSSMiB()
		for _, a := range answers {
			err := a.err
			if err == nil {
				if cfg.tamper.cover != nil {
					a.cover = cfg.tamper.cover(a.op, a.cover)
				}
				err = chk.check(a.problem, a.cover)
			}
			if err != nil {
				fail.add(a.op, err)
			}
		}
		return t
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	out := &outcome{metrics: map[string]float64{}, record: map[string]any{"problems": len(probs)}}
	if !cfg.trace {
		// Blocks are whole cycles, so every block weighs every problem once.
		setOpFigures(out, pass(total), len(probs), 1)
		out.metrics["setup_s"] = setupCPU
		out.attempted, out.failed = op, fail.n
		out.record["cover_digest"] = digest(chk.ref...)
		return out, nil
	}

	// Traced run: an untraced pass gives the baseline the tracing overhead
	// is measured against, and the allocation rate; then the traced pass
	// times each layer of the same problems through its public entry point.
	times := pass(total / 3)
	out.metrics["cover.alloc_mb_per_op"], out.metrics["cover.gc_cycles_per_op"] = times.allocMB, times.gcs
	base := median(times.cpu)
	var l coverLayers
	cycles(total-total/3, len(probs), func(i int) {
		if err := l.op(probs[i], chk.ref[i]); err != nil {
			fail.add(op, err)
		}
		op++
	})
	for name, xs := range l.series() {
		out.metrics[name] = median(xs)
	}
	out.metrics["trace.overhead_ms"] = median(l.total) - base
	out.attempted, out.failed = op, fail.n
	out.record["untraced_op_p50_ms"] = base
	out.record["cover_digest"] = digest(chk.ref...)
	return out, nil
}

// coverLayers collects per-op samples of the traced cover path.
type coverLayers struct {
	decode, mincover, in, out, rbr, rbrOut, final, size []float64
	total                                               []float64 // the four timed layers of one op
}

func (l *coverLayers) series() map[string][]float64 {
	return map[string][]float64{
		"spec.decode_ms":                l.decode,
		"implication.mincover_ms":       l.mincover,
		"implication.mincover_in":       l.in,
		"implication.mincover_out":      l.out,
		"core.rbr_ms":                   l.rbr,
		"core.rbr_out":                  l.rbrOut,
		"implication.final_mincover_ms": l.final,
		"core.cover_size":               l.size,
	}
}

// op composes PropCFD_SPC from its layers: spec.Decode, then
// Session.MinCover per source relation on the normalised Σ (Fig. 2 line
// 1), then PropCFDSPC with both MinCover steps skipped (EQ and RBR), then
// Session.MinCover on the view universe (line 13). The composed cover must
// reproduce the untraced cover, whose digest is want.
func (l *coverLayers) op(data []byte, want string) error {
	sw := startWatch()
	db, sigma, view, err := spec.Decode(data)
	if err != nil {
		return err
	}
	decode := sw.lap()

	sw = startWatch()
	norm := cfd.NormalizeAll(sigma)
	byRel := map[string][]*cfd.CFD{}
	var order []string
	for _, c := range norm {
		if _, ok := byRel[c.Relation]; !ok {
			order = append(order, c.Relation)
		}
		byRel[c.Relation] = append(byRel[c.Relation], c)
	}
	var covered []*cfd.CFD
	for _, r := range order {
		cov, err := implication.NewSession(implication.UniverseOf(db.Relation(r))).MinCover(byRel[r])
		if err != nil {
			return err
		}
		covered = append(covered, cov...)
	}
	mincover := sw.lap()

	sw = startWatch()
	res, err := core.PropCFDSPC(db, view.Disjuncts[0], covered, core.Options{
		Parallelism: 1, SkipPreMinCover: true, SkipFinalMinCover: true,
	})
	if err != nil {
		return err
	}
	rbr := sw.lap()

	sw = startWatch()
	cover := res.Cover
	if !res.AlwaysEmpty {
		if cover, err = implication.NewSession(implication.UniverseOf(res.ViewSchema)).MinCover(cover); err != nil {
			return err
		}
	}
	rendered := renderCFDs(cover)
	final := sw.lap()
	if digest(rendered...) != want {
		return fmt.Errorf("composed cover differs from PropCFDSPC's:\n%s", strings.Join(rendered, "\n"))
	}

	l.decode = append(l.decode, decode)
	l.mincover = append(l.mincover, mincover)
	l.in = append(l.in, float64(len(norm)))
	l.out = append(l.out, float64(len(covered)))
	l.rbr = append(l.rbr, rbr)
	l.rbrOut = append(l.rbrOut, float64(len(res.Cover)))
	l.final = append(l.final, final)
	l.size = append(l.size, float64(len(cover)))
	l.total = append(l.total, decode+mincover+rbr+final)
	return nil
}
