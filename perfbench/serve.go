package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cfdprop/internal/algebra"
	"cfdprop/internal/bench"
	"cfdprop/internal/cfd"
	"cfdprop/internal/core"
	"cfdprop/internal/daemon"
	"cfdprop/internal/implication"
	"cfdprop/internal/propagation"
	"cfdprop/internal/rel"
	"cfdprop/internal/spec"
)

// The serve workload is the propcfdd path: a closed loop of serveClients
// clients, each waiting for its answer before sending its next request,
// against an in-process daemon.Server on a loopback listener. There is one
// client: with two, both vCPUs of a 2-vCPU machine are busy and the figures
// moved about twice as far with the load of other tenants. With one, the
// process serves one request at a time, so the process CPU time a request
// spans is that request's cost, client included. Every client owns its
// universes, so no client writes state another reads:
//
//   - a k-disjunct SPCU union shaped like `benchfig -exp incremental`,
//   - finiteUniverses single-disjunct views with finite domains, whose
//     checks run the general-setting factorised enumeration. There are
//     several so that a run's check cost is an average over several
//     seeded Σ rather than the cost of one.
//
// Each client follows a seeded schedule of serveCycle steps: a quarter of
// its /v1/check batches go to the union, whose small φ pool the memo
// answers after the first round; the rest go to a finite universe, whose
// pool of finitePool constant-pattern φ is large enough that most draws
// run the enumeration. Every finiteEditEvery steps a PATCH toggles one CFD
// of the next finite universe in turn, which drops its memoised verdicts;
// the last step of a cycle PATCHes one union CFD and fetches /v1/cover on
// the new fingerprint. Requests ask for parallelism 1.

const (
	serveClients    = 1
	serveBatch      = 8
	serveCycle      = 40
	finiteUniverses = 8
	finiteEditEvery = 10
	finitePool      = 128
	unionAttrs      = 6
)

// serveUniverse is one universe as generated: the spec the client
// registers and the compiled objects the oracles run on.
type serveUniverse struct {
	name    string
	prob    *spec.Problem
	db      *rel.DBSchema
	view    *algebra.SPCU
	sigma   []*cfd.CFD // as the daemon compiles it from prob
	general bool
	phis    []string
	victims []*cfd.CFD // normalised; the PATCHes toggle these in turn
}

func newServeUniverse(name string, db *rel.DBSchema, view *algebra.SPCU, sigma []*cfd.CFD, general bool, phis []string, victims []*cfd.CFD) (*serveUniverse, error) {
	data, err := spec.Encode(db, sigma, view)
	if err != nil {
		return nil, err
	}
	u := &serveUniverse{name: name, prob: &spec.Problem{}, general: general, phis: phis, victims: cfd.NormalizeAll(victims)}
	if err := json.Unmarshal(data, u.prob); err != nil {
		return nil, err
	}
	if u.db, u.sigma, u.view, err = spec.Compile(u.prob); err != nil {
		return nil, err
	}
	return u, nil
}

// unionUniverse builds client c's union: k relations R1..Rk over A1..A6,
// each embedded by its own disjunct tagged CC=<tag>, with a determining
// chain, the two filler FDs of `-exp incremental` and one seeded filler.
// The tags differ per client, so each client's universe is its own.
func unionUniverse(rng *rand.Rand, c, k int) (*serveUniverse, error) {
	attrs := make([]string, unionAttrs)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("A%d", i+1)
	}
	tag := func(r int) string { return strconv.Itoa(100*(c+1) + r) }
	schemas := make([]*rel.Schema, k)
	disjuncts := make([]*algebra.SPC, k)
	var sigma []*cfd.CFD
	for r := 1; r <= k; r++ {
		name := fmt.Sprintf("R%d", r)
		schemas[r-1] = rel.InfiniteSchema(name, attrs...)
		for i := 0; i+1 < unionAttrs; i++ {
			sigma = append(sigma, cfd.MustParse(fmt.Sprintf("%s(%s -> %s)", name, attrs[i], attrs[i+1])))
		}
		p := rng.Perm(unionAttrs)
		sigma = append(sigma,
			cfd.MustParse(fmt.Sprintf("%s([%s, %s] -> [%s])", name, attrs[0], attrs[unionAttrs-1], attrs[1])),
			cfd.MustParse(fmt.Sprintf("%s([%s, %s] -> [%s])", name, attrs[1], attrs[2], attrs[unionAttrs-1])),
			cfd.MustParse(fmt.Sprintf("%s([%s, %s] -> [%s])", name, attrs[p[0]], attrs[p[1]], attrs[p[2]])),
		)
		disjuncts[r-1] = &algebra.SPC{
			Name:       "V",
			Consts:     []algebra.ConstAtom{{Attr: "CC", Value: tag(r)}},
			Atoms:      []algebra.RelAtom{{Source: name, Attrs: attrs}},
			Projection: append([]string{"CC"}, attrs...),
		}
	}
	view, err := algebra.NewSPCU("V", disjuncts...)
	if err != nil {
		return nil, err
	}
	// Two victims: chain links of two distinct relations.
	rels := rng.Perm(k)[:2]
	var victims []*cfd.CFD
	for _, r := range rels {
		i := rng.Intn(unionAttrs - 1)
		victims = append(victims, cfd.MustParse(fmt.Sprintf("R%d(%s -> %s)", r+1, attrs[i], attrs[i+1])))
	}
	// φ pool: guarded candidates (two on the victims' relations, whose
	// answers the edits flip), CC-variable ones, and unguarded ones that
	// cross-disjunct pairs refute.
	ij := func() (string, string) {
		i := rng.Intn(unionAttrs - 1)
		j := i + 1 + rng.Intn(unionAttrs-1-i)
		return attrs[i], attrs[j]
	}
	var phis []string
	for n := 0; n < 6; n++ {
		r := rng.Intn(k)
		if n < 2 {
			r = rels[n]
		}
		a, b := ij()
		phis = append(phis, fmt.Sprintf("V([CC=%s, %s] -> [%s])", tag(r+1), a, b))
	}
	for n := 0; n < 3; n++ {
		a, b := ij()
		phis = append(phis, fmt.Sprintf("V([CC, %s] -> [%s])", a, b))
	}
	for n := 0; n < 3; n++ {
		a, b := ij()
		phis = append(phis, fmt.Sprintf("V(%s -> %s)", a, b))
	}
	return newServeUniverse(fmt.Sprintf("union-%d", c), rel.MustDBSchema(schemas...), view, sigma, false, phis, victims)
}

// finiteUniverse builds client c's f-th finite-domain universe from
// bench.GeneralInstWorkload: two finite attributes of domain size 4 beside
// eight infinite ones, so each pair check enumerates up to 4^4
// assignments. Its φ pool is finitePool distinct CFDs, each with a constant
// on its first LHS attribute, as a user asking about particular values
// would write them.
func finiteUniverse(rng *rand.Rand, seed int64, c, f int) (*serveUniverse, error) {
	db, view, sigma, _ := bench.GeneralInstWorkload((seed*serveClients+int64(c))*finiteUniverses+int64(f), 2, 4)
	attrs := []string{"A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "F1", "F2"}
	seen := map[string]bool{}
	var phis []string
	for len(phis) < finitePool {
		p := rng.Perm(len(attrs))
		lhs := attrs[p[0]]
		val := rng.Intn(1000)
		if lhs[0] == 'F' {
			val = rng.Intn(4) // within the finite domain
		}
		phi := fmt.Sprintf("V([%s=%d] -> [%s])", lhs, val, attrs[p[2]])
		if rng.Intn(2) == 0 {
			phi = fmt.Sprintf("V([%s=%d, %s] -> [%s])", lhs, val, attrs[p[1]], attrs[p[2]])
		}
		if !seen[phi] {
			seen[phi] = true
			phis = append(phis, phi)
		}
	}
	i := 1 + rng.Intn(7)
	victim := cfd.MustParse(fmt.Sprintf("R1(A%d -> A%d)", i, i+1))
	return newServeUniverse(fmt.Sprintf("finite-%d-%d", c, f), db, view, sigma, true, phis, []*cfd.CFD{victim})
}

// serveInputs generates every client's universes: the union first, then
// the finite ones.
func serveInputs(seed int64, sc scale) ([][]*serveUniverse, error) {
	out := make([][]*serveUniverse, serveClients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		u, err := unionUniverse(rng, c, sc.unionK)
		if err != nil {
			return nil, err
		}
		out[c] = append(out[c], u)
		for f := 0; f < finiteUniverses; f++ {
			u, err := finiteUniverse(rng, seed, c, f)
			if err != nil {
				return nil, err
			}
			out[c] = append(out[c], u)
		}
	}
	return out, nil
}

// universeState is a universe's Σ as the daemon holds it, its PATCH
// count, which picks the next toggle, and the oracle's index of that Σ.
type universeState struct {
	u     *serveUniverse
	sigma []*cfd.CFD
	edits int
	state int
}

// nextEdit returns the next toggle: PATCHes alternate between removing
// and re-adding a victim, moving to the next victim after each pair.
func (s *universeState) nextEdit() (add, remove []*cfd.CFD) {
	v := s.u.victims[(s.edits/2)%len(s.u.victims)]
	if s.edits%2 == 0 {
		return nil, []*cfd.CFD{v}
	}
	return []*cfd.CFD{v}, nil
}

// apply advances the state by one PATCH exactly as the daemon does:
// normalise Σ, drop the first match of each removal, append the additions.
// The caller sets the new state index.
func (s *universeState) apply(add, remove []*cfd.CFD) {
	next := append([]*cfd.CFD(nil), cfd.NormalizeAll(s.sigma)...)
	for _, r := range remove {
		for i, c := range next {
			if c.String() == r.String() {
				next = append(next[:i:i], next[i+1:]...)
				break
			}
		}
	}
	s.sigma = append(next, add...)
	s.edits++
}

func orderKey(sigma []*cfd.CFD) string { return strings.Join(renderCFDs(sigma), "\n") }

func setKey(sigma []*cfd.CFD) string {
	s := renderCFDs(cfd.NormalizeAll(sigma))
	sort.Strings(s)
	return strings.Join(s, "\n")
}

// serveOracle holds the library's answers for every state the schedule
// reaches: check results keyed by (state, φ), where a state is a universe
// with its Σ taken as a set, and union covers keyed by (universe, Σ in
// order), each computed cold.
type serveOracle struct {
	states map[string]int
	checks map[checkKey]daemon.CheckResult
	covers map[string][]string
}

type checkKey struct {
	state int
	phi   string
}

func stateKey(s *universeState) string { return s.u.name + "\x00" + setKey(s.sigma) }

// stateOf returns the index of s's state, or -1 if the oracle never
// reached it. It only reads, so clients may call it concurrently.
func (o *serveOracle) stateOf(s *universeState) int {
	if id, ok := o.states[stateKey(s)]; ok {
		return id
	}
	return -1
}

func coverKey(u *serveUniverse, sigma []*cfd.CFD) string { return u.name + "\x00" + orderKey(sigma) }

// answer returns the oracle's answer for phi in state s.
func (o *serveOracle) answer(s *universeState, phi string) (daemon.CheckResult, bool) {
	r, ok := o.checks[checkKey{s.state, phi}]
	return r, ok
}

// stripMemo zeroes the memo counters, the only fields a warm answer may
// legitimately differ on from a cold one.
func stripMemo(r daemon.CheckResult) daemon.CheckResult {
	r.MemoHits, r.MemoMisses = 0, 0
	return r
}

func libraryCheck(u *serveUniverse, sigma []*cfd.CFD, phi string, opts propagation.Options) (*propagation.Result, error) {
	c, err := cfd.Parse(phi)
	if err != nil {
		return nil, err
	}
	opts.General = u.general
	opts.Parallelism = 1
	return propagation.Check(u.db, u.view, sigma, c, opts)
}

// buildServeOracle walks each universe's PATCH sequence far enough to
// reach every state it will ever be in (the sequence is periodic after one
// round of victims) and computes the answers there.
func buildServeOracle(inputs [][]*serveUniverse) (*serveOracle, error) {
	o := &serveOracle{states: map[string]int{}, checks: map[checkKey]daemon.CheckResult{}, covers: map[string][]string{}}
	for _, us := range inputs {
		for _, u := range us {
			st := &universeState{u: u, sigma: u.sigma}
			for step := 0; step <= 4*len(u.victims); step++ {
				if st.state = o.stateOf(st); st.state < 0 {
					st.state = len(o.states)
					o.states[stateKey(st)] = st.state
					for _, phi := range u.phis {
						res, err := libraryCheck(u, st.sigma, phi, propagation.Options{})
						if err != nil {
							return nil, fmt.Errorf("oracle check %s on %s: %w", phi, u.name, err)
						}
						o.checks[checkKey{st.state, phi}] = stripMemo(daemon.ResultOf(phi, res, u.db))
					}
				}
				if !u.general {
					k := coverKey(u, st.sigma)
					if _, ok := o.covers[k]; !ok {
						res, err := core.PropCFDSPCU(u.db, u.view, st.sigma, core.Options{Parallelism: 1})
						if err != nil {
							return nil, fmt.Errorf("oracle cover on %s: %w", u.name, err)
						}
						o.covers[k] = renderCFDs(res.Cover)
					}
				}
				st.apply(st.nextEdit())
			}
		}
	}
	return o, nil
}

// step is one entry of a client's schedule: a check batch on universe u,
// or an edit of u (for the union, a PATCH and the /v1/cover after it).
type step struct {
	edit bool
	u    int // index into the client's universes; 0 is the union
	phis []string
}

// schedule yields a client's seeded request sequence.
type schedule struct {
	rng *rand.Rand
	us  []*serveUniverse
	i   int
}

func newSchedule(seed int64, c int, us []*serveUniverse) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed*7_919 + int64(c) + 1)), us: us}
}

func (s *schedule) next() step {
	i := s.i
	s.i++
	switch {
	case i%serveCycle == serveCycle-1:
		return step{edit: true, u: 0}
	case i%finiteEditEvery == finiteEditEvery/2:
		return step{edit: true, u: 1 + (i/finiteEditEvery)%finiteUniverses}
	}
	u := 0
	if i%4 != 0 {
		u = 1 + s.rng.Intn(finiteUniverses)
	}
	pool := s.us[u].phis
	phis := make([]string, serveBatch)
	for j := range phis {
		phis[j] = pool[s.rng.Intn(len(pool))]
	}
	return step{u: u, phis: phis}
}

// daemonHandle is a daemon serving on a loopback listener.
type daemonHandle struct {
	srv  *daemon.Server
	hs   *http.Server
	base string
	done chan error
	once sync.Once
	err  error
}

func startDaemon() (*daemonHandle, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := daemon.New(daemon.Config{})
	d := &daemonHandle{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and waits for its serve loop to return. Calls
// after the first return the first call's error.
func (d *daemonHandle) stop() error {
	d.once.Do(func() {
		d.srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.err = d.hs.Shutdown(ctx)
		if err := <-d.done; err != http.ErrServerClosed && d.err == nil {
			d.err = err
		}
	})
	return d.err
}

// call sends one JSON request and decodes a 200 answer into out.
func call(c *http.Client, method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always marshal
	}
	return data
}

// clientUniverse is a universe as one client sees it: its state plus the
// fingerprint the daemon last answered with.
type clientUniverse struct {
	universeState
	fp string
}

// register registers every universe of the clients and computes the first
// cover of each union, checking it against the oracle.
func register(base string, inputs [][]*serveUniverse, o *serveOracle) ([][]*clientUniverse, error) {
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	out := make([][]*clientUniverse, len(inputs))
	for c, us := range inputs {
		for _, u := range us {
			var reg daemon.UniverseResponse
			if err := call(hc, http.MethodPost, base+"/v1/universe", mustJSON(daemon.UniverseRequest{Spec: u.prob}), &reg); err != nil {
				return nil, err
			}
			cu := &clientUniverse{universeState: universeState{u: u, sigma: u.sigma}, fp: reg.Universe}
			cu.state = o.stateOf(&cu.universeState)
			if !u.general {
				var cov daemon.CoverResponse
				if err := call(hc, http.MethodPost, base+"/v1/cover", mustJSON(daemon.CoverRequest{Universe: cu.fp, Parallelism: 1}), &cov); err != nil {
					return nil, err
				}
				if !reflect.DeepEqual(cov.Cover, o.covers[coverKey(u, cu.sigma)]) {
					return nil, fmt.Errorf("first cover of %s differs from PropCFDSPCU", u.name)
				}
			}
			out[c] = append(out[c], cu)
		}
	}
	return out, nil
}

// serveClient runs one client's closed loop and keeps its samples.
type serveClient struct {
	hc     *http.Client
	base   string
	sched  *schedule
	us     []*clientUniverse
	oracle *serveOracle
	tamper func(op int, resp *daemon.CheckResponse)
	fail   func(op int, err error)

	start            time.Time // start of the pass
	steps            int
	checkLat         []float64       // client-observed /v1/check latencies
	checkCPU         []float64       // process CPU milliseconds each check spanned
	checkAt          []time.Duration // their completion times since start
	doneAt           []time.Duration // completion times of every request
	editLat          []float64
	pairs, insts     int
	hits, misses     int
	carried, dropped int64
	bodies           [][]byte // the first check bodies, kept for the decode layer
	// calibrate() times taken every serveCalibEvery steps, the process
	// CPU milliseconds each took, and their completion times.
	calMs, calCPU []float64
	calAt         []time.Duration
}

// serveCalibEvery is the number of steps between two calibrations: about
// 0.1 s of requests, so each window holds some 25 of them.
const serveCalibEvery = 50

const keptBodies = 256

// loop runs steps until stop is closed or a PATCH fails (the client can no
// longer tell which Σ the daemon holds).
func (c *serveClient) loop(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if c.steps%serveCalibEvery == 0 {
			sw := startWatch()
			c.calMs = append(c.calMs, calibrate())
			c.calCPU = append(c.calCPU, sw.lap())
			c.calAt = append(c.calAt, time.Since(c.start))
		}
		st := c.sched.next()
		op := c.steps
		c.steps++
		if st.edit {
			if err := c.edit(c.us[st.u]); err != nil {
				c.fail(op, err)
				return
			}
		} else if err := c.check(op, st); err != nil {
			c.fail(op, err)
		}
	}
}

func (c *serveClient) check(op int, st step) error {
	u := c.us[st.u]
	body := mustJSON(daemon.CheckRequest{Universe: u.fp, Phis: st.phis, Parallelism: 1})
	if len(c.bodies) < keptBodies {
		c.bodies = append(c.bodies, body)
	}
	start, sw := time.Now(), startWatch()
	var resp daemon.CheckResponse
	err := call(c.hc, http.MethodPost, c.base+"/v1/check", body, &resp)
	c.checkCPU = append(c.checkCPU, sw.lap())
	c.checkLat = append(c.checkLat, ms(time.Since(start)))
	c.checkAt = append(c.checkAt, c.completed())
	if err != nil {
		return err
	}
	if c.tamper != nil {
		c.tamper(op, &resp)
	}
	if resp.Universe != u.fp || len(resp.Results) != len(st.phis) {
		return fmt.Errorf("check on %s: answer for universe %s with %d results", u.u.name, resp.Universe, len(resp.Results))
	}
	for i, r := range resp.Results {
		c.pairs += r.PairsChecked
		c.insts += r.Instantiations
		c.hits += r.MemoHits
		c.misses += r.MemoMisses
		if want, ok := c.oracle.answer(&u.universeState, st.phis[i]); !ok || !reflect.DeepEqual(stripMemo(r), want) {
			return fmt.Errorf("check %s on %s: got %+v, library answers %+v", st.phis[i], u.u.name, r, want)
		}
	}
	return nil
}

// edit PATCHes the next toggle into u; for the union it then fetches the
// new cover, and the edit's latency covers both requests.
func (c *serveClient) edit(u *clientUniverse) error {
	add, remove := u.nextEdit()
	body := mustJSON(daemon.SigmaPatchRequest{Add: renderCFDs(add), Remove: renderCFDs(remove)})
	start := time.Now()
	var patched daemon.SigmaPatchResponse
	err := call(c.hc, http.MethodPatch, c.base+"/v1/universe/"+u.fp+"/sigma", body, &patched)
	c.completed()
	if err != nil {
		return err
	}
	u.apply(add, remove)
	u.state = c.oracle.stateOf(&u.universeState)
	u.fp = patched.Universe
	c.carried += patched.Carried.PairsCarried + patched.Carried.EmptyCarried
	c.dropped += patched.Carried.PairsDropped + patched.Carried.EmptyDropped
	if patched.SigmaSize != len(u.sigma) {
		return fmt.Errorf("patch on %s: daemon holds %d CFDs, want %d", u.u.name, patched.SigmaSize, len(u.sigma))
	}
	if u.u.general {
		return nil
	}
	var cov daemon.CoverResponse
	err = call(c.hc, http.MethodPost, c.base+"/v1/cover", mustJSON(daemon.CoverRequest{Universe: u.fp, Parallelism: 1}), &cov)
	c.completed()
	c.editLat = append(c.editLat, ms(time.Since(start)))
	if err != nil {
		return err
	}
	if want, ok := c.oracle.covers[coverKey(u.u, u.sigma)]; !ok || cov.Cached || !reflect.DeepEqual(cov.Cover, want) {
		return fmt.Errorf("cover of %s after PATCH differs from a cold PropCFDSPCU", u.u.name)
	}
	return nil
}

// completed records a request's completion and returns its time.
func (c *serveClient) completed() time.Duration {
	at := time.Since(c.start)
	c.doneAt = append(c.doneAt, at)
	return at
}

// servePass is one timed closed-loop pass of every client.
type servePass struct {
	clients []*serveClient
	wall    time.Duration // length of the pass
	// cpuAt is the process CPU time at the start and at every whole
	// serveWindow boundary; cpuEnd is the CPU time once the clients stop.
	cpuAt  []time.Duration
	cpuEnd time.Duration
}

func runClients(d *daemonHandle, unis [][]*clientUniverse, inputs [][]*serveUniverse, o *serveOracle, cfg config, fail func(int, error), dur time.Duration) *servePass {
	p := &servePass{}
	for c := range unis {
		p.clients = append(p.clients, &serveClient{
			hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
			base:   d.base,
			sched:  newSchedule(cfg.seed, c, inputs[c]),
			us:     unis[c],
			oracle: o,
			tamper: cfg.tamper.serve,
			fail:   fail,
		})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	p.cpuAt = []time.Duration{cpuTime()}
	for _, c := range p.clients {
		c.start = start
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			c.loop(stop)
		}(c)
	}
	for w := 1; time.Duration(w)*serveWindow <= dur; w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * serveWindow)))
		p.cpuAt = append(p.cpuAt, cpuTime())
	}
	time.Sleep(time.Until(start.Add(dur)))
	close(stop)
	wg.Wait()
	p.wall = time.Since(start)
	p.cpuEnd = cpuTime()
	for _, c := range p.clients {
		c.hc.CloseIdleConnections()
	}
	return p
}

// serveWindow is the window length of the end-to-end figures: each is the
// median over the pass's whole windows of that window's figure, so outside
// load that slows a minority of windows does not move it.
const serveWindow = 2500 * time.Millisecond

// windows returns, per whole window, the requests completed per second of
// process CPU time and the p50 and p90 of the process CPU time a check
// spanned, scaled by refScale of the window's calibrations; the
// calibrations' own CPU time is taken out of the window's. CPU time, not
// wall-clock latency: time the hypervisor steals is not in it, and on a
// shared virtual machine steal doubled the wall-clock p90 of identical
// runs. A pass shorter than one window is one window.
func (p *servePass) windows() (cpuRate, p50s, p90s []float64) {
	bounds, width := p.cpuAt, serveWindow
	if len(bounds) < 2 {
		bounds, width = []time.Duration{p.cpuAt[0], p.cpuEnd}, p.wall
	}
	n := len(bounds) - 1
	counts := make([]int, n)
	lats := make([][]float64, n)
	cals := make([][]float64, n)
	calCPU := make([]float64, n)
	var allCals []float64
	for _, c := range p.clients {
		allCals = append(allCals, c.calMs...)
		for i, at := range c.calAt {
			if w := int(at / width); w < n {
				cals[w] = append(cals[w], c.calMs[i])
				calCPU[w] += c.calCPU[i]
			}
		}
		for _, at := range c.doneAt {
			if w := int(at / width); w < n {
				counts[w]++
			}
		}
		for i, at := range c.checkAt {
			if w := int(at / width); w < n {
				lats[w] = append(lats[w], c.checkCPU[i])
			}
		}
	}
	for w := 0; w < n; w++ {
		if len(cals[w]) == 0 {
			cals[w] = allCals
		}
		f := refScale(cals[w])
		cpu := (bounds[w+1] - bounds[w]).Seconds() - calCPU[w]/1000
		cpuRate = append(cpuRate, float64(counts[w])/(cpu*f))
		p50s = append(p50s, median(lats[w])*f)
		p90s = append(p90s, p90(lats[w])*f)
	}
	return cpuRate, p50s, p90s
}

func (p *servePass) sum(f func(c *serveClient) float64) float64 {
	s := 0.0
	for _, c := range p.clients {
		s += f(c)
	}
	return s
}

func (p *servePass) concat(f func(c *serveClient) []float64) []float64 {
	var out []float64
	for _, c := range p.clients {
		out = append(out, f(c)...)
	}
	return out
}

func runServe(cfg config) (*outcome, error) {
	inputs, err := serveInputs(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	oracle, err := buildServeOracle(inputs)
	if err != nil {
		return nil, err
	}

	// Set-up: daemon start, registration and the first cover of each
	// union. The last set-up's daemon serves the run.
	var d *daemonHandle
	var unis [][]*clientUniverse
	setupCPU, err := setupMedian(cfg.scale.setups, func(int) error {
		var err error
		if d, err = startDaemon(); err != nil {
			return err
		}
		unis, err = register(d.base, inputs, oracle)
		return err
	}, func() error { return d.stop() })
	if d != nil {
		defer d.stop()
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	fail := &failures{workload: "serve"}
	total := time.Duration(cfg.seconds * float64(time.Second))
	out := &outcome{metrics: map[string]float64{}, record: map[string]any{"clients": serveClients, "union_k": cfg.scale.unionK}}
	if !cfg.trace {
		p := runClients(d, unis, inputs, oracle, cfg, fail.add, total)
		checks := p.concat(func(c *serveClient) []float64 { return c.checkLat })
		cpuRate, p50s, p90s := p.windows()
		out.metrics["setup_s"] = setupCPU
		out.metrics["throughput_per_s"] = median(cpuRate)
		out.metrics["op_p50_ms"] = median(p50s)
		out.metrics["op_p90_ms"] = median(p90s)
		out.metrics["peak_rss_mib"] = peakRSSMiB()
		out.attempted = int(p.sum(func(c *serveClient) float64 { return float64(c.steps) }))
		out.failed = fail.n
		out.record["checks"] = len(checks)
		out.record["raw_op_p50_ms"] = median(p.concat(func(c *serveClient) []float64 { return c.checkCPU }))
		out.record["calibrate_ms"] = median(p.concat(func(c *serveClient) []float64 { return c.calMs }))
		out.record["edits"] = len(p.concat(func(c *serveClient) []float64 { return c.editLat }))
		out.record["requests"] = p.sum(func(c *serveClient) float64 { return float64(len(c.doneAt)) })
		return out, nil
	}

	// Traced run, part 1: the closed loop as above, with the daemon's own
	// view read from /statusz afterwards.
	mem := readMem()
	p := runClients(d, unis, inputs, oracle, cfg, fail.add, total/2)
	requests := p.sum(func(c *serveClient) float64 { return float64(len(c.doneAt)) })
	out.metrics["daemon.alloc_mb_per_request"], _ = mem.perOp(int(requests))
	var stats daemon.Stats
	if err := call(http.DefaultClient, http.MethodGet, d.base+"/statusz", nil, &stats); err != nil {
		return nil, fmt.Errorf("statusz: %w", err)
	}
	checks := p.concat(func(c *serveClient) []float64 { return c.checkLat })
	ncheck := float64(len(checks))
	// Means, not p50s: the daemon sums its latencies exactly, while its
	// histogram cannot resolve a quantile below its 1 ms lowest bucket.
	clientMean := mean(checks)
	serverMean := stats.Latency["check"].MeanMs
	out.metrics["daemon.server_check_mean_ms"] = serverMean
	out.metrics["daemon.transport_ms"] = clientMean - serverMean
	out.metrics["daemon.edit_p50_ms"] = median(p.concat(func(c *serveClient) []float64 { return c.editLat }))
	out.metrics["daemon.cache_hit_ratio"] = stats.Cache.HitRate
	out.metrics["daemon.shed"] = float64(stats.Admission.Shed)
	out.metrics["propagation.pairs_per_check"] = p.sum(func(c *serveClient) float64 { return float64(c.pairs) }) / ncheck
	out.metrics["propagation.instantiations_per_check"] = p.sum(func(c *serveClient) float64 { return float64(c.insts) }) / ncheck
	hits := p.sum(func(c *serveClient) float64 { return float64(c.hits) })
	out.metrics["propagation.memo_hit_ratio"] = hits / (hits + p.sum(func(c *serveClient) float64 { return float64(c.misses) }))
	carried := p.sum(func(c *serveClient) float64 { return float64(c.carried) })
	out.metrics["propagation.carry_ratio"] = carried / (carried + p.sum(func(c *serveClient) float64 { return float64(c.dropped) }))

	// Part 2: the daemon's layers timed through their public functions.
	var bodies [][]byte
	for _, c := range p.clients {
		bodies = append(bodies, c.bodies...)
	}
	decode, err := timeDecode(bodies)
	if err != nil {
		fail.add(-1, err)
	}
	out.metrics["daemon.decode_ms"] = decode
	// Every client's schedule is replayed at once, so the library runs
	// under the same contention the daemon did.
	r := &replay{}
	replays := make([]*replay, len(inputs))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for c := range inputs {
		replays[c] = &replay{oracle: oracle, fail: fail.add}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = replays[c].run(inputs[c], newSchedule(cfg.seed, c, inputs[c]), p.clients[c].steps, total/2)
		}(c)
	}
	wg.Wait()
	for c, rc := range replays {
		if errs[c] != nil {
			return nil, errs[c]
		}
		r.steps += rc.steps
		r.check = append(r.check, rc.check...)
		r.encode = append(r.encode, rc.encode...)
		r.cover = append(r.cover, rc.cover...)
		r.poolEdit = append(r.poolEdit, rc.poolEdit...)
	}
	out.metrics["propagation.check_ms"] = mean(r.check)
	out.metrics["daemon.encode_ms"] = mean(r.encode)
	out.metrics["core.coversession_ms"] = median(r.cover)
	out.metrics["implication.pool_edit_ms"] = median(r.poolEdit)
	// The layers' per-check total, transport included, minus the
	// client-observed mean.
	out.metrics["trace.overhead_ms"] = decode + mean(r.check) + mean(r.encode) + out.metrics["daemon.transport_ms"] - clientMean
	out.attempted = int(p.sum(func(c *serveClient) float64 { return float64(c.steps) })) + r.steps
	out.failed = fail.n
	out.record["checks"] = len(checks)
	out.record["untraced_check_mean_ms"] = clientMean
	out.record["replayed_steps"] = r.steps
	return out, nil
}

// timeDecode is the mean time of daemon.DecodeCheckRequest over the
// recorded request bodies, repeated until at least 20ms were measured.
func timeDecode(bodies [][]byte) (float64, error) {
	if len(bodies) == 0 {
		return 0, nil
	}
	n := 0
	start := time.Now()
	for time.Since(start) < 20*time.Millisecond {
		for _, b := range bodies {
			if _, err := daemon.DecodeCheckRequest(b); err != nil {
				return 0, fmt.Errorf("decoding a recorded check body: %w", err)
			}
			n++
		}
	}
	return ms(time.Since(start)) / float64(n), nil
}

// replay runs one client's schedule against the library directly, with the
// memo, cover session and implication pool warmed and edited exactly as
// the daemon warms and edits them, and times each layer. Its times are
// wall-clock, like the daemon's latencies they are set against.
type replay struct {
	oracle *serveOracle
	fail   func(int, error)
	steps  int

	check, encode, cover, poolEdit []float64
}

// replayUniverse is the library-side state of one universe.
type replayUniverse struct {
	universeState
	memo      *propagation.Memo
	cs        *core.CoverSession
	pool      *implication.Pool
	prevCover []*cfd.CFD
}

func (r *replay) run(us []*serveUniverse, sched *schedule, steps int, budget time.Duration) error {
	ctx := context.Background()
	rus := make([]*replayUniverse, len(us))
	for i, u := range us {
		ru := &replayUniverse{universeState: universeState{u: u, sigma: u.sigma}, memo: propagation.NewMemo()}
		ru.state = r.oracle.stateOf(&ru.universeState)
		if !u.general {
			// The daemon's first cover: a CoverSession sharing the
			// universe memo, then the pool set to the cover.
			cs, err := core.NewCoverSession(u.db, u.view, core.Options{Parallelism: 1})
			if err != nil {
				return err
			}
			cs.SetMemo(ru.memo)
			res, err := cs.Cover(ctx, u.sigma)
			if err != nil {
				return err
			}
			vs, err := u.view.ViewSchema(u.db)
			if err != nil {
				return err
			}
			ru.cs, ru.pool, ru.prevCover = cs, implication.NewPool(implication.UniverseOf(vs), 4), res.Cover
			if err := ru.pool.SetSigma(res.Cover); err != nil {
				return err
			}
		}
		rus[i] = ru
	}
	defer func() {
		if pool := rus[0].pool; pool != nil {
			pool.Close()
		}
	}()

	start := time.Now()
	for ; r.steps < steps && time.Since(start) < budget; r.steps++ {
		st := sched.next()
		var err error
		if st.edit {
			err = r.editStep(ctx, rus[st.u])
		} else {
			err = r.checkStep(ctx, rus[st.u], st.phis)
		}
		if err != nil {
			r.fail(r.steps, fmt.Errorf("replay: %w", err))
		}
	}
	return nil
}

func (r *replay) checkStep(ctx context.Context, ru *replayUniverse, phis []string) error {
	// The daemon bounds each request by its default 30s deadline.
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	results := make([]*propagation.Result, len(phis))
	start := time.Now()
	for i, phi := range phis {
		res, err := libraryCheck(ru.u, ru.sigma, phi, propagation.Options{Context: ctx, Memo: ru.memo})
		if err != nil {
			return err
		}
		results[i] = res
	}
	r.check = append(r.check, ms(time.Since(start)))

	start = time.Now()
	resp := daemon.CheckResponse{Universe: ru.u.name}
	for i, res := range results {
		resp.Results = append(resp.Results, daemon.ResultOf(phis[i], res, ru.u.db))
	}
	if _, err := json.Marshal(resp); err != nil {
		return err
	}
	r.encode = append(r.encode, ms(time.Since(start)))
	for i, got := range resp.Results {
		if want, ok := r.oracle.answer(&ru.universeState, phis[i]); !ok || !reflect.DeepEqual(stripMemo(got), want) {
			return fmt.Errorf("library check %s on %s differs from the cold answer", phis[i], ru.u.name)
		}
	}
	return nil
}

// editStep applies the next toggle: the memo migrates across the edit and,
// for the union, the cover session recovers and the pool takes the cover
// delta, as in the daemon's PATCH and the /v1/cover that follows it.
func (r *replay) editStep(ctx context.Context, ru *replayUniverse) error {
	add, remove := ru.nextEdit()
	ru.apply(add, remove)
	ru.state = r.oracle.stateOf(&ru.universeState)
	ru.memo, _ = ru.memo.Migrate(ru.u.view, propagation.EditSet{AddedSigma: add, RemovedSigma: remove})
	if ru.cs == nil {
		return nil
	}
	ru.cs.RebaseMemo(ru.memo, ru.sigma)
	start := time.Now()
	res, err := ru.cs.Cover(ctx, ru.sigma)
	if err != nil {
		return err
	}
	r.cover = append(r.cover, ms(time.Since(start)))
	if !reflect.DeepEqual(renderCFDs(res.Cover), r.oracle.covers[coverKey(ru.u, ru.sigma)]) {
		return fmt.Errorf("cover session on %s differs from a cold PropCFDSPCU", ru.u.name)
	}
	if edit := propagation.DiffSigma(ru.prevCover, res.Cover); !edit.Empty() {
		start = time.Now()
		if err := ru.pool.EditSigma(edit.AddedSigma, edit.RemovedSigma); err != nil {
			return err
		}
		r.poolEdit = append(r.poolEdit, ms(time.Since(start)))
	}
	ru.prevCover = res.Cover
	return nil
}
