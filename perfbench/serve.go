package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
	"time"

	"noctest/internal/itc02"
	"noctest/internal/plan"
)

const (
	// serverStarts is how many fresh servers time the set-up; setup_s is
	// their median and the last one serves the timed phase.
	serverStarts = 9
	// coldRounds is how many whole rounds of serve-cold's sequence
	// makespan_cycles, lb_gap and the kernel counts sum over, so they are
	// exact per seed; every run sends at least these requests.
	coldRounds = 4
)

// serverProc is one noctestd process.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	logs    bytes.Buffer // written by exec's copier; read only after exit
	exited  chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return strconv.Itoa(ln.Addr().(*net.TCPAddr).Port), nil
}

// startServer execs noctestd at its defaults on a loopback port and
// waits until /healthz answers.
func startServer(bin string) (*serverProc, error) {
	if bin == "" {
		return nil, errors.New("no noctestd binary given (--noctestd)")
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	sp := &serverProc{base: "http://127.0.0.1:" + port, exited: make(chan struct{})}
	sp.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+port)
	sp.cmd.Stdout, sp.cmd.Stderr = &sp.logs, &sp.logs
	if err := sp.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		sp.waitErr = sp.cmd.Wait()
		close(sp.exited)
	}()
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-sp.exited:
			return nil, fmt.Errorf("noctestd exited before serving: %v: %s", sp.waitErr, sp.logs.String())
		default:
		}
		if resp, err := probe.Get(sp.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sp, nil
			}
		}
		if time.Now().After(deadline) {
			sp.stop()
			return nil, fmt.Errorf("noctestd not ready after 10s: %s", sp.logs.String())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain hangs.
func (sp *serverProc) stop() error {
	sp.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-sp.exited:
	case <-time.After(10 * time.Second):
		sp.cmd.Process.Kill()
		<-sp.exited
		return fmt.Errorf("noctestd did not drain within 10s: %s", sp.logs.String())
	}
	if sp.waitErr != nil {
		return fmt.Errorf("noctestd: %v: %s", sp.waitErr, sp.logs.String())
	}
	return nil
}

// job is one request of a sequence: the point, its id (the index of the
// distinct input it is: its replay and check slot) and its timing slot.
type job struct {
	id, slot int
	p        point
}

// exchange is one request as the client saw it. An OK body lies in the
// loader's spool at off; any other body is kept for the error message.
type exchange struct {
	seq, id, slot     int
	start, first, end time.Time
	status            int
	err               error
	off               int64
	size              int
	body              []byte
}

func (ex exchange) latency() time.Duration { return ex.end.Sub(ex.start) }

// loader is the load generator's HTTP side. With a meter, it ticks the
// meter between requests; with rss, it takes the server's peak resident
// set over each window.
type loader struct {
	http    *http.Client
	base    string
	uploads [][]byte
	buf     bytes.Buffer
	spool   *spool
	meter   *speedMeter
	rss     *windowRSS
}

func newLoader(base string, uploads [][]byte, sp *spool) *loader {
	return &loader{
		http:    &http.Client{Transport: &http.Transport{DisableCompression: true}},
		base:    base,
		uploads: uploads,
		spool:   sp,
	}
}

// spool keeps a run's response bodies in a file until they are checked,
// so thousands of 40 KB bodies neither grow this process's heap nor add
// garbage collection to the timed phase.
type spool struct {
	f   *os.File
	w   *bufio.Writer
	off int64
}

func newSpool(dir string) (*spool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "responses-*")
	if err != nil {
		return nil, err
	}
	return &spool{f: f, w: bufio.NewWriterSize(f, 1<<20)}, nil
}

// put appends b and returns its offset.
func (s *spool) put(b []byte) (int64, error) {
	off := s.off
	n, err := s.w.Write(b)
	s.off += int64(n)
	return off, err
}

// get reads back size bytes at off into buf.
func (s *spool) get(off int64, size int, buf []byte) ([]byte, error) {
	if err := s.w.Flush(); err != nil {
		return nil, err
	}
	buf = slices.Grow(buf[:0], size)[:size]
	_, err := s.f.ReadAt(buf, off)
	return buf, err
}

// remove closes and deletes the spool file.
func (s *spool) remove() error {
	err := s.f.Close()
	if rerr := os.Remove(s.f.Name()); err == nil {
		err = rerr
	}
	return err
}

// post sends one request without retrying and reads the whole response.
// Latency runs from the request being written to the response being
// fully read; first marks the response's first byte.
func (l *loader) post(ctx context.Context, p point) exchange {
	var ex exchange
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+"/schedule?"+p.query(), bytes.NewReader(l.uploads[p.bench()]))
	if err != nil {
		ex.err = err
		return ex
	}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { ex.first = time.Now() },
	}))
	ex.start = time.Now()
	resp, err := l.http.Do(req)
	if err != nil {
		ex.end, ex.err = time.Now(), err
		return ex
	}
	l.buf.Reset()
	_, ex.err = l.buf.ReadFrom(resp.Body)
	ex.end = time.Now()
	resp.Body.Close()
	ex.status, ex.size = resp.StatusCode, l.buf.Len()
	switch {
	case ex.err != nil:
	case ex.status != http.StatusOK:
		ex.body = bytes.Clone(l.buf.Bytes())
	case l.spool != nil:
		ex.off, ex.err = l.spool.put(l.buf.Bytes())
	}
	return ex
}

// load runs the closed loop: the caller sends its next request only
// after reading the previous response. Sequence positions go out in
// order; the caller stops at a whole number of windows once d has passed
// and position minEnd is reached, or when next runs out.
func (l *loader) load(ctx context.Context, next func(int) (job, bool), minEnd, window int, d time.Duration) ([]exchange, time.Duration, error) {
	var out []exchange
	if l.rss != nil {
		if err := l.rss.start(); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; ; i++ {
		if i > 0 && i%window == 0 && l.rss != nil {
			if err := l.rss.next(); err != nil {
				return nil, 0, err
			}
		}
		if i > 0 && i%window == 0 && i >= minEnd && !time.Now().Before(deadline) {
			break
		}
		j, ok := next(i)
		if !ok {
			break
		}
		ex := l.post(ctx, j.p)
		ex.seq, ex.id, ex.slot = i, j.id, j.slot
		out = append(out, ex)
		if l.meter != nil {
			l.meter.tick()
		}
	}
	return out, time.Since(start), nil
}

// statsDoc is the part of noctestd's /stats the guards read.
type statsDoc struct {
	Cache struct {
		Entries   int    `json:"entries"`
		Capacity  int    `json:"capacity"`
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Compiles  uint64 `json:"compiles"`
	} `json:"cache"`
	Pool struct {
		Rejected uint64 `json:"rejected"`
	} `json:"pool"`
	Requests struct {
		Total        uint64 `json:"total"`
		OK           uint64 `json:"ok"`
		ServerErrors uint64 `json:"server_errors"`
	} `json:"requests"`
}

func (l *loader) stats(ctx context.Context) (statsDoc, error) {
	var st statsDoc
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := l.http.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats answered %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// phase is one timed stretch of load with the server's counters around
// it.
type phase struct {
	ex            []exchange
	wall          time.Duration
	before, after statsDoc
}

func (ph phase) delta() (hits, misses, evictions, compiles, rejected, serverErrs, total, ok uint64) {
	b, a := ph.before, ph.after
	return a.Cache.Hits - b.Cache.Hits, a.Cache.Misses - b.Cache.Misses, a.Cache.Evictions - b.Cache.Evictions,
		a.Cache.Compiles - b.Cache.Compiles, a.Pool.Rejected - b.Pool.Rejected, a.Requests.ServerErrors - b.Requests.ServerErrors,
		a.Requests.Total - b.Requests.Total, a.Requests.OK - b.Requests.OK
}

// guard checks that the phase ran in its regime: serve-cold compiles once
// per request and never hits, evicting once the cache is full;
// serve-warm compiles nothing. Neither may see a 429 or a 5xx.
func (ph phase) guard(cold bool) error {
	n := uint64(len(ph.ex))
	hits, misses, evictions, compiles, rejected, serverErrs, total, ok := ph.delta()
	switch {
	case rejected != 0 || serverErrs != 0:
		return fmt.Errorf("guard: %d requests rejected with 429 and %d server errors", rejected, serverErrs)
	case total != n || ok != n:
		return fmt.Errorf("guard: server counted %d requests and %d OK, the client sent %d", total, ok, n)
	}
	if cold {
		full := ph.before.Cache.Entries + int(n) - ph.before.Cache.Capacity
		want := uint64(max(full, 0))
		if compiles != n || misses != n || hits != 0 || evictions != want {
			return fmt.Errorf("guard: serve-cold sent %d requests: %d compiles, %d misses, %d hits, %d evictions (want %d)",
				n, compiles, misses, hits, evictions, want)
		}
		return nil
	}
	if compiles != 0 || misses != 0 || hits != n || evictions != 0 {
		return fmt.Errorf("guard: serve-warm sent %d requests: %d compiles, %d misses, %d hits, %d evictions",
			n, compiles, misses, hits, evictions)
	}
	return nil
}

// timed runs the phase of load between two /stats reads.
func (l *loader) timed(ctx context.Context, next func(int) (job, bool), minEnd, window int, d time.Duration) (phase, error) {
	var ph phase
	var err error
	if ph.before, err = l.stats(ctx); err != nil {
		return ph, err
	}
	if ph.ex, ph.wall, err = l.load(ctx, next, minEnd, window, d); err != nil {
		return ph, err
	}
	ph.after, err = l.stats(ctx)
	return ph, err
}

// scheduleResponse is the part of noctestd's /schedule answer the
// checks read.
type scheduleResponse struct {
	Makespan   int     `json:"makespan"`
	Cache      string  `json:"cache"`
	CompileMs  float64 `json:"compile_ms"`
	ScheduleMs float64 `json:"schedule_ms"`
	Partial    bool    `json:"partial"`
	Strategies []struct {
		Name      string  `json:"name"`
		ElapsedMs float64 `json:"elapsed_ms"`
		Err       string  `json:"err"`
	} `json:"strategies"`
	Plan json.RawMessage `json:"plan"`
}

// served is a checked response with the timings the ladder needs.
type served struct {
	ex         exchange
	compile    time.Duration
	schedule   time.Duration
	strategies []time.Duration
}

// check decodes every response after the timed phase and checks it: a
// 200, a complete plan in the expected cache state, a plan that parses
// and validates with the makespan the response states, and that
// makespan equal to the library's quick race on the same input and at
// least its lower bound. Identical plans are validated once.
func check(ex []exchange, sp *spool, wantCache string, rep []replayed) ([]served, error) {
	out := make([]served, 0, len(ex))
	validated := map[[32]byte]bool{}
	var body []byte
	failed := 0
	var first error
	fail := func(ex exchange, err error) {
		failed++
		if first == nil {
			first = fmt.Errorf("request %d: %w", ex.seq, err)
		}
	}
	for _, e := range ex {
		if e.err != nil {
			fail(e, e.err)
			continue
		}
		if e.status != http.StatusOK {
			fail(e, fmt.Errorf("status %d: %s", e.status, bytes.TrimSpace(e.body)))
			continue
		}
		var err error
		if body, err = sp.get(e.off, e.size, body); err != nil {
			return nil, fmt.Errorf("reading back response %d: %w", e.seq, err)
		}
		var resp scheduleResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			fail(e, fmt.Errorf("decoding the response: %w", err))
			continue
		}
		if err := checkResponse(resp, wantCache, rep[e.id], validated); err != nil {
			fail(e, err)
			continue
		}
		s := served{ex: e,
			compile:  time.Duration(resp.CompileMs * float64(time.Millisecond)),
			schedule: time.Duration(resp.ScheduleMs * float64(time.Millisecond))}
		for _, st := range resp.Strategies {
			s.strategies = append(s.strategies, time.Duration(st.ElapsedMs*float64(time.Millisecond)))
		}
		out = append(out, s)
	}
	if failed > 0 {
		return nil, fmt.Errorf("error_rate %g (%d of %d failed), first: %w", float64(failed)/float64(len(ex)), failed, len(ex), first)
	}
	return out, nil
}

func checkResponse(resp scheduleResponse, wantCache string, rep replayed, validated map[[32]byte]bool) error {
	switch {
	case resp.Partial:
		return errors.New("partial plan")
	case resp.Cache != wantCache:
		return fmt.Errorf("cache %q, the regime needs %q", resp.Cache, wantCache)
	case len(resp.Strategies) != len(quickRules()):
		return fmt.Errorf("%d strategies ran, want the %d quick rules", len(resp.Strategies), len(quickRules()))
	}
	for _, st := range resp.Strategies {
		if st.Err != "" {
			return fmt.Errorf("strategy %s failed: %s", st.Name, st.Err)
		}
	}
	key := sha256.Sum256(resp.Plan)
	if !validated[key] {
		p, err := plan.ParseJSON(bytes.NewReader(resp.Plan))
		if err != nil {
			return err
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("invalid plan: %w", err)
		}
		if p.Makespan() != resp.Makespan {
			return fmt.Errorf("response makespan %d, its plan's %d", resp.Makespan, p.Makespan())
		}
		validated[key] = true
	}
	switch {
	case resp.Makespan != rep.makespan:
		return fmt.Errorf("makespan %d, the library's quick rules give %d for the same input", resp.Makespan, rep.makespan)
	case resp.Makespan < rep.bound:
		return fmt.Errorf("makespan %d below the lower bound %d", resp.Makespan, rep.bound)
	}
	return nil
}

// uploads renders the paper systems as the itc02 text a client uploads.
func uploads() ([][]byte, error) {
	var out [][]byte
	for _, name := range serveBenches {
		b, err := itc02.Benchmark(name)
		if err != nil {
			return nil, err
		}
		s, err := itc02.WriteString(b)
		if err != nil {
			return nil, err
		}
		out = append(out, []byte(s))
	}
	return out, nil
}

// serveSetup starts fresh servers one after another and times each from
// exec to the end of its warm-up traffic, at the reference speed (bursts
// of the meter's units right before and after each start rate the host)
// and as measured; the last one stays up.
func serveSetup(ctx context.Context, cfg config, up [][]byte, warmup []point, sm *speedMeter) (sp *serverProc, l *loader, setups, raw []float64, err error) {
	list := func(i int) (job, bool) {
		if i >= len(warmup) {
			return job{}, false
		}
		return job{id: i, p: warmup[i]}, true
	}
	for i := 0; i < serverStarts; i++ {
		if sp != nil {
			if err := sp.stop(); err != nil {
				return nil, nil, nil, nil, err
			}
			sp = nil
		}
		d, slow, err := sm.around(func() error {
			var err error
			if sp, err = startServer(cfg.noctestd); err != nil {
				return err
			}
			l = newLoader(sp.base, up, nil)
			// Without a window peak to take, load cannot fail.
			ex, _, _ := l.load(ctx, list, len(warmup), 1, 0)
			for _, e := range ex {
				if e.err != nil || e.status != http.StatusOK {
					return fmt.Errorf("warm-up request %d: status %d, %v: %s", e.seq, e.status, e.err, e.body)
				}
			}
			return nil
		})
		if err != nil {
			if sp != nil {
				sp.stop()
			}
			return nil, nil, nil, nil, err
		}
		setups, raw = append(setups, d.Seconds()/slow), append(raw, d.Seconds())
	}
	return sp, l, setups, raw, nil
}

func runServe(ctx context.Context, cfg config, cold bool) (*outcome, error) {
	up, err := uploads()
	if err != nil {
		return nil, err
	}
	ps := newPointSet(cfg.seed)
	// A timing window is one serve-cold round, or four rounds of
	// serve-warm's working set: 224 requests, so every window sends the
	// same points up to their order and failed link, and its p90 has ten
	// beyond it twice over.
	window := ps.coldRound()
	var (
		warmup, inputs []point
		next           func(int) (job, bool)
		minEnd         int
		wantCache      = "hit"
	)
	if cold {
		warmup, minEnd, wantCache = ps.coldWarmup(), coldRounds*window, "miss"
		next = func(i int) (job, bool) { return job{id: i, slot: ps.coldSlot(i), p: ps.cold(i)}, true }
	} else {
		inputs = ps.warmSet()
		warmup = inputs
		next = func(i int) (job, bool) {
			k := ps.warm(i)
			return job{id: k, slot: k, p: inputs[k]}, true
		}
	}

	sm, err := newSpeedMeter()
	if err != nil {
		return nil, err
	}
	sp, l, setups, rawSetups, err := serveSetup(ctx, cfg, up, warmup, sm)
	if err != nil {
		return nil, err
	}
	l.meter, l.rss = sm, &windowRSS{pid: strconv.Itoa(sp.cmd.Process.Pid)}
	if l.spool, err = newSpool(cfg.out); err != nil {
		sp.stop()
		return nil, err
	}
	defer l.spool.remove()
	ph, err := l.timed(ctx, next, minEnd, window, cfg.seconds)
	if err != nil {
		sp.stop()
		return nil, err
	}
	if err := sp.stop(); err != nil {
		return nil, err
	}
	if err := ph.guard(cold); err != nil {
		return nil, err
	}
	fixed := len(inputs)
	if cold {
		for i := range ph.ex {
			inputs = append(inputs, ps.cold(i))
		}
		fixed = minEnd
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep, alloc, err := replay(ctx, inputs, up, cold, tr)
	if err != nil {
		return nil, err
	}
	s, err := check(ph.ex, l.spool, wantCache, rep)
	if err != nil {
		return nil, err
	}
	var sumMs, sumLB float64
	var kernel quickStats
	for _, r := range rep[:fixed] {
		sumMs += float64(r.makespan)
		sumLB += float64(r.bound)
		kernel.add(r)
	}
	name := cfg.workload
	if !cfg.trace {
		iv := make([]timed, len(s))
		for i, x := range s {
			iv[i] = timed{start: x.ex.start, end: x.ex.end, slot: x.ex.slot}
		}
		m, raw, err := timingStats(iv, window, sm)
		if err != nil {
			return nil, err
		}
		m["makespan_cycles"] = sumMs
		m["lb_gap"] = sumMs / sumLB
		m["setup_s"] = median(setups)
		m["peak_rss_mb"] = median(l.rss.peaks)
		p99 := "n/a (fewer than ten samples beyond it)"
		if v, err := quantile(servedLatencies(s), 0.99); err == nil {
			p99 = fmt.Sprintf("%.6f ms", v)
		}
		fmt.Fprintf(cfg.report, "%s seed %d: %d requests in %.2f s, one closed-loop caller, %d distinct inputs\n",
			name, cfg.seed, len(s), ph.wall.Seconds(), len(inputs))
		slots := window
		if !cold {
			slots = len(inputs)
		}
		fmt.Fprintf(cfg.report, "timings: each of %d slots' median over its %d requests, at the reference speed\n", slots, len(s)/slots)
		printRaw(cfg.report, raw)
		fmt.Fprintf(cfg.report, "latency_ms.p99 %s over the run as measured (n=%d)\nsetup_s samples at the reference speed %.4f\nsetup_s samples as measured %.4f\nerror_rate 0 (0 of %d)\n",
			p99, len(s), setups, rawSetups, len(s))
		return &outcome{attempted: len(s), metrics: m}, nil
	}

	n := float64(len(s))
	for _, x := range s {
		root := tr.add("request", x.ex.start, x.ex.end, -1, x.ex.seq)
		mid := x.ex.start.Add(x.compile)
		tr.add("noctestd.compile", x.ex.start, mid, root, x.ex.seq)
		race := tr.add("noctestd.schedule", mid, mid.Add(x.schedule), root, x.ex.seq)
		// A request's race runs its strategies one after another
		// (noctestd gives each request one portfolio worker).
		at := mid
		for _, d := range x.strategies {
			tr.add("core.race.list", at, at.Add(d), race, x.ex.seq)
			at = at.Add(d)
		}
	}
	ly := tr.layers()
	hits, misses, evictions, compiles, rejected, serverErrs, _, _ := ph.delta()
	cpr := float64(compiles) / n
	replays := float64(len(inputs))
	perInput := func(name string) float64 { return ms(ly[name].total) / replays }

	var residual, ttfb, sizes []float64
	for _, x := range s {
		residual = append(residual, ms(x.ex.latency()-x.compile-x.schedule))
		ttfb = append(ttfb, ms(x.ex.first.Sub(x.ex.start)))
		sizes = append(sizes, float64(x.ex.size))
	}
	m := kernelMetrics(kernel.SearchStats, fixed)
	m["core.kernel.ns_per_order"] = ratio(float64(kernel.race.Nanoseconds()), float64(kernel.Orders))
	m["core.compile_ms"] = perInput("core.compile") * cpr
	m["itc02.parse_ms"] = perInput("itc02.parse") * cpr
	m["soc.build_ms"] = perInput("soc.build") * cpr
	m["core.bound_ms"] = perInput("core.bound")
	m["core.race_ms"] = ms(ly["noctestd.schedule"].total) / n
	m["core.race.list_ms"] = ms(ly["core.race.list"].total) / n
	for _, f := range families {
		m["core.race.wins."+f] = float64(kernel.wins[f])
		if f != "list" {
			m["core.race."+f+"_ms"] = 0 // quick search races list rules only
		}
	}
	m["plan.validate_ms"] = perInput("plan.validate")
	m["plan.encode_ms"] = perInput("plan.encode")
	m["plan.json_kb"] = float64(kernel.jsonBytes) / float64(fixed) / 1000
	if m["noctestd.residual_ms.p50"], err = quantile(residual, 0.5); err != nil {
		return nil, err
	}
	if m["http.ttfb_ms.p50"], err = quantile(ttfb, 0.5); err != nil {
		return nil, err
	}
	m["noctestd.response_kb"] = mean(sizes) / 1000
	m["noctestd.cache.hit_rate"] = ratio(float64(hits), float64(hits+misses))
	m["noctestd.cache.evictions_per_request"] = float64(evictions) / n
	m["noctestd.compiles_per_request"] = cpr
	m["noctestd.rejected"] = float64(rejected)
	m["noctestd.server_errors"] = float64(serverErrs)
	meanLat := ms(ly["request"].total) / n
	// Unexplained: request time no leaf layer covers — outside the
	// server's compile and strategy times and the replayed encoding.
	m["unexplained_share"] = ratio(ms(ly["request"].self+ly["noctestd.schedule"].self)/n-m["plan.encode_ms"], meanLat)
	m["go.alloc_mb_per_plan"] = float64(alloc.allocBytes) / 1e6 / replays
	m["go.gc_per_plan"] = float64(alloc.gcs) / replays

	fmt.Fprintf(cfg.report, "%s seed %d traced: %d requests, %d inputs replayed in-process\n", name, cfg.seed, len(s), len(inputs))
	printLayers(cfg.report, ly)
	if err := tr.write(tracePath(cfg)); err != nil {
		return nil, err
	}
	return &outcome{attempted: len(s), metrics: m}, nil
}

func servedLatencies(s []served) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = ms(x.ex.latency())
	}
	return out
}
