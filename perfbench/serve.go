package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"anton/internal/checkpoint"
	"anton/internal/serve"
)

// serve-churn drives an in-process serve.Server with antonserve's
// defaults open loop over loopback. Set-up boots the server, restores a
// checkpoint from a previous server life (a nearly full cache), and warms
// the hot set. The timed mix is mostly hot repeats (cache reads) plus a
// share of fresh fault-injected DES requests drawn from a key space
// larger than the cache, so misses, joins, evictions and re-misses all
// occur.

const (
	serveSetupReps = 3
	// serveRate is the fixed send rate, requests per second, sized so
	// that the DES worker is about a quarter busy.
	serveRate = 240.0
	// serveChurnShare is the share of requests drawn from the churn key
	// space; the rest repeat the hot set.
	serveChurnShare = 0.2
	// serveJoinShare is the share of churn requests sent twice back to
	// back, so the second joins the first's computation.
	serveJoinShare = 0.2
	// servePrefill is the number of churn entries the previous server
	// life leaves in the restored checkpoint.
	servePrefill = 240
	// serveChurnSeeds fault seeds per churn experiment give a key space
	// of len(serveChurnExps)*serveChurnSeeds entries, above the cache's.
	serveChurnSeeds = 160
	// serveLimit is the workload's latency limit; a slower response is a
	// failed operation.
	serveLimit = 500 * time.Millisecond
)

var serveChurnExps = []string{"fig6", "table1", "halfbw", "ablate-allreduce"}

// serveConfig is antonserve's default configuration.
func serveConfig(path string) serve.Config {
	return serve.Config{
		CacheEntries:   256,
		CheckpointPath: path,
		Sched:          serve.SchedConfig{DESWorkers: 1, AnalyticWorkers: 1, QueueDepth: 64, SessionWorkers: 1},
	}
}

// churnRequest is churn key k of the key space.
func churnRequest(k int) serve.Request {
	return serve.Request{
		Experiment: serveChurnExps[k%len(serveChurnExps)], Quick: true,
		Faults: fmt.Sprintf("seed=%d,corrupt=1e-4,retry=250ns", 1000+k/len(serveChurnExps)),
	}
}

// rng is splitmix64 over a seed, the same generator loadgen uses.
type rng struct{ x uint64 }

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// churnSchedule draws the timed mix for a run of n requests, and the
// distinct churn requests the previous server life computed.
func churnSchedule(seed int64, n int) (mix, prefill []serve.Request) {
	r := &rng{x: uint64(seed)}
	space := len(serveChurnExps) * serveChurnSeeds
	seen := map[int]bool{}
	for len(prefill) < servePrefill {
		if k := r.intn(space); !seen[k] {
			seen[k] = true
			prefill = append(prefill, churnRequest(k))
		}
	}
	hot := serve.DefaultMix()
	churned := 0
	for i := 0; len(mix) < n; i++ {
		// Churn requests are evenly spaced, serveChurnShare of the slots.
		if int(float64(i+1)*serveChurnShare) == int(float64(i)*serveChurnShare) {
			mix = append(mix, hot[r.intn(len(hot))])
			continue
		}
		// The churn experiments take turns, so every seed asks for the
		// same amount of each; only the fault seed is drawn.
		exp := churned % len(serveChurnExps)
		churned++
		req := churnRequest(r.intn(serveChurnSeeds)*len(serveChurnExps) + exp)
		mix = append(mix, req)
		if r.float() < serveJoinShare && len(mix) < n {
			mix = append(mix, req)
		}
	}
	return mix, prefill
}

// reply is what the client saw for one request.
type reply struct {
	digest string
	status int
	cache  string
	sum    [32]byte
	err    error
}

// client issues requests to one server on at most conns connections and
// keeps the first body of every digest for verification.
type client struct {
	base   string
	http   *http.Client
	tr     *tracer
	parent int // span the requests are children of
	mu     sync.Mutex
	bodies map[string][]byte
	nextID int64
}

func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: t}, tr: tr, bodies: map[string][]byte{}}
}

func (c *client) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

func (c *client) do(body []byte, digest string) reply {
	c.mu.Lock()
	c.nextID++
	req := c.nextID
	c.mu.Unlock()
	sp := c.tr.begin("loadgen.request", c.parent, req)
	defer c.tr.end(sp, "")
	hr, err := http.NewRequest(http.MethodPost, c.base+"/run", bytes.NewReader(body))
	if err != nil {
		return reply{digest: digest, err: err}
	}
	if sp != 0 {
		hr.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
		hr.Header.Set("X-Bench-Span", strconv.Itoa(sp))
	}
	resp, err := c.http.Do(hr)
	if err != nil {
		return reply{digest: digest, err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{digest: digest, status: resp.StatusCode, cache: resp.Header.Get(serve.CacheHeader), sum: sha256.Sum256(b), err: err}
	if r.status == http.StatusOK {
		c.mu.Lock()
		if _, ok := c.bodies[digest]; !ok {
			c.bodies[digest] = b
		}
		c.mu.Unlock()
	}
	return r
}

// traceHandler wraps the server's handler in a span per request, a child
// of the client's span and sharing its request id, named by the cache
// outcome the handler reported.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		id := tr.begin("serve.handler", parent, req)
		h.ServeHTTP(w, r)
		outcome := w.Header().Get(serve.CacheHeader)
		if outcome == "" {
			outcome = "other"
		}
		tr.end(id, "serve.handler/"+outcome)
	})
}

// liveServer is one running in-process server.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	path string
}

func startServer(path string, tr *tracer) (*liveServer, error) {
	srv := serve.NewStarting(serveConfig(path))
	if err := srv.Restore(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if tr.on {
		h = traceHandler(h, tr)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return &liveServer{srv: srv, hs: hs, base: "http://" + ln.Addr().String() + "/api/v1", path: path}, nil
}

// stop drains the server (persisting its checkpoint once) and closes the
// listener.
func (l *liveServer) stop() {
	l.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	l.hs.Shutdown(ctx)
	cancel()
}

func (l *liveServer) cacheStats() serve.Stats {
	var st struct{ Cache serve.Stats }
	resp, err := http.Get(l.base + "/stats")
	if err == nil {
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
	}
	return st.Cache
}

// encoded is a request body ready to send, with its cache digest.
type encoded struct {
	body   []byte
	digest string
	req    serve.Request
}

func encode(rs []serve.Request) ([]encoded, error) {
	out := make([]encoded, len(rs))
	for i, r := range rs {
		n, err := serve.Normalize(r)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = encoded{body: b, digest: n.Digest(), req: r}
	}
	return out, nil
}

// classify names why one request failed, or returns "" when it succeeded:
// a 200 with correct bytes within the latency limit.
func classify(r reply, bytesOK bool, lat, limit time.Duration) string {
	switch {
	case r.err != nil:
		return "transport-error"
	case r.status == http.StatusServiceUnavailable:
		return "shed-503"
	case r.status == http.StatusGatewayTimeout:
		return "timeout-504"
	case r.status != http.StatusOK:
		return "status-" + strconv.Itoa(r.status)
	case !bytesOK:
		return "wrong-bytes"
	case lat > limit:
		return "over-limit"
	}
	return ""
}

func copyFile(dst, src string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

func runServe(e *env) *outcome {
	o := newOutcome()
	conns := runtime.NumCPU()
	must := func(err error) {
		if err != nil {
			fmt.Fprintf(e.log, "serve-churn: %v\n", err)
			os.Exit(1)
		}
	}
	enc := func(rs []serve.Request) []encoded {
		out, err := encode(rs)
		must(err)
		return out
	}
	mixReqs, preReqs := churnSchedule(e.seed, int(serveRate*e.seconds))
	mix, hot, prefill := enc(mixReqs), enc(serve.DefaultMix()), enc(preReqs)
	all := map[string]serve.Request{}
	for _, set := range [][]encoded{mix, hot, prefill} {
		for _, x := range set {
			all[x.digest] = x.req
		}
	}

	// The previous server life: compute the prefill keys and persist.
	prevDir := filepath.Join(e.work, "prev")
	must(os.MkdirAll(prevDir, 0o755))
	prev, err := startServer(filepath.Join(prevDir, "cache.ckpt"), newTracer(false))
	must(err)
	pc := newClient(prev.base, conns, newTracer(false))
	openLoop(make([]time.Duration, len(prefill)), conns, func(i int) { pc.do(prefill[i].body, prefill[i].digest) })
	pc.close()
	prev.stop()

	// Set-up: boot, restore the previous life's checkpoint, warm the hot
	// set. Every repetition starts from a fresh copy of the checkpoint.
	var cl *client
	var live *liveServer
	var checked []reply
	for k := 0; k < serveSetupReps; k++ {
		if live != nil {
			cl.close()
			live.stop()
		}
		dir := filepath.Join(e.work, "rep"+strconv.Itoa(k))
		must(os.MkdirAll(dir, 0o755))
		path := filepath.Join(dir, "cache.ckpt")
		must(copyFile(path, filepath.Join(prevDir, "cache.ckpt")))
		runtime.GC()
		sw := startWatch()
		root := e.tr.begin("setup", 0, 0)
		live, err = startServer(path, e.tr)
		must(err)
		cl = newClient(live.base, conns, e.tr)
		cl.parent = root
		for _, h := range hot {
			checked = append(checked, cl.do(h.body, h.digest))
		}
		e.tr.end(root, "")
		o.addSetup(sw)
	}

	// The timed body.
	before := live.cacheStats()
	persists0 := live.srv.Persists()
	replies := make([]reply, len(mix))
	resetPeakRSS()
	r0 := readRuntime()
	sw := startWatch()
	root := e.tr.begin("serve.body", 0, 0)
	cl.parent = root
	samples := openLoop(fixedRate(len(mix), serveRate), conns, func(i int) {
		replies[i] = cl.do(mix[i].body, mix[i].digest)
	})
	e.tr.end(root, "")
	w, c := sw.lap()
	o.wall, o.cpu = []float64{w}, []float64{c}
	o.bodyDone()
	r1 := readRuntime()
	after := live.cacheStats()
	persists := live.srv.Persists() - persists0
	cl.close()
	ckptBytes, writeMs := checkpointCost(live.path, e.work)
	live.stop()

	// Verify every distinct body against a fresh harness run.
	good, took := verifyBodies(cl.bodies, all, conns, e)
	ok := func(r reply) bool { g, found := good[r.digest]; return found && g == r.sum }

	// account records one request's outcome in the tally.
	account := func(r reply, lat, limit time.Duration) string {
		why := classify(r, ok(r), lat, limit)
		if why == "wrong-bytes" {
			o.wrong++
		}
		o.tally.op(why)
		return why
	}
	// Warm-up requests are set-up, outside the latency limit: the hot
	// set's analytic calibration alone takes seconds.
	for _, r := range checked {
		account(r, 0, serveLimit)
	}
	var hitLat, missLat, late []float64
	var joins, hits, oks, shed, timeouts int
	missed := map[string]int{}
	for i, r := range replies {
		lat := samples[i].latency()
		late = append(late, ms(samples[i].late()))
		if account(r, lat, serveLimit) == "" {
			oks++
		} else {
			lat = max(lat, serveLimit) // a failed request misses the limit
		}
		o.lat = append(o.lat, ms(lat))
		switch {
		case r.status == http.StatusServiceUnavailable:
			shed++
		case r.status == http.StatusGatewayTimeout:
			timeouts++
		case r.cache == "hit":
			hits++
			hitLat = append(hitLat, ms(lat))
		case r.cache == "join":
			joins++
			missLat = append(missLat, ms(lat))
		case r.cache == "miss":
			missed[r.digest]++
			missLat = append(missLat, ms(lat))
		}
	}
	remiss := 0
	// An estimate of the DES worker's busy time, in ms: each miss costs
	// its digest's fresh compute time, each persist one rewrite of the
	// final snapshot.
	var busy float64
	for d, c := range missed {
		remiss += c - 1
		busy += float64(c) * took[d]
	}
	busy += float64(persists) * writeMs
	busyFrac := busy / 1e3 / o.wall[0]
	ht, mt, lt := summarize(hitLat), summarize(missLat), summarize(late)
	fmt.Fprintf(e.log, "serve-churn: %d requests at %.0f/s on %d connections; hits %d, misses %d (%d distinct, %d re-misses), joins %d; cache evictions %d; persists %d; shed %d, timeouts %d; DES worker busy %.2f (estimate)\n",
		len(mix), serveRate, conns, hits, len(missLat)-joins, len(missed), remiss, joins,
		after.Evictions-before.Evictions, persists, shed, timeouts, busyFrac)
	fmt.Fprintf(e.log, "serve-churn: hit p50 %.3f ms p99 %.3f ms (n=%d); miss p50 %.3f ms p99 %.3f ms (n=%d); generator late p99 %.3f ms\n",
		ht.P50, ht.P99, ht.N, mt.P50, mt.P99, mt.N, lt.P99)

	o.layer["serve.hit_p50_ms"] = ht.P50
	o.layer["serve.hit_p99_ms"] = ht.P99
	o.layer["serve.miss_p50_ms"] = mt.P50
	o.layer["serve.miss_p99_ms"] = mt.P99
	if oks > 0 {
		o.layer["serve.hit_ratio"] = float64(hits) / float64(oks)
	}
	o.layer["serve.join_count"] = float64(joins)
	o.layer["serve.shed_count"] = float64(shed)
	o.layer["serve.timeout_count"] = float64(timeouts)
	o.layer["loadgen.late_p99_ms"] = lt.P99
	o.layer["checkpoint.persists"] = float64(persists)
	o.layer["checkpoint.bytes"] = float64(ckptBytes)
	o.layer["checkpoint.write_ms"] = writeMs
	o.layer["serve.des_busy_frac"] = busyFrac
	for _, exp := range serveChurnExps {
		var xs []float64
		for d, v := range took {
			if all[d].Experiment == exp && all[d].Faults != "" {
				xs = append(xs, v)
			}
		}
		o.layer["harness.miss_compute_ms."+exp] = median(xs)
	}
	gcLayer(o.layer, r0, r1)
	if e.tr.on {
		var hitUs, missMs []float64
		self := selfTimes(e.tr.snapshot())
		for _, s := range e.tr.snapshot() {
			switch s.Name {
			case "serve.handler/hit":
				hitUs = append(hitUs, float64(self[s.ID])/1e3)
			case "serve.handler/miss":
				missMs = append(missMs, ms(self[s.ID]))
			}
		}
		o.layer["serve.handler_hit_us"] = median(hitUs)
		o.layer["serve.handler_miss_ms"] = median(missMs)
	}
	return o
}

// checkpointCost returns the size of the checkpoint at path and the
// median time of rewriting its snapshot with State.WriteFile.
func checkpointCost(path, work string) (int64, float64) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0
	}
	st, err := checkpoint.ReadFile(path)
	if err != nil {
		return fi.Size(), 0
	}
	var ts []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := st.WriteFile(filepath.Join(work, "rewrite.ckpt")); err != nil {
			return fi.Size(), 0
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	return fi.Size(), median(ts)
}

// servedBody is the JSON shape of a 200 response body.
type servedBody struct {
	Experiment string `json:"experiment"`
	Fidelity   string `json:"fidelity"`
	Faults     string `json:"faults"`
	Quick      bool   `json:"quick"`
	Digest     string `json:"digest"`
	SweepUnits int    `json:"sweep_units"`
	Report     string `json:"report"`
}

// verifyBodies checks the first body served for every digest against a
// fresh harness run of the request behind it, and returns the hash of
// each body that matched plus each digest's fresh compute time in
// milliseconds.
func verifyBodies(bodies map[string][]byte, reqs map[string]serve.Request, workers int, e *env) (map[string][32]byte, map[string]float64) {
	digests := make([]string, 0, len(bodies))
	for d := range bodies {
		digests = append(digests, d)
	}
	good := map[string][32]byte{}
	took := map[string]float64{}
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(digests) {
					mu.Unlock()
					return
				}
				d := digests[next]
				next++
				mu.Unlock()
				ok, exp, dur := verifyOne(d, bodies[d], reqs[d], e.tr)
				mu.Lock()
				if ok {
					good[d] = sha256.Sum256(bodies[d])
				} else {
					fmt.Fprintf(e.log, "serve-churn: body of %s (%s) differs from a fresh harness run\n", d, exp)
				}
				took[d] = ms(dur)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return good, took
}

func verifyOne(digest string, body []byte, req serve.Request, tr *tracer) (bool, string, time.Duration) {
	n, err := serve.Normalize(req)
	if err != nil || n.Digest() != digest {
		return false, req.Experiment, 0
	}
	var got servedBody
	if err := json.Unmarshal(body, &got); err != nil {
		return false, req.Experiment, 0
	}
	sess := n.Session(1, nil)
	t0 := time.Now()
	id := tr.begin("harness.fresh/"+n.Experiment.ID, 0, 0)
	report := n.Experiment.RunWith(sess, n.Quick)
	tr.end(id, "")
	d := time.Since(t0)
	ok := got.Report == report && got.Digest == digest && got.Experiment == n.Experiment.ID &&
		got.Fidelity == n.Fidelity && got.Faults == n.Faults && got.Quick == n.Quick &&
		got.SweepUnits == sess.Completed()
	return ok, n.Experiment.ID, d
}
