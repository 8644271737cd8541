package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	"anton/internal/serve"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n        int
		p50, p99 float64
		beyond   int
		valid    bool
	}{
		{1000, 500, 990, 10, true},
		{999, 500, 990, 9, false},
		{1100, 550, 1089, 11, true},
		{4, 2, 4, 0, false},
		{1, 1, 1, 0, false},
	} {
		// Shuffle order must not matter.
		xs := seq(c.n)
		for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
		s := summarize(xs)
		if s.N != c.n || s.P50 != c.p50 || s.P99 != c.p99 || s.Beyond != c.beyond || s.Valid() != c.valid {
			t.Errorf("n=%d: got %+v valid=%v, want p50 %v p99 %v beyond %d valid %v",
				c.n, s, s.Valid(), c.p50, c.p99, c.beyond, c.valid)
		}
		if xs[0] != float64(c.n) {
			t.Errorf("summarize reordered its input")
		}
	}
	if v := median([]float64{3, 1, 2}); v != 2 {
		t.Errorf("median = %v, want 2", v)
	}
}

func TestSampleLatencyFromDueTime(t *testing.T) {
	s := sample{due: 10 * time.Millisecond, sent: 12 * time.Millisecond, done: 15 * time.Millisecond}
	if s.latency() != 5*time.Millisecond {
		t.Errorf("latency = %v, want 5ms (done - due, not done - sent)", s.latency())
	}
	if s.late() != 2*time.Millisecond {
		t.Errorf("late = %v, want 2ms", s.late())
	}
}

// A stall on the only connection must charge its wait to every request
// that fell due behind it, while the generator keeps to its schedule.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	dues := fixedRate(20, 1000) // one request per millisecond
	out := openLoop(dues, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	for i, s := range out {
		if s.due != dues[i] {
			t.Fatalf("request %d: due %v, want %v", i, s.due, dues[i])
		}
		if min := stall - s.due; s.latency() < min {
			t.Errorf("request %d: latency %v, want >= %v (it waited behind the stall)", i, s.latency(), min)
		}
		if s.late() > 20*time.Millisecond {
			t.Errorf("request %d: generator %v late; it must not wait for a free connection", i, s.late())
		}
	}
}

func TestFixedRate(t *testing.T) {
	got := fixedRate(3, 200)
	want := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fixedRate = %v, want %v", got, want)
	}
}

func TestOkFracAccounting(t *testing.T) {
	limit := time.Second
	ok := reply{status: http.StatusOK}
	for _, c := range []struct {
		name    string
		r       reply
		bytesOK bool
		lat     time.Duration
		want    string
	}{
		{"ok", ok, true, limit, ""},
		{"shed", reply{status: http.StatusServiceUnavailable}, true, 0, "shed-503"},
		{"timeout", reply{status: http.StatusGatewayTimeout}, true, 0, "timeout-504"},
		{"server error", reply{status: http.StatusInternalServerError}, true, 0, "status-500"},
		{"wrong bytes", ok, false, 0, "wrong-bytes"},
		{"over limit", ok, true, limit + 1, "over-limit"},
		{"transport", reply{err: errors.New("reset")}, true, 0, "transport-error"},
	} {
		if got := classify(c.r, c.bytesOK, c.lat, limit); got != c.want {
			t.Errorf("%s: classify = %q, want %q", c.name, got, c.want)
		}
	}

	var tl tally
	for _, why := range []string{"", "", "shed-503", "timeout-504", "wrong-bytes", "over-limit", ""} {
		tl.op(why)
	}
	if tl.attempted != 7 || tl.failed != 4 {
		t.Errorf("tally attempted %d failed %d, want 7 and 4", tl.attempted, tl.failed)
	}
	if got, want := tl.frac(), 3.0/7; got != want {
		t.Errorf("ok_frac = %v, want %v", got, want)
	}
	var o outcome
	o.check(true, "")
	o.check(false, "oracle-mismatch")
	if o.tally.frac() != 0.5 || o.wrong != 1 {
		t.Errorf("an oracle mismatch must count as a failed, wrong operation: frac %v wrong %d", o.tally.frac(), o.wrong)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "body", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10,50]; a third covers [60,70].
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "c", Start: 60 * ms, End: 70 * ms},
		// A grandchild is subtracted from its parent only.
		{ID: 5, Parent: 2, Name: "a1", Start: 15 * ms, End: 25 * ms},
		// A child running past its parent's end is clipped.
		{ID: 6, Name: "req", Start: 200 * ms, End: 210 * ms},
		{ID: 7, Parent: 6, Name: "handler", Start: 205 * ms, End: 230 * ms},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 10 * ms, 5: 10 * ms, 6: 5 * ms, 7: 25 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("x", 0, 0)
	tr.end(id, "y")
	if id != 0 || len(tr.snapshot()) != 0 {
		t.Errorf("a disabled tracer recorded a span")
	}
	tr = newTracer(true)
	p := tr.begin("parent", 0, 7)
	c := tr.begin("child", p, 7)
	tr.end(c, "child/hit")
	tr.end(p, "")
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != p || s[1].Req != 7 || s[1].Name != "child/hit" {
		t.Errorf("spans = %+v", s)
	}
	if _, err := chromeTrace(s); err != nil {
		t.Error(err)
	}
}

func TestChurnSchedule(t *testing.T) {
	a, pa := churnSchedule(5, 500)
	b, pb := churnSchedule(5, 500)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(pa, pb) {
		t.Fatal("the same seed drew different inputs")
	}
	c, _ := churnSchedule(6, 500)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same mix")
	}
	if len(a) != 500 || len(pa) != servePrefill {
		t.Errorf("mix %d, prefill %d", len(a), len(pa))
	}
	seen := map[serve.Request]bool{}
	for _, r := range pa {
		if seen[r] {
			t.Errorf("prefill request %+v drawn twice", r)
		}
		seen[r] = true
	}
	if space := len(serveChurnExps) * serveChurnSeeds; space <= serveConfig("").CacheEntries {
		t.Errorf("churn key space %d must exceed the cache", space)
	}
	if _, err := encode(a); err != nil {
		t.Error(err)
	}
}

// The metric names this program reports must be the ones BENCHMARK.json
// declares, and the per-experiment metrics must cover paper-quick's runs.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %v, BENCHMARK.json %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)

	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.name] = true
	}
	for _, r := range paperRuns() {
		if !declared["harness."+r.name+"_s"] {
			t.Errorf("paper-quick runs %s but no harness.%s_s metric is declared", r.name, r.name)
		}
	}
}
