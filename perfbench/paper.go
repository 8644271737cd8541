package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"anton/internal/harness"
)

// paper-quick regenerates the paper the way antonbench -quick does: every
// registered experiment, with one session worker per CPU, plus fastpath
// at analytic fidelity. Excluded: fig12 (runs out of memory on an 8 GB
// host), fig11 (a minute on its own), and table3, scaling and fig13,
// which repeat dhfr-512's 512-node mapping path.
var paperExcluded = map[string]bool{
	"fig11": true, "fig12": true, "table3": true, "scaling": true, "fig13": true,
}

// Set-up only loads the goldens, about 30 µs: too short to time alone,
// so one timed repetition is paperSetupLoads loads, and setup_s is the
// median of the repetitions' per-load cost.
const (
	paperSetupReps  = 9
	paperSetupLoads = 200
)

// paperGoldens are the antonbench goldens recorded at -quick; each report
// of the same name must equal its golden byte for byte.
var paperGoldens = []string{"fastpath", "fastpath-analytic", "killsweep"}

// paperRun is one report of the workload.
type paperRun struct {
	name     string // experiment id, with -analytic for the analytic tier
	id       string
	fidelity string
}

func paperRuns() []paperRun {
	var out []paperRun
	for _, e := range harness.Experiments() {
		if !paperExcluded[e.ID] {
			out = append(out, paperRun{e.ID, e.ID, harness.FidelityDES})
		}
	}
	return append(out, paperRun{"fastpath-analytic", "fastpath", harness.FidelityAnalytic})
}

func runPaper(e *env) *outcome {
	o := newOutcome()
	workers := runtime.NumCPU()
	runs := paperRuns()
	goldens := map[string][]byte{}
	report := func(r paperRun, parent int) (string, time.Duration) {
		e2, ok := harness.Lookup(r.id)
		if !ok {
			return "", 0
		}
		sess := &harness.Session{Workers: workers, Fidelity: r.fidelity}
		t0 := time.Now()
		id := e.tr.begin("harness."+r.name, parent, 0)
		rep := e2.RunWith(sess, true)
		e.tr.end(id, "")
		return rep, time.Since(t0)
	}
	check := func(name, rep string) {
		sum := sha256.Sum256([]byte(rep))
		got := hex.EncodeToString(sum[:])
		if e.record {
			e.ex.Paper[name] = got
		}
		if want := e.ex.Paper[name]; got != want {
			fmt.Fprintf(e.log, "paper-quick: %s report sha256 %s, oracle %s\n", name, got, want)
			o.check(false, "oracle-mismatch")
			return
		}
		if slices.Contains(paperGoldens, name) {
			g, ok := goldens[name]
			if !ok {
				fmt.Fprintf(e.log, "paper-quick: no antonbench golden for %s\n", name)
				o.check(false, "golden-missing")
				return
			}
			if !bytes.Equal(g, []byte(rep)) {
				fmt.Fprintf(e.log, "paper-quick: %s report differs from its antonbench golden\n", name)
				o.check(false, "golden-mismatch")
				return
			}
		}
		o.check(true, "")
	}

	// Set-up: load the goldens the reports are compared with.
	loadGoldens := func() {
		clear(goldens)
		for _, n := range paperGoldens {
			b, err := os.ReadFile(filepath.Join("cmd", "antonbench", "testdata", n+".golden"))
			if err != nil {
				continue // the report's check counts it as failed
			}
			goldens[n] = b
		}
	}
	for k := 0; k < paperSetupReps; k++ {
		runtime.GC()
		sw := startWatch()
		root := e.tr.begin("setup", 0, 0)
		for j := 0; j < paperSetupLoads; j++ {
			loadGoldens()
		}
		e.tr.end(root, "")
		w, c := sw.lap()
		o.setupWall = append(o.setupWall, w/paperSetupLoads)
		o.setupCPU = append(o.setupCPU, c/paperSetupLoads)
	}

	var per map[string]float64
	o.timedBodies(e.seconds, func() (float64, float64) {
		reports := make([]string, len(runs))
		took := map[string]float64{}
		r0 := readRuntime()
		sw := startWatch()
		t0 := sw.t0
		root := e.tr.begin("paper.body", 0, 0)
		for i, r := range runs {
			rep, d := report(r, root)
			reports[i] = rep
			took[r.name] = d.Seconds()
			// Every report is due when the body starts; its latency is
			// the time until it is ready.
			o.lat = append(o.lat, ms(time.Since(t0)))
		}
		e.tr.end(root, "")
		w, c := sw.lap()
		r1 := readRuntime()
		if per == nil {
			per = took
			gcLayer(o.layer, r0, r1)
		}
		for i, r := range runs {
			check(r.name, reports[i])
		}
		return w, c
	})
	for name, v := range per {
		o.layer["harness."+name+"_s"] = v
	}
	o.layer["analytic.ns_per_query"] = analyticNsPerQuery(e)
	return o
}

// analyticNsPerQuery times the analytic tier's closed-form query batches
// (the BENCH_analytic workloads) for about a tenth of a second each and
// returns host nanoseconds per query.
func analyticNsPerQuery(e *env) float64 {
	id := e.tr.begin("analytic.queries", 0, 0)
	defer e.tr.end(id, "")
	var queries int
	var total time.Duration
	for _, b := range harness.AnalyticBenchmarks() {
		t0 := time.Now()
		for time.Since(t0) < 100*time.Millisecond {
			b.Run()
			queries += b.Queries
		}
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / float64(queries)
}
