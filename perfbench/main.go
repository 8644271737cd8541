// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload at a seed, checks every output against an oracle, and
// writes the metrics as one JSON object to the file named by -result.
// The program's own standard output (reports, debug prints) never mixes
// with the metric stream.
//
// Run it through run.py from the repository root, which builds it:
//
//	python3 perfbench/run.py --workload dhfr-512 --seed 1 --seconds 20 --trace 0
//
// With -trace 0 the result holds the end-to-end metrics of an untraced
// run. With -trace 1 the workload runs twice, untraced then traced, and
// the result holds the per-layer metrics of the traced run plus the
// tracing overhead (traced minus untraced body CPU time); the spans are
// written as a chrome://tracing file beside the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what a workload run receives.
type env struct {
	seed    int64
	seconds float64
	tr      *tracer
	ex      *expected
	record  bool
	work    string // scratch directory inside the checkout
	log     io.Writer
}

// outcome is what a workload run measured.
type outcome struct {
	tally tally
	// wrong counts operations whose output disagreed with the oracle (a
	// subset of tally.failed); the result's "correct" is wrong == 0.
	wrong int
	// One entry per set-up repetition and per timed body, in seconds.
	setupCPU, setupWall []float64
	cpu, wall           []float64
	peakRSS             float64   // MB, VmHWM read after the first body
	lat                 []float64 // per-operation latency samples, ms
	layer               map[string]float64
}

func newOutcome() *outcome { return &outcome{layer: map[string]float64{}} }

// stopwatch reads wall-clock and process CPU time together.
type stopwatch struct {
	t0  time.Time
	cpu float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), procCPU()} }

// lap returns the wall and CPU seconds since the start.
func (s stopwatch) lap() (wall, cpu float64) {
	return time.Since(s.t0).Seconds(), procCPU() - s.cpu
}

// procCPU is this process's user plus system CPU time in seconds. The
// kernel does not charge it with time the hypervisor stole.
func procCPU() float64 {
	u, s := procTimes()
	return u + s
}

func procTimes() (user, sys float64) {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano()).Seconds(), time.Duration(ru.Stime.Nano()).Seconds()
}

func (o *outcome) addSetup(sw stopwatch) {
	w, c := sw.lap()
	o.setupWall = append(o.setupWall, w)
	o.setupCPU = append(o.setupCPU, c)
}

func (o *outcome) check(ok bool, reason string) {
	if ok {
		o.tally.op("")
		return
	}
	o.wrong++
	o.tally.op(reason)
}

type workload struct {
	name string
	run  func(e *env) *outcome
}

var workloads = []workload{
	{"dhfr-512", runDHFR},
	{"paper-quick", runPaper},
	{"serve-churn", runServe},
}

// expectedPath is the recorded output oracle, relative to the repository
// root the benchmark runs from.
const expectedPath = "perfbench/expected.json"

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the gated set, every figure a user of the workload sees:
// set-up and body time, peak memory, the share of operations that
// succeeded, and the latency percentiles of those operations.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
}

func main() {
	name := flag.String("workload", "", "workload: dhfr-512, paper-quick or serve-churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measuring time of one run")
	traceOn := flag.Int("trace", 0, "1: traced run with per-layer metrics")
	result := flag.String("result", "", "write the result JSON object here")
	record := flag.Bool("record", false, "record this run's outputs into the oracle instead of checking them")
	work := flag.String("work", ".bench_build/work", "scratch directory")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *result == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need -result and -workload (one of dhfr-512, paper-quick, serve-churn)\n")
		os.Exit(2)
	}
	ex, err := loadExpected(expectedPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	defer os.RemoveAll(*work)
	e := &env{seed: *seed, seconds: *seconds, ex: ex, record: *record, work: *work, log: os.Stdout, tr: newTracer(false)}

	var res map[string]interface{}
	if *traceOn == 0 {
		o := w.run(e)
		res = endToEndResult(w.name, o, e.log)
	} else {
		plain := w.run(e)
		os.RemoveAll(*work)
		os.MkdirAll(*work, 0o755)
		runtime.GC()
		e.tr = newTracer(true)
		traced := w.run(e)
		res = perLayerResult(w.name, plain, traced, e.tr, e.log)
		b, err := chromeTrace(e.tr.snapshot())
		if err == nil {
			path := filepath.Join(filepath.Dir(*result), "trace-"+w.name+".json")
			if err = os.WriteFile(path, b, 0o644); err == nil {
				fmt.Fprintf(e.log, "wrote %s (%d spans)\n", path, len(e.tr.snapshot()))
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace: %v\n", err)
		}
	}
	if *record {
		if err := ex.save(expectedPath); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	b, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(*result, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func resultObject(o *outcome, ms map[string]interface{}) map[string]interface{} {
	return map[string]interface{}{
		"correct":   o.wrong == 0,
		"attempted": o.tally.attempted,
		"failed":    o.tally.failed,
		"metrics":   ms,
	}
}

func metricValue(v float64, unit string) map[string]interface{} {
	return map[string]interface{}{"value": v, "unit": unit}
}

// endToEndValues computes the end-to-end figures of a run.
func endToEndValues(o *outcome) (map[string]float64, tail) {
	lat := summarize(o.lat)
	return map[string]float64{
		"setup_s":     median(o.setupCPU),
		"cpu_s":       median(o.cpu),
		"wall_s":      median(o.wall),
		"peak_rss_mb": o.peakRSS,
		"ok_frac":     o.tally.frac(),
		"p50_ms":      lat.P50,
		"p99_ms":      lat.P99,
	}, lat
}

func endToEndResult(name string, o *outcome, log io.Writer) map[string]interface{} {
	vals, lat := endToEndValues(o)
	fmt.Fprintf(log, "\n%s end-to-end (attempted %d, failed %d %v)\n", name, o.tally.attempted, o.tally.failed, o.tally.reasons)
	ms := map[string]interface{}{}
	for _, m := range endToEnd {
		ms[m.name] = metricValue(vals[m.name], m.unit)
		fmt.Fprintf(log, "  %-13s %14.6f %s\n", m.name, vals[m.name], m.unit)
	}
	fmt.Fprintf(log, "  latency samples n=%d, %d beyond p99 (rule: >=%d, met=%v)\n", lat.N, lat.Beyond, minBeyond, lat.Valid())
	fmt.Fprintf(log, "  set-up cpu %v wall %v; bodies cpu %v wall %v\n", o.setupCPU, o.setupWall, o.cpu, o.wall)
	u, sy := procTimes()
	fmt.Fprintf(log, "  whole process: user %.3f s, system %.3f s\n", u, sy)
	return resultObject(o, ms)
}

func perLayerResult(name string, plain, traced *outcome, tr *tracer, log io.Writer) map[string]interface{} {
	pv, _ := endToEndValues(plain)
	tv, _ := endToEndValues(traced)
	fmt.Fprintf(log, "\n%s tracing overhead: cpu_s traced %.6f - untraced %.6f = %.6f; wall_s traced %.6f - untraced %.6f = %.6f\n",
		name, tv["cpu_s"], pv["cpu_s"], tv["cpu_s"]-pv["cpu_s"], tv["wall_s"], pv["wall_s"], tv["wall_s"]-pv["wall_s"])
	traced.layer["trace.overhead_frac"] = (tv["cpu_s"] - pv["cpu_s"]) / pv["cpu_s"]

	// Self time per span name, the table's attribution column.
	spans := tr.snapshot()
	self := selfTimes(spans)
	type agg struct {
		n          int
		total, own time.Duration
	}
	byName := map[string]*agg{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.total += s.dur()
		a.own += self[s.ID]
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "\n%-32s %8s %14s %14s\n", "span", "count", "total_s", "self_s")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(log, "%-32s %8d %14.6f %14.6f\n", n, a.n, a.total.Seconds(), a.own.Seconds())
	}

	ms := map[string]interface{}{}
	fmt.Fprintf(log, "\n%s per-layer\n", name)
	for _, m := range perLayer {
		v, ok := traced.layer[m.name]
		ms[m.name] = metricValue(v, m.unit)
		if ok {
			fmt.Fprintf(log, "  %-34s %16.6f %s\n", m.name, v, m.unit)
		}
	}
	o := *traced
	o.tally.attempted += plain.tally.attempted
	o.tally.failed += plain.tally.failed
	o.wrong += plain.wrong
	return resultObject(&o, ms)
}

// resetPeakRSS returns freed heap to the kernel and restarts its
// high-water mark of this process's resident set, so that the next
// bodyDone reads the timed body's own peak rather than set-up's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// bodyDone records the kernel's high-water resident set (VmHWM) since
// the last resetPeakRSS.
func (o *outcome) bodyDone() {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			o.peakRSS = max(o.peakRSS, kb/1024)
		}
	}
}

// runtimeCounters samples the Go runtime's allocation and GC counters.
type runtimeCounters struct {
	allocObjects, allocBytes, gcCycles uint64
	gcCPU, totalCPU                    float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// gcLayer records the GC share of CPU and the GC cycle count between two
// samples.
func gcLayer(layer map[string]float64, a, b runtimeCounters) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		layer["gc.cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
	layer["gc.cycles"] = float64(b.gcCycles - a.gcCycles)
}

// timedBodies runs body until the measuring time is used: at least once,
// and again only while another body is expected to finish within it.
// body returns its wall and CPU seconds. Peak memory is the first body's,
// the peak one run of the workload reaches in a fresh process; later
// bodies start on a heap the earlier ones have shaped.
func (o *outcome) timedBodies(seconds float64, body func() (wall, cpu float64)) {
	var used float64
	for len(o.wall) == 0 || used+o.wall[len(o.wall)-1] <= seconds {
		resetPeakRSS()
		w, c := body()
		if len(o.wall) == 0 {
			o.bodyDone()
		}
		o.wall = append(o.wall, w)
		o.cpu = append(o.cpu, c)
		used += w
	}
}
