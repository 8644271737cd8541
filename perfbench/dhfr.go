package main

import (
	"fmt"
	"runtime"
	"time"

	"anton/internal/harness"
	"anton/internal/machine"
	"anton/internal/mdmap"
	"anton/internal/sim"
)

// dhfr-512 runs the paper's production step the way users run it: DHFR
// mapped by mdmap.New onto machine.Default512 through a harness session
// with one worker per CPU, then the fixed sequence range-limited,
// long-range, range-limited, long-range with migration.

const (
	dhfrSetupReps = 5
	dhfrSteps     = 4
	// dhfrMigrationInterval puts the one migration on the fourth step.
	dhfrMigrationInterval = 4
)

// dhfrChemSeed maps the benchmark seed onto a recorded chemistry seed:
// odd seeds (the default, 1) run the paper's configuration, chemistry
// seed 1; even seeds run the held-out chemistry seed 2.
func dhfrChemSeed(seed int64) int64 {
	if seed%2 == 0 {
		return 2
	}
	return 1
}

func runDHFR(e *env) *outcome {
	o := newOutcome()
	workers := runtime.NumCPU()
	sess := &harness.Session{Workers: workers}
	cfg := mdmap.DefaultConfig()
	cfg.Seed = dhfrChemSeed(e.seed)
	cfg.MigrationInterval = dhfrMigrationInterval
	cfg.Workers = workers

	var builds, news []float64
	var s *sim.Sim
	var m *machine.Machine
	var mp *mdmap.Mapping
	setup := func() {
		s, m, mp = nil, nil, nil
		runtime.GC()
		sw := startWatch()
		t0 := sw.t0
		root := e.tr.begin("setup", 0, 0)
		id := e.tr.begin("machine.Default512", root, 0)
		s = sess.NewSim()
		m = machine.Default512(s)
		e.tr.end(id, "")
		t1 := time.Now()
		id = e.tr.begin("mdmap.New", root, 0)
		mp = mdmap.New(s, m, cfg)
		e.tr.end(id, "")
		t2 := time.Now()
		e.tr.end(root, "")
		builds = append(builds, t1.Sub(t0).Seconds())
		news = append(news, t2.Sub(t1).Seconds())
		o.addSetup(sw)
	}
	for k := 0; k < dhfrSetupReps; k++ {
		setup()
	}

	var recs []stepRecord
	var steps []float64 // host seconds per step of the first body
	fresh := true
	o.timedBodies(e.seconds, func() (float64, float64) {
		if !fresh {
			setup()
			runtime.GC()
		}
		fresh = false
		var rec []stepRecord
		var walls []float64
		r0 := readRuntime()
		sw := startWatch()
		t0 := sw.t0
		root := e.tr.begin("dhfr.body", 0, 0)
		for i := 0; i < dhfrSteps; i++ {
			ts := time.Now()
			id := e.tr.begin("mdmap.RunStep", root, 0)
			st := mp.RunStep()
			d := time.Since(ts)
			name := "mdmap.RunStep/" + st.Kind.String()
			if st.Migr > 0 {
				name += "+migration"
			}
			e.tr.end(id, name)
			walls = append(walls, d.Seconds())
			// Every step is due when the body starts; its latency is the
			// time until its result.
			o.lat = append(o.lat, ms(time.Since(t0)))
			stats := m.Stats()
			rec = append(rec, stepRecord{
				Kind: name, TotalPs: int64(st.Total), ComputePs: int64(st.Compute), CommPs: int64(st.Comm),
				FFTPs: int64(st.FFT), ThermoPs: int64(st.Thermo), MigrPs: int64(st.Migr),
				Events: s.Fired(), Packets: int64(stats.Sent),
			})
		}
		e.tr.end(root, "")
		w, c := sw.lap()
		r1 := readRuntime()
		if recs != nil {
			// A later body must repeat the first exactly.
			for i := range rec {
				o.check(rec[i] == recs[i], "repeat-mismatch")
			}
			return w, c
		}
		recs, steps = rec, walls
		st := m.Stats()
		ev := float64(s.Fired())
		o.layer["sim.events"] = ev
		o.layer["sim.exec_windows"] = float64(s.ExecWindows())
		o.layer["sim.ns_per_event"] = w * 1e9 / ev
		o.layer["sim.allocs_per_event"] = float64(r1.allocObjects-r0.allocObjects) / ev
		o.layer["sim.bytes_per_event"] = float64(r1.allocBytes-r0.allocBytes) / ev
		o.layer["machine.packets"] = float64(st.Sent)
		o.layer["machine.bytes"] = float64(st.SentBytes)
		gcLayer(o.layer, r0, r1)
		return w, c
	})
	s, m, mp = nil, nil, nil

	o.layer["machine.build_s"] = median(builds)
	o.layer["mdmap.new_s"] = median(news)
	o.layer["mdmap.step_rl_s"] = (steps[0] + steps[2]) / 2
	o.layer["mdmap.step_lr_s"] = (steps[1] + steps[3]) / 2
	o.layer["mdmap.step_lr_first_s"] = steps[1]
	o.layer["mdmap.step_mig_s"] = steps[3]

	key := dhfrKey(cfg.Seed)
	if e.record {
		e.ex.DHFR[key] = recs
	}
	want := e.ex.DHFR[key]
	for i, r := range recs {
		ok := i < len(want) && want[i] == r
		if !ok {
			fmt.Fprintf(e.log, "dhfr-512: step %d differs from the oracle for chemistry seed %s:\n  got  %+v\n", i+1, key, r)
			if i < len(want) {
				fmt.Fprintf(e.log, "  want %+v\n", want[i])
			}
		}
		o.check(ok, "oracle-mismatch")
	}
	fmt.Fprintf(e.log, "dhfr-512: chemistry seed %s, %d events, %d packets, steps %v s\n",
		key, recs[len(recs)-1].Events, recs[len(recs)-1].Packets, steps)
	return o
}
