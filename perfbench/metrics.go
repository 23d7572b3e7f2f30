package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ssdkeeper/internal/experiments"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/ssd"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units (TestBenchmarkJSONMatches keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd metrics are measured on untraced runs and reported by every
// workload; they are the ones a change is gated on. A "unit of work" is a
// trace record (replay) or a request (fleet-wire, fleet-http). Throughput
// and RTT discount the CPU time the hypervisor stole from the VM (README.md,
// Noise).
var endToEnd = []metricDef{
	{"setup_s", "s"},          // wall time of one set-up (train, season, boot, dial, warm up), median of five
	{"throughput_rps", "1/s"}, // units of work completed per second
	{"rtt_p50_ms", "ms"},      // median client wall time of a request; replay: of one mix's keeper.RunContext
	{"sim_latency_us", "us"},  // modelled total latency: read mean + write mean (Fig. 5(c))
	{"rss_peak_mb", "MiB"},    // process resident-set high-water mark after set-up
}

// perLayer metrics come from the traced run (plus process counters of the
// untraced one). A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.host_ns_per_event", "ns"},
	{"ssd.bus_busy_frac", "ratio"},
	{"ssd.die_busy_frac", "ratio"},
	{"ssd.conflict_wait_us_per_req", "us"},
	{"ftl.gc_runs", "count"},
	{"ftl.write_amp", "ratio"},
	{"ftl.cmt_hit_ratio", "ratio"},
	{"keeper.epochs", "count"},
	{"keeper.switches", "count"},
	{"policy.decide_calls", "count"},
	{"policy.decide_us", "us"},
	{"simrun.session_ms", "ms"},
	{"dataset.label_s", "s"},
	{"nn.train_s", "s"},
	{"serve.residency_us_p50", "us"},
	{"serve.residency_us_p99", "us"},
	{"serve.overhead_us_p50", "us"},
	{"serve.completed", "count"},
	{"serve.rejects.queue_full", "count"},
	{"serve.rejects.migrating", "count"},
	{"serve.rejects.draining", "count"},
	{"serve.rejects.other", "count"},
	{"wire.front_us_p50", "us"},
	{"fleet.self_us_p50", "us"},
	{"fleet.handler_us_p50", "us"},
	{"fleet.migrate_ms", "ms"},
	{"fleet.gate_waits", "count"},
	{"http.front_us_p50", "us"},
	{"go.allocs_per_req", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"proc.cpu_us_per_req", "us"},
	{"host.timer_floor_us", "us"},
	{"traced.throughput_rps", "1/s"},
	{"traced.rtt_p50_ms", "ms"},
	{"trace.throughput_delta_frac", "ratio"},
	{"trace.rtt_p50_delta_ms", "ms"},
}

// Metrics the report prints by name but the result line does not carry: the
// modelled read tail (under paced serving it depends on how arrivals meet
// garbage collection, which shifts with timing) and the ones that exist on
// only some workloads.
var reportOnly = []metricDef{
	{"sim_read_p99_us", "us"},
	{"rtt_p99_ms", "ms"},
	{"overhead_p50_ms", "ms"},
	{"overhead_p99_ms", "ms"},
	{"error_rate", "ratio"},
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer, reportOnly} {
		for _, d := range set {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undefined metric " + name)
}

// setupRuns is how many times each run sets up; setup_s is their median.
const setupRuns = 5

// timeSetups runs set-up setupRuns times and reports the median wall time
// of one set-up as setup_s. do is told whether this is the last set-up, the
// one the run keeps. A collection before each set-up (untimed) keeps one
// set-up's garbage from inflating the next one's time and the memory
// high-water mark.
func timeSetups(o *outcome, do func(last bool) error) error {
	d := make([]float64, setupRuns)
	for i := range d {
		runtime.GC()
		t0 := time.Now()
		if err := do(i == setupRuns-1); err != nil {
			return err
		}
		d[i] = time.Since(t0).Seconds()
	}
	o.set("setup_s", median(d), fmt.Sprintf("median of %d", setupRuns))
	return nil
}

func runWorkload(ctx context.Context, w string, seed int64, seconds int, traced bool, host hostEnv) (outcome, error) {
	o := outcome{correct: true, metrics: map[string]metricValue{}}
	env := experiments.NewEnv()
	var labelS, trainS []float64
	train := func() (model, error) {
		m, err := trainModel(ctx, env, seed)
		labelS, trainS = append(labelS, m.labelS), append(trainS, m.trainS)
		return m, err
	}
	var err error
	if w == "replay" {
		err = runReplay(ctx, &o, env, seed, seconds, traced, train)
	} else {
		err = runServing(ctx, &o, env, seed, seconds, traced, w == "fleet-http", train)
	}
	if err != nil {
		return o, err
	}
	if o.attempted < 1 {
		o.fail("no work was attempted")
	}
	if traced {
		o.set("dataset.label_s", median(labelS), "")
		o.set("nn.train_s", median(trainS), "")
		o.set("host.timer_floor_us", host.TimerFloorUS, "")
		// Layers this workload does not exercise report zero.
		for _, d := range perLayer {
			if _, ok := o.metrics[d.name]; !ok {
				o.metrics[d.name] = metricValue{Value: 0, Unit: d.unit}
			}
		}
		for _, d := range endToEnd {
			delete(o.metrics, d.name)
		}
	}
	return o, nil
}

func runReplay(ctx context.Context, o *outcome, env experiments.Env, seed int64, seconds int, traced bool, train func() (model, error)) error {
	var rig *replayRig
	err := timeSetups(o, func(bool) error {
		m, err := train()
		if err != nil {
			return err
		}
		rig, err = setupReplay(ctx, env, m, seed)
		return err
	})
	if err != nil {
		return err
	}
	setupRSS(o)
	want, recorded, err := replayGolden(seed)
	if err != nil {
		return err
	}
	run, err := measureReplay(ctx, rig, seconds, want)
	if err != nil {
		return err
	}
	for _, m := range run.mismatch {
		o.fail("%s", m)
	}
	o.attempted = rig.records() * int64(run.passes)
	o.set("throughput_rps", run.throughput(), fmt.Sprintf("records per second, median of %d passes, %.0f ms stolen CPU excluded", run.passes, run.stolenMS))
	o.set("rtt_p50_ms", run.callP50MS(), fmt.Sprintf("mean over the mixes of each one's median replay call, stolen CPU excluded, %d calls per mix", run.passes))
	o.set("sim_latency_us", run.simLatencyUS(), "exact")
	o.note("sim_read_p99_us", run.simReadP99US(), "us", "exact")
	if recorded {
		o.report = append(o.report, "replay statistics match the values recorded for this seed")
	} else {
		o.report = append(o.report, "no recorded replay statistics for this seed; checked repetitions against the first pass")
	}
	if !traced {
		return nil
	}

	tr, err := traceReplay(ctx, rig, seconds, run.stats)
	if err != nil {
		return err
	}
	for _, m := range tr.run.mismatch {
		o.fail("traced replay diverged from untraced: %s", m)
	}
	events := float64(tr.events)
	o.set("sim.events", events, "per pass")
	o.set("sim.host_ns_per_event", 1e9*float64(rig.records())/run.throughput()/events, "untraced pass time / events")
	deviceLayers(o, tr.res)
	if n := tr.cmtHits + tr.cmtMisses; n > 0 {
		o.set("ftl.cmt_hit_ratio", float64(tr.cmtHits)/float64(n), "")
	}
	var epochs, switches int
	for _, s := range run.stats {
		epochs += s.Epochs
		switches += s.Switches
	}
	o.set("keeper.epochs", float64(epochs), "per pass")
	o.set("keeper.switches", float64(switches), "strategy changes per pass")
	policyLayer(o, tr.policy, int64(tr.run.passes))
	o.set("simrun.session_ms", median(tr.sessionMS), "median NewSession")
	processLayer(o, run.proc)
	tracedDelta(o, run.throughput(), tr.run.throughput(), run.callP50MS(), tr.run.callP50MS())
	return nil
}

// setupRSS reports the memory high-water mark of the set-ups, read before
// the measured phase: from then on a node's dispatched-record log grows with
// every request served, so a whole-run peak would rise with throughput and
// charge a faster commit with a memory regression.
func setupRSS(o *outcome) {
	o.set("rss_peak_mb", peakRSSMiB(), "VmHWM after set-up")
}

// deviceLayers reports the nand/ssd and ftl metrics of a set of device
// results: busy time over each resource's makespan, conflict wait per
// request, and FTL work.
func deviceLayers(o *outcome, rs []ssd.Result) {
	var busBusy, busSpan, dieBusy, dieSpan, wait sim.Time
	var reqs int
	var writes, moved, gcRuns uint64
	for _, r := range rs {
		for _, s := range r.BusStats {
			busBusy += s.BusyTime
			busSpan += r.Makespan
		}
		for _, s := range r.DieStats {
			dieBusy += s.BusyTime
			dieSpan += r.Makespan
		}
		wait += r.ConflictWait
		reqs += r.Requests
		writes += r.FTL.Writes
		moved += r.FTL.GCMovedPages + r.FTL.WLMovedPages
		gcRuns += r.FTL.GCRuns
	}
	if busSpan > 0 {
		o.set("ssd.bus_busy_frac", float64(busBusy)/float64(busSpan), "")
	}
	if dieSpan > 0 {
		o.set("ssd.die_busy_frac", float64(dieBusy)/float64(dieSpan), "")
	}
	if reqs > 0 {
		o.set("ssd.conflict_wait_us_per_req", float64(wait)/1e3/float64(reqs), "")
	}
	o.set("ftl.gc_runs", float64(gcRuns), "")
	if writes > 0 {
		o.set("ftl.write_amp", float64(writes+moved)/float64(writes), "")
	}
}

func policyLayer(o *outcome, st *policyStats, per int64) {
	calls := st.calls.Load()
	o.set("policy.decide_calls", float64(calls/per), "")
	if calls > 0 {
		o.set("policy.decide_us", float64(st.ns.Load())/1e3/float64(calls), "mean")
	}
}

func processLayer(o *outcome, p procDelta) {
	o.set("go.allocs_per_req", p.allocsPerReq, "untraced run")
	o.set("go.gc_cpu_frac", p.gcCPUFrac, "share of GOMAXPROCS CPU, untraced run")
	o.set("proc.cpu_us_per_req", p.cpuUSPerReq, "user+sys, untraced run")
}

// tracedDelta reports the traced run's own end-to-end numbers and their
// difference from the untraced run's: the cost of tracing.
func tracedDelta(o *outcome, tput, tracedTput, rttMS, tracedRTTMS float64) {
	o.set("traced.throughput_rps", tracedTput, "")
	o.set("traced.rtt_p50_ms", tracedRTTMS, "")
	o.set("trace.throughput_delta_frac", (tracedTput-tput)/tput, "traced minus untraced, over untraced")
	o.set("trace.rtt_p50_delta_ms", tracedRTTMS-rttMS, "traced minus untraced")
}

func runServing(ctx context.Context, o *outcome, env experiments.Env, seed int64, seconds int, traced, httpFront bool, train func() (model, error)) error {
	var r *rig
	var m model
	err := timeSetups(o, func(last bool) error {
		var err error
		if m, err = train(); err != nil {
			return err
		}
		if r, err = bootRig(ctx, env, m, seed, httpFront, seconds, nil); err != nil {
			return err
		}
		if !last {
			o.checksFrom(r.accounting(), "warm-up")
			r.close()
		}
		return nil
	})
	if err != nil {
		return err
	}
	setupRSS(o)
	run, err := r.measure(ctx, seconds)
	r.close()
	if err != nil {
		return err
	}
	o.checksFrom(run.checks, "")
	o.attempted, o.failed = run.attempted, run.failed
	if httpFront {
		o.set("throughput_rps", run.throughput, fmt.Sprintf("requests per second, median of %g one-second slices; %.1f%% of CPU stolen, not corrected", run.seconds, 100*run.stolenFrac))
		o.set("rtt_p50_ms", run.rttP50MS, fmt.Sprintf("n=%d", run.rtt.count()))
	} else {
		o.set("throughput_rps", run.throughput, fmt.Sprintf("requests per second, median of %g one-second slices; %.1f%% of CPU stolen, %.6g uncorrected", run.seconds, 100*run.stolenFrac, run.wallThroughput))
		o.set("rtt_p50_ms", run.rttP50MS, fmt.Sprintf("scaled by the CPU left to the program; %.6g uncorrected, n=%d", run.wallRTTP50MS, run.rtt.count()))
	}
	o.set("sim_latency_us", run.totalUS, "mean read + mean write, modelled")
	o.note("sim_read_p99_us", us(run.readLat.percentile(99)), "us", fmt.Sprintf("modelled, n=%d reads", run.readLat.count()))
	tail(o, "rtt", run.rtt)
	if httpFront {
		o.note("overhead_p50_ms", ms(run.overhead.percentile(50)), "ms", fmt.Sprintf("RTT - latency_ns/accel, n=%d", run.overhead.count()))
		o.note("overhead_p99_ms", ms(run.overhead.percentile(99)), "ms", fmt.Sprintf("n=%d", run.overhead.count()))
		tail(o, "overhead", run.overhead)
	} else {
		o.note("rtt_p99_ms", ms(run.rtt.percentile(99)), "ms", fmt.Sprintf("n=%d", run.rtt.count()))
	}
	if run.attempted > 0 {
		o.note("error_rate", float64(run.failed)/float64(run.attempted), "ratio",
			fmt.Sprintf("%d rejected, %d failed of %d", run.rejected, run.failed-run.rejected, run.attempted))
	}
	if !traced {
		return nil
	}

	tr := newTracer()
	tr2, err := bootRig(ctx, env, m, seed, httpFront, seconds, tr)
	if err != nil {
		return fmt.Errorf("traced rig: %w", err)
	}
	ev0, hit0, miss0 := tr2.nodeCounter("sim.events"), tr2.nodeCounter("ftl.cmt.hits"), tr2.nodeCounter("ftl.cmt.misses")
	calls0, ns0 := tr2.pstats.calls.Load(), tr2.pstats.ns.Load()
	trun, err := tr2.measure(ctx, seconds)
	if err != nil {
		tr2.close()
		return fmt.Errorf("traced run: %w", err)
	}
	ev, hit, miss := tr2.nodeCounter("sim.events")-ev0, tr2.nodeCounter("ftl.cmt.hits")-hit0, tr2.nodeCounter("ftl.cmt.misses")-miss0
	gateWaits := tr2.routerCounter(`ssdkeeper_fleet_gate_total{outcome="queued"} `)
	tr2.drain()
	epochs, switches := 0, 0
	var res []ssd.Result
	for _, n := range tr2.nodes {
		epochs += n.srv.KeeperSwitches()
		switches += strategyChanges(n.srv.Controller().Switches())
		res = append(res, n.finalRes)
	}
	b := tr2.book
	tr2.close()
	for _, c := range trun.checks {
		o.fail("traced run: %s", c)
	}

	o.set("sim.events", float64(ev), "measured window")
	deviceLayers(o, res)
	if hit+miss > 0 {
		o.set("ftl.cmt_hit_ratio", float64(hit)/float64(hit+miss), "")
	}
	o.set("keeper.epochs", float64(epochs), "both nodes")
	o.set("keeper.switches", float64(switches), "strategy changes, both nodes")
	st := &policyStats{}
	st.calls.Store(tr2.pstats.calls.Load() - calls0)
	st.ns.Store(tr2.pstats.ns.Load() - ns0)
	policyLayer(o, st, 1)
	o.set("serve.residency_us_p50", us(b.residency.percentile(50)), fmt.Sprintf("n=%d", b.residency.count()))
	o.set("serve.residency_us_p99", us(b.residency.percentile(99)), "")
	o.set("serve.overhead_us_p50", us(b.nodeOvh.percentile(50)), "residency - latency_ns/accel")
	o.set("serve.completed", float64(tr.node.ok.Load()), "node layer, whole rig")
	o.set("serve.rejects.queue_full", float64(tr.node.queueFull.Load()), "")
	o.set("serve.rejects.migrating", float64(tr.node.migrating.Load()), "")
	o.set("serve.rejects.draining", float64(tr.node.draining.Load()), "")
	o.set("serve.rejects.other", float64(tr.node.other.Load()), "")
	front := us(b.front.percentile(50))
	o.set("fleet.self_us_p50", us(b.self.percentile(50)), "router span - node span")
	if httpFront {
		o.set("http.front_us_p50", front, "client RTT - Router.Handler span")
		o.set("fleet.handler_us_p50", us(b.handler.percentile(50)), "Router.Handler span")
		if len(trun.migrateMS) > 0 {
			o.set("fleet.migrate_ms", median(append([]float64(nil), trun.migrateMS...)), fmt.Sprintf("median of %d", len(trun.migrateMS)))
		}
	} else {
		o.set("wire.front_us_p50", front, "client RTT - router span")
	}
	o.set("fleet.gate_waits", float64(gateWaits), "")
	processLayer(o, run.proc)
	tracedDelta(o, run.throughput, trun.throughput, run.rttP50MS, trun.rttP50MS)
	return nil
}

func (o *outcome) checksFrom(checks []string, phase string) {
	for _, c := range checks {
		if phase != "" {
			c = phase + ": " + c
		}
		o.fail("%s", c)
	}
}

// tail prints the highest percentile with at least ten samples beyond it.
func tail(o *outcome, what string, h *hist) {
	n := h.count()
	p, ok := tailPercentile(n)
	if !ok {
		o.report = append(o.report, fmt.Sprintf("%s tail: too few samples (n=%d)", what, n))
		return
	}
	o.report = append(o.report, fmt.Sprintf("%s tail: p%g = %.4f ms (n=%d, %d beyond)",
		what, p, ms(h.percentile(p)), n, beyond(n, p)))
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }
