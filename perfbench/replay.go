package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/experiments"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/simrun"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
)

// replayScale is DefaultScale's Table II scale: the four Table IV mixes
// then hold 238k records, under a second of replay on one core.
const replayScale = 0.002

// replayRig is the replay workload's set-up: the four mixes generated from
// the seed and a keeper with the daemon's defaults.
type replayRig struct {
	env   experiments.Env
	m     model
	mixes []trace.Trace
	k     *keeper.Keeper
}

func setupReplay(ctx context.Context, env experiments.Env, m model, seed int64) (*replayRig, error) {
	profiles := trace.TableII(replayScale, env.Device.PageSize, seed)
	rig := &replayRig{env: env, m: m}
	for _, names := range trace.Mixes() {
		mix, err := trace.BuildMix(names, profiles, 1<<30)
		if err != nil {
			return nil, err
		}
		rig.mixes = append(rig.mixes, mix)
	}
	k, err := keeper.NewWithProvider(keeperConfig(env), m.prov)
	if err != nil {
		return nil, err
	}
	rig.k = k
	// Warm-up: the first replay builds and seasons the runner's device.
	if _, err := k.RunContext(ctx, rig.mixes[0]); err != nil {
		return nil, err
	}
	return rig, nil
}

func (rig *replayRig) records() int64 {
	var n int64
	for _, m := range rig.mixes {
		n += int64(len(m))
	}
	return n
}

// mixStats is what the paper measures on one mix, compared exactly between
// repetitions, between traced and untraced replays, and against the values
// recorded for the seed.
type mixStats struct {
	Requests    int     `json:"requests"`
	ReadMeanUS  float64 `json:"read_mean_us"`
	WriteMeanUS float64 `json:"write_mean_us"`
	ReadP99NS   int64   `json:"read_p99_ns"`
	WriteP99NS  int64   `json:"write_p99_ns"`
	MakespanNS  int64   `json:"makespan_ns"`
	FTLWrites   uint64  `json:"ftl_writes"`
	GCRuns      uint64  `json:"gc_runs"`
	GCMoved     uint64  `json:"gc_moved_pages"`
	GCErases    uint64  `json:"gc_erases"`
	WLMoved     uint64  `json:"wl_moved_pages"`
	Epochs      int     `json:"epochs"`
	Switches    int     `json:"switches"`
}

func statsOf(res ssd.Result, sw []keeper.Switch) mixStats {
	return mixStats{
		Requests:    res.Requests,
		ReadMeanUS:  res.Device.Read.Mean(),
		WriteMeanUS: res.Device.Write.Mean(),
		ReadP99NS:   int64(res.Device.Read.P99()),
		WriteP99NS:  int64(res.Device.Write.P99()),
		MakespanNS:  int64(res.Makespan),
		FTLWrites:   res.FTL.Writes,
		GCRuns:      res.FTL.GCRuns,
		GCMoved:     res.FTL.GCMovedPages,
		GCErases:    res.FTL.GCErases,
		WLMoved:     res.FTL.WLMovedPages,
		Epochs:      len(sw),
		Switches:    strategyChanges(sw),
	}
}

// strategyChanges counts adaptation epochs that bound a different strategy
// from the one before (the first epoch leaves the initial unbound state).
func strategyChanges(sw []keeper.Switch) int {
	n := 0
	for i, s := range sw {
		if i == 0 || !alloc.Equal(s.Strategy, sw[i-1].Strategy) {
			n++
		}
	}
	return n
}

// replayGoldenJSON holds the per-mix statistics recorded for a set of seeds
// (see TestReplayGolden). A replay whose seed is recorded must match them
// exactly: an optimisation of the event core or device model may change how
// fast the paper's numbers come out, never the numbers.
//
//go:embed replay_golden.json
var replayGoldenJSON []byte

func replayGolden(seed int64) ([]mixStats, bool, error) {
	var all map[string][]mixStats
	if err := json.Unmarshal(replayGoldenJSON, &all); err != nil {
		return nil, false, fmt.Errorf("replay_golden.json: %w", err)
	}
	g, ok := all[strconv.FormatInt(seed, 10)]
	return g, ok, nil
}

// replayRun is one measured replay phase. Replay runs on one thread, so the
// CPU time stolen from the VM while a call ran is subtracted from its wall
// time whole.
type replayRun struct {
	passRate []float64   // records per second, per pass over the mixes, steal excluded
	callMS   [][]float64 // per mix: wall time of each replay call, steal excluded
	stolenMS float64     // total steal subtracted
	passes   int
	stats    []mixStats // first pass
	mismatch []string
	proc     procDelta
}

func (r replayRun) throughput() float64 { return median(append([]float64(nil), r.passRate...)) }

// callP50MS is the mean over the mixes of each mix's median call time. The
// mixes differ in length, so a median over all calls would sit on the edge
// between two mixes' clusters, where a single slow call moves it.
func (r replayRun) callP50MS() float64 {
	var t float64
	for _, c := range r.callMS {
		t += median(append([]float64(nil), c...))
	}
	return t / float64(len(r.callMS))
}

// simLatencyUS is the mean over the mixes of the modelled total latency
// (read mean + write mean, Fig. 5(c)).
func (r replayRun) simLatencyUS() float64 {
	var t float64
	for _, s := range r.stats {
		t += s.ReadMeanUS + s.WriteMeanUS
	}
	return t / float64(len(r.stats))
}

// simReadP99US is the mean over the mixes of the modelled read p99.
func (r replayRun) simReadP99US() float64 {
	var t float64
	for _, s := range r.stats {
		t += float64(s.ReadP99NS) / 1e3
	}
	return t / float64(len(r.stats))
}

// replayOnce replays one mix; measureReplay and traceReplay differ only in
// how (see those).
type replayOnce func(ctx context.Context, i int, mix trace.Trace) (ssd.Result, []keeper.Switch, error)

// loopReplay replays all four mixes in passes until the window has elapsed
// (at least one pass), checking every pass against the first and against
// want when given.
func loopReplay(ctx context.Context, rig *replayRig, seconds int, want []mixStats, once replayOnce) (replayRun, error) {
	run := replayRun{callMS: make([][]float64, len(rig.mixes))}
	p0 := readProc()
	start := now()
	stop := start + int64(seconds)*1e9
	for pass := 0; pass == 0 || now() < stop; pass++ {
		var passNS int64
		for i, mix := range rig.mixes {
			st0, cs := stealNS(), now()
			res, sw, err := once(ctx, i, mix)
			if err != nil {
				return run, fmt.Errorf("replay mix %d: %w", i+1, err)
			}
			wall, stolen := now()-cs, stealNS()-st0
			if stolen >= wall {
				stolen = 0 // more than one CPU was stolen from: not this call's loss
			}
			passNS += wall - stolen
			run.stolenMS += float64(stolen) / 1e6
			run.callMS[i] = append(run.callMS[i], float64(wall-stolen)/1e6)
			st := statsOf(res, sw)
			if st.Requests != len(mix) {
				run.mismatch = append(run.mismatch, fmt.Sprintf("mix %d: %d of %d records completed", i+1, st.Requests, len(mix)))
			}
			if pass == 0 {
				run.stats = append(run.stats, st)
				if want != nil && st != want[i] {
					run.mismatch = append(run.mismatch, fmt.Sprintf("mix %d: got %+v, recorded %+v", i+1, st, want[i]))
				}
			} else if st != run.stats[i] {
				run.mismatch = append(run.mismatch, fmt.Sprintf("mix %d pass %d: got %+v, first pass %+v", i+1, pass+1, st, run.stats[i]))
			}
		}
		run.passRate = append(run.passRate, float64(rig.records())/(float64(passNS)/1e9))
		run.passes++
	}
	run.proc = procBetween(p0, readProc(), rig.records()*int64(run.passes))
	return run, nil
}

// measureReplay is the untraced replay: keeper.RunContext, as Fig. 5 runs it.
func measureReplay(ctx context.Context, rig *replayRig, seconds int, want []mixStats) (replayRun, error) {
	return loopReplay(ctx, rig, seconds, want, func(ctx context.Context, _ int, mix trace.Trace) (ssd.Result, []keeper.Switch, error) {
		rep, err := rig.k.RunContext(ctx, mix)
		return rep.Result, rep.Switches, err
	})
}

// replayTrace is what the traced replay measures per pass.
type replayTrace struct {
	run       replayRun
	events    int64 // engine events per pass
	cmtHits   int64
	cmtMisses int64
	sessionMS []float64
	res       []ssd.Result
	policy    *policyStats
}

// traceReplay replays through the same steps keeper.RunContext takes, but
// on a runner carrying a CounterProbe and with a timed policy, so each
// session build and each decision is measured from outside. The outputs
// must equal the untraced replay's.
func traceReplay(ctx context.Context, rig *replayRig, seconds int, want []mixStats) (replayTrace, error) {
	tr := replayTrace{policy: &policyStats{}, res: make([]ssd.Result, len(rig.mixes))}
	k, err := keeper.NewWithProvider(keeperConfig(rig.env), timedProvider{Provider: rig.m.prov, st: tr.policy})
	if err != nil {
		return tr, err
	}
	probe := simrun.NewCounterProbe(rig.env.Device)
	runner := simrun.NewRunner(simrun.WithProbe(probe))
	cs := probe.Counters()
	pass := 0
	tr.run, err = loopReplay(ctx, rig, seconds, want, func(ctx context.Context, i int, mix trace.Trace) (ssd.Result, []keeper.Switch, error) {
		t0 := now()
		sess, err := runner.NewSession(simrun.Config{
			Device: rig.env.Device, Options: rig.env.Options, Season: rig.env.Season,
		})
		if err != nil {
			return ssd.Result{}, nil, err
		}
		tr.sessionMS = append(tr.sessionMS, float64(now()-t0)/1e6)
		dev := sess.Device()
		ctrl := k.Controller(dev)
		res, err := sess.RunObserved(ctx, mix, func(_ int, r trace.Record) {
			ctrl.Observe(dev.Engine().Now(), r)
		})
		if err == nil {
			err = ctrl.Err()
		}
		if err != nil {
			return ssd.Result{}, nil, err
		}
		if pass == 0 {
			tr.events += cs.Get("sim.events")
			tr.cmtHits += cs.Get("ftl.cmt.hits")
			tr.cmtMisses += cs.Get("ftl.cmt.misses")
			tr.res[i] = res.Result
		}
		if i == len(rig.mixes)-1 {
			pass++
		}
		return res.Result, ctrl.Switches(), nil
	})
	return tr, err
}
