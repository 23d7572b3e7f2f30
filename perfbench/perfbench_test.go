package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"ssdkeeper/internal/experiments"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1_000_000, 99.99, true},
		{100_000, 99.99, true}, // rank 99990: exactly ten beyond
		{99_999, 99.9, true},
		{1000, 99, true},
		{999, 90, true}, // p99 would leave nine beyond
		{100, 90, true},
		{99, 50, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, p) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond", tc.n, p, beyond(tc.n, p))
		}
	}
}

func TestHistPercentile(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 1000; v++ {
		h.add(v * 1000) // 1µs .. 1ms
	}
	h.add(0)
	h.add(-5)
	if h.count() != 1002 {
		t.Fatalf("count %d, want 1002", h.count())
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 500_000},
		{99, 991_000},
		{100, 1_000_000},
	} {
		// Nearest rank over 1002 samples, two of them below 1.
		got := h.percentile(tc.p)
		if math.Abs(got-tc.want)/tc.want > 0.003 {
			t.Errorf("p%g = %.0f, want %.0f within 0.3%%", tc.p, got, tc.want)
		}
	}
	if got := h.percentile(0.1); got != 0 {
		t.Errorf("p0.1 = %g, want 0 (non-positive samples)", got)
	}
	if got := newHist().percentile(50); got != 0 {
		t.Errorf("empty histogram p50 = %g, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{10, 30}}, 80},
		{"overlapping children count once", []interval{{10, 30}, {20, 50}}, 60},
		{"children clipped to the parent", []interval{{-10, 5}, {90, 120}}, 85},
		{"unsorted and nested", []interval{{60, 70}, {10, 50}, {20, 30}, {45, 65}}, 40},
		{"child covers the parent", []interval{{-1, 101}}, 0},
		{"child outside the parent", []interval{{200, 300}}, 100},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestOverhead(t *testing.T) {
	// 1ms wall RTT; 4ms modelled at accel 20 is 200µs of wall time.
	if got := overheadNS(1_000_000, 4_000_000, 20); got != 800_000 {
		t.Errorf("overhead at accel 20 = %d, want 800000", got)
	}
	// At accel 1 modelled time maps one to one.
	if got := overheadNS(1_370_000, 180_000, 1); got != 1_190_000 {
		t.Errorf("overhead at accel 1 = %d, want 1190000", got)
	}
}

// A synthetic request split: the client saw 1000ns, the router span covered
// [100,900] and the node span [300,700] with 2000ns modelled at accel 20.
func TestBookSplit(t *testing.T) {
	tr := newTracer()
	b := newBook(newStream(1, 16<<10), 20, tr, 1)
	b.measureFrom.Store(1)
	const id = 7
	r := tr.slot(layerRouter, id)
	r.id.Store(id)
	r.start.Store(100)
	r.end.Store(900)
	n := tr.slot(layerNode, id)
	n.id.Store(id)
	n.start.Store(300)
	n.end.Store(700)
	b.split(id, 1000, 2000)
	for _, tc := range []struct {
		name string
		h    *hist
		want float64
	}{
		{"front", b.front, 200},
		{"router self", b.self, 400},
		{"handler", b.handler, 800},
		{"node residency", b.residency, 400},
		{"node overhead", b.nodeOvh, 300},
	} {
		if got := tc.h.percentile(50); math.Abs(got-tc.want) > tc.want*0.002 {
			t.Errorf("%s = %g, want %g", tc.name, got, tc.want)
		}
	}
	// A span of another id in the slot is ignored.
	n.id.Store(id + ringMask + 1)
	b.split(id, 1000, 2000)
	if b.residency.count() != 1 {
		t.Errorf("stale node span was attributed")
	}
}

func TestBookExactlyOnce(t *testing.T) {
	b := newBook(newStream(1, 16<<10), 1, nil, 1)
	b.measureFrom.Store(1)
	b.begin(1)
	b.begin(2)
	b.finish(1, 1000, outOK)
	b.finish(1, 1000, outOK) // duplicate
	b.finish(3, 1000, outOK) // never issued
	b.finish(2, 0, outOK)    // OK without a modelled latency
	if got := b.dup.Load(); got != 2 {
		t.Errorf("dup = %d, want 2", got)
	}
	if got := b.bad.Load(); got != 1 {
		t.Errorf("bad = %d, want 1", got)
	}
	if b.issued.Load() != 2 || b.answered.Load() != 2 || b.ok.Load() != 1 {
		t.Errorf("issued %d answered %d ok %d, want 2 2 1", b.issued.Load(), b.answered.Load(), b.ok.Load())
	}
	b.begin(4)
	b.begin(4 + ringMask + 1) // reuses the slot of a request still in flight
	if got := b.overflow.Load(); got != 1 {
		t.Errorf("overflow = %d, want 1", got)
	}
}

func TestStreamDeterministic(t *testing.T) {
	a, b := newStream(5, 16<<10), newStream(5, 16<<10)
	writes := [tenants]int{}
	for id := uint64(1); id <= 40000; id++ {
		ra, rb := a.request(id), b.request(id)
		if ra != rb {
			t.Fatalf("id %d: %+v vs %+v", id, ra, rb)
		}
		if ra.Tenant != int(id%tenants) || ra.Key != id || ra.Size != reqBytes ||
			ra.Offset%(16<<10) != 0 || ra.Offset+int64(ra.Size) > tenantBytes {
			t.Fatalf("id %d: malformed request %+v", id, ra)
		}
		if ra.Op == 1 {
			writes[ra.Tenant]++
		}
	}
	for tn, w := range writes {
		if got := float64(w) / 10000; math.Abs(got-writeRatios[tn]) > 0.02 {
			t.Errorf("tenant %d write share %.3f, want %.2f", tn, got, writeRatios[tn])
		}
	}
	if newStream(6, 16<<10).request(1) == a.request(1) && newStream(6, 16<<10).request(2) == a.request(2) {
		t.Errorf("different seeds gave the same requests")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload lists
// in step with what the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloads)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, command prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i := range spec.EndToEnd {
		if i < len(endToEnd) && (spec.EndToEnd[i].Name != endToEnd[i].name || spec.EndToEnd[i].Unit != endToEnd[i].unit) {
			t.Errorf("end_to_end[%d] = %s %s, command prints %s %s", i, spec.EndToEnd[i].Name, spec.EndToEnd[i].Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, command prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i := range spec.PerLayer {
		if i < len(perLayer) && (spec.PerLayer[i].Name != perLayer[i].name || spec.PerLayer[i].Unit != perLayer[i].unit) {
			t.Errorf("per_layer[%d] = %s %s, command prints %s %s", i, spec.PerLayer[i].Name, spec.PerLayer[i].Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// runCommand runs the benchmark in-process and decodes its result line.
func runCommand(t *testing.T, args ...string) (map[string]metricValue, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(context.Background(), args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("%v: exit %d\n%s\n%s", args, code, out.String(), errOut.String())
	}
	var res struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]metricValue
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the result: %v\n%s", args, err, out.String())
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%v: correct %v attempted %d failed %d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res.Metrics, out.String()
}

// TestSmoke runs every workload briefly through the command, untraced and
// traced, so the output checks (exactly-once replies, client/node
// accounting across both migrations, replay repetition and trace
// faithfulness) all execute.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots fleets and trains models")
	}
	metrics, out := runCommand(t, "--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0")
	for _, w := range workloads {
		for _, d := range endToEnd {
			v, ok := metrics[w+"."+d.name]
			if !ok || v.Unit != d.unit || !(v.Value > 0) {
				t.Errorf("%s.%s = %+v, want a positive value in %s", w, d.name, v, d.unit)
			}
		}
	}
	for _, want := range []string{"rtt_p99_ms", "overhead_p50_ms", "overhead_p99_ms", "error_rate", "rtt tail: p"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q", want)
		}
	}
	for _, w := range workloads {
		metrics, _ := runCommand(t, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1")
		if len(metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want the %d per-layer ones", w, len(metrics), len(perLayer))
		}
		for _, d := range perLayer {
			if v, ok := metrics[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("%s traced: %s = %+v, want unit %s", w, d.name, v, d.unit)
			}
		}
		if metrics["traced.throughput_rps"].Value <= 0 || metrics["proc.cpu_us_per_req"].Value <= 0 {
			t.Errorf("%s traced: no traced throughput or CPU cost", w)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "replay", "--trace", "2"},
		{"--workload", "replay", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want a usage error and no result", args, code, out.String())
		}
	}
}

var updateGolden = flag.Bool("update-golden", false, "re-record replay_golden.json for seeds 0..31")

// TestReplayGolden checks seed 1's replay against the recorded statistics;
// with -update-golden it re-records them for seeds 0..31 instead.
func TestReplayGolden(t *testing.T) {
	if testing.Short() && !*updateGolden {
		t.Skip("trains a model and replays all four mixes")
	}
	ctx := context.Background()
	env := experiments.NewEnv()
	seeds := []int64{1}
	if *updateGolden {
		seeds = nil
		for s := int64(0); s < 32; s++ {
			seeds = append(seeds, s)
		}
	}
	recorded := map[string][]mixStats{}
	for _, seed := range seeds {
		m, err := trainModel(ctx, env, seed)
		if err != nil {
			t.Fatal(err)
		}
		rig, err := setupReplay(ctx, env, m, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, ok, err := replayGolden(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !*updateGolden && !ok {
			t.Fatalf("no recorded statistics for seed %d", seed)
		}
		if *updateGolden {
			want = nil
		}
		run, err := measureReplay(ctx, rig, 0, want)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range run.mismatch {
			t.Errorf("seed %d: %s", seed, m)
		}
		recorded[strconv.FormatInt(seed, 10)] = run.stats
		if *updateGolden {
			continue
		}
		// One counter off the recorded value must fail the check.
		off := append([]mixStats(nil), want...)
		off[2].GCRuns++
		run, err = measureReplay(ctx, rig, 0, off)
		if err != nil {
			t.Fatal(err)
		}
		if len(run.mismatch) != 1 || !strings.HasPrefix(run.mismatch[0], "mix 3:") {
			t.Errorf("seed %d with mix 3's GC count off by one: mismatches %q, want one for mix 3", seed, run.mismatch)
		}
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(recorded, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("replay_golden.json", append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
