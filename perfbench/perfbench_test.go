package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sweep"
)

func seqOf(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileSampleRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 1, p: 50, want: 1, ok: true},
		{n: 99, p: 90, want: 90, ok: false},   // 9 samples beyond the p90
		{n: 100, p: 90, want: 90, ok: true},   // exactly 10 beyond
		{n: 1000, p: 99, want: 990, ok: true}, // exactly 10 beyond
		{n: 999, p: 99, want: 990, ok: false}, // 9 beyond
		{n: 0, p: 50, want: 0, ok: false},
	} {
		got, ok := percentile(seqOf(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestEndToEndRefusesThinPercentile(t *testing.T) {
	p := &pass{sp: &servedPhase{}}
	for _, s := range []*samples{&p.setup, &p.ticksPerS, &p.sp.coldTTFR} {
		s.add(1)
	}
	p.sp.sessions.Add(1)
	p.sp.sessionFrames.Add(300)
	p.sp.sessionStreamNS.Add(1e7)
	for i := 0; i < 50; i++ { // p90 needs 100 samples
		p.sp.coldReq.add(float64(i))
	}
	for i := 0; i < 2000; i++ {
		p.sp.cachedReq.add(float64(i))
	}
	p.sp.wall = 1
	if _, _, err := p.endToEnd(true); err == nil || !strings.Contains(err.Error(), "cold_req_ms_p90") {
		t.Fatalf("strict endToEnd with 50 cold samples: err = %v, want a cold_req_ms_p90 refusal", err)
	}
	if _, _, err := p.endToEnd(false); err != nil {
		t.Fatalf("lenient endToEnd: %v", err)
	}
}

func TestSequenceDeterministic(t *testing.T) {
	a, b := genSequence(7, 5000), genSequence(7, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different sequences")
	}
	if reflect.DeepEqual(a, genSequence(8, 5000)) {
		t.Fatal("different seeds gave the same sequence")
	}
	seen := map[int]bool{}
	var cold, sweeps, sessions int
	for i, it := range a {
		if it.session {
			sessions++
			continue
		}
		sweeps++
		if it.cold != !seen[it.spec] {
			t.Fatalf("item %d: cold=%v but spec %d seen=%v", i, it.cold, it.spec, seen[it.spec])
		}
		if it.cold {
			cold++
			if it.spec != len(seen) {
				t.Fatalf("item %d introduces spec %d out of order", i, it.spec)
			}
		}
		seen[it.spec] = true
	}
	if r := float64(sweeps) / float64(cold); r < 9 || r > 13 {
		t.Errorf("one sweep request in %.1f is cold, want about %d", r, coldOneIn)
	}
	if s := float64(sessions) / float64(len(a)); s < 0.02 || s > 0.06 {
		t.Errorf("session share %.3f, want about %g", s, sessionShare)
	}
}

func TestDigestGateCatchesOneByte(t *testing.T) {
	spec := servedSpec(3, 0)
	jobs := spec.Expand()
	recs := make([]sweep.Record, len(jobs))
	for i, j := range jobs {
		recs[i] = sweep.Record{Key: j.Key(), Policy: j.Policy, Bench: j.Bench, Ticks: 300, ElapsedMS: 12}
	}
	// Completion order must not matter.
	recs[0], recs[len(recs)-1] = recs[len(recs)-1], recs[0]
	stream, err := canonicalStream(jobs, recs)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(stream), "elapsed_ms") {
		t.Fatal("canonical stream kept elapsed_ms")
	}
	g := &gate{}
	g.same("identical", stream, append([]byte(nil), stream...))
	if _, failed := g.counts(); failed != 0 {
		t.Fatal("identical streams failed the gate")
	}
	for _, at := range []int{0, len(stream) / 2, len(stream) - 1} {
		bad := append([]byte(nil), stream...)
		bad[at] ^= 1
		g.same("corrupted", bad, stream)
	}
	if attempted, failed := g.counts(); attempted != 4 || failed != 3 {
		t.Fatalf("gate counted %d attempted, %d failed; want 4, 3", attempted, failed)
	}

	pinnedDigests["test-workload"] = map[string]map[int64]string{}
	defer delete(pinnedDigests, "test-workload")
	for arch := range map[string]bool{"amd64": true, "arm64": true} {
		pinnedDigests["test-workload"][arch] = map[int64]string{3: digest(stream)}
	}
	g = &gate{}
	g.pinned("test-workload", 3, digest(stream))
	bad := append([]byte(nil), stream...)
	bad[len(bad)/3] ^= 0x20
	g.pinned("test-workload", 3, digest(bad))
	g.pinned("test-workload", 4, digest(bad)) // unpinned seed: not an operation
	if attempted, failed := g.counts(); attempted != 2 || failed != 1 {
		t.Fatalf("pinned gate counted %d attempted, %d failed; want 2, 1", attempted, failed)
	}
}

func TestSelfTimesAndTickOther(t *testing.T) {
	spans := []span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "exp.job_config", Start: 0, End: 10, Parent: 0},
		{Name: "sim.ticks", Start: 10, End: 90, Parent: 0},
		{Name: "sim.finish", Start: 90, End: 95, Parent: 0},
		{Name: "job", Start: 200, End: 250, Parent: -1},
		{Name: "sim.ticks", Start: 200, End: 240, Parent: 4},
		{Name: "open", Start: 300, End: -1, Parent: 4}, // unfinished: ignored
	}
	got := selfTimes(spans)
	want := map[string]int64{"job": 5 + 10, "exp.job_config": 10, "sim.ticks": 120, "sim.finish": 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	// 1000 ticks of 10 µs; policy 3 µs and shadow layers 4 µs per tick.
	other := tickOtherUS(10_000_000, 1000, 3_000_000, 1_000_000, 1_000_000, 2_000_000)
	if other != 3 {
		t.Fatalf("tickOtherUS = %g, want 3", other)
	}
	if tickOtherUS(5, 0) != 0 {
		t.Fatal("tickOtherUS with no ticks must be 0")
	}
}

func TestOverheadDirection(t *testing.T) {
	lower := metricDef{better: "lower"}
	higher := metricDef{better: "higher"}
	if o := overhead(lower, 10, 12); o < 0.199 || o > 0.201 {
		t.Errorf("lower-is-better overhead = %g, want 0.2", o)
	}
	if o := overhead(higher, 120, 100); o < 0.199 || o > 0.201 {
		t.Errorf("higher-is-better overhead = %g, want 0.2", o)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload tables of this package in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the package %d", len(doc.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
		if m.Name != "setup_s" && m.Bound >= maxBound {
			maxBound = m.Bound
		}
	}
	if setup := endToEnd[0]; setup.name != "setup_s" || setup.bound <= maxBound {
		t.Errorf("setup_s must carry the largest bound (%g vs %g)", setup.bound, maxBound)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the package %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v here", i, m, d)
		}
	}
}
