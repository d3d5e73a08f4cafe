package main

import (
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"tdmd"
)

func TestSupportedPercentileLeavesTenBeyond(t *testing.T) {
	if _, ok := supportedPercentile(minTail, 99); ok {
		t.Fatalf("%d samples cannot support any percentile", minTail)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1010, 99}, {1000, 99}, {5000, 99}, {500, 98}, {20, 50}} {
		if got, _ := supportedPercentile(c.n, 99); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("supportedPercentile(%d, 99) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := minTail + 1; n <= 3000; n++ {
		sorted := make([]time.Duration, n)
		for i := range sorted {
			sorted[i] = time.Duration(i + 1)
		}
		p, _ := supportedPercentile(n, 99)
		if beyond := tailBeyond(sorted, p); beyond < minTail {
			t.Fatalf("n=%d: p%.3f leaves %d samples beyond it, want >= %d", n, p, beyond, minTail)
		}
		if p < 99 {
			// The next sample up would leave fewer than minTail beyond.
			next := 100 * float64(n-minTail+1) / float64(n)
			if beyond := tailBeyond(sorted, next); beyond >= minTail {
				t.Fatalf("n=%d: p%.3f is not the highest supported percentile", n, p)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0, 1}, {10, 1}, {50, 5}, {51, 6}, {99, 10}, {100, 10}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestWindowedRateIsMedianOfWholeSeconds(t *testing.T) {
	start := time.Unix(0, 0)
	at := func(d time.Duration) *op { return &op{done: start.Add(d)} }
	var ops []*op
	// Windows [0,1s) 3 ops, [1s,2s) 1 op, [2s,3s) 5 ops; the partial
	// window after 3s and the failed op do not count.
	for _, d := range []time.Duration{100, 200, 300} {
		ops = append(ops, at(d*time.Millisecond))
	}
	ops = append(ops, at(1500*time.Millisecond))
	for i := 0; i < 5; i++ {
		ops = append(ops, at(2100*time.Millisecond))
	}
	ops = append(ops, at(3200*time.Millisecond))
	failed := at(1600 * time.Millisecond)
	failed.err = os.ErrClosed
	ops = append(ops, failed)
	one := func(*op) float64 { return 1 }
	if got := windowedRate(ops, start, 3500*time.Millisecond, one); got != 3 {
		t.Errorf("windowed rate %v, want the median window count 3", got)
	}
	if got := windowedRate(ops[:3], start, 500*time.Millisecond, one); got != 6 {
		t.Errorf("rate of a sub-second loop %v, want 3 ops / 0.5 s = 6", got)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(7, 150, 2000)
	b := poissonSchedule(7, 150, 2000)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if slices.Equal(a, poissonSchedule(8, 150, 2000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, a[i], i-1, a[i-1])
		}
	}
	// 2000 exponential gaps: the mean is within 10% of 1/rate with
	// overwhelming probability.
	if mean := a[len(a)-1].Seconds() / float64(len(a)); math.Abs(mean*150-1) > 0.1 {
		t.Fatalf("mean gap %.5f s, want about %.5f s", mean, 1.0/150)
	}
}

func TestColdCellsDeterministicAndBalanced(t *testing.T) {
	all := allColdCells()
	if len(all) != 168 {
		t.Fatalf("%d cells, want 168 (28 sweep points x 3 algorithms x 2 topology kinds)", len(all))
	}
	n := 2*len(all) + 17
	a := coldCells(3, streamColdClosed, n)
	if !slices.Equal(a, coldCells(3, streamColdClosed, n)) {
		t.Fatal("the same seed laid out two different cell sequences")
	}
	if slices.Equal(a, coldCells(3, streamColdOpen, n)) {
		t.Fatal("two phases share a cell sequence")
	}
	// Figures share their default point, so a cell may be listed more
	// than once; every round holds each cell as often as the list does.
	want := map[coldCell]int{}
	for _, c := range all {
		want[c]++
	}
	for round := 0; round < 2; round++ {
		seen := map[coldCell]int{}
		for _, c := range a[round*len(all) : (round+1)*len(all)] {
			seen[c]++
		}
		for c, n := range want {
			if seen[c] != n {
				t.Fatalf("round %d holds cell %+v %d times, want %d", round, c, seen[c], n)
			}
		}
	}
}

func TestSelfTimesOnSyntheticTree(t *testing.T) {
	// request [0,100]
	//   a [10,30], b [20,50] (overlapping a), c [60,70]
	//     d [62,65] under c
	// and a second request whose root has one child.
	spans := []span{
		{Name: "request", Req: 1, Parent: -1, Start: 0, End: 100},
		{Name: "a", Req: 1, Parent: 0, Start: 10, End: 30},
		{Name: "b", Req: 1, Parent: 0, Start: 20, End: 50},
		{Name: "c", Req: 1, Parent: 0, Start: 60, End: 70},
		{Name: "d", Req: 1, Parent: 3, Start: 62, End: 65},
		{Name: "request", Req: 2, Parent: -1, Start: 200, End: 260},
		{Name: "a", Req: 2, Parent: 5, Start: 210, End: 250},
	}
	want := []time.Duration{50, 20, 30, 7, 3, 20, 40}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	means, layerSum := layerMeans(spans)
	ns := float64(time.Millisecond)
	if got := means["a"] * ns; math.Abs(got-30) > 1e-9 {
		t.Errorf("mean self time of a = %v ns, want 30", got)
	}
	if got := means["request"] * ns; math.Abs(got-35) > 1e-9 {
		t.Errorf("mean self time of request = %v ns, want 35", got)
	}
	// Layer spans are the roots' direct children: (20+30+10) + 40 over
	// two requests.
	if got := layerSum * ns; math.Abs(got-50) > 1e-9 {
		t.Errorf("mean layer sum = %v ns, want 50", got)
	}
}

func TestParseMetricsCapturedSample(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := parseMetrics(f)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"tdmd_serve_cache_misses_total":                                                          256,
		series("tdmd_solve_duration_seconds_count", "algorithm", "dp"):                           47,
		series("tdmd_solve_phase_duration_seconds_count", "phase", "tables", "algorithm", "dp"):  47,
		series("tdmd_http_requests_total", "code", "200", "route", "/api/solve"):                 256,
		series("tdmd_solve_events_total", "algorithm", "gtp-ls", "event", "swaps"):               31,
		series("tdmd_http_request_duration_seconds_bucket", "route", "/api/solve", "le", "+Inf"): 256,
	} {
		if got, ok := m[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if got, want := m.mean("tdmd_solve_duration_seconds", "algorithm", "dp"), 0.49609967800000015/47; math.Abs(got-want) > 1e-12 {
		t.Errorf("dp mean solve time %v, want %v", got, want)
	}
	if got := m.mean("tdmd_solve_duration_seconds", "algorithm", "exhaustive"); got != 0 {
		t.Errorf("mean of an absent histogram = %v, want 0", got)
	}
	before := metrics{"tdmd_serve_cache_misses_total": 56}
	if d := delta(before, m); d["tdmd_serve_cache_misses_total"] != 200 || d[series("tdmd_solve_duration_seconds_count", "algorithm", "dp")] != 47 {
		t.Errorf("delta misses %v dp count %v, want 200 and 47", d["tdmd_serve_cache_misses_total"],
			d[series("tdmd_solve_duration_seconds_count", "algorithm", "dp")])
	}
}

func TestParseMetricsRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"tdmd_x\n",
		"tdmd_x notanumber\n",
		`tdmd_x{a="1" 3` + "\n",
		`tdmd_x{a="1} 3` + "\n",
		`tdmd_x{a} 3` + "\n",
	} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", bad)
		}
	}
}

// fig1 is a small rooted tree: 0 <- 1 <- 2 and 0 <- 3, two flows.
func fig1Request(t *testing.T, alg tdmd.Algorithm, k int) *request {
	t.Helper()
	spec := tdmd.ProblemSpec{
		Nodes:  []string{"r", "a", "b", "c"},
		Edges:  [][2]int{{1, 0}, {2, 1}, {3, 0}},
		Flows:  []tdmd.FlowSpec{{Rate: 4, Path: []int{2, 1, 0}}, {Rate: 2, Path: []int{3, 0}}},
		Lambda: 0.5,
		Root:   0,
	}
	r, err := onlineRequest(1, spec, alg, k)
	if err != nil {
		t.Fatal(err)
	}
	return &r
}

func TestCheckAnswerAcceptsReference(t *testing.T) {
	r := fig1Request(t, tdmd.AlgGTP, 2)
	good := answer{Plan: r.want.plan, Bandwidth: r.want.bandwidth, Feasible: true, RawDemand: r.want.raw}
	if err := checkAnswer(r, good); err != nil {
		t.Fatalf("reference answer rejected: %v", err)
	}
}

func TestCheckAnswerRejectsTampering(t *testing.T) {
	r := fig1Request(t, tdmd.AlgGTP, 2)
	good := answer{Plan: r.want.plan, Bandwidth: r.want.bandwidth, Feasible: true, RawDemand: r.want.raw}
	for name, tamper := range map[string]func(a *answer){
		"bandwidth one ulp off": func(a *answer) { a.Bandwidth = math.Nextafter(a.Bandwidth, math.Inf(1)) },
		"vertex out of range":   func(a *answer) { a.Plan = append(slices.Clone(a.Plan), 4) },
		"negative vertex":       func(a *answer) { a.Plan = []int{-1} },
		"over budget":           func(a *answer) { a.Plan = []int{0, 1, 3} },
		"infeasible":            func(a *answer) { a.Feasible = false },
		"raw demand":            func(a *answer) { a.RawDemand++ },
		// The right bandwidth with a plan that scores differently.
		"plan does not evaluate to the bandwidth": func(a *answer) { a.Plan = []int{0} },
	} {
		a := good
		tamper(&a)
		if err := checkAnswer(r, a); err == nil {
			t.Errorf("%s: tampered answer accepted", name)
		}
	}
}
