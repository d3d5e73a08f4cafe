package traffic

import (
	"bytes"
	"strings"
	"testing"

	"tdmd/internal/graph"
	"tdmd/internal/topology"
)

func traceGraph() *graph.Graph {
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddBiEdge(a, b)
	g.AddBiEdge(b, c)
	return g
}

func TestReadTraceBasic(t *testing.T) {
	g := traceGraph()
	in := strings.NewReader(`# flows
a,c,4
b,c,2.6

c,a,1
`)
	flows, err := ReadTrace(in, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 3 {
		t.Fatalf("flows = %d", len(flows))
	}
	if flows[0].Rate != 4 || flows[0].Hops() != 2 {
		t.Fatalf("flow 0 = %+v", flows[0])
	}
	if flows[1].Rate != 3 { // 2.6 rounds to 3
		t.Fatalf("flow 1 rate = %d", flows[1].Rate)
	}
	if flows[2].Src() != g.NodeByName("c") {
		t.Fatal("flow 2 source wrong")
	}
	if err := Validate(g, flows); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraceErrors(t *testing.T) {
	g := traceGraph()
	cases := map[string]string{
		"bad fields":     "a,c\n",
		"unknown vertex": "a,zzz,1\n",
		"bad rate":       "a,c,abc\n",
		"self flow":      "a,a,1\n",
	}
	for name, input := range cases {
		if _, err := ReadTrace(strings.NewReader(input), g); err == nil {
			t.Fatalf("%s: accepted %q", name, input)
		}
	}
}

func TestReadTraceUnroutable(t *testing.T) {
	g := graph.New()
	g.AddNode("a")
	g.AddNode("b") // no edges
	if _, err := ReadTrace(strings.NewReader("a,b,1\n"), g); err == nil {
		t.Fatal("unroutable pair accepted")
	}
}

func TestReadTraceRateClamp(t *testing.T) {
	g := traceGraph()
	flows, err := ReadTrace(strings.NewReader("a,b,0.2\n"), g)
	if err != nil {
		t.Fatal(err)
	}
	if flows[0].Rate != 1 {
		t.Fatalf("rate = %d, want clamp to 1", flows[0].Rate)
	}
}

// A rate that is not a finite number, or that rounds above the rate
// arena's bound, fails with its line number instead of becoming rate 1
// or a trace the instance builder rejects.
func TestReadTraceRejectsRatesOutsideArena(t *testing.T) {
	g := traceGraph()
	for _, rate := range []string{"NaN", "inf", "-Inf", "1e30", "2170000000", "2147483647.5"} {
		_, err := ReadTrace(strings.NewReader("a,c,4\n\na,b,"+rate+"\n"), g)
		if err == nil || !strings.Contains(err.Error(), "trace line 3: rate "+rate) {
			t.Fatalf("rate %s: error %v, want one naming line 3 and the rate", rate, err)
		}
	}
	flows, err := ReadTrace(strings.NewReader("a,b,2147483647.4\n"), g)
	if err != nil || flows[0].Rate != MaxFlowRate {
		t.Fatalf("rate at the bound: %v, %v", flows, err)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	g := topology.GeneralRandom(15, 0.6, 3)
	orig := GeneralFlows(g, []graph.NodeID{0}, GenConfig{Density: 0.3, Seed: 4, MaxFlows: 20})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, g, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip changed count: %d -> %d", len(orig), len(back))
	}
	for i := range orig {
		if back[i].Rate != orig[i].Rate || back[i].Src() != orig[i].Src() || back[i].Dst() != orig[i].Dst() {
			t.Fatalf("flow %d changed: %+v -> %+v", i, orig[i], back[i])
		}
		// Paths re-route over shortest paths; hop counts must match
		// because the originals were shortest too.
		if back[i].Hops() != orig[i].Hops() {
			t.Fatalf("flow %d hops changed: %d -> %d", i, orig[i].Hops(), back[i].Hops())
		}
	}
}
