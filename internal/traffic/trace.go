package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"tdmd/internal/graph"
)

// ReadTrace parses a flow trace in the simple CSV form
//
//	# comment lines and blanks are ignored
//	src,dst,rate
//
// where src and dst are vertex names of g, and routes each record over
// a minimum-hop path. This is the ingestion point for users who hold a
// real CAIDA-style trace: aggregate it to (endpoint pair, rate) rows
// and the library takes over. Rates are rounded to integers >= 1 (the
// tree DP requires integral rates); a rate that is not finite, or that
// rounds above MaxFlowRate, is an error naming its line.
func ReadTrace(r io.Reader, g *graph.Graph) ([]Flow, error) {
	scanner := bufio.NewScanner(r)
	var flows []Flow
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("traffic: trace line %d: want src,dst,rate, got %q", lineNo, line)
		}
		src := g.NodeByName(strings.TrimSpace(parts[0]))
		dst := g.NodeByName(strings.TrimSpace(parts[1]))
		if src == graph.Invalid || dst == graph.Invalid {
			return nil, fmt.Errorf("traffic: trace line %d: unknown vertex in %q", lineNo, line)
		}
		rateF, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: bad rate: %v", lineNo, err)
		}
		rateF = math.Floor(rateF + 0.5)
		switch {
		case math.IsNaN(rateF) || math.IsInf(rateF, 0):
			return nil, fmt.Errorf("traffic: trace line %d: rate %s is not finite", lineNo, strings.TrimSpace(parts[2]))
		case rateF > MaxFlowRate:
			return nil, fmt.Errorf("traffic: trace line %d: rate %s is above %d", lineNo, strings.TrimSpace(parts[2]), MaxFlowRate)
		}
		rate := 1
		if rateF > 1 {
			rate = int(rateF)
		}
		path, err := g.ShortestPath(src, dst)
		if err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: no route %s -> %s", lineNo, parts[0], parts[1])
		}
		if path.Len() == 0 {
			return nil, fmt.Errorf("traffic: trace line %d: src equals dst", lineNo)
		}
		flows = append(flows, Flow{ID: len(flows), Rate: rate, Path: path})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("traffic: reading trace: %w", err)
	}
	return flows, nil
}

// WriteTrace emits flows in ReadTrace's format, using vertex names.
func WriteTrace(w io.Writer, g *graph.Graph, flows []Flow) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# src,dst,rate")
	for _, f := range flows {
		fmt.Fprintf(bw, "%s,%s,%d\n", g.Name(f.Src()), g.Name(f.Dst()), f.Rate)
	}
	return bw.Flush()
}
