package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/wsd"
)

// tracedOp is one op of the traced pass with the statement's trace.
type tracedOp struct {
	typ     string
	backend string // "naive" or "compact"
	dur     time.Duration
	trace   *obs.TraceJSON
	// answerRows counts the rows of the answer relations.
	answerRows int
	// direct marks a figures-served op sent through (*server.Server).Handle
	// in-process instead of over the wire.
	direct bool
}

// splitStages are the stages reported per op type.
var splitStages = []string{"analyze", "componentwise", "conditional", "merge_eval", "closure", "eval"}

// selfTimes returns each stage's self time in ms: a span's duration minus
// the part of it covered by spans inside it.
func selfTimes(tr *obs.TraceJSON) map[string]float64 {
	out := map[string]float64{}
	if tr == nil {
		return out
	}
	for i, s := range tr.Spans {
		end := s.StartUs + s.DurUs
		var inner [][2]int64
		for j, c := range tr.Spans {
			if j != i && c.StartUs >= s.StartUs && c.StartUs+c.DurUs <= end &&
				(c.DurUs < s.DurUs || j > i) {
				inner = append(inner, [2]int64{c.StartUs, c.StartUs + c.DurUs})
			}
		}
		out[s.Name] += float64(s.DurUs-covered(inner)) / 1e3
	}
	return out
}

// covered returns the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach int64 = 0, -1 << 62
	for _, x := range iv {
		if x[0] > reach {
			reach = x[0]
		}
		if x[1] > reach {
			total += x[1] - reach
			reach = x[1]
		}
	}
	return total
}

// cpuSeconds reads the runtime's cumulative GC and total CPU time.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// measuredPass runs the untraced reference pass of a traced run, reading
// the program's counters as deltas around it.
func measuredPass(w workload, d time.Duration) *pass {
	cache0, prep0 := plan.SharedCache().Stats(), plan.PrepareCount()
	gc0, cpu0 := cpuSeconds()
	lr, _ := w.(layerReporter)
	if lr != nil {
		lr.beginPass()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := runLoop(w, time.Now().Add(d), false)
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := cpuSeconds()
	cache1, prep1 := plan.SharedCache().Stats(), plan.PrepareCount()
	if lr != nil {
		lr.endPass(p)
	}
	p.counts["mallocs"] = float64(m1.Mallocs - m0.Mallocs)
	p.counts["bytes"] = float64(m1.TotalAlloc - m0.TotalAlloc)
	p.counts["gc_cpu_s"], p.counts["cpu_s"] = gc1-gc0, cpu1-cpu0
	p.counts["cache_hits"] = float64(cache1.Hits - cache0.Hits)
	p.counts["cache_misses"] = float64(cache1.Misses - cache0.Misses)
	p.counts["prepares"] = float64(prep1 - prep0)
	return p
}

var (
	repairImportOptions = relation.ImportOptions{RepairKey: []string{"K"}, Weight: "W"}
	dirtyImportOptions  = relation.ImportOptions{NullsChoice: true, RepairKey: []string{"K"}, Weight: "W"}
)

// timeImportLayers times the two layers of IMPORT from outside: the CSV
// load and classification (relation.LoadCSV, with its allocations) and
// the registration on a fresh decomposition ((*wsd.WSD).Import).
func timeImportLayers(p *pass, d *dataset, opts relation.ImportOptions) {
	f, err := os.Open(d.path)
	if err != nil {
		p.fail("load "+d.path, err)
		return
	}
	defer f.Close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ip, err := relation.LoadCSV(f, opts)
	p.time("relation.load_csv", time.Since(start))
	runtime.ReadMemStats(&m1)
	if err != nil {
		p.fail("relation.LoadCSV", err)
		return
	}
	p.counts["load_mallocs"] += float64(m1.Mallocs - m0.Mallocs)
	p.counts["load_rows"] += float64(len(d.rows))
	start = time.Now()
	err = wsd.New(true).Import("T", ip)
	p.time("wsd.import", time.Since(start))
	if err != nil {
		p.fail("(*wsd.WSD).Import", err)
	}
}

// layerNames lists the per-layer metrics with their units, in report
// order; stage.<op>.<stage>_ms metrics follow.
var layerNames = [][2]string{
	{"sqlparse.parse_us", "us"},
	{"plan.plan_us", "us"},
	{"plan.cache_hit_ratio", "ratio"},
	{"plan.prepares_per_op", "1/op"},
	{"plan.analyze_ms", "ms"},
	{"core.eval_ms", "ms"},
	{"core.closure_ms", "ms"},
	{"algebra.row_collects_per_op", "1/op"},
	{"algebra.batch_collects_per_op", "1/op"},
	{"algebra.rows_per_result", "ratio"},
	{"server.handle_ms", "ms"},
	{"server.http_rtt_ms", "ms"},
	{"server.tcp_rtt_ms", "ms"},
	{"server.encode_us", "us"},
	{"exec.gate_wait_ms", "ms"},
	{"exec.gate_waited_frac", "ratio"},
	{"wsd.eval_ms", "ms"},
	{"wsd.componentwise_ms", "ms"},
	{"wsd.conditional_ms", "ms"},
	{"wsd.merge_eval_ms", "ms"},
	{"wsd.closure_ms", "ms"},
	{"relation.load_csv_ms", "ms"},
	{"relation.allocs_per_row", "1/row"},
	{"wsd.import_ms", "ms"},
	{"wsd.merges_per_op", "1/op"},
	{"wsd.route_componentwise", "1/round"},
	{"wsd.route_conditional", "1/round"},
	{"wsd.route_merge", "1/round"},
	{"wsd.route_refused", "1/round"},
	{"wsd.components", "count"},
	{"wsd.alternatives", "count"},
	{"wsd.certain_rows", "count"},
	{"go.allocs_per_op", "1/op"},
	{"go.bytes_per_op", "B/op"},
	{"go.gc_cpu_frac", "ratio"},
	{"obs.trace_overhead_frac", "ratio"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics from the untraced reference
// pass ref and the traced pass tp.
func layerMetrics(w workload, ref, tp *pass) map[string]metric {
	v := map[string]float64{}
	// Stage self time per op, by backend, over the wire (or embedded) ops.
	self := map[string]map[string]float64{"naive": {}, "compact": {}}
	byType := map[string]map[string][]float64{}
	var n, rowsMat, rowsAns, rowCollects, batchCollects, tracedMs float64
	traceRoutes := map[string]float64{}
	for _, t := range tp.traces {
		if t.direct {
			continue
		}
		n++
		tracedMs += ms(t.dur)
		st := selfTimes(t.trace)
		for s, x := range st {
			self[t.backend][s] += x
		}
		if byType[t.typ] == nil {
			byType[t.typ] = map[string][]float64{}
		}
		for _, s := range splitStages {
			byType[t.typ][s] = append(byType[t.typ][s], st[s])
		}
		byType[t.typ]["total"] = append(byType[t.typ]["total"], ms(t.dur))
		if t.trace == nil {
			continue
		}
		rowCollects += float64(t.trace.Exec.RowCollects)
		batchCollects += float64(t.trace.Exec.BatchCollects)
		if t.answerRows > 0 {
			rowsMat += float64(t.trace.Exec.Rows)
			rowsAns += float64(t.answerRows)
		}
		for _, a := range t.trace.Attrs {
			if a.Key == "route" {
				traceRoutes[a.Value]++
			}
		}
	}
	perOp := func(backend, stage string) float64 { return ratio(self[backend][stage], n) }
	v["sqlparse.parse_us"] = mean(durationsMs(tp.layers["sqlparse.parse"])) * 1e3
	v["plan.plan_us"] = (perOp("naive", "plan") + perOp("compact", "plan")) * 1e3
	v["plan.cache_hit_ratio"] = ratio(ref.counts["cache_hits"], ref.counts["cache_hits"]+ref.counts["cache_misses"])
	v["plan.prepares_per_op"] = ratio(ref.counts["prepares"], float64(len(ref.ops)))
	v["plan.analyze_ms"] = perOp("compact", "analyze")
	v["core.eval_ms"] = perOp("naive", "eval")
	v["core.closure_ms"] = perOp("naive", "closure")
	v["algebra.row_collects_per_op"] = ratio(rowCollects, n)
	v["algebra.batch_collects_per_op"] = ratio(batchCollects, n)
	v["algebra.rows_per_result"] = ratio(rowsMat, rowsAns)
	v["server.handle_ms"] = mean(durationsMs(tp.layers["server.handle"]))
	v["server.http_rtt_ms"] = mean(durationsMs(tp.layers["server.http_rtt"]))
	v["server.tcp_rtt_ms"] = mean(durationsMs(tp.layers["server.tcp_rtt"]))
	v["server.encode_us"] = (perOp("naive", "encode") + perOp("compact", "encode")) * 1e3
	v["exec.gate_wait_ms"] = ratio(ref.counts["gate_wait_s"], ref.counts["gate_waited"]) * 1e3
	v["exec.gate_waited_frac"] = ratio(ref.counts["gate_waited"], ref.counts["gate_acquires"])
	for _, s := range []string{"eval", "componentwise", "conditional", "merge_eval", "closure"} {
		v["wsd."+s+"_ms"] = perOp("compact", s)
	}
	v["relation.load_csv_ms"] = mean(durationsMs(tp.layers["relation.load_csv"]))
	v["relation.allocs_per_row"] = ratio(tp.counts["load_mallocs"], tp.counts["load_rows"])
	v["wsd.import_ms"] = mean(durationsMs(tp.layers["wsd.import"]))
	v["wsd.merges_per_op"] = ratio(tp.counts["merges"], float64(len(tp.ops)))
	for _, r := range []string{"componentwise", "conditional"} {
		v["wsd.route_"+r] = ratio(tp.counts[r], float64(tp.rounds))
	}
	for _, r := range []string{"merge", "refused"} {
		v["wsd.route_"+r] = ratio(traceRoutes[r], float64(tp.rounds))
	}
	if sh, ok := w.shape()["components"].(int); ok {
		v["wsd.components"] = float64(sh)
		v["wsd.alternatives"] = float64(w.shape()["alternatives"].(int))
		v["wsd.certain_rows"] = float64(w.shape()["certain_rows"].(int))
	}
	v["go.allocs_per_op"] = ratio(ref.counts["mallocs"], float64(len(ref.ops)))
	v["go.bytes_per_op"] = ratio(ref.counts["bytes"], float64(len(ref.ops)))
	v["go.gc_cpu_frac"] = ratio(ref.counts["gc_cpu_s"], ref.counts["cpu_s"])
	v["obs.trace_overhead_frac"] = ratio(ratio(tracedMs, n), mean(ref.latencies(""))) - 1

	out := make(map[string]metric, len(layerNames)+len(opTypes)*(len(splitStages)+1))
	for _, nu := range layerNames {
		out[nu[0]] = metric{v[nu[0]], nu[1]}
	}
	for _, typ := range opTypes {
		for _, s := range append(splitStages, "total") {
			out["stage."+typ+"."+s+"_ms"] = metric{mean(byType[typ][s]), "ms"}
		}
	}
	return out
}
