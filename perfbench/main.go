// Command perfbench is the repository's benchmark: it generates seeded
// inputs, drives three workloads through the public I-SQL surfaces
// (maybms.DB / maybms.CompactDB Exec, and the server over loopback HTTP
// and TCP), checks every answer, and prints one JSON result line.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
//
// With --trace 0 the last line carries the end-to-end metrics, measured
// with tracing off. With --trace 1 it carries the per-layer metrics: half
// the time runs untraced (the reference for counters, allocations and the
// tracing overhead), half traced, with every statement's spans collected
// through ExecTraced / Request.Trace and timers from this package around
// the public layer entry points (sqlparse.Parse, relation.LoadCSV,
// (*wsd.WSD).Import, (*server.Server).Handle, the wire round trip). The
// benchmark adds no spans or counters to the program.
//
// # Workloads
//
// All loops are closed: a client sends its next statement when the
// previous answer arrived. Latency percentiles are over every op of one
// run, counting only complete rounds (a round replays the workload's
// whole statement list once), so every op type has the same weight in
// every run.
//
//   - figures-served: the paper's Figures 1–7, Examples 2.1–2.10 and the
//     whale scenario as I-SQL scripts (DDL, inserts, repair/choice,
//     assert, closures, GROUP WORLDS BY), replayed by 2 clients over
//     loopback, one over HTTP and one over TCP. Every script runs on its
//     own fresh naive session, plus one compact session per round with
//     the statements the compact backend accepts. Why: the inputs are
//     tiny, so parse, the plan cache, the row pipeline, the naive world
//     loop, transport, encode and the admission gate dominate, and
//     closure/componentwise work is negligible.
//   - repair-closure: embedded CompactDB, one client. IMPORT … REPAIR KEY
//     (K) WEIGHT W of a 4000-key × 2-candidate file (4000 components, no
//     certain rows) plus a 2-alternative CHOICE OF table P. A round runs
//     CONF over the whole table, CERTAIN, POSSIBLE, GROUP WORLDS BY
//     (select B from P), a plain per-world SELECT (conditional route) and
//     a shape-preserving UPDATE pair. Why: many answer tuples and no
//     certain part, so the closure fold dominates.
//   - dirty-import: embedded CompactDB, one client. A 10^4-key file with
//     10% conflicting keys (~10^3 components), ~9·10^3 certain rows and 5
//     NULL V cells under NULLS AS CHOICE (each a choice over V's 16-value
//     active domain). A round re-IMPORTs the file into a fresh CompactDB,
//     then runs selective CONF/CERTAIN/POSSIBLE reads, a conditional
//     SELECT, a GROUP WORLDS BY and an UPDATE/DELETE. Why: few answer
//     tuples over a large certain part, so componentwise evaluation, which
//     re-scans the certain part per alternative, dominates and the
//     closure is small; it also exercises bulk ingestion.
//
// Every workload sends every op type, so every end-to-end metric exists
// on every workload; the load op is IMPORT on the compact workloads
// (repair-closure's IMPORTs are its set-up ones) and multi-row INSERT on
// figures-served, because IMPORT is never sent over the server.
//
// # Answer checks
//
// A failed, refused or wrong-answer op counts in "failed". Figures are
// compared with the paper values cmd/repro asserts. Compact reads are
// compared with the generator: every (K, V) confidence is the candidate's
// weight share (so each key's CONF sums to 1), CERTAIN ⊆ POSSIBLE, and
// the IMPORT component and alternative counts match. At set-up every
// compact statement also runs on a 10-key instance of the same generator
// against the naive engine, and the answers must agree.
//
// # Metrics
//
// End-to-end (--trace 0): setup_s (median of 12 set-ups spread over the
// run, each from a collected heap), ops_per_s,
// latency_p50_ms / latency_p90_ms / latency_p99_ms over all ops (p99 has
// at least ten samples beyond it only on figures-served; p90 is the
// supported tail on the compact workloads), the per-type medians
// conf_p50_ms, certain_p50_ms, possible_p50_ms, cond_select_p50_ms,
// dml_p50_ms and group_worlds_p50_ms, import_rows_per_s and heap_live_mb
// (live heap after set-up and a GC). The failure share is failed ÷
// attempted of the result line; it is not a metric because it is 0 when
// the program is correct. The report on standard output gives the sample
// counts.
//
// Per-layer (--trace 1), and the end-to-end metric each should move:
//
//   - sqlparse.parse_us, plan.plan_us, plan.cache_hit_ratio,
//     plan.prepares_per_op, core.eval_ms, core.closure_ms,
//     algebra.row_collects_per_op, algebra.batch_collects_per_op →
//     latency_p50_ms on figures-served; a negligible share elsewhere.
//   - server.handle_ms, server.http_rtt_ms, server.tcp_rtt_ms,
//     server.encode_us, exec.gate_wait_ms, exec.gate_waited_frac (from the
//     /metrics gate families) → latency_p99_ms, ops_per_s on
//     figures-served.
//   - wsd.closure_ms → conf_p50_ms, certain_p50_ms on repair-closure; no
//     move expected on dirty-import.
//   - wsd.componentwise_ms, algebra.rows_per_result (rows the trace's
//     ExecStats reports materialized ÷ answer rows) → possible_p50_ms,
//     conf_p50_ms, certain_p50_ms, cond_select_p50_ms on dirty-import; a
//     small share on repair-closure.
//   - plan.analyze_ms (re-run on every plan-cache hit) →
//     cond_select_p50_ms, group_worlds_p50_ms on repair-closure.
//   - wsd.conditional_ms → cond_select_p50_ms on both compact workloads.
//   - relation.load_csv_ms, relation.allocs_per_row, wsd.import_ms →
//     import_rows_per_s, setup_s on dirty-import.
//   - wsd.merges_per_op (CompactDB.MergeCount growth per op) and the
//     per-round route counts → should stay constant everywhere; a change
//     that silently falls back to merging shows here first.
//     wsd.route_componentwise and wsd.route_conditional are the growth of
//     ComponentwiseCount and ConditionalCount (a served compact session's
//     stats on figures-served); wsd.route_merge and wsd.route_refused
//     count the ops whose trace names that route.
//   - wsd.components, wsd.alternatives, wsd.certain_rows → workload shape
//     only; they never move and size heap_live_mb.
//   - go.allocs_per_op, go.bytes_per_op, go.gc_cpu_frac → ops_per_s on
//     every workload.
//   - obs.trace_overhead_frac (traced vs untraced op latency) → moves
//     nothing; it shows the traced pass measures the same program.
//
// Stage metrics are span self time per op, averaged over every op of the
// traced pass; stage.<op>.<stage>_ms gives the same split for one op type
// (stage.<op>.total_ms is that op's latency). IMPORT and GROUP WORLDS BY
// emit no stage spans: IMPORT is timed as relation.LoadCSV +
// (*wsd.WSD).Import from here, GROUP WORLDS BY is an op total only.
//
// # Stage split at the time the benchmark was defined
//
// Traced pass (--trace 1 --seconds 30 --seed 1) on a 2-vCPU x86-64 VM,
// Go 1.24; shares are of the op's mean latency:
//
//   - repair-closure: CONF (514 ms) is 97% closure, 2.5% componentwise,
//     0.3% analyze; CERTAIN (98 ms) is 82% closure; POSSIBLE (20 ms) is
//     82% componentwise.
//   - dirty-import: POSSIBLE (303 ms) is 95% componentwise, 5% closure;
//     CONF (361 ms) 77% componentwise, 23% closure; the conditional
//     SELECT (299 ms) is 99.8% conditional. Materialized rows per answer
//     row: 2047 (1.8 on repair-closure).
//   - figures-served: per op, wsd.componentwise_ms is 3.7% and
//     wsd.closure_ms 0.5% of latency_p50_ms (0.089 ms), core.closure_ms
//     2.8%; naive eval is 33%, and parse, plan, the wire and encode make
//     up most of the rest (TCP round trip 0.14 ms, HTTP 0.22 ms, Handle
//     0.07 ms).
//   - wsd.merges_per_op is 0 on both compact workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one benchmark workload. setup builds the program state the
// loop runs against; it is timed and repeated, each call replacing the
// previous state.
type workload interface {
	setup() error
	// detach removes the state set-up built and returns it; attach puts it
	// back. A set-up inside the timed pass builds and tears down a second
	// state between the two, so the loop keeps its warm one.
	detach() any
	attach(state any)
	// verify runs once after set-up, outside every timed section.
	verify(p *pass)
	clients() []client
	teardown()
	shape() map[string]any
}

// client runs rounds of a closed loop; each client has its own goroutine
// and pass.
type client interface {
	round(p *pass, traced bool)
}

// layerReporter is implemented by workloads that read counters of their
// own around the reference pass (the server's /metrics).
type layerReporter interface {
	beginPass()
	endPass(p *pass)
}

// setupLoader is implemented by workloads whose load op runs only at
// set-up: the rows it loads and its median latency.
type setupLoader interface {
	setupLoad() (int, time.Duration)
}

// setups is how many times set-up runs in an untraced run: once before
// the timed pass and once at each of setups-1 evenly spaced points inside
// it (the loop pauses meanwhile). setup_s is the median, so it samples the
// machine over the whole run rather than over its first second.
const setups = 12

func newWorkload(name string, rng *rand.Rand, dir string) (workload, error) {
	switch name {
	case "figures-served":
		return newFigures(rng), nil
	case "repair-closure":
		return newRepairClosure(rng, dir)
	case "dirty-import":
		return newDirtyImport(rng, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (want figures-served, repair-closure, dirty-import or all)", name)
}

var allWorkloads = []string{"figures-served", "repair-closure", "dirty-import"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "figures-served, repair-closure, dirty-import or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = allWorkloads
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		res, err := runWorkload(n, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		if len(names) == 1 {
			total = res
			break
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Printf("%s: %s\n", n, line)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[n+"/"+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload sets the workload up, checks it, runs its closed loop and
// returns the result line.
func runWorkload(name string, seed int64, d time.Duration, traced bool) (result, error) {
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(name, rand.New(rand.NewSource(seed)), dir)
	if err != nil {
		return result{}, err
	}
	setupTimes := make([]float64, 0, setups)
	timedSetup := func() error {
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		return nil
	}
	if err := timedSetup(); err != nil {
		return result{}, err
	}
	defer w.teardown()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	shape, _ := json.Marshal(w.shape()) // numbers and strings only: cannot fail
	fmt.Printf("%s seed=%d shape: %s\n", name, seed, shape)

	checks := newPass()
	w.verify(checks)
	warm := runLoop(w, time.Now(), false) // one round per client: caches fill, lazy set-up finishes

	var res result
	var p *pass
	if traced {
		ref := measuredPass(w, d/2)
		p = runLoop(w, time.Now().Add(d/2), true)
		res.Metrics = layerMetrics(w, ref, p)
		p.merge(ref)
	} else {
		p = newPass()
		start := time.Now()
		for i := 0; i < setups; i++ {
			if i > 0 {
				state := w.detach()
				err := timedSetup()
				w.teardown()
				w.attach(state)
				if err != nil {
					return result{}, err
				}
			}
			p.merge(runLoop(w, start.Add(d*time.Duration(i+1)/setups), false))
		}
		if sl, ok := w.(setupLoader); ok {
			rows, d := sl.setupLoad()
			p.loadRows, p.loadDur = p.loadRows+rows, p.loadDur+d
		}
		res.Metrics = endToEnd(p, median(setupTimes), heapMB)
	}
	report(name, p)
	for _, q := range []*pass{checks, warm} {
		p.attempted += q.attempted
		p.failed += q.failed
		p.errs = append(p.errs, q.errs...)
	}
	for _, e := range p.errs {
		fmt.Println("  failure:", e)
	}
	res.Attempted, res.Failed = p.attempted, p.failed
	res.Correct = p.failed == 0
	return res, nil
}

// runLoop runs every client's closed loop on its own goroutine until the
// deadline (at least one round each), counting only complete rounds. Time
// the clients spent in untimed collections (see execOp) is not counted in
// the wall time.
func runLoop(w workload, deadline time.Time, traced bool) *pass {
	cs := w.clients()
	passes := make([]*pass, len(cs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range cs {
		p := newPass()
		passes[i] = p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				c.round(p, traced)
				p.rounds++
			}
		}()
	}
	wg.Wait()
	total := newPass()
	for _, p := range passes {
		total.merge(p)
	}
	total.counts["wall_s"] = time.Since(start).Seconds() - total.counts["gc_s"]
	return total
}

// endToEnd derives the end-to-end metrics of a timed pass.
func endToEnd(p *pass, setupS, heapMB float64) map[string]metric {
	all := p.latencies("")
	m := map[string]metric{
		"setup_s":        {setupS, "s"},
		"ops_per_s":      {float64(len(p.ops)) / p.counts["wall_s"], "1/s"},
		"latency_p50_ms": {median(all), "ms"},
		"latency_p90_ms": {quantile(all, 0.90), "ms"},
		"latency_p99_ms": {quantile(all, 0.99), "ms"},
		"heap_live_mb":   {heapMB, "MB"},
	}
	for _, t := range opTypes {
		m[t+"_p50_ms"] = metric{median(p.latencies(t)), "ms"}
	}
	m["import_rows_per_s"] = metric{float64(p.loadRows) / p.loadDur.Seconds(), "1/s"}
	return m
}

// report prints the human-readable run summary: sample counts and
// per-type medians.
func report(name string, p *pass) {
	counts := map[string]int{}
	for _, o := range p.ops {
		counts[o.typ]++
	}
	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Strings(types)
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d rounds, %d ops (", name, p.rounds, len(p.ops))
	for i, t := range types {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d @ p50 %.3f ms", t, counts[t], median(p.latencies(t)))
	}
	b.WriteString(")")
	fmt.Println(b.String())
}
