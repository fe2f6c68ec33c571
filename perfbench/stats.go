package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Op types. Every statement a workload sends is one op of one type; the
// per-type medians are end-to-end metrics.
const (
	opConf        = "conf"         // SELECT …, CONF
	opCertain     = "certain"      // SELECT CERTAIN
	opPossible    = "possible"     // SELECT POSSIBLE
	opCondSelect  = "cond_select"  // plain per-world SELECT
	opGroupWorlds = "group_worlds" // SELECT … GROUP WORLDS BY
	opDML         = "dml"          // UPDATE / DELETE
	opLoad        = "load"         // IMPORT, or multi-row INSERT over the wire
	opOther       = "other"        // DDL, repair/choice, assert, session close
)

// opTypes lists the op types with a median metric, in report order.
var opTypes = []string{opConf, opCertain, opPossible, opCondSelect, opGroupWorlds, opDML}

// op is one completed statement: its type and its latency as the client
// saw it.
type op struct {
	typ string
	dur time.Duration
}

// pass accumulates the outcome of one closed-loop pass of one client.
type pass struct {
	ops       []op
	attempted int
	failed    int
	rounds    int
	// loadRows and loadDur sum the rows loaded by, and the latency of,
	// the load ops.
	loadRows int
	loadDur  time.Duration
	errs     []string

	// Traced pass only.
	traces []tracedOp
	layers map[string][]time.Duration // outside timers around layer entry points
	counts map[string]float64         // outside counters (allocations, merges…)
}

func newPass() *pass {
	return &pass{layers: map[string][]time.Duration{}, counts: map[string]float64{}}
}

// record adds a finished op; err (a failure, a refusal or a wrong answer)
// marks it failed.
func (p *pass) record(typ, stmt string, d time.Duration, err error) {
	p.attempted++
	p.ops = append(p.ops, op{typ, d})
	if err != nil {
		p.fail(stmt, err)
	}
}

func (p *pass) fail(stmt string, err error) {
	p.failed++
	if len(p.errs) < 5 {
		if len(stmt) > 120 {
			stmt = stmt[:120] + "…"
		}
		p.errs = append(p.errs, fmt.Sprintf("%s: %v", strings.Join(strings.Fields(stmt), " "), err))
	}
}

func (p *pass) time(layer string, d time.Duration) { p.layers[layer] = append(p.layers[layer], d) }

// merge folds q (another client's pass) into p.
func (p *pass) merge(q *pass) {
	p.ops = append(p.ops, q.ops...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.rounds += q.rounds
	p.loadRows += q.loadRows
	p.loadDur += q.loadDur
	p.errs = append(p.errs, q.errs...)
	p.traces = append(p.traces, q.traces...)
	for k, v := range q.layers {
		p.layers[k] = append(p.layers[k], v...)
	}
	for k, v := range q.counts {
		p.counts[k] += v
	}
}

// quantile returns the q-quantile of xs with linear interpolation
// between order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the latencies in ms of the ops of type typ ("" for
// all).
func (p *pass) latencies(typ string) []float64 {
	var out []float64
	for _, o := range p.ops {
		if typ == "" || o.typ == typ {
			out = append(out, ms(o.dur))
		}
	}
	return out
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
