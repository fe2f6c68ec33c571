package wsd

// Statement-level query execution over the decomposition: compiled plans
// (through the process-wide shared plan cache), component-touch analysis,
// and routing between the merge-free componentwise path and the classic
// bounded component merge. internal/server's compact backend and the
// public CompactDB API are thin wrappers over this file.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"maybms/internal/algebra"
	"maybms/internal/colbatch"
	"maybms/internal/expr"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/worldset"
)

// Closure selects the world-closing operation applied to a SELECT's
// per-world answers.
type Closure int

// The closures.
const (
	ClosureNone Closure = iota
	ClosurePossible
	ClosureCertain
	ClosureConf
	// ClosureApproxConf is APPROX CONF: exact confidences whenever the
	// exact routing succeeds, with a seeded Monte-Carlo estimate as the
	// escape hatch when the classic path's component merge would exceed
	// MergeLimit (where plain CONF fails with ErrMergeTooBig).
	ClosureApproxConf
)

// IsConf reports whether the closure computes confidences (exactly or
// approximately); such closures require a weighted decomposition.
func (c Closure) IsConf() bool { return c == ClosureConf || c == ClosureApproxConf }

// Errors reported by statement execution.
var (
	// ErrPerWorld reports a plain SELECT (no closure) whose answer varies
	// across worlds: the compact representation cannot enumerate per-world
	// answers without expanding.
	ErrPerWorld = errors.New("per-world answers over uncertain relations (close with possible, certain or conf)")
	// ErrConfUnweighted reports CONF on a non-probabilistic decomposition.
	ErrConfUnweighted = errors.New("conf requires a weighted decomposition")
)

// StripClosure splits an I-SQL SELECT into its plain-SQL core and the
// closure it requests. It rejects multiple conf items and conf combined
// with a quantifier; repair/choice/assert/group-worlds-by are not this
// function's business and must be handled (or rejected) by the caller.
func StripClosure(st *sqlparse.SelectStmt) (*sqlparse.SelectStmt, Closure, error) {
	cl := ClosureNone
	switch st.Quantifier {
	case sqlparse.QuantPossible:
		cl = ClosurePossible
	case sqlparse.QuantCertain:
		cl = ClosureCertain
	}
	items := make([]sqlparse.SelectItem, 0, len(st.Items))
	for _, it := range st.Items {
		if ce, ok := it.Expr.(sqlparse.ConfExpr); ok {
			if cl.IsConf() {
				return nil, 0, fmt.Errorf("at most one conf item is allowed")
			}
			if cl != ClosureNone {
				return nil, 0, fmt.Errorf("conf cannot be combined with %s", st.Quantifier)
			}
			if ce.Approx {
				cl = ClosureApproxConf
			} else {
				cl = ClosureConf
			}
			continue
		}
		items = append(items, it)
	}
	core := *st
	core.Quantifier = sqlparse.QuantNone
	core.Items = items
	return &core, cl, nil
}

// Route metrics: one counter per routing decision, incremented once per
// statement, plus merge/approx cardinality telemetry. Exposed on /metrics.
var (
	routeSingle = obs.Default().Counter(`maybms_route_total{route="single"}`,
		"Statements by routing decision (single = world-independent, componentwise = merge-free, conditional = d-tree fold or conditional relation, merge = bounded partial expansion, approx_mc = Monte-Carlo CONF, refused = ErrPerWorld).")
	routeComponentwise = obs.Default().Counter(`maybms_route_total{route="componentwise"}`, "")
	routeConditional   = obs.Default().Counter(`maybms_route_total{route="conditional"}`, "")
	routeMerge         = obs.Default().Counter(`maybms_route_total{route="merge"}`, "")
	routeApproxMC      = obs.Default().Counter(`maybms_route_total{route="approx_mc"}`, "")
	routeRefused       = obs.Default().Counter(`maybms_route_total{route="refused"}`, "")
	mergeAlternatives  = obs.Default().Histogram("maybms_merge_alternatives",
		"Alternatives produced by component merges on the classic path.", obs.CardinalityBuckets)
	approxSamples = obs.Default().Counter("maybms_approx_samples_total",
		"Monte-Carlo world samples drawn by APPROX CONF.")
)

// collect drains an operator, polling the decomposition's Interrupt hook
// from inside the long-running iterators (see internal/algebra) and
// accumulating per-alternative evaluation stats when a trace is installed.
func (d *WSD) collect(op algebra.Operator) (*relation.Relation, error) {
	var root *expr.Context
	if d.Interrupt != nil || d.Trace != nil {
		root = &expr.Context{Interrupt: d.Interrupt, Stats: d.Trace.Stats()}
	}
	return algebra.Collect(op, root)
}

// collectBatch is collect's batch-native twin: it drains the operator
// through algebra.CollectBatch, keeping vectorized results columnar past
// the seam (row evaluations come back as zero-copy row-backed batches).
func (d *WSD) collectBatch(op algebra.Operator) (*colbatch.Batch, error) {
	var root *expr.Context
	if d.Interrupt != nil || d.Trace != nil {
		root = &expr.Context{Interrupt: d.Interrupt, Stats: d.Trace.Stats()}
	}
	return algebra.CollectBatch(op, root)
}

// schemaCatalog exposes the decomposition's relation schemas (over empty
// relations) as a compile target: planning needs names and columns only,
// and the compiled template is stripped of tuples anyway.
func (d *WSD) schemaCatalog() plan.Catalog {
	return plan.CatalogFunc(func(name string) (*relation.Relation, error) {
		sch, err := d.Schema(name)
		if err != nil {
			return nil, err
		}
		return relation.New(sch), nil
	})
}

// SchemaFingerprint hashes the decomposition's catalog shape, mirroring
// world.SchemaFingerprint for the compact engine: it keys the process-wide
// shared plan cache, so compact sessions over identical schemas share
// compiled templates.
func (d *WSD) SchemaFingerprint() uint64 {
	h := fnv.New64a()
	for _, n := range d.Names() { // sorted
		sch, _ := d.Schema(n)
		fmt.Fprintf(h, "%s=%s;", strings.ToLower(n), sch)
	}
	return h.Sum64()
}

// sharedTemplate returns the template under key from the process-wide
// shared plan cache when it still validates, else compiles and caches a
// fresh one. A stale or fingerprint-colliding entry degrades to a
// recompile, never a wrong answer. Lookups are attributed to d (per-session
// hit/miss counters) and to d.Trace when a statement trace is installed.
func sharedTemplate[T any](d *WSD, key string, valid func(T) bool, compile func() (T, error)) (T, error) {
	sp := d.Trace.Begin("plan")
	defer sp.End(d.Trace)
	if v, ok := plan.SharedCache().Get(key); ok {
		if p, ok := v.(T); ok && valid(p) {
			d.planHits.Add(1)
			sp.Set("cache", "hit")
			return p, nil
		}
	}
	d.planMisses.Add(1)
	sp.Set("cache", "miss")
	p, err := compile()
	if err != nil {
		var zero T
		return zero, err
	}
	plan.SharedCache().Put(key, p)
	return p, nil
}

// evaluator binds a compiled template per catalog (falling back to
// per-catalog compilation on a failed bind, which preserves exactness) and
// drains it on either side of the Collect seam: rel materializes row tuples
// — the currency of the merge and per-world paths — while batch returns the
// columnar CollectBatch result the closure builders consume natively. With
// the batch-native seam disabled (SetBatchClosure), batch degrades to rel
// plus a zero-copy row-backed wrapper — the ablation baseline.
type evaluator struct {
	d    *WSD
	prep *plan.Prepared
	sel  *sqlparse.SelectStmt
}

func (e evaluator) bind(cat plan.Catalog) (algebra.Operator, error) {
	op, err := e.prep.Bind(cat)
	if err != nil {
		if !errors.Is(err, plan.ErrRebind) {
			return nil, err
		}
		return plan.Build(e.sel, cat)
	}
	return op, nil
}

func (e evaluator) rel(cat plan.Catalog) (*relation.Relation, error) {
	op, err := e.bind(cat)
	if err != nil {
		return nil, err
	}
	return e.d.collect(op)
}

func (e evaluator) batch(cat plan.Catalog) (*colbatch.Batch, error) {
	op, err := e.bind(cat)
	if err != nil {
		return nil, err
	}
	if !batchClosureOn.Load() {
		res, err := e.d.collect(op)
		if err != nil {
			return nil, err
		}
		return colbatch.FromRowsShared(res.Schema, res.Rows()), nil
	}
	return e.d.collectBatch(op)
}

// prepared compiles sel once — through the process-wide shared plan cache,
// keyed like the naive engine's templates — and returns the template plus
// the evaluator that binds it per catalog.
func (d *WSD) prepared(sel *sqlparse.SelectStmt) (*plan.Prepared, evaluator, error) {
	compileCat := d.schemaCatalog()
	prep, err := sharedTemplate(d,
		fmt.Sprintf("cq\x00%s\x00%x", sel.String(), d.SchemaFingerprint()),
		func(p *plan.Prepared) bool { _, err := p.Bind(compileCat); return err == nil },
		func() (*plan.Prepared, error) { return plan.Prepare(sel, compileCat) })
	if err != nil {
		return nil, evaluator{}, err
	}
	return prep, evaluator{d: d, prep: prep, sel: sel}, nil
}

// AssertStmt filters the world-set by an ASSERT condition (an I-SQL-free
// boolean expression). The condition compiles once through the process-wide
// shared plan cache — keyed like SELECT templates, under a distinct prefix
// — and is bound per alternative of the merged involved components, with
// the Interrupt hook threaded into its subquery evaluations. The uncertain
// relations the condition reads are derived from the condition itself;
// touching may list extras (a superset is harmless) and may be nil.
func (d *WSD) AssertStmt(e sqlparse.Expr, touching []string) error {
	touching = append(append([]string(nil), touching...),
		sqlparse.ReferencedTables(&sqlparse.SelectStmt{Where: e, Limit: -1})...)
	compileCat := d.schemaCatalog()
	pp, err := sharedTemplate(d,
		fmt.Sprintf("ca\x00%s\x00%x", e.String(), d.SchemaFingerprint()),
		func(p *plan.PreparedPredicate) bool { _, err := p.Bind(compileCat); return err == nil },
		func() (*plan.PreparedPredicate, error) { return plan.PreparePredicate(e, compileCat) })
	if err != nil {
		return err
	}
	return d.Assert(touching, func(cat plan.Catalog) (bool, error) {
		pred, err := pp.BindInterrupt(cat, d.Interrupt)
		if err != nil {
			if !errors.Is(err, plan.ErrRebind) {
				return false, err
			}
			pred, err = plan.BuildPredicateInterrupt(e, cat, d.Interrupt)
			if err != nil {
				return false, err
			}
		}
		return pred()
	})
}

// analyze runs the planner's component-touch analysis on a compiled
// template against this decomposition (component IDs are indexes into the
// component list, valid until the next restructuring operation).
func (d *WSD) analyze(prep *plan.Prepared) (*plan.ComponentAnalysis, error) {
	return prep.Analyze(plan.ComponentCatalogFunc(d.ComponentsFor))
}

// SelectClosure evaluates the plain-SQL core of a SELECT under the given
// closure, against the represented world-set:
//
//   - a core touching no component is evaluated once;
//   - a core touching components is closed over per-alternative answers —
//     via the componentwise path (no merge, Σ alternatives evaluations,
//     decomposition untouched) whenever the compiled plan is
//     monotone-decomposable, else by merging exactly the involved
//     components (bounded by MergeLimit);
//   - ClosureNone requires a world-independent answer and fails with
//     ErrPerWorld otherwise, without merging anything.
//
// Results are identical between the componentwise and merge paths — order
// included — and match the naive engine's closure over the expanded
// world-set.
func (d *WSD) SelectClosure(core *sqlparse.SelectStmt, cl Closure) (*relation.Relation, error) {
	if cl.IsConf() && !d.Weighted {
		return nil, ErrConfUnweighted
	}
	prep, ev, err := d.prepared(core)
	if err != nil {
		return nil, err
	}
	asp := d.Trace.Begin("analyze")
	an, err := d.analyze(prep)
	if err != nil {
		asp.End(d.Trace)
		return nil, err
	}
	asp.Set("components", len(an.Comps))
	asp.Set("decomposable", an.Decomposable)
	asp.End(d.Trace)

	// World-independent core: one evaluation, every closure is (at most) a
	// dedup of it.
	if len(an.Comps) == 0 {
		routeSingle.Inc()
		d.Trace.Set("route", "single")
		sp := d.Trace.Begin("eval")
		defer sp.End(d.Trace)
		res, err := ev.rel(newPartsCatalog(d, nil))
		if err != nil {
			return nil, err
		}
		switch cl {
		case ClosureNone:
			return res, nil
		case ClosurePossible:
			return worldset.PossibleWorkers([]*relation.Relation{res}, d.Workers, d.Interrupt)
		case ClosureCertain:
			return worldset.CertainWorkers([]*relation.Relation{res}, d.Workers, d.Interrupt)
		default:
			return worldset.ConfWorkers([]*relation.Relation{res}, []float64{1}, d.Workers, d.Interrupt)
		}
	}

	if cl == ClosureNone {
		if d.DisableComponentwise {
			// Reproduce the classic routing faithfully: merge the involved
			// components, then notice whether one alternative remains.
			results, _, err := d.queryMerged(an.Comps, ev.rel)
			if err != nil {
				return nil, err
			}
			if len(results) > 1 {
				routeRefused.Inc()
				d.Trace.Set("route", "refused")
				return nil, d.perWorldError(core)
			}
			return results[0], nil
		}
		// When every involved component has a single remaining alternative
		// (singleton key groups, or asserts narrowed the choices away) the
		// answer is world-independent after all: evaluate that one world
		// directly — the classic path merged first and then noticed it had
		// one alternative. With tree structure a singleton component's
		// *activity* still varies, so that shortcut only applies to flat
		// involvement.
		if !d.treeInvolved(an.Comps) {
			allSingleton := true
			for _, ci := range an.Comps {
				if len(d.comps[ci].Alts) != 1 {
					allSingleton = false
					break
				}
			}
			if allSingleton {
				sel := make(map[int]int, len(an.Comps))
				for _, ci := range an.Comps {
					sel[ci] = 0
				}
				routeSingle.Inc()
				d.Trace.Set("route", "single")
				sp := d.Trace.Begin("eval")
				defer sp.End(d.Trace)
				return ev.rel(newPartsCatalog(d, sel))
			}
		}
		// A concat-structured plan's per-world answers are compactly
		// representable: answer as a conditional relation (trailing `cond`
		// column; see conditionalRelation) instead of refusing.
		if an.Concat {
			routeConditional.Inc()
			d.Trace.Set("route", "conditional")
			sp := d.Trace.Begin("conditional")
			sp.Set("components", len(an.Comps))
			sp.Set("conditional_splits", d.nestedAmong(d.rootClosure(an.Comps)))
			res, err := d.conditionalRelation(an.Comps, ev.batch)
			sp.End(d.Trace)
			if err == nil {
				d.conditional.Add(1)
				return res, nil
			}
			if !errors.Is(err, errNotConcat) {
				return nil, err
			}
			// Structural analysis promised a certain-prefixed answer but the
			// evaluation disagreed; refuse rather than answer wrongly.
		}
		routeRefused.Inc()
		d.Trace.Set("route", "refused")
		return nil, d.perWorldError(core)
	}

	// The merge-free fast path: closures from per-alternative part
	// evaluations. A single component is handled by the same code — there
	// the classic path would not have merged either, but the parts path
	// also skips the (noop) restructuring. Tree-involved components take
	// the conditional fold (conditional.go) — the same Σ-sizes shape with
	// activity-aware weighting; flat decompositions never reach it.
	if an.Decomposable && !d.DisableComponentwise {
		if d.treeInvolved(an.Comps) {
			routeConditional.Inc()
			d.Trace.Set("route", "conditional")
			sp := d.Trace.Begin("conditional")
			sp.Set("components", len(an.Comps))
			sp.Set("conditional_splits", d.nestedAmong(d.rootClosure(an.Comps)))
			cp, err := d.queryConditional(an.Comps, ev.batch)
			sp.End(d.Trace)
			if err != nil {
				return nil, err
			}
			d.conditional.Add(1)
			csp := d.Trace.Begin("closure")
			defer csp.End(d.Trace)
			if cl == ClosurePossible {
				return cp.possible()
			}
			if cl == ClosureCertain {
				return cp.certain()
			}
			return cp.conf()
		}
		routeComponentwise.Inc()
		d.Trace.Set("route", "componentwise")
		sp := d.Trace.Begin("componentwise")
		sp.Set("components", len(an.Comps))
		parts, err := d.QueryByComponent(an.Comps, true, false, ev.batch)
		sp.End(d.Trace)
		if err != nil {
			return nil, err
		}
		d.componentwise.Add(1)
		csp := d.Trace.Begin("closure")
		defer csp.End(d.Trace)
		switch cl {
		case ClosurePossible:
			return possibleFromParts(parts)
		case ClosureCertain:
			return certainFromParts(parts)
		default:
			return confFromParts(parts)
		}
	}

	// Classic path: merge exactly the involved components (bounded partial
	// expansion), evaluate per merged alternative, close. APPROX CONF — and
	// only it — survives a merge past MergeLimit by switching to the seeded
	// Monte-Carlo estimator instead of failing with ErrMergeTooBig.
	msp := d.Trace.Begin("merge_eval")
	msp.Set("components", len(an.Comps))
	results, probs, err := d.queryMerged(an.Comps, ev.rel)
	if err != nil {
		msp.End(d.Trace)
		if cl == ClosureApproxConf && errors.Is(err, ErrMergeTooBig) {
			routeApproxMC.Inc()
			d.Trace.Set("route", "approx_mc")
			return d.confMonteCarlo(an.Comps, ev.batch)
		}
		return nil, err
	}
	routeMerge.Inc()
	d.Trace.Set("route", "merge")
	mergeAlternatives.Observe(float64(len(results)))
	msp.Set("alternatives", len(results))
	msp.Set("merge_limit", d.MergeLimit)
	msp.End(d.Trace)
	csp := d.Trace.Begin("closure")
	defer csp.End(d.Trace)
	switch cl {
	case ClosurePossible:
		return worldset.PossibleWorkers(results, d.Workers, d.Interrupt)
	case ClosureCertain:
		return worldset.CertainWorkers(results, d.Workers, d.Interrupt)
	default:
		return worldset.ConfWorkers(results, probs, d.Workers, d.Interrupt)
	}
}

// CreateTableAs materializes the plain-SQL core of a SELECT as relation
// dst. A core touching no component becomes a certain relation; a
// concat-structured decomposable core is stored componentwise (certain
// part plus per-alternative contributions — no merge, linear size);
// anything else merges the involved components and stores one instance per
// merged alternative, exactly as before.
func (d *WSD) CreateTableAs(dst string, core *sqlparse.SelectStmt) error {
	prep, ev, err := d.prepared(core)
	if err != nil {
		return err
	}
	an, err := d.analyze(prep)
	if err != nil {
		return err
	}
	if len(an.Comps) == 0 {
		res, err := ev.rel(newPartsCatalog(d, nil))
		if err != nil {
			return err
		}
		return d.PutCertain(dst, res.WithSchema(res.Schema.Unqualify()))
	}
	if an.Concat && !d.DisableComponentwise {
		err := d.materializeByComponent(dst, an.Comps, ev.batch)
		if err == nil {
			d.componentwise.Add(1)
			return nil
		}
		if !errors.Is(err, errNotConcat) {
			return err
		}
		// Structural analysis promised a certain-prefixed answer but the
		// evaluation disagreed; fall back to the merge path for safety.
	}
	return d.materializeMerged(dst, an.Comps, ev.rel)
}

// RepairByKeyQuery creates dst as the repair of a plain-SQL source query
// — REPAIR BY KEY over a filtered or projected source. The source is
// materialized transiently (componentwise when its plan decomposes, so an
// uncertain source's contributions ride the feeding alternatives) and the
// usual split applies: each feeding alternative nests its conditional
// key-group repairs as child components. The transient source is removed
// afterwards; only dst remains.
//
// The naive engine splits the FROM/WHERE rows and projects per world
// afterwards, so the key and weight may name source columns outside the
// select list (`select A, B, C from R repair by key A weight D`). A plain
// projection commutes with the split, so materializing project-then-split
// gives the same worlds — any key/weight column missing from the select
// list is carried through the transient materialization and stripped from
// dst after the split.
func (d *WSD) RepairByKeyQuery(core *sqlparse.SelectStmt, dst string, key []string, weight string) error {
	need := append(append([]string{}, key...), weight)
	tmp, extra, err := d.materializeSource(core, dst, need)
	if err != nil {
		return err
	}
	err = d.RepairByKey(tmp, dst, key, weight)
	d.dropDerived(tmp)
	if err == nil && extra > 0 {
		d.projectOutTrailing(dst, extra)
	}
	return err
}

// ChoiceOfQuery creates dst as the choice-of partitioning of a plain-SQL
// source query; see RepairByKeyQuery for the materialization scheme.
func (d *WSD) ChoiceOfQuery(core *sqlparse.SelectStmt, dst string, attrs []string, weight string) error {
	need := append(append([]string{}, attrs...), weight)
	tmp, extra, err := d.materializeSource(core, dst, need)
	if err != nil {
		return err
	}
	err = d.ChoiceOf(tmp, dst, attrs, weight)
	d.dropDerived(tmp)
	if err == nil && extra > 0 {
		d.projectOutTrailing(dst, extra)
	}
	return err
}

// SplitSourceBlocker names the construct that stops a repair/choice query
// source from commuting with the split, or "" when the source is
// split-safe. The split applies to the source *rows* (the naive engine
// splits the FROM/WHERE intermediate and evaluates the rest per world), so
// a row-wise projection can be materialized first with identical worlds —
// but constructs that look across rows cannot, and are refused rather than
// silently answered with different worlds than the naive engine.
func SplitSourceBlocker(core *sqlparse.SelectStmt) string {
	switch {
	case core.Distinct:
		return "DISTINCT"
	case len(core.GroupBy) > 0:
		return "GROUP BY"
	case core.Having != nil:
		return "HAVING"
	case core.Union != nil:
		return "UNION"
	case len(core.OrderBy) > 0:
		return "ORDER BY"
	case core.Limit >= 0:
		return "LIMIT"
	}
	for _, it := range core.Items {
		if exprAggregates(it.Expr) {
			return "aggregates"
		}
	}
	return ""
}

// exprAggregates reports whether e applies an aggregate to the statement's
// own rows. Subqueries don't count: their aggregates close over their own
// FROM, so the enclosing item stays row-wise.
func exprAggregates(e sqlparse.Expr) bool {
	switch n := e.(type) {
	case sqlparse.FuncCall:
		return true // the dialect's only functions are the aggregates
	case sqlparse.BinaryExpr:
		return exprAggregates(n.L) || exprAggregates(n.R)
	case sqlparse.UnaryExpr:
		return exprAggregates(n.E)
	case sqlparse.IsNullExpr:
		return exprAggregates(n.E)
	}
	return false
}

// materializeSource stores a split statement's query source under a
// transient name derived from dst, after verifying dst itself is free and
// that the source commutes with the split. Columns in need that the select
// list doesn't expose are appended to the materialized projection; the
// returned count tells the caller how many trailing columns to strip from
// the split result.
func (d *WSD) materializeSource(core *sqlparse.SelectStmt, dst string, need []string) (string, int, error) {
	if c := SplitSourceBlocker(core); c != "" {
		return "", 0, fmt.Errorf("repair/choice over a query source using %s: the split applies to the source rows, so the source must be a row-wise projection (materialize it first with CREATE TABLE AS)", c)
	}
	if _, ok := d.schemas[key(dst)]; ok {
		return "", 0, fmt.Errorf("%w: %s", ErrExists, dst)
	}
	tmp := "__src__" + dst
	if _, ok := d.schemas[key(tmp)]; ok {
		return "", 0, fmt.Errorf("%w: %s", ErrExists, tmp)
	}
	q, extra := extendProjection(core, need)
	if err := d.CreateTableAs(tmp, q); err != nil {
		return "", 0, err
	}
	return tmp, extra, nil
}

// extendProjection returns core with every column of need missing from its
// select list appended as a trailing item, plus the number appended. A
// star item exposes the source columns already, so nothing is appended.
func extendProjection(core *sqlparse.SelectStmt, need []string) (*sqlparse.SelectStmt, int) {
	outs := map[string]bool{}
	for _, it := range core.Items {
		if _, ok := it.Expr.(sqlparse.Star); ok {
			return core, 0
		}
		switch {
		case it.Alias != "":
			outs[strings.ToLower(it.Alias)] = true
		default:
			if cr, ok := it.Expr.(sqlparse.ColumnRef); ok {
				outs[strings.ToLower(cr.Name)] = true
			}
		}
	}
	q := *core
	q.Items = append([]sqlparse.SelectItem{}, core.Items...)
	extra := 0
	for _, col := range need {
		if col == "" || outs[strings.ToLower(col)] {
			continue
		}
		outs[strings.ToLower(col)] = true
		q.Items = append(q.Items, sqlparse.SelectItem{Expr: sqlparse.ColumnRef{Name: col}})
		extra++
	}
	return &q, extra
}

// projectOutTrailing drops relation name's last n columns everywhere it is
// stored — schema, certain part, every alternative's contribution. Used to
// strip the key/weight columns a split carried through the transient
// source beyond the statement's own select list.
func (d *WSD) projectOutTrailing(name string, n int) {
	k := key(name)
	sch := d.schemas[k]
	keep := make([]int, sch.Len()-n)
	for i := range keep {
		keep[i] = i
	}
	d.schemas[k] = sch.Project(keep)
	if r, ok := d.certain[k]; ok {
		pr := relation.New(d.schemas[k])
		for _, t := range r.Rows() {
			pr.MustAppend(t.Project(keep))
		}
		d.certain[k] = pr
	}
	for _, c := range d.comps {
		for i := range c.Alts {
			contrib, ok := c.Alts[i].Contrib[k]
			if !ok {
				continue
			}
			out := make([]tuple.Tuple, contrib.Len())
			for j, t := range contrib.Rows() {
				out[j] = t.Project(keep)
			}
			c.Alts[i].Contrib[k] = relation.FromRowsShared(d.schemas[k], out)
		}
	}
}

// dropDerived removes a relation — certain part, schema, and every
// component contribution — without restructuring components. Safe only
// when the remaining components' worlds are still meaningful without it
// (the transient sources of the *Query split forms: their feeders carry
// their own relations, and the split's children carry dst).
func (d *WSD) dropDerived(name string) {
	k := key(name)
	delete(d.certain, k)
	for _, c := range d.comps {
		for i := range c.Alts {
			delete(c.Alts[i].Contrib, k)
		}
	}
	d.unregister(name)
}

// CreateTableAsClosure materializes `SELECT <closure core> [GROUP WORLDS
// BY (gw)]` as relation dst — the statement form the naive engine runs as
// CREATE TABLE AS over a closed (and possibly world-grouped) query.
//
// Without grouping the closed answer is world-independent by definition,
// so dst becomes a certain relation holding the closure (computed with
// the usual routing: componentwise for decomposable plans, bounded merge
// otherwise). With GROUP WORLDS BY every world's dst instance is its
// group's closed answer; the result is stored factorized — one copy per
// group, referenced by each alternative of the (possibly merged) grouping
// component (see materializeGrouped).
func (d *WSD) CreateTableAsClosure(dst string, core *sqlparse.SelectStmt, cl Closure, gw *sqlparse.SelectStmt) error {
	if _, ok := d.schemas[key(dst)]; ok {
		return fmt.Errorf("%w: %s", ErrExists, dst)
	}
	if cl.IsConf() && !d.Weighted {
		return ErrConfUnweighted
	}
	if gw != nil {
		if cl == ClosureNone {
			return fmt.Errorf("group worlds by requires possible, certain or conf")
		}
		return d.materializeGrouped(dst, gw, core, cl)
	}
	rel, err := d.SelectClosure(core, cl)
	if err != nil {
		return err
	}
	return d.PutCertain(dst, rel.WithSchema(rel.Schema.Unqualify()))
}
