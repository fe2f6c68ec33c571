package wsd

// Componentwise (merge-free) query evaluation. For a query whose compiled
// plan is monotone-decomposable over the components it touches (see
// internal/plan's component-touch analysis), each world's answer is
//
//	Q(world(a1,…,ak)) = Q(cert) ∪ Q_c1(a1) ∪ … ∪ Q_ck(ak)
//
// so the possible/certain/conf closures over *all* represented worlds can
// be computed from Σ_c |Alts(c)| single-alternative evaluations — never the
// Π_c |Alts(c)| alternatives a component merge would produce, and without
// mutating the decomposition at all.
//
// Every consumer reads one representation (componentParts): a base answer
// plus, per (component, alternative), only the rows beyond it.
//
//   - Linear plans (plan.ComponentAnalysis.Linear) evaluate the base
//     Q(cert) once and each alternative against a delta catalog that serves
//     its own contributions in place of the uncertain tables, so the stage
//     costs O(|cert| + Σ|Δ|) rather than O(|cert| · Σ alternatives).
//   - Other concat plans evaluate every part in full and slice off the
//     base prefix, after checking that each part really starts with it.
//   - Other decomposable plans keep no base (nil) and full parts; the
//     closures then evaluate the first world separately.
//
// The closures reproduce the naive engine's answer order exactly. The
// naive engine closes over per-world answers in mixed-radix world order
// (the last component varies fastest; see Expand and core's repair
// odometer), deduplicating by first appearance. Under the decomposition
// identity, the only worlds contributing *new* tuples to that fold are the
// first world (all components at their first alternative) and the
// single-deviation worlds (one component at alternative a ≥ 2, all others
// first), whose positions sort by reverse component order with
// alternatives ascending. The componentwise closures therefore emit the
// first world's answer — the base followed by every component's first
// suffix, in component order, which is the concat structure — then walk
// the remaining alternatives of each component from the last involved
// component to the first. A deviation world's full answer is the base
// (already emitted) followed by its suffix, so its new tuples are the
// suffix's, in the suffix's order.
//
// Part answers are colbatch batches (the batch-native closure seam; see
// batchclosure.go): the closures dedup on AppendKey arena keys — the same
// byte space as tuple.Encode, so first-appearance order, grouping and
// hash-collision behavior are untouched — and assemble their output by
// column-wise gather, materializing rows once at the end.
//
// CERTAIN and CONF need, per answer tuple, the (component, alternative)
// parts that contain it. A base tuple is in every part: it is certain, and
// its confidence is the constant 1 − Π_c (1 − Σ_a p_{c,a}), computed once.
// For the other tuples a posting index records the pairs whose suffix
// holds them while interning the suffix rows, and each tuple is folded
// over its own postings: CONF multiplies miss ·= 1 − p_c over the
// components that hold the tuple, CERTAIN asks whether one of them lists
// it under every alternative. The closure therefore costs O(|base| +
// Σ|Δ|), not O(tuples × Σ alternatives). The confidences are bit-identical
// to the dense fold over every component and full part:
//
//   - a component without the tuple has p_c = 0 and multiplies miss by
//     1 − 0 = 1.0 exactly, so skipping it changes no bit as long as the
//     remaining factors keep component order and each p_c keeps
//     alternative order;
//   - a tuple outside the base is in a full part iff it is in its suffix,
//     so its postings are the ones the full parts would give;
//   - a base tuple would be posted under every alternative of every
//     component, so the dense fold computes, per tuple, exactly the
//     base constant — the same sums in the same order, with the same
//     single-component shortcut (Σ_a p) and the same clamp at 1.

import (
	"errors"
	"fmt"
	"sort"

	"maybms/internal/algebra"
	"maybms/internal/colbatch"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/tuple"
)

// errNotConcat reports that a part evaluation was not certain-prefixed, so
// a componentwise materialization would store wrong per-world tuple order;
// callers fall back to the merge path.
var errNotConcat = errors.New("componentwise materialization requires certain-prefixed answers")

// partsCatalog exposes the certain database plus the contributions of a
// chosen alternative per selected component, as a plan.Catalog. Components
// not selected contribute nothing (their relations show only the certain
// part). Contributions are appended in component order, matching the
// per-world relation order of the merge path and the naive engine.
type partsCatalog struct {
	d     *WSD
	sel   map[int]int // component index → alternative index
	order []int       // sel's keys, ascending (the contribution order)
}

// newPartsCatalog builds a catalog over the given selection. The lookup
// cost is O(|sel|) per table, not O(components) — part evaluations select
// a single component, so scanning the whole component list per lookup
// would make componentwise evaluation quadratic in the component count.
func newPartsCatalog(d *WSD, sel map[int]int) partsCatalog {
	order := make([]int, 0, len(sel))
	for ci := range sel {
		order = append(order, ci)
	}
	sort.Ints(order)
	return partsCatalog{d: d, sel: sel, order: order}
}

// Lookup implements plan.Catalog. Stored state is batch-backed, so
// single-source lookups pass the stored batch through zero-copy — the
// vectorized scan reads stored columns directly, with no per-evaluation
// re-encode — and multi-source lookups assemble one combined batch from
// the stored parts (columnar on the batch-native closure path, a shared
// row slice otherwise).
func (pc partsCatalog) Lookup(name string) (*relation.Relation, error) {
	k := key(name)
	sch, ok := pc.d.schemas[k]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	cert := pc.d.certain[k]
	// The first contribution is tracked outside the slice: most lookups see
	// zero or one (part evaluations select a single component), and the
	// fast paths below must not pay a slice allocation to find that out.
	var first *relation.Relation
	var rest []*relation.Relation
	total := cert.Len()
	for _, ci := range pc.order {
		if c := pc.d.comps[ci].Alts[pc.sel[ci]].Contrib[k]; c.Len() > 0 {
			if first == nil {
				first = c
			} else {
				rest = append(rest, c)
			}
			total += c.Len()
		}
	}
	// Single-source fast paths: share the stored relation itself when its
	// schema is already the registered one (then even the lazy row cache
	// is shared across parts), else a zero-copy reschema of its batch.
	// Stored state is immutable and plan scans never mutate their input.
	if first == nil {
		if cert != nil {
			if cert.Schema == sch {
				return cert, nil
			}
			return cert.WithSchema(sch), nil
		}
		return relation.New(sch), nil
	}
	if cert.Len() == 0 && len(rest) == 0 {
		if first.Schema == sch {
			return first, nil
		}
		return first.WithSchema(sch), nil
	}
	if batchClosureOn.Load() && algebra.Vectorized() && int64(total) >= algebra.VectorizeMinRows() {
		combined := colbatch.New(sch)
		if cert.Len() > 0 {
			combined.AppendBatch(cert.Batch())
		}
		combined.AppendBatch(first.Batch())
		for _, c := range rest {
			combined.AppendBatch(c.Batch())
		}
		return relation.FromBatch(combined), nil
	}
	rows := make([]tuple.Tuple, 0, total)
	rows = append(rows, cert.Rows()...)
	rows = append(rows, first.Rows()...)
	for _, c := range rest {
		rows = append(rows, c.Rows()...)
	}
	return relation.FromRowsShared(sch, rows), nil
}

var _ plan.Catalog = partsCatalog{}

// deltaCatalog exposes one alternative's own contributions, as a
// plan.Catalog: a table fed by some involved component shows only the
// alternative's contribution to it (empty when it contributes none), every
// other table its full certain part. Evaluating a linear plan against it
// yields exactly the rows the alternative adds beyond Q(cert).
type deltaCatalog struct {
	d   *WSD
	fed map[string]bool // tables fed by an involved component
	alt *Alternative
}

// Lookup implements plan.Catalog, passing stored relations through
// zero-copy like partsCatalog's single-source paths.
func (dc deltaCatalog) Lookup(name string) (*relation.Relation, error) {
	k := key(name)
	sch, ok := dc.d.schemas[k]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	rel := dc.d.certain[k]
	if dc.fed[k] {
		rel = dc.alt.Contrib[k]
	}
	switch {
	case rel == nil:
		return relation.New(sch), nil
	case rel.Schema == sch:
		return rel, nil
	default:
		return rel.WithSchema(sch), nil
	}
}

var _ plan.Catalog = deltaCatalog{}

// fedTables lists the tables the given components contribute to. Every
// table a plan reads that some component feeds has all its feeding
// components among the plan's touched ones, so for a linear plan this is
// exactly the set of uncertain tables it scans (plus unread ones).
func (d *WSD) fedTables(compIdx []int) map[string]bool {
	fed := map[string]bool{}
	for _, ci := range compIdx {
		for _, alt := range d.comps[ci].Alts {
			for k := range alt.Contrib {
				fed[k] = true
			}
		}
	}
	return fed
}

// componentParts is the componentwise evaluation of one query: the base
// answer and one answer per (component, alternative) pair, each holding
// only the rows beyond the base. Answers are batches — columnar when the
// evaluation ran the vectorized CollectBatch path, row-backed (zero-copy
// over collected tuples) otherwise.
type componentParts struct {
	d       *WSD
	compIdx []int // indexes into d.comps, ascending
	// base is Q(cert), the prefix of every world's answer; nil when the plan
	// is not concat-structured, and then parts are full answers.
	base *colbatch.Batch
	// world0 is the first world's full answer when base is nil; with a
	// base, the first world is the base followed by every component's
	// first-alternative part.
	world0 *colbatch.Batch
	// parts[i][a] is what component compIdx[i] at alternative a adds beyond
	// the base (its full answer when base is nil).
	parts [][]*colbatch.Batch
	// probs[i][a] is the alternative's probability.
	probs [][]float64
	// delta reports that the parts came from delta-catalog evaluations
	// (linear plans) rather than from full evaluations.
	delta bool
}

// setPartsAttrs records on a span which evaluation produced the parts:
// delta (per-alternative delta evaluation of a linear plan) and the size
// of the base answer evaluated once.
func setPartsAttrs(sp *obs.Span, p *componentParts) {
	baseRows := 0
	if p.base != nil {
		baseRows = p.base.Len()
	}
	sp.Set("delta", p.delta)
	sp.Set("base_rows", baseRows)
}

// QueryByComponent evaluates query once per alternative of each listed
// component — Σ sizes evaluations on the worker pool, no merge, no
// mutation of the decomposition — and returns them in the form an
// analysis allows (see the file comment): base plus delta evaluations for
// linear plans, base plus sliced full evaluations for other concat plans
// (no base if some part does not start with it), full evaluations plus the
// first world's answer otherwise. query must be safe for concurrent calls.
func (d *WSD) QueryByComponent(compIdx []int, an *plan.ComponentAnalysis, query func(cat plan.Catalog) (*colbatch.Batch, error)) (*componentParts, error) {
	out := &componentParts{
		d:       d,
		compIdx: compIdx,
		parts:   make([][]*colbatch.Batch, len(compIdx)),
		probs:   make([][]float64, len(compIdx)),
		delta:   an.Linear,
	}
	// Flatten every evaluation into one task list for the pool.
	type task struct {
		cat plan.Catalog
		dst **colbatch.Batch
	}
	head := task{cat: newPartsCatalog(d, nil), dst: &out.base}
	if !an.Concat {
		head = task{cat: d.firstWorldCatalog(compIdx), dst: &out.world0}
	}
	tasks := []task{head}
	var fed map[string]bool
	if an.Linear {
		fed = d.fedTables(compIdx)
	}
	for i, ci := range compIdx {
		alts := d.comps[ci].Alts
		out.parts[i] = make([]*colbatch.Batch, len(alts))
		out.probs[i] = make([]float64, len(alts))
		for a := range alts {
			out.probs[i][a] = alts[a].Prob
			var cat plan.Catalog = deltaCatalog{d: d, fed: fed, alt: &alts[a]}
			if !an.Linear {
				cat = newPartsCatalog(d, map[int]int{ci: a})
			}
			tasks = append(tasks, task{cat: cat, dst: &out.parts[i][a]})
		}
	}
	results, err := mapAlts(d, len(tasks), func(ti int) (*colbatch.Batch, error) {
		return query(tasks[ti].cat)
	})
	if err != nil {
		return nil, err
	}
	for ti := range tasks {
		*tasks[ti].dst = results[ti]
	}
	if an.Concat && !an.Linear && !out.sliceBase() {
		// Structural analysis promised a certain-prefixed answer but the
		// evaluation disagreed: keep the full parts, with no base.
		out.base = nil
		if out.world0, err = query(d.firstWorldCatalog(compIdx)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// firstWorldCatalog selects every listed component's first alternative.
func (d *WSD) firstWorldCatalog(compIdx []int) partsCatalog {
	first := make(map[int]int, len(compIdx))
	for _, ci := range compIdx {
		first[ci] = 0
	}
	return newPartsCatalog(d, first)
}

// sliceBase replaces every full part by its suffix beyond the base. It
// reports false, changing nothing, when some part does not start with the
// base rows — the positional check of the concat structure.
func (p *componentParts) sliceBase() bool {
	baseLen := p.base.Len()
	if baseLen == 0 {
		return true
	}
	baseKeys := make([]string, baseLen)
	var buf []byte
	for i := range baseKeys {
		baseKeys[i] = string(p.base.AppendKey(buf[:0], i))
	}
	for _, alts := range p.parts {
		for _, part := range alts {
			if part.Len() < baseLen {
				return false
			}
			for j, k := range baseKeys {
				// string(buf) in a comparison does not allocate.
				buf = part.AppendKey(buf[:0], j)
				if string(buf) != k {
					return false
				}
			}
		}
	}
	for _, alts := range p.parts {
		for a, part := range alts {
			alts[a] = part.Slice(baseLen, part.Len())
		}
	}
	return true
}

// firstWorld returns the first world's answer as a batch sequence: the
// base followed by every component's first-alternative part, or world0
// when there is no base.
func (p *componentParts) firstWorld() []*colbatch.Batch {
	if p.base == nil {
		return []*colbatch.Batch{p.world0}
	}
	out := make([]*colbatch.Batch, 0, 1+len(p.parts))
	out = append(out, p.base)
	for _, alts := range p.parts {
		out = append(out, alts[0])
	}
	return out
}

// emitParts walks the closure emission order — the first world's answer,
// then the remaining alternatives of each component from the last involved
// component to the first — calling fn with every part batch in sequence;
// isBase marks the base batch. Deduplication is the caller's (fn's)
// business. The Interrupt hook is polled once per part, like the merge
// path's closure fold, so deadlined requests abort the fold too.
func (p *componentParts) emitParts(fn func(b *colbatch.Batch, isBase bool)) error {
	for j, b := range p.firstWorld() {
		if err := p.d.interrupted(); err != nil {
			return err
		}
		fn(b, j == 0 && p.base != nil)
	}
	for i := len(p.compIdx) - 1; i >= 0; i-- {
		for a := 1; a < len(p.parts[i]); a++ {
			if err := p.d.interrupted(); err != nil {
				return err
			}
			fn(p.parts[i][a], false)
		}
	}
	return nil
}

// model is the batch the closure output takes its mode and schema from:
// the first one emitted.
func (p *componentParts) model() *colbatch.Batch {
	if p.base != nil {
		return p.base
	}
	return p.world0
}

// posting is one (component, alternative) pair whose part answer contains
// a tuple; comp indexes the parts slice the index was built from. next
// links to the tuple's following posting, -1 at the end of its list.
type posting struct{ comp, alt, next int32 }

// postingIndex interns every distinct tuple key appearing in some part —
// one key-string allocation per distinct tuple, not per (tuple, part) — and
// lists per dense tuple id the (component, alternative) pairs whose part
// contains the tuple, ascending: head[id] is the first posting, tail[id]
// the last, both -1 while id has none (a tuple outside every part,
// interned after the build). A row repeated inside one part is posted
// once. Building reads every part row once, and the closure folds visit
// each tuple's own postings only, so a closure costs O(Σ|part|) — the size
// of the answers the componentwise stage already produced — instead of
// probing every alternative of every component per tuple.
type postingIndex struct {
	ids        map[string]int32
	head, tail []int32
	post       []posting
	// seen marks the ids a closure fold has already emitted.
	seen []bool
}

// buildPostings indexes every part answer (parts[i][a] is component i at
// alternative a), polling the Interrupt hook once per part. Parts are
// scanned in (component, alternative) order, so appending each posting to
// its tuple's list keeps every list ascending.
func buildPostings(d *WSD, parts [][]*colbatch.Batch) (*postingIndex, error) {
	rows := 0
	for _, alts := range parts {
		for _, b := range alts {
			rows += b.Len()
		}
	}
	ix := &postingIndex{ids: map[string]int32{}, post: make([]posting, 0, rows)}
	var buf []byte
	for i, alts := range parts {
		for a, b := range alts {
			if err := d.interrupted(); err != nil {
				return nil, err
			}
			for r, n := 0, b.Len(); r < n; r++ {
				buf = b.AppendKey(buf[:0], r)
				id := ix.intern(buf)
				last := ix.tail[id]
				if last >= 0 && ix.post[last].comp == int32(i) && ix.post[last].alt == int32(a) {
					continue
				}
				k := int32(len(ix.post))
				ix.post = append(ix.post, posting{int32(i), int32(a), -1})
				if last >= 0 {
					ix.post[last].next = k
				} else {
					ix.head[id] = k
				}
				ix.tail[id] = k
			}
		}
	}
	return ix, nil
}

// intern returns the dense id of the scratch-encoded key, materializing
// the key string only on first sight. A new id starts with no postings
// and unseen.
func (ix *postingIndex) intern(buf []byte) int32 {
	if id, ok := ix.ids[string(buf)]; ok {
		return id
	}
	id := int32(len(ix.ids))
	ix.ids[string(buf)] = id
	ix.head = append(ix.head, -1)
	ix.tail = append(ix.tail, -1)
	ix.seen = append(ix.seen, false)
	return id
}

// visit interns the scratch-encoded key and reports whether this is the
// fold's first visit of the tuple.
func (ix *postingIndex) visit(buf []byte) (int32, bool) {
	id := ix.intern(buf)
	if ix.seen[id] {
		return id, false
	}
	ix.seen[id] = true
	return id, true
}

// possibleFromParts computes the POSSIBLE closure: every tuple in some
// part, in the naive engine's first-appearance order.
func possibleFromParts(p *componentParts) (*relation.Relation, error) {
	ub := newUnionBuilder(p.model())
	seen := map[string]struct{}{}
	var buf []byte
	var sel []int32
	err := p.emitParts(func(b *colbatch.Batch, _ bool) {
		sel = sel[:0]
		for r, n := 0, b.Len(); r < n; r++ {
			// Scratch-encode and probe before inserting: duplicate tuples
			// cost no key-string allocation.
			buf = b.AppendKey(buf[:0], r)
			if _, dup := seen[string(buf)]; dup {
				continue
			}
			seen[string(buf)] = struct{}{}
			sel = append(sel, int32(r))
		}
		ub.addSel(b, sel)
	})
	if err != nil {
		return nil, err
	}
	return ub.finish(p.model().Schema), nil
}

// certainFromParts computes the CERTAIN closure: a tuple is in every world
// iff it is in the certain-only answer or some component contributes it
// under *every* alternative — by independence, the exact criterion. Base
// tuples are the certain-only answer; without a base, a full part holds
// it and the posting criterion finds it. A tuple's postings are
// deduplicated per part, so a component lists it under all alternatives
// iff it has as many postings as alternatives. The order is the first
// world's answer order (the naive engine intersects into the first world's
// deduplicated answer).
func certainFromParts(p *componentParts) (*relation.Relation, error) {
	ix, err := buildPostings(p.d, p.parts)
	if err != nil {
		return nil, err
	}
	ub := newUnionBuilder(p.model())
	var buf []byte
	var sel []int32
	for j, b := range p.firstWorld() {
		isBase := j == 0 && p.base != nil
		sel = sel[:0]
		for r, n := 0, b.Len(); r < n; r++ {
			buf = b.AppendKey(buf[:0], r)
			id, first := ix.visit(buf)
			if !first {
				continue
			}
			if isBase {
				sel = append(sel, int32(r))
				continue
			}
			for k := ix.head[id]; k >= 0; {
				c, alts := ix.post[k].comp, 0
				for ; k >= 0 && ix.post[k].comp == c; k = ix.post[k].next {
					alts++
				}
				if alts == len(p.parts[c]) {
					sel = append(sel, int32(r))
					break
				}
			}
		}
		ub.addSel(b, sel)
	}
	return ub.finish(p.model().Schema), nil
}

// confFromParts computes the CONF closure: every possible tuple extended
// with its exact confidence 1 − Π_c (1 − p_c(t)), where p_c(t) is the
// total probability of component c's alternatives whose part contains the
// tuple. Tuple order is the possible order.
//
// The product runs over the components that post the tuple only, in
// component order, each p_c summed in alternative order. That is
// bit-identical to the dense product over every component: a component
// without the tuple has p_c = 0 and contributes the factor 1 − 0 = 1.0
// exactly, and miss·1.0 = miss in IEEE arithmetic. Base tuples, in every
// part, share one constant (baseConf).
func confFromParts(p *componentParts) (*relation.Relation, error) {
	ix, err := buildPostings(p.d, p.parts)
	if err != nil {
		return nil, err
	}
	baseConf := p.baseConf()
	ub := newUnionBuilder(p.model())
	var buf []byte
	var sel []int32
	var confs []float64
	err = p.emitParts(func(b *colbatch.Batch, isBase bool) {
		sel = sel[:0]
		for r, n := 0, b.Len(); r < n; r++ {
			// Part rows were interned by buildPostings, so the probe
			// allocates only for base and world0-only tuples.
			buf = b.AppendKey(buf[:0], r)
			id, first := ix.visit(buf)
			if !first {
				continue
			}
			sel = append(sel, int32(r))
			if isBase {
				confs = append(confs, baseConf)
				continue
			}
			miss, pc := 1.0, 0.0
			for k := ix.head[id]; k >= 0; {
				c := ix.post[k].comp
				pc = 0.0
				for ; k >= 0 && ix.post[k].comp == c; k = ix.post[k].next {
					pc += p.probs[c][ix.post[k].alt]
				}
				miss *= 1 - pc
			}
			confs = append(confs, closeConf(miss, pc, len(p.parts)))
		}
		ub.addSel(b, sel)
	})
	if err != nil {
		return nil, err
	}
	return ub.finishConf(p.model().Schema.Concat(confSchema()), confs), nil
}

// baseConf is the confidence of a base tuple: posted under every
// alternative of every component, it folds to 1 − Π_c (1 − Σ_a p_{c,a})
// with the components in order and each sum in alternative order —
// exactly the posting fold's arithmetic for such a tuple.
func (p *componentParts) baseConf() float64 {
	miss, pc := 1.0, 0.0
	for _, probs := range p.probs {
		pc = 0.0
		for _, pa := range probs {
			pc += pa
		}
		miss *= 1 - pc
	}
	return closeConf(miss, pc, len(p.probs))
}

// closeConf turns a folded miss probability into a confidence. A single
// component's confidence is its plain probability sum last, accumulated in
// alternative order — bit-identical to the merge path and the naive engine
// (1 − (1 − p) would lose ulps). Float accumulation noise above 1 is
// clamped.
func closeConf(miss, last float64, comps int) float64 {
	conf := 1 - miss
	if comps == 1 {
		conf = last
	}
	if conf > 1 {
		conf = 1
	}
	return conf
}

// materializeByComponent stores the answer of a concat-structured
// decomposable query as relation dst without merging: the base answer
// becomes dst's certain part, and each (component, alternative) part — the
// rows beyond the base — becomes the alternative's contribution. Every
// world's dst instance — certain part followed by contributions in
// component order — is tuple-for-tuple identical to what the merge path
// would have stored. Parts without a base (the concat structure failed its
// positional check) return errNotConcat and the caller falls back to the
// merge path. Part answers are stored as the new relations' backing
// batches — columnar parts as zero-copy columnar views (identity for later
// scans), row-backed parts as shared row slices.
func (d *WSD) materializeByComponent(dst string, p *componentParts) error {
	if p.base == nil {
		return errNotConcat
	}
	if err := d.registerUncertain(dst, p.base.Schema); err != nil {
		return err
	}
	k := key(dst)
	// Views under dst's schema: the evaluated batches may be stored state
	// of the source relations, whose headers must not change.
	view := func(b *colbatch.Batch) *relation.Relation {
		v := b.Slice(0, b.Len())
		v.Schema = d.schemas[k]
		return relation.FromBatch(v)
	}
	if p.base.Len() > 0 {
		d.certain[k] = view(p.base)
	}
	for i, ci := range p.compIdx {
		comp := d.comps[ci]
		for a, part := range p.parts[i] {
			if part.Len() == 0 {
				continue
			}
			if comp.Alts[a].Contrib == nil {
				comp.Alts[a].Contrib = map[string]*relation.Relation{}
			}
			comp.Alts[a].Contrib[k] = view(part)
		}
	}
	return nil
}
