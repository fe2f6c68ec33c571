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
// The closures reproduce the naive engine's answer order exactly. The
// naive engine closes over per-world answers in mixed-radix world order
// (the last component varies fastest; see Expand and core's repair
// odometer), deduplicating by first appearance. Under the decomposition
// identity, the only worlds contributing *new* tuples to that fold are the
// first world (all components at their first alternative) and the
// single-deviation worlds (one component at alternative a ≥ 2, all others
// first), whose positions sort by reverse component order with
// alternatives ascending. The componentwise closures therefore emit the
// first world's full answer (one extra evaluation), then walk the
// remaining alternatives of each component from the last involved
// component to the first — and within each part, the relative order of a
// deviation's new tuples equals their order in the part's own answer,
// because every supported operator routes rows value- or
// position-deterministically.
//
// Part answers are colbatch batches (the batch-native closure seam; see
// batchclosure.go): the closures dedup on AppendKey arena keys — the same
// byte space as tuple.Encode, so first-appearance order, grouping and
// hash-collision behavior are untouched — and assemble their output by
// column-wise gather, materializing rows once at the end.
//
// CERTAIN and CONF need, per answer tuple, the (component, alternative)
// parts that contain it. A posting index records exactly those pairs while
// interning the part rows, and each tuple is folded over its own postings:
// CONF multiplies miss ·= 1 − p_c over the components that hold the tuple,
// CERTAIN asks whether one of them lists it under every alternative. The
// closure therefore costs O(Σ|part|), the size of the part answers, not
// O(tuples × Σ alternatives). The confidences are bit-identical to the
// dense fold over every component: a component without the tuple has
// p_c = 0 and multiplies miss by 1 − 0 = 1.0 exactly, so skipping it
// changes no bit as long as the remaining factors keep component order and
// each p_c keeps alternative order.

import (
	"errors"
	"fmt"
	"sort"

	"maybms/internal/algebra"
	"maybms/internal/colbatch"
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

// componentParts is the componentwise evaluation of one query: the answer
// of the first world (every involved component at its first alternative)
// and one answer per (component, alternative) pair, evaluated with only
// that alternative's contributions visible. Answers are batches — columnar
// when the evaluation ran the vectorized CollectBatch path, row-backed
// (zero-copy over collected tuples) otherwise.
type componentParts struct {
	d       *WSD
	compIdx []int // indexes into d.comps, ascending
	// world0 is the first world's full answer; nil unless requested.
	world0 *colbatch.Batch
	// base is the certain-only answer Q(cert); nil unless requested.
	base *colbatch.Batch
	// parts[i][a] is the answer with component compIdx[i] at alternative a.
	parts [][]*colbatch.Batch
	// probs[i][a] is the alternative's probability.
	probs [][]float64
}

// QueryByComponent evaluates query once per alternative of each listed
// component — Σ sizes evaluations on the worker pool, no merge, no
// mutation of the decomposition. withWorld0 additionally evaluates the
// first world (all listed components at alternative 0); withBase
// additionally evaluates the certain-only answer. query must be safe for
// concurrent calls.
func (d *WSD) QueryByComponent(compIdx []int, withWorld0, withBase bool, query func(cat plan.Catalog) (*colbatch.Batch, error)) (*componentParts, error) {
	out := &componentParts{
		d:       d,
		compIdx: compIdx,
		parts:   make([][]*colbatch.Batch, len(compIdx)),
		probs:   make([][]float64, len(compIdx)),
	}
	// Flatten every evaluation into one task list for the pool.
	type task struct {
		sel map[int]int
		dst **colbatch.Batch
	}
	var tasks []task
	if withWorld0 {
		first := make(map[int]int, len(compIdx))
		for _, ci := range compIdx {
			first[ci] = 0
		}
		tasks = append(tasks, task{sel: first, dst: &out.world0})
	}
	if withBase {
		tasks = append(tasks, task{sel: map[int]int{}, dst: &out.base})
	}
	for i, ci := range compIdx {
		alts := d.comps[ci].Alts
		out.parts[i] = make([]*colbatch.Batch, len(alts))
		out.probs[i] = make([]float64, len(alts))
		for a := range alts {
			out.probs[i][a] = alts[a].Prob
			tasks = append(tasks, task{sel: map[int]int{ci: a}, dst: &out.parts[i][a]})
		}
	}
	results, err := mapAlts(d, len(tasks), func(ti int) (*colbatch.Batch, error) {
		return query(newPartsCatalog(d, tasks[ti].sel))
	})
	if err != nil {
		return nil, err
	}
	for ti := range tasks {
		*tasks[ti].dst = results[ti]
	}
	return out, nil
}

// emitParts walks the closure emission order — the first world's answer,
// then the remaining alternatives of each component from the last involved
// component to the first — calling fn with every part batch in sequence.
// Deduplication is the caller's (fn's) business. The Interrupt hook is
// polled once per part, like the merge path's closure fold, so deadlined
// requests abort the fold too.
func (p *componentParts) emitParts(fn func(b *colbatch.Batch)) error {
	if err := p.d.interrupted(); err != nil {
		return err
	}
	fn(p.world0)
	for i := len(p.compIdx) - 1; i >= 0; i-- {
		for a := 1; a < len(p.parts[i]); a++ {
			if err := p.d.interrupted(); err != nil {
				return err
			}
			fn(p.parts[i][a])
		}
	}
	return nil
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
	ub := newUnionBuilder(p.world0)
	seen := map[string]struct{}{}
	var buf []byte
	var sel []int32
	err := p.emitParts(func(b *colbatch.Batch) {
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
	return ub.finish(p.world0.Schema), nil
}

// certainFromParts computes the CERTAIN closure: a tuple is in every world
// iff it is in the certain-only answer or some component contributes it
// under *every* alternative — by independence, the exact criterion. A
// tuple's postings are deduplicated per part, so a component lists it under
// all alternatives iff it has as many postings as alternatives. The order
// is the first world's answer order (the naive engine intersects into the
// first world's deduplicated answer).
func certainFromParts(p *componentParts) (*relation.Relation, error) {
	ix, err := buildPostings(p.d, p.parts)
	if err != nil {
		return nil, err
	}
	ub := newUnionBuilder(p.world0)
	var buf []byte
	var sel []int32
	for r, n := 0, p.world0.Len(); r < n; r++ {
		buf = p.world0.AppendKey(buf[:0], r)
		id, first := ix.visit(buf)
		if !first {
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
	ub.addSel(p.world0, sel)
	return ub.finish(p.world0.Schema), nil
}

// confFromParts computes the CONF closure: every possible tuple extended
// with its exact confidence 1 − Π_c (1 − p_c(t)), where p_c(t) is the
// total probability of component c's alternatives whose part contains the
// tuple. A tuple in the certain-only answer is in every part, making every
// p_c = 1 and the confidence 1. Tuple order is the possible order.
//
// The product runs over the components that post the tuple only, in
// component order, each p_c summed in alternative order. That is
// bit-identical to the dense product over every component: a component
// without the tuple has p_c = 0 and contributes the factor 1 − 0 = 1.0
// exactly, and miss·1.0 = miss in IEEE arithmetic.
func confFromParts(p *componentParts) (*relation.Relation, error) {
	ix, err := buildPostings(p.d, p.parts)
	if err != nil {
		return nil, err
	}
	ub := newUnionBuilder(p.world0)
	var buf []byte
	var sel []int32
	var confs []float64
	err = p.emitParts(func(b *colbatch.Batch) {
		sel = sel[:0]
		for r, n := 0, b.Len(); r < n; r++ {
			// Part rows were interned by buildPostings, so the probe
			// allocates only for world0-only tuples.
			buf = b.AppendKey(buf[:0], r)
			id, first := ix.visit(buf)
			if !first {
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
			conf := 1 - miss
			if len(p.parts) == 1 {
				// A single component's confidence is the plain probability sum,
				// accumulated in alternative order — bit-identical to the merge
				// path and the naive engine (1 − (1 − p) would lose ulps).
				conf = pc
			}
			if conf > 1 {
				conf = 1 // clamp float accumulation noise
			}
			sel = append(sel, int32(r))
			confs = append(confs, conf)
		}
		ub.addSel(b, sel)
	})
	if err != nil {
		return nil, err
	}
	return ub.finishConf(p.world0.Schema.Concat(confSchema()), confs), nil
}

// materializeByComponent stores the answer of a concat-structured
// decomposable query as relation dst without merging: the certain-only
// answer becomes dst's certain part, and each (component, alternative)
// part contributes its suffix beyond that prefix to the alternative. Every
// world's dst instance — certain part followed by contributions in
// component order — is tuple-for-tuple identical to what the merge path
// would have stored. The concat structure is verified positionally; a
// violation returns errNotConcat and the caller falls back to the merge
// path. Part answers are stored as the new relations' backing batches —
// columnar parts land as zero-copy columnar slices (identity for later
// scans), row-backed parts as shared row slices.
func (d *WSD) materializeByComponent(dst string, compIdx []int, query func(cat plan.Catalog) (*colbatch.Batch, error)) error {
	p, err := d.QueryByComponent(compIdx, false, true, query)
	if err != nil {
		return err
	}
	baseLen := p.base.Len()
	baseKeys := make([]string, baseLen)
	var buf []byte
	for i := 0; i < baseLen; i++ {
		baseKeys[i] = string(p.base.AppendKey(buf[:0], i))
	}
	for i := range p.parts {
		for _, part := range p.parts[i] {
			if part.Len() < baseLen {
				return errNotConcat
			}
			for j, k := range baseKeys {
				// string(buf) in a comparison does not allocate.
				buf = part.AppendKey(buf[:0], j)
				if string(buf) != k {
					return errNotConcat
				}
			}
		}
	}
	if err := d.registerUncertain(dst, p.base.Schema); err != nil {
		return err
	}
	k := key(dst)
	if baseLen > 0 {
		base := p.base.Slice(0, baseLen)
		base.Schema = d.schemas[k]
		d.certain[k] = relation.FromBatch(base)
	}
	for i, ci := range compIdx {
		comp := d.comps[ci]
		for a := range p.parts[i] {
			part := p.parts[i][a]
			if part.Len() <= baseLen {
				continue
			}
			view := part.Slice(baseLen, part.Len())
			view.Schema = d.schemas[k]
			if comp.Alts[a].Contrib == nil {
				comp.Alts[a].Contrib = map[string]*relation.Relation{}
			}
			comp.Alts[a].Contrib[k] = relation.FromBatch(view)
		}
	}
	return nil
}
