package wsd

// Conditional (d-tree aware) closure evaluation. When a query touches
// components arranged in a decomposition tree, the flat componentwise
// identity Q(world) = Q(cert) ∪ Q_c1(a1) ∪ … ∪ Q_ck(ak) still holds for
// monotone-decomposable plans — but only over the components *active* in
// the world (a component is active iff it is top-level or its parent
// selects its conditioning alternative), and each alternative's weight in
// a closure is P(a) conditioned on the parent path. The conditional route
// generalizes the componentwise closures to tree folds:
//
//   - the relevant component set is the root closure of the touched
//     components — whole trees, since an untouched ancestor still decides
//     whether a touched child is active;
//   - POSSIBLE (and CONF's emission order) folds over the *deviation
//     worlds*: the first world plus, per relevant component c and
//     alternative a ≥ 1, the earliest world (in expansion order) with c
//     active at a. Every possible tuple's true first-appearance world is
//     in that set — if a world's answer contains t then t lies in some
//     active part (c, a), and the deviation world of (c, a) (or, for
//     a = 0, of the deepest ancestor pinned off its first alternative)
//     both contains t and precedes the world — so scanning the deviation
//     worlds' full answers in expansion order reproduces the naive
//     engine's first-appearance order exactly;
//   - CERTAIN keeps the flat criterion with a recursive twist: a tuple is
//     in every world iff some top-level relevant subtree contributes it
//     under every assignment — per alternative, directly or through a
//     child conditioned on that alternative (an OR of independent events
//     is always-true iff one of them is);
//   - CONF multiplies miss probabilities over the independent top-level
//     subtrees, where a subtree's contribution probability is
//     p_c(t) = Σ_a P(a)·(t ∈ part_c(a) ? 1 : 1 − Π_ch (1 − p_ch(t)))
//     over the children ch conditioned on a.
//
// Both recursions run per tuple over the flat closures' posting index (see
// componentwise.go) and descend only into the subtrees that hold a posting
// of the tuple: a posting-free subtree has p(t) = 0.0 exactly and never
// always-contributes, so pruning it changes neither the CERTAIN answer nor
// a single conf bit.
//
// The flat decomposition never reaches this file: SelectClosure routes
// here only when the touched components involve tree structure
// (treeInvolved), so the PR 8 componentwise path — order, probabilities,
// allocation profile — is taken unchanged otherwise.
//
// ClosureNone takes a different shape: a per-world SELECT over uncertain
// data cannot return one relation per world without expanding, but for a
// concat-structured plan the answer *is* compactly representable — as a
// conditional relation (the factorized analogue of a c-table): the
// query's schema extended with a trailing `cond` column, where the base
// rows (certain-only answer) carry an empty condition and each
// (component, alternative) part's suffix rows carry the conjunction
// "c<parentID>=<alt>,…,c<ID>=<alt>" of its activation path. A world's
// answer is the base rows plus the suffix rows whose conditions its
// alternative selection satisfies, in emission order. This retires the
// blanket ErrPerWorld refusal for concat plans, flat and nested alike.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"maybms/internal/colbatch"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// condSchema is the trailing condition column of a conditional relation.
func condSchema() *schema.Schema { return schema.New("cond") }

// conditionalParts is the conditional evaluation of one query over the
// trees touching it: per-(component, alternative) part answers for the
// certain/conf recursions, and full deviation-world answers (expansion
// order, first world first) for the possible/conf emission order.
type conditionalParts struct {
	d        *WSD
	relevant []int // component indexes: root closure of the touched set, ascending
	// parent[i] is the position (into relevant) of relevant[i]'s parent, -1
	// for a top-level component; parentAlt[i] its conditioning alternative.
	parent    []int32
	parentAlt []int32
	// parts[i][a] is the answer with only (relevant[i], a)'s contributions
	// visible; probs[i][a] the alternative's probability.
	parts [][]*colbatch.Batch
	probs [][]float64
	// devs are the deviation worlds' full answers in expansion order;
	// devs[0] is the first world.
	devs []*colbatch.Batch
}

// nestedCount reports how many relevant components are conditional
// (nested under a parent alternative) — the `conditional_splits` trace
// attribute.
func (p *conditionalParts) nestedCount() int {
	n := 0
	for _, ci := range p.relevant {
		if p.d.comps[ci].Parent >= 0 {
			n++
		}
	}
	return n
}

// deviationVector returns the digit vector of the earliest world (in
// expansion order) with component ci active at alternative a: ci's
// ancestors pinned to their conditioning alternatives, every other active
// component at its first alternative, inactive components at -1. A
// negative ci yields the first world itself. Valid digit vectors compare
// in expansion order by plain lexicographic comparison: activity at a
// component is a function of earlier digits, so the first differing
// position of two vectors is active in both.
func (d *WSD) deviationVector(byID map[int]int, ci, a int) []int {
	req := map[int]int{}
	if ci >= 0 {
		req[ci] = a
		for c := d.comps[ci]; c.Parent >= 0; {
			pi := byID[c.Parent]
			req[pi] = c.ParentAlt
			c = d.comps[pi]
		}
	}
	digits := make([]int, len(d.comps))
	for i, c := range d.comps {
		if v, ok := req[i]; ok {
			digits[i] = v
			continue
		}
		if c.Parent >= 0 && digits[byID[c.Parent]] != c.ParentAlt {
			digits[i] = -1
			continue
		}
		digits[i] = 0
	}
	return digits
}

// queryConditional evaluates query once per (relevant component,
// alternative) pair and once per deviation world — Σ sizes part
// evaluations plus Σ (sizes−1) + 1 world evaluations on the worker pool,
// no merge, the decomposition untouched. query must be safe for
// concurrent calls.
func (d *WSD) queryConditional(touched []int, query func(cat plan.Catalog) (*colbatch.Batch, error)) (*conditionalParts, error) {
	relevant := d.rootClosure(touched)
	byID := d.compIndexByID()
	pos := make(map[int]int, len(relevant))
	for i, ci := range relevant {
		pos[ci] = i
	}
	p := &conditionalParts{
		d:         d,
		relevant:  relevant,
		parent:    make([]int32, len(relevant)),
		parentAlt: make([]int32, len(relevant)),
		parts:     make([][]*colbatch.Batch, len(relevant)),
		probs:     make([][]float64, len(relevant)),
	}
	for i, ci := range relevant {
		c := d.comps[ci]
		p.probs[i] = make([]float64, len(c.Alts))
		for a := range c.Alts {
			p.probs[i][a] = c.Alts[a].Prob
		}
		p.parent[i] = -1
		if c.Parent >= 0 {
			p.parent[i] = int32(pos[byID[c.Parent]])
			p.parentAlt[i] = int32(c.ParentAlt)
		}
	}

	// Deviation worlds, sorted into expansion order by their digit vectors.
	devVecs := [][]int{d.deviationVector(byID, -1, 0)}
	for _, ci := range relevant {
		for a := 1; a < len(d.comps[ci].Alts); a++ {
			devVecs = append(devVecs, d.deviationVector(byID, ci, a))
		}
	}
	sort.Slice(devVecs, func(x, y int) bool {
		vx, vy := devVecs[x], devVecs[y]
		for i := range vx {
			if vx[i] != vy[i] {
				return vx[i] < vy[i]
			}
		}
		return false
	})

	// Flatten every evaluation into one task list for the pool.
	type task struct {
		sel map[int]int
		dst **colbatch.Batch
	}
	var tasks []task
	p.devs = make([]*colbatch.Batch, len(devVecs))
	for di, vec := range devVecs {
		sel := map[int]int{}
		for _, ci := range relevant {
			if vec[ci] >= 0 {
				sel[ci] = vec[ci]
			}
		}
		tasks = append(tasks, task{sel: sel, dst: &p.devs[di]})
	}
	for i, ci := range relevant {
		p.parts[i] = make([]*colbatch.Batch, len(d.comps[ci].Alts))
		for a := range d.comps[ci].Alts {
			tasks = append(tasks, task{sel: map[int]int{ci: a}, dst: &p.parts[i][a]})
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
	return p, nil
}

// possible computes the POSSIBLE closure: every tuple of some deviation
// world's answer, in the naive engine's first-appearance order.
func (p *conditionalParts) possible() (*relation.Relation, error) {
	ub := newUnionBuilder(p.devs[0])
	seen := map[string]struct{}{}
	var buf []byte
	var sel []int32
	for _, b := range p.devs {
		if err := p.d.interrupted(); err != nil {
			return nil, err
		}
		sel = sel[:0]
		for r, n := 0, b.Len(); r < n; r++ {
			buf = b.AppendKey(buf[:0], r)
			if _, dup := seen[string(buf)]; dup {
				continue
			}
			seen[string(buf)] = struct{}{}
			sel = append(sel, int32(r))
		}
		ub.addSel(b, sel)
	}
	return ub.finish(p.devs[0].Schema), nil
}

// treeFold evaluates the certain/conf recursions for one tuple at a time
// over the tuple's own postings. load walks each posting up to its root,
// collecting the tree edges that lead to a posting — (component,
// alternative) pairs whose part contains the tuple, and (parent,
// conditioning alternative, child) links on the way up — so the recursions
// descend only into subtrees holding a posting. A fold's cost is the
// tuple's postings times the tree depth, not Σ alternatives.
type treeFold struct {
	p  *conditionalParts
	ix *postingIndex
	// edges are the loaded tuple's edges sorted by (comp, alt, child); a
	// posting has child -1 and sorts before the links of its alternative.
	edges []treeEdge
	// roots are the loaded tuple's hit top-level positions, ascending.
	roots []int32
	// mark[i] is 1 + the id of the last tuple whose walk reached position
	// i; first[i] is then i's first edge.
	mark  []int32
	first []int32
}

// treeEdge is a posting (child -1) or a link from (comp, alt) to a child
// subtree holding a posting.
type treeEdge struct{ comp, alt, child int32 }

func (p *conditionalParts) newTreeFold(ix *postingIndex) *treeFold {
	return &treeFold{p: p, ix: ix, mark: make([]int32, len(p.parts)), first: make([]int32, len(p.parts))}
}

// load prepares the fold for tuple id.
func (f *treeFold) load(id int32) {
	f.edges, f.roots = f.edges[:0], f.roots[:0]
	stamp := id + 1
	for k := f.ix.head[id]; k >= 0; k = f.ix.post[k].next {
		ps := f.ix.post[k]
		f.edges = append(f.edges, treeEdge{ps.comp, ps.alt, -1})
		for cur := ps.comp; f.mark[cur] != stamp; {
			f.mark[cur] = stamp
			up := f.p.parent[cur]
			if up < 0 {
				f.roots = append(f.roots, cur)
				break
			}
			f.edges = append(f.edges, treeEdge{up, f.p.parentAlt[cur], cur})
			cur = up
		}
	}
	slices.SortFunc(f.edges, func(x, y treeEdge) int {
		return cmp.Or(cmp.Compare(x.comp, y.comp), cmp.Compare(x.alt, y.alt), cmp.Compare(x.child, y.child))
	})
	slices.Sort(f.roots)
	for k := len(f.edges) - 1; k >= 0; k-- {
		f.first[f.edges[k].comp] = int32(k)
	}
}

// always reports whether the subtree rooted at hit position i contributes
// the loaded tuple under every assignment (given the root is active): every
// alternative either posts it or conditions a child subtree that always
// does. An alternative without edges does neither, since a posting-free
// subtree never contributes.
func (f *treeFold) always(i int32) bool {
	e := f.edges
	covered := 0
	for k := int(f.first[i]); k < len(e) && e[k].comp == i; {
		a := e[k].alt
		ok := e[k].child < 0
		for ; k < len(e) && e[k].comp == i && e[k].alt == a; k++ {
			if !ok && f.always(e[k].child) {
				ok = true
			}
		}
		if !ok {
			return false
		}
		covered++
	}
	return covered == len(f.p.probs[i])
}

// prob returns the probability that the subtree rooted at hit position i
// contributes the loaded tuple (given the root is active):
// Σ_a P(a)·(posted ? 1 : 1 − Π_ch (1 − p_ch)), alternatives ascending and
// children ascending. Skipping the posting-free parts of the tree leaves
// every bit of the dense recursion unchanged for finite probabilities: a
// posting-free subtree has probability 0.0 exactly, so a skipped child
// multiplies miss by 1 − 0 = 1.0 and a skipped alternative adds
// P(a)·(1 − 1.0) = ±0.0 to a sum that is never −0.
func (f *treeFold) prob(i int32) float64 {
	e := f.edges
	total := 0.0
	for k := int(f.first[i]); k < len(e) && e[k].comp == i; {
		a := e[k].alt
		pa := f.p.probs[i][a]
		if e[k].child < 0 {
			total += pa
			for k < len(e) && e[k].comp == i && e[k].alt == a {
				k++
			}
			continue
		}
		miss := 1.0
		for ; k < len(e) && e[k].comp == i && e[k].alt == a; k++ {
			miss *= 1 - f.prob(e[k].child)
		}
		total += pa * (1 - miss)
	}
	return total
}

// certain computes the CERTAIN closure: the first world's answer filtered
// to tuples some top-level relevant subtree always contributes (a tuple
// in the certain-only answer is in every part, so every relevant root
// passes it). Order is the first world's deduplicated answer order, like
// the flat path and the naive engine.
func (p *conditionalParts) certain() (*relation.Relation, error) {
	ix, err := buildPostings(p.d, p.parts)
	if err != nil {
		return nil, err
	}
	f := p.newTreeFold(ix)
	world0 := p.devs[0]
	ub := newUnionBuilder(world0)
	var buf []byte
	var sel []int32
	for r, n := 0, world0.Len(); r < n; r++ {
		buf = world0.AppendKey(buf[:0], r)
		id, first := ix.visit(buf)
		if !first {
			continue
		}
		f.load(id)
		for _, ri := range f.roots {
			if f.always(ri) {
				sel = append(sel, int32(r))
				break
			}
		}
	}
	ub.addSel(world0, sel)
	return ub.finish(world0.Schema), nil
}

// conf computes the CONF closure: every possible tuple extended with
// 1 − Π_roots (1 − p_root(t)), roots ascending, in the possible
// (first-appearance) order. Only the roots holding a posting of the tuple
// enter the product; the others would contribute the factor 1.0 exactly
// (see prob), so the confidence bits equal the dense fold's.
func (p *conditionalParts) conf() (*relation.Relation, error) {
	ix, err := buildPostings(p.d, p.parts)
	if err != nil {
		return nil, err
	}
	f := p.newTreeFold(ix)
	ub := newUnionBuilder(p.devs[0])
	var buf []byte
	var sel []int32
	var confs []float64
	for _, b := range p.devs {
		if err := p.d.interrupted(); err != nil {
			return nil, err
		}
		sel = sel[:0]
		for r, n := 0, b.Len(); r < n; r++ {
			buf = b.AppendKey(buf[:0], r)
			id, first := ix.visit(buf)
			if !first {
				continue
			}
			f.load(id)
			miss := 1.0
			for _, ri := range f.roots {
				miss *= 1 - f.prob(ri)
			}
			conf := 1 - miss
			if conf > 1 {
				conf = 1 // clamp float accumulation noise
			}
			sel = append(sel, int32(r))
			confs = append(confs, conf)
		}
		ub.addSel(b, sel)
	}
	return ub.finishConf(p.devs[0].Schema.Concat(confSchema()), confs), nil
}

// condFor renders the activation condition of (component c, alternative
// a): the conjunction of the ancestor path's pinned alternatives followed
// by the component's own, root first.
func (d *WSD) condFor(byID map[int]int, c *Component, a int) string {
	var conj []string
	for cur := c; cur.Parent >= 0; {
		conj = append(conj, fmt.Sprintf("c%d=%d", cur.Parent, cur.ParentAlt))
		cur = d.comps[byID[cur.Parent]]
	}
	// The walk collected child-to-root; reverse to root-first.
	for i, j := 0, len(conj)-1; i < j; i, j = i+1, j-1 {
		conj[i], conj[j] = conj[j], conj[i]
	}
	conj = append(conj, fmt.Sprintf("c%d=%d", c.ID, a))
	return strings.Join(conj, ",")
}

// conditionalRelation answers a plain SELECT whose result varies across
// worlds as a conditional relation: the query schema plus a trailing
// `cond` column. Base rows (the certain-only answer) carry cond = "";
// each (relevant component, alternative) part — the rows beyond the base —
// follows under that pair's activation condition, components in list
// order, alternatives ascending. A world's answer is the base rows
// followed by the part rows whose conditions the world's alternative
// selection satisfies, in emission order — tuple-for-tuple the naive
// engine's per-world answer. p must cover the root closure of the touched
// components; parts without a base (the concat structure failed its
// positional check) return errNotConcat and the caller refuses.
func (d *WSD) conditionalRelation(p *componentParts) (*relation.Relation, error) {
	if p.base == nil {
		return nil, errNotConcat
	}
	byID := d.compIndexByID()
	outSch := p.base.Schema.Concat(condSchema())
	rows := make([]tuple.Tuple, 0, p.base.Len())
	for _, t := range p.base.Rows() {
		rows = append(rows, append(t.Clone(), value.Str("")))
	}
	for i, ci := range p.compIdx {
		c := d.comps[ci]
		for a, part := range p.parts[i] {
			if err := d.interrupted(); err != nil {
				return nil, err
			}
			if part.Len() == 0 {
				continue
			}
			cond := value.Str(d.condFor(byID, c, a))
			for _, t := range part.Rows() {
				rows = append(rows, append(t.Clone(), cond))
			}
		}
	}
	return relation.FromRowsShared(outSch, rows), nil
}

// uncertainTables names the referenced tables that vary across worlds —
// the blocking constructs reported by per-world refusal errors.
func (d *WSD) uncertainTables(core *sqlparse.SelectStmt) string {
	var names []string
	for _, t := range sqlparse.ReferencedTables(core) {
		if _, ok := d.schemas[key(t)]; ok && !d.isCertain(t) {
			names = append(names, t)
		}
	}
	return strings.Join(names, ", ")
}

// perWorldError wraps ErrPerWorld with the uncertain relations that
// forced the refusal.
func (d *WSD) perWorldError(core *sqlparse.SelectStmt) error {
	if names := d.uncertainTables(core); names != "" {
		return fmt.Errorf("%w: uncertain %s", ErrPerWorld, names)
	}
	return ErrPerWorld
}

// nestedAmong counts the conditional (nested) components among idxs.
func (d *WSD) nestedAmong(idxs []int) int {
	n := 0
	for _, ci := range idxs {
		if d.comps[ci].Parent >= 0 {
			n++
		}
	}
	return n
}
