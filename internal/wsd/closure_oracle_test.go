package wsd

// closure_oracle_test.go: the posting-index CONF and CERTAIN folds against
// the dense reference they replaced. The reference below interns the same
// keys, keeps one key set per (component, alternative) and probes every
// alternative of every component (every subtree, on trees) for every
// tuple. The posting folds skip the components and subtrees that do not
// hold a tuple, which is only sound if every skipped term is an exact
// no-op (a factor 1.0 or a summand 0.0), so the comparison here is on row
// order and on the IEEE bits of every conf value — the naive-vs-compact
// tests compare conf to 1e-9 and would not notice a reordered fold.
//
// The same file pins the delta representation (a base answer plus, per
// alternative, only the rows beyond it) against the full-part evaluation
// it replaced, kept here as fullParts: closures, conditional relations and
// CREATE TABLE AS instances must come out identical.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"maybms/internal/colbatch"
	"maybms/internal/plan"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// denseIndex is the reference index: per component, per alternative, the
// set of dense tuple ids in the part.
type denseIndex struct {
	ids  map[string]int32
	sets [][]map[int32]struct{}
}

func (ix *denseIndex) intern(buf []byte) int32 {
	if id, ok := ix.ids[string(buf)]; ok {
		return id
	}
	id := int32(len(ix.ids))
	ix.ids[string(buf)] = id
	return id
}

func newDenseIndex(parts [][]*colbatch.Batch) *denseIndex {
	ix := &denseIndex{ids: map[string]int32{}, sets: make([][]map[int32]struct{}, len(parts))}
	var buf []byte
	for i, alts := range parts {
		ix.sets[i] = make([]map[int32]struct{}, len(alts))
		for a, b := range alts {
			set := make(map[int32]struct{}, b.Len())
			for r := 0; r < b.Len(); r++ {
				buf = b.AppendKey(buf[:0], r)
				set[ix.intern(buf)] = struct{}{}
			}
			ix.sets[i][a] = set
		}
	}
	return ix
}

// denseCertainFromParts is the dense flat CERTAIN fold.
func denseCertainFromParts(p *componentParts) *relation.Relation {
	ix := newDenseIndex(p.parts)
	ub := newUnionBuilder(p.world0)
	seen := map[int32]struct{}{}
	var buf []byte
	var sel []int32
	for r := 0; r < p.world0.Len(); r++ {
		buf = p.world0.AppendKey(buf[:0], r)
		id := ix.intern(buf)
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		for i := range ix.sets {
			all := true
			for _, set := range ix.sets[i] {
				if _, ok := set[id]; !ok {
					all = false
					break
				}
			}
			if all {
				sel = append(sel, int32(r))
				break
			}
		}
	}
	ub.addSel(p.world0, sel)
	return ub.finish(p.world0.Schema)
}

// denseConfFromParts is the dense flat CONF fold.
func denseConfFromParts(t *testing.T, p *componentParts) *relation.Relation {
	ix := newDenseIndex(p.parts)
	ub := newUnionBuilder(p.world0)
	seen := map[int32]struct{}{}
	var buf []byte
	var sel []int32
	var confs []float64
	err := p.emitParts(func(b *colbatch.Batch, _ bool) {
		sel = sel[:0]
		for r := 0; r < b.Len(); r++ {
			buf = b.AppendKey(buf[:0], r)
			id := ix.intern(buf)
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			miss, last := 1.0, 0.0
			for i := range ix.sets {
				pc := 0.0
				for a, set := range ix.sets[i] {
					if _, ok := set[id]; ok {
						pc += p.probs[i][a]
					}
				}
				miss *= 1 - pc
				last = pc
			}
			conf := 1 - miss
			if len(ix.sets) == 1 {
				conf = last
			}
			if conf > 1 {
				conf = 1
			}
			sel = append(sel, int32(r))
			confs = append(confs, conf)
		}
		ub.addSel(b, sel)
	})
	if err != nil {
		t.Fatal(err)
	}
	return ub.finishConf(p.world0.Schema.Concat(confSchema()), confs)
}

// denseTree is the dense tree recursion: every alternative of a component
// and every child of an alternative is visited.
type denseTree struct {
	p        *conditionalParts
	ix       *denseIndex
	roots    []int
	children [][][]int
}

func newDenseTree(p *conditionalParts) *denseTree {
	dt := &denseTree{p: p, ix: newDenseIndex(p.parts), children: make([][][]int, len(p.parts))}
	for i := range p.parts {
		dt.children[i] = make([][]int, len(p.parts[i]))
	}
	for i, up := range p.parent {
		if up < 0 {
			dt.roots = append(dt.roots, i)
			continue
		}
		a := p.parentAlt[i]
		dt.children[up][a] = append(dt.children[up][a], i)
	}
	return dt
}

func (dt *denseTree) always(i int, id int32) bool {
	for a, set := range dt.ix.sets[i] {
		if _, ok := set[id]; ok {
			continue
		}
		ok := false
		for _, ch := range dt.children[i][a] {
			if dt.always(ch, id) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func (dt *denseTree) prob(i int, id int32) float64 {
	total := 0.0
	for a, set := range dt.ix.sets[i] {
		pa := dt.p.probs[i][a]
		if _, ok := set[id]; ok {
			total += pa
			continue
		}
		miss := 1.0
		for _, ch := range dt.children[i][a] {
			miss *= 1 - dt.prob(ch, id)
		}
		total += pa * (1 - miss)
	}
	return total
}

func (dt *denseTree) certain() *relation.Relation {
	world0 := dt.p.devs[0]
	ub := newUnionBuilder(world0)
	seen := map[int32]struct{}{}
	var buf []byte
	var sel []int32
	for r := 0; r < world0.Len(); r++ {
		buf = world0.AppendKey(buf[:0], r)
		id := dt.ix.intern(buf)
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		for _, ri := range dt.roots {
			if dt.always(ri, id) {
				sel = append(sel, int32(r))
				break
			}
		}
	}
	ub.addSel(world0, sel)
	return ub.finish(world0.Schema)
}

func (dt *denseTree) conf() *relation.Relation {
	ub := newUnionBuilder(dt.p.devs[0])
	seen := map[int32]struct{}{}
	var buf []byte
	var sel []int32
	var confs []float64
	for _, b := range dt.p.devs {
		sel = sel[:0]
		for r := 0; r < b.Len(); r++ {
			buf = b.AppendKey(buf[:0], r)
			id := dt.ix.intern(buf)
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			miss := 1.0
			for _, ri := range dt.roots {
				miss *= 1 - dt.prob(ri, id)
			}
			conf := 1 - miss
			if conf > 1 {
				conf = 1
			}
			sel = append(sel, int32(r))
			confs = append(confs, conf)
		}
		ub.addSel(b, sel)
	}
	return ub.finishConf(dt.p.devs[0].Schema.Concat(confSchema()), confs)
}

// assertBitIdentical fails unless got and want have the same rows in the
// same order, float cells (the conf column) compared by their IEEE bits.
func assertBitIdentical(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	if got.Schema.String() != want.Schema.String() {
		t.Fatalf("%s: schema %s, want %s", label, got.Schema, want.Schema)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for r := range got.Rows() {
		g, w := got.Rows()[r], want.Rows()[r]
		if g.Key() != w.Key() {
			t.Fatalf("%s row %d: %v, want %v", label, r, g, w)
		}
		for j := range g {
			if g[j].IsNumeric() && math.Float64bits(g[j].AsFloat()) != math.Float64bits(w[j].AsFloat()) {
				t.Fatalf("%s row %d col %d: %v (%#x), want %v (%#x)", label, r, j,
					g[j], math.Float64bits(g[j].AsFloat()), w[j], math.Float64bits(w[j].AsFloat()))
			}
		}
	}
}

// oracleShape counts the decomposition features the randomized trials
// must cover.
type oracleShape struct {
	certainPart, shared, dupInPart, single, offUnit int
}

// randomParts draws k components' part answers over a small domain, every
// part prefixed by the same certain rows: suffix values repeat across
// components (tuples held by several components) and within a part
// (duplicate rows). Probabilities are normalized random weights, whose
// float sums are rarely exactly 1. columnar selects columnar or row-backed
// batches.
func randomParts(r *rand.Rand, k int, columnar bool, sh *oracleShape) (cert []tuple.Tuple, parts [][]*colbatch.Batch, probs [][]float64) {
	sch := schema.New("A", "B")
	mk := func(rows []tuple.Tuple) *colbatch.Batch {
		if columnar {
			return colbatch.FromRows(sch, rows)
		}
		return colbatch.FromRowsShared(sch, rows)
	}
	for n := r.Intn(3); len(cert) < n; {
		cert = append(cert, row(100+len(cert), "c"))
	}
	if len(cert) > 0 {
		sh.certainPart++
	}
	holders := map[string]map[int]bool{}
	parts = make([][]*colbatch.Batch, k)
	probs = make([][]float64, k)
	for i := 0; i < k; i++ {
		nAlts := 1 + r.Intn(3)
		parts[i] = make([]*colbatch.Batch, nAlts)
		probs[i] = make([]float64, nAlts)
		sum := 0.0
		for a := 0; a < nAlts; a++ {
			rows := append([]tuple.Tuple(nil), cert...)
			seen := map[string]bool{}
			for n := r.Intn(4); n > 0; n-- {
				t := row(r.Intn(5), []string{"x", "y"}[r.Intn(2)])
				if seen[t.Key()] {
					sh.dupInPart++
				}
				seen[t.Key()] = true
				rows = append(rows, t)
				if holders[t.Key()] == nil {
					holders[t.Key()] = map[int]bool{}
				}
				holders[t.Key()][i] = true
			}
			parts[i][a] = mk(rows)
			probs[i][a] = 0.05 + r.Float64()
			sum += probs[i][a]
		}
		total := 0.0
		for a := range probs[i] {
			probs[i][a] /= sum
			total += probs[i][a]
		}
		if total != 1 {
			sh.offUnit++
		}
	}
	for _, h := range holders {
		if len(h) >= 2 {
			sh.shared++
		}
	}
	if k == 1 {
		sh.single++
	}
	return cert, parts, probs
}

// concatBatches concatenates batches under the first one's schema.
func concatBatches(bs ...*colbatch.Batch) *colbatch.Batch {
	var rows []tuple.Tuple
	for _, b := range bs {
		rows = append(rows, b.Rows()...)
	}
	if bs[0].RowBacked() {
		return colbatch.FromRowsShared(bs[0].Schema, rows)
	}
	return colbatch.FromRows(bs[0].Schema, rows)
}

// TestPostingClosuresMatchDenseFlat compares the flat posting folds with
// the dense reference on randomized componentwise evaluations.
func TestPostingClosuresMatchDenseFlat(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var sh oracleShape
	for trial := 0; trial < 400; trial++ {
		k := 1 + r.Intn(6)
		if trial%5 == 0 {
			k = 1
		}
		columnar := trial%2 == 0
		cert, parts, probs := randomParts(r, k, columnar, &sh)
		// The first world: the certain rows, then every component's first
		// alternative's suffix in component order.
		w0 := []*colbatch.Batch{parts[0][0]}
		for i := 1; i < k; i++ {
			w0 = append(w0, parts[i][0].Slice(len(cert), parts[i][0].Len()))
		}
		p := &componentParts{d: New(true), parts: parts, probs: probs, world0: concatBatches(w0...)}
		p.compIdx = make([]int, k)
		label := fmt.Sprintf("trial %d (k=%d, columnar=%v)", trial, k, columnar)
		gotConf, err := confFromParts(p)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, label+" conf", gotConf, denseConfFromParts(t, p))
		gotCert, err := certainFromParts(p)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, label+" certain", gotCert, denseCertainFromParts(p))
	}
	if sh.certainPart == 0 || sh.shared == 0 || sh.dupInPart == 0 || sh.single == 0 || sh.offUnit == 0 {
		t.Fatalf("randomized trials missed a shape: %+v", sh)
	}
}

// TestPostingClosuresMatchDenseTree compares the tree posting folds with
// the dense recursion on randomized forests: each component hangs under a
// random earlier component's alternative or is top-level, and the
// deviation-world answers are random concatenations of parts.
func TestPostingClosuresMatchDenseTree(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var sh oracleShape
	nested := 0
	for trial := 0; trial < 400; trial++ {
		k := 1 + r.Intn(7)
		columnar := trial%2 == 0
		cert, parts, probs := randomParts(r, k, columnar, &sh)
		p := &conditionalParts{d: New(true), parts: parts, probs: probs,
			parent: make([]int32, k), parentAlt: make([]int32, k)}
		for i := range p.parent {
			p.parent[i] = -1
			if i > 0 && r.Intn(3) > 0 {
				up := r.Intn(i)
				p.parent[i] = int32(up)
				p.parentAlt[i] = int32(r.Intn(len(parts[up])))
				nested++
			}
		}
		p.devs = []*colbatch.Batch{parts[0][0]}
		for n := r.Intn(2 * k); n > 0; n-- {
			i, j := r.Intn(k), r.Intn(k)
			b := parts[i][r.Intn(len(parts[i]))]
			p.devs = append(p.devs, concatBatches(b, parts[j][0].Slice(len(cert), parts[j][0].Len())))
		}
		label := fmt.Sprintf("trial %d (k=%d, columnar=%v)", trial, k, columnar)
		dt := newDenseTree(p)
		gotConf, err := p.conf()
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, label+" conf", gotConf, dt.conf())
		gotCert, err := p.certain()
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, label+" certain", gotCert, dt.certain())
	}
	if nested == 0 || sh.certainPart == 0 || sh.shared == 0 || sh.dupInPart == 0 {
		t.Fatalf("randomized trials missed a shape: nested=%d %+v", nested, sh)
	}
}

// TestPostingClosuresMatchDenseSQL runs the comparison on the parts the
// engine itself evaluates: repaired and choice tables, joined with a
// certain table so parts carry duplicates, then split into nested
// components so the conditional route runs too.
func TestPostingClosuresMatchDenseSQL(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	queries := []string{
		"select K, V from %s",
		"select V from %s",
		"select x.V from %s x, S",
		"select x.V, S.Y from %s x, S where x.V = S.V",
	}
	flat, tree := 0, 0
	for trial := 0; trial < 40; trial++ {
		_, d := fuzzPair(t, r)
		rels := []string{"I", "P"}
		for step := 0; step < 2; step++ {
			src := rels[r.Intn(len(rels))]
			dst := fmt.Sprintf("Q%d", step)
			parsed, err := sqlparse.Parse(fmt.Sprintf("select K, V, W from %s where V <= %d", src, r.Intn(2)))
			if err != nil {
				t.Fatal(err)
			}
			srcStmt := parsed.(*sqlparse.SelectStmt)
			if r.Intn(2) == 0 {
				err = d.RepairByKeyQuery(srcStmt, dst, []string{"K"}, "W")
			} else {
				err = d.ChoiceOfQuery(srcStmt, dst, []string{"V", "W"}, "")
			}
			if err != nil {
				break // the filtered source is empty in some world
			}
			rels = append(rels, dst)
		}
		for _, rel := range rels {
			for _, q := range queries {
				sql := fmt.Sprintf(q, rel)
				prep, ev, err := d.prepared(mustCore(t, sql))
				if err != nil {
					t.Fatalf("%q: %v", sql, err)
				}
				an, err := d.analyze(prep)
				if err != nil {
					t.Fatalf("%q: %v", sql, err)
				}
				if !an.Decomposable || len(an.Comps) == 0 {
					continue
				}
				label := fmt.Sprintf("trial %d %q", trial, sql)
				if d.treeInvolved(an.Comps) {
					tree++
					cp, err := d.queryConditional(an.Comps, ev.batch)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					dt := newDenseTree(cp)
					gotConf, err := cp.conf()
					if err != nil {
						t.Fatal(err)
					}
					assertBitIdentical(t, label+" conf", gotConf, dt.conf())
					gotCert, err := cp.certain()
					if err != nil {
						t.Fatal(err)
					}
					assertBitIdentical(t, label+" certain", gotCert, dt.certain())
					continue
				}
				flat++
				parts, err := d.QueryByComponent(an.Comps, an, ev.batch)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				full, _ := fullParts(t, d, an.Comps, ev.batch)
				gotConf, err := confFromParts(parts)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, label+" conf", gotConf, denseConfFromParts(t, full))
				gotCert, err := certainFromParts(parts)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, label+" certain", gotCert, denseCertainFromParts(full))
			}
		}
	}
	if flat == 0 || tree == 0 {
		t.Fatalf("routes not exercised: flat=%d tree=%d", flat, tree)
	}
}

// fullParts is the full-part evaluation the delta representation
// replaced: the first world's answer and, per (component, alternative),
// the whole answer with that alternative's contributions visible, with no
// base. It also returns the certain-only answer Q(cert).
func fullParts(t *testing.T, d *WSD, compIdx []int, query func(plan.Catalog) (*colbatch.Batch, error)) (*componentParts, *colbatch.Batch) {
	t.Helper()
	p := &componentParts{d: d, compIdx: compIdx,
		parts: make([][]*colbatch.Batch, len(compIdx)), probs: make([][]float64, len(compIdx))}
	var err error
	if p.world0, err = query(d.firstWorldCatalog(compIdx)); err != nil {
		t.Fatal(err)
	}
	for i, ci := range compIdx {
		alts := d.comps[ci].Alts
		p.parts[i] = make([]*colbatch.Batch, len(alts))
		p.probs[i] = make([]float64, len(alts))
		for a := range alts {
			p.probs[i][a] = alts[a].Prob
			if p.parts[i][a], err = query(newPartsCatalog(d, map[int]int{ci: a})); err != nil {
				t.Fatal(err)
			}
		}
	}
	base, err := query(newPartsCatalog(d, nil))
	if err != nil {
		t.Fatal(err)
	}
	return p, base
}

// fullSuffixes checks that every full part starts with base and returns
// the rows beyond it — what a concat plan stores per alternative.
func fullSuffixes(t *testing.T, label string, full *componentParts, base *colbatch.Batch) [][][]tuple.Tuple {
	t.Helper()
	out := make([][][]tuple.Tuple, len(full.parts))
	for i, alts := range full.parts {
		out[i] = make([][]tuple.Tuple, len(alts))
		for a, part := range alts {
			rows := part.Rows()
			if len(rows) < base.Len() {
				t.Fatalf("%s: part (%d,%d) shorter than the base", label, i, a)
			}
			for j, b := range base.Rows() {
				if rows[j].Key() != b.Key() {
					t.Fatalf("%s: part (%d,%d) row %d is %v, base has %v", label, i, a, j, rows[j], b)
				}
			}
			out[i][a] = rows[base.Len():]
		}
	}
	return out
}

// assertRowsEqual fails unless got and want hold the same rows in order.
func assertRowsEqual(t *testing.T, label string, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for r := range got {
		if got[r].Key() != want[r].Key() {
			t.Fatalf("%s row %d: %v, want %v", label, r, got[r], want[r])
		}
	}
}

// deltaShape counts the decomposition features the delta oracle must
// cover.
type deltaShape struct {
	certainPart, certainDup, shared, single, offUnit, columnar int
}

// randomDeltaWSD builds a flat weighted decomposition: uncertain T(A, B)
// with a random certain part, k components whose alternatives contribute
// 0–3 rows each to T over the certain part's own domain (so contributions
// repeat certain rows and each other; an empty one is sometimes absent
// altogether), and certain S(A, C). Some certain
// parts are large enough for the vectorized evaluation path.
func randomDeltaWSD(t *testing.T, r *rand.Rand, k int, sh *deltaShape) *WSD {
	t.Helper()
	d := New(true)
	tsch, ssch := schema.New("A", "B"), schema.New("A", "C")
	draw := func() tuple.Tuple { return row(r.Intn(6), []string{"x", "y"}[r.Intn(2)]) }
	var srows []tuple.Tuple
	for n := 2 + r.Intn(5); n > 0; n-- {
		srows = append(srows, row(r.Intn(6), r.Intn(5)))
	}
	if err := d.PutCertain("S", relation.FromRowsShared(ssch, srows)); err != nil {
		t.Fatal(err)
	}
	if err := d.registerUncertain("T", tsch); err != nil {
		t.Fatal(err)
	}
	nCert := r.Intn(5)
	if r.Intn(4) == 0 {
		nCert = 40 + r.Intn(20)
		sh.columnar++
	}
	certKeys := map[string]bool{}
	var cert []tuple.Tuple
	for ; nCert > 0; nCert-- {
		c := draw()
		certKeys[c.Key()] = true
		cert = append(cert, c)
	}
	if len(cert) > 0 {
		d.certain["t"] = relation.FromRowsShared(tsch, cert)
		sh.certainPart++
	}
	holders := map[string]map[int]bool{}
	for i := 0; i < k; i++ {
		alts := make([]Alternative, 1+r.Intn(3))
		sum := 0.0
		for a := range alts {
			var rows []tuple.Tuple
			for n := r.Intn(4); n > 0; n-- {
				c := draw()
				if certKeys[c.Key()] {
					sh.certainDup++
				}
				if holders[c.Key()] == nil {
					holders[c.Key()] = map[int]bool{}
				}
				holders[c.Key()][i] = true
				rows = append(rows, c)
			}
			alts[a] = Alternative{Prob: 0.05 + r.Float64()}
			// The first alternative always lists T, so every component feeds it.
			if a == 0 || len(rows) > 0 || r.Intn(2) == 0 {
				alts[a].Contrib = contribRel(tsch, "t", rows)
			}
			sum += alts[a].Prob
		}
		total := 0.0
		for a := range alts {
			alts[a].Prob /= sum
			total += alts[a].Prob
		}
		if total != 1 {
			sh.offUnit++
		}
		if _, err := d.addComponent(alts); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range holders {
		if len(h) >= 2 {
			sh.shared++
		}
	}
	if k == 1 {
		sh.single++
	}
	return d
}

// TestDeltaPartsMatchFullParts checks the delta representation against
// the full-part evaluation on randomized flat decompositions: POSSIBLE,
// CERTAIN and CONF (row order and conf bits), conditional relations and
// CREATE TABLE AS instances. Linear queries take the delta evaluation;
// the concat and merely decomposable ones take the sliced and the
// base-free forms.
func TestDeltaPartsMatchFullParts(t *testing.T) {
	queries := []struct {
		sql    string
		linear bool
	}{
		{"select A, B from T", true},
		{"select B, A from T where A < 4", true},
		{"select T.A, T.B, S.C from T, S where T.A = S.A", true},
		{"select T.B, S.C from T, S where S.C > 2", true},
		{"select A from T where A >= (select min(A) from S)", true},
		{"select A, B from T where exists (select * from S where S.A = T.A)", true},
		{"select A from S union all select A from T", false},
		{"select distinct A, B from T", false},
		{"select A from T order by A", false},
	}
	r := rand.New(rand.NewSource(15))
	var sh deltaShape
	delta, sliced, baseFree := 0, 0, 0
	for trial := 0; trial < 120; trial++ {
		k := 1 + r.Intn(5)
		if trial%4 == 0 {
			k = 1
		}
		d := randomDeltaWSD(t, r, k, &sh)
		for qi, q := range queries {
			label := fmt.Sprintf("trial %d (k=%d) %q", trial, k, q.sql)
			prep, ev, err := d.prepared(mustCore(t, q.sql))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			an, err := d.analyze(prep)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if an.Linear != q.linear || !an.Decomposable || len(an.Comps) != k {
				t.Fatalf("%s: linear=%v decomposable=%v components=%v", label, an.Linear, an.Decomposable, an.Comps)
			}
			p, err := d.QueryByComponent(an.Comps, an, ev.batch)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			switch {
			case p.delta:
				delta++
			case p.base != nil:
				sliced++
			default:
				baseFree++
			}
			if p.delta != an.Linear || (p.base != nil) != an.Concat {
				t.Fatalf("%s: delta=%v base=%v for linear=%v concat=%v", label, p.delta, p.base != nil, an.Linear, an.Concat)
			}
			full, base := fullParts(t, d, an.Comps, ev.batch)

			got, err := possibleFromParts(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := possibleFromParts(full)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, label+" possible", got, want)
			if got, err = certainFromParts(p); err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, label+" certain", got, denseCertainFromParts(full))
			if got, err = confFromParts(p); err != nil {
				t.Fatal(err)
			}
			if want, err = confFromParts(full); err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, label+" conf", got, want)
			assertBitIdentical(t, label+" dense conf", got, denseConfFromParts(t, full))

			if !an.Concat {
				continue
			}
			// Conditional relation: base rows under "", then each full part's
			// suffix under its alternative's condition.
			suffixes := fullSuffixes(t, label, full, base)
			cp, err := d.QueryByComponent(d.rootClosure(an.Comps), an, ev.batch)
			if err != nil {
				t.Fatal(err)
			}
			cond, err := d.conditionalRelation(cp)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var wantCond []tuple.Tuple
			for _, b := range base.Rows() {
				wantCond = append(wantCond, append(b.Clone(), value.Str("")))
			}
			for i, ci := range an.Comps {
				for a, rows := range suffixes[i] {
					for _, row := range rows {
						wantCond = append(wantCond, append(row.Clone(), value.Str(fmt.Sprintf("c%d=%d", d.comps[ci].ID, a))))
					}
				}
			}
			assertRowsEqual(t, label+" conditional", cond.Rows(), wantCond)

			// CREATE TABLE AS: the base is the certain part, each suffix the
			// alternative's contribution (none when empty).
			dst := fmt.Sprintf("M%d", qi)
			if err := d.materializeByComponent(dst, p); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			dk := key(dst)
			assertRowsEqual(t, label+" CTAS certain", d.certain[dk].Rows(), base.Rows())
			for i, ci := range an.Comps {
				for a, rows := range suffixes[i] {
					stored, ok := d.comps[ci].Alts[a].Contrib[dk]
					if ok != (len(rows) > 0) {
						t.Fatalf("%s: CTAS contribution (%d,%d) stored=%v for %d rows", label, i, a, ok, len(rows))
					}
					if !ok {
						continue
					}
					assertRowsEqual(t, fmt.Sprintf("%s CTAS (%d,%d)", label, i, a), stored.Rows(), rows)
				}
			}
			if err := d.CheckInvariant(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
	if sh.certainPart == 0 || sh.certainDup == 0 || sh.shared == 0 || sh.single == 0 || sh.offUnit == 0 || sh.columnar == 0 {
		t.Fatalf("randomized trials missed a shape: %+v", sh)
	}
	if delta == 0 || sliced == 0 || baseFree == 0 {
		t.Fatalf("representations not exercised: delta=%d sliced=%d base-free=%d", delta, sliced, baseFree)
	}
}
