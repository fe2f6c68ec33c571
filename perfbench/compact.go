package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"maybms"
	"maybms/internal/sqlparse"
)

// execDB is the statement surface shared by maybms.DB and
// maybms.CompactDB.
type execDB interface {
	Exec(sql string) (*maybms.Result, error)
	ExecTraced(sql string) (*maybms.Result, *maybms.Trace, error)
}

// execOp runs one statement as an op of type typ, checks its answer and
// records it. In a traced pass it also times sqlparse.Parse on the same
// text from outside and keeps the statement's trace. It returns the
// result (nil on failure) and the op's latency.
//
// Every op starts from a collected heap, outside its timing: the embedded
// loops are one deterministic allocation sequence, and otherwise the
// collector's cycles, started by one op's garbage, would land on
// whichever later ops the run's timing happens to line up with. An op
// still pays for the collections its own allocations start.
func execOp(p *pass, db execDB, backend, typ, stmt string, traced bool, check func(*maybms.Result) error) (*maybms.Result, time.Duration) {
	t0 := time.Now()
	runtime.GC()
	p.counts["gc_s"] += time.Since(t0).Seconds()
	var res *maybms.Result
	var tr *maybms.Trace
	var err error
	if traced {
		t0 := time.Now()
		_, perr := sqlparse.Parse(stmt)
		p.time("sqlparse.parse", time.Since(t0))
		if perr != nil {
			p.fail(stmt, perr)
		}
	}
	start := time.Now()
	if traced {
		res, tr, err = db.ExecTraced(stmt)
	} else {
		res, err = db.Exec(stmt)
	}
	d := time.Since(start)
	if err == nil && check != nil {
		err = check(res)
	}
	p.record(typ, stmt, d, err)
	if traced {
		p.traces = append(p.traces, tracedOp{typ: typ, backend: backend, dur: d, trace: tr.JSON(), answerRows: answerRows(res)})
	}
	if err != nil {
		return nil, d
	}
	return res, d
}

// answerRows counts the rows of a result's answer relations.
func answerRows(res *maybms.Result) int {
	if res == nil {
		return 0
	}
	n := 0
	for _, g := range res.Groups {
		n += g.Rel.Len()
	}
	for _, w := range res.PerWorld {
		n += w.Rel.Len()
	}
	return n
}

// closedRel returns the single closed answer of res.
func closedRel(res *maybms.Result) (*maybms.Relation, error) {
	if len(res.Groups) != 1 {
		return nil, fmt.Errorf("want one closed answer, got %d groups and %d worlds", len(res.Groups), len(res.PerWorld))
	}
	return res.Groups[0].Rel, nil
}

// kv is a (K, V) answer pair.
type kv struct{ k, v int }

// pairs reads the (K, V) pairs of a relation whose first two columns are
// K and V.
func pairs(rel *maybms.Relation) []kv {
	out := make([]kv, 0, rel.Len())
	for _, t := range rel.Rows() {
		out = append(out, kv{int(t[0].AsInt()), int(t[1].AsInt())})
	}
	return out
}

// sameSet reports whether got holds exactly the pairs of want, once each.
func sameSet(got, want []kv) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	seen := make(map[kv]bool, len(want))
	for _, x := range want {
		seen[x] = true
	}
	for _, x := range got {
		if !seen[x] {
			return fmt.Errorf("unexpected row %v", x)
		}
		delete(seen, x)
	}
	return nil
}

// compactCase is the state and statement list one compact workload shares
// between its timed rounds and its naive cross-check.
type compactCase struct {
	data *dataset
	pw   [2]int // weights of P's alternatives B=1 and B=2
	// span bounds the selective reads to keys [0, span). The generators
	// place conflicts and NULLs at random keys, so the range is a seeded
	// sample, while the filter's branch pattern is the same for every seed.
	span int
}

func (c *compactCase) rangeWhere() string { return fmt.Sprintf("K < %d", c.span) }

func (c *compactCase) inRange(k int) bool { return k < c.span }

// choiceTable creates P, the 2-alternative CHOICE OF table GROUP WORLDS BY
// groups on.
func (c *compactCase) choiceTable() []string {
	return []string{
		"create table PB (B, W)",
		fmt.Sprintf("insert into PB values (1, %d), (2, %d)", c.pw[0], c.pw[1]),
		"create table P as select * from PB choice of B weight W",
	}
}

// possiblePairs lists every (K, V) of keys in range whose V satisfies keep.
func (c *compactCase) possiblePairs(keep func(v int) bool) []kv {
	var out []kv
	for k := range c.data.byKey {
		if !c.inRange(k) {
			continue
		}
		for _, v := range c.data.possibleV(k) {
			if keep(v) {
				out = append(out, kv{k, v})
			}
		}
	}
	return out
}

// checkConf checks a K, V, conf answer over the keys in range: every
// possible pair once, each with its exact confidence, each key's
// confidences summing to 1.
func (c *compactCase) checkConf(res *maybms.Result) error {
	rel, err := closedRel(res)
	if err != nil {
		return err
	}
	if err := sameSet(pairs(rel), c.possiblePairs(func(int) bool { return true })); err != nil {
		return err
	}
	sums := map[int]float64{}
	for _, t := range rel.Rows() {
		k, v, got := int(t[0].AsInt()), int(t[1].AsInt()), t[2].AsFloat()
		if want := c.data.conf(k, v); math.Abs(got-want) > 1e-9 {
			return fmt.Errorf("conf(%d, %d) = %v, want %v", k, v, got, want)
		}
		sums[k] += got
	}
	for k, s := range sums {
		if math.Abs(s-1) > 1e-9 {
			return fmt.Errorf("confidences of key %d sum to %v", k, s)
		}
	}
	return nil
}

// checkGroups checks a GROUP WORLDS BY (select B from P) answer: one group
// per alternative of P, weighted by P's weights, each holding want.
func (c *compactCase) checkGroups(res *maybms.Result, want []int) error {
	if len(res.Groups) != 2 {
		return fmt.Errorf("%d world groups, want 2", len(res.Groups))
	}
	probs := []float64{res.Groups[0].Prob, res.Groups[1].Prob}
	sort.Float64s(probs)
	w := []float64{float64(c.pw[0]), float64(c.pw[1])}
	sort.Float64s(w)
	for i := range probs {
		if math.Abs(probs[i]-w[i]/(w[0]+w[1])) > 1e-9 {
			return fmt.Errorf("group probabilities %v, want weights %v", probs, w)
		}
	}
	for _, g := range res.Groups {
		if err := keySet(g.Rel, want); err != nil {
			return fmt.Errorf("group answer: %w", err)
		}
	}
	return nil
}

// checkConflictGroups checks select possible B from P grouped by the
// value of conflicting key k: one group per candidate of k, weighted by
// its share, each holding both values of B.
func (c *compactCase) checkConflictGroups(res *maybms.Result, k int) error {
	cs := c.data.byKey[k]
	if len(res.Groups) != len(cs) {
		return fmt.Errorf("%d world groups, want %d", len(res.Groups), len(cs))
	}
	got := make([]float64, len(res.Groups))
	for i, g := range res.Groups {
		got[i] = g.Prob
		if err := keySet(g.Rel, []int{1, 2}); err != nil {
			return fmt.Errorf("group answer: %w", err)
		}
	}
	want := make([]float64, len(cs))
	for i, x := range cs {
		want[i] = c.data.conf(k, x.V)
	}
	sort.Float64s(got)
	sort.Float64s(want)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			return fmt.Errorf("group probabilities %v, want %v", got, want)
		}
	}
	return nil
}

// possibleKeys lists the keys in range that take a value satisfying keep
// in some world.
func (c *compactCase) possibleKeys(keep func(v int) bool) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range c.possiblePairs(keep) {
		if !seen[x.k] {
			seen[x.k] = true
			out = append(out, x.k)
		}
	}
	return out
}

// checkCond checks a conditional relation (K, V, cond): exactly the
// possible pairs in range, the certain ones with an empty condition and
// the others with a non-empty one.
func (c *compactCase) checkCond(res *maybms.Result) error {
	rel, err := closedRel(res)
	if err != nil {
		return err
	}
	if err := sameSet(pairs(rel), c.possiblePairs(func(int) bool { return true })); err != nil {
		return err
	}
	for _, t := range rel.Rows() {
		k := int(t[0].AsInt())
		cs := c.data.byKey[k]
		certain := len(cs) == 1 && !cs[0].nullV
		if cond := t[len(t)-1].String(); certain != (cond == "") {
			return fmt.Errorf("key %d: condition %q", k, cond)
		}
	}
	return nil
}

// checkAck checks a DML acknowledgement.
func checkAck(verb string) func(*maybms.Result) error {
	return func(res *maybms.Result) error {
		if !strings.HasPrefix(res.Msg, verb) {
			return fmt.Errorf("acknowledgement %q, want %s…", res.Msg, verb)
		}
		return nil
	}
}

// ---- repair-closure ----

const repairKeys = 4000

type repairClosure struct {
	c, small  compactCase
	db        *maybms.CompactDB
	updateKey int
	// setupLoads holds the latency of each set-up IMPORT.
	setupLoads []time.Duration
}

func newRepairClosure(rng *rand.Rand, dir string) (*repairClosure, error) {
	w := &repairClosure{}
	pw := [2]int{1 + rng.Intn(9), 1 + rng.Intn(9)}
	w.c = compactCase{data: genRepair(rng, repairKeys), pw: pw, span: 40}
	w.updateKey = rng.Intn(repairKeys)
	w.small = compactCase{data: genRepair(rng, 10), pw: pw, span: 10}
	if err := w.c.data.write(dir, "repair.csv"); err != nil {
		return nil, err
	}
	if err := w.small.data.write(dir, "repair-small.csv"); err != nil {
		return nil, err
	}
	return w, nil
}

func repairImport(d *dataset) string {
	return fmt.Sprintf("import into T from '%s' repair key (K) weight W", d.path)
}

func (w *repairClosure) setup() error {
	db := maybms.OpenCompact()
	start := time.Now()
	if _, err := db.Exec(repairImport(w.c.data)); err != nil {
		return err
	}
	w.setupLoads = append(w.setupLoads, time.Since(start))
	if db.ComponentCount() != w.c.data.components || db.AlternativeCount() != w.c.data.alternatives {
		return fmt.Errorf("IMPORT built %d components / %d alternatives, want %d / %d",
			db.ComponentCount(), db.AlternativeCount(), w.c.data.components, w.c.data.alternatives)
	}
	for _, s := range w.c.choiceTable() {
		if _, err := db.Exec(s); err != nil {
			return err
		}
	}
	w.db = db
	return nil
}

func (w *repairClosure) teardown() { w.db = nil }

func (w *repairClosure) detach() any {
	db := w.db
	w.db = nil
	return db
}

func (w *repairClosure) attach(state any) { w.db = state.(*maybms.CompactDB) }

func (w *repairClosure) shape() map[string]any { return w.c.data.shape() }

func (w *repairClosure) clients() []client { return []client{w} }

// statements lists one round: CONF over the whole table, CERTAIN,
// POSSIBLE, GROUP WORLDS BY, a conditional SELECT and an UPDATE pair that
// restores the table.
func (c *compactCase) repairRound(updateKey int) []step {
	all := *c
	all.span = c.data.keys
	high := func(v int) bool { return v >= 200 }
	return []step{
		{opConf, "select K, V, conf from T", all.checkConf},
		{opCertain, "select certain K from T where V >= 200", func(res *maybms.Result) error {
			return all.checkKeys(res, all.certainKeys(high))
		}},
		{opPossible, "select possible K, V from T where V >= 200", func(res *maybms.Result) error {
			rel, err := closedRel(res)
			if err != nil {
				return err
			}
			return sameSet(pairs(rel), all.possiblePairs(high))
		}},
		{opGroupWorlds, "select possible K from T where V < 20 group worlds by (select B from P)", func(res *maybms.Result) error {
			return all.checkGroups(res, all.possibleKeys(func(v int) bool { return v < 20 }))
		}},
		{opCondSelect, "select K, V from T where " + c.rangeWhere(), c.checkCond},
		{opDML, fmt.Sprintf("update T set V = V + 1000 where K = %d", updateKey), checkAck("updated")},
		{opDML, fmt.Sprintf("update T set V = V - 1000 where K = %d", updateKey), checkAck("updated")},
	}
}

// routes are a compact database's routing counters: component merges,
// statements answered componentwise, and uses of the conditional route.
type routes struct{ merges, componentwise, conditional uint64 }

func routeCounts(db *maybms.CompactDB) routes {
	return routes{db.MergeCount(), db.ComponentwiseCount(), db.ConditionalCount()}
}

// addRoutes adds the growth of the routing counters to the pass.
func (p *pass) addRoutes(before, after routes) {
	p.counts["merges"] += float64(after.merges - before.merges)
	p.counts["componentwise"] += float64(after.componentwise - before.componentwise)
	p.counts["conditional"] += float64(after.conditional - before.conditional)
}

// step is one statement of a round with its op type and answer check.
type step struct {
	typ   string
	stmt  string
	check func(*maybms.Result) error
}

// runSteps runs a round's steps as ops and checks that the CERTAIN answer
// is contained in the POSSIBLE one (on the CERTAIN answer's columns).
func runSteps(p *pass, db execDB, steps []step, traced bool) {
	var certain, possible *maybms.Relation
	for _, s := range steps {
		res, _ := execOp(p, db, "compact", s.typ, s.stmt, traced, s.check)
		if res == nil {
			continue
		}
		switch s.typ {
		case opCertain:
			certain = res.Groups[0].Rel
		case opPossible:
			possible = res.Groups[0].Rel
		}
	}
	if certain == nil || possible == nil {
		return
	}
	width := len(certain.Schema.Names())
	seen := map[string]bool{}
	for _, t := range possible.Rows() {
		seen[renderRow(t[:width])] = true
	}
	for _, t := range certain.Rows() {
		if !seen[renderRow(t)] {
			p.fail("CERTAIN ⊆ POSSIBLE", fmt.Errorf("certain row %s is not possible", renderRow(t)))
			return
		}
	}
}

// certainKeys lists the keys in range all of whose possible values satisfy
// keep.
func (c *compactCase) certainKeys(keep func(v int) bool) []int {
	var out []int
	for k := range c.data.byKey {
		if !c.inRange(k) {
			continue
		}
		all := true
		for _, v := range c.data.possibleV(k) {
			all = all && keep(v)
		}
		if all {
			out = append(out, k)
		}
	}
	return out
}

// checkKeys checks a one-column closed answer of keys.
func (c *compactCase) checkKeys(res *maybms.Result, want []int) error {
	rel, err := closedRel(res)
	if err != nil {
		return err
	}
	return keySet(rel, want)
}

// keySet checks that a relation's first column holds exactly want.
func keySet(rel *maybms.Relation, want []int) error {
	got := make([]kv, 0, rel.Len())
	for _, t := range rel.Rows() {
		got = append(got, kv{int(t[0].AsInt()), 0})
	}
	wantSet := make([]kv, len(want))
	for i, k := range want {
		wantSet[i] = kv{k, 0}
	}
	return sameSet(got, wantSet)
}

func (w *repairClosure) round(p *pass, traced bool) {
	before := routeCounts(w.db)
	runSteps(p, w.db, w.c.repairRound(w.updateKey), traced)
	p.addRoutes(before, routeCounts(w.db))
	if traced {
		timeImportLayers(p, w.c.data, repairImportOptions)
	}
}

// verify cross-checks every statement of a round against the naive engine
// on the 10-key instance.
func (w *repairClosure) verify(p *pass) {
	load := append([]string{repairImport(w.small.data)}, w.small.choiceTable()...)
	crossCheck(p, load, w.small.repairRound(w.small.data.rows[0].K), "select K, V, conf from T")
}

// setupLoad reports the rows and median latency of the set-up IMPORTs:
// repair-closure rounds load nothing.
func (w *repairClosure) setupLoad() (int, time.Duration) {
	ds := append([]time.Duration(nil), w.setupLoads...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return len(w.c.data.rows), ds[len(ds)/2]
}

// ---- dirty-import ----

const (
	dirtyKeys     = 10000
	dirtyConflict = 0.10
	dirtyNulls    = 5
)

type dirtyImport struct {
	c, small compactCase
	db       *maybms.CompactDB
	// certainKey is updated and conflictKey deleted by the round's DML.
	certainKey, conflictKey int
}

func newDirtyImport(rng *rand.Rand, dir string) (*dirtyImport, error) {
	w := &dirtyImport{}
	pw := [2]int{1 + rng.Intn(9), 1 + rng.Intn(9)}
	data := genDirty(rng, dirtyKeys, dirtyConflict, dirtyNulls)
	w.c = compactCase{data: data, pw: pw, span: 200}
	w.certainKey, w.conflictKey = w.c.dmlKeys()
	w.small = compactCase{data: genDirty(rng, 10, dirtyConflict, 1), pw: pw, span: 10}
	if err := data.write(dir, "dirty.csv"); err != nil {
		return nil, err
	}
	if err := w.small.data.write(dir, "dirty-small.csv"); err != nil {
		return nil, err
	}
	return w, nil
}

func dirtyImportStmt(d *dataset) string {
	return fmt.Sprintf("import into D from '%s' nulls as choice repair key (K) weight W", d.path)
}

// load imports the file into a fresh CompactDB and creates P, as one load
// op and three DDL ops.
func (w *dirtyImport) load(p *pass, traced bool) *maybms.CompactDB {
	db := maybms.OpenCompact()
	d := w.c.data
	_, dur := execOp(p, db, "compact", opLoad, dirtyImportStmt(d), traced, func(res *maybms.Result) error {
		want := fmt.Sprintf("%d certain row(s), %d uncertainty group(s)", d.certainRows, d.components)
		if !strings.Contains(res.Msg, want) {
			return fmt.Errorf("acknowledgement %q, want %q", res.Msg, want)
		}
		if db.ComponentCount() != d.components || db.AlternativeCount() != d.alternatives {
			return fmt.Errorf("%d components / %d alternatives, want %d / %d",
				db.ComponentCount(), db.AlternativeCount(), d.components, d.alternatives)
		}
		return nil
	})
	p.loadRows += len(d.rows)
	p.loadDur += dur
	for _, s := range w.c.choiceTable() {
		execOp(p, db, "compact", opOther, s, traced, nil)
	}
	return db
}

func (w *dirtyImport) setup() error {
	p := newPass()
	w.db = w.load(p, false)
	if p.failed > 0 {
		return fmt.Errorf("%s", strings.Join(p.errs, "; "))
	}
	return nil
}

func (w *dirtyImport) teardown() { w.db = nil }

func (w *dirtyImport) detach() any {
	db := w.db
	w.db = nil
	return db
}

func (w *dirtyImport) attach(state any) { w.db = state.(*maybms.CompactDB) }

func (w *dirtyImport) shape() map[string]any { return w.c.data.shape() }

func (w *dirtyImport) clients() []client { return []client{w} }

// dirtyRound lists the reads and DML of one round after the load: selective
// CONF, CERTAIN, POSSIBLE, a conditional SELECT, GROUP WORLDS BY, then an
// UPDATE of a certain row and a DELETE of a conflicting key.
func (c *compactCase) dirtyRound(certainKey, conflictKey int) []step {
	where := c.rangeWhere()
	every := func(int) bool { return true }
	return []step{
		{opConf, "select K, V, conf from D where " + where, c.checkConf},
		{opCertain, "select certain K, V from D where " + where, func(res *maybms.Result) error {
			rel, err := closedRel(res)
			if err != nil {
				return err
			}
			var want []kv
			for _, k := range c.certainKeys(every) {
				if cs := c.data.byKey[k]; len(cs) == 1 && !cs[0].nullV {
					want = append(want, kv{k, cs[0].V})
				}
			}
			return sameSet(pairs(rel), want)
		}},
		{opPossible, "select possible K, V from D where " + where, func(res *maybms.Result) error {
			rel, err := closedRel(res)
			if err != nil {
				return err
			}
			return sameSet(pairs(rel), c.possiblePairs(every))
		}},
		{opCondSelect, "select K, V from D where " + where, c.checkCond},
		{opGroupWorlds, fmt.Sprintf("select possible B from P group worlds by (select V from D where K = %d)", conflictKey), func(res *maybms.Result) error {
			return c.checkConflictGroups(res, conflictKey)
		}},
		{opDML, fmt.Sprintf("update D set W = W + 1 where K = %d", certainKey), checkAck("updated")},
		{opDML, fmt.Sprintf("delete from D where K = %d", conflictKey), checkAck("deleted")},
	}
}

func (w *dirtyImport) round(p *pass, traced bool) {
	db := w.load(p, traced)
	runSteps(p, db, w.c.dirtyRound(w.certainKey, w.conflictKey), traced)
	p.addRoutes(routes{}, routeCounts(db))
	if traced {
		timeImportLayers(p, w.c.data, dirtyImportOptions)
	}
}

// dmlKeys picks, in file order, the first certain and the first
// conflicting key in range.
func (c *compactCase) dmlKeys() (certainKey, conflictKey int) {
	certainKey, conflictKey = -1, -1
	for _, r := range c.data.rows {
		cs := c.data.byKey[r.K]
		switch {
		case !c.inRange(r.K):
		case certainKey < 0 && len(cs) == 1 && !cs[0].nullV:
			certainKey = r.K
		case conflictKey < 0 && len(cs) > 1:
			conflictKey = r.K
		}
	}
	return certainKey, conflictKey
}

func (w *dirtyImport) verify(p *pass) {
	certainKey, conflictKey := w.small.dmlKeys()
	load := append([]string{dirtyImportStmt(w.small.data)}, w.small.choiceTable()...)
	crossCheck(p, load, w.small.dirtyRound(certainKey, conflictKey), "select K, V, conf from D")
}
