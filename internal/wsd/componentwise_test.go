package wsd

// componentwise_test.go: the merge-free decomposition-aware execution
// path. The acceptance checks of the decomposition-aware planner live
// here: CONF/POSSIBLE/CERTAIN over a relation fed by k independent
// components (plus joins against certain relations) run with zero
// component merges — observed through MergeCount and ComponentCount — and
// produce answers identical, order included, to the classic merge path
// and to the naive engine on the expanded world-set.

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"maybms/internal/core"
	"maybms/internal/obs"
	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
)

// parseCore parses an I-SQL SELECT and strips its closure.
func parseCore(t *testing.T, sql string) (*sqlparse.SelectStmt, Closure) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	core, cl, err := StripClosure(stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatalf("strip %q: %v", sql, err)
	}
	return core, cl
}

// renderRel renders a relation order-sensitively and bit-exactly.
func renderRel(r *relation.Relation) string {
	var b strings.Builder
	b.WriteString(r.Schema.String())
	for _, t := range r.Rows() {
		b.WriteString("\n")
		b.WriteString(fmt.Sprintf("%q", t.Key()))
	}
	return b.String()
}

// renderRelTol renders a relation with the trailing conf column rounded,
// for comparisons where the two paths accumulate floats in different
// orders (mathematically equal, last-ulp different).
func renderRelTol(t *testing.T, r *relation.Relation) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(r.Schema.String())
	for _, tp := range r.Rows() {
		b.WriteString("\n")
		b.WriteString(fmt.Sprintf("%q|conf=%.9f", tp[:len(tp)-1].Key(), tp[len(tp)-1].AsFloat()))
	}
	return b.String()
}

// figure2Pair builds two identical decompositions over Figure 1's data —
// one with the componentwise path enabled, one forced onto the merge path.
func figure2Pair(t *testing.T) (*WSD, *WSD) {
	t.Helper()
	fast := newFigure2WSD(t)
	slow := newFigure2WSD(t)
	slow.DisableComponentwise = true
	return fast, slow
}

func selectOn(t *testing.T, d *WSD, sql string) *relation.Relation {
	t.Helper()
	core, cl := parseCore(t, sql)
	rel, err := d.SelectClosure(core, cl)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return rel
}

// TestComponentwiseNoMergeAcceptance is the acceptance check: closures
// over a relation fed by 3 independent components, including a join
// against a certain relation, execute with no component merge and match
// the merge path byte for byte.
func TestComponentwiseNoMergeAcceptance(t *testing.T) {
	queries := []string{
		"select possible A, B from I",
		"select certain A from I",
		"select possible I.A, R.C from I, R where I.B = R.B",
		"select possible A, B from I where B >= 15 order by B desc, A",
		"select possible distinct C from I union select C from R",
		"select conf, A, B from I",
		"select conf, I.A from I, R where I.C = R.C",
	}
	for _, q := range queries {
		fast, slow := figure2Pair(t)
		fastRel := selectOn(t, fast, q)

		if got := fast.MergeCount(); got != 0 {
			t.Errorf("%q merged %d times on the componentwise path, want 0", q, got)
		}
		if got := fast.ComponentCount(); got != 3 {
			t.Errorf("%q restructured the decomposition to %d components, want 3 untouched", q, got)
		}
		if got := fast.ComponentwiseCount(); got != 1 {
			t.Errorf("%q componentwise count = %d, want 1", q, got)
		}

		slowRel := selectOn(t, slow, q)
		if slow.MergeCount() == 0 {
			t.Errorf("%q did not merge on the forced merge path (bad baseline)", q)
		}
		var gotS, wantS string
		if strings.Contains(q, "conf") {
			gotS, wantS = renderRelTol(t, fastRel), renderRelTol(t, slowRel)
		} else {
			gotS, wantS = renderRel(fastRel), renderRel(slowRel)
		}
		if gotS != wantS {
			t.Errorf("%q diverged from the merge path:\n%s\nwant:\n%s", q, gotS, wantS)
		}
	}
}

// TestComponentwiseConfDyadic: with dyadic probabilities both paths'
// float arithmetic is exact, so conf answers are byte-identical too.
func TestComponentwiseConfDyadic(t *testing.T) {
	build := func() *WSD {
		d := New(true)
		r := relation.New(figure1R().Schema)
		r.MustAppend(row("a1", 10, "c1", 2))
		r.MustAppend(row("a1", 15, "c2", 6)) // weights 2,6 → 0.25, 0.75
		r.MustAppend(row("a2", 14, "c3", 4))
		r.MustAppend(row("a2", 20, "c4", 4)) // weights 4,4 → 0.5, 0.5
		r.MustAppend(row("a3", 20, "c5", 6)) // single → 1
		if err := d.PutCertain("R", r); err != nil {
			t.Fatal(err)
		}
		if err := d.RepairByKey("R", "I", []string{"A"}, "D"); err != nil {
			t.Fatal(err)
		}
		return d
	}
	fast, slow := build(), build()
	slow.DisableComponentwise = true
	q := "select conf, B from I"
	got := renderRel(selectOn(t, fast, q))
	want := renderRel(selectOn(t, slow, q))
	if got != want {
		t.Fatalf("dyadic conf diverged:\n%s\nwant:\n%s", got, want)
	}
	if fast.MergeCount() != 0 {
		t.Fatal("componentwise conf merged")
	}
}

// TestComponentwiseScalesWithSum: k components of m alternatives each are
// closed with Σ = k·m + 1 evaluations and zero merges; the forced merge
// path multiplies them into m^k alternatives.
func TestComponentwiseScalesWithSum(t *testing.T) {
	const k, m = 8, 3
	build := func() *WSD {
		d := New(true)
		r := relation.New(figure1R().Schema.Project([]int{0, 1}))
		for g := 0; g < k; g++ {
			for v := 0; v < m; v++ {
				r.MustAppend(row(fmt.Sprintf("g%02d", g), v))
			}
		}
		if err := d.PutCertain("R", r); err != nil {
			t.Fatal(err)
		}
		if err := d.RepairByKey("R", "I", []string{"A"}, ""); err != nil {
			t.Fatal(err)
		}
		return d
	}
	fast, slow := build(), build()
	slow.DisableComponentwise = true

	q := "select conf, A, B from I"
	got := renderRelTol(t, selectOn(t, fast, q))
	want := renderRelTol(t, selectOn(t, slow, q))
	if got != want {
		t.Fatalf("scaled conf diverged:\n%s\nwant:\n%s", got, want)
	}
	if fast.MergeCount() != 0 || fast.ComponentCount() != k {
		t.Fatalf("componentwise path merged (merges=%d, comps=%d)", fast.MergeCount(), fast.ComponentCount())
	}
	// The merge path collapsed k components into one with m^k alternatives.
	if slow.ComponentCount() != 1 || len(slow.comps[0].Alts) != int(math.Pow(m, k)) {
		t.Fatalf("merge path shape = %d comps, %d alts", slow.ComponentCount(), len(slow.comps[0].Alts))
	}
	// Each tuple appears in exactly one alternative of one component with
	// probability 1/m.
	for _, tp := range selectOn(t, fast, "select conf, A, B from I").Rows() {
		if c := tp[len(tp)-1].AsFloat(); math.Abs(c-1.0/m) > 1e-9 {
			t.Fatalf("conf = %v, want %v", c, 1.0/m)
		}
	}
}

// TestComponentwiseCreateTableAs: a projection of a multi-component
// relation materializes componentwise — no merge, linear representation —
// and downstream closures agree with the merge path byte for byte.
func TestComponentwiseCreateTableAs(t *testing.T) {
	fast, slow := figure2Pair(t)
	core, _ := parseCore(t, "select A, B from I where B >= 14")
	if err := fast.CreateTableAs("HighB", core); err != nil {
		t.Fatal(err)
	}
	if fast.MergeCount() != 0 {
		t.Fatal("componentwise CTAS merged")
	}
	if fast.ComponentCount() != 3 {
		t.Fatalf("CTAS restructured to %d components", fast.ComponentCount())
	}
	if err := slow.CreateTableAs("HighB", core); err != nil {
		t.Fatal(err)
	}
	if slow.MergeCount() == 0 {
		t.Fatal("merge path did not merge (bad baseline)")
	}
	for _, q := range []string{
		"select possible A, B from HighB",
		"select certain A from HighB",
		"select conf, A, B from HighB",
	} {
		var got, want string
		if strings.Contains(q, "conf") {
			got, want = renderRelTol(t, selectOn(t, fast, q)), renderRelTol(t, selectOn(t, slow, q))
		} else {
			got, want = renderRel(selectOn(t, fast, q)), renderRel(selectOn(t, slow, q))
		}
		if got != want {
			t.Errorf("%q after CTAS diverged:\n%s\nwant:\n%s", q, got, want)
		}
	}
	// The componentwise materialization is linear: one contribution per
	// original alternative, no blowup.
	if got := fast.AlternativeCount(); got != 5 {
		t.Errorf("alternatives after componentwise CTAS = %d, want 5", got)
	}
	if err := fast.CheckInvariant(); err != nil {
		t.Error(err)
	}
}

// TestDistinctCTASCrossComponentDedup: per-world DISTINCT dedupes across
// components, which factored storage cannot represent — a multi-component
// DISTINCT materialization must take the merge path and represent exactly
// the same worlds. (Regression: the analysis once kept the concat flag
// through Distinct, storing a row shared by two components twice.)
func TestDistinctCTASCrossComponentDedup(t *testing.T) {
	build := func(componentwise bool) *WSD {
		d := New(true)
		r := relation.New(schema.New("K", "V"))
		r.MustAppend(row("k1", 1))
		r.MustAppend(row("k1", 2))
		r.MustAppend(row("k2", 1)) // V=1 shared across both components
		if err := d.PutCertain("R", r); err != nil {
			t.Fatal(err)
		}
		if err := d.RepairByKey("R", "I", []string{"K"}, ""); err != nil {
			t.Fatal(err)
		}
		d.DisableComponentwise = !componentwise
		core, _ := parseCore(t, "select distinct V from I")
		if err := d.CreateTableAs("D", core); err != nil {
			t.Fatal(err)
		}
		return d
	}
	fast, slow := build(true), build(false)
	matchViews(t, wsdViews(t, slow, "D"), wsdViews(t, fast, "D"))
	// The world where k1 picks V=1 must hold D = {1}, not {1,1}: possible
	// per-world cardinalities are {1, 2} on both paths.
	for _, d := range []*WSD{fast, slow} {
		rel := selectOn(t, d, "select possible count(*) from D")
		if got := renderRel(rel); got != renderRel(selectOn(t, slow, "select possible count(*) from D")) {
			t.Fatalf("distinct CTAS cardinalities diverge: %s", got)
		}
		if rel.Len() != 2 {
			t.Fatalf("possible count(*) rows = %d, want 2 ({1,2})", rel.Len())
		}
	}
}

// TestPlainSelectSingleRemainingWorld: a plain SELECT over uncertain
// relations is answerable when every involved component has one remaining
// alternative (singleton key groups, or asserts narrowed the choices) —
// and must not merge to find that out.
func TestPlainSelectSingleRemainingWorld(t *testing.T) {
	// Singleton key groups: the repair is deterministic.
	d := New(true)
	r := relation.New(schema.New("K", "V"))
	r.MustAppend(row("k1", 1))
	r.MustAppend(row("k2", 2))
	if err := d.PutCertain("R", r); err != nil {
		t.Fatal(err)
	}
	if err := d.RepairByKey("R", "I", []string{"K"}, ""); err != nil {
		t.Fatal(err)
	}
	rel := selectOn(t, d, "select K, V from I order by K")
	if rel.Len() != 2 || d.MergeCount() != 0 || d.ComponentCount() != 2 {
		t.Fatalf("singleton plain select: rows=%d merges=%d comps=%d", rel.Len(), d.MergeCount(), d.ComponentCount())
	}

	// Assert-narrowed: pin both repairs, then plain SELECT answers.
	d2 := newFigure2WSD(t)
	err := d2.AssertStmt(mustCond(t, "exists (select * from I where B = 10) and exists (select * from I where B = 14)"), []string{"I"})
	if err != nil {
		t.Fatal(err)
	}
	rel = selectOn(t, d2, "select A, B from I")
	if rel.Len() != 3 {
		t.Fatalf("narrowed plain select rows = %d, want 3", rel.Len())
	}
	// Still-uncertain answers come back as a conditional relation: one row
	// per alternative contribution, annotated with its condition.
	d3 := newFigure2WSD(t)
	rel, err = d3.SelectClosure(mustCore(t, "select A from I"), ClosureNone)
	if err != nil {
		t.Fatalf("uncertain plain select = %v, want conditional relation", err)
	}
	if got := rel.Schema.String(); !strings.HasSuffix(got, "cond)") {
		t.Fatalf("conditional relation schema = %q, want trailing cond column", got)
	}
	if rel.Len() != 5 {
		t.Fatalf("conditional relation rows = %d, want 5 (one per alternative)", rel.Len())
	}
	if d3.MergeCount() != 0 {
		t.Error("conditional relation answer merged")
	}
	if d3.ConditionalCount() != 1 {
		t.Errorf("conditional count = %d, want 1", d3.ConditionalCount())
	}
}

func mustCond(t *testing.T, cond string) sqlparse.Expr {
	t.Helper()
	stmt, err := sqlparse.Parse("select 1 where " + cond)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*sqlparse.SelectStmt).Where
}

func mustCore(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	core, _ := parseCore(t, sql)
	return core
}

// TestComponentwiseFallbacks: plans that genuinely correlate components
// still merge (bounded), and world-dependent plain SELECTs fail without
// merging anything.
func TestComponentwiseFallbacks(t *testing.T) {
	// Aggregate over a multi-component relation: whole-input function,
	// must merge.
	d := newFigure2WSD(t)
	rel := selectOn(t, d, "select possible sum(B) from I")
	if d.MergeCount() == 0 {
		t.Error("aggregate over 3 components must merge")
	}
	if rel.Len() != 4 {
		t.Errorf("possible sums = %d rows, want 4", rel.Len())
	}

	// Predicate subquery over uncertain data: couples rows to components.
	d2 := newFigure2WSD(t)
	_ = selectOn(t, d2, "select conf from I where 50 > (select sum(B) from I)")
	if d2.MergeCount() == 0 {
		t.Error("uncertain predicate subquery must merge")
	}

	// Plain SELECT over uncertain data: answered as a conditional relation
	// without merging; only non-concat shapes (here: an aggregate) refuse,
	// naming the uncertain relation.
	d3 := newFigure2WSD(t)
	core, cl := parseCore(t, "select A from I")
	if _, err := d3.SelectClosure(core, cl); err != nil {
		t.Errorf("plain select over uncertain = %v, want conditional relation", err)
	}
	if d3.MergeCount() != 0 || d3.ComponentCount() != 3 {
		t.Error("a conditional relation answer must not merge")
	}
	core, cl = parseCore(t, "select sum(B) from I")
	_, err := d3.SelectClosure(core, cl)
	if !errors.Is(err, ErrPerWorld) {
		t.Errorf("plain aggregate over uncertain = %v, want ErrPerWorld", err)
	}
	if err != nil && !strings.Contains(err.Error(), "uncertain I") {
		t.Errorf("refusal %q does not name the uncertain relation", err)
	}

	// Cross-component join: correlates two components, merges exactly the
	// involved ones.
	d4 := New(true)
	if err := d4.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if err := d4.RepairByKey("R", "I", []string{"A"}, ""); err != nil {
		t.Fatal(err)
	}
	if err := d4.ChoiceOf("R", "P", []string{"C"}, ""); err != nil {
		t.Fatal(err)
	}
	before := d4.ComponentCount() // 3 repair components + 1 choice
	rel = selectOn(t, d4, "select possible I.A from I, P where I.C = P.C")
	if d4.MergeCount() == 0 {
		t.Error("cross-component join must merge")
	}
	if d4.ComponentCount() >= before {
		t.Errorf("merge did not restructure (%d -> %d components)", before, d4.ComponentCount())
	}
	if rel.Empty() {
		t.Error("cross-component join answer is empty")
	}
}

// TestComponentwiseMatchesNaiveOrder: the componentwise closures reproduce
// the naive engine's answer order exactly, including for join shapes where
// the uncertain relation drives from either side.
func TestComponentwiseMatchesNaiveOrder(t *testing.T) {
	setup := []string{
		"create table S (B, Y)",
		"insert into S values (10,'y1'),(15,'y2'),(20,'y3'),(14,'y4')",
		"create table I as select A, B, C, D from R repair by key A weight D",
	}
	queries := []string{
		"select possible A, B from I",
		"select certain A from I",
		"select possible I.A, S.Y from I, S where I.B = S.B",
		// Uncertain relation on the right side of the join: the naive
		// first-appearance order interleaves; the componentwise emission
		// must still match.
		"select possible S.Y, I.A from S, I where S.B = I.B",
		"select possible B from I order by B",
		"select certain distinct A, B from I union select A, B from (R) R2",
	}

	s := core.NewSession(true)
	if err := s.Register("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	d := New(true)
	if err := d.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range setup {
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("naive %q: %v", stmt, err)
		}
	}
	if err := d.PutCertain("S", mustRelFromNaive(t, s, "S")); err != nil {
		t.Fatal(err)
	}
	if err := d.RepairByKey("R", "I", []string{"A"}, "D"); err != nil {
		t.Fatal(err)
	}

	for _, q := range queries {
		q := strings.ReplaceAll(q, "(R) R2", "R") // keep plain SQL text
		res, err := s.Exec(q)
		if err != nil {
			t.Fatalf("naive %q: %v", q, err)
		}
		want := renderRel(res.Groups[0].Rel)
		got := renderRel(selectOn(t, d, q))
		if got != want {
			t.Errorf("%q diverged from naive order:\n%s\nwant:\n%s", q, got, want)
		}
	}
	if d.MergeCount() != 0 {
		t.Errorf("naive-order suite merged %d times, want 0", d.MergeCount())
	}
}

// TestSingleComponentConfBitIdentical: a one-component closure's conf is
// the plain probability sum in alternative order — bit-identical to the
// naive engine even for non-dyadic weights.
func TestSingleComponentConfBitIdentical(t *testing.T) {
	s := core.NewSession(true)
	if err := s.Register("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("create table P as select A, B, C, D from R choice of A weight D"); err != nil {
		t.Fatal(err)
	}
	d := New(true)
	if err := d.PutCertain("R", figure1R()); err != nil {
		t.Fatal(err)
	}
	if err := d.ChoiceOf("R", "P", []string{"A"}, "D"); err != nil {
		t.Fatal(err)
	}
	q := "select conf, A, B from P"
	res, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	got, want := renderRel(selectOn(t, d, q)), renderRel(res.Groups[0].Rel)
	if got != want {
		t.Fatalf("single-component conf not bit-identical:\n%s\nwant:\n%s", got, want)
	}
	if d.MergeCount() != 0 {
		t.Error("single-component conf merged")
	}
}

// TestAssertInterruptInsideIterators: a pure-certain ASSERT condition has
// no per-alternative poll points at all — only the algebra iterators can
// abort it — so this pins the interrupt threading through AssertStmt.
func TestAssertInterruptInsideIterators(t *testing.T) {
	d := New(true)
	big := relation.New(figure1R().Schema.Project([]int{1}))
	for i := 0; i < 400; i++ {
		big.MustAppend(row(i))
	}
	if err := d.PutCertain("B", big); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	polls := 0
	d.Interrupt = func() error {
		polls++
		if polls > 3 {
			return boom
		}
		return nil
	}
	err := d.AssertStmt(mustCond(t, "exists (select * from B b1, B b2, B b3 where b1.B = -1)"), nil)
	if !errors.Is(err, boom) {
		t.Fatalf("interrupted certain assert = %v, want boom", err)
	}
	if polls > 64 {
		t.Errorf("interrupt polled %d times before aborting", polls)
	}
}

// TestConfClosureInterrupt: an Interrupt that fires only once the closure
// stage of a 10^4-component CONF has begun — the componentwise evaluations
// are all done — aborts the posting build with the interrupt error and
// returns no partial answer.
func TestConfClosureInterrupt(t *testing.T) {
	const n = 10000
	d := New(true)
	dirty := relation.New(schema.New("K", "V", "W"))
	for k := 0; k < n; k++ {
		dirty.MustAppend(row(k, 0, 1))
		dirty.MustAppend(row(k, 1, 3))
	}
	if err := d.PutCertain("R", dirty); err != nil {
		t.Fatal(err)
	}
	if err := d.RepairByKey("R", "I", []string{"K"}, "W"); err != nil {
		t.Fatal(err)
	}
	if got := d.ComponentCount(); got != n {
		t.Fatalf("components = %d, want %d", got, n)
	}
	const sql = "select K, V, conf from I"
	core, cl := parseCore(t, sql)
	boom := errors.New("boom")
	tr := obs.NewTrace(sql)
	d.Trace = tr
	d.Interrupt = func() error {
		for _, sp := range tr.JSON().Spans {
			if sp.Name == "closure" {
				return boom
			}
		}
		return nil
	}
	before := d.ComponentwiseCount()
	rel, err := d.SelectClosure(core, cl)
	if !errors.Is(err, boom) {
		t.Fatalf("interrupted conf = %v, want boom", err)
	}
	if rel != nil {
		t.Fatalf("interrupted conf returned a partial answer of %d rows", rel.Len())
	}
	if d.ComponentwiseCount() != before+1 {
		t.Fatal("the interrupt fired before the componentwise stage finished")
	}
}

// mustRelFromNaive extracts a relation from the naive session's first
// world (valid for certain relations).
func mustRelFromNaive(t *testing.T, s *core.Session, name string) *relation.Relation {
	t.Helper()
	rel, err := s.Set().Worlds[0].Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return rel.WithSchema(rel.Schema.Unqualify())
}
