package maybms

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"maybms/internal/algebra"
)

// explainCompactDB builds the two-component repair fixture the EXPLAIN
// goldens run against: Rp = repair of R by key K (components 0 and 1,
// with 2 and 1 alternatives), plus a certain relation C.
func explainCompactDB(t *testing.T) *CompactDB {
	t.Helper()
	db := OpenCompact()
	if err := db.Register("R", []string{"K", "A", "W"},
		[][]any{{1, "x", 0.5}, {1, "y", 0.5}, {2, "z", 1.0}}); err != nil {
		t.Fatal(err)
	}
	if err := db.RepairByKey("R", "Rp", []string{"K"}, "W"); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("C", []string{"X"}, [][]any{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	return db
}

// durRE matches rendered durations/offsets (µs/ms/s); ANALYZE goldens
// normalize them since real timings vary run to run. Durations are also
// column-aligned, so interior space runs collapse too (leading
// indentation is preserved).
var (
	durRE = regexp.MustCompile(`\d+(\.\d+)?(µs|ms|s)`)
	padRE = regexp.MustCompile(`(\S) {2,}`)
)

func normalizeTrace(s string) string {
	return padRE.ReplaceAllString(durRE.ReplaceAllString(s, "T"), "$1 ")
}

func explainText(t *testing.T, db *CompactDB, query string) string {
	t.Helper()
	res, err := db.Exec(query)
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	return res.Msg
}

// TestExplainCompactGolden pins the EXPLAIN output of every compact
// routing class: world-independent single evaluation, merge-free
// componentwise closure, classic bounded merge, Monte-Carlo approximation,
// and both refusal forms.
func TestExplainCompactGolden(t *testing.T) {
	db := explainCompactDB(t)
	cases := []struct {
		name, query, want string
	}{
		{
			name:  "single_world_independent",
			query: "EXPLAIN SELECT POSSIBLE X FROM C",
			want: `engine: compact (world-set decomposition)
worlds: 2
route: single (world-independent)
closure: possible
eval: row
plan:
  Project [X]
    Scan C [certain]`,
		},
		{
			name:  "componentwise",
			query: "EXPLAIN SELECT POSSIBLE A FROM Rp",
			want: `engine: compact (world-set decomposition)
worlds: 2
route: componentwise (merge-free, 2 components, 2+1 alternatives)
closure: possible
eval: row
plan:
  Project [A]
    Scan Rp [components: 0 1]`,
		},
		{
			name:  "merge",
			query: "EXPLAIN SELECT A, CONF FROM Rp GROUP BY A",
			want: `engine: compact (world-set decomposition)
worlds: 2
route: merge (partial expansion, 2 components, 2 alternatives, limit 65536)
closure: conf
eval: row
plan:
  Project [A]
    Aggregate [] group=[1]
      Scan Rp [components: 0 1]`,
		},
		{
			name:  "conditional_relation",
			query: "EXPLAIN SELECT A FROM Rp",
			want: `engine: compact (world-set decomposition)
worlds: 2
route: conditional (relation with cond column, 2 components, 0 nested)
closure: none
eval: row
plan:
  Project [A]
    Scan Rp [components: 0 1]`,
		},
		{
			name:  "refused_per_world",
			query: "EXPLAIN SELECT SUM(A) FROM Rp",
			want: `engine: compact (world-set decomposition)
worlds: 2
route: refused (per-world answers over uncertain relations; uncertain: Rp)
closure: none
eval: row
plan:
  Project [sum(A)]
    Aggregate [sum(A)]
      Scan Rp [components: 0 1]`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := explainText(t, db, tc.query); got != tc.want {
				t.Errorf("EXPLAIN mismatch\n--- got ---\n%s\n--- want ---\n%s", got, tc.want)
			}
		})
	}

	// The remaining classes need a tiny merge limit; EXPLAIN must predict
	// them without executing (the decomposition stays unmerged).
	db.SetMergeLimit(1)
	db.SetApproxConf(1000, 42)
	for _, tc := range []struct{ name, query, want string }{
		{
			name:  "approx_mc",
			query: "EXPLAIN SELECT A, APPROX CONF FROM Rp GROUP BY A",
			want: `engine: compact (world-set decomposition)
worlds: 2
route: approx_mc (merge of 2 components exceeds limit 1; 1000 samples, seed 42, stderr <= 0.0158)
closure: approx conf
eval: row
plan:
  Project [A]
    Aggregate [] group=[1]
      Scan Rp [components: 0 1]`,
		},
		{
			name:  "refused_merge_too_big",
			query: "EXPLAIN SELECT A, CONF FROM Rp GROUP BY A",
			want: `engine: compact (world-set decomposition)
worlds: 2
route: refused (merge of 2 components exceeds limit 1 alternatives)
closure: conf
eval: row
plan:
  Project [A]
    Aggregate [] group=[1]
      Scan Rp [components: 0 1]`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := explainText(t, db, tc.query); got != tc.want {
				t.Errorf("EXPLAIN mismatch\n--- got ---\n%s\n--- want ---\n%s", got, tc.want)
			}
		})
	}
	if db.ComponentCount() != 2 {
		t.Errorf("EXPLAIN must not merge: components = %d, want 2", db.ComponentCount())
	}
}

// TestExplainVectorized pins the batch-path prediction: with the
// vectorization floor lowered the same componentwise plan reports the
// vectorized evaluator, including whether results stay columnar past the
// Collect seam (the batch-native closure pipeline) or materialize rows
// there (the ablation baseline).
func TestExplainVectorized(t *testing.T) {
	prev := algebra.SetVectorizeMinRows(0)
	defer algebra.SetVectorizeMinRows(prev)
	db := explainCompactDB(t)
	want := `engine: compact (world-set decomposition)
worlds: 2
route: componentwise (merge-free, 2 components, 2+1 alternatives)
closure: possible
eval: batch (vectorized, batch-native collect)
plan:
  Project [A]
    Scan Rp [components: 0 1]`
	if got := explainText(t, db, "EXPLAIN SELECT POSSIBLE A FROM Rp"); got != want {
		t.Errorf("EXPLAIN mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	prevSeam := SetBatchClosure(false)
	defer SetBatchClosure(prevSeam)
	want = strings.Replace(want, "batch-native collect", "rows at collect", 1)
	if got := explainText(t, db, "EXPLAIN SELECT POSSIBLE A FROM Rp"); got != want {
		t.Errorf("EXPLAIN mismatch with seam off\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainAnalyzeCompactGolden runs EXPLAIN ANALYZE for real and pins
// the whole output with timings normalized: the actual route, spans,
// evaluation stats, and result cardinality must all appear.
func TestExplainAnalyzeCompactGolden(t *testing.T) {
	db := explainCompactDB(t)
	got := normalizeTrace(explainText(t, db, "EXPLAIN ANALYZE SELECT A, CONF FROM Rp GROUP BY A"))
	want := `engine: compact (world-set decomposition)
worlds: 2
route: merge (partial expansion, 2 components, 2 alternatives, limit 65536)
closure: conf
eval: row
plan:
  Project [A]
    Aggregate [] group=[1]
      Scan Rp [components: 0 1]

actual:
  trace: SELECT A, conf FROM Rp GROUP BY A
    plan T +T cache=hit
    analyze T +T components=2 decomposable=false
    merge_eval T +T components=2 alternatives=2 merge_limit=65536
    closure T +T
    --
    route=merge
    exec: collects batch=0 row=2 rows=4
    total T
  result rows: 3`
	if got != want {
		t.Errorf("EXPLAIN ANALYZE mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainAnalyzeComponentwise checks the componentwise class under
// ANALYZE structurally (span presence and route), where per-component
// cardinalities make full goldens brittle.
func TestExplainAnalyzeComponentwise(t *testing.T) {
	db := explainCompactDB(t)
	got := explainText(t, db, "EXPLAIN ANALYZE SELECT POSSIBLE A FROM Rp")
	for _, want := range []string{
		"route: componentwise (merge-free, 2 components, 2+1 alternatives)",
		"actual:",
		"componentwise",
		"route=componentwise",
		"result rows: 3",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, got)
		}
	}
}

// TestExplainNaiveGolden pins the naive engine's EXPLAIN: world count,
// closure and stage lines, and the compiled per-world plan.
func TestExplainNaiveGolden(t *testing.T) {
	db := Open()
	db.MustExec("create table S (K, A, W)")
	db.MustExec("insert into S values (1, 'x', 0.5), (1, 'y', 0.5)")

	got := db.MustExec("EXPLAIN SELECT * FROM S REPAIR BY KEY K WEIGHT W").Msg
	want := `engine: naive (per-world evaluation)
worlds: 1
split: repair key (K)
closure: none (per-world answers)
plan:
  Project [S.K, S.A, S.W]
    Scan S`
	if got != want {
		t.Errorf("EXPLAIN mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	db.MustExec("create table I as select * from S repair by key K weight W")
	got = normalizeTrace(db.MustExec("EXPLAIN ANALYZE SELECT POSSIBLE A FROM I").Msg)
	want = `engine: naive (per-world evaluation)
worlds: 2
closure: possible
plan:
  Project [A]
    Scan I

actual:
  trace: SELECT POSSIBLE A FROM I
    eval T +T worlds=2
    plan T +T cache=hit
    closure T +T groups=1
    --
    route=per-world
    exec: collects batch=0 row=2 rows=2
    total T
  result rows: 2`
	if got != want {
		t.Errorf("EXPLAIN ANALYZE mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExplainErrors pins the parser-level EXPLAIN diagnostics.
func TestExplainErrors(t *testing.T) {
	db := Open()
	if _, err := db.Exec("EXPLAIN EXPLAIN SELECT 1"); err == nil ||
		!strings.Contains(err.Error(), "EXPLAIN cannot be nested") {
		t.Errorf("nested EXPLAIN error = %v", err)
	}
	if _, err := db.Exec("EXPLAIN"); err == nil {
		t.Error("bare EXPLAIN should fail to parse")
	}
}

// spanAttrs returns the attributes of the trace's first span named name.
func spanAttrs(t *testing.T, tr *Trace, name string) map[string]string {
	t.Helper()
	for _, sp := range tr.JSON().Spans {
		if sp.Name == name {
			out := map[string]string{}
			for _, a := range sp.Attrs {
				out[a.Key] = a.Value
			}
			return out
		}
	}
	t.Fatalf("trace has no %s span", name)
	return nil
}

// TestExecTracedDeltaAttrs checks that the componentwise and conditional
// spans tell a per-alternative delta evaluation (the certain part
// evaluated once) from a full one.
func TestExecTracedDeltaAttrs(t *testing.T) {
	db := explainCompactDB(t)
	// Keys 1 and 3 conflict; keys 2 and 4 import as certain rows of D.
	path := filepath.Join(t.TempDir(), "d.csv")
	csv := "K,A,W\n1,x,1\n1,y,3\n2,z,1\n3,u,1\n3,v,1\n4,w,1\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(fmt.Sprintf("import into D from '%s' repair key (K) weight W", path)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sql, span, delta, baseRows string
	}{
		{"select possible K, A from D where K < 4", "componentwise", "true", "1"},
		{"select K, A from D where K < 4", "conditional", "true", "1"},
		// DISTINCT dedupes across components and against the certain rows:
		// every alternative is evaluated in full.
		{"select possible distinct A from D", "componentwise", "false", "0"},
	}
	for _, c := range cases {
		_, tr, err := db.ExecTraced(c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		attrs := spanAttrs(t, tr, c.span)
		if attrs["delta"] != c.delta || attrs["base_rows"] != c.baseRows {
			t.Errorf("%q %s span: delta=%q base_rows=%q, want %s and %s",
				c.sql, c.span, attrs["delta"], attrs["base_rows"], c.delta, c.baseRows)
		}
	}
}

// TestExecTraced checks the public tracing entry points on both engines.
func TestExecTraced(t *testing.T) {
	db := explainCompactDB(t)
	res, tr, err := db.ExecTraced("SELECT POSSIBLE A FROM Rp")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || tr == nil {
		t.Fatal("ExecTraced returned nil result or trace")
	}
	js := tr.JSON()
	if js.Statement != "SELECT POSSIBLE A FROM Rp" {
		t.Errorf("trace statement = %q", js.Statement)
	}
	route := ""
	for _, a := range js.Attrs {
		if a.Key == "route" {
			route = a.Value
		}
	}
	if route != "componentwise" {
		t.Errorf("route attr = %q, want componentwise", route)
	}
	if len(js.Spans) == 0 {
		t.Error("trace has no spans")
	}
	if js.Exec.Rows == 0 {
		t.Error("trace counted no rows")
	}

	n := Open()
	n.MustExec("create table S (A)")
	n.MustExec("insert into S values (1), (2)")
	_, tr2, err := n.ExecTraced("select A from S")
	if err != nil {
		t.Fatal(err)
	}
	if got := tr2.JSON(); len(got.Spans) == 0 || got.Exec.Rows != 2 {
		t.Errorf("naive trace spans=%d rows=%d, want >0 and 2", len(got.Spans), got.Exec.Rows)
	}
}
