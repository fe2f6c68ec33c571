package plan

import (
	"testing"

	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
)

// analysisFixture compiles stmt against a catalog of three tables — I fed
// by components 0 and 1, J fed by component 2, S certain — and analyzes it.
func analysisFixture(t *testing.T, sql string) *ComponentAnalysis {
	t.Helper()
	cat := CatalogFunc(func(name string) (*relation.Relation, error) {
		return relation.New(schema.New("A", "B")), nil
	})
	cc := ComponentCatalogFunc(func(table string) []int {
		switch table {
		case "I", "i":
			return []int{0, 1}
		case "J", "j":
			return []int{2}
		default:
			return nil
		}
	})
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	prep, err := Prepare(stmt.(*sqlparse.SelectStmt), cat)
	if err != nil {
		t.Fatalf("prepare %q: %v", sql, err)
	}
	an, err := prep.Analyze(cc)
	if err != nil {
		t.Fatalf("analyze %q: %v", sql, err)
	}
	return an
}

func TestComponentAnalysis(t *testing.T) {
	cases := []struct {
		sql          string
		comps        []int
		decomposable bool
		concat       bool
	}{
		// Scans, filters, projections distribute.
		{"select A from I", []int{0, 1}, true, true},
		{"select A from I where B = 1", []int{0, 1}, true, true},
		// DISTINCT dedupes across components per world, which factored
		// storage cannot express: concat only survives one component.
		{"select distinct A from I", []int{0, 1}, true, false},
		{"select distinct A from J", []int{2}, true, true},
		{"select A from S", nil, true, true},
		// Joins against certain relations: fine; the uncertain side must
		// drive (be leftmost) for the concat (materialization) property.
		{"select I.A, S.B from I, S where I.A = S.A", []int{0, 1}, true, true},
		{"select S.B, I.A from S, I where S.A = I.A", []int{0, 1}, true, false},
		// Unions distribute; concat needs the certain arm first.
		{"select A from I union select A from S", []int{0, 1}, true, false},
		{"select A from S union all select A from I", []int{0, 1}, true, true},
		// Sort is set-safe but reorders certain rows into the middle.
		{"select A from I order by A", []int{0, 1}, true, false},
		// Aggregates and LIMIT are whole-input functions.
		{"select sum(A) from I", []int{0, 1}, false, false},
		{"select sum(A) from S", nil, true, true},
		{"select A from I limit 2", []int{0, 1}, false, false},
		// Cross-component joins correlate.
		{"select I.A from I, J", []int{0, 1, 2}, false, false},
		// Predicate subqueries over uncertain relations couple rows to
		// components; over certain relations they are harmless.
		{"select A from I where exists (select * from J where J.A = I.A)", []int{0, 1, 2}, false, false},
		{"select A from I where B > (select max(B) from S)", []int{0, 1}, true, true},
		{"select A from S where exists (select * from I)", []int{0, 1}, false, false},
		// Aggregate over certain data inside a decomposable query.
		{"select A from I where B >= (select min(B) from S)", []int{0, 1}, true, true},
	}
	for _, c := range cases {
		an := analysisFixture(t, c.sql)
		if len(an.Comps) != len(c.comps) {
			t.Errorf("%q comps = %v, want %v", c.sql, an.Comps, c.comps)
			continue
		}
		for i := range c.comps {
			if an.Comps[i] != c.comps[i] {
				t.Errorf("%q comps = %v, want %v", c.sql, an.Comps, c.comps)
			}
		}
		if an.Decomposable != c.decomposable {
			t.Errorf("%q decomposable = %v, want %v", c.sql, an.Decomposable, c.decomposable)
		}
		if an.Concat != c.concat {
			t.Errorf("%q concat = %v, want %v", c.sql, an.Concat, c.concat)
		}
	}
}

// TestComponentAnalysisLinear pins the Linear verdicts: a plan is linear
// when the uncertain scan drives every operator above it, so a
// per-alternative evaluation over that alternative's contributions alone
// yields exactly the rows beyond the certain answer.
func TestComponentAnalysisLinear(t *testing.T) {
	cases := []struct {
		sql    string
		linear bool
	}{
		{"select * from I", true},
		{"select A, B from I where B = 1", true},
		{"select B + 1 from J", true},
		{"select I.A, S.B from I, S where I.A = S.A", true},
		{"select I.A, S.B from I, S", true},
		{"select A from I where B > (select max(B) from S)", true},
		{"select A from I where exists (select * from S where S.A = I.A)", true},
		// A certain subtree re-evaluated per alternative would repeat rows.
		{"select A from S union all select A from I", false},
		{"select A from I union select A from S", false},
		{"select distinct A from J", false},
		{"select distinct A from I", false},
		{"select A from I order by A", false},
		{"select sum(A) from I", false},
		{"select A from I limit 2", false},
		// The uncertain side must drive.
		{"select S.B, I.A from S, I where S.A = I.A", false},
		{"select x.A from J x, J y where x.A = y.B", false},
		{"select I.A from I, J", false},
		{"select A from I where exists (select * from J where J.A = I.A)", false},
	}
	for _, c := range cases {
		an := analysisFixture(t, c.sql)
		if an.Linear != c.linear {
			t.Errorf("%q linear = %v, want %v", c.sql, an.Linear, c.linear)
		}
		if an.Linear && !an.Concat {
			t.Errorf("%q is linear but not concat", c.sql)
		}
	}
}

func TestComponentSetOps(t *testing.T) {
	if got := newCompSet([]int{3, 1, 2, 1, 3}); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("newCompSet = %v", got)
	}
	a, b := newCompSet([]int{0, 2}), newCompSet([]int{1, 2, 4})
	if got := a.union(b); len(got) != 4 || got[0] != 0 || got[3] != 4 {
		t.Errorf("union = %v", got)
	}
	if got := a.union(nil); len(got) != 2 {
		t.Errorf("union nil = %v", got)
	}
}
