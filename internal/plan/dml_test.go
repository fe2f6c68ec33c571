package plan

import (
	"testing"

	"maybms/internal/relation"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
	"maybms/internal/value"
)

// TestApplyUnchangedPiece checks Apply's contract: with no affected row
// the input slice comes back as is (so a stored piece can be kept), and
// an affected row never alters the input.
func TestApplyUnchangedPiece(t *testing.T) {
	sch := schema.New("K", "V")
	cat := CatalogFunc(func(string) (*relation.Relation, error) { return relation.New(sch), nil })
	in := []tuple.Tuple{
		{value.Int(1), value.Int(10)},
		{value.Int(2), value.Int(20)},
		{value.Int(3), value.Int(30)},
	}
	apply := func(sql string) ([]tuple.Tuple, int) {
		t.Helper()
		st, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		var p *PreparedDML
		switch s := st.(type) {
		case *sqlparse.Update:
			p, err = PrepareUpdateStmt(s, sch, cat)
		case *sqlparse.Delete:
			p, err = PrepareDeleteStmt(s, sch, cat)
		}
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Bind(cat, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, n, err := b.Apply(in)
		if err != nil {
			t.Fatal(err)
		}
		return out, n
	}
	if out, n := apply("update T set V = 0 where K = 9"); n != 0 || &out[0] != &in[0] {
		t.Errorf("no match: changed %d, fresh slice %v", n, &out[0] != &in[0])
	}
	out, n := apply("update T set V = 0 where K = 2")
	if n != 1 || len(out) != 3 || out[1][1].AsInt() != 0 || in[1][1].AsInt() != 20 || out[2][0].AsInt() != 3 {
		t.Errorf("update: changed %d, out %v, in %v", n, out, in)
	}
	out, n = apply("delete from T where K = 1")
	if n != 1 || len(out) != 2 || out[0][0].AsInt() != 2 || len(in) != 3 {
		t.Errorf("delete: changed %d, out %v", n, out)
	}
}
