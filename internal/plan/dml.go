package plan

// Compile-once templates for UPDATE/DELETE statements, plus their
// component-touch analysis. A DML statement's dynamic parts are row
// expressions — the SET values and the WHERE predicate — which may contain
// subqueries; like SELECT templates they compile once against a
// representative catalog and bind per world (or, in the compact engine,
// per component alternative). Components returns the decomposition
// components those expressions read through their subqueries, which is
// what decides whether a compact UPDATE/DELETE can rewrite the target
// relation piece-by-piece (certain part and per-alternative contributions
// independently) or must first merge the involved components: a statement
// whose expressions touch no component applies the same row rewrite in
// every world, so it distributes over the certain ∪ per-component
// structure exactly like a monotone-decomposable query.

import (
	"maybms/internal/expr"
	"maybms/internal/schema"
	"maybms/internal/sqlparse"
	"maybms/internal/tuple"
)

// PreparedDML is a compiled UPDATE or DELETE template: the target
// relation's compile-time schema, resolved SET column indexes, and the
// SET/WHERE row-expression templates.
type PreparedDML struct {
	sch      *schema.Schema
	del      bool
	setIdx   []int
	setExprs []*PreparedExpr
	pred     *PreparedExpr
}

// PrepareUpdateStmt compiles an UPDATE against the target schema sch and
// catalog cat once; Bind instantiates it per catalog.
func PrepareUpdateStmt(st *sqlparse.Update, sch *schema.Schema, cat Catalog) (*PreparedDML, error) {
	prepares.Add(1)
	p := &PreparedDML{
		sch:      sch,
		setIdx:   make([]int, len(st.Set)),
		setExprs: make([]*PreparedExpr, len(st.Set)),
	}
	for j, sc := range st.Set {
		idx, err := sch.Resolve("", sc.Column)
		if err != nil {
			return nil, err
		}
		low, err := PrepareRowExpr(sc.Value, sch, cat)
		if err != nil {
			return nil, err
		}
		p.setIdx[j], p.setExprs[j] = idx, low
	}
	if st.Where != nil {
		pred, err := PrepareRowExpr(st.Where, sch, cat)
		if err != nil {
			return nil, err
		}
		p.pred = pred
	}
	return p, nil
}

// PrepareDeleteStmt compiles a DELETE against the target schema sch and
// catalog cat once; Bind instantiates it per catalog.
func PrepareDeleteStmt(st *sqlparse.Delete, sch *schema.Schema, cat Catalog) (*PreparedDML, error) {
	prepares.Add(1)
	p := &PreparedDML{sch: sch, del: true}
	if st.Where != nil {
		pred, err := PrepareRowExpr(st.Where, sch, cat)
		if err != nil {
			return nil, err
		}
		p.pred = pred
	}
	return p, nil
}

// Schema returns the compile-time schema of the target relation.
func (p *PreparedDML) Schema() *schema.Schema { return p.sch }

// Components returns the sorted set of decomposition components the
// statement's SET/WHERE expressions touch through their subqueries (the
// target relation itself is not included — callers know it). An empty
// result means the row rewrite is identical in every world.
func (p *PreparedDML) Components(cc ComponentCatalog) ([]int, error) {
	var out compSet
	for _, pe := range p.setExprs {
		cs, err := exprComps(cc, pe.e)
		if err != nil {
			return nil, err
		}
		out = out.union(cs)
	}
	if p.pred != nil {
		cs, err := exprComps(cc, p.pred.e)
		if err != nil {
			return nil, err
		}
		out = out.union(cs)
	}
	return append([]int(nil), out...), nil
}

// BoundDML is a template instantiated against one catalog. Instances do
// not share subquery iteration state, but a single instance must be used
// sequentially (Apply evaluates its expressions row by row, like the
// naive engine's per-world pass).
type BoundDML struct {
	sch       *schema.Schema
	del       bool
	setIdx    []int
	setExprs  []expr.Expr
	pred      expr.Expr
	interrupt func() error
}

// Bind instantiates the template against cat. interrupt, when non-nil, is
// threaded into the row-expression contexts so subquery scans poll it.
func (p *PreparedDML) Bind(cat Catalog, interrupt func() error) (*BoundDML, error) {
	b := &BoundDML{sch: p.sch, del: p.del, setIdx: p.setIdx, interrupt: interrupt}
	if len(p.setExprs) > 0 {
		b.setExprs = make([]expr.Expr, len(p.setExprs))
		for j, pe := range p.setExprs {
			e, err := pe.Bind(cat)
			if err != nil {
				return nil, err
			}
			b.setExprs[j] = e
		}
	}
	if p.pred != nil {
		e, err := p.pred.Bind(cat)
		if err != nil {
			return nil, err
		}
		b.pred = e
	}
	return b, nil
}

// Apply runs the row rewrite over tuples: UPDATE rewrites matching rows
// in place (cloned), DELETE drops them. Row order is preserved exactly as
// in the naive engine's per-world pass; changed counts the affected rows.
// With no affected row, out is tuples itself.
func (b *BoundDML) Apply(tuples []tuple.Tuple) (out []tuple.Tuple, changed int, err error) {
	for i, t := range tuples {
		ctx := &expr.Context{Schema: b.sch, Tuple: t, Interrupt: b.interrupt}
		match := true
		if b.pred != nil {
			v, err := b.pred.Eval(ctx)
			if err != nil {
				return nil, 0, err
			}
			match = v.Truth()
		}
		if !match {
			if out != nil {
				out = append(out, t)
			}
			continue
		}
		if out == nil {
			out = append(make([]tuple.Tuple, 0, len(tuples)), tuples[:i]...)
		}
		changed++
		if b.del {
			continue
		}
		nt := t.Clone()
		for j := range b.setExprs {
			v, err := b.setExprs[j].Eval(ctx)
			if err != nil {
				return nil, 0, err
			}
			nt[b.setIdx[j]] = v
		}
		out = append(out, nt)
	}
	if changed == 0 {
		return tuples, 0, nil
	}
	return out, changed, nil
}
