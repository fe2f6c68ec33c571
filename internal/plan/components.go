package plan

// Component-touch analysis for decomposition-aware query execution.
//
// The WSD engine (internal/wsd) represents a world-set as a forest of
// components over a certain database: top-level components are
// independent, and a *conditional* component hangs under one alternative
// of its parent, existing only in the worlds selecting that alternative
// (the flat product is the one-level special case). A compiled plan
// template references base tables through tableScan nodes, so — given a
// catalog mapping each table to the components feeding it — every subtree
// can be annotated with the set of components it touches. The analysis
// itself is conditioning-agnostic: it reports which component IDs a tree
// touches, and the caller weights each alternative by its conditioning
// path (internal/wsd's tree folds) when closing over the answers. One
// bottom-up pass computes three nested verdicts.
//
// Decomposable. A tree whose operators all distribute over the certain ∪
// per-component-contribution structure satisfies
//
//	Q(world(a1,…,ak)) = Q(cert) ∪ Q_c1(a1) ∪ … ∪ Q_ck(ak)
//
// as sets, where Q_ci(ai) is Q evaluated against the certain database plus
// the contributions of component ci's alternative ai alone. Closures
// (possible/certain/conf) then come from Σ alternatives single-alternative
// evaluations, with no component merge, however many components the tree
// touches. Operators that preserve the identity:
//
//   - Scan: the relation itself is certain ∪ contributions.
//   - Filter / Project whose expressions contain no subqueries over
//     uncertain relations: tuple-at-a-time, distribute over union.
//   - CrossJoin / HashJoin where at most one side touches components, or
//     both sides touch the same single component: the cross terms between
//     distinct components never arise.
//   - Union: concatenation distributes.
//   - Distinct / Sort: identity on sets (closures are set-level; the
//     emission order is reconstructed separately, see internal/wsd).
//
// Operators that break it whenever their input touches ≥ 1 component:
// Aggregate and Limit (whole-input functions), joins correlating ≥ 2
// distinct components, and Filter/Project expressions with subqueries over
// uncertain relations (the predicate couples every input row to those
// components). A tree containing such a node falls back to the bounded
// partial expansion (component merge) of the classic path; the analysis
// reports the full component set so the caller merges exactly the involved
// components — condensing any conditional trees among them first — and
// never more.
//
// Concat. A decomposable tree whose every world's answer *bag* is Q(cert)
// followed by the per-component contributions in component order (the
// uncertain scans drive enumeration, and nothing dedupes or reorders across
// components). Such answers can be stored, and shown, as the certain part
// once plus one suffix per alternative.
//
// Linear. A concat tree whose answer, for every single alternative with
// contributions Δ, is
//
//	Q(cert ∪ Δ) = Q(cert) ++ Q(Δ)
//
// as a bag, order included, where Q(Δ) reads the uncertain tables as Δ
// alone and every certain table in full. Then Q(cert) is evaluated once
// and each alternative only over its own contributions, O(|cert| + Σ|Δ|)
// instead of O(|cert| · Σ alternatives). Linear nodes: table and literal
// scans; Filter/Project whose expressions read certain data only;
// CrossJoin/HashJoin whose linear left side drives (or probes) and whose
// right side touches no component. Union, Distinct, Sort, Aggregate and
// Limit are linear only over an input touching no component (a Union arm
// or a DISTINCT over certain rows would be re-evaluated in full per
// alternative), and a join whose right side touches a component is never
// linear. In a linear tree that touches components, every node on the
// left spine touches them and every other subtree is certain, which is
// what makes the delta evaluation exact.

import (
	"fmt"

	"maybms/internal/algebra"
	"maybms/internal/expr"
)

// ComponentCatalog maps a base-table name to the IDs of the decomposition
// components contributing tuples to it (empty for certain tables).
type ComponentCatalog interface {
	Components(table string) []int
}

// ComponentCatalogFunc adapts a function to the ComponentCatalog interface.
type ComponentCatalogFunc func(table string) []int

// Components implements ComponentCatalog.
func (f ComponentCatalogFunc) Components(table string) []int { return f(table) }

// ComponentAnalysis is the result of analyzing a compiled template against
// a component catalog.
type ComponentAnalysis struct {
	// Comps is the sorted set of component IDs the tree touches.
	Comps []int
	// Decomposable reports that the tree satisfies the monotone
	// decomposition identity above: closures (possible/certain/conf) can be
	// computed from per-alternative evaluations of single components, with
	// no component merge, for any number of touched components.
	Decomposable bool
	// Concat additionally reports that each world's answer *bag* is the
	// certain part followed by the per-component contributions in component
	// order (left-deep trees with the uncertain scans driving enumeration).
	// This is the condition for materializing the answer componentwise —
	// storing the certain part once plus one contribution per alternative —
	// with per-world tuple order identical to the merge path.
	Concat bool
	// Linear additionally reports that, for every single alternative with
	// contributions Δ, Q(cert ∪ Δ) = Q(cert) ++ Q(Δ) as a bag, order
	// included, where Q(Δ) reads uncertain tables as Δ alone and certain
	// tables in full: the certain part is evaluated once, and each
	// alternative over its own contributions only.
	Linear bool
}

// compSet is a small sorted set of component IDs.
type compSet []int

func (s compSet) union(t compSet) compSet {
	if len(t) == 0 {
		return s
	}
	if len(s) == 0 {
		return t
	}
	out := make(compSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

func newCompSet(ids []int) compSet {
	out := append(compSet(nil), ids...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	// Dedup in place.
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// nodeInfo is the bottom-up annotation of one operator subtree.
type nodeInfo struct {
	comps  compSet
	decomp bool // monotone-decomposable
	concat bool // additionally concat-structured (see ComponentAnalysis)
	linear bool // delta-evaluable (see ComponentAnalysis)
}

// AnalyzeComponents annotates op (a compiled template tree, as produced by
// the Prepare* functions) with the components it touches and reports
// whether it is decomposable. Unknown operators are treated conservatively
// as correlating everything they contain.
func AnalyzeComponents(op algebra.Operator, cc ComponentCatalog) (*ComponentAnalysis, error) {
	info, err := analyzeOp(op, cc)
	if err != nil {
		return nil, err
	}
	return &ComponentAnalysis{
		Comps:        append([]int(nil), info.comps...),
		Decomposable: info.decomp,
		Concat:       info.decomp && info.concat,
		Linear:       info.decomp && info.concat && info.linear,
	}, nil
}

// Analyze runs AnalyzeComponents on the template's operator tree.
func (p *Prepared) Analyze(cc ComponentCatalog) (*ComponentAnalysis, error) {
	return AnalyzeComponents(p.op, cc)
}

func analyzeOp(op algebra.Operator, cc ComponentCatalog) (nodeInfo, error) {
	switch n := op.(type) {
	case *tableScan:
		return nodeInfo{comps: newCompSet(cc.Components(n.table)), decomp: true, concat: true, linear: true}, nil
	case *algebra.Scan:
		// Literal relation (the dual for an empty FROM): world-independent.
		return nodeInfo{decomp: true, concat: true, linear: true}, nil
	case *inputScan:
		// Split intermediates never occur in compact plans; be conservative.
		return nodeInfo{}, fmt.Errorf("%w: split intermediate in component analysis", ErrPlan)
	case *algebra.Filter:
		child, err := analyzeOp(n.Child, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		return analyzeWithExprs(child, cc, n.Pred)
	case *algebra.Project:
		child, err := analyzeOp(n.Child, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		return analyzeWithExprs(child, cc, n.Exprs...)
	case *algebra.CrossJoin:
		return analyzeJoin(n.Left, n.Right, cc)
	case *algebra.HashJoin:
		return analyzeJoin(n.Left, n.Right, cc)
	case *algebra.Union:
		l, err := analyzeOp(n.Left, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		r, err := analyzeOp(n.Right, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		return nodeInfo{
			comps:  l.comps.union(r.comps),
			decomp: l.decomp && r.decomp,
			// The left arm's rows precede the right arm's, so contributions
			// only trail the certain prefix when the left arm is certain.
			concat: l.concat && r.concat && len(l.comps) == 0,
			// A per-alternative evaluation would repeat the certain arm.
			linear: l.linear && r.linear && len(l.comps)+len(r.comps) == 0,
		}, nil
	case *algebra.Distinct:
		child, err := analyzeOp(n.Child, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		// Identity on sets, so closures stay decomposable. Concat survives
		// only up to one component: per-world DISTINCT dedupes *across*
		// components, which factored (per-component contribution) storage
		// cannot represent — a row contributed by two components would be
		// stored twice but appear once in every world.
		if len(child.comps) > 1 {
			child.concat = false
		}
		// Deduping Q(Δ) alone cannot see the certain rows it duplicates.
		child.linear = child.linear && len(child.comps) == 0
		return child, nil
	case *algebra.Sort:
		child, err := analyzeOp(n.Child, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		// Set-identity, but the value order interleaves certain rows and
		// contributions: decomposable, not concat.
		child.concat = false
		child.linear = child.linear && len(child.comps) == 0
		return child, nil
	case *algebra.Aggregate:
		child, err := analyzeOp(n.Child, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		exprs := make([]expr.Expr, 0, len(n.Specs))
		for _, sp := range n.Specs {
			if sp.Arg != nil {
				exprs = append(exprs, sp.Arg)
			}
		}
		ec, err := exprComps(cc, exprs...)
		if err != nil {
			return nodeInfo{}, err
		}
		comps := child.comps.union(ec)
		// A whole-input function of its input: world-independent only over a
		// certain subtree.
		return nodeInfo{comps: comps, decomp: len(comps) == 0, concat: len(comps) == 0, linear: len(comps) == 0}, nil
	case *algebra.Limit:
		child, err := analyzeOp(n.Child, cc)
		if err != nil {
			return nodeInfo{}, err
		}
		certain := len(child.comps) == 0
		return nodeInfo{comps: child.comps, decomp: certain, concat: certain, linear: certain}, nil
	default:
		return nodeInfo{}, fmt.Errorf("%w: unsupported operator %T in component analysis", ErrPlan, op)
	}
}

// analyzeWithExprs folds the component touches of expressions (through
// their subqueries) into a Filter/Project node. Expressions over certain
// data only are tuple-at-a-time and preserve the child's structure;
// expressions touching components couple every input row to those
// components' choices, which only a whole-input merge can honor.
func analyzeWithExprs(child nodeInfo, cc ComponentCatalog, exprs ...expr.Expr) (nodeInfo, error) {
	ec, err := exprComps(cc, exprs...)
	if err != nil {
		return nodeInfo{}, err
	}
	if len(ec) == 0 {
		return child, nil
	}
	comps := child.comps.union(ec)
	return nodeInfo{comps: comps}, nil
}

// analyzeJoin annotates a CrossJoin or HashJoin: joins are bilinear over
// the union structure, so they stay decomposable as long as the cross term
// between two *distinct* components never arises — at most one side touches
// components, or both sides touch the same single component.
func analyzeJoin(left, right algebra.Operator, cc ComponentCatalog) (nodeInfo, error) {
	l, err := analyzeOp(left, cc)
	if err != nil {
		return nodeInfo{}, err
	}
	r, err := analyzeOp(right, cc)
	if err != nil {
		return nodeInfo{}, err
	}
	comps := l.comps.union(r.comps)
	correlates := len(l.comps) > 0 && len(r.comps) > 0 && len(comps) > 1
	return nodeInfo{
		comps:  comps,
		decomp: l.decomp && r.decomp && !correlates,
		// The left side drives enumeration: each left row is crossed with
		// the full right side, so contributions trail the certain prefix
		// only when the right side is certain.
		concat: l.concat && r.concat && !correlates && len(r.comps) == 0,
		// Q(Δ) probes the certain right side with Δ's rows only.
		linear: l.linear && len(r.comps) == 0,
	}, nil
}

// exprComps collects the components touched by expressions through their
// compiled subqueries.
func exprComps(cc ComponentCatalog, exprs ...expr.Expr) (compSet, error) {
	var out compSet
	var walk func(e expr.Expr) error
	walkSub := func(sub expr.Subquery) error {
		cs, ok := sub.(*compiledSubquery)
		if !ok {
			return fmt.Errorf("%w: unsupported subquery %T in component analysis", ErrPlan, sub)
		}
		info, err := analyzeOp(cs.op, cc)
		if err != nil {
			return err
		}
		out = out.union(info.comps)
		return nil
	}
	walk = func(e expr.Expr) error {
		switch n := e.(type) {
		case expr.Const, expr.Column:
			return nil
		case expr.Cmp:
			if err := walk(n.L); err != nil {
				return err
			}
			return walk(n.R)
		case expr.And:
			if err := walk(n.L); err != nil {
				return err
			}
			return walk(n.R)
		case expr.Or:
			if err := walk(n.L); err != nil {
				return err
			}
			return walk(n.R)
		case expr.Arith:
			if err := walk(n.L); err != nil {
				return err
			}
			return walk(n.R)
		case expr.Not:
			return walk(n.E)
		case expr.Neg:
			return walk(n.E)
		case expr.IsNull:
			return walk(n.E)
		case expr.Exists:
			return walkSub(n.Sub)
		case expr.In:
			if err := walk(n.Left); err != nil {
				return err
			}
			for _, item := range n.List {
				if err := walk(item); err != nil {
					return err
				}
			}
			if n.Sub != nil {
				return walkSub(n.Sub)
			}
			return nil
		case expr.Scalar:
			return walkSub(n.Sub)
		default:
			return fmt.Errorf("%w: unsupported expression %T in component analysis", ErrPlan, e)
		}
	}
	for _, e := range exprs {
		if err := walk(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}
