package main

import (
	"fmt"
	"sort"
	"strings"

	"maybms"
	"maybms/internal/value"
)

// crossCheck runs a compact workload's statements on a small instance
// against both engines: the naive engine (the paper's semantics) and the
// compact one. load sets both up; every step's answers must agree, and
// after, run last, checks that the DML steps changed both alike. Each
// compared statement is one attempted op; disagreements fail it.
func crossCheck(p *pass, load []string, steps []step, after string) {
	naive, compact := maybms.Open(), maybms.OpenCompact()
	for _, s := range load {
		if _, err := agree(naive, compact, s, false); err != nil {
			p.fail(s, err)
			return
		}
	}
	for _, s := range append(steps, step{typ: opConf, stmt: after}) {
		p.attempted++
		res, err := agree(naive, compact, s.stmt, s.typ == opCondSelect)
		if err == nil && s.check != nil {
			err = s.check(res)
		}
		if err != nil {
			p.fail("cross-check: "+s.stmt, err)
		}
	}
}

// agree executes stmt on both engines and compares the answers. A
// conditional answer (compact plain SELECT) is compared with the naive
// per-world answers: its rows are exactly the rows of some world, and
// its unconditioned rows are in every world. It returns the compact
// answer.
func agree(naive *maybms.DB, compact *maybms.CompactDB, stmt string, conditional bool) (*maybms.Result, error) {
	nres, nerr := naive.Exec(stmt)
	cres, cerr := compact.Exec(stmt)
	switch {
	case nerr != nil || cerr != nil:
		return nil, fmt.Errorf("naive error %v, compact error %v", nerr, cerr)
	case conditional:
		return cres, agreeConditional(nres, cres)
	case len(nres.Groups) > 0 || len(cres.Groups) > 0:
		if n, c := canonicalGroups(nres), canonicalGroups(cres); n != c {
			return nil, fmt.Errorf("naive answer\n%s\ncompact answer\n%s", n, c)
		}
	}
	return cres, nil
}

func agreeConditional(nres, cres *maybms.Result) error {
	rel, err := closedRel(cres)
	if err != nil {
		return err
	}
	got := map[string]bool{}
	var unconditioned []string
	for _, t := range rel.Rows() {
		row := renderRow(t[:len(t)-1])
		got[row] = true
		if t[len(t)-1].String() == "" {
			unconditioned = append(unconditioned, row)
		}
	}
	union := map[string]bool{}
	for _, w := range nres.PerWorld {
		inWorld := map[string]bool{}
		for _, t := range w.Rel.Rows() {
			inWorld[renderRow(t)] = true
			union[renderRow(t)] = true
		}
		for _, row := range unconditioned {
			if !inWorld[row] {
				return fmt.Errorf("unconditioned row %s missing from world %s", row, w.World)
			}
		}
	}
	if len(union) != len(got) {
		return fmt.Errorf("%d distinct rows across naive worlds, %d conditional rows", len(union), len(got))
	}
	for row := range union {
		if !got[row] {
			return fmt.Errorf("naive row %s missing from the conditional answer", row)
		}
	}
	return nil
}

// canonicalGroups renders a closed answer independent of group and row
// order, with probabilities and floats rounded to 9 digits.
func canonicalGroups(res *maybms.Result) string {
	groups := make([]string, 0, len(res.Groups))
	for _, g := range res.Groups {
		rows := make([]string, 0, g.Rel.Len())
		for _, t := range g.Rel.Rows() {
			rows = append(rows, renderRow(t))
		}
		sort.Strings(rows)
		groups = append(groups, fmt.Sprintf("P=%.9f: %s", g.Prob, strings.Join(rows, " ")))
	}
	sort.Strings(groups)
	return strings.Join(groups, "\n")
}

// renderRow renders a tuple with floats rounded to 9 digits.
func renderRow(t []value.Value) string {
	parts := make([]string, len(t))
	for i, v := range t {
		if v.Kind() == value.KindFloat {
			parts[i] = fmt.Sprintf("%.9f", v.AsFloat())
		} else {
			parts[i] = v.String()
		}
	}
	return "(" + strings.Join(parts, ",") + ")"
}
