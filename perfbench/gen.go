package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
)

// candidate is one row of a generated CSV file: key K, value V (null when
// nullV is set) and positive weight W.
type candidate struct {
	K, V, W int
	nullV   bool
}

// dataset is a generated K,V,W file plus everything the answer checks
// need to know about it.
type dataset struct {
	rows []candidate // file order
	// byKey lists each key's candidates in file order.
	byKey map[int][]candidate
	// domain is the active domain of V (the fills of a NULL V cell).
	domain []int
	keys   int
	// conflicts counts keys with more than one candidate; nulls counts
	// rows whose V is NULL.
	conflicts, nulls int
	certainRows      int
	components       int
	alternatives     int
	path             string
}

// newDataset indexes rows and derives the decomposition IMPORT must build:
// one component per conflicting key (one alternative per candidate), one
// per NULL cell (one alternative per active-domain value), and the
// remaining rows certain.
func newDataset(rows []candidate) *dataset {
	d := &dataset{rows: rows, byKey: map[int][]candidate{}}
	seen := map[int]bool{}
	for _, c := range rows {
		d.byKey[c.K] = append(d.byKey[c.K], c)
		if !c.nullV && !seen[c.V] {
			seen[c.V] = true
			d.domain = append(d.domain, c.V)
		}
	}
	d.keys = len(d.byKey)
	for _, cs := range d.byKey {
		switch {
		case cs[0].nullV:
			d.nulls++
			d.components++
			d.alternatives += len(d.domain)
		case len(cs) > 1:
			d.conflicts++
			d.components++
			d.alternatives += len(cs)
		default:
			d.certainRows++
		}
	}
	return d
}

// write stores the dataset as CSV (header K,V,W; NULL as an empty field).
func (d *dataset) write(dir, name string) error {
	var b strings.Builder
	b.WriteString("K,V,W\n")
	for _, c := range d.rows {
		if c.nullV {
			fmt.Fprintf(&b, "%d,,%d\n", c.K, c.W)
		} else {
			fmt.Fprintf(&b, "%d,%d,%d\n", c.K, c.V, c.W)
		}
	}
	d.path = filepath.Join(dir, name)
	return os.WriteFile(d.path, []byte(b.String()), 0o644)
}

// conf is the exact confidence of (k, v): the candidate's share of its
// key's weight, 1/|domain| for a NULL fill, 1 for a certain row.
func (d *dataset) conf(k, v int) float64 {
	cs := d.byKey[k]
	if len(cs) == 1 && cs[0].nullV {
		return 1 / float64(len(d.domain))
	}
	total, w := 0, 0
	for _, c := range cs {
		total += c.W
		if c.V == v {
			w += c.W
		}
	}
	return float64(w) / float64(total)
}

// possibleV lists the values key k takes in some world.
func (d *dataset) possibleV(k int) []int {
	cs := d.byKey[k]
	if len(cs) == 1 && cs[0].nullV {
		return d.domain
	}
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.V
	}
	return out
}

// shape describes the generated input for the run report.
func (d *dataset) shape() map[string]any {
	return map[string]any{
		"keys":          d.keys,
		"rows":          len(d.rows),
		"conflict_frac": float64(d.conflicts) / float64(d.keys),
		"null_cells":    d.nulls,
		"domain_size":   len(d.domain),
		"components":    d.components,
		"alternatives":  d.alternatives,
		"certain_rows":  d.certainRows,
	}
}

// distinctInts draws n distinct values from [0, hi).
func distinctInts(rng *rand.Rand, n, hi int) []int {
	seen := map[int]bool{}
	out := make([]int, 0, n)
	for len(out) < n {
		v := rng.Intn(hi)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// genRepair generates the repair-closure file: every key has two
// candidates with distinct values in [0, 1000) and weights in [1, 9], so
// IMPORT … REPAIR KEY (K) WEIGHT W builds one two-alternative component
// per key and no certain part. Rows are shuffled.
func genRepair(rng *rand.Rand, keys int) *dataset {
	rows := make([]candidate, 0, 2*keys)
	for k := 0; k < keys; k++ {
		for _, v := range distinctInts(rng, 2, 1000) {
			rows = append(rows, candidate{K: k, V: v, W: 1 + rng.Intn(9)})
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return newDataset(rows)
}

// dirtyDomain is the active-domain size of V in the dirty-import file.
// Each NULL cell becomes a choice over the whole domain, so it stays
// small.
const dirtyDomain = 16

// genDirty generates the dirty-import file: keys with one clean row each,
// except conflictFrac of them with 2 or 3 candidates (distinct V) and
// nulls keys whose V cell is empty. V ranges over dirtyDomain values.
func genDirty(rng *rand.Rand, keys int, conflictFrac float64, nulls int) *dataset {
	perm := rng.Perm(keys)
	conflicting := int(conflictFrac * float64(keys))
	rows := make([]candidate, 0, keys+conflicting*2)
	for i, k := range perm {
		switch {
		case i < conflicting:
			for _, v := range distinctInts(rng, 2+rng.Intn(2), dirtyDomain) {
				rows = append(rows, candidate{K: k, V: v, W: 1 + rng.Intn(9)})
			}
		case i < conflicting+nulls:
			rows = append(rows, candidate{K: k, W: 1 + rng.Intn(9), nullV: true})
		default:
			rows = append(rows, candidate{K: k, V: rng.Intn(dirtyDomain), W: 1 + rng.Intn(9)})
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return newDataset(rows)
}
