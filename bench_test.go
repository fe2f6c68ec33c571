package maybms

// bench_test.go regenerates every evaluation artifact of the paper as a
// benchmark (one per figure and worked example; see the per-experiment
// index in DESIGN.md) plus the scaling experiments substantiating the
// companion papers' representation claims: naive enumeration vs world-set
// decompositions. Run with
//
//	go test -bench=. -benchmem .
//
// The absolute numbers are of course not the paper's PostgreSQL testbed;
// the *shapes* are what EXPERIMENTS.md records: WSD repair is linear where
// enumeration is exponential, and WSD confidence needs no enumeration.

import (
	"fmt"
	"math"
	"testing"

	"maybms/internal/algebra"
)

const figure1SQL = `
	create table R (A, B, C, D);
	insert into R values
		('a1', 10, 'c1', 2), ('a1', 15, 'c2', 6),
		('a2', 14, 'c3', 4), ('a2', 20, 'c4', 5),
		('a3', 20, 'c5', 6);
	create table S (C, E);
	insert into S values ('c2', 'e1'), ('c4', 'e1'), ('c4', 'e2');
`

func figure1DB(b *testing.B) *DB {
	b.Helper()
	db := Open()
	if _, err := db.ExecScript(figure1SQL); err != nil {
		b.Fatal(err)
	}
	return db
}

func figure2DB(b *testing.B) *DB {
	b.Helper()
	db := figure1DB(b)
	db.MustExec(`create table I as select A, B, C from R repair by key A weight D`)
	return db
}

func BenchmarkFigure1Load(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := Open()
		if _, err := db.ExecScript(figure1SQL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2RepairByKey(b *testing.B) {
	db := figure1DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select A, B, C from R repair by key A weight D`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerWorld) != 4 {
			b.Fatal("wrong world count")
		}
	}
}

func BenchmarkExample21Select(b *testing.B) {
	db := figure2DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select * from I where A = 'a3'`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample22CreateTable(b *testing.B) {
	db := figure2DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("D%d", i)
		if _, err := db.Exec(`create table ` + name + ` as select * from I where A = 'a3'`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample25Assert(b *testing.B) {
	db := figure2DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select * from I assert not exists(select * from I where C = 'c1')`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerWorld) != 2 {
			b.Fatal("wrong world count")
		}
	}
}

func BenchmarkExample26ChoiceOf(b *testing.B) {
	db := figure1DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select * from S choice of E`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample27ChoiceWeight(b *testing.B) {
	db := figure1DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select * from R choice of A weight D`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample28PossibleSum(b *testing.B) {
	db := figure2DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select possible sum(B) from I`)
		if err != nil {
			b.Fatal(err)
		}
		if res.First().Len() != 4 {
			b.Fatal("wrong answer")
		}
	}
}

func BenchmarkExample29Certain(b *testing.B) {
	db := figure1DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select certain E from S choice of C`)
		if err != nil {
			b.Fatal(err)
		}
		if res.First().Len() != 1 {
			b.Fatal("wrong answer")
		}
	}
}

func BenchmarkExample210Conf(b *testing.B) {
	db := figure2DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select conf from I where 50 > (select sum(B) from I)`); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Section 3.1: whales ----

const whaleSQL = `
	create table W (WID, Id, Species, Gender, Pos);
	insert into W values
		('A', 1, 'sperm', 'calf', 'b'), ('A', 2, 'sperm', 'cow', 'c'), ('A', 3, 'orca', 'cow', 'a'),
		('B', 1, 'sperm', 'calf', 'b'), ('B', 2, 'sperm', 'cow', 'c'), ('B', 3, 'orca', 'bull', 'a'),
		('C', 1, 'sperm', 'calf', 'b'), ('C', 2, 'sperm', 'bull', 'c'), ('C', 3, 'orca', 'cow', 'a'),
		('D', 1, 'sperm', 'calf', 'b'), ('D', 2, 'sperm', 'bull', 'c'), ('D', 3, 'orca', 'bull', 'a'),
		('E', 1, 'sperm', 'calf', 'c'), ('E', 2, 'sperm', 'cow', 'b'), ('E', 3, 'orca', 'cow', 'a'),
		('F', 1, 'sperm', 'calf', 'c'), ('F', 2, 'sperm', 'bull', 'b'), ('F', 3, 'orca', 'cow', 'a');
	create table I as select Id, Species, Gender, Pos from W choice of WID;
`

func whaleDB(b *testing.B) *DB {
	b.Helper()
	db := OpenIncomplete()
	if _, err := db.ExecScript(whaleSQL); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkWhaleLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		whaleDB(b)
	}
}

func BenchmarkWhaleAttackQuery(b *testing.B) {
	db := whaleDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select possible 'yes' from I where Id=1 and Pos='b'`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWhaleValidView(b *testing.B) {
	db := whaleDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select * from I assert exists
			(select * from I where Gender='cow' and Pos='b')`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerWorld) != 1 {
			b.Fatal("wrong world count")
		}
	}
}

func BenchmarkWhaleValidPrimeView(b *testing.B) {
	db := whaleDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select * from I where exists
			(select * from I where Gender='cow' and Pos='b')`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerWorld) != 6 {
			b.Fatal("wrong world count")
		}
	}
}

func BenchmarkWhaleCertain(b *testing.B) {
	db := whaleDB(b)
	db.MustExec(`create view ValidP as select * from I where exists
		(select * from I where Gender='cow' and Pos='b')`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select certain * from ValidP`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4GroupWorldsBy(b *testing.B) {
	db := whaleDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select possible i2.Gender as G2, i3.Gender as G3
			from I i2, I i3 where i2.Id = 2 and i3.Id = 3
			group worlds by (select Pos from I where Id = 2)`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Groups) != 2 {
			b.Fatal("wrong group count")
		}
	}
}

func BenchmarkWhaleIndependenceCheck(b *testing.B) {
	db := whaleDB(b)
	db.MustExec(`create table Groups as
		select possible i2.Gender as G2, i3.Gender as G3
		from I i2, I i3 where i2.Id = 2 and i3.Id = 3
		group worlds by (select Pos from I where Id = 2)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select * from Groups g1, Groups g2
			where not exists (select * from Groups g3
				where g3.G2 = g1.G2 and g3.G3 = g2.G3)`); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Section 3.2: data cleaning ----

func cleaningDB(b *testing.B) *DB {
	b.Helper()
	db := OpenIncomplete()
	if _, err := db.ExecScript(`
		create table R (SSN, TEL);
		insert into R values (123, 456), (789, 123);
		create table S as
			select SSN, TEL, SSN as "SSN'", TEL as "TEL'" from R
			union
			select SSN, TEL, TEL as "SSN'", SSN as "TEL'" from R;
	`); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkFigure5Union(b *testing.B) {
	db := OpenIncomplete()
	db.MustExec(`create table R (SSN, TEL)`)
	db.MustExec(`insert into R values (123, 456), (789, 123)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`select SSN, TEL, SSN as "SSN'", TEL as "TEL'" from R
			union select SSN, TEL, TEL as "SSN'", SSN as "TEL'" from R`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6Repair(b *testing.B) {
	db := cleaningDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select "SSN'", "TEL'" from S repair by key SSN, TEL`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerWorld) != 4 {
			b.Fatal("wrong world count")
		}
	}
}

func BenchmarkFigure7FDAssert(b *testing.B) {
	db := cleaningDB(b)
	db.MustExec(`create table T as select "SSN'", "TEL'" from S repair by key SSN, TEL`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(`select * from T assert not exists
			(select 'yes' from T t1, T t2
			 where t1."SSN'" = t2."SSN'" and t1."TEL'" <> t2."TEL'")`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PerWorld) != 3 {
			b.Fatal("wrong world count")
		}
	}
}

// ---- scaling: naive enumeration vs WSD (refs [1,3,4]) ----

// dirtyRows builds n key groups with 2 candidate tuples each: 2^n repairs.
func dirtyRows(n int) [][]any {
	rows := make([][]any, 0, 2*n)
	for k := 0; k < n; k++ {
		rows = append(rows, []any{k, 0, 1}, []any{k, 1, 3})
	}
	return rows
}

// BenchmarkScalingRepairNaive enumerates all 2^n repairs explicitly — the
// exponential baseline. Sizes are kept small; the point is the growth.
// This is the parallel default (workers = GOMAXPROCS); the Workers1 variant
// below pins the exact sequential path for speedup comparisons.
func BenchmarkScalingRepairNaive(b *testing.B) { benchScalingRepairNaive(b, 0) }

// BenchmarkScalingRepairNaiveWorkers1 is the sequential (workers = 1)
// configuration of BenchmarkScalingRepairNaive.
func BenchmarkScalingRepairNaiveWorkers1(b *testing.B) { benchScalingRepairNaive(b, 1) }

func benchScalingRepairNaive(b *testing.B, workers int) {
	for _, n := range []int{2, 4, 8, 12} {
		b.Run(fmt.Sprintf("groups=%d/worlds=%d", n, 1<<n), func(b *testing.B) {
			db := Open()
			db.SetMaxWorlds(1 << 14)
			db.SetWorkers(workers)
			if err := db.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Exec(`select K, V, W from Dirty repair by key K weight W`)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.PerWorld) != 1<<n {
					b.Fatal("wrong world count")
				}
			}
		})
	}
}

// BenchmarkScalingRepairWSD factorizes the same repairs — linear in n even
// far beyond any enumerable size.
func BenchmarkScalingRepairWSD(b *testing.B) {
	for _, n := range []int{2, 4, 8, 12, 1000, 100000} {
		b.Run(fmt.Sprintf("groups=%d", n), func(b *testing.B) {
			rows := dirtyRows(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cdb := OpenCompact()
				if err := cdb.Register("Dirty", []string{"K", "V", "W"}, rows); err != nil {
					b.Fatal(err)
				}
				if err := cdb.RepairByKey("Dirty", "Clean", []string{"K"}, "W"); err != nil {
					b.Fatal(err)
				}
				if cdb.ComponentCount() != n {
					b.Fatal("wrong component count")
				}
			}
		})
	}
}

// BenchmarkScalingConfNaive computes a tuple confidence by world
// enumeration (conf query over 2^n worlds), on the parallel default; the
// Workers1 variant pins the exact sequential path.
func BenchmarkScalingConfNaive(b *testing.B) { benchScalingConfNaive(b, 0) }

// BenchmarkScalingConfNaiveWorkers1 is the sequential (workers = 1)
// configuration of BenchmarkScalingConfNaive.
func BenchmarkScalingConfNaiveWorkers1(b *testing.B) { benchScalingConfNaive(b, 1) }

func benchScalingConfNaive(b *testing.B, workers int) {
	for _, n := range []int{2, 4, 8, 12} {
		b.Run(fmt.Sprintf("groups=%d/worlds=%d", n, 1<<n), func(b *testing.B) {
			db := Open()
			db.SetMaxWorlds(1 << 14)
			db.SetWorkers(workers)
			if err := db.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
				b.Fatal(err)
			}
			db.MustExec(`create table Clean as select K, V, W from Dirty repair by key K weight W`)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Exec(`select K, V, conf from Clean where K = 0`)
				if err != nil {
					b.Fatal(err)
				}
				if res.First().Len() != 2 {
					b.Fatal("wrong answer")
				}
			}
		})
	}
}

// BenchmarkScalingConfWSD computes the same confidence exactly on the
// decomposition, without enumeration.
func BenchmarkScalingConfWSD(b *testing.B) {
	for _, n := range []int{2, 4, 8, 12, 1000, 100000} {
		b.Run(fmt.Sprintf("groups=%d", n), func(b *testing.B) {
			cdb := OpenCompact()
			if err := cdb.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
				b.Fatal(err)
			}
			if err := cdb.RepairByKey("Dirty", "Clean", []string{"K"}, "W"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := cdb.Conf("Clean", 0, 1, 3)
				if err != nil {
					b.Fatal(err)
				}
				if math.Abs(c-0.75) > 1e-9 {
					b.Fatal("wrong confidence")
				}
			}
		})
	}
}

// BenchmarkScalingSQLClosure sends whole-table CONF and a selective CERTAIN
// as I-SQL through CompactDB.Exec over a repair-by-key table of n
// two-alternative components — the statement path, componentwise stage and
// closure fold included, where ScalingConfWSD probes one tuple through the
// API. Both closures should grow linearly in n.
func BenchmarkScalingSQLClosure(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		cdb := OpenCompact()
		if err := cdb.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
			b.Fatal(err)
		}
		if _, err := cdb.Exec("create table Clean as select K, V, W from Dirty repair by key K weight W"); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("components=%d/conf", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := cdb.Exec("select K, V, conf from Clean")
				if err != nil {
					b.Fatal(err)
				}
				rel := res.First()
				if rel.Len() != 2*n {
					b.Fatalf("conf answer has %d rows, want %d", rel.Len(), 2*n)
				}
				found := false
				for _, t := range rel.Rows() {
					if t[0].AsFloat() == 0 && t[1].AsFloat() == 1 {
						found = math.Abs(t[2].AsFloat()-0.75) <= 1e-9
						break
					}
				}
				if !found {
					b.Fatal("wrong confidence for (0, 1)")
				}
			}
		})
		b.Run(fmt.Sprintf("components=%d/certain", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := cdb.Exec("select certain K from Clean where K < 100")
				if err != nil {
					b.Fatal(err)
				}
				if got := res.First().Len(); got != 100 {
					b.Fatalf("certain answer has %d rows, want 100", got)
				}
			}
		})
	}
}

// componentwiseDB builds a compact database with n two-alternative repair
// components (2^n worlds) and the componentwise path toggled.
func componentwiseDB(b *testing.B, n int, componentwise bool) *CompactDB {
	b.Helper()
	cdb := OpenCompact()
	cdb.SetComponentwise(componentwise)
	if err := cdb.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
		b.Fatal(err)
	}
	if err := cdb.RepairByKey("Dirty", "Clean", []string{"K"}, "W"); err != nil {
		b.Fatal(err)
	}
	return cdb
}

func benchComponentwiseSelect(b *testing.B, query string, sizes []int, componentwise bool) {
	for _, n := range sizes {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n), func(b *testing.B) {
			cdb := componentwiseDB(b, n, componentwise)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rel, err := cdb.Select(query)
				if err != nil {
					b.Fatal(err)
				}
				if rel.Len() != 2*n {
					b.Fatalf("wrong answer: %d rows", rel.Len())
				}
			}
			b.StopTimer()
			if componentwise && cdb.MergeCount() != 0 {
				b.Fatal("componentwise bench merged")
			}
		})
	}
}

// BenchmarkComponentwiseConf closes a CONF query over n independent
// components with Σ alternatives evaluations and zero merges; cost scales
// with the sum of alternatives. groups=64 represents 2^64 worlds — far
// beyond what any merge could multiply out.
func BenchmarkComponentwiseConf(b *testing.B) {
	benchComponentwiseSelect(b, `select conf, K, V from Clean`, []int{4, 8, 12, 64}, true)
}

// BenchmarkMergePathConf is the same query forced onto the classic merge
// path: the involved components multiply into one 2^n-alternative
// component (bounded by the merge limit, so sizes stop at 12).
func BenchmarkMergePathConf(b *testing.B) {
	benchComponentwiseSelect(b, `select conf, K, V from Clean`, []int{4, 8, 12}, false)
}

// BenchmarkComponentwisePossible / BenchmarkMergePathPossible: the same
// pair for the POSSIBLE closure.
func BenchmarkComponentwisePossible(b *testing.B) {
	benchComponentwiseSelect(b, `select possible K, V from Clean`, []int{4, 8, 12, 64}, true)
}

func BenchmarkMergePathPossible(b *testing.B) {
	benchComponentwiseSelect(b, `select possible K, V from Clean`, []int{4, 8, 12}, false)
}

// naiveDirtyDB enumerates the n-component repair explicitly (2^n worlds)
// for the naive DML/grouping baselines, plus a two-way choice table P.
func naiveDirtyDB(b *testing.B, n int) *DB {
	b.Helper()
	db := Open()
	if err := db.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
		b.Fatal(err)
	}
	db.MustExec("create table Clean as select K, V, W from Dirty repair by key K weight W")
	if err := db.Register("C", []string{"A", "B"}, [][]any{{10, 0}, {20, 1}}); err != nil {
		b.Fatal(err)
	}
	db.MustExec("create table P as select A, B from C choice of A")
	return db
}

// compactDirtyDB is the same content as a decomposition: n repair
// components plus one choice component — 2^(n+1) worlds in linear space.
func compactDirtyDB(b *testing.B, n int) *CompactDB {
	b.Helper()
	cdb := OpenCompact()
	if err := cdb.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
		b.Fatal(err)
	}
	if err := cdb.RepairByKey("Dirty", "Clean", []string{"K"}, "W"); err != nil {
		b.Fatal(err)
	}
	if err := cdb.Register("C", []string{"A", "B"}, [][]any{{10, 0}, {20, 1}}); err != nil {
		b.Fatal(err)
	}
	if err := cdb.ChoiceOf("C", "P", []string{"A"}, ""); err != nil {
		b.Fatal(err)
	}
	return cdb
}

// BenchmarkCompactUpdate rewrites an uncertain relation piece by piece —
// Σ alternatives work, zero merges, any number of components — where the
// naive counterpart must rewrite 2^n worlds.
func BenchmarkCompactUpdate(b *testing.B) {
	for _, n := range []int{4, 8, 12, 1000} {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n+1), func(b *testing.B) {
			cdb := compactDirtyDB(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cdb.Update("update Clean set V = V + 1 where V >= 0"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if cdb.MergeCount() != 0 {
				b.Fatal("componentwise update merged")
			}
		})
	}
}

// BenchmarkNaiveUpdate is the enumerating baseline: the same statement in
// every explicit world.
func BenchmarkNaiveUpdate(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n+1), func(b *testing.B) {
			db := naiveDirtyDB(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.MustExec("update Clean set V = V + 1 where V >= 0")
			}
		})
	}
}

// BenchmarkCompactGroupWorldsBy groups the world-set by a choice table's
// answer via the per-component fingerprint fold — no merge, no
// enumeration — where the naive counterpart fingerprints 2^n worlds.
func BenchmarkCompactGroupWorldsBy(b *testing.B) {
	for _, n := range []int{4, 8, 12, 1000} {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n+1), func(b *testing.B) {
			cdb := compactDirtyDB(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				groups, err := cdb.SelectGroups("select possible K, V from Clean group worlds by (select B from P)")
				if err != nil {
					b.Fatal(err)
				}
				if len(groups) != 2 {
					b.Fatal("wrong group count")
				}
			}
			b.StopTimer()
			if cdb.MergeCount() != 0 {
				b.Fatal("componentwise group worlds by merged")
			}
		})
	}
}

// BenchmarkNaiveGroupWorldsBy is the enumerating baseline for the same
// grouped closure.
func BenchmarkNaiveGroupWorldsBy(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n+1), func(b *testing.B) {
			db := naiveDirtyDB(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Exec("select possible K, V from Clean group worlds by (select B from P)")
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Groups) != 2 {
					b.Fatal("wrong group count")
				}
			}
		})
	}
}

// BenchmarkWorldCountMillion counts the worlds of a million-component WSD
// (the "10^10^6 worlds" headline of ref [1]): 2^(10^6) worlds.
func BenchmarkWorldCountMillion(b *testing.B) {
	n := 1_000_000
	cdb := OpenCompact()
	if err := cdb.Register("Huge", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
		b.Fatal(err)
	}
	if err := cdb.RepairByKey("Huge", "HugeR", []string{"K"}, ""); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := cdb.WorldCount()
		if count.BitLen() != n+1 {
			b.Fatal("wrong world count")
		}
	}
}

// BenchmarkScalingAssertWSD measures the partial-expansion assert: only
// the touched component is filtered, regardless of how many components
// exist.
func BenchmarkScalingAssertWSD(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("groups=%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cdb := OpenCompact()
				if err := cdb.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
					b.Fatal(err)
				}
				// One component per key: touch only key 0's data via a
				// dedicated relation so the merge involves one component.
				if err := cdb.RepairByKey("Dirty", "Clean", []string{"K"}, "W"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				// The assert touches relation Clean — all components — so
				// it must be rejected quickly (guard path), demonstrating
				// the bounded-merge contract.
				err := cdb.Assert("exists (select * from Clean where K = 0 and V = 1)", "Clean")
				if err == nil {
					b.Fatal("expected merge guard for whole-relation assert")
				}
			}
		})
	}
}

// BenchmarkCompactRepairUncertain: REPAIR BY KEY over an *uncertain*
// source — a chained repair (repair of a repair) on the compact engine.
// Each key-group component splits in place (Σ-alternatives work, zero
// merges), then a CONF closure runs over the chained result. n=18
// represents 2^18 worlds — beyond the naive engine's enumeration — and
// n=1000 ≈ 2^1000 worlds, both linear in the representation.
func BenchmarkCompactRepairUncertain(b *testing.B) {
	for _, n := range []int{4, 8, 12, 18, 1000} {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cdb := componentwiseDB(b, n, true)
				b.StartTimer()
				if err := cdb.RepairByKey("Clean", "Cleaner", []string{"K", "V"}, ""); err != nil {
					b.Fatal(err)
				}
				rel, err := cdb.Select("select conf, K, V from Cleaner")
				if err != nil {
					b.Fatal(err)
				}
				if rel.Len() != 2*n {
					b.Fatalf("wrong answer: %d rows", rel.Len())
				}
				b.StopTimer()
				if cdb.MergeCount() != 0 {
					b.Fatal("chained repair merged")
				}
				b.StartTimer()
			}
		})
	}
}

// ---- conditional decomposition (d-tree) route benchmarks ----

// conditionalCleanerDB is componentwiseDB plus the nesting chained
// repair: Cleaner's per-key repairs hang as conditional children under
// Clean's feeding alternatives — the d-tree regime; the flat Clean is
// the degenerate one-level tree the *Flat legs below query.
func conditionalCleanerDB(b *testing.B, n int) *CompactDB {
	b.Helper()
	cdb := componentwiseDB(b, n, true)
	if err := cdb.RepairByKey("Clean", "Cleaner", []string{"K", "V"}, ""); err != nil {
		b.Fatal(err)
	}
	return cdb
}

// naiveCleanerDB is the enumerating counterpart: the chained repair
// re-splits every one of the 2^n worlds, so sizes stop where
// enumeration does.
func naiveCleanerDB(b *testing.B, n int) *DB {
	b.Helper()
	db := naiveDirtyDB(b, n)
	db.MustExec("create table Cleaner as select K, V, W from Clean repair by key K, V")
	return db
}

// BenchmarkConditionalRepair measures the nesting split alone: REPAIR BY
// KEY over the uncertain Clean creates conditional children under every
// feeding alternative — no merge, no expansion, linear in the
// representation. The naive leg re-splits 2^n enumerated worlds
// (see also BenchmarkNaiveRepairUncertain / BenchmarkCompactRepairUncertain,
// which add the closing CONF query to the same shapes).
func BenchmarkConditionalRepair(b *testing.B) {
	for _, n := range []int{4, 18, 1000} {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cdb := componentwiseDB(b, n, true)
				b.StartTimer()
				if err := cdb.RepairByKey("Clean", "Cleaner", []string{"K", "V"}, ""); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if cdb.MergeCount() != 0 {
					b.Fatal("nesting split merged")
				}
				if cdb.ConditionalCount() == 0 {
					b.Fatal("split did not nest")
				}
				b.StartTimer()
			}
		})
	}
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("naive/groups=%d/worlds=2^%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := naiveDirtyDB(b, n)
				b.StartTimer()
				db.MustExec("create table Cleaner as select K, V, W from Clean repair by key K, V")
			}
		})
	}
}

// benchConditionalSelect runs one query over the nested Cleaner (two-level
// tree fold), the flat Clean (one-level degenerate case of the same
// conditional route) and the enumerating engine, asserting the compact
// legs stay merge-free and actually route conditional.
func benchConditionalSelect(b *testing.B, confQuery bool) {
	table := func(nested bool) string {
		if nested {
			return "Cleaner"
		}
		return "Clean"
	}
	query := func(nested bool) string {
		if confQuery {
			return "select conf, K, V from " + table(nested)
		}
		return "select K, V from " + table(nested)
	}
	for _, leg := range []struct {
		name   string
		nested bool
	}{{"flat", false}, {"nested", true}} {
		for _, n := range []int{4, 18} {
			b.Run(fmt.Sprintf("%s/groups=%d/worlds=2^%d", leg.name, n, n), func(b *testing.B) {
				var cdb *CompactDB
				if leg.nested {
					cdb = conditionalCleanerDB(b, n)
				} else {
					cdb = componentwiseDB(b, n, true)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rel, err := cdb.Select(query(leg.nested))
					if err != nil {
						b.Fatal(err)
					}
					if rel.Len() < 2*n {
						b.Fatalf("wrong answer: %d rows", rel.Len())
					}
				}
				b.StopTimer()
				if cdb.MergeCount() != 0 {
					b.Fatal("conditional query merged")
				}
				if !confQuery && cdb.ConditionalCount() == 0 {
					b.Fatal("query did not route conditional")
				}
			})
		}
	}
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("naive/groups=%d/worlds=2^%d", n, n), func(b *testing.B) {
			db := naiveCleanerDB(b, n)
			q := query(true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := db.MustExec(q)
				// A plain select renders per world (no closure groups); conf
				// closes into one group.
				if confQuery && len(res.Groups) == 0 {
					b.Fatal("empty naive answer")
				}
			}
		})
	}
}

// BenchmarkConditionalSelect: a plain per-world SELECT answered as a
// conditional relation (the query schema plus a cond column) — nested
// tree vs flat product vs the naive engine's per-world enumeration.
func BenchmarkConditionalSelect(b *testing.B) { benchConditionalSelect(b, false) }

// BenchmarkConditionalConf: the CONF closure as a conditional tree fold —
// each alternative weighted by its conditioning path — against the flat
// componentwise fold and the naive 2^n-world sum.
func BenchmarkConditionalConf(b *testing.B) { benchConditionalSelect(b, true) }

// ---- batch-native closure pipeline: row vs batch past the Collect seam ----

// bulkChoiceDB builds one choice component with alts alternatives of rows
// tuples each — per-alternative parts far above the vectorization floor, the
// regime the batch-native closure pipeline targets — plus a tiny independent
// choice table P for the grouped closure. The Row/Batch benchmark pairs
// below run identical queries over it: the Row leg is the classic row
// pipeline (row-at-a-time evaluation, closures over row-backed views), the
// Batch leg keeps answers columnar end to end — vectorized evaluation plus
// the batch-native Collect seam (SetBatchClosure).
func bulkChoiceDB(b *testing.B, alts, rows int) *CompactDB {
	b.Helper()
	cdb := OpenCompact()
	data := make([][]any, 0, alts*rows)
	for g := 0; g < alts; g++ {
		for r := 0; r < rows; r++ {
			data = append(data, []any{g, r, 1})
		}
	}
	if err := cdb.Register("Cand", []string{"G", "V", "W"}, data); err != nil {
		b.Fatal(err)
	}
	if err := cdb.ChoiceOf("Cand", "U", []string{"G"}, ""); err != nil {
		b.Fatal(err)
	}
	if err := cdb.Register("C", []string{"A", "B"}, [][]any{{10, 0}, {20, 1}}); err != nil {
		b.Fatal(err)
	}
	if err := cdb.ChoiceOf("C", "P", []string{"A"}, ""); err != nil {
		b.Fatal(err)
	}
	return cdb
}

func benchClosureSeam(b *testing.B, batch bool, query string, wantRows int) {
	prevSeam := SetBatchClosure(batch)
	defer SetBatchClosure(prevSeam)
	defer algebra.SetVectorized(algebra.SetVectorized(batch))
	cdb := bulkChoiceDB(b, 8, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := cdb.Select(query)
		if err != nil {
			b.Fatal(err)
		}
		if rel.Len() != wantRows {
			b.Fatalf("wrong answer: %d rows, want %d", rel.Len(), wantRows)
		}
	}
	b.StopTimer()
	if cdb.MergeCount() != 0 {
		b.Fatal("closure benchmark merged")
	}
}

// BenchmarkBatchClosurePossible / BenchmarkRowClosurePossible: the POSSIBLE
// union-with-dedup over 8 alternatives × 2048 tuples, columnar vs row-backed.
func BenchmarkBatchClosurePossible(b *testing.B) {
	benchClosureSeam(b, true, `select possible V from U where V < 1536`, 1536)
}

func BenchmarkRowClosurePossible(b *testing.B) {
	benchClosureSeam(b, false, `select possible V from U where V < 1536`, 1536)
}

// BenchmarkBatchClosureConf / BenchmarkRowClosureConf: the CONF closure —
// dedup plus per-alternative probability accumulation — on the same pair.
func BenchmarkBatchClosureConf(b *testing.B) {
	benchClosureSeam(b, true, `select conf, V from U where V < 1536`, 1536)
}

func BenchmarkRowClosureConf(b *testing.B) {
	benchClosureSeam(b, false, `select conf, V from U where V < 1536`, 1536)
}

func benchGroupWorldsSeam(b *testing.B, batch bool) {
	prevSeam := SetBatchClosure(batch)
	defer SetBatchClosure(prevSeam)
	defer algebra.SetVectorized(algebra.SetVectorized(batch))
	cdb := bulkChoiceDB(b, 8, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, err := cdb.SelectGroups("select possible V from U group worlds by (select B from P)")
		if err != nil {
			b.Fatal(err)
		}
		if len(groups) != 2 {
			b.Fatal("wrong group count")
		}
	}
	b.StopTimer()
	if cdb.MergeCount() != 0 {
		b.Fatal("group worlds benchmark merged")
	}
}

// BenchmarkBatchClosureGroupWorlds / BenchmarkRowClosureGroupWorlds: the
// grouped closure — fingerprint fold plus a per-group POSSIBLE run.
func BenchmarkBatchClosureGroupWorlds(b *testing.B) { benchGroupWorldsSeam(b, true) }

func BenchmarkRowClosureGroupWorlds(b *testing.B) { benchGroupWorldsSeam(b, false) }

// BenchmarkNaiveRepairUncertain is the naive baseline for the chained
// repair: the enumerating engine re-splits every world (2^n per-world
// repairs plus a 2^n-world conf fold), so sizes stop where enumeration
// does.
func BenchmarkNaiveRepairUncertain(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("groups=%d/worlds=2^%d", n, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := Open()
				if err := db.Register("Dirty", []string{"K", "V", "W"}, dirtyRows(n)); err != nil {
					b.Fatal(err)
				}
				db.MustExec("create table Clean as select K, V, W from Dirty repair by key K weight W")
				b.StartTimer()
				db.MustExec("create table Cleaner as select K, V, W from Clean repair by key K, V")
				res := db.MustExec("select conf, K, V from Cleaner")
				if res.Groups[0].Rel.Len() != 2*n {
					b.Fatalf("wrong answer: %d rows", res.Groups[0].Rel.Len())
				}
			}
		})
	}
}
