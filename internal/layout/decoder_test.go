package layout_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"code56/internal/codes/evenodd"
	"code56/internal/codes/hcode"
	"code56/internal/codes/hdp"
	"code56/internal/codes/pcode"
	"code56/internal/codes/rdp"
	"code56/internal/codes/xcode"
	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/xorblk"
)

// This file tests layout.Decoder from outside the package, so that it can
// hold the compiled plans against the real codes (which import layout).

func columnsOf(cols ...int) layout.Columns {
	var cs layout.Columns
	for _, c := range cols {
		cs = cs.With(c)
	}
	return cs
}

// encoded returns a random consistent stripe of the code.
func encoded(code layout.Code, blockSize int, seed int64) *layout.Stripe {
	s := layout.NewStripe(code.Geometry(), blockSize)
	s.FillRandom(code, rand.New(rand.NewSource(seed)))
	layout.Encode(code, s)
	return s
}

// symbolic returns a stripe that satisfies no parity chain: cell i holds only
// bit i. Whatever a decoder writes into a lost cell is then the set of
// surviving cells it XORed, so two decoders agree on the bytes exactly when
// they solved every lost cell through the same chain.
func symbolic(g layout.Geometry) *layout.Stripe {
	s := layout.NewStripe(g, (g.Elements()+63)/64*8)
	for i := 0; i < g.Elements(); i++ {
		s.Block(g.CoordOf(i))[i/8] = 1 << (i % 8)
	}
	return s
}

// garble overwrites the columns: a decoder must never read a lost cell.
func garble(s *layout.Stripe, r *rand.Rand, cols ...int) {
	for _, c := range cols {
		r.Read(s.Column(c))
	}
}

// eachColumnSet calls fn for every single column and every column pair.
func eachColumnSet(g layout.Geometry, fn func(cols []int)) {
	for a := 0; a < g.Cols; a++ {
		fn([]int{a})
		for b := a + 1; b < g.Cols; b++ {
			fn([]int{a, b})
		}
	}
}

// checkSources checks every lost cell's direct sources against orig: none of
// them lost, none twice, their XOR the cell, and SourceRuns the same cells read
// as maximal runs of adjacent rows.
func checkSources(t *testing.T, ctx string, plan *layout.Plan, orig *layout.Stripe, cols []int) (total int) {
	t.Helper()
	g := orig.Geom
	got := make([]byte, orig.BlockSize)
	for _, col := range cols {
		for row := 0; row < g.Rows; row++ {
			cell := layout.Coord{Row: row, Col: col}
			srcs := plan.Sources(cell)
			if len(srcs) == 0 {
				t.Fatalf("%s: lost cell %v has no sources", ctx, cell)
			}
			total += len(srcs)
			clear(got)
			seen := map[layout.Coord]bool{}
			for _, m := range srcs {
				if columnsOf(cols...).Has(m.Col) || seen[m] {
					t.Fatalf("%s: cell %v lists %v as a source (lost, or listed twice)", ctx, cell, m)
				}
				seen[m] = true
				xorblk.Xor(got, orig.Block(m))
			}
			if !bytes.Equal(got, orig.Block(cell)) {
				t.Fatalf("%s: cell %v: sources do not XOR to the cell", ctx, cell)
			}
			calls, n := diskCalls(plan.SourceRuns(cell))
			if n != len(srcs) {
				t.Fatalf("%s: cell %v: runs hold %d cells, sources %d", ctx, cell, n, len(srcs))
			}
			// One disk call a maximal run of adjacent rows of a column.
			want := 0
			for i, m := range srcs {
				if i == 0 || srcs[i-1].Col != m.Col || srcs[i-1].Row+1 != m.Row {
					want++
				}
			}
			if calls != want {
				t.Fatalf("%s: cell %v: %d disk calls for %d runs of adjacent sources", ctx, cell, calls, want)
			}
		}
	}
	if plan.Sources(layout.Coord{Row: 0, Col: survivor(g, cols)}) != nil {
		t.Fatalf("%s: a surviving cell has sources", ctx)
	}
	return total
}

// survivor returns a column not in cols.
func survivor(g layout.Geometry, cols []int) int {
	for c := 0; c < g.Cols; c++ {
		if !columnsOf(cols...).Has(c) {
			return c
		}
	}
	panic("no surviving column")
}

// TestDecoderMatchesAlgorithm1: for every single column and column pair of
// Code 5-6 the compiled schedule solves each lost cell through the chain the
// paper's algorithms solve it through, at the same cost: a lost data column
// through core.PlanHybridRecovery's choice (§III-E-4), the diagonal-parity
// column through core.RecoverSingle, a pair through core.ReconstructDouble
// (Algorithm 1).
func TestDecoderMatchesAlgorithm1(t *testing.T) {
	for _, p := range []int{5, 7, 11, 13} {
		for _, orient := range []core.Orientation{core.Left, core.Right} {
			code, err := core.NewOriented(p, orient)
			if err != nil {
				t.Fatal(err)
			}
			g := code.Geometry()
			dec := layout.NewDecoder(code)
			orig := encoded(code, 32, int64(p))
			sym := symbolic(g)
			r := rand.New(rand.NewSource(int64(p) * 31))
			sources, lostCells := 0, 0
			eachColumnSet(g, func(cols []int) {
				ctx := fmt.Sprintf("%s p=%d columns %v", code.Name(), p, cols)
				plan := dec.ColumnPlan(columnsOf(cols...))
				if plan == nil || !plan.Complete() {
					t.Fatalf("%s: no plan", ctx)
				}
				reference := func(s *layout.Stripe) layout.DecodeStats {
					var st layout.DecodeStats
					var err error
					switch {
					case len(cols) == 1 && cols[0] < p-1:
						var hp core.RecoveryPlan
						if hp, err = code.PlanHybridRecovery(cols[0]); err == nil {
							st, err = code.ExecuteRecoveryPlan(s, hp)
						}
					case len(cols) == 1:
						st, err = code.RecoverSingle(s, cols[0])
					default:
						st, err = code.ReconstructDouble(s, cols[0], cols[1])
					}
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					return st
				}
				for _, base := range []*layout.Stripe{orig, sym} {
					want, got := base.Clone(), base.Clone()
					garble(want, r, cols...)
					garble(got, r, cols...)
					wantStats := reference(want)
					if xors := plan.Run(got); xors != wantStats.XORs {
						t.Fatalf("%s: Run reports %d XORs, Algorithm 1 %d", ctx, xors, wantStats.XORs)
					}
					if plan.Stats() != wantStats {
						t.Fatalf("%s: plan stats %+v, Algorithm 1 %+v", ctx, plan.Stats(), wantStats)
					}
					if !got.Equal(want) {
						which := "random stripe"
						if base == sym {
							which = "symbolic stripe: a cell went through a different chain"
						}
						t.Fatalf("%s: plan and Algorithm 1 disagree (%s)", ctx, which)
					}
				}
				if len(plan.Steps()) != len(cols)*g.Rows {
					t.Fatalf("%s: %d steps for %d lost cells", ctx, len(plan.Steps()), len(cols)*g.Rows)
				}
				if len(cols) == 1 {
					// One lost column: every cell is one chain, the paper's
					// p-2 reads and p-3 XORs.
					for _, st := range plan.Steps() {
						if len(st.Sources) != p-2 {
							t.Fatalf("%s: cell %v solved by chain %d with %d sources", ctx, st.Missing, st.Chain, len(st.Sources))
						}
					}
				}
				n := checkSources(t, ctx, plan, orig, cols)
				if len(cols) == 2 {
					sources += n
					lostCells += 2 * g.Rows
				}
			})
			t.Logf("%s p=%d: a cell lost to a double failure has %.1f surviving sources on average, of %d surviving cells",
				code.Name(), p, float64(sources)/float64(lostCells), (g.Cols-2)*g.Rows)
		}
	}
}

// TestDecoderOtherCodes: the peelable codes decode every column set to the
// original bytes, through the schedule and through the per-cell sources.
func TestDecoderOtherCodes(t *testing.T) {
	for _, code := range []layout.Code{
		rdp.MustNew(5), rdp.MustNew(7), hcode.MustNew(5), hcode.MustNew(7), hdp.MustNew(7),
		xcode.MustNew(5), xcode.MustNew(7), pcode.MustNew(7, pcode.VariantPMinus1), pcode.MustNew(7, pcode.VariantP),
	} {
		g := code.Geometry()
		dec := layout.NewDecoder(code)
		orig := encoded(code, 24, 5)
		r := rand.New(rand.NewSource(6))
		eachColumnSet(g, func(cols []int) {
			ctx := fmt.Sprintf("%s columns %v", code.Name(), cols)
			plan := dec.ColumnPlan(columnsOf(cols...))
			if plan == nil {
				t.Fatalf("%s: no plan", ctx)
			}
			if again := dec.ColumnPlan(columnsOf(cols...)); again != plan {
				t.Fatalf("%s: second lookup compiled a second plan", ctx)
			}
			s := orig.Clone()
			garble(s, r, cols...)
			plan.Run(s)
			if !s.Equal(orig) {
				t.Fatalf("%s: wrong contents", ctx)
			}
			checkSources(t, ctx, plan, orig, cols)
		})
	}
}

// runFolds runs a fold schedule over an in-memory stripe the way raid6's
// executor runs it over the disks — a column's runs in reads, a run starting
// past the rows taken so far opening the next, and each read block by block,
// a block onto every run that takes it — checking what that relies on: the
// reads are Reads, or the runs where Reads is nil; a column without Reads is
// covered by its runs cell for cell, once; a column with them has each cell
// read once, and its runs fold only what was read; and every accumulator meets
// its first contributor before anything is XORed into it.
func runFolds(t *testing.T, ctx string, s *layout.Stripe, folds []layout.ColumnFold, acc []byte) {
	t.Helper()
	bs := s.BlockSize
	fed := make([]bool, len(acc)/bs)
	for i, cf := range folds {
		if i > 0 && folds[i-1].Col >= cf.Col {
			t.Fatalf("%s: column %d scheduled after column %d", ctx, cf.Col, folds[i-1].Col)
		}
		read := make([]int, s.Geom.Rows)
		for _, rd := range cf.Reads {
			for k := 0; k < rd.N; k++ {
				read[rd.Row+k]++
			}
		}
		taken := make([]int, s.Geom.Rows)
		reads, runs := 0, cf.Runs
		for lo := 0; lo < len(runs); reads++ {
			hi, first, end := lo+1, runs[lo].Row, runs[lo].Row+runs[lo].N
			for ; hi < len(runs) && runs[hi].Row <= end; hi++ {
				first, end = min(first, runs[hi].Row), max(end, runs[hi].Row+runs[hi].N)
			}
			for row := first; row < end; row++ {
				src := s.Block(layout.Coord{Row: row, Col: cf.Col})
				for _, r := range runs[lo:hi] {
					if row < r.Row || row >= r.Row+r.N {
						continue
					}
					a := r.Acc + row - r.Row
					if r.First == fed[a] {
						t.Fatalf("%s: cell (%d,%d) meets accumulator %d with First %v, fed before: %v", ctx, row, cf.Col, a, r.First, fed[a])
					}
					fed[a] = true
					if r.First {
						copy(acc[a*bs:(a+1)*bs], src)
					} else {
						xorblk.Xor(acc[a*bs:(a+1)*bs], src)
					}
					taken[row]++
				}
			}
			lo = hi
		}
		want := len(cf.Reads)
		if cf.Reads == nil {
			want = len(cf.Runs)
		}
		if reads != want {
			t.Fatalf("%s: column %d falls into %d reads, schedule lists %d reads and %d runs", ctx, cf.Col, reads, len(cf.Reads), len(cf.Runs))
		}
		for row := range taken {
			if cf.Reads == nil && taken[row] > 1 {
				t.Fatalf("%s: cell (%d,%d) is read from its disk %d times", ctx, row, cf.Col, taken[row])
			}
			if cf.Reads != nil && (read[row] > 1 || (read[row] == 1) != (taken[row] > 0)) {
				t.Fatalf("%s: cell (%d,%d) is read into scratch %d times and folded %d times", ctx, row, cf.Col, read[row], taken[row])
			}
		}
	}
}

// diskCalls counts the disk calls a schedule makes and the blocks they move: a
// call a run where the runs are read straight onto the accumulators, a call a
// read where the column goes through scratch.
func diskCalls(folds []layout.ColumnFold) (calls, blocks int) {
	for _, cf := range folds {
		for _, rd := range cf.Reads {
			calls, blocks = calls+1, blocks+rd.N
		}
		for _, r := range cf.Runs {
			if cf.Reads == nil {
				calls, blocks = calls+1, blocks+r.N
			}
		}
	}
	return calls, blocks
}

// TestFoldSchedules: for every code and every column set with a plan, the
// plan's fold schedule run over the surviving columns and finished in memory
// leaves the lost columns in the buffer, reading each surviving cell the steps
// name exactly once (for one lost column, the plan's BlocksRead); each lost
// cell's SourceRuns fold to the cell; and the syndrome schedule folds a
// consistent stripe to zero and one flipped byte to something else. The
// buffers start as garbage: a first contributor overwrites, and only an
// accumulator no surviving cell feeds is ever zeroed.
func TestFoldSchedules(t *testing.T) {
	codes := []layout.Code{
		core.MustNew(3), core.MustNew(5), mustOriented(7, core.Right), core.MustNew(13), evenodd.MustNew(5),
		rdp.MustNew(5), rdp.MustNew(7), hcode.MustNew(5), hcode.MustNew(7), hdp.MustNew(7),
		xcode.MustNew(5), xcode.MustNew(7), pcode.MustNew(7, pcode.VariantPMinus1), pcode.MustNew(7, pcode.VariantP),
	}
	for _, code := range codes {
		g := code.Geometry()
		dec := layout.NewDecoder(code)
		orig := encoded(code, 24, 7)
		bs := orig.BlockSize
		r := rand.New(rand.NewSource(8))
		garbage := func(blocks int) []byte {
			b := make([]byte, blocks*bs)
			r.Read(b)
			return b
		}
		eachColumnSet(g, func(cols []int) {
			ctx := fmt.Sprintf("%s columns %v", code.Name(), cols)
			plan := dec.ColumnPlan(columnsOf(cols...))
			if plan == nil {
				if code.Name() != "evenodd" {
					t.Fatalf("%s: no plan", ctx)
				}
				return
			}
			s := orig.Clone()
			garble(s, r, cols...)
			acc := garbage(len(cols) * g.Rows)
			runFolds(t, ctx, s, plan.Folds(), acc)
			plan.Finish(acc)
			_, reads := diskCalls(plan.Folds())
			surviving := map[layout.Coord]bool{}
			for _, st := range plan.Steps() {
				for _, src := range st.Sources {
					if !columnsOf(cols...).Has(src.Col) {
						surviving[src] = true
					}
				}
			}
			if reads != len(surviving) || (len(cols) == 1 && reads != plan.Stats().BlocksRead) {
				t.Fatalf("%s: the schedule reads %d blocks, the steps name %d surviving ones (BlocksRead %d)", ctx, reads, len(surviving), plan.Stats().BlocksRead)
			}
			for k, col := range cols {
				if !bytes.Equal(acc[k*g.Rows*bs:(k+1)*g.Rows*bs], orig.Column(col)) {
					t.Fatalf("%s: the finished buffer does not hold column %d", ctx, col)
				}
				for row := 0; row < g.Rows; row++ {
					cell := layout.Coord{Row: row, Col: col}
					one := garbage(1)
					runFolds(t, fmt.Sprintf("%s cell %v", ctx, cell), s, plan.SourceRuns(cell), one)
					if !bytes.Equal(one, orig.Block(cell)) {
						t.Fatalf("%s: cell %v's own schedule does not fold to the cell", ctx, cell)
					}
				}
			}
			checkSources(t, ctx, plan, orig, cols)
		})

		syn := garbage(len(code.Chains()))
		runFolds(t, code.Name()+" syndromes", orig, dec.Syndromes(), syn)
		if !xorblk.IsZero(syn) {
			t.Fatalf("%s: a consistent stripe has a non-zero syndrome", code.Name())
		}
		bad := orig.Clone()
		bad.Block(layout.Coord{Row: g.Rows - 1, Col: 1})[3] ^= 0x40
		runFolds(t, code.Name()+" syndromes", bad, dec.Syndromes(), syn)
		if xorblk.IsZero(syn) {
			t.Fatalf("%s: a flipped byte leaves every syndrome zero", code.Name())
		}
	}
}

// TestDecoderNoPlan: what ColumnPlan refuses, and that Reconstruct still
// recovers EVENODD's double data-column failure, by elimination, counting
// each block it read once.
func TestDecoderNoPlan(t *testing.T) {
	code := evenodd.MustNew(5)
	g := code.Geometry()
	dec := layout.NewDecoder(code)
	if dec.ColumnPlan(columnsOf(0, 1)) != nil {
		t.Fatal("EVENODD columns {0,1}: peeling cannot solve this, yet there is a plan")
	}
	if dec.ColumnPlan(columnsOf(0, 1)) != nil {
		t.Fatal("EVENODD columns {0,1}: the cached verdict differs")
	}
	if dec.ColumnPlan(columnsOf(3)) == nil {
		t.Fatal("EVENODD column {3}: a single column always peels")
	}
	for _, cs := range []layout.Columns{{}, columnsOf(0, 1, 2), columnsOf(g.Cols), columnsOf(-1, 2)} {
		if dec.ColumnPlan(cs) != nil {
			t.Fatalf("%v: want no plan", cs)
		}
	}

	orig := encoded(code, 16, 9)
	s := orig.Clone()
	es := layout.EraseColumns(s, 0, 1)
	st, err := layout.Reconstruct(code, s, es)
	if err != nil || !s.Equal(orig) || len(es) != 0 {
		t.Fatalf("Reconstruct: err=%v, %d cells left", err, len(es))
	}
	if !st.UsedElimination || st.Recovered != 2*g.Rows {
		t.Fatalf("stats %+v: want elimination and %d cells", st, 2*g.Rows)
	}
	if surviving := (g.Cols - 2) * g.Rows; st.BlocksRead < 1 || st.BlocksRead > surviving {
		t.Fatalf("BlocksRead = %d, want a count of distinct blocks among the %d surviving", st.BlocksRead, surviving)
	}

	// A decode failure keeps its cause.
	s = orig.Clone()
	es = layout.EraseColumns(s, 0, 1, 2)
	if _, err := layout.Reconstruct(code, s, es); !errors.Is(err, layout.ErrUnrecoverable) {
		t.Fatalf("three columns: %v", err)
	}
}

// refPeelDecode is the map-based peeling decoder layout.PeelDecode was until
// the Decoder replaced it, kept as the reference the compiled schedule is
// fuzzed against. One line differs: a stuck decode reports the blocks it read
// too, as the new one does.
func refPeelDecode(code layout.Code, s *layout.Stripe, es layout.ErasureSet) (layout.DecodeStats, error) {
	var st layout.DecodeStats
	read := make(map[layout.Coord]bool)
	for len(es) > 0 {
		progress := false
		for _, ch := range code.Chains() {
			var missing layout.Coord
			count := 0
			for _, m := range ch.Members() {
				if es[m] {
					missing = m
					count++
				}
			}
			if count != 1 {
				continue
			}
			dst := s.Block(missing)
			clear(dst)
			n := 0
			for _, m := range ch.Members() {
				if m != missing {
					xorblk.Xor(dst, s.Block(m))
					read[m] = true
					n++
				}
			}
			if n > 0 {
				st.XORs += n - 1
			}
			st.Recovered++
			delete(es, missing)
			progress = true
		}
		if !progress {
			st.BlocksRead = len(read)
			return st, layout.ErrUnrecoverable
		}
	}
	st.BlocksRead = len(read)
	return st, nil
}

var fuzzCodes = []layout.Code{
	core.MustNew(5), core.MustNew(7), mustOriented(7, core.Right), core.MustNew(13),
	rdp.MustNew(5), evenodd.MustNew(5), xcode.MustNew(5), hcode.MustNew(7), hdp.MustNew(7),
	pcode.MustNew(7, pcode.VariantPMinus1),
}

func mustOriented(p int, o core.Orientation) *core.Code56 {
	c, err := core.NewOriented(p, o)
	if err != nil {
		panic(err)
	}
	return c
}

// FuzzDecoderMatchesPeel: on random cell-level erasure patterns, compiling
// and running a plan leaves the same bytes, the same stats, the same
// still-missing cells and the same verdict as the reference.
func FuzzDecoderMatchesPeel(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{0, 2})
	f.Add(uint8(3), int64(2), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37})
	f.Add(uint8(5), int64(3), []byte{0, 7, 14, 21, 1, 8, 15, 22})
	f.Add(uint8(6), int64(4), []byte{200, 13, 77})
	f.Fuzz(func(t *testing.T, which uint8, seed int64, pattern []byte) {
		code := fuzzCodes[int(which)%len(fuzzCodes)]
		g := code.Geometry()
		orig := encoded(code, 16, seed)
		var cells []layout.Coord
		for _, b := range pattern {
			cells = append(cells, g.CoordOf(int(b)%g.Elements()))
		}
		want, got := orig.Clone(), orig.Clone()
		wantES, gotES := layout.EraseCells(want, cells...), layout.EraseCells(got, cells...)
		wantStats, wantErr := refPeelDecode(code, want, wantES)
		gotStats, gotErr := layout.PeelDecode(code, got, gotES)
		if (wantErr == nil) != (gotErr == nil) || (gotErr != nil && !errors.Is(gotErr, layout.ErrUnrecoverable)) {
			t.Fatalf("%s %v: verdict %v, reference %v", code.Name(), cells, gotErr, wantErr)
		}
		if gotStats != wantStats {
			t.Fatalf("%s %v: stats %+v, reference %+v", code.Name(), cells, gotStats, wantStats)
		}
		if !reflect.DeepEqual(gotES, wantES) {
			t.Fatalf("%s %v: still missing %v, reference %v", code.Name(), cells, gotES, wantES)
		}
		if !got.Equal(want) {
			t.Fatalf("%s %v: bytes differ from the reference", code.Name(), cells)
		}
		if gotErr == nil && !got.Equal(orig) {
			t.Fatalf("%s %v: decoded to the wrong bytes", code.Name(), cells)
		}
	})
}

// TestDecoderExecuteAllocationFree pins plan lookup and execution at zero
// allocations on the benchmark's geometry, once the plan is compiled.
func TestDecoderExecuteAllocationFree(t *testing.T) {
	if layout.RaceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	code := core.MustNew(13)
	dec := layout.NewDecoder(code)
	s := encoded(code, 4096, 1)
	cell := layout.Coord{Row: 3, Col: 2}
	dec.ColumnPlan(columnsOf(0, 2))
	acc := make([]byte, 2*code.Geometry().Rows*4096)
	if n := testing.AllocsPerRun(50, func() {
		cols := layout.Columns{}.With(2).With(0)
		if cols.Len() != 2 || cols.At(0) != 0 || !cols.Has(2) {
			t.Fatal("Columns is not a sorted set")
		}
		plan := dec.ColumnPlan(cols)
		plan.Run(s)
		if len(plan.SourceRuns(cell)) == 0 {
			t.Fatal("no runs")
		}
		if len(plan.Folds()) != 11 {
			t.Fatal("the schedule does not visit every surviving column")
		}
		plan.Finish(acc)
	}); n != 0 {
		t.Errorf("plan lookup and execution allocate %.1f times per call, want 0", n)
	}
}

// BenchmarkDecoderRebuild2 is the decode layer's own number: two lost
// columns of one stripe recovered by the cached schedule, in bytes of stripe
// touched per second (the unit of layout.reconstruct2_gbps).
func BenchmarkDecoderRebuild2(b *testing.B) {
	for _, shape := range []struct{ p, blockSize int }{{5, 4096}, {13, 16384}} {
		b.Run(fmt.Sprintf("p%d_%dk", shape.p, shape.blockSize>>10), func(b *testing.B) {
			code := core.MustNew(shape.p)
			g := code.Geometry()
			// Cycle over more stripes than the L2 cache holds, as a rebuild does.
			pool := make([]*layout.Stripe, max(2, (32<<20)/(g.Elements()*shape.blockSize)))
			for i := range pool {
				pool[i] = encoded(code, shape.blockSize, int64(i))
			}
			plan := layout.NewDecoder(code).ColumnPlan(columnsOf(0, 2))
			b.SetBytes(int64(g.Elements() * shape.blockSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.Run(pool[i%len(pool)])
			}
		})
	}
}
