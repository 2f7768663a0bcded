package layout

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// toy is a minimal 2-row × 3-column code with one horizontal parity per row
// in column 2, used to exercise the framework without pulling in a real
// code package (which would create an import cycle with the codes' tests).
type toy struct{}

func (toy) Name() string       { return "toy" }
func (toy) Geometry() Geometry { return Geometry{Rows: 2, Cols: 3, P: 3} }
func (toy) FaultTolerance() int {
	return 1
}
func (toy) Kind(row, col int) Kind {
	if col == 2 {
		return ParityH
	}
	return Data
}
func (toy) Chains() []Chain {
	return []Chain{
		{Kind: ParityH, Parity: Coord{0, 2}, Covers: []Coord{{0, 0}, {0, 1}}},
		{Kind: ParityH, Parity: Coord{1, 2}, Covers: []Coord{{1, 0}, {1, 1}}},
	}
}

func TestGeometry(t *testing.T) {
	g := Geometry{Rows: 4, Cols: 6, P: 5}
	if g.Elements() != 24 {
		t.Fatalf("Elements = %d", g.Elements())
	}
	for i := 0; i < g.Elements(); i++ {
		c := g.CoordOf(i)
		if !g.Contains(c) {
			t.Fatalf("CoordOf(%d) = %v not contained", i, c)
		}
		if g.Index(c) != i {
			t.Fatalf("Index(CoordOf(%d)) = %d", i, g.Index(c))
		}
	}
	for _, bad := range []Coord{{-1, 0}, {0, -1}, {4, 0}, {0, 6}} {
		if g.Contains(bad) {
			t.Errorf("Contains(%v) should be false", bad)
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Data: "data", ParityH: "parityH", ParityD: "parityD", ParityA: "parityA", Unused: "unused", Kind(99): "Kind(99)"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Data.IsParity() || Unused.IsParity() {
		t.Error("Data/Unused must not be parity kinds")
	}
	for _, k := range []Kind{ParityH, ParityD, ParityA} {
		if !k.IsParity() {
			t.Errorf("%v must be a parity kind", k)
		}
	}
}

func TestStripeBasics(t *testing.T) {
	s := NewStripe(Geometry{Rows: 2, Cols: 3, P: 3}, 8)
	b := s.Block(Coord{1, 2})
	if len(b) != 8 {
		t.Fatalf("block size %d", len(b))
	}
	s.SetBlock(Coord{0, 0}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if s.Block(Coord{0, 0})[0] != 1 {
		t.Fatal("SetBlock did not copy")
	}
	c := s.Clone()
	if !c.Equal(s) {
		t.Fatal("clone differs")
	}
	c.Block(Coord{0, 0})[0] = 9
	if c.Equal(s) {
		t.Fatal("clone aliases original")
	}
	s.Zero(Coord{0, 0})
	if s.Block(Coord{0, 0})[3] != 0 {
		t.Fatal("Zero did not clear")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range Block should panic")
			}
		}()
		s.Block(Coord{5, 5})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong-size SetBlock should panic")
			}
		}()
		s.SetBlock(Coord{0, 0}, []byte{1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewStripe with non-positive block size should panic")
			}
		}()
		NewStripe(Geometry{Rows: 1, Cols: 1}, 0)
	}()
}

// TestStripeColumn: Column is the column's blocks in row order, aliasing the
// same storage Block hands out, so a ranged disk call over it fills (or
// drains) exactly that column's cells.
func TestStripeColumn(t *testing.T) {
	g := Geometry{Rows: 3, Cols: 4, P: 5}
	const bs = 8
	s := NewStripe(g, bs)
	for i := 0; i < g.Elements(); i++ {
		c := g.CoordOf(i)
		for k := range s.Block(c) {
			s.Block(c)[k] = byte(16*c.Row + c.Col)
		}
	}
	for col := 0; col < g.Cols; col++ {
		column := s.Column(col)
		if len(column) != g.Rows*bs {
			t.Fatalf("column %d holds %d bytes, want %d", col, len(column), g.Rows*bs)
		}
		for r := 0; r < g.Rows; r++ {
			if &column[r*bs] != &s.Block(Coord{r, col})[0] {
				t.Fatalf("Column(%d) block %d does not alias Block(%d,%d)", col, r, r, col)
			}
			if column[r*bs] != byte(16*r+col) {
				t.Fatalf("Column(%d) block %d holds %#x", col, r, column[r*bs])
			}
		}
	}
	// Writing through the column is writing the cells, and only those.
	for k := range s.Column(2) {
		s.Column(2)[k] = 0xEE
	}
	if s.Block(Coord{1, 2})[bs-1] != 0xEE || s.Block(Coord{1, 1})[0] != 0x11 || s.Block(Coord{0, 3})[0] != 0x03 {
		t.Fatal("a column write missed its cells or touched a neighbour's")
	}
	s.ZeroColumn(2)
	if s.Block(Coord{2, 2})[0] != 0 || s.Block(Coord{2, 3})[0] != 0x23 {
		t.Fatal("ZeroColumn cleared the wrong cells")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Column should panic")
		}
	}()
	s.Column(g.Cols)
}

func TestEncodeVerifyToy(t *testing.T) {
	s := NewStripe(toy{}.Geometry(), 4)
	s.FillRandom(toy{}, rand.New(rand.NewSource(1)))
	xors := Encode(toy{}, s)
	if xors != 2 { // two chains, two covers each: 1 XOR per chain
		t.Errorf("encode XORs = %d, want 2", xors)
	}
	if !Verify(toy{}, s) {
		t.Fatal("verify failed")
	}
	s.Block(Coord{0, 1})[0] ^= 1
	if Verify(toy{}, s) {
		t.Fatal("corruption undetected")
	}
}

func TestPeelDecodeToy(t *testing.T) {
	orig := NewStripe(toy{}.Geometry(), 4)
	orig.FillRandom(toy{}, rand.New(rand.NewSource(2)))
	Encode(toy{}, orig)

	s := orig.Clone()
	es := EraseCells(s, Coord{0, 0}, Coord{1, 2})
	st, err := PeelDecode(toy{}, s, es)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(orig) {
		t.Fatal("wrong recovery")
	}
	if st.Recovered != 2 {
		t.Errorf("recovered %d, want 2", st.Recovered)
	}

	// Two erasures in the same chain defeat peeling on the toy code.
	s = orig.Clone()
	es = EraseCells(s, Coord{0, 0}, Coord{0, 1})
	if _, err := PeelDecode(toy{}, s, es); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("want ErrUnrecoverable, got %v", err)
	}
	// ...and elimination cannot fix it either (genuinely unrecoverable).
	if _, err := SolveDecode(toy{}, s, es); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("want ErrUnrecoverable from elimination, got %v", err)
	}
	// Reconstruct reports the same.
	if _, err := Reconstruct(toy{}, s, es); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("want ErrUnrecoverable from Reconstruct, got %v", err)
	}
}

func TestSolveDecodeEmpty(t *testing.T) {
	s := NewStripe(toy{}.Geometry(), 4)
	st, err := SolveDecode(toy{}, s, ErasureSet{})
	if err != nil || st.Recovered != 0 {
		t.Fatalf("empty erasure set: %v %+v", err, st)
	}
}

func TestEraseColumns(t *testing.T) {
	s := NewStripe(toy{}.Geometry(), 4)
	s.FillRandom(toy{}, rand.New(rand.NewSource(4)))
	es := EraseColumns(s, 1)
	if len(es) != 2 || !es[Coord{0, 1}] || !es[Coord{1, 1}] {
		t.Fatalf("erasure set %v", es)
	}
	for c := range es {
		b := s.Block(c)
		for _, v := range b {
			if v != 0 {
				t.Fatal("erased block not zeroed")
			}
		}
	}
}

func TestPrimes(t *testing.T) {
	primes := map[int]bool{}
	for _, p := range []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97} {
		primes[p] = true
	}
	for n := -5; n < 100; n++ {
		if IsPrime(n) != primes[n] {
			t.Errorf("IsPrime(%d) = %v", n, IsPrime(n))
		}
	}
	if NextPrime(4) != 5 || NextPrime(5) != 7 || NextPrime(13) != 17 {
		t.Error("NextPrime wrong")
	}
	if PrimeAtLeast(5) != 5 || PrimeAtLeast(6) != 7 {
		t.Error("PrimeAtLeast wrong")
	}
}

// TestNextPrimeProperty: NextPrime(n) > n, is prime, and no prime lies
// strictly between n and it.
func TestNextPrimeProperty(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw % 2000)
		p := NextPrime(n)
		if p <= n || !IsPrime(p) {
			return false
		}
		for k := n + 1; k < p; k++ {
			if IsPrime(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChainMembers(t *testing.T) {
	ch := Chain{Parity: Coord{0, 2}, Covers: []Coord{{0, 0}, {0, 1}}}
	m := ch.Members()
	if len(m) != 3 || m[0] != (Coord{0, 2}) {
		t.Fatalf("Members = %v", m)
	}
}

func TestValidateStructureRejectsBadCodes(t *testing.T) {
	bad := badCode{toy{}, []Chain{{Kind: ParityH, Parity: Coord{0, 5}, Covers: []Coord{{0, 0}}}}}
	if err := ValidateStructure(bad); err == nil {
		t.Error("out-of-stripe parity accepted")
	}
	bad.chains = []Chain{
		{Kind: ParityH, Parity: Coord{0, 2}, Covers: []Coord{{0, 0}, {0, 0}}},
		{Kind: ParityH, Parity: Coord{1, 2}, Covers: []Coord{{1, 0}, {1, 1}}},
	}
	if err := ValidateStructure(bad); err == nil {
		t.Error("duplicate cover accepted")
	}
	bad.chains = []Chain{
		{Kind: ParityH, Parity: Coord{0, 2}, Covers: []Coord{{0, 2}}},
		{Kind: ParityH, Parity: Coord{1, 2}, Covers: []Coord{{1, 0}, {1, 1}}},
	}
	if err := ValidateStructure(bad); err == nil {
		t.Error("self-covering parity accepted")
	}
	bad.chains = []Chain{
		{Kind: ParityH, Parity: Coord{0, 2}, Covers: []Coord{{0, 1}}},
		{Kind: ParityH, Parity: Coord{1, 2}, Covers: []Coord{{1, 0}, {1, 1}}},
	}
	if err := ValidateStructure(bad); err == nil {
		t.Error("uncovered data cell accepted")
	}
}

type badCode struct {
	toy
	chains []Chain
}

func (b badCode) Chains() []Chain { return b.chains }

func TestRenderLayout(t *testing.T) {
	var b strings.Builder
	if err := RenderLayout(&b, toy{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"toy", "disk0", "H"} {
		if !strings.Contains(out, want) {
			t.Errorf("layout rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRenderChain(t *testing.T) {
	var b strings.Builder
	if err := RenderChain(&b, toy{}, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), " P ") {
		t.Errorf("chain rendering missing parity mark:\n%s", b.String())
	}
	if err := RenderChain(&b, toy{}, 99); err == nil {
		t.Error("out-of-range chain accepted")
	}
	if err := RenderChain(&b, toy{}, -1); err == nil {
		t.Error("negative chain accepted")
	}
}

// TestCheckMDSAndToleranceToy exercises the checker machinery in-package:
// the toy code tolerates exactly one column failure.
func TestCheckMDSAndToleranceToy(t *testing.T) {
	if err := CheckMDS(toy{}, 1); err != nil {
		t.Fatal(err)
	}
	got, err := MeasureTolerance(toy{}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("toy tolerance %d, want 1", got)
	}
}

func TestIntrospectionHelpers(t *testing.T) {
	pe := ParityElements(toy{})
	if len(pe) != 2 || pe[0] != (Coord{0, 2}) || pe[1] != (Coord{1, 2}) {
		t.Fatalf("ParityElements = %v", pe)
	}
	if eff := StorageEfficiency(toy{}); eff != 4.0/6 {
		t.Fatalf("StorageEfficiency = %v", eff)
	}
	if got := ChainsCovering(toy{}, Coord{1, 1}); len(got) != 1 || got[0] != 1 {
		t.Fatalf("ChainsCovering = %v", got)
	}
	if got := ChainsCovering(toy{}, Coord{0, 2}); len(got) != 0 {
		t.Fatalf("parity should be uncovered, got %v", got)
	}
}
