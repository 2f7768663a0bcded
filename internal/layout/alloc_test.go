package layout

import (
	"math/rand"
	"testing"
)

// The //c56:noalloc annotations in this package are statically verified
// by c56-lint; these AllocsPerRun assertions are the runtime half of the
// contract (and the lint suite's cross-check test requires every
// annotated exported function to appear here).

func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
}

// toyStripe returns a toy-geometry stripe with random data cells and zero
// parity.
func toyStripe(seed int64) *Stripe {
	s := NewStripe(toy{}.Geometry(), 64)
	s.FillRandom(toy{}, rand.New(rand.NewSource(seed)))
	return s
}

func TestEncoderAllocationFree(t *testing.T) {
	skipIfRace(t)
	enc := NewEncoder(toy{})
	s := toyStripe(42)
	if n := testing.AllocsPerRun(100, func() { enc.Encode(s) }); n != 0 {
		t.Errorf("Encode allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !enc.Verify(s) {
			t.Fatal("encoded stripe fails Verify")
		}
	}); n != 0 {
		t.Errorf("Verify allocates %.1f times per call, want 0", n)
	}
}

func TestGeometryAllocationFree(t *testing.T) {
	skipIfRace(t)
	g := toy{}.Geometry()
	c := Coord{Row: 1, Col: 2}
	if n := testing.AllocsPerRun(100, func() {
		if !g.Contains(c) {
			t.Fatal("coordinate must be inside the toy geometry")
		}
		if g.CoordOf(g.Index(c)) != c {
			t.Fatal("Index/CoordOf must round-trip")
		}
	}); n != 0 {
		t.Errorf("Contains/Index/CoordOf allocate %.1f times per call, want 0", n)
	}
}

func TestStripeAccessAllocationFree(t *testing.T) {
	skipIfRace(t)
	s := toyStripe(7)
	c := Coord{Row: 0, Col: 1}
	block := make([]byte, s.BlockSize)
	if n := testing.AllocsPerRun(100, func() {
		copy(block, s.Block(c))
		s.SetBlock(c, block)
		s.Zero(c)
		copy(block, s.Column(c.Col))
	}); n != 0 {
		t.Errorf("Block/SetBlock/Zero/Column allocate %.1f times per call, want 0", n)
	}
}

func TestStripePoolAllocationFree(t *testing.T) {
	skipIfRace(t)
	p := NewStripePool(toy{}.Geometry(), 64)
	p.Put(p.Get()) // warm: mint the stripe the steady-state cycle reuses
	if n := testing.AllocsPerRun(100, func() {
		p.Put(p.Get())
	}); n != 0 {
		t.Errorf("StripePool Get+Put allocates %.1f times per cycle, want 0", n)
	}
}
