package bufpool

import (
	"testing"
)

func TestGetPutRoundTrip(t *testing.T) {
	for _, n := range []int{1, 511, 512, 513, 4096, 100000, 1 << 24} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len %d", n, len(b))
		}
		if c := cap(b); c&(c-1) != 0 || c < n {
			t.Fatalf("Get(%d): cap %d is not a power-of-two class", n, c)
		}
		Put(b)
	}
}

func TestGetZeroIsZero(t *testing.T) {
	b := Get(4096)
	for i := range b {
		b[i] = 0xAA
	}
	Put(b)
	z := GetZero(4096)
	defer Put(z)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZero: byte %d = %#x, want 0", i, v)
		}
	}
}

func TestReuseSameClass(t *testing.T) {
	b := Get(4096)
	p := &b[0]
	Put(b)
	// The very next same-class Get should be served from the pool. sync.Pool
	// gives no hard guarantee, but single-goroutine put-then-get on the same
	// P is its happy path; if this flakes, the pool is broken in practice.
	// Except under the race detector, which makes the pool drop Puts at
	// random: there TestInFlightBalances is the check that must hold.
	b2 := Get(2500) // rounds up to the same 4096-byte class
	defer Put(b2)
	if &b2[0] != p && !raceEnabled {
		t.Errorf("Get after Put did not reuse the pooled buffer")
	}
}

func TestOutOfRangeSizes(t *testing.T) {
	if b := Get(0); b != nil {
		t.Errorf("Get(0) = %v, want nil", b)
	}
	if b := Get(-5); b != nil {
		t.Errorf("Get(-5) = %v, want nil", b)
	}
	huge := Get(1<<24 + 1)
	if len(huge) != 1<<24+1 {
		t.Fatalf("oversize Get: len %d", len(huge))
	}
	Put(huge)                   // dropped, must not panic
	Put(nil)                    // ignored, must not panic
	Put(make([]byte, 100, 300)) // non-class cap: dropped, must not panic
}

func TestInFlightBalances(t *testing.T) {
	before := InFlight()
	bufs := make([][]byte, 0, 8)
	for i := 0; i < 8; i++ {
		bufs = append(bufs, Get(8192))
	}
	if got := InFlight(); got != before+8*8192 {
		t.Fatalf("in flight after 8 Gets: %d, want %d", got, before+8*8192)
	}
	for _, b := range bufs {
		Put(b)
	}
	if got := InFlight(); got != before {
		t.Fatalf("in flight after Puts: %d, want %d", got, before)
	}
}

func TestGetPutAllocationFree(t *testing.T) {
	// Warm the class and the entry pool.
	Put(Get(4096))
	if n := testing.AllocsPerRun(200, func() {
		b := Get(4096)
		Put(b)
	}); n != 0 {
		t.Errorf("Get+Put allocates %.1f times per cycle, want 0", n)
	}
}

// TestGetZeroInFlightAllocationFree covers the remaining exported
// //c56:noalloc paths: the zeroing rental and the in-flight gauge read.
func TestGetZeroInFlightAllocationFree(t *testing.T) {
	Put(Get(4096)) // warm the class and the entry pool
	if n := testing.AllocsPerRun(200, func() {
		b := GetZero(4096)
		if InFlight() <= 0 {
			t.Fatal("rented bytes must be in flight")
		}
		Put(b)
	}); n != 0 {
		t.Errorf("GetZero+InFlight+Put allocates %.1f times per cycle, want 0", n)
	}
}
