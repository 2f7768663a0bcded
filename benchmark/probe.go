package main

import (
	"math/rand"
	"time"

	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/xorblk"
)

// The probes time the two bottom layers directly, at the two shapes the
// workloads use (p=5 with 4 KiB blocks, p=13 with 16 KiB blocks), so the
// layers above can be read as a tax over them. Each cycles over a pool of
// stripes larger than the L2 cache, as the array layers do, and runs for
// probeTime.

const (
	probeTime  = 120 * time.Millisecond
	probeBytes = 32 << 20 // stripe pool per probe
)

// probeResult is GB/s (10^9 B) of stripe bytes touched.
type probeResult struct {
	xormulti, encode, verify, reconstruct2 float64
	dataShare                              float64 // data cells ÷ all cells
}

// probeShape times XorMulti (p−2 sources, the width of a Code 5-6 chain),
// Encoder.Encode, Encoder.Verify and a two-column Reconstruct.
func probeShape(p, blockSize int, seed int64) probeResult {
	code := core.MustNew(p)
	g := code.Geometry()
	stripeBytes := g.Elements() * blockSize
	n := probeBytes / stripeBytes
	if n < 2 {
		n = 2
	}
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*layout.Stripe, n)
	enc := layout.NewEncoder(code)
	for i := range pool {
		pool[i] = layout.NewStripe(g, blockSize)
		pool[i].FillRandom(code, rng)
		enc.Encode(pool[i])
	}
	// run calls fn on the pool's stripes in turn for probeTime and returns
	// GB/s given the bytes one call touches.
	run := func(bytesPerCall int, fn func(s *layout.Stripe)) float64 {
		start := time.Now()
		calls := 0
		for time.Since(start) < probeTime {
			for _, s := range pool {
				fn(s)
			}
			calls += len(pool)
		}
		return float64(calls) * float64(bytesPerCall) / 1e9 / time.Since(start).Seconds()
	}

	var res probeResult
	res.dataShare = float64(len(layout.DataElements(code))) / float64(g.Elements())

	k := p - 2
	dst := make([]byte, blockSize)
	srcs := make([][]byte, k)
	res.xormulti = run((k+1)*blockSize, func(s *layout.Stripe) {
		for j := range srcs {
			srcs[j] = s.Block(layout.Coord{Row: 0, Col: j})
		}
		xorblk.XorMulti(dst, srcs...)
	})
	res.encode = run(stripeBytes, func(s *layout.Stripe) { enc.Encode(s) })
	ok := true
	res.verify = run(stripeBytes, func(s *layout.Stripe) { ok = enc.Verify(s) && ok })
	res.reconstruct2 = run(stripeBytes, func(s *layout.Stripe) {
		es := layout.EraseColumns(s, 0, 2)
		if _, err := layout.Reconstruct(code, s, es); err != nil {
			ok = false
		}
	})
	if !ok || !enc.Verify(pool[0]) {
		// A probe that computed garbage must not report a speed.
		return probeResult{dataShare: res.dataShare}
	}
	return res
}

// rebuildXORsPerBlock is the decoder's exact XOR count to rebuild the two
// given columns of one stripe, per rebuilt block — what RebuildContext
// spends per block, read off layout.Reconstruct's own tally.
func rebuildXORsPerBlock(code layout.Code, blockSize int, cols ...int) float64 {
	s := layout.NewStripe(code.Geometry(), blockSize)
	s.FillRandom(code, rand.New(rand.NewSource(1)))
	layout.Encode(code, s)
	st, err := layout.Reconstruct(code, s, layout.EraseColumns(s, cols...))
	if err != nil || st.Recovered == 0 {
		return 0
	}
	return float64(st.XORs) / float64(st.Recovered)
}
