package layout

import (
	"fmt"
	"sync"

	"code56/internal/bufpool"
	"code56/internal/xorblk"
)

// Encoder is the reusable, allocation-free form of Encode/Verify for one
// code: the chain dependency order is resolved once at construction (Encode
// re-derives it per call), and the per-call cover-pointer scratch is rented
// from an internal pool, so steady-state Encode and Verify allocate
// nothing. An Encoder is safe for concurrent use — the parallel stripe
// engine drives one Encoder from many workers.
type Encoder struct {
	code   Code
	chains []Chain
	// order lists chain indices such that every chain appears after the
	// chains whose parities it covers (RDP's diagonals cover the row-parity
	// column, so row chains come first there).
	order []int
	// scratch pools *coverScratch (cover-pointer slices) across calls.
	scratch sync.Pool
}

// coverScratch is one worker's cover-pointer slice, pooled by the Encoder.
type coverScratch struct{ covers [][]byte }

// NewEncoder resolves the code's chain dependency order. It panics on
// cyclic parity dependencies, exactly as Encode does — both indicate a
// malformed code, caught by the code's own construction tests.
func NewEncoder(code Code) *Encoder {
	chains := code.Chains()
	e := &Encoder{code: code, chains: chains, order: make([]int, 0, len(chains))}
	maxCovers := 0
	pending := make(map[Coord]bool, len(chains))
	for _, ch := range chains {
		pending[ch.Parity] = true
		if len(ch.Covers) > maxCovers {
			maxCovers = len(ch.Covers)
		}
	}
	done := make([]bool, len(chains))
	for remaining := len(chains); remaining > 0; {
		progress := false
		for i, ch := range chains {
			if done[i] {
				continue
			}
			ready := true
			for _, m := range ch.Covers {
				if pending[m] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			e.order = append(e.order, i)
			delete(pending, ch.Parity)
			done[i] = true
			remaining--
			progress = true
		}
		if !progress {
			panic(fmt.Sprintf("layout: %s has cyclic parity dependencies", code.Name()))
		}
	}
	e.scratch.New = func() any { return &coverScratch{covers: make([][]byte, 0, maxCovers)} }
	return e
}

// Code returns the code the encoder was built for.
func (e *Encoder) Code() Code { return e.code }

// Order returns the chain indices in dependency order: every chain after the
// chains whose parities it covers. Callers must not modify it.
func (e *Encoder) Order() []int { return e.order }

// Encode computes every parity element of the stripe from the data
// elements, like the package-level Encode, and returns the block XOR count.
// The stripe must have the encoder's code's geometry.
//
//c56:noalloc
func (e *Encoder) Encode(s *Stripe) int {
	cs := e.scratch.Get().(*coverScratch)
	xors := 0
	for _, i := range e.order {
		ch := &e.chains[i]
		covers := cs.covers[:0]
		for _, m := range ch.Covers {
			covers = append(covers, s.Block(m)) //lint:allow noalloc pooled scratch is pre-sized to the widest chain, append never grows it
		}
		xors += xorblk.XorMulti(s.Block(ch.Parity), covers...)
	}
	cs.covers = cs.covers[:0]
	e.scratch.Put(cs)
	return xors
}

// Verify reports whether every parity chain of the stripe XORs to zero,
// like the package-level Verify but without per-call allocation (the
// accumulator block is rented from bufpool).
//
//c56:noalloc
func (e *Encoder) Verify(s *Stripe) bool {
	acc := bufpool.Get(s.BlockSize)
	cs := e.scratch.Get().(*coverScratch)
	ok := true
	for i := range e.chains {
		ch := &e.chains[i]
		copy(acc, s.Block(ch.Parity))
		covers := cs.covers[:0]
		for _, m := range ch.Covers {
			covers = append(covers, s.Block(m)) //lint:allow noalloc pooled scratch is pre-sized to the widest chain, append never grows it
		}
		xorblk.AccumulateMulti(acc, covers...)
		if !xorblk.IsZero(acc) {
			ok = false
			break
		}
	}
	cs.covers = cs.covers[:0]
	e.scratch.Put(cs)
	bufpool.Put(acc)
	return ok
}
