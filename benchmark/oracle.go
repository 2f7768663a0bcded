package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"code56/internal/raid6"
)

// blockContent fills buf with the content every block is expected to hold:
// a function of the run's seed, the logical block and how many times the
// block has been written. The shadow copy is therefore one version number
// per block, not a second array.
func blockContent(buf []byte, seed, logical int64, version uint32) {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(logical)*0xBF58476D1CE4E5B9 ^ uint64(version)*0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	for i := 0; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

// shadow is the oracle's copy of the volume. Each block has exactly one
// writer at any time (client k owns blocks ≡ k mod 2; the bulk phases have
// a single caller), so "the last acknowledged write" is ver[block] and the
// slots need no lock: an owner bumps its slot only after the write returned.
type shadow struct {
	seed int64
	ver  []uint32
}

func newShadow(seed, blocks int64) *shadow {
	return &shadow{seed: seed, ver: make([]uint32, blocks)}
}

// next fills buf with the content the block's next write carries.
func (s *shadow) next(buf []byte, logical int64) {
	blockContent(buf, s.seed, logical, s.ver[logical]+1)
}

// acked records that the write prepared by next was acknowledged.
func (s *shadow) acked(logical int64) { s.ver[logical]++ }

// holds reports whether got is the block's last acknowledged content.
// want is scratch of the same length.
func (s *shadow) holds(logical int64, got, want []byte) bool {
	blockContent(want, s.seed, logical, s.ver[logical])
	return bytes.Equal(got, want)
}

// oracleReport is what one oracle pass found.
type oracleReport struct {
	stripesBad int64 // stripes failing VerifyStripe
	blocksBad  int64 // blocks not holding their last acknowledged write
	first      string
}

func (r oracleReport) ok() bool { return r.stripesBad == 0 && r.blocksBad == 0 }

func (r *oracleReport) note(format string, args ...any) {
	if r.first == "" {
		r.first = fmt.Sprintf(format, args...)
	}
}

// check is the oracle pass: every stripe must verify as Code 5-6 and every
// block must read back as the shadow's last acknowledged write.
func (s *shadow) check(a *raid6.Array, stripes int64) oracleReport {
	var rep oracleReport
	for st := int64(0); st < stripes; st++ {
		ok, err := a.VerifyStripe(st)
		if err != nil || !ok {
			rep.stripesBad++
			rep.note("stripe %d does not verify (err=%v)", st, err)
		}
	}
	got := make([]byte, a.BlockSize())
	want := make([]byte, a.BlockSize())
	for l := int64(0); l < int64(len(s.ver)); l++ {
		if err := a.ReadBlock(l, got); err != nil {
			rep.blocksBad++
			rep.note("block %d unreadable: %v", l, err)
			continue
		}
		if !s.holds(l, got, want) {
			rep.blocksBad++
			rep.note("block %d does not hold its last acknowledged write (version %d)", l, s.ver[l])
		}
	}
	return rep
}
