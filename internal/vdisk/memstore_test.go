package vdisk

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"code56/internal/layout"
	"code56/internal/telemetry"
	"code56/internal/xorblk"
)

// pageMapModel is the reference the slab store is held to: the map of
// heap-allocated pages MemStore was before the slabs, semantics unchanged. A
// page exists from the first write that touches it until a Trim covers it
// whole; everything else reads zero.
type pageMapModel struct {
	ps    int64
	pages map[int64][]byte
	size  int64
}

// each calls f once per page the range [off, off+n) touches, with the page,
// the offset in it, the byte count, and the bytes of the range done before.
func (m *pageMapModel) each(off, n int64, f func(page, po, c, done int64)) {
	for done := int64(0); done < n; {
		page, po := (off+done)/m.ps, (off+done)%m.ps
		c := min(n-done, m.ps-po)
		f(page, po, c, done)
		done += c
	}
}

func (m *pageMapModel) read(p []byte, off int64) {
	clear(p)
	m.each(off, int64(len(p)), func(page, po, c, done int64) {
		if d, ok := m.pages[page]; ok {
			copy(p[done:done+c], d[po:])
		}
	})
}

func (m *pageMapModel) write(p []byte, off int64) {
	m.each(off, int64(len(p)), func(page, po, c, done int64) {
		if m.pages[page] == nil {
			m.pages[page] = make([]byte, m.ps)
		}
		copy(m.pages[page][po:], p[done:done+c])
	})
	m.size = max(m.size, off+int64(len(p)))
}

// trim walks the pages, not the range, so a range far larger than the
// contents costs nothing.
func (m *pageMapModel) trim(off, n int64) {
	for page, d := range m.pages {
		lo, hi := max(off, page*m.ps), min(off+n, (page+1)*m.ps)
		if hi-lo == m.ps {
			delete(m.pages, page)
		} else if hi > lo {
			clear(d[lo-page*m.ps : hi-page*m.ps])
		}
	}
}

func (m *pageMapModel) extents() []int64 {
	out := make([]int64, 0, len(m.pages))
	for b := range m.pages {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

// modelRun drives one MemStore and its model through the same operations and
// compares every observable after each.
type modelRun struct {
	t    testing.TB
	s    *MemStore
	m    *pageMapModel
	fill byte
}

// newModelRun starts an empty store and its model. Slabs released from here
// on are poisoned, so the store is held to the model on slabs that are
// anything but zero.
func newModelRun(t testing.TB, pageSize int) *modelRun {
	poisonSlabs(t)
	return &modelRun{t: t, s: NewMemStore(pageSize), m: &pageMapModel{ps: int64(pageSize), pages: map[int64][]byte{}}}
}

// poisonSlabs makes every slab released until the test ends reach the free
// pool filled with 0xA5: the next store to take it must answer zeros for the
// pages it has not written, and only the occupancy word says which those are.
func poisonSlabs(t testing.TB) {
	prev := poisonReleased
	poisonReleased = true
	t.Cleanup(func() { poisonReleased = prev })
}

func (r *modelRun) write(off int64, n int) {
	r.fill++
	p := bytes.Repeat([]byte{r.fill | 1}, n) // never zero: a write is distinguishable from a hole
	if got, err := r.s.WriteAt(p, off); err != nil || got != n {
		r.t.Fatalf("WriteAt(%d bytes, %d) = %d, %v", n, off, got, err)
	}
	r.m.write(p, off)
	r.check(off, n)
}

// fold holds the in-place XorAt to what a store without it gets from
// Disk.Xor: read, XOR, write.
func (r *modelRun) fold(off int64, n int) {
	r.fill++
	p := bytes.Repeat([]byte{r.fill | 1}, n)
	if got, err := r.s.XorAt(p, off); err != nil || got != n {
		r.t.Fatalf("XorAt(%d bytes, %d) = %d, %v", n, off, got, err)
	}
	cur := make([]byte, n)
	r.m.read(cur, off)
	xorblk.Xor(cur, p)
	r.m.write(cur, off)
	r.check(off, n)
}

func (r *modelRun) trim(off, n int64) {
	if err := r.s.Trim(off, n); err != nil {
		r.t.Fatalf("Trim(%d, %d): %v", off, n, err)
	}
	r.m.trim(off, n)
	r.check(off, int(min(n, 2*slabPages*r.m.ps)))
}

func (r *modelRun) reset() {
	if err := r.s.Reset(); err != nil {
		r.t.Fatal(err)
	}
	r.m.pages, r.m.size = map[int64][]byte{}, 0
	r.check(0, 0)
}

// reopen closes the store, which hands its slabs to the pool as Reset does,
// and carries on with a new one.
func (r *modelRun) reopen() {
	if err := r.s.Close(); err != nil {
		r.t.Fatal(err)
	}
	r.s = NewMemStore(int(r.m.ps))
	r.m.pages, r.m.size = map[int64][]byte{}, 0
	r.check(0, 0)
}

// check compares Size, PagesInUse, Extents, and the bytes of [off, off+n)
// widened by a page on either side (so a neighbour the operation should not
// have touched is read too).
func (r *modelRun) check(off int64, n int) {
	r.t.Helper()
	if size, err := r.s.Size(); err != nil || size != r.m.size {
		r.t.Fatalf("Size = %d, %v; model %d", size, err, r.m.size)
	}
	if got := r.s.PagesInUse(); got != len(r.m.pages) {
		r.t.Fatalf("PagesInUse = %d, model %d", got, len(r.m.pages))
	}
	if got, want := r.s.Extents(int(r.m.ps)), r.m.extents(); !slices.Equal(got, want) {
		r.t.Fatalf("Extents = %v, model %v", got, want)
	}
	lo := max(0, off-r.m.ps)
	r.compare(lo, int(off-lo)+n+int(r.m.ps))
}

func (r *modelRun) compare(off int64, n int) {
	r.t.Helper()
	got, want := bytes.Repeat([]byte{0xAA}, n), make([]byte, n)
	if k, err := r.s.ReadAt(got, off); err != nil || k != n {
		r.t.Fatalf("ReadAt(%d bytes, %d) = %d, %v", n, off, k, err)
	}
	r.m.read(want, off)
	r.equal("ReadAt", off, got, want)
}

// readFold holds ReadFoldAt to what a store without it gets from
// Disk.ReadFold: the range read as one block of n bytes, then stored on a
// first contributor's accumulator and XORed into another's.
func (r *modelRun) readFold(off int64, n int) {
	r.t.Helper()
	r.fill++
	got := bytes.Repeat([]byte{r.fill}, 2*n)
	if err := r.s.ReadFoldAt(got, off, n, []layout.FoldRun{{N: 1, First: true}, {N: 1, Acc: 1}}); err != nil {
		r.t.Fatalf("ReadFoldAt(%d bytes, %d): %v", n, off, err)
	}
	want := make([]byte, 2*n)
	r.m.read(want[:n], off)
	copy(want[n:], bytes.Repeat([]byte{r.fill}, n))
	xorblk.Xor(want[n:], want[:n])
	r.equal("ReadFoldAt", off, got, want)
}

func (r *modelRun) equal(op string, off int64, got, want []byte) {
	r.t.Helper()
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		r.t.Fatalf("%s(%d bytes, %d): byte %d = %#x, model %#x", op, len(got), off, off+int64(i), got[i], want[i])
	}
}

// modelPair is two stores of one page size, which is one free pool: the slabs
// either releases (Reset, Close, a Trim that empties one) are what the other's
// next slab is made of, bytes and all.
type modelPair [2]*modelRun

func newModelPair(t testing.TB, pageSize int) modelPair {
	return modelPair{newModelRun(t, pageSize), newModelRun(t, pageSize)}
}

// apply decodes one operation from five bytes. Offsets land in the first
// three slabs (unaligned, so runs straddle page and slab boundaries) or, one
// time in eight, around slab 1000, which leaves a long nil stretch in the
// directory; lengths reach five pages. Bit 6 of the first byte turns a write
// into a fold and a read into a read-fold, bit 7 picks the store; the other
// store is then read over the same range, which no operation on this one may
// have changed.
func (p modelPair) apply(op [5]byte) {
	r, other := p[op[0]>>7], p[1-op[0]>>7]
	ps := r.m.ps
	off := (int64(op[1])<<16 | int64(op[2])<<8 | int64(op[3])) % (3 * slabPages * ps)
	if op[0]&0x38 == 0 {
		off += 1000 * slabPages * ps
	}
	n := int64(op[4]) * 5 * ps / 255
	put := r.write
	if op[0]&0x40 != 0 {
		put = r.fold
	}
	switch op[0] % 8 {
	case 0, 1, 2:
		put(off, int(n))
	case 3:
		put(off/ps*ps, int((n/ps+1)*ps)) // whole pages
	case 4:
		if op[0]&0x40 != 0 {
			r.readFold(off, int(n))
		} else {
			r.compare(off, int(n))
		}
	case 5:
		r.trim(off, n)
	case 6:
		r.trim(off/ps*ps, (n/ps+1)*ps) // whole pages
	case 7:
		switch { // rarely: most streams should build up state
		case op[4] < 8:
			r.reset()
		case op[4] >= 248:
			r.reopen()
		default:
			r.trim(off, 70*ps) // more than a slab
		}
	}
	other.check(off, int(n))
}

// finish compares every byte the models hold and the slabs around them, then
// moves both stores' pages into new stores: read out, the old stores closed —
// so that the new ones are made of their poisoned slabs — written back, and
// compared again.
func (p modelPair) finish() {
	for _, r := range p {
		r.finish()
	}
	t, ps := p[0].t, p[0].m.ps
	pages := make([]map[int64][]byte, len(p))
	for i, r := range p {
		pages[i] = map[int64][]byte{}
		for _, page := range r.s.Extents(int(ps)) {
			b := make([]byte, ps)
			if _, err := r.s.ReadAt(b, page*ps); err != nil {
				t.Fatal(err)
			}
			pages[i][page] = b
		}
	}
	for _, r := range p {
		if err := r.s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range p {
		r.s = NewMemStore(int(ps))
		// The copy holds pages, not the high-water mark of writes that were
		// trimmed or empty.
		r.m.size = 0
		for _, page := range r.m.extents() {
			if _, err := r.s.WriteAt(pages[i][page], page*ps); err != nil {
				t.Fatal(err)
			}
			r.m.size = (page + 1) * ps
		}
		r.check(0, 0)
		r.finish()
	}
}

// finish compares every byte the model holds and the slab around it.
func (r *modelRun) finish() {
	for _, page := range r.m.extents() {
		r.compare(page/slabPages*slabPages*r.m.ps, slabPages*int(r.m.ps))
	}
}

func TestMemStoreMatchesPageMapModel(t *testing.T) {
	for _, ps := range []int{512, 4096, 16384} {
		t.Run(fmt.Sprint(ps), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ps)))
			p := newModelPair(t, ps)
			for i := 0; i < 3000; i++ {
				var op [5]byte
				rng.Read(op[:])
				p.apply(op)
			}
			p.finish()
		})
	}
}

func FuzzMemStore(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 0, 255, 5, 0, 1, 0, 60, 4, 0, 0, 0, 255})
	f.Add(uint8(1), []byte{3, 0, 255, 240, 200, 6, 0, 255, 240, 10, 7, 0, 0, 0, 0})
	f.Add(uint8(2), []byte{8, 1, 2, 3, 4, 15, 1, 2, 3, 200, 7, 0, 0, 0, 9})
	// A fold into slabs nothing was written to, at slab 1000 and across the
	// boundary of slabs 0 and 1; then a fold over what the first left.
	f.Add(uint8(1), []byte{0x40, 0, 0, 9, 120, 0x4B, 3, 255, 240, 255, 0x42, 0, 0, 0, 255})
	// Store 0 writes either side of a slab boundary and resets; store 1, on
	// those two slabs, writes part of a page, folds into part of another and
	// reads across both, the unused pages between and the boundary; store 0 is
	// closed and reopened under it.
	f.Add(uint8(0), []byte{0x0B, 0, 0, 0, 255, 0x0B, 0, 0x7E, 0, 255, 0x0F, 0, 0, 0, 0,
		0x88, 0, 0x7F, 0x10, 20, 0xC8, 0, 0x81, 0x10, 20, 0x8C, 0, 0x7C, 0, 255, 0x0F, 0, 0, 0, 250, 0x8C, 0, 0x7C, 0, 255})
	// Read-folds over every kind of page a recycled slab holds: store 0 writes
	// into slab 0 and resets; store 1, on that slab, writes two pages and
	// read-folds across the first and the unused pages either side, trims it
	// and read-folds across it again, then across the second page, the slab
	// boundary and a slab it never had.
	f.Add(uint8(0), []byte{0x0B, 0, 0, 0, 255, 0x0F, 0, 0, 0, 0, 0x8B, 0, 0x10, 0, 0, 0x8B, 0, 0x7C, 0, 0,
		0xCC, 0, 0x0D, 0xF0, 255, 0x8E, 0, 0x10, 0, 0, 0xCC, 0, 0x0F, 0x01, 255, 0xCC, 0, 0x7B, 0x80, 255})
	f.Fuzz(func(t *testing.T, sizeSel uint8, ops []byte) {
		p := newModelPair(t, []int{512, 4096, 16384}[sizeSel%3])
		for ops = ops[:min(len(ops), 5*400)]; len(ops) >= 5; ops = ops[5:] {
			p.apply([5]byte(ops))
		}
		p.finish()
	})
}

// TestMemStoreEdges names the cases the random streams reach only by luck.
func TestMemStoreEdges(t *testing.T) {
	const ps = 512
	r := newModelRun(t, ps)
	sb := int64(slabPages * ps)
	r.write(sb-ps-3, 2*ps+6)  // last page of slab 0, first two of slab 1, unaligned
	r.trim(sb-ps, 2*ps)       // whole pages on both sides of the boundary
	r.trim(sb-ps-3, 3)        // partial: the page stays allocated
	r.write(0, int(2*sb))     // two full slabs in one call
	r.trim(1, 2*sb-2)         // everything but the first and last byte's pages
	r.trim(0, 1<<40)          // far past the directory
	r.write(5*sb+7, 0)        // empty write: size moves, nothing is allocated
	r.fold(3*sb-3, ps+6)      // fold into two slabs nothing was written to
	r.fold(3*sb-3, ps+6)      // and over its own result
	r.fold(1, int(sb))        // over written and trimmed pages alike
	r.fold(6*sb, 0)           // empty fold: size moves, nothing is allocated
	r.compare(1<<40, int(ps)) // read far past the directory
	r.finish()

	// The same store again on its own poisoned slabs: nothing below may show
	// a byte of what was there.
	r.reset()
	r.write(sb-ps+5, 7)       // part of one page of a recycled slab
	r.fold(sb+ps+5, 7)        // fold into part of an unused page of another
	r.compare(sb-3*ps, 6*ps)  // unused, used, slab boundary, unused, used, unused
	r.readFold(sb-3*ps, 6*ps) // and the same folded out: the unused pages fold nothing
	r.write(sb-2*ps-1, 2)     // last byte of one fresh page, first of the next
	r.fold(2*ps-1, 2*ps+2)    // fresh head, two whole fresh pages, fresh tail
	r.trim(sb-ps, ps)         // a used page loses its bit and keeps its bytes
	r.write(sb-ps+9, 1)       // and comes back into use around one byte
	r.trim(sb-2*ps-1, 2*ps+2) // whole page between two partial edges
	r.trim(sb+ps, ps)         // the last page in use of slab 1: the slab goes
	r.fold(sb+ps, 1)          // and its successor is whatever the pool held
	r.reopen()
	r.write(sb+1, ps)
	r.finish()

	if _, err := r.s.WriteAt(make([]byte, ps), -1); err == nil {
		t.Error("write at a negative offset succeeded")
	}
	if _, err := r.s.ReadAt(make([]byte, ps), -1); err == nil {
		t.Error("read at a negative offset succeeded")
	}
	// Past the directory's bound the write is refused whole, not grown into.
	before := r.s.PagesInUse()
	if _, err := r.s.WriteAt(make([]byte, 2*ps), maxSlabs*sb-ps); err == nil {
		t.Error("write past the address space succeeded")
	}
	if _, err := r.s.WriteAt(make([]byte, ps), maxSlabs*sb); err == nil {
		t.Error("write past the address space succeeded")
	}
	if r.s.PagesInUse() != before {
		t.Error("a refused write allocated pages")
	}

	// A block size other than the page size lists the dense range from Size.
	s := NewMemStore(ps)
	if _, err := s.WriteAt([]byte{1}, 5*ps); err != nil {
		t.Fatal(err)
	}
	if got := s.Extents(2 * ps); !slices.Equal(got, []int64{0, 1, 2}) {
		t.Errorf("Extents at twice the page size = %v, want [0 1 2]", got)
	}
}

// ReadAt, WriteAt and XorAt carry //c56:noalloc; the one suppressed site
// WriteAt and XorAt share is the first write into a slab, so the runtime half
// pins a write and a fold into an allocated one.
func TestMemStoreIOAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const ps = 4096
	s := NewMemStore(ps)
	run := make([]byte, 4*ps)
	off := int64(slabPages-2) * ps // straddles slabs 0 and 1
	if _, err := s.WriteAt(run, off); err != nil {
		t.Fatal(err)
	}
	acc, lanes := make([]byte, 4*ps), []layout.FoldRun{{N: 4, First: true}, {Row: 1, N: 3}}
	for name, fn := range map[string]func(){
		"MemStore.ReadAt": func() {
			if _, err := s.ReadAt(run, off); err != nil {
				t.Fatal(err)
			}
		},
		"MemStore.ReadAt/hole": func() {
			if _, err := s.ReadAt(run, 1<<40); err != nil {
				t.Fatal(err)
			}
		},
		"MemStore.WriteAt": func() {
			if _, err := s.WriteAt(run, off); err != nil {
				t.Fatal(err)
			}
		},
		"MemStore.XorAt": func() {
			if _, err := s.XorAt(run, off); err != nil {
				t.Fatal(err)
			}
		},
		"MemStore.ReadFoldAt": func() {
			if err := s.ReadFoldAt(acc, off, ps, lanes); err != nil {
				t.Fatal(err)
			}
		},
	} {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, n)
		}
	}
}

// TestMemStoreRecyclesSlabs: the slabs Reset, Close and an emptying Trim
// release are the ones the next store is built from, and it shows none of
// their bytes.
func TestMemStoreRecyclesSlabs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of what it is given")
	}
	const ps, rounds = 1024, 8 // a page size of this test's own, so the pool holds nobody else's slabs
	poisonSlabs(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection between release and refill empties the pool
	blk := bytes.Repeat([]byte{0x3C}, ps)
	// released holds every slab this test has had a store release: a refill
	// made of these alone mapped nothing. (With the collector off, no finalizer
	// unmaps one of them, so no fresh slab can have the address of one.)
	released := map[*byte]bool{}
	fill := func(s *MemStore) (recycled bool) {
		for _, pg := range []int64{1, slabPages + 2, 2*slabPages + 3} {
			if _, err := s.WriteAt(blk, pg*ps); err != nil {
				t.Fatal(err)
			}
		}
		recycled = true
		for _, sl := range s.slabs {
			recycled = recycled && released[&sl.data[0]]
			released[&sl.data[0]] = true // every store below ends up releasing them
		}
		return recycled
	}
	for _, step := range []struct {
		name    string
		release func(*MemStore) error
	}{
		{"Reset", (*MemStore).Reset},
		{"Trim", func(s *MemStore) error { return s.Trim(0, 3*slabPages*ps) }},
		{"Close", (*MemStore).Close},
	} {
		// sync.Pool keeps one item per P where no other P finds it, so a refill
		// that lands on another P than the release misses one slab: what a store
		// reads back is held to the contract in every round, taking only released
		// slabs in one round of a few (a miss is one scheduling event in hundreds).
		recycled := false
		for round := 0; round < rounds && !recycled; round++ {
			a := NewMemStore(ps)
			fill(a)
			if err := step.release(a); err != nil {
				t.Fatal(err)
			}
			b := NewMemStore(ps)
			recycled = fill(b)
			got := make([]byte, 3*slabPages*ps)
			if _, err := b.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			for i, c := range got {
				if pg := int64(i / ps); c != 0 && pg != 1 && pg != slabPages+2 && pg != 2*slabPages+3 {
					t.Fatalf("after %s: byte %d of an unwritten page reads %#x", step.name, i, c)
				}
			}
			for _, s := range []*MemStore{a, b} {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !recycled {
			t.Errorf("after %s: in %d rounds no next store was made only of slabs released before it", step.name, rounds)
		}
	}
}

// TestMemStoreRecyclingAcrossGoroutines is for the race detector: stores on
// their own goroutines fill, check and release slabs through the one pool, so
// every slab changes hands between goroutines, poisoned on the way. A store
// must read its own pattern where it wrote and zeros everywhere else.
func TestMemStoreRecyclingAcrossGoroutines(t *testing.T) {
	const ps, workers, rounds = 512, 6, 60
	poisonSlabs(t)
	sb := int64(slabPages * ps)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := bytes.Repeat([]byte{byte(w + 1)}, 3*ps)
			// A run across the boundary of slabs 0 and 1, a few bytes in the
			// middle of slab 1, a fold into an unused page of slab 2.
			puts := []struct {
				put func(*MemStore, []byte, int64) (int, error)
				off int64
				n   int
			}{
				{(*MemStore).WriteAt, sb - ps - 7, 3 * ps},
				{(*MemStore).WriteAt, sb + sb/2 + 3, 9},
				{(*MemStore).XorAt, 2*sb + 5*ps + 1, ps / 2},
			}
			s := NewMemStore(ps)
			got, want := make([]byte, 3*sb), make([]byte, 3*sb)
			for round := 0; round < rounds; round++ {
				clear(want)
				for _, p := range puts {
					if _, err := p.put(s, mine[:p.n], p.off); err != nil {
						t.Error(err)
						return
					}
					copy(want[p.off:], mine[:p.n])
				}
				if _, err := s.ReadAt(got, 0); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want) {
					i := 0
					for got[i] == want[i] {
						i++
					}
					t.Errorf("store %d, round %d: byte %d reads %#x, want %#x", w, round, i, got[i], want[i])
					return
				}
				var err error
				switch round % 3 {
				case 0:
					err = s.Reset()
				case 1:
					err = s.Trim(0, 3*sb)
				case 2:
					err = s.Close()
					s = NewMemStore(ps)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// heapGrowth returns how much the live heap grew across build, and what build
// returned (kept alive until the second reading).
func heapGrowth[T any](build func() T) (int64, T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), v
}

// TestMemStoreStaysSparse: one block far out maps one slab and costs the heap
// the directory up to it, not the address space before it. The slabs are off
// the heap, so only vdisk.mem_mapped_bytes sees what the store mapped; slabs
// other tests drop can only lower it meanwhile.
func TestMemStoreStaysSparse(t *testing.T) {
	const ps, far, limit = 4096, int64(1) << 24, 4 << 20
	blk := bytes.Repeat([]byte{0x5A}, ps)
	before := mappedBytes.Value()
	grew, a := heapGrowth(func() *Array {
		a := NewArray(1, ps)
		if err := a.Disk(0).Write(far, blk); err != nil {
			t.Fatal(err)
		}
		return a
	})
	if got := a.Disk(0).BlocksInUse(); got != 1 {
		t.Errorf("BlocksInUse = %d, want 1", got)
	}
	if mapped := mappedBytes.Value() - before; mapped > slabPages*ps {
		t.Errorf("one block at block %d mapped %d bytes, want at most one %d-byte slab", far, mapped, slabPages*ps)
	}
	if grew >= limit {
		t.Errorf("one block at block %d grew the heap by %d bytes, want < %d", far, grew, limit)
	}

	got := make([]byte, ps)
	if err := a.Disk(0).Read(far, got); err != nil || !bytes.Equal(got, blk) {
		t.Errorf("block read back differs (err %v)", err)
	}
}

// TestMemStoreFillLeavesHeapFlat: a store's contents are not Go heap, so
// filling one leaves the collector's heap goal where it was. The heap pays
// for the directory and the slab headers only.
func TestMemStoreFillLeavesHeapFlat(t *testing.T) {
	const ps, fill, limit = 4096, 64 << 20, 1 << 20
	blk := bytes.Repeat([]byte{0x6B}, 16*ps)
	grew, s := heapGrowth(func() *MemStore {
		s := NewMemStore(ps)
		for off := int64(0); off < fill; off += int64(len(blk)) {
			if _, err := s.WriteAt(blk, off); err != nil {
				t.Fatal(err)
			}
		}
		return s
	})
	defer s.Close()
	if grew >= limit {
		t.Errorf("writing %d bytes grew the heap by %d bytes, want < %d", fill, grew, limit)
	}
	got := make([]byte, len(blk))
	if _, err := s.ReadAt(got, fill-int64(len(blk))); err != nil || !bytes.Equal(got, blk) {
		t.Errorf("last run read back differs (err %v)", err)
	}
}

// settledMapped collects until no unreachable slab is left to unmap, and
// returns vdisk.mem_mapped_bytes then.
func settledMapped() int64 {
	v := mappedBytes.Value()
	for stable := 0; stable < 3; {
		runtime.GC() // the pool moves its slabs to its victim cache, then drops them
		time.Sleep(time.Millisecond)
		if w := mappedBytes.Value(); w == v {
			stable++
		} else {
			v, stable = w, 0
		}
	}
	return v
}

// TestMemStoreRecyclingUnmaps: slabs a closed store leaves in the free pool go
// back to the OS once collections drop them from the pool.
func TestMemStoreRecyclingUnmaps(t *testing.T) {
	const ps, slabs = 1536, 8 // a page size of this test's own: the pool holds nobody else's slabs
	sb := int64(slabPages * ps)
	base := settledMapped()
	s := NewMemStore(ps)
	blk := bytes.Repeat([]byte{0x1E}, ps)
	for i := int64(0); i < slabs; i++ {
		if _, err := s.WriteAt(blk, i*sb+ps); err != nil {
			t.Fatal(err)
		}
	}
	if got := mappedBytes.Value() - base; got != slabs*sb {
		t.Errorf("%d slabs in use: %d bytes mapped, want %d", slabs, got, slabs*sb)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); mappedBytes.Value() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("after Close and collections, %d bytes still mapped over the baseline", mappedBytes.Value()-base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestMemStoreReadersWhileDirectoryGrows is for the race detector: readers
// stay on slab 0 while a writer appends slabs, reallocating the directory
// under them, and trims them away again.
func TestMemStoreReadersWhileDirectoryGrows(t *testing.T) {
	const ps = 512
	s := NewMemStore(ps)
	want := bytes.Repeat([]byte{7}, 3*ps)
	if _, err := s.WriteAt(want, ps); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]byte, len(want))
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := s.ReadAt(got, ps); err != nil || !bytes.Equal(got, want) {
					t.Errorf("read of slab 0 during growth: err %v, equal %v", err, bytes.Equal(got, want))
					return
				}
				s.PagesInUse()
				s.Extents(ps)
			}
		}()
	}
	blk := make([]byte, ps)
	for si := int64(1); si <= 2000; si++ {
		if _, err := s.WriteAt(blk, si*slabPages*ps); err != nil {
			t.Fatal(err)
		}
		if si%3 == 0 {
			if err := s.Trim(si*slabPages*ps, ps); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	if got, want := s.PagesInUse(), 3+2000-2000/3; got != want {
		t.Errorf("PagesInUse = %d, want %d", got, want)
	}
}

// benchStore is a MemStore the size of one benchmark disk (50 MB of 4 KiB
// pages), fully written.
func benchStore(b *testing.B) (s *MemStore, pages int) {
	const ps = 4096
	pages = 12800
	s = NewMemStore(ps)
	blk := bytes.Repeat([]byte{1}, ps)
	for p := 0; p < pages; p++ {
		if _, err := s.WriteAt(blk, int64(p)*ps); err != nil {
			b.Fatal(err)
		}
	}
	return s, pages
}

// benchMemStoreIO times io over runs of 1 and 4 blocks, walking the store in
// address order and in a seeded random order of run-aligned addresses.
func benchMemStoreIO(b *testing.B, io func(s *MemStore, p []byte, off int64) (int, error)) {
	const ps = 4096
	s, pages := benchStore(b)
	for _, run := range []int{1, 4} {
		starts := make([]int64, pages/run)
		for i := range starts {
			starts[i] = int64(i*run) * ps
		}
		for _, order := range []string{"seq", "rand"} {
			if order == "rand" {
				rand.New(rand.NewSource(1)).Shuffle(len(starts), func(i, j int) { starts[i], starts[j] = starts[j], starts[i] })
			}
			b.Run(fmt.Sprintf("%dblk/%s", run, order), func(b *testing.B) {
				p := make([]byte, run*ps)
				b.SetBytes(int64(len(p)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := io(s, p, starts[i%len(starts)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkMemStoreReadAt(b *testing.B)  { benchMemStoreIO(b, (*MemStore).ReadAt) }
func BenchmarkMemStoreWriteAt(b *testing.B) { benchMemStoreIO(b, (*MemStore).WriteAt) }

// BenchmarkDiskOverStore prices the disk layer as a tax over its store: 4 KiB
// reads of the same seeded random addresses through Disk.Read (lock, fault and
// latent checks, accounting, two clock reads) and straight from
// MemStore.ReadAt, over one benchmark disk's worth of blocks.
func BenchmarkDiskOverStore(b *testing.B) {
	const bs = 4096
	store, pages := benchStore(b)
	d := NewDiskStore(0, bs, store)
	d.SetTelemetry(telemetry.NewRegistry(), nil)
	addrs := rand.New(rand.NewSource(1)).Perm(pages)
	buf := make([]byte, bs)
	b.Run("disk", func(b *testing.B) {
		b.SetBytes(bs)
		for i := 0; i < b.N; i++ {
			if err := d.Read(int64(addrs[i%pages]), buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("store", func(b *testing.B) {
		b.SetBytes(bs)
		for i := 0; i < b.N; i++ {
			if _, err := store.ReadAt(buf, int64(addrs[i%pages])*bs); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The same blocks folded into buf from where they lie, and through the
	// scratch copy a store without ReadFoldAt costs: ReadFold's one-lane call.
	portable := NewDiskStore(0, bs, noFold{store})
	portable.SetTelemetry(telemetry.NewRegistry(), nil)
	lane := []layout.FoldRun{{N: 1}}
	for _, c := range []struct {
		name string
		d    *Disk
	}{{"disk_readfold", d}, {"disk_readfold_portable", portable}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(bs)
			for i := 0; i < b.N; i++ {
				if err := c.d.ReadFold(int64(addrs[i%pages]), buf, lane); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("store_readfold", func(b *testing.B) {
		b.SetBytes(bs)
		for i := 0; i < b.N; i++ {
			if err := store.ReadFoldAt(buf, int64(addrs[i%pages])*bs, bs, lane); err != nil {
				b.Fatal(err)
			}
		}
	})
}
