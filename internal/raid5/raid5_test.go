package raid5

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"code56/internal/bufpool"
	"code56/internal/layout"
	"code56/internal/parallel"
	"code56/internal/xorblk"
)

// poolBalanced checks, when the test ends, that bufpool.InFlight() is back where
// it was: every buffer rented on the way — on the error returns an injected
// fault takes, above all — went back to the pool.
func poolBalanced(t testing.TB) {
	t.Helper()
	base := bufpool.InFlight()
	t.Cleanup(func() {
		if got := bufpool.InFlight(); got != base {
			t.Errorf("bufpool.InFlight() = %d at the end of the test, %d at its start: a rental leaked", got, base)
		}
	})
}

var layouts = []Layout{LeftAsymmetric, LeftSymmetric, RightAsymmetric, RightSymmetric}

// rebuild restores the given disk over the array's first stripes (m rows each)
// on one worker.
func rebuild(a *Array, stripes int64, disk int) error {
	return a.RebuildContext(context.Background(), stripes, []int{disk}, parallel.WithWorkers(1))
}

// rowHolds reads a row's blocks straight off the disks and reports whether
// they XOR to zero: the row's one parity chain.
func rowHolds(t *testing.T, a *Array, row int64) bool {
	t.Helper()
	acc, buf := make([]byte, a.BlockSize()), make([]byte, a.BlockSize())
	for d := 0; d < a.M(); d++ {
		if err := a.Disks().Disk(d).Read(row, buf); err != nil {
			t.Fatalf("row %d, disk %d: %v", row, d, err)
		}
		xorblk.Xor(acc, buf)
	}
	return xorblk.IsZero(acc)
}

func TestLayoutStrings(t *testing.T) {
	want := map[Layout]string{
		LeftAsymmetric:  "left-asymmetric",
		LeftSymmetric:   "left-symmetric",
		RightAsymmetric: "right-asymmetric",
		RightSymmetric:  "right-symmetric",
		Layout(9):       "Layout(9)",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("%d: %q", int(l), l.String())
		}
	}
}

func TestNewRejectsSmallArrays(t *testing.T) {
	for _, m := range []int{0, 1, 2} {
		if _, err := New(m, 16, LeftAsymmetric); err == nil {
			t.Errorf("New(%d) should fail", m)
		}
	}
}

// TestPlacement checks the rotation conventions: every disk of every row is
// used exactly once (parity + m-1 data positions form a permutation), and
// the left-asymmetric rotation matches the paper's assumption (row i parity
// on disk m-1-i for i < m).
func TestPlacement(t *testing.T) {
	for _, l := range layouts {
		a, _ := New(5, 16, l)
		for row := int64(0); row < 10; row++ {
			used := map[int]bool{a.ParityDisk(row): true}
			for k := 0; k < 4; k++ {
				d := a.DataDisk(row, k)
				if used[d] {
					t.Fatalf("%v row %d: disk %d reused", l, row, d)
				}
				used[d] = true
			}
			if len(used) != 5 {
				t.Fatalf("%v row %d: %d disks used", l, row, len(used))
			}
		}
	}
	a, _ := New(5, 16, LeftAsymmetric)
	for i := int64(0); i < 5; i++ {
		if pd := a.ParityDisk(i); pd != 4-int(i) {
			t.Errorf("left-asymmetric row %d parity on disk %d, want %d", i, pd, 4-int(i))
		}
	}
	r, _ := New(5, 16, RightAsymmetric)
	for i := int64(0); i < 5; i++ {
		if pd := r.ParityDisk(i); pd != int(i) {
			t.Errorf("right-asymmetric row %d parity on disk %d, want %d", i, pd, int(i))
		}
	}
}

// refParityDisk and refDataDisk are the md rotation as raid5 computed it while
// it was its own array: the reference the code's address map is held to.
func refParityDisk(l Layout, m int, row int64) int {
	r := int(row % int64(m))
	switch l {
	case LeftAsymmetric, LeftSymmetric:
		return m - 1 - r
	default:
		return r
	}
}

func refDataDisk(l Layout, m int, row int64, k int) int {
	pd := refParityDisk(l, m, row)
	switch l {
	case LeftSymmetric, RightSymmetric:
		return (pd + 1 + k) % m
	default:
		if k < pd {
			return k
		}
		return k + 1
	}
}

// TestCodeConformance: for every layout and m from 3 to 8 the RAID-5 code is
// a valid one-parity code — it survives any one lost column and not every
// pair — and raid6's logical numbering over it is the md address map: block L
// is the cell at row L/(m-1), on the disk the reference rotation names, for
// 10,000 blocks. And a block written reads back.
func TestCodeConformance(t *testing.T) {
	for _, l := range layouts {
		for m := 3; m <= 8; m++ {
			name := fmt.Sprintf("%v/m=%d", l, m)
			a, err := New(m, 16, l)
			if err != nil {
				t.Fatal(err)
			}
			code := a.Code()
			if err := layout.ValidateStructure(code); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, _ := layout.MeasureTolerance(code, 2, 1); got != 1 || code.FaultTolerance() != 1 {
				t.Fatalf("%s: measured tolerance %d, declared %d, want 1", name, got, code.FaultTolerance())
			}
			for L := int64(0); L < 10000; L++ {
				row, disk := a.Locate(L)
				k := int(L % int64(m-1))
				wantRow, wantDisk := L/int64(m-1), refDataDisk(l, m, L/int64(m-1), k)
				stripe, cell := a.Array.Locate(L)
				if row != wantRow || disk != wantDisk || stripe*int64(m)+int64(cell.Row) != row || cell.Col != disk {
					t.Fatalf("%s: block %d at (row %d, disk %d), raid6 (stripe %d, %v); want (row %d, disk %d)", name, L, row, disk, stripe, cell, wantRow, wantDisk)
				}
				if pd := a.ParityDisk(row); pd != refParityDisk(l, m, row) {
					t.Fatalf("%s: row %d parity on disk %d, want %d", name, row, pd, refParityDisk(l, m, row))
				}
			}
			blocks := int64(2 * m * (m - 1)) // two stripes
			for L := int64(0); L < blocks; L++ {
				if err := a.WriteBlock(L, bytes.Repeat([]byte{byte(L + 1)}, 16)); err != nil {
					t.Fatal(err)
				}
			}
			buf := make([]byte, 16)
			for L := int64(0); L < blocks; L++ {
				row, disk := a.Locate(L)
				if err := a.ReadBlock(L, buf); err != nil || !bytes.Equal(buf, bytes.Repeat([]byte{byte(L + 1)}, 16)) {
					t.Fatalf("%s: block %d reads %v (err %v)", name, L, buf[:2], err)
				}
				if err := a.Disks().Disk(disk).Read(row, buf); err != nil || buf[0] != byte(L+1) {
					t.Fatalf("%s: block %d is not at (row %d, disk %d) on the media", name, L, row, disk)
				}
			}
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	for _, l := range layouts {
		a, _ := New(4, 16, l)
		r := rand.New(rand.NewSource(1))
		want := make(map[int64][]byte)
		for L := int64(0); L < 30; L++ {
			b := make([]byte, 16)
			r.Read(b)
			want[L] = b
			if err := a.WriteBlock(L, b); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, 16)
		for L, w := range want {
			if err := a.ReadBlock(L, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, w) {
				t.Fatalf("%v block %d mismatch", l, L)
			}
		}
		for st := int64(0); st < 3; st++ {
			ok, err := a.VerifyStripe(st)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%v stripe %d parity inconsistent", l, st)
			}
		}
	}
}

func TestWriteRejectsBadSize(t *testing.T) {
	a, _ := New(4, 16, LeftAsymmetric)
	if err := a.WriteBlock(0, make([]byte, 8)); err == nil {
		t.Fatal("short write accepted")
	}
}

// TestDegradedRead: with one disk down every block reads back, and a block
// of that disk is read from its row alone: m-1 reads.
func TestDegradedRead(t *testing.T) {
	poolBalanced(t)
	for _, l := range layouts {
		a, _ := New(4, 16, l)
		r := rand.New(rand.NewSource(2))
		want := make(map[int64][]byte)
		for L := int64(0); L < 24; L++ {
			b := make([]byte, 16)
			r.Read(b)
			want[L] = b
			if err := a.WriteBlock(L, b); err != nil {
				t.Fatal(err)
			}
		}
		a.Disks().Disk(2).Fail()
		buf := make([]byte, 16)
		for L, w := range want {
			_, disk := a.Locate(L)
			a.Disks().ResetStats()
			if err := a.ReadBlock(L, buf); err != nil {
				t.Fatalf("%v: degraded read %d: %v", l, L, err)
			}
			if !bytes.Equal(buf, w) {
				t.Fatalf("%v: degraded read %d mismatch", l, L)
			}
			if reads := a.Disks().TotalStats().Reads; disk == 2 && reads != 3 {
				t.Fatalf("%v: degraded read of block %d took %d reads, want its row's other 3", l, L, reads)
			}
		}
	}
}

func TestDegradedWriteAndRebuild(t *testing.T) {
	poolBalanced(t)
	a, _ := New(4, 16, LeftAsymmetric)
	r := rand.New(rand.NewSource(3))
	want := make(map[int64][]byte)
	write := func(L int64) {
		b := make([]byte, 16)
		r.Read(b)
		want[L] = b
		if err := a.WriteBlock(L, b); err != nil {
			t.Fatal(err)
		}
	}
	for L := int64(0); L < 24; L++ {
		write(L)
	}
	a.Disks().Disk(1).Fail()
	// Degraded writes: some land on the failed disk (their parity recomputed
	// from the row), some on rows whose parity disk failed.
	for L := int64(0); L < 24; L += 2 {
		write(L)
	}
	// Replace and rebuild. Until the rebuild the new drive's blocks read as
	// what was written to them, decoded from their rows, not as its zeros.
	a.Disks().Disk(1).Replace()
	buf := make([]byte, 16)
	for L, w := range want {
		if err := a.ReadBlock(L, buf); err != nil || !bytes.Equal(buf, w) {
			t.Fatalf("block %d before the rebuild: %v (err %v)", L, buf, err)
		}
	}
	if err := rebuild(a, 2, 1); err != nil {
		t.Fatal(err)
	}
	for L, w := range want {
		if err := a.ReadBlock(L, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("block %d mismatch after rebuild", L)
		}
	}
	for st := int64(0); st < 2; st++ {
		ok, err := a.VerifyStripe(st)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("stripe %d inconsistent after rebuild", st)
		}
	}
}

// TestDoubleFailure: with two disks down a read that needs both says so with
// ErrDoubleFailure, and no read returns wrong bytes; a rebuild cannot run.
func TestDoubleFailure(t *testing.T) {
	poolBalanced(t)
	for _, l := range layouts {
		a, _ := New(4, 16, l)
		for L := int64(0); L < 12; L++ {
			if err := a.WriteBlock(L, bytes.Repeat([]byte{byte(L + 1)}, 16)); err != nil {
				t.Fatal(err)
			}
		}
		a.Disks().Disk(0).Fail()
		a.Disks().Disk(2).Fail()
		sawDouble := false
		buf := make([]byte, 16)
		for L := int64(0); L < 12; L++ {
			err := a.ReadBlock(L, buf)
			if errors.Is(err, ErrDoubleFailure) {
				sawDouble = true
			} else if err != nil || !bytes.Equal(buf, bytes.Repeat([]byte{byte(L + 1)}, 16)) {
				t.Fatalf("%v: block %d reads %v (err %v)", l, L, buf[:2], err)
			}
		}
		if !sawDouble {
			t.Fatalf("%v: double failure never surfaced — RAID-5 should not survive two failed disks", l)
		}
		if err := rebuild(a, 1, 0); !errors.Is(err, ErrDoubleFailure) {
			t.Fatalf("%v: rebuild with failed disks: %v", l, err)
		}
	}
}

// TestLatentErrorRecovery: a latent sector error on a data block is
// transparently recovered through parity.
func TestLatentErrorRecovery(t *testing.T) {
	poolBalanced(t)
	a, _ := New(4, 16, LeftAsymmetric)
	want := []byte("0123456789abcdef")
	if err := a.WriteBlock(5, want); err != nil {
		t.Fatal(err)
	}
	row, disk := a.Locate(5)
	a.Disks().Disk(disk).InjectLatentError(row)
	buf := make([]byte, 16)
	if err := a.ReadBlock(5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("latent error not recovered via parity")
	}
}

// TestSecondBadBlockInRowIsDoubleFault: a bad sector on a peer read to
// reconstruct another block of the row is beyond single parity, for a read
// and for writes over a bad block or a bad parity, and says so with
// ErrDoubleFailure.
func TestSecondBadBlockInRowIsDoubleFault(t *testing.T) {
	poolBalanced(t)
	a, _ := New(4, 16, LeftAsymmetric)
	for L := int64(0); L < 12; L++ {
		if err := a.WriteBlock(L, bytes.Repeat([]byte{byte(L + 1)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	row, disk := a.Locate(5)
	peer := 0
	for peer == disk || peer == a.ParityDisk(row) {
		peer++
	}
	buf := make([]byte, 16)
	a.Disks().Disk(peer).InjectLatentError(row)
	a.Disks().Disk(disk).InjectLatentError(row)
	if err := a.ReadBlock(5, buf); !errors.Is(err, ErrDoubleFailure) {
		t.Errorf("read with a bad peer: %v", err)
	}
	if err := a.WriteBlock(5, buf); !errors.Is(err, ErrDoubleFailure) {
		t.Errorf("write over a bad block with a bad peer: %v", err)
	}
	if err := a.Disks().Disk(disk).Write(row, buf); err != nil { // clears the sector
		t.Fatal(err)
	}
	a.Disks().Disk(a.ParityDisk(row)).InjectLatentError(row)
	if err := a.WriteBlock(5, buf); !errors.Is(err, ErrDoubleFailure) {
		t.Errorf("write with bad parity and a bad peer: %v", err)
	}
}

// TestRMWTouchesTwoDisks asserts the single-write I/O profile the paper's
// Table III builds on: an update in a healthy array costs 2 reads + 2
// writes on exactly the data disk and the parity disk, on every layout.
func TestRMWTouchesTwoDisks(t *testing.T) {
	for _, l := range layouts {
		a, _ := New(5, 16, l)
		if err := a.WriteBlock(7, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		a.Disks().ResetStats()
		if err := a.WriteBlock(7, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
		row, disk := a.Locate(7)
		pd := a.ParityDisk(row)
		for i := 0; i < 5; i++ {
			s := a.Disks().Disk(i).Stats()
			switch i {
			case disk, pd:
				if s.Reads != 1 || s.Writes != 1 {
					t.Errorf("%v: disk %d stats %+v, want 1r/1w", l, i, s)
				}
			default:
				if s.Total() != 0 {
					t.Errorf("%v: disk %d touched: %+v", l, i, s)
				}
			}
		}
	}
}

// TestWriteBlockRedoesDegradedWrites: a healthy write is the small write, two
// reads and two writes. With the parity's disk down the small write skips its
// fold; in every other degraded state the write is made again under the
// stripe's exclusive hold, recomputing the parity from the row's other data
// blocks, without reading the block or its parity — having written the data
// already when it is the parity that cannot be read. The row's chain holds
// and the new data reads back afterwards in all of them.
func TestWriteBlockRedoesDegradedWrites(t *testing.T) {
	const logical = 7
	first := []byte("0123456789abcdef")
	second := []byte("fedcba9876543210")
	for _, c := range []struct {
		name          string
		damage        func(a *Array, row int64, disk, pd int)
		reads, writes int64 // the write's I/O across all disks, both attempts
		verify        bool  // the row's blocks can all be read afterwards
	}{
		{"healthy", func(*Array, int64, int, int) {}, 2, 2, true},
		{"old data latent", func(a *Array, row int64, disk, pd int) { a.Disks().Disk(disk).InjectLatentError(row) }, 3, 2, true}, // the failed swap is not counted
		{"old parity latent", func(a *Array, row int64, disk, pd int) { a.Disks().Disk(pd).InjectLatentError(row) }, 1 + 3, 1 + 2, true},
		{"data disk failed", func(a *Array, row int64, disk, pd int) { a.Disks().Disk(disk).Fail() }, 3, 1, false},
		{"parity disk failed", func(a *Array, row int64, disk, pd int) { a.Disks().Disk(pd).Fail() }, 1, 1, false}, // the fold into the dead disk is skipped
		{"data disk replaced", func(a *Array, row int64, disk, pd int) { a.Disks().Disk(disk).Replace() }, 3, 2, true},
		{"parity disk replaced", func(a *Array, row int64, disk, pd int) { a.Disks().Disk(pd).Replace() }, 1, 1, false}, // the fold into the stale parity is dropped
	} {
		a, _ := New(5, 16, LeftAsymmetric)
		for L := int64(0); L < 12; L++ { // rows 0-2, so the peers hold data too
			if err := a.WriteBlock(L, bytes.Repeat([]byte{byte(L + 1)}, 16)); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.WriteBlock(logical, first); err != nil {
			t.Fatal(err)
		}
		row, disk := a.Locate(logical)
		pd := a.ParityDisk(row)
		c.damage(a, row, disk, pd)
		a.Disks().ResetStats()
		if err := a.WriteBlock(logical, second); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st := a.Disks().TotalStats(); st.Reads != c.reads || st.Writes != c.writes {
			t.Errorf("%s: write cost %d reads / %d writes, want %d / %d", c.name, st.Reads, st.Writes, c.reads, c.writes)
		}
		got := make([]byte, 16)
		if err := a.ReadBlock(logical, got); err != nil || !bytes.Equal(got, second) {
			t.Errorf("%s: read back %q (err %v), want %q", c.name, got, err, second)
		}
		if c.verify && !rowHolds(t, a, row) {
			t.Errorf("%s: the row's parity does not match its data after the write", c.name)
		}
	}
	a, _ := New(5, 16, LeftAsymmetric)
	if err := a.WriteBlock(0, first[:8]); err == nil {
		t.Error("WriteBlock accepted short data")
	}
}

// TestAccessorsAndWrap: Wrap reuses the disk set, refuses too few disks, and
// leaves disks past the RAID-5's alone.
func TestAccessorsAndWrap(t *testing.T) {
	a, _ := New(5, 32, LeftSymmetric)
	if a.M() != 5 || a.Layout() != LeftSymmetric || a.BlockSize() != 32 {
		t.Fatalf("accessors: m=%d layout=%v bs=%d", a.M(), a.Layout(), a.BlockSize())
	}
	w, err := Wrap(a.Disks(), 5, LeftSymmetric)
	if err != nil {
		t.Fatal(err)
	}
	if w.Disks() != a.Disks() {
		t.Fatal("Wrap must reuse the disk set")
	}
	if _, err := Wrap(a.Disks(), 2, LeftSymmetric); err == nil {
		t.Error("Wrap with m=2 accepted")
	}
	if _, err := Wrap(a.Disks(), 9, LeftSymmetric); err == nil {
		t.Error("Wrap with too few disks accepted")
	}
	four, err := Wrap(a.Disks(), 4, LeftAsymmetric)
	if err != nil {
		t.Fatal(err)
	}
	a.Disks().ResetStats()
	for L := int64(0); L < 24; L++ {
		if err := four.WriteBlock(L, make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rebuild(four, 2, 1); err != nil {
		t.Fatal(err)
	}
	if st := a.Disks().Disk(4).Stats(); st.Total() != 0 {
		t.Errorf("a 4-disk RAID-5 over 5 disks touched the fifth: %+v", st)
	}
}

// A RAID-5 cannot be rotated: its layout is the rotation, and Locate is the
// map every block is read by.
func TestRotationIsRefused(t *testing.T) {
	for _, l := range []Layout{LeftAsymmetric, LeftSymmetric, RightAsymmetric, RightSymmetric} {
		a, _ := New(4, 16, l)
		if err := a.SetRotation(true); err == nil {
			t.Errorf("%v: SetRotation(true) accepted", l)
		}
		if err := a.SetRotation(false); err != nil {
			t.Errorf("%v: SetRotation(false): %v", l, err)
		}
		if a.Rotated() {
			t.Errorf("%v: rotated after a refused SetRotation", l)
		}
		buf := []byte("0123456789abcdef")
		if err := a.WriteBlock(5, buf); err != nil {
			t.Fatal(err)
		}
		row, disk := a.Locate(5)
		got := make([]byte, 16)
		if err := a.Disks().Disk(disk).Read(row, got); err != nil || !bytes.Equal(got, buf) {
			t.Errorf("%v: block 5 not on disk %d row %d where Locate puts it: %q, %v", l, disk, row, got, err)
		}
	}
}

// TestEncodeStripeRewritesParity regenerates a row's parity wholesale after
// direct data manipulation.
func TestEncodeStripeRewritesParity(t *testing.T) {
	a, _ := New(4, 16, LeftAsymmetric)
	// Write data blocks directly to the disks, skipping parity upkeep.
	row := int64(2)
	for k := 0; k < 3; k++ {
		d := a.DataDisk(row, k)
		// 1, 2, 4: XOR is nonzero, so the zero parity is genuinely stale.
		if err := a.Disks().Disk(d).Write(row, bytes.Repeat([]byte{byte(1 << k)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if ok, _ := a.VerifyStripe(0); ok {
		t.Fatal("stripe should be inconsistent before EncodeStripe")
	}
	if err := a.EncodeStripe(0); err != nil {
		t.Fatal(err)
	}
	ok, err := a.VerifyStripe(0)
	if err != nil || !ok {
		t.Fatalf("stripe inconsistent after EncodeStripe: %v %v", ok, err)
	}
	if !rowHolds(t, a, row) {
		t.Fatal("row 2's parity does not match its data")
	}
}
