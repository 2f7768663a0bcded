package raid5

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"code56/internal/bufpool"
	"code56/internal/vdisk"
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
		for row := int64(0); row < 10; row++ {
			ok, err := a.VerifyRow(row)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%v row %d parity inconsistent", l, row)
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

func TestDegradedRead(t *testing.T) {
	poolBalanced(t)
	a, _ := New(4, 16, LeftSymmetric)
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
		if err := a.ReadBlock(L, buf); err != nil {
			t.Fatalf("degraded read %d: %v", L, err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("degraded read %d mismatch", L)
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
	// Degraded writes: some land on the failed disk (reconstruct-write),
	// some on parity rows whose parity disk failed.
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
	if err := a.Rebuild(1, 8); err != nil {
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
	for row := int64(0); row < 8; row++ {
		ok, err := a.VerifyRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("row %d inconsistent after rebuild", row)
		}
	}
}

func TestDoubleFailure(t *testing.T) {
	poolBalanced(t)
	a, _ := New(4, 16, LeftAsymmetric)
	for L := int64(0); L < 12; L++ {
		if err := a.WriteBlock(L, make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	}
	a.Disks().Disk(0).Fail()
	a.Disks().Disk(2).Fail()
	sawDouble := false
	buf := make([]byte, 16)
	for L := int64(0); L < 12; L++ {
		if err := a.ReadBlock(L, buf); errors.Is(err, ErrDoubleFailure) {
			sawDouble = true
		}
	}
	if !sawDouble {
		t.Fatal("double failure never surfaced — RAID-5 should not survive two failed disks")
	}
	if err := a.Rebuild(0, 3); !errors.Is(err, ErrDoubleFailure) {
		t.Fatalf("Rebuild with failed disks: %v", err)
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
// and for both reconstruct-write entries, and says so with ErrDoubleFault
// around the disk's own error.
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
	isDouble := func(err error) bool {
		return errors.Is(err, ErrDoubleFault) && errors.Is(err, vdisk.ErrLatent)
	}
	buf := make([]byte, 16)
	a.Disks().Disk(peer).InjectLatentError(row)
	a.Disks().Disk(disk).InjectLatentError(row)
	if err := a.ReadBlock(5, buf); !isDouble(err) {
		t.Errorf("read with a bad peer: %v", err)
	}
	if err := a.WriteBlock(5, buf); !isDouble(err) {
		t.Errorf("write over a bad block with a bad peer: %v", err)
	}
	if err := a.Disks().Disk(disk).Write(row, buf); err != nil { // clears the sector
		t.Fatal(err)
	}
	a.Disks().Disk(a.ParityDisk(row)).InjectLatentError(row)
	if err := a.WriteBlock(5, buf); !isDouble(err) {
		t.Errorf("write with bad parity and a bad peer: %v", err)
	}
}

// TestRMWTouchesTwoDisks asserts the single-write I/O profile the paper's
// Table III builds on: an update in a healthy array costs 2 reads + 2
// writes on exactly the data disk and the parity disk.
func TestRMWTouchesTwoDisks(t *testing.T) {
	a, _ := New(5, 16, LeftAsymmetric)
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
				t.Errorf("disk %d stats %+v, want 1r/1w", i, s)
			}
		default:
			if s.Total() != 0 {
				t.Errorf("disk %d touched: %+v", i, s)
			}
		}
	}
}

// writeOnce is WriteBlock saying which form completed the write: the small
// write under the shared lock and, if that reports redo, the snapshot write
// under the exclusive one.
func writeOnce(a *Array, logical int64, data []byte) (redone bool, err error) {
	row, _ := a.Locate(logical)
	lk := a.stripeLock(row)
	lk.RLock()
	redo, err := a.writeBlockHeld(logical, data, false)
	lk.RUnlock()
	if redo {
		lk.Lock()
		_, err = a.writeBlockHeld(logical, data, true)
		lk.Unlock()
	}
	return redo, err
}

// TestWriteBlockRedoesDegradedWrites: held shared, writeBlockHeld is the small
// write, at two reads and two writes. In every degraded state it reports redo
// instead — having written the data already when it is the parity that cannot
// be read — and held exclusive writes the block without reading it or its
// parity. The row verifies and the new data reads back afterwards in all of
// them.
func TestWriteBlockRedoesDegradedWrites(t *testing.T) {
	const logical = 7
	first := []byte("0123456789abcdef")
	second := []byte("fedcba9876543210")
	for _, c := range []struct {
		name          string
		damage        func(a *Array, row int64, disk, pd int)
		redone        bool
		reads, writes int64 // the write's I/O across all disks, both attempts
	}{
		{"healthy", func(*Array, int64, int, int) {}, false, 2, 2},
		{"old data latent", func(a *Array, row int64, disk, pd int) { a.Disks().Disk(disk).InjectLatentError(row) }, true, 3, 2}, // the failed swap is not counted
		{"old parity latent", func(a *Array, row int64, disk, pd int) { a.Disks().Disk(pd).InjectLatentError(row) }, true, 1 + 3, 1 + 2},
		{"data disk failed", func(a *Array, row int64, disk, pd int) { a.Disks().Disk(disk).Fail() }, true, 3, 1},
		{"parity disk failed", func(a *Array, row int64, disk, pd int) { a.Disks().Disk(pd).Fail() }, true, 0, 1},
		{"data disk replaced", func(a *Array, row int64, disk, pd int) { a.Disks().Disk(disk).Replace() }, true, 3, 2},
		{"parity disk replaced", func(a *Array, row int64, disk, pd int) { a.Disks().Disk(pd).Replace() }, false, 1, 1}, // the fold into the stale parity is dropped
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
		redone, err := writeOnce(a, logical, second)
		if err != nil || redone != c.redone {
			t.Fatalf("%s: redone %v (want %v), err %v", c.name, redone, c.redone, err)
		}
		if st := a.Disks().TotalStats(); st.Reads != c.reads || st.Writes != c.writes {
			t.Errorf("%s: write cost %d reads / %d writes, want %d / %d", c.name, st.Reads, st.Writes, c.reads, c.writes)
		}
		got := make([]byte, 16)
		if err := a.ReadBlock(logical, got); err != nil || !bytes.Equal(got, second) {
			t.Errorf("%s: read back %q (err %v), want %q", c.name, got, err, second)
		}
		if len(a.failedDisks()) == 0 && c.name != "parity disk replaced" {
			if ok, err := a.VerifyRow(row); err != nil || !ok {
				t.Errorf("%s: row does not verify after the write (ok=%v err=%v)", c.name, ok, err)
			}
		}
	}
	a, _ := New(5, 16, LeftAsymmetric)
	if err := a.WriteBlock(0, first[:8]); err == nil {
		t.Error("WriteBlock accepted short data")
	}
}

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
}

// TestWriteParity regenerates a row's parity wholesale after direct data
// manipulation.
func TestWriteParity(t *testing.T) {
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
	if ok, _ := a.VerifyRow(row); ok {
		t.Fatal("row should be inconsistent before WriteParity")
	}
	if err := a.WriteParity(row); err != nil {
		t.Fatal(err)
	}
	ok, err := a.VerifyRow(row)
	if err != nil || !ok {
		t.Fatalf("row inconsistent after WriteParity: %v %v", ok, err)
	}
}
