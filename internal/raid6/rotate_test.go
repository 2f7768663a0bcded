package raid6

import (
	"bytes"
	"math/rand"
	"testing"

	"code56/internal/core"
)

func newRotated(t *testing.T) *Array {
	t.Helper()
	a := New(core.MustNew(5), 16)
	a.SetRotation(true)
	if !a.Rotated() {
		t.Fatal("rotation not enabled")
	}
	return a
}

func TestRotationMappingInverts(t *testing.T) {
	a := newRotated(t)
	for st := int64(0); st < 12; st++ {
		seen := map[int]bool{}
		for col := 0; col < 5; col++ {
			d := a.diskFor(st, col).ID()
			if seen[d] {
				t.Fatalf("stripe %d: disk %d mapped twice", st, d)
			}
			seen[d] = true
			if back := a.colOnDisk(st, d); back != col {
				t.Fatalf("stripe %d col %d -> disk %d -> col %d", st, col, d, back)
			}
		}
	}
	// Stripe 0 is the identity; stripe 1 shifts by one.
	if a.diskFor(0, 2).ID() != 2 || a.diskFor(1, 2).ID() != 3 {
		t.Fatal("rotation offset wrong")
	}
}

func TestRotatedRoundTripDegradedRebuild(t *testing.T) {
	a := newRotated(t)
	want := fillRandom(t, a, 4, rand.New(rand.NewSource(1)))
	checkAll(t, a, want, "rotated healthy")
	for st := int64(0); st < 4; st++ {
		ok, err := a.VerifyStripe(st)
		if err != nil || !ok {
			t.Fatalf("stripe %d: %v %v", st, ok, err)
		}
	}
	a.Disks().Disk(0).Fail()
	a.Disks().Disk(3).Fail()
	checkAll(t, a, want, "rotated double-degraded")
	a.Disks().Disk(0).Replace()
	a.Disks().Disk(3).Replace()
	if err := rebuild(a, 4, 0, 3); err != nil {
		t.Fatal(err)
	}
	checkAll(t, a, want, "rotated after rebuild")
	for st := int64(0); st < 4; st++ {
		ok, err := a.VerifyStripe(st)
		if err != nil || !ok {
			t.Fatalf("stripe %d after rebuild: %v %v", st, ok, err)
		}
	}
}

// TestRotationBalancesParityWrites: Code 5-6 concentrates diagonal parity
// on the last column; with rotation, repeated single-block updates touch
// the dedicated-parity role on every disk.
func TestRotationBalancesParityWrites(t *testing.T) {
	plain := New(core.MustNew(5), 16)
	rot := newRotated(t)
	for _, a := range []*Array{plain, rot} {
		fillRandom(t, a, 5, rand.New(rand.NewSource(2)))
		a.Disks().ResetStats()
		// One update per stripe.
		for st := int64(0); st < 5; st++ {
			L := st * int64(a.DataPerStripe())
			if err := a.WriteBlock(L, bytes.Repeat([]byte{byte(st)}, 16)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Without rotation disk 4 (diagonal column) takes a write per update.
	if w := plain.Disks().Disk(4).Stats().Writes; w != 5 {
		t.Errorf("plain: dedicated disk got %d writes, want 5", w)
	}
	// With rotation the diagonal role moves: no disk should absorb all 5.
	maxW := int64(0)
	for i := 0; i < 5; i++ {
		if w := rot.Disks().Disk(i).Stats().Writes; w > maxW {
			maxW = w
		}
	}
	if maxW >= 5 {
		t.Errorf("rotated: one disk still absorbed %d diagonal-parity writes", maxW)
	}
}

func TestScrubHealsLatentErrors(t *testing.T) {
	for _, rotate := range []bool{false, true} {
		a := New(core.MustNew(5), 16)
		a.SetRotation(rotate)
		want := fillRandom(t, a, 3, rand.New(rand.NewSource(3)))
		// Inject latent errors on two blocks of different stripes.
		a.Disks().Disk(1).InjectLatentError(0)
		a.Disks().Disk(2).InjectLatentError(5)
		rep, err := scrub(a, 3, ScrubRepair)
		if err != nil {
			t.Fatal(err)
		}
		if rep.LatentRepaired != 2 {
			t.Errorf("rotate=%v: repaired %d latent blocks, want 2", rotate, rep.LatentRepaired)
		}
		if len(rep.Unrecoverable) != 0 {
			t.Errorf("rotate=%v: unrecoverable stripes %v", rotate, rep.Unrecoverable)
		}
		checkAll(t, a, want, "after latent scrub")
		// The repaired blocks must now read cleanly without redundancy.
		buf := make([]byte, 16)
		if err := a.Disks().Disk(1).Read(0, buf); err != nil {
			t.Errorf("rotate=%v: latent block not rewritten: %v", rotate, err)
		}
	}
}

func TestScrubLocatesSilentCorruption(t *testing.T) {
	a := New(core.MustNew(5), 16)
	want := fillRandom(t, a, 2, rand.New(rand.NewSource(4)))
	// Silently corrupt one data block, bypassing parity maintenance.
	evil := bytes.Repeat([]byte{0xEE}, 16)
	if err := a.Disks().Disk(2).Write(1, evil); err != nil {
		t.Fatal(err)
	}
	if ok, _ := a.VerifyStripe(0); ok {
		t.Fatal("corruption not visible to verify")
	}
	rep, err := scrub(a, 2, ScrubRepair)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptRepaired != 1 {
		t.Fatalf("repaired %d corrupt blocks, want 1 (report %+v)", rep.CorruptRepaired, rep)
	}
	if ok, _ := a.VerifyStripe(0); !ok {
		t.Fatal("stripe still inconsistent after scrub")
	}
	checkAll(t, a, want, "after corruption scrub")
}

func TestScrubReportsMultiCorruption(t *testing.T) {
	a := New(core.MustNew(5), 16)
	fillRandom(t, a, 1, rand.New(rand.NewSource(5)))
	// Corrupt two blocks in the same stripe: localization must refuse to
	// guess.
	evil := bytes.Repeat([]byte{0xEE}, 16)
	if err := a.Disks().Disk(0).Write(0, evil); err != nil {
		t.Fatal(err)
	}
	if err := a.Disks().Disk(1).Write(2, evil); err != nil {
		t.Fatal(err)
	}
	rep, err := scrub(a, 1, ScrubRepair)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unrecoverable) != 1 {
		t.Fatalf("unrecoverable = %v, want exactly stripe 0 (report %+v)", rep.Unrecoverable, rep)
	}
}

func TestScrubCleanArrayIsNoop(t *testing.T) {
	a := New(core.MustNew(5), 16)
	fillRandom(t, a, 2, rand.New(rand.NewSource(6)))
	rep, err := scrub(a, 2, ScrubRepair)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatentRepaired != 0 || rep.CorruptRepaired != 0 || len(rep.Unrecoverable) != 0 {
		t.Fatalf("clean array scrub reported work: %+v", rep)
	}
}

// TestLocateCorruptionParityCell: a corrupted parity block must be located
// too.
func TestLocateCorruptionParityCell(t *testing.T) {
	code := core.MustNew(5)
	a := New(code, 16)
	fillRandom(t, a, 1, rand.New(rand.NewSource(7)))
	// Corrupt a diagonal parity cell: column 4, row 2.
	evil := bytes.Repeat([]byte{0xAA}, 16)
	if err := a.Disks().Disk(4).Write(2, evil); err != nil {
		t.Fatal(err)
	}
	rep, err := scrub(a, 1, ScrubRepair)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptRepaired != 1 || len(rep.Unrecoverable) != 0 {
		t.Fatalf("parity corruption not repaired: %+v", rep)
	}
	if ok, _ := a.VerifyStripe(0); !ok {
		t.Fatal("stripe inconsistent after parity repair")
	}
}

// TestStatefulInvariants drives a random operation sequence — writes, disk
// failures, replacements, rebuilds, scrubs, latent errors — and checks the
// array's two invariants throughout: readable blocks always return the
// last written value, and healthy stripes always verify.
func TestStatefulInvariants(t *testing.T) {
	for _, rotate := range []bool{false, true} {
		code := core.MustNew(5)
		a := New(code, 16)
		a.SetRotation(rotate)
		const stripes = 4
		blocks := int64(a.DataPerStripe() * stripes)
		r := rand.New(rand.NewSource(42))
		want := make(map[int64][]byte)
		for L := int64(0); L < blocks; L++ {
			b := make([]byte, 16)
			r.Read(b)
			want[L] = b
			if err := a.WriteBlock(L, b); err != nil {
				t.Fatal(err)
			}
		}
		failed := map[int]bool{}
		buf := make([]byte, 16)
		for step := 0; step < 400; step++ {
			switch op := r.Intn(10); {
			case op < 4: // write
				L := r.Int63n(blocks)
				b := make([]byte, 16)
				r.Read(b)
				if err := a.WriteBlock(L, b); err != nil {
					t.Fatalf("rotate=%v step %d write: %v", rotate, step, err)
				}
				want[L] = b
			case op < 7: // read-check a random block
				L := r.Int63n(blocks)
				if err := a.ReadBlock(L, buf); err != nil {
					t.Fatalf("rotate=%v step %d read: %v", rotate, step, err)
				}
				if !bytes.Equal(buf, want[L]) {
					t.Fatalf("rotate=%v step %d: block %d stale", rotate, step, L)
				}
			case op < 8: // fail a disk if tolerance allows
				if len(failed) < 2 {
					d := r.Intn(5)
					if !failed[d] {
						a.Disks().Disk(d).Fail()
						failed[d] = true
					}
				}
			case op < 9: // replace + rebuild all failed disks
				if len(failed) > 0 {
					var ds []int
					for d := range failed {
						a.Disks().Disk(d).Replace()
						ds = append(ds, d)
					}
					if err := rebuild(a, stripes, ds...); err != nil {
						t.Fatalf("rotate=%v step %d rebuild: %v", rotate, step, err)
					}
					failed = map[int]bool{}
				}
			default: // latent error + scrub (only when healthy)
				if len(failed) == 0 {
					a.Disks().Disk(r.Intn(5)).InjectLatentError(r.Int63n(stripes * 4))
					if _, err := scrub(a, stripes, ScrubRepair); err != nil {
						t.Fatalf("rotate=%v step %d scrub: %v", rotate, step, err)
					}
				}
			}
		}
		// Final: heal everything and verify every stripe and block.
		if len(failed) > 0 {
			var ds []int
			for d := range failed {
				a.Disks().Disk(d).Replace()
				ds = append(ds, d)
			}
			if err := rebuild(a, stripes, ds...); err != nil {
				t.Fatal(err)
			}
		}
		for st := int64(0); st < stripes; st++ {
			ok, err := a.VerifyStripe(st)
			if err != nil || !ok {
				t.Fatalf("rotate=%v: stripe %d inconsistent at end: %v", rotate, st, err)
			}
		}
		for L, w := range want {
			if err := a.ReadBlock(L, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, w) {
				t.Fatalf("rotate=%v: block %d corrupted", rotate, L)
			}
		}
	}
}
