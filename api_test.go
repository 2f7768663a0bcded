package code56

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
)

// TestPublicQuickstart walks the README quick-start through the public API:
// encode, double failure, recovery.
func TestPublicQuickstart(t *testing.T) {
	code, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	array, err := NewRAID6Array(code, WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	want := map[int64][]byte{}
	for L := int64(0); L < int64(array.DataPerStripe()*2); L++ {
		b := make([]byte, 512)
		r.Read(b)
		want[L] = b
		if err := array.WriteBlock(L, b); err != nil {
			t.Fatal(err)
		}
	}
	array.Disks().Disk(1).Fail()
	array.Disks().Disk(3).Fail()
	buf := make([]byte, 512)
	for L, w := range want {
		if err := array.ReadBlock(L, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("block %d wrong under double failure", L)
		}
	}
}

// TestPublicMigration drives the online migration through the public API
// and downgrades back.
func TestPublicMigration(t *testing.T) {
	r5, err := NewRAID5Array(4, WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(bytes.Repeat([]byte("x"), 512))
	for L := int64(0); L < 24; L++ {
		if err := r5.WriteBlock(L, data); err != nil {
			t.Fatal(err)
		}
	}
	mig, err := NewMigrator(r5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Start(); err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	r6, err := mig.Result()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := r6.VerifyStripe(0)
	if err != nil || !ok {
		t.Fatalf("stripe 0 verify: %v %v", ok, err)
	}
	if err := Downgrade(r6); err != nil {
		t.Fatal(err)
	}
	if r5.Disks().Len() != 4 {
		t.Fatalf("disks after downgrade: %d", r5.Disks().Len())
	}
}

// TestMigratedArrayKeepsLogicalOrder: whatever RAID-5 the facade agrees to
// migrate, every logical block reads back its own contents through the RAID-6
// the migration hands over — not only through the migrator. raid6 numbers a
// stripe's data cells row-major, which is the asymmetric layouts' order; a
// symmetric array's blocks would come back permuted (12 of 24 on this 4-disk,
// 8-row array), so NewMigrator refuses those and says why.
func TestMigratedArrayKeepsLogicalOrder(t *testing.T) {
	const m, rows, block = 4, 8, 64
	for _, l := range []RAID5Layout{LeftAsymmetric, LeftSymmetric, RightAsymmetric, RightSymmetric} {
		r5, err := NewRAID5Array(m, WithBlockSize(block), WithLayout(l))
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, rows*(m-1))
		r := rand.New(rand.NewSource(20))
		for L := range want {
			want[L] = make([]byte, block)
			r.Read(want[L])
			if err := r5.WriteBlock(int64(L), want[L]); err != nil {
				t.Fatal(err)
			}
		}
		mig, err := NewMigrator(r5, rows)
		if err != nil {
			if l == LeftAsymmetric || l == RightAsymmetric || !strings.Contains(err.Error(), "symmetric RAID-5 cannot be migrated") {
				t.Errorf("%s: NewMigrator: %v", l, err)
			}
			continue
		}
		if err := mig.Start(); err != nil {
			t.Fatal(err)
		}
		if err := mig.Wait(); err != nil {
			t.Fatal(err)
		}
		r6, err := mig.Result()
		if err != nil {
			t.Fatal(err)
		}
		wrong, buf := 0, make([]byte, block)
		for L, w := range want {
			if err := r6.ReadBlock(int64(L), buf); err != nil {
				t.Fatalf("%s: block %d: %v", l, L, err)
			}
			if !bytes.Equal(buf, w) {
				wrong++
			}
		}
		if wrong > 0 {
			t.Errorf("%s: %d of %d logical blocks read back another block's contents through the migrated RAID-6", l, wrong, len(want))
		}
	}
}

// TestPublicPlansAndCodes smoke-tests the planner facade and every
// comparison-code constructor.
func TestPublicPlansAndCodes(t *testing.T) {
	plan, err := NewVirtualPlan(5, LeftAsymmetric)
	if err != nil {
		t.Fatal(err)
	}
	m := plan.Metrics()
	if m.InvalidParityRatio != 0 || m.MigrationRatio != 0 {
		t.Error("Code 5-6 virtual plan should not invalidate or migrate")
	}
	ex, err := NewPlanExecutor(plan, WithBlockSize(64), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := RunPlan(context.Background(), ex, WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if err := ex.VerifyResult(); err != nil {
		t.Fatal(err)
	}

	if len(StandardConversions(7)) == 0 {
		t.Error("no standard conversions at n=7")
	}

	type ctor struct {
		name string
		mk   func() (Code, error)
	}
	for _, c := range []ctor{
		{"rdp", func() (Code, error) { return NewRDP(5) }},
		{"evenodd", func() (Code, error) { return NewEVENODD(5) }},
		{"xcode", func() (Code, error) { return NewXCode(5) }},
		{"hcode", func() (Code, error) { return NewHCode(5) }},
		{"hdp", func() (Code, error) { return NewHDP(5) }},
		{"pcode", func() (Code, error) { return NewPCode(5) }},
		{"pcode-p", func() (Code, error) { return NewPCodeP(5) }},
	} {
		code, err := c.mk()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := NewStripe(code.Geometry(), 16)
		s.FillRandom(code, rand.New(rand.NewSource(2)))
		Encode(code, s)
		if !Verify(code, s) {
			t.Fatalf("%s: verify failed", c.name)
		}
		orig := s.Clone()
		es := EraseColumns(s, 0, 1)
		if _, err := Reconstruct(code, s, es); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !s.Equal(orig) {
			t.Fatalf("%s: wrong reconstruction", c.name)
		}
	}

	if !IsPrime(7) || IsPrime(9) || NextPrime(7) != 11 {
		t.Error("prime helpers wrong")
	}
	if eff := Code56StorageEfficiency(4); eff != 0.6 {
		t.Errorf("efficiency(4) = %v", eff)
	}
}

// TestPlanColumnRecoveryRejectsBadColumn: a column outside the code has no
// plan, and says so.
func TestPlanColumnRecoveryRejectsBadColumn(t *testing.T) {
	code, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []int{-1, 5, 9} {
		if plan, err := PlanColumnRecovery(code, col); err == nil || plan != nil {
			t.Errorf("column %d: plan %v, err %v; want an error", col, plan, err)
		}
	}
}

// TestPublicRecoveryAndScrub exercises the maintenance facade: optimized
// column recovery planning and array scrubbing with rotation.
func TestPublicRecoveryAndScrub(t *testing.T) {
	code, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanColumnRecovery(code, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reads, conv := plan.Stats().BlocksRead, code.ConventionalReads(); reads != 9 || conv != 12 {
		t.Errorf("recovery reads %d/%d, want 9/12", reads, conv)
	}

	a, err := NewRAID6Array(code, WithBlockSize(64))
	if err != nil {
		t.Fatal(err)
	}
	a.SetRotation(true)
	buf := make([]byte, 64)
	for L := int64(0); L < int64(a.DataPerStripe()*2); L++ {
		if err := a.WriteBlock(L, buf); err != nil {
			t.Fatal(err)
		}
	}
	a.Disks().Disk(0).InjectLatentError(1)
	rep, err := ScrubArray(context.Background(), a, 2, ScrubRepair, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatentRepaired != 1 || len(rep.Unrecoverable) != 0 {
		t.Fatalf("scrub report %+v", rep)
	}
}

// TestPublicArrayPersistence round-trips an array through the one on-disk
// format: a file-backed directory, closed and reopened.
func TestPublicArrayPersistence(t *testing.T) {
	dir := t.TempDir()
	code, _ := New(5)
	a, err := NewRAID6Array(code, WithBlockSize(64), WithBackend("file:"+dir))
	if err != nil {
		t.Fatal(err)
	}
	b := bytes.Repeat([]byte{7}, 64)
	if err := a.WriteBlock(0, b); err != nil {
		t.Fatal(err)
	}
	if err := a.Disks().Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenRAID6Array(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Disks().Close()
	if name := restored.Code().Name(); name != "code56" {
		t.Fatalf("reopened as %s", name)
	}
	out := make([]byte, 64)
	if err := restored.ReadBlock(0, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, b) {
		t.Fatal("contents lost")
	}
	if _, err := BuildCode(Manifest{Version: 1, CodeName: "rdp", P: 5, BlockSize: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestPublicMiscFacade covers the remaining facade surface.
func TestPublicMiscFacade(t *testing.T) {
	if _, err := NewOriented(5, Right); err != nil {
		t.Fatal(err)
	}
	if _, err := NewOriented(4, Left); err == nil {
		t.Error("non-prime accepted")
	}
	code, _ := New(5)
	if k := code.Kind(0, 4); k != KindParityD {
		t.Errorf("Kind(0,4) = %v", k)
	}
	if k := code.Kind(0, 0); k != KindData {
		t.Errorf("Kind(0,0) = %v", k)
	}
	plan, err := NewPlan(Conversion{M: 4, SourceLayout: LeftAsymmetric, Code: code, Approach: Direct})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Conv.Approach != Direct || ViaRAID0 == ViaRAID4 {
		t.Error("approach constants wrong")
	}
}
