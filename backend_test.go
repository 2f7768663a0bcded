package code56

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"code56/internal/durable"
)

func TestBackendSpecGrammar(t *testing.T) {
	for _, spec := range []string{"", "mem:", "file:/tmp/x"} {
		s := ApplyOptions(WithBackend(spec))
		if err := s.Err(); err != nil {
			t.Errorf("spec %q rejected: %v", spec, err)
		}
	}
	for _, spec := range []string{"file:", "mem", "disk:/x", "s3://bucket"} {
		s := ApplyOptions(WithBackend(spec))
		if err := s.Err(); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	bad := ApplyOptions(WithCheckpointInterval(0))
	if err := bad.Err(); err == nil {
		t.Error("WithCheckpointInterval(0) accepted")
	}
}

// TestPositionalConstructorsStayInMemory pins the compatibility promise:
// the positional constructors and the option forms without WithBackend
// build pure in-memory arrays (no Dir capability on the backend).
func TestPositionalConstructorsStayInMemory(t *testing.T) {
	a, err := NewRAID5Array(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Disks().Backend().(interface{ Dir() string }); ok {
		t.Fatal("default backend is not in-memory")
	}
	m, err := NewMigrator(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Journal() != nil {
		t.Fatal("in-memory migration must not be journaled")
	}
}

func TestFileBackedRAID6RoundTrip(t *testing.T) {
	dir := t.TempDir()
	code, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewRAID6Array(code, WithBackend("file:"+dir), WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	want := make([][]byte, 12)
	for l := range want {
		b := make([]byte, 512)
		r.Read(b)
		want[l] = b
		if err := a.WriteBlock(int64(l), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Disks().Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.Disks().Close(); err != nil {
		t.Fatal(err)
	}

	// Kind mismatch is caught, with a pointer to the right entry point.
	if _, err := OpenRAID5Array(dir); err == nil {
		t.Fatal("OpenRAID5Array accepted a raid6 directory")
	}

	b, err := OpenRAID6Array(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Disks().Close()
	if b.Code().Name() != "code56" || b.BlockSize() != 512 {
		t.Fatalf("reopened identity: %s/%d", b.Code().Name(), b.BlockSize())
	}
	buf := make([]byte, 512)
	for l, w := range want {
		if err := b.ReadBlock(int64(l), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, w) {
			t.Fatalf("block %d mismatch after reopen", l)
		}
	}
	// Survives a double failure after reopen, like any RAID-6.
	b.Disks().Disk(0).Fail()
	b.Disks().Disk(2).Fail()
	if err := b.ReadBlock(0, buf); err != nil {
		t.Fatalf("degraded read after reopen: %v", err)
	}
	if !bytes.Equal(buf, want[0]) {
		t.Fatal("degraded read returned wrong data")
	}
}

// A RAID-6 directory holding a disk image past the code's columns is refused,
// not opened with the image ignored.
func TestOpenRAID6ArrayRefusesExtraDisks(t *testing.T) {
	dir := t.TempDir()
	code, _ := New(5)
	a, err := NewRAID6Array(code, WithBackend("file:"+dir), WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Disks().Attach(); err != nil {
		t.Fatal(err)
	}
	if err := a.Disks().Close(); err != nil {
		t.Fatal(err)
	}
	if b, err := OpenRAID6Array(dir); err == nil {
		b.Disks().Close()
		t.Fatal("OpenRAID6Array opened 6 disk images for a 5-column code")
	}
}

// TestReopenIgnoresStrayImageCopies: backups beside a RAID-5's disk images
// are not disks — one of a member is not a duplicate, and one of a disk past
// the array is not an added disk to open, or to create empty.
func TestReopenIgnoresStrayImageCopies(t *testing.T) {
	dir := t.TempDir()
	a, err := NewRAID5Array(4, WithBackend("file:"+dir), WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, 512)
	if err := a.WriteBlock(5, want); err != nil {
		t.Fatal(err)
	}
	if err := a.Disks().Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"disk-0003.img.bak", "disk-0004.img.bak"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := OpenRAID5Array(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Disks().Close()
	if n := b.Disks().Len(); n != 4 {
		t.Errorf("reopened %d disks, want 4", n)
	}
	got := make([]byte, 512)
	if err := b.ReadBlock(5, got); err != nil || !bytes.Equal(got, want) {
		t.Errorf("block 5 after reopen: %v, equal %v", err, bytes.Equal(got, want))
	}
	if _, err := os.Stat(filepath.Join(dir, "disk-0004.img")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("reopen made disk-0004.img: %v", err)
	}
}

func TestResumeMigrationErrors(t *testing.T) {
	// No meta.json at all.
	if _, err := ResumeMigration(t.TempDir()); !errors.Is(err, durable.ErrNoMeta) {
		t.Fatalf("empty dir: %v", err)
	}
	// A RAID-5 directory that never began a migration.
	dir := t.TempDir()
	a, err := NewRAID5Array(4, WithBackend("file:"+dir), WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	a.Disks().Close()
	if _, err := ResumeMigration(dir); !errors.Is(err, ErrNoMigration) {
		t.Fatalf("unbegun dir: %v", err)
	}
	// A RAID-6 directory: migration (or construction) already complete.
	dir6 := t.TempDir()
	code, _ := New(5)
	b, err := NewRAID6Array(code, WithBackend("file:"+dir6), WithBlockSize(512))
	if err != nil {
		t.Fatal(err)
	}
	b.Disks().Close()
	if _, err := ResumeMigration(dir6); !errors.Is(err, ErrMigrationComplete) {
		t.Fatalf("raid6 dir: %v", err)
	}
	if _, err := OpenRAID6Array(dir); err == nil {
		t.Fatal("OpenRAID6Array accepted a raid5 directory")
	}
}
