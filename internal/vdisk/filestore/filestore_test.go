package filestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"code56/internal/vdisk"
)

func TestReopenPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, DiskFileName(0))
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	blk := bytes.Repeat([]byte{5}, 512)
	if _, err := s.WriteAt(blk, 4096); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := make([]byte, 512)
	if _, err := s2.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blk) {
		t.Fatal("contents did not survive reopen")
	}
	// The skipped range [0,4096) is a hole and reads as zeros.
	hole := make([]byte, 4096)
	for i := range hole {
		hole[i] = 0xFF
	}
	if _, err := s2.ReadAt(hole, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hole, make([]byte, 4096)) {
		t.Fatal("hole reads non-zero")
	}
}

func TestReadPastEOFZeroFills(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "d.img"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.WriteAt([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	// Read straddling EOF: prefix from the file, tail zero-filled.
	got := []byte{9, 9, 9, 9, 9, 9}
	n, err := s.ReadAt(got, 1)
	if err != nil || n != len(got) {
		t.Fatalf("straddling read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, []byte{2, 3, 0, 0, 0, 0}) {
		t.Fatalf("straddling read: %v", got)
	}
	if _, err := s.ReadAt(got, -1); err == nil {
		t.Fatal("negative offset should error")
	}
}

// TestRangedReadStraddlesEOF: a ranged disk read that starts inside the image
// and runs past its end is one pread whose tail is zero-filled — the blocks
// beyond EOF read as the unwritten blocks they are, and count as block I/Os
// like the rest of the run.
func TestRangedReadStraddlesEOF(t *testing.T) {
	const bs = 512
	b, err := NewBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, err := vdisk.NewArrayBackend(1, bs, b)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	d := a.Disk(0)
	data := bytes.Repeat([]byte{7}, 2*bs)
	if err := d.WriteBlocks(0, data); err != nil { // the image ends after block 1
		t.Fatal(err)
	}
	got := bytes.Repeat([]byte{9}, 4*bs)
	if err := d.ReadBlocks(1, got); err != nil { // blocks 1..4
		t.Fatal(err)
	}
	if !bytes.Equal(got[:bs], data[:bs]) {
		t.Fatal("the block inside the image did not read back")
	}
	if !bytes.Equal(got[bs:], make([]byte, 3*bs)) {
		t.Fatal("blocks past EOF did not read as zeros")
	}
	if st := d.Stats(); st.Reads != 4 || st.Writes != 2 {
		t.Fatalf("Stats %+v, want 4 reads and 2 writes", st)
	}
	// A ranged write past EOF extends the image sparsely, like a single one.
	if err := d.WriteBlocks(6, data); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadBlocks(4, got); err != nil { // blocks 4..7: two holes, two written
		t.Fatal(err)
	}
	if !bytes.Equal(got[:2*bs], make([]byte, 2*bs)) || !bytes.Equal(got[2*bs:], data) {
		t.Fatal("ranged write past EOF did not land at its blocks")
	}
}

func TestTrimTailTruncatesInteriorZeroes(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "d.img"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blk := bytes.Repeat([]byte{7}, 1024)
	if _, err := s.WriteAt(blk, 0); err != nil {
		t.Fatal(err)
	}

	// Interior trim zero-fills without shrinking the file.
	if err := s.Trim(256, 256); err != nil {
		t.Fatal(err)
	}
	if size, _ := s.Size(); size != 1024 {
		t.Fatalf("interior trim changed size to %d", size)
	}
	got := make([]byte, 256)
	if _, err := s.ReadAt(got, 256); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 256)) {
		t.Fatal("interior trim left non-zero bytes")
	}

	// Trim reaching EOF truncates, keeping the image small.
	if err := s.Trim(512, 1<<20); err != nil {
		t.Fatal(err)
	}
	if size, _ := s.Size(); size != 512 {
		t.Fatalf("tail trim: size %d, want 512", size)
	}
	// Trim entirely past EOF is a no-op.
	if err := s.Trim(1<<20, 4096); err != nil {
		t.Fatal(err)
	}
	if err := s.Trim(-1, 10); err == nil {
		t.Fatal("negative trim should error")
	}
}

func TestResetWipes(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "d.img"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.WriteAt([]byte{1}, 9999); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if size, _ := s.Size(); size != 0 {
		t.Fatalf("reset: size %d", size)
	}
}

func TestScanAndNames(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []int{3, 0, 11} {
		if err := os.WriteFile(filepath.Join(dir, DiskFileName(id)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Non-image noise must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "disk-0xxx.img"), 0o755); err != nil {
		t.Fatal(err)
	}
	ids, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 3, 11}
	if len(ids) != len(want) {
		t.Fatalf("scan: %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("scan: %v, want %v", ids, want)
		}
	}
}

func TestBackendOpenRejectsNegativeID(t *testing.T) {
	b, err := NewBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(-1, 512); err == nil {
		t.Fatal("negative id should error")
	}
}

func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("SyncDir of missing dir should error")
	}
}

func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
}

// TestFileDiskIOAllocationFree pins the durable backend's steady-state
// data path at zero allocations: Disk.Read/Write over a file store is
// pread/pwrite plus pooled buffers, same as the memory backend.
func TestFileDiskIOAllocationFree(t *testing.T) {
	skipIfRace(t)
	b, err := NewBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, err := vdisk.NewArrayBackend(1, 4096, b)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	d := a.Disk(0)
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := d.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := d.Read(0, buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
	}); n != 0 {
		t.Errorf("file-backed Read allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := d.Write(0, buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}); n != 0 {
		t.Errorf("file-backed Write allocates %.1f times per call, want 0", n)
	}
	run := make([]byte, 4*4096)
	if n := testing.AllocsPerRun(200, func() {
		if err := d.WriteBlocks(0, run); err != nil {
			t.Fatalf("WriteBlocks: %v", err)
		}
		if err := d.ReadBlocks(0, run); err != nil {
			t.Fatalf("ReadBlocks: %v", err)
		}
	}); n != 0 {
		t.Errorf("file-backed ranged I/O allocates %.1f times per write+read, want 0", n)
	}
}

// BenchmarkBlockWriteIntoRangedImage times a 4 KiB read-modify-write (pread
// then pwrite of one random block) against an image laid down by writes of
// the given size. The page cache keeps the folio size of the write that
// created a page, and a block write into a larger folio costs more: on the
// recorded host (Linux 6.18, ext4) 0.70 / 1.20 / 2.1 µs per pwrite into an
// image created 4 / 16 / 64 KiB at a time, the preads 1.6 µs throughout
// (EXPERIMENTS, "Column-ranged disk I/O": where the file workload's
// rmw_write_kops went). The image is as large as that workload's six.
func BenchmarkBlockWriteIntoRangedImage(b *testing.B) {
	const block, image = 4096, 384 << 20
	for _, created := range []int{4 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("created=%dKiB", created>>10), func(b *testing.B) {
			s, err := Open(filepath.Join(b.TempDir(), "disk.img"))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			run := make([]byte, created)
			for off := int64(0); off < image; off += int64(created) {
				if _, err := s.WriteAt(run, off); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(1))
			buf := make([]byte, block)
			var writing time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := rng.Int63n(image/block) * block
				if _, err := s.ReadAt(buf, off); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if _, err := s.WriteAt(buf, off); err != nil {
					b.Fatal(err)
				}
				writing += time.Since(start)
			}
			b.ReportMetric(float64(writing.Nanoseconds())/float64(b.N), "ns/pwrite")
		})
	}
}
