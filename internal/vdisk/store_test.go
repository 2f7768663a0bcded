package vdisk_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"code56/internal/layout"
	"code56/internal/vdisk"
	"code56/internal/vdisk/filestore"
)

// storeBackends returns one fresh Backend per implementation, so every
// contract test runs identically over memory and files.
func storeBackends(t *testing.T) map[string]vdisk.Backend {
	t.Helper()
	fb, err := filestore.NewBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]vdisk.Backend{
		"mem":  vdisk.MemBackend{},
		"file": fb,
	}
}

// TestStoreContract drives the BlockStore contract — sparse zero reads,
// roundtrips, unaligned spans, size high-water, trim, reset, refusal after
// close — identically over both backends.
func TestStoreContract(t *testing.T) {
	for name, backend := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			s, err := backend.Open(0, 512)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close() // early exits; the contract's own Close is below

			// Unwritten ranges read as zero, even far past any write.
			buf := make([]byte, 1024)
			for i := range buf {
				buf[i] = 0xAA
			}
			if n, err := s.ReadAt(buf, 1<<20); err != nil || n != len(buf) {
				t.Fatalf("sparse read: n=%d err=%v", n, err)
			}
			if !bytes.Equal(buf, make([]byte, 1024)) {
				t.Fatal("sparse read returned non-zero bytes")
			}

			// Aligned write/read roundtrip.
			blk := bytes.Repeat([]byte{7}, 512)
			if _, err := s.WriteAt(blk, 512); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 512)
			if _, err := s.ReadAt(got, 512); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, blk) {
				t.Fatal("roundtrip mismatch")
			}

			// Unaligned span across block boundaries.
			span := []byte("unaligned-span-crossing-blocks")
			if _, err := s.WriteAt(span, 500); err != nil {
				t.Fatal(err)
			}
			got = make([]byte, len(span))
			if _, err := s.ReadAt(got, 500); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, span) {
				t.Fatalf("unaligned roundtrip: got %q want %q", got, span)
			}

			// Size is the high-water mark.
			size, err := s.Size()
			if err != nil {
				t.Fatal(err)
			}
			if size < 1024 {
				t.Fatalf("size %d, want >= 1024", size)
			}

			// Trim: the range reads as zero afterwards.
			tr, ok := s.(vdisk.Trimmer)
			if !ok {
				t.Fatal("store does not implement Trimmer")
			}
			if err := tr.Trim(512, 512); err != nil {
				t.Fatal(err)
			}
			got = make([]byte, 512)
			for i := range got {
				got[i] = 0xAA
			}
			if _, err := s.ReadAt(got, 512); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[12:], make([]byte, 500)) {
				t.Fatal("trimmed range reads non-zero")
			}

			// Reset returns the store to its pristine state.
			rs, ok := s.(vdisk.Resetter)
			if !ok {
				t.Fatal("store does not implement Resetter")
			}
			if err := rs.Reset(); err != nil {
				t.Fatal(err)
			}
			if size, err := s.Size(); err != nil || size != 0 {
				t.Fatalf("after reset: size=%d err=%v", size, err)
			}

			if err := s.Sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}

			// Close: the store is unusable after, and says so.
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if _, err := s.ReadAt(got, 512); !errors.Is(err, os.ErrClosed) {
				t.Errorf("read after close: %v, want os.ErrClosed", err)
			}
			if _, err := s.WriteAt(blk, 512); !errors.Is(err, os.ErrClosed) {
				t.Errorf("write after close: %v, want os.ErrClosed", err)
			}
			if err := tr.Trim(512, 512); !errors.Is(err, os.ErrClosed) {
				t.Errorf("trim after close: %v, want os.ErrClosed", err)
			}
			if err := rs.Reset(); !errors.Is(err, os.ErrClosed) {
				t.Errorf("reset after close: %v, want os.ErrClosed", err)
			}
			// XOR in place is optional; the memory store has it.
			x, ok := s.(vdisk.Xorer)
			if !ok {
				if name == "mem" {
					t.Error("the memory store does not offer XorAt and ReadFoldAt")
				}
				return
			}
			if _, err := x.XorAt(blk, 512); !errors.Is(err, os.ErrClosed) {
				t.Errorf("fold after close: %v, want os.ErrClosed", err)
			}
			acc := bytes.Repeat([]byte{0xAA}, 512)
			if err := x.ReadFoldAt(acc, 512, 512, []layout.FoldRun{{N: 1}}); !errors.Is(err, os.ErrClosed) {
				t.Errorf("read-fold after close: %v, want os.ErrClosed", err)
			}
			if !bytes.Equal(acc, bytes.Repeat([]byte{0xAA}, 512)) {
				t.Error("a refused read-fold changed its accumulator")
			}
		})
	}
}

// TestDiskOverBackends runs Disk-level semantics — zero reads, latent
// errors, fail/replace, trim, stats — identically over both backends:
// the simulation machinery must not care where the bytes live.
func TestDiskOverBackends(t *testing.T) {
	for name, backend := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			a, err := vdisk.NewArrayBackend(3, 256, backend)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			d := a.Disk(1)

			blk := bytes.Repeat([]byte{3}, 256)
			if err := d.Write(7, blk); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 256)
			if err := d.Read(7, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, blk) {
				t.Fatal("roundtrip mismatch")
			}
			if err := d.Read(1000, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, make([]byte, 256)) {
				t.Fatal("unwritten block reads non-zero")
			}

			// Latent error: read fails until rewritten.
			d.InjectLatentError(7)
			if err := d.Read(7, got); !errors.Is(err, vdisk.ErrLatent) {
				t.Fatalf("latent read: %v", err)
			}
			if err := d.Write(7, blk); err != nil {
				t.Fatal(err)
			}
			if err := d.Read(7, got); err != nil {
				t.Fatal(err)
			}

			// Fail-stop and replace: contents wiped, the block stale until
			// written, I/O resumes.
			d.Fail()
			if err := d.Read(7, got); !errors.Is(err, vdisk.ErrFailed) {
				t.Fatalf("failed read: %v", err)
			}
			if err := d.Sync(); !errors.Is(err, vdisk.ErrFailed) {
				t.Fatalf("failed sync: %v", err)
			}
			d.Replace()
			if err := d.Read(7, got); !errors.Is(err, vdisk.ErrStale) {
				t.Fatalf("read of a replaced disk's block: %v, want ErrStale", err)
			}
			if _, err := d.Store().ReadAt(got, 7*256); err != nil || !bytes.Equal(got, make([]byte, 256)) {
				t.Fatalf("replaced medium kept old contents (%v)", err)
			}
			if err := d.Write(7, blk); err != nil {
				t.Fatal(err)
			}
			if err := d.Read(7, got); err != nil || !bytes.Equal(got, blk) {
				t.Fatalf("read after rewrite: %v", err)
			}

			// Trim reads back as zeros and is not counted as I/O.
			if err := d.Write(3, blk); err != nil {
				t.Fatal(err)
			}
			pre := d.Stats()
			d.Trim(3)
			if st := d.Stats(); st != pre {
				t.Fatalf("trim moved stats: %+v -> %+v", pre, st)
			}
			if err := d.Read(3, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, make([]byte, 256)) {
				t.Fatal("trimmed block reads non-zero")
			}

			if err := a.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFaultInjectionUniformAcrossBackends arms the same deterministic
// fault scenario over both backends and requires the identical fault
// sequence: the injector draws from the I/O stream, not the media.
func TestFaultInjectionUniformAcrossBackends(t *testing.T) {
	results := make(map[string][]bool)
	for name, backend := range storeBackends(t) {
		a, err := vdisk.NewArrayBackend(2, 128, backend)
		if err != nil {
			t.Fatal(err)
		}
		cfg := vdisk.FaultConfig{Seed: 42, ReadTransientProb: 0.3}
		if err := a.SetFaults(cfg); err != nil {
			t.Fatal(err)
		}
		var seq []bool
		buf := make([]byte, 128)
		for i := 0; i < 64; i++ {
			err := a.Disk(0).Read(int64(i), buf)
			seq = append(seq, errors.Is(err, vdisk.ErrTransient))
		}
		results[name] = seq
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(results["mem"]) == 0 {
		t.Fatal("no fault sequence recorded")
	}
	for i := range results["mem"] {
		if results["mem"][i] != results["file"][i] {
			t.Fatalf("fault sequence diverges at I/O %d: mem=%v file=%v",
				i, results["mem"][i], results["file"][i])
		}
	}
}

// TestAttachOverFileBackend: the migration's "add a disk" step must mint
// a durable image, and reopening the directory must see it.
func TestAttachOverFileBackend(t *testing.T) {
	dir := t.TempDir()
	fb, err := filestore.NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := vdisk.NewArrayBackend(2, 128, fb)
	if err != nil {
		t.Fatal(err)
	}
	d, err := a.Attach()
	if err != nil {
		t.Fatal(err)
	}
	blk := bytes.Repeat([]byte{1}, 128)
	if err := d.Write(0, blk); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	ids, err := filestore.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[2] != 2 {
		t.Fatalf("scan: %v, want [0 1 2]", ids)
	}
	fb2, err := filestore.NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := vdisk.NewArrayFrom(128, fb2, ids)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := make([]byte, 128)
	if err := b.Disk(2).Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blk) {
		t.Fatal("attached disk's contents not durable")
	}
	if _, err := filestore.Scan(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("scan of missing dir should error")
	}
}
