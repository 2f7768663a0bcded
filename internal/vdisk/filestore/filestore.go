// Package filestore is the durable vdisk backend: one sparse local file
// per disk, accessed with pread/pwrite (os.File.ReadAt/WriteAt) and
// explicit fsync barriers. It is what turns every kill/resume scenario
// from synthetic to real — a file-backed array survives a SIGKILL and
// reopens to exactly the bytes that were synced.
//
// Layout: a Backend owns a directory and mints one image file per disk
// slot, named disk-NNNN.img. Holes in the image (writes past EOF, trimmed
// ranges) read as zeros, matching the vdisk sparse contract. The files
// carry no header — the array's geometry and identity live in the
// directory's meta.json (internal/durable) and the migration intent log
// (internal/wal), never in the data path.
package filestore

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"code56/internal/bufpool"
	"code56/internal/vdisk"
)

// Store is a BlockStore over one sparse local file.
type Store struct {
	f *os.File
}

// Open creates or opens the image file at path. An existing file keeps
// its contents — that is the reopen path.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filestore: %w", err)
	}
	return &Store{f: f}, nil
}

// ReadAt fills p from offset off. Ranges beyond EOF (and holes) read as
// zeros and never return io.EOF, per the vdisk sparse contract.
func (s *Store) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("filestore: read at negative offset %d", off)
	}
	n, err := s.f.ReadAt(p, off)
	if err == io.EOF {
		tail := p[n:]
		for i := range tail {
			tail[i] = 0
		}
		return len(p), nil
	}
	return n, err
}

// WriteAt stores p at offset off; writes past EOF extend the file
// sparsely (the filesystem materializes holes for the skipped range).
func (s *Store) WriteAt(p []byte, off int64) (int, error) {
	return s.f.WriteAt(p, off)
}

// Size returns the file's current size (the high-water mark).
func (s *Store) Size() (int64, error) {
	st, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Sync is the durability barrier: fsync the image file.
func (s *Store) Sync() error { return s.f.Sync() }

// Close closes the image file.
func (s *Store) Close() error { return s.f.Close() }

// Reset truncates the image to empty — Disk.Replace's fresh-drive wipe.
func (s *Store) Reset() error { return s.f.Truncate(0) }

// Trim zeroes the byte range. A range reaching EOF is truncated away
// (keeping the image sparse); interior ranges are zero-filled in pooled
// chunks, since portable Go has no hole punching.
func (s *Store) Trim(off, length int64) error {
	if off < 0 || length < 0 {
		return fmt.Errorf("filestore: trim [%d,+%d)", off, length)
	}
	size, err := s.Size()
	if err != nil {
		return err
	}
	if off >= size {
		return nil
	}
	if off+length >= size {
		return s.f.Truncate(off)
	}
	const chunk = 64 << 10
	zero := bufpool.GetZero(chunk)
	defer bufpool.Put(zero)
	for length > 0 {
		c := int64(chunk)
		if length < c {
			c = length
		}
		if _, err := s.f.WriteAt(zero[:c], off); err != nil {
			return err
		}
		off += c
		length -= c
	}
	return nil
}

// Path returns the image file's path.
func (s *Store) Path() string { return s.f.Name() }

// Backend mints one image file per disk slot inside a directory. It
// implements vdisk.Backend.
type Backend struct {
	dir string
}

// NewBackend returns a Backend over dir, creating the directory if
// needed.
func NewBackend(dir string) (*Backend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("filestore: %w", err)
	}
	return &Backend{dir: dir}, nil
}

// Dir returns the backing directory. The facade uses it to locate the
// array's meta.json and migration intent log next to the images.
func (b *Backend) Dir() string { return b.dir }

// Open creates or reopens the image for the slot.
func (b *Backend) Open(id, blockSize int) (vdisk.BlockStore, error) {
	if id < 0 {
		return nil, fmt.Errorf("filestore: negative disk id %d", id)
	}
	return Open(filepath.Join(b.dir, DiskFileName(id)))
}

// DiskFileName returns the image file name for a disk slot.
func DiskFileName(id int) string { return fmt.Sprintf("disk-%04d.img", id) }

// Scan returns the disk slot ids with image files present in dir, sorted
// ascending — how reopen discovers the on-media geometry (including a
// diagonal-parity disk added by an interrupted migration). An image file is
// named exactly DiskFileName(id): a backup such as disk-0003.img.bak, or
// disk-3.img, is not one.
func Scan(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("filestore: %w", err)
	}
	var ids []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(e.Name(), "disk-%d.img", &id); err == nil && id >= 0 && e.Name() == DiskFileName(id) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, nil
}

// SyncDir fsyncs the directory itself, making renames and newly created
// files inside it durable (the metadata barrier after an atomic
// meta.json swap).
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems cannot fsync a directory handle; the rename
		// itself is still atomic, only its durability is best-effort.
		var pe *fs.PathError
		if errors.As(err, &pe) {
			return nil
		}
		return err
	}
	return nil
}
