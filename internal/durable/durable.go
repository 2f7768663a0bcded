// Package durable defines the on-disk identity of a file-backed array
// directory: a meta.json describing what the images are (kind, geometry,
// layout), written atomically (temp file + fsync + rename + directory
// fsync) so a crash leaves either the old manifest or the new one, never
// a mix. The migration intent log (wal.log) lives beside it; together
// they make an array directory self-describing — reopen needs no
// out-of-band knowledge.
package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"code56/internal/raid5"
	"code56/internal/vdisk/filestore"
)

// MetaVersion is the current meta.json format version.
const MetaVersion = 1

// File names inside an array directory, beside the disk-NNNN.img files.
const (
	MetaFile = "meta.json"
	WALFile  = "wal.log"
)

// Array kinds.
const (
	KindRAID5 = "raid5"
	KindRAID6 = "raid6"
)

// ErrBadMeta is returned for malformed or unsupported metadata.
var ErrBadMeta = errors.New("durable: bad metadata")

// ErrNoMeta is returned when the directory has no meta.json at all.
var ErrNoMeta = errors.New("durable: no metadata")

// Meta is a directory's identity record. For a RAID-5 it carries the
// layout and the data-row count; for a RAID-6 it embeds the Manifest (code
// name, prime, rotation). The migration's meta flip —
// the single atomic step that turns a RAID-5 directory into a RAID-6
// one — replaces a KindRAID5 Meta with a KindRAID6 one.
type Meta struct {
	Version   int    `json:"version"`
	Kind      string `json:"kind"`
	BlockSize int    `json:"block_size"`
	// Disks is the image-file count the directory should hold (data +
	// parity; for a mid-migration RAID-5 the extra diagonal disk is on
	// media but not yet counted here). For a RAID-6 it is the code's
	// column count.
	Disks int `json:"disks"`
	// Layout is the RAID-5 parity rotation (md-style name); empty for
	// RAID-6.
	Layout string `json:"layout,omitempty"`
	// Rows is the RAID-5 data-row count — what a migration will convert.
	Rows int64 `json:"rows,omitempty"`
	// Manifest is the RAID-6 identity (code, prime, stripes, rotation).
	Manifest *Manifest `json:"manifest,omitempty"`
}

// ParseLayout maps an md-style layout name back to the raid5 constant.
func ParseLayout(name string) (raid5.Layout, error) {
	for _, l := range []raid5.Layout{
		raid5.LeftAsymmetric, raid5.LeftSymmetric,
		raid5.RightAsymmetric, raid5.RightSymmetric,
	} {
		if l.String() == name {
			return l, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown layout %q", ErrBadMeta, name)
}

// Validate checks internal consistency.
func (m Meta) Validate() error {
	if m.Version != MetaVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadMeta, m.Version)
	}
	if m.BlockSize <= 0 {
		return fmt.Errorf("%w: block size %d", ErrBadMeta, m.BlockSize)
	}
	if m.Disks <= 0 {
		return fmt.Errorf("%w: disk count %d", ErrBadMeta, m.Disks)
	}
	switch m.Kind {
	case KindRAID5:
		if _, err := ParseLayout(m.Layout); err != nil {
			return err
		}
		if m.Rows < 0 {
			return fmt.Errorf("%w: negative rows", ErrBadMeta)
		}
	case KindRAID6:
		if m.Manifest == nil {
			return fmt.Errorf("%w: raid6 meta without manifest", ErrBadMeta)
		}
		code, err := m.Manifest.code()
		if err != nil {
			return err
		}
		if m.Manifest.BlockSize != m.BlockSize {
			return fmt.Errorf("%w: manifest block size %d vs meta %d",
				ErrBadMeta, m.Manifest.BlockSize, m.BlockSize)
		}
		if cols := code.Geometry().Cols; m.Disks != cols {
			return fmt.Errorf("%w: %d disks for the %d-column %s(p=%d)",
				ErrBadMeta, m.Disks, cols, m.Manifest.CodeName, m.Manifest.P)
		}
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadMeta, m.Kind)
	}
	return nil
}

// Save writes meta.json atomically: marshal to a temp file in the same
// directory, fsync it, rename over the target, fsync the directory. A
// crash at any point leaves either the previous meta.json or the new
// one — the rename is the commit point.
func Save(dir string, m Meta) error {
	if err := m.Validate(); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, MetaFile+".tmp*")
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once the rename lands
	if _, err := tmp.Write(append(blob, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, MetaFile)); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return filestore.SyncDir(dir)
}

// Load reads and validates the directory's meta.json. A missing file is
// ErrNoMeta (distinguishable from a corrupt one, which is ErrBadMeta).
func Load(dir string) (Meta, error) {
	blob, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Meta{}, fmt.Errorf("%w: %s", ErrNoMeta, dir)
		}
		return Meta{}, fmt.Errorf("durable: %w", err)
	}
	var m Meta
	if err := json.Unmarshal(blob, &m); err != nil {
		return Meta{}, fmt.Errorf("%w: %v", ErrBadMeta, err)
	}
	if err := m.Validate(); err != nil {
		return Meta{}, err
	}
	return m, nil
}

// WALPath returns the directory's intent-log path.
func WALPath(dir string) string { return filepath.Join(dir, WALFile) }
