package durable

import (
	"errors"
	"fmt"

	"code56/internal/codes/evenodd"
	"code56/internal/codes/hcode"
	"code56/internal/codes/hdp"
	"code56/internal/codes/pcode"
	"code56/internal/codes/rdp"
	"code56/internal/codes/xcode"
	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/raid6"
)

// ManifestVersion is the current manifest format version.
const ManifestVersion = 1

// maxP bounds the prime a manifest may name. A code's chain tables grow
// with p² (≈ 10 MB and 10 ms at 257; 458 MB at 2003), and a manifest is read
// from a file anyone can edit, so the bound is checked before any table is
// built. 257 allows arrays of up to 259 disks, several times the widest this
// repository creates.
const maxP = 257

// Manifest identifies a RAID-6 array's code and geometry: the part of
// meta.json that says which erasure code the images are encoded with.
type Manifest struct {
	// Version is the manifest format version.
	Version int `json:"version"`
	// CodeName is the code's Name() ("code56", "rdp", "evenodd",
	// "xcode", "pcode", "pcode-p", "hcode", "hdp", "code56r").
	CodeName string `json:"code"`
	// P is the code's prime parameter.
	P int `json:"p"`
	// BlockSize is the array's block size in bytes.
	BlockSize int `json:"block_size"`
	// Stripes is the number of stripes the array holds.
	Stripes int64 `json:"stripes"`
	// Rotated records per-stripe parity rotation.
	Rotated bool `json:"rotated,omitempty"`
}

// ManifestFor derives the manifest of a live array.
func ManifestFor(a *raid6.Array, stripes int64) Manifest {
	return Manifest{
		Version:   ManifestVersion,
		CodeName:  a.Code().Name(),
		P:         a.Code().Geometry().P,
		BlockSize: a.BlockSize(),
		Stripes:   stripes,
		Rotated:   a.Rotated(),
	}
}

// BuildCode reconstructs the erasure code a manifest names. A prime beyond
// maxP is refused before anything is allocated.
func BuildCode(m Manifest) (layout.Code, error) {
	if m.P > maxP {
		return nil, fmt.Errorf("%w: p = %d exceeds the supported maximum %d", ErrBadMeta, m.P, maxP)
	}
	switch m.CodeName {
	case "code56":
		return core.New(m.P)
	case "code56r":
		return core.NewOriented(m.P, core.Right)
	case "rdp":
		return rdp.New(m.P)
	case "evenodd":
		return evenodd.New(m.P)
	case "xcode":
		return xcode.New(m.P)
	case "pcode":
		return pcode.New(m.P, pcode.VariantPMinus1)
	case "pcode-p":
		return pcode.New(m.P, pcode.VariantP)
	case "hcode":
		return hcode.New(m.P)
	case "hdp":
		return hdp.New(m.P)
	default:
		return nil, fmt.Errorf("%w: unknown code %q", ErrBadMeta, m.CodeName)
	}
}

// Validate checks internal consistency.
func (m Manifest) Validate() error {
	_, err := m.code()
	return err
}

// code validates the manifest and returns the code it names.
func (m Manifest) code() (layout.Code, error) {
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("%w: unsupported manifest version %d", ErrBadMeta, m.Version)
	}
	if m.BlockSize <= 0 {
		return nil, fmt.Errorf("%w: manifest block size %d", ErrBadMeta, m.BlockSize)
	}
	if m.Stripes < 0 {
		return nil, fmt.Errorf("%w: negative stripes", ErrBadMeta)
	}
	code, err := BuildCode(m)
	if err != nil {
		if errors.Is(err, ErrBadMeta) {
			return nil, err
		}
		// A code constructor rejecting the parameters (e.g. non-prime P)
		// means the manifest itself is bad; keep the rejection uniformly
		// detectable via errors.Is(err, ErrBadMeta).
		return nil, fmt.Errorf("%w: %v", ErrBadMeta, err)
	}
	return code, nil
}
