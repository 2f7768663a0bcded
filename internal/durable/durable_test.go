package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"code56/internal/raid5"
)

func raid5Meta() Meta {
	return Meta{
		Version:   MetaVersion,
		Kind:      KindRAID5,
		BlockSize: 4096,
		Disks:     4,
		Layout:    raid5.LeftAsymmetric.String(),
		Rows:      16,
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	want := raid5Meta()
	if err := Save(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("roundtrip: %+v != %+v", got, want)
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("leftover files: %v", entries)
	}
}

func TestSaveIsAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, raid5Meta()); err != nil {
		t.Fatal(err)
	}
	// The migration's meta flip: RAID-5 → RAID-6 in one rename.
	flip := Meta{
		Version:   MetaVersion,
		Kind:      KindRAID6,
		BlockSize: 4096,
		Disks:     5,
		Manifest: &Manifest{
			Version:   ManifestVersion,
			CodeName:  "code56",
			P:         5,
			BlockSize: 4096,
			Stripes:   4,
		},
	}
	if err := Save(dir, flip); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindRAID6 || got.Manifest == nil || got.Manifest.CodeName != "code56" {
		t.Fatalf("flip: %+v", got)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); !errors.Is(err, ErrNoMeta) {
		t.Fatalf("missing meta: %v", err)
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, MetaFile), []byte("{not json"), 0o644)
	if _, err := Load(dir); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("corrupt meta: %v", err)
	}
	os.WriteFile(filepath.Join(dir, MetaFile), []byte(`{"version":1,"kind":"zfs","block_size":512,"disks":3}`), 0o644)
	if _, err := Load(dir); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("unknown kind: %v", err)
	}
}

func TestValidate(t *testing.T) {
	cases := []func(*Meta){
		func(m *Meta) { m.Version = 99 },
		func(m *Meta) { m.BlockSize = 0 },
		func(m *Meta) { m.Disks = 0 },
		func(m *Meta) { m.Layout = "diagonal" },
		func(m *Meta) { m.Rows = -1 },
		func(m *Meta) { m.Kind = KindRAID6 }, // raid6 without manifest
	}
	for i, mut := range cases {
		m := raid5Meta()
		mut(&m)
		if err := m.Validate(); !errors.Is(err, ErrBadMeta) {
			t.Errorf("case %d: %v", i, err)
		}
	}
	// Manifest/meta block-size mismatch.
	m := Meta{
		Version: MetaVersion, Kind: KindRAID6, BlockSize: 4096, Disks: 5,
		Manifest: &Manifest{
			Version: ManifestVersion, CodeName: "code56",
			P: 5, BlockSize: 512, Stripes: 1,
		},
	}
	if err := m.Validate(); !errors.Is(err, ErrBadMeta) {
		t.Errorf("block-size mismatch: %v", err)
	}
}

func TestParseLayoutRoundtrip(t *testing.T) {
	for _, l := range []raid5.Layout{
		raid5.LeftAsymmetric, raid5.LeftSymmetric,
		raid5.RightAsymmetric, raid5.RightSymmetric,
	} {
		got, err := ParseLayout(l.String())
		if err != nil || got != l {
			t.Errorf("%v: got %v err %v", l, got, err)
		}
	}
}
