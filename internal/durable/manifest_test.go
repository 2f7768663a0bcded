package durable

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"code56/internal/core"
	"code56/internal/raid6"
)

var codeNames = []string{"code56", "code56r", "rdp", "evenodd", "xcode", "pcode", "pcode-p", "hcode", "hdp"}

func TestBuildCodeAllNames(t *testing.T) {
	for _, name := range codeNames {
		m := Manifest{Version: ManifestVersion, CodeName: name, P: 5, BlockSize: 512, Stripes: 1}
		code, err := BuildCode(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if code.Name() != name {
			t.Errorf("built %q, want %q", code.Name(), name)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := BuildCode(Manifest{Version: 1, CodeName: "nonesuch", P: 5}); !errors.Is(err, ErrBadMeta) {
		t.Error("unknown code accepted")
	}
}

func TestManifestValidate(t *testing.T) {
	good := Manifest{Version: ManifestVersion, CodeName: "code56", P: 5, BlockSize: 512, Stripes: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Manifest{
		{Version: 99, CodeName: "code56", P: 5, BlockSize: 512},
		{Version: 1, CodeName: "code56", P: 5, BlockSize: 0},
		{Version: 1, CodeName: "code56", P: 5, BlockSize: 512, Stripes: -1},
		{Version: 1, CodeName: "code56", P: 4, BlockSize: 512},
		{Version: 1, CodeName: "code56", P: -5, BlockSize: 512},
		{Version: 1, CodeName: "code56", P: 263, BlockSize: 512}, // the first prime past maxP
	}
	for i, m := range bads {
		if err := m.Validate(); !errors.Is(err, ErrBadMeta) {
			t.Errorf("bad manifest %d: %v", i, err)
		}
	}
	if err := (Manifest{Version: 1, CodeName: "code56", P: maxP, BlockSize: 512}).Validate(); err != nil {
		t.Errorf("p = maxP rejected: %v", err)
	}
}

func TestManifestFor(t *testing.T) {
	a := raid6.New(core.MustNew(7), 64)
	a.SetRotation(true)
	want := Manifest{Version: ManifestVersion, CodeName: "code56", P: 7, BlockSize: 64, Stripes: 3, Rotated: true}
	if got := ManifestFor(a, 3); got != want {
		t.Fatalf("ManifestFor = %+v, want %+v", got, want)
	}
}

// raid6Meta is a valid RAID-6 identity for the named code at p = 5.
func raid6Meta(t testing.TB, name string) Meta {
	t.Helper()
	m := Manifest{Version: ManifestVersion, CodeName: name, P: 5, BlockSize: 64, Stripes: 1}
	code, err := BuildCode(m)
	if err != nil {
		t.Fatal(err)
	}
	return Meta{Version: MetaVersion, Kind: KindRAID6, BlockSize: 64, Disks: code.Geometry().Cols, Manifest: &m}
}

// TestSaveLoadEveryCode round-trips the identity of an array of every code
// through meta.json: the loaded manifest rebuilds the same code, and a disk
// count that is not the code's column count is refused in both directions.
func TestSaveLoadEveryCode(t *testing.T) {
	for _, name := range codeNames {
		dir := t.TempDir()
		want := raid6Meta(t, name)
		if err := Save(dir, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Load(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Disks != want.Disks || *got.Manifest != *want.Manifest {
			t.Fatalf("%s: loaded %+v %+v, saved %+v %+v", name, got, *got.Manifest, want, *want.Manifest)
		}
		code, err := BuildCode(*got.Manifest)
		if err != nil || code.Name() != name {
			t.Fatalf("%s: rebuilt %v, %v", name, code, err)
		}
		for _, off := range []int{-1, 1} {
			bad := want
			bad.Disks += off
			if err := bad.Validate(); !errors.Is(err, ErrBadMeta) {
				t.Errorf("%s: %d disks for %d columns: %v", name, bad.Disks, want.Disks, err)
			}
		}
	}
}

// writeMeta plants raw bytes as dir's meta.json.
func writeMeta(t testing.TB, dir string, blob []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, MetaFile), blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRejectsOversizedP: a 140-byte meta.json naming a huge prime must be
// refused at once, before a code (458 MB of chain tables at p = 2003, more
// than the machine at 20011) is built from it.
func TestLoadRejectsOversizedP(t *testing.T) {
	for _, p := range []string{"2003", "20011"} {
		dir := t.TempDir()
		writeMeta(t, dir, []byte(`{"version":1,"kind":"raid6","block_size":64,"disks":`+p+
			`,"manifest":{"version":1,"code":"code56","p":`+p+`,"block_size":64,"stripes":1}}`))
		start := time.Now()
		_, err := Load(dir)
		if !errors.Is(err, ErrBadMeta) {
			t.Errorf("p = %s: %v, want ErrBadMeta", p, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("p = %s: refused after %v", p, d)
		}
	}
}

// TestLoadFuzzTable drives Load with truncated, corrupted and inconsistent
// meta.json files. Every case must fail with ErrBadMeta — never panic, never
// hand back an identity Validate would refuse.
func TestLoadFuzzTable(t *testing.T) {
	ok := raid6Meta(t, "code56")
	good, err := json.Marshal(ok)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeMeta(t, dir, good)
	if _, err := Load(dir); err != nil {
		t.Fatalf("baseline meta.json rejected: %v", err)
	}

	mutated := func(mut func(*Meta, *Manifest)) []byte {
		m, mf := ok, *ok.Manifest
		m.Manifest = &mf
		mut(&m, &mf)
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	cases := []struct {
		name string
		blob []byte
	}{
		{"empty", nil},
		{"not JSON", good[:len(good)/2]},
		{"null", []byte("null")},
		{"wrong version", mutated(func(m *Meta, _ *Manifest) { m.Version = 99 })},
		{"zero block size", mutated(func(m *Meta, _ *Manifest) { m.BlockSize = 0 })},
		{"zero disks", mutated(func(m *Meta, _ *Manifest) { m.Disks = 0 })},
		{"no manifest", mutated(func(m *Meta, _ *Manifest) { m.Manifest = nil })},
		{"wrong manifest version", mutated(func(_ *Meta, mf *Manifest) { mf.Version = 99 })},
		{"zero manifest block size", mutated(func(_ *Meta, mf *Manifest) { mf.BlockSize = 0 })},
		{"negative stripes", mutated(func(_ *Meta, mf *Manifest) { mf.Stripes = -1 })},
		{"unknown code", mutated(func(_ *Meta, mf *Manifest) { mf.CodeName = "nonesuch" })},
		{"non-prime p", mutated(func(_ *Meta, mf *Manifest) { mf.P = 6 })},
		{"oversized p", mutated(func(m *Meta, mf *Manifest) { mf.P, m.Disks = 2003, 2003 })},
		{"block sizes disagree", mutated(func(_ *Meta, mf *Manifest) { mf.BlockSize = 32 })},
		{"disks disagree with the code", mutated(func(m *Meta, _ *Manifest) { m.Disks = 6 })},
		{"another code's disk count", mutated(func(_ *Meta, mf *Manifest) { mf.CodeName = "evenodd" })},
	}
	for _, tc := range cases {
		writeMeta(t, dir, tc.blob)
		if m, err := Load(dir); !errors.Is(err, ErrBadMeta) {
			t.Errorf("%s: Load = %+v, %v; want ErrBadMeta", tc.name, m, err)
		}
	}

	// Every truncation must fail cleanly, and no single corrupted byte may
	// crash the loader or smuggle through an identity that does not validate.
	for n := 0; n < len(good); n++ {
		writeMeta(t, dir, good[:n])
		if _, err := Load(dir); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", n, len(good))
		}
	}
	for i := range good {
		mut := append([]byte{}, good...)
		mut[i] ^= 0xFF
		writeMeta(t, dir, mut)
		m, err := Load(dir)
		if err != nil {
			continue // rejected: fine
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("byte %d flip: loaded an invalid identity %+v: %v", i, m, verr)
		}
	}
}

// FuzzMeta throws arbitrary bytes at the path Load takes a meta.json
// through: parse, Validate, BuildCode. Malformed input must fail with an
// error — never panic — and whatever validates names a code no wider than
// maxP allows, with exactly the disks the identity counts. Run with
// `go test -fuzz=FuzzMeta` to explore; the seeds here and in
// testdata/fuzz/FuzzMeta (the manifests of the stream fuzzer this one
// replaced) run on every plain `go test`.
func FuzzMeta(f *testing.F) {
	for _, name := range codeNames {
		blob, err := json.Marshal(raid6Meta(f, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	r5, err := json.Marshal(raid5Meta())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(r5)
	f.Add([]byte{})
	f.Add([]byte(`{"version":1,"kind":"raid6","block_size":64,"disks":5,"manifest":null}`))
	f.Add([]byte(`{"version":1,"kind":"raid6","block_size":64,"disks":2003,"manifest":{"version":1,"code":"code56","p":2003,"block_size":64,"stripes":1}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Meta
		if json.Unmarshal(data, &m) != nil {
			return
		}
		if m.Manifest != nil && m.Manifest.P > maxP {
			if _, err := BuildCode(*m.Manifest); !errors.Is(err, ErrBadMeta) {
				t.Fatalf("BuildCode built p = %d: %v", m.Manifest.P, err)
			}
		}
		if m.Validate() != nil || m.Kind != KindRAID6 {
			return // rejecting garbage is the expected outcome
		}
		code, err := BuildCode(*m.Manifest)
		if err != nil {
			t.Fatalf("validated identity %+v names no code: %v", *m.Manifest, err)
		}
		if g := code.Geometry(); g.P > maxP || g.Cols != m.Disks {
			t.Fatalf("validated identity counts %d disks for %s(p=%d) with %d columns", m.Disks, code.Name(), g.P, g.Cols)
		}
	})
}
