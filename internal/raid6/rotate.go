package raid6

import (
	"fmt"

	"code56/internal/bufpool"
	"code56/internal/layout"
	"code56/internal/vdisk"
	"code56/internal/xorblk"
)

// SetRotation enables or disables per-stripe column rotation: with rotation
// on, logical column c of stripe s lives on disk (c + s) mod n. This is the
// paper's "with load balancing support" implementation (§V-B): codes with
// dedicated parity columns (RDP, EVENODD, Code 5-6) would otherwise
// concentrate parity traffic on fixed disks. Call before any I/O; changing
// the mapping on a populated array scrambles it.
func (a *Array) SetRotation(on bool) { a.rotate = on }

// Rotated reports whether per-stripe column rotation is enabled.
func (a *Array) Rotated() bool { return a.rotate }

// diskFor maps a stripe's logical column to its physical disk.
//
//c56:noalloc
func (a *Array) diskFor(stripe int64, col int) *vdisk.Disk {
	if a.rotate {
		col = (col + int(stripe%int64(a.geom.Cols))) % a.geom.Cols
	}
	return a.disks.Disk(col)
}

// colOnDisk inverts diskFor: the logical column that disk d serves in the
// given stripe.
//
//c56:noalloc
func (a *Array) colOnDisk(stripe int64, d int) int {
	if a.rotate {
		return ((d-int(stripe%int64(a.geom.Cols)))%a.geom.Cols + a.geom.Cols) % a.geom.Cols
	}
	return d
}

// ScrubMode selects what a scrub pass does with the problems it finds.
type ScrubMode int

const (
	// ScrubRepair (the zero value, and the historical behavior) rebuilds
	// and rewrites bad blocks: latent sector errors are reconstructed from
	// redundancy, located silent corruptions are overwritten.
	ScrubRepair ScrubMode = iota
	// ScrubCheck only detects and counts problems, leaving disks untouched.
	ScrubCheck
)

// ScrubReport summarizes a scrub pass (the defense against the latent
// sector errors and undetected disk errors motivating the paper's §I).
type ScrubReport struct {
	// Stripes is the number of stripes checked.
	Stripes int64
	// LatentFound counts blocks that returned latent sector errors.
	LatentFound int
	// LatentRepaired counts latent blocks rebuilt and rewritten (always 0
	// in ScrubCheck mode).
	LatentRepaired int
	// CorruptFound counts silently corrupted blocks located by parity
	// syndrome intersection.
	CorruptFound int
	// CorruptRepaired counts located corruptions rewritten (always 0 in
	// ScrubCheck mode).
	CorruptRepaired int
	// Unrecoverable lists stripes whose inconsistency could not be
	// attributed to a single block.
	Unrecoverable []int64
}

// Clean reports whether the pass found nothing wrong.
func (r ScrubReport) Clean() bool {
	return r.LatentFound == 0 && r.CorruptFound == 0 && len(r.Unrecoverable) == 0
}

// scrubResult is one stripe's scrub outcome.
type scrubResult struct {
	latentFound, latentRepaired   int
	corruptFound, corruptRepaired int
	unrecoverable                 bool
}

// add folds one stripe's result into the report.
func (r *ScrubReport) add(st int64, res scrubResult) {
	r.LatentFound += res.latentFound
	r.LatentRepaired += res.latentRepaired
	r.CorruptFound += res.corruptFound
	r.CorruptRepaired += res.corruptRepaired
	if res.unrecoverable {
		r.Unrecoverable = append(r.Unrecoverable, st)
	}
}

// scrubStripe runs one stripe's scrub pass. The check is every chain's
// syndrome folded straight from the disks (see fold; check is the decoder's
// Syndromes schedule, compiled once a pass): a stripe that reads and folds to
// zero is clean, and nothing more is done; any other, or one whose read met an
// error redundancy serves, is loaded and looked into (scrubDamaged).
// It touches only stripe st's block range, so distinct stripes may be
// scrubbed concurrently, and holds it exclusive: to the syndrome check a
// stripe in the middle of a small write is a corrupt one.
//
//c56:noalloc
func (a *Array) scrubStripe(st int64, repair bool, check []layout.ColumnFold) (scrubResult, error) {
	lk := a.disks.StripeLock(st)
	lk.Lock()
	defer lk.Unlock()
	syndromes := bufpool.Get(len(a.chains) * a.blockSize)
	err := a.fold(st, check, syndromes)
	clean := err == nil && xorblk.IsZero(syndromes)
	bufpool.Put(syndromes)
	if clean {
		return scrubResult{}, nil
	}
	if err != nil && !vdisk.IsDegradable(err) {
		return scrubResult{}, err
	}
	return a.scrubDamaged(st, repair) //lint:allow noalloc a stripe that fails the check is loaded and decoded; clean stripes are the steady state
}

// scrubDamaged loads a stripe that failed scrubStripe's check: the cells it
// cannot read are reconstructed and the latent sectors among them — those
// whose read returned ErrLatent, not a transient error or a block not yet
// rebuilt — are counted and healed, then the parity-syndrome check locates
// and repairs silent single-block corruption. With repair false it only
// detects. A disk that is down is an error, not a column of bad sectors.
// Stripe held, exclusive.
func (a *Array) scrubDamaged(st int64, repair bool) (res scrubResult, _ error) {
	if a.failedColumns().Len() > 0 {
		return res, fmt.Errorf("raid6: scrubbing stripe %d with a disk down: %w", st, vdisk.ErrFailed)
	}
	var latent []layout.Coord
	s, es, err := a.loadStripe(st, &latent)
	if err != nil {
		return res, err
	}
	defer a.stripes.Put(s)
	res.latentFound = len(latent)
	if len(es) > 0 {
		if _, err := a.dec.Reconstruct(s, es); err != nil {
			res.unrecoverable = true
			return res, nil
		}
		if repair {
			for _, c := range latent {
				if err := a.diskFor(st, c.Col).Write(a.blockAddr(st, c), s.Block(c)); err != nil {
					return res, err
				}
				res.latentRepaired++
				a.tel.scrubRepairs.Inc()
			}
		}
	}

	// Syndrome check for silent corruption.
	if a.enc.Verify(s) {
		return res, nil
	}
	cell, ok := locateCorruption(a.code, s)
	if !ok {
		res.unrecoverable = true
		return res, nil
	}
	s.Zero(cell)
	if _, err := a.dec.Reconstruct(s, layout.ErasureSet{cell: true}); err != nil {
		res.unrecoverable = true
		return res, nil
	}
	if !a.enc.Verify(s) {
		// Reconstructing the located block did not restore consistency:
		// more than one block was corrupt after all — the located cell was
		// not a genuine single corruption, so it does not count as found.
		res.unrecoverable = true
		return res, nil
	}
	res.corruptFound++
	if repair {
		if err := a.diskFor(st, cell.Col).Write(a.blockAddr(st, cell), s.Block(cell)); err != nil {
			return res, err
		}
		res.corruptRepaired++
		a.tel.scrubRepairs.Inc()
	}
	return res, nil
}

// locateCorruption finds the unique cell whose membership pattern matches
// the set of failing chains, if exactly one exists.
func locateCorruption(code layout.Code, s *layout.Stripe) (layout.Coord, bool) {
	chains := code.Chains()
	failing := make(map[int]bool)
	acc := bufpool.Get(s.BlockSize)
	defer bufpool.Put(acc)
	for i, ch := range chains {
		copy(acc, s.Block(ch.Parity))
		for _, m := range ch.Covers {
			xorblk.Xor(acc, s.Block(m))
		}
		if !xorblk.IsZero(acc) {
			failing[i] = true
		}
	}
	if len(failing) == 0 {
		return layout.Coord{}, false
	}
	g := code.Geometry()
	var found layout.Coord
	matches := 0
	for r := 0; r < g.Rows; r++ {
		for j := 0; j < g.Cols; j++ {
			c := layout.Coord{Row: r, Col: j}
			// The chains that would fail if c were corrupt: every chain
			// containing c (as parity or cover).
			ok := true
			count := 0
			for i, ch := range chains {
				contains := ch.Parity == c
				if !contains {
					for _, m := range ch.Covers {
						if m == c {
							contains = true
							break
						}
					}
				}
				if contains {
					count++
					if !failing[i] {
						ok = false
						break
					}
				}
			}
			if ok && count == len(failing) {
				found = c
				matches++
			}
		}
	}
	if matches != 1 {
		return layout.Coord{}, false
	}
	return found, true
}
