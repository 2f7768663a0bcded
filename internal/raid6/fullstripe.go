package raid6

import "fmt"

// WriteStripe writes all data blocks of one stripe at once and encodes its
// parities in a single pass — the full-stripe write optimization: no block
// is read, every cell is written exactly once (2 writes per data block at
// MDS rates, versus up to 6 I/Os per block through read-modify-write).
// data must contain exactly DataPerStripe() blocks, in Locate order. The
// array must be healthy.
func (a *Array) WriteStripe(stripe int64, data [][]byte) error {
	if len(data) != len(a.dataCells) {
		return fmt.Errorf("raid6: full-stripe write of %d blocks, want %d", len(data), len(a.dataCells))
	}
	if a.failedColumns().Len() > 0 {
		return fmt.Errorf("%w: full-stripe write needs a healthy array", ErrTooManyFailures)
	}
	s := a.stripes.Get()
	defer a.stripes.Put(s)
	for i, b := range data {
		if len(b) != a.blockSize {
			return fmt.Errorf("raid6: block %d has %d bytes, want %d", i, len(b), a.blockSize)
		}
		s.SetBlock(a.dataCells[i], b)
	}
	a.enc.Encode(s)
	lk := a.disks.StripeLock(stripe)
	lk.Lock()
	defer lk.Unlock()
	for j := 0; j < a.geom.Cols; j++ {
		if err := a.writeColumn(stripe, j, s); err != nil {
			return err
		}
	}
	return nil
}

// ReadStripe reads all data blocks of one stripe in Locate order,
// reconstructing if disks have failed.
func (a *Array) ReadStripe(stripe int64) ([][]byte, error) {
	lk := a.disks.StripeLock(stripe)
	lk.Lock()
	s, es, err := a.loadStripe(stripe, nil)
	lk.Unlock()
	if err != nil {
		return nil, err
	}
	defer a.stripes.Put(s)
	if len(es) > 0 {
		if _, err := a.dec.Reconstruct(s, es); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrTooManyFailures, err)
		}
	}
	out := make([][]byte, len(a.dataCells))
	for i, c := range a.dataCells {
		b := make([]byte, a.blockSize)
		copy(b, s.Block(c))
		out[i] = b
	}
	return out, nil
}
